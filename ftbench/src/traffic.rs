//! Everything the benchmark sends, generated from the run's seed: the
//! fixture graph, the query batches, the send schedules and the edge
//! deltas. The program under test receives only these generated inputs.

use fault_tolerant_spanners::core::conversion::ConversionParams;
use fault_tolerant_spanners::core::par;
use fault_tolerant_spanners::graph::generate::WeightKind;
use fault_tolerant_spanners::graph::stream::GeneratorSpec;
use fault_tolerant_spanners::graph::{Graph, NodeId};
use fault_tolerant_spanners::{EdgeDelta, Query, QueryKind, RebuildPolicy};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Serving name of the fixture artifact.
pub const ARTIFACT: &str = "fixture";
pub const NODES: usize = 1000;
pub const EDGES: usize = 300_000;
pub const WEIGHT_MIN: f64 = 1.0;
pub const WEIGHT_MAX: f64 = 4.0;

/// Independent sub-seeds of one run seed, one per consumer, so that
/// adding a consumer never shifts another's stream.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    purpose.bytes().fold(seed ^ 0x9e37_79b9_7f4a_7c15, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fixture: `G(n = 1000, m = 300 000)` with weights uniform in [1, 4).
pub fn fixture_spec(seed: u64) -> GeneratorSpec {
    GeneratorSpec::Gnm {
        nodes: NODES,
        edges: EDGES,
        weights: WeightKind::Uniform {
            min: WEIGHT_MIN,
            max: WEIGHT_MAX,
        },
        seed: sub_seed(seed, "graph"),
    }
}

/// Seed of the builder's own generator for the fixture artifact.
pub fn build_seed(seed: u64) -> u64 {
    sub_seed(seed, "build")
}

/// Which queries a reader sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Zipf(1.0) sources over four fixed fault scopes, one of them empty:
    /// (scope, source) pairs repeat, so a source cache has something to win.
    Zipf,
    /// Uniform sources, each query under a fresh random single-vertex fault
    /// scope: nothing repeats, every query misses any cache.
    Fresh,
}

pub struct QueryStream {
    rng: ChaCha8Rng,
    traffic: Traffic,
    n: usize,
    /// Cumulative Zipf weights over source ranks.
    cumulative: Vec<f64>,
    scopes: Vec<Vec<NodeId>>,
}

impl QueryStream {
    pub fn new(traffic: Traffic, n: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cumulative = (1..=n)
            .scan(0.0, |acc, rank| {
                *acc += 1.0 / rank as f64;
                Some(*acc)
            })
            .collect();
        let mut scopes = vec![Vec::new()];
        while scopes.len() < 4 {
            let f = vec![NodeId::new(rng.gen_range(0..n))];
            if !scopes.contains(&f) {
                scopes.push(f);
            }
        }
        QueryStream {
            rng,
            traffic,
            n,
            cumulative,
            scopes,
        }
    }

    fn zipf_node(&mut self) -> NodeId {
        let total = *self.cumulative.last().expect("the fixture has nodes");
        let x = self.rng.gen::<f64>() * total;
        NodeId::new(self.cumulative.partition_point(|&c| c < x).min(self.n - 1))
    }

    fn uniform_node(&mut self) -> NodeId {
        NodeId::new(self.rng.gen_range(0..self.n))
    }

    fn query(&mut self, kind: QueryKind) -> Query {
        let (scope, u, v) = loop {
            let (scope, u) = match self.traffic {
                Traffic::Zipf => {
                    let s = self.rng.gen_range(0..self.scopes.len());
                    (self.scopes[s].clone(), self.zipf_node())
                }
                Traffic::Fresh => (vec![self.uniform_node()], self.uniform_node()),
            };
            let v = self.uniform_node();
            // Failed endpoints and self-pairs are not asked: every query
            // of the stream must succeed.
            if u != v && !scope.contains(&u) && !scope.contains(&v) {
                break (scope, u, v);
            }
        };
        match kind {
            QueryKind::Certificate => Query::certificate(ARTIFACT, scope, u, v),
            QueryKind::Path => Query::path(ARTIFACT, scope, u, v),
            QueryKind::Distance => Query::distance(ARTIFACT, scope, u, v),
        }
    }

    /// A batch of `size` queries: one eighth certificates, one eighth
    /// paths, the rest distances, in seeded order. Every batch carries the
    /// same mix, so that the latency tail does not hinge on how many
    /// certificates (a second traversal, on the source graph) a run's
    /// unluckiest batches drew.
    pub fn batch(&mut self, size: usize) -> Vec<Query> {
        let mut kinds = vec![QueryKind::Distance; size];
        for (i, kind) in kinds.iter_mut().take(2 * (size / 8)).enumerate() {
            *kind = if i % 2 == 0 {
                QueryKind::Certificate
            } else {
                QueryKind::Path
            };
        }
        kinds.shuffle(&mut self.rng);
        kinds.into_iter().map(|kind| self.query(kind)).collect()
    }
}

/// Due times (seconds from the phase start) of `rate` evenly spaced sends
/// per second over `duration` seconds, starting at a seeded phase within
/// the first interval, dealt round-robin to `conns` connections. Even
/// spacing keeps arrival bursts out of the latency tail, which then
/// measures the server rather than the luck of the draw.
pub fn even_schedules(rate: f64, duration: f64, conns: usize, seed: u64) -> Vec<Vec<f64>> {
    let interval = 1.0 / rate;
    let phase = ChaCha8Rng::seed_from_u64(seed).gen::<f64>() * interval;
    let mut schedules = vec![Vec::new(); conns];
    for (k, due) in (0..)
        .map(|k| phase + k as f64 * interval)
        .take_while(|&t| t < duration)
        .enumerate()
    {
        schedules[k % conns].push(due);
    }
    schedules
}

/// For each vertex, the conversion iterations in which it survives the
/// oversampled fault set, as a bit mask. The masks are a pure function of
/// the builder seed and `n` (the edges play no part), so they hold for
/// every version of a dynamic artifact built from the same recipe.
pub struct SurvivalMasks {
    masks: Vec<u128>,
    budget: u32,
}

impl SurvivalMasks {
    /// Recomputes the masks the vertex-fault conversion draws for `faults`
    /// on `n` vertices from the builder generator seeded with `build_seed`.
    pub fn new(n: usize, faults: usize, build_seed: u64) -> Self {
        let params = ConversionParams::new(faults);
        let alpha = params.iterations_for(n);
        assert!(alpha <= 128, "α = {alpha} does not fit the u128 masks");
        let p = params.sampling_probability();
        let seeds = par::derive_seeds(&mut ChaCha8Rng::seed_from_u64(build_seed), alpha);
        let mut masks = vec![0u128; n];
        for (i, &s) in seeds.iter().enumerate() {
            let mut rng = par::stream(s);
            for mask in masks.iter_mut() {
                if rng.gen::<f64>() >= p {
                    *mask |= 1 << i;
                }
            }
        }
        let budget = RebuildPolicy::default().touched_budget(alpha) as u32;
        SurvivalMasks { masks, budget }
    }

    /// Iterations a change to edge `(u, v)` touches.
    pub fn touched(&self, u: NodeId, v: NodeId) -> u32 {
        (self.masks[u.index()] & self.masks[v.index()]).count_ones()
    }

    /// Whether the default rebuild policy patches a single-edge change.
    pub fn patches(&self, u: NodeId, v: NodeId) -> bool {
        self.touched(u, v) <= self.budget
    }
}

/// The benchmark's own copy of the graph, and the single-edge deltas it draws
/// from it. Every delta is valid against the copy at the time it is drawn,
/// and is applied to the copy at once.
///
/// Deltas alternate between edges the default rebuild policy patches and
/// edges it rebuilds for, so every run applies the same mix of the two.
pub struct DeltaStream {
    rng: ChaCha8Rng,
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    index: HashMap<(NodeId, NodeId), usize>,
    masks: SurvivalMasks,
    drawn: usize,
}

impl DeltaStream {
    pub fn new(graph: &Graph, masks: SurvivalMasks, seed: u64) -> Self {
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(_, e)| key(e.u, e.v)).collect();
        let index = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        DeltaStream {
            rng: ChaCha8Rng::seed_from_u64(seed),
            n: graph.node_count(),
            edges,
            index,
            masks,
            drawn: 0,
        }
    }

    fn weight(&mut self) -> f64 {
        self.rng.gen_range(WEIGHT_MIN..WEIGHT_MAX)
    }

    pub fn next_delta(&mut self) -> EdgeDelta {
        let patch = self.drawn.is_multiple_of(2);
        self.drawn += 1;
        match self.rng.gen_range(0..3u32) {
            0 => loop {
                let u = NodeId::new(self.rng.gen_range(0..self.n));
                let v = NodeId::new(self.rng.gen_range(0..self.n));
                let e = key(u, v);
                if u != v && !self.index.contains_key(&e) && self.masks.patches(u, v) == patch {
                    self.index.insert(e, self.edges.len());
                    self.edges.push(e);
                    let weight = self.weight();
                    return EdgeDelta::Insert { u, v, weight };
                }
            },
            kind => loop {
                let i = self.rng.gen_range(0..self.edges.len());
                let (u, v) = self.edges[i];
                if self.masks.patches(u, v) != patch {
                    continue;
                }
                if kind == 1 {
                    self.edges.swap_remove(i);
                    self.index.remove(&(u, v));
                    if let Some(&moved) = self.edges.get(i) {
                        self.index.insert(moved, i);
                    }
                    return EdgeDelta::Delete { u, v };
                }
                let weight = self.weight();
                return EdgeDelta::Reweight { u, v, weight };
            },
        }
    }

    /// The copy's current edge set, as sorted endpoint pairs.
    pub fn edge_keys(&self) -> Vec<(NodeId, NodeId)> {
        let mut keys = self.edges.clone();
        keys.sort_unstable();
        keys
    }
}

fn key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

/// A graph's edge set as sorted endpoint pairs.
pub fn graph_keys(graph: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut keys: Vec<_> = graph.edges().map(|(_, e)| key(e.u, e.v)).collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tolerant_spanners::DeltaLog;

    fn small_graph(seed: u64) -> Graph {
        GeneratorSpec::Gnm {
            nodes: 60,
            edges: 600,
            weights: WeightKind::Uniform { min: 1.0, max: 4.0 },
            seed,
        }
        .generate()
        .unwrap()
    }

    fn deltas(graph: &Graph, seed: u64, count: usize) -> Vec<EdgeDelta> {
        let masks = SurvivalMasks::new(graph.node_count(), 1, build_seed(seed));
        let mut stream = DeltaStream::new(graph, masks, sub_seed(seed, "deltas"));
        (0..count).map(|_| stream.next_delta()).collect()
    }

    fn batches(traffic: Traffic, seed: u64) -> Vec<Vec<Query>> {
        let mut stream = QueryStream::new(traffic, 60, seed);
        (0..20).map(|_| stream.batch(8)).collect()
    }

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        for traffic in [Traffic::Zipf, Traffic::Fresh] {
            assert_eq!(batches(traffic, 5), batches(traffic, 5));
            assert_ne!(batches(traffic, 5), batches(traffic, 6));
        }
        let g = small_graph(1);
        assert_eq!(deltas(&g, 5, 30), deltas(&g, 5, 30));
        assert_ne!(deltas(&g, 5, 30), deltas(&g, 6, 30));
        assert_eq!(
            even_schedules(50.0, 2.0, 2, 3),
            even_schedules(50.0, 2.0, 2, 3)
        );
        assert_ne!(
            even_schedules(50.0, 2.0, 2, 3),
            even_schedules(50.0, 2.0, 2, 4)
        );
        assert_eq!(fixture_spec(9), fixture_spec(9));
        assert_ne!(fixture_spec(9), fixture_spec(10));
    }

    #[test]
    fn even_schedules_interleave_the_connections() {
        let schedules = even_schedules(50.0, 2.0, 2, 3);
        assert_eq!(schedules[0].len() + schedules[1].len(), 100);
        let mut all: Vec<f64> = schedules.concat();
        all.sort_by(f64::total_cmp);
        for pair in all.windows(2) {
            assert!((pair[1] - pair[0] - 0.02).abs() < 1e-9);
        }
        assert!(schedules[0][0] < schedules[1][0] && schedules[1][0] < schedules[0][1]);
    }

    #[test]
    fn every_delta_is_valid_against_the_benchmark_copy() {
        let g = small_graph(2);
        let masks = SurvivalMasks::new(g.node_count(), 1, build_seed(7));
        let mut stream = DeltaStream::new(&g, masks, 11);
        let mut log = DeltaLog::new();
        for _ in 0..200 {
            log.append(stream.next_delta());
            // Replaying the log rejects any delta that is invalid against
            // the graph it reaches, and lands on the benchmark's copy.
            let replayed = log.replay(&g).expect("every delta is valid");
            assert_eq!(graph_keys(&replayed), stream.edge_keys());
        }
    }

    #[test]
    fn deltas_alternate_patch_and_rebuild_edges() {
        let g = small_graph(3);
        let masks = SurvivalMasks::new(g.node_count(), 1, build_seed(4));
        let check = SurvivalMasks::new(g.node_count(), 1, build_seed(4));
        let mut stream = DeltaStream::new(&g, masks, 12);
        for i in 0..40 {
            let (u, v) = stream.next_delta().endpoints();
            assert_eq!(check.patches(u, v), i % 2 == 0);
        }
    }

    #[test]
    fn queries_never_fail_an_endpoint() {
        for traffic in [Traffic::Zipf, Traffic::Fresh] {
            for batch in batches(traffic, 8) {
                for q in &batch {
                    assert_ne!(q.u, q.v);
                    assert!(!q.faults.contains(&q.u) && !q.faults.contains(&q.v));
                    assert!(q.faults.len() <= 1);
                }
                let count = |k: QueryKind| batch.iter().filter(|q| q.kind == k).count();
                assert_eq!(count(QueryKind::Certificate), 1);
                assert_eq!(count(QueryKind::Path), 1);
                assert_eq!(count(QueryKind::Distance), 6);
            }
        }
        let zipf_scopes: std::collections::BTreeSet<Vec<NodeId>> = batches(Traffic::Zipf, 8)
            .into_iter()
            .flatten()
            .map(|q| q.faults)
            .collect();
        assert!(zipf_scopes.len() <= 4 && zipf_scopes.contains(&Vec::new()));
    }
}
