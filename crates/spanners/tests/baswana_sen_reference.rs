//! Equivalence battery for the linear-time Baswana–Sen construction.
//!
//! `reference` below is the original construction, kept verbatim as a
//! test-only oracle: a `BTreeMap` of neighbour clusters per vertex and one
//! adjacency rescan per bought cluster (`O(deg²)` per vertex on dense
//! graphs). [`BaswanaSenSpanner::build`] must return the same [`EdgeSet`]
//! *and* leave the generator at the same position — the next `u64` drawn
//! from both streams must agree — so every caller that shares the stream
//! after the black box (the conversion's per-iteration streams) is
//! unaffected.

use ftspan_graph::stream::GeneratorSpec;
use ftspan_graph::{generate, EdgeSet, Graph, NodeId};
use ftspan_spanners::{BaswanaSenSpanner, SpannerAlgorithm};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod reference {
    use ftspan_graph::{EdgeId, EdgeSet, Graph, NodeId};
    use rand::Rng;
    use rand::RngCore;
    use std::collections::{BTreeMap, HashSet};

    pub struct BaswanaSenSpanner {
        pub k: usize,
    }

    impl BaswanaSenSpanner {
        /// Minimum-weight alive edge from `v` to each adjacent cluster.
        ///
        /// Keyed by a `BTreeMap` so iteration (and therefore tie-breaking among
        /// equal-weight edges) is ordered by cluster id: the construction must be
        /// a pure function of `(graph, rng state)` for the workspace's
        /// determinism guarantees, which rules out hash-ordered traversal.
        fn neighbor_clusters(
            graph: &Graph,
            alive: &[bool],
            cluster: &[Option<usize>],
            v: NodeId,
        ) -> BTreeMap<usize, (f64, EdgeId)> {
            let mut best: BTreeMap<usize, (f64, EdgeId)> = BTreeMap::new();
            for (u, eid) in graph.incident(v) {
                if !alive[eid.index()] {
                    continue;
                }
                if let Some(c) = cluster[u.index()] {
                    let w = graph.edge(eid).weight;
                    best.entry(c)
                        .and_modify(|entry| {
                            if w < entry.0 {
                                *entry = (w, eid);
                            }
                        })
                        .or_insert((w, eid));
                }
            }
            best
        }

        /// Discards every alive edge between `v` and the cluster `c`.
        fn discard_edges_to_cluster(
            graph: &Graph,
            alive: &mut [bool],
            cluster: &[Option<usize>],
            v: NodeId,
            c: usize,
        ) {
            for (u, eid) in graph.incident(v) {
                if alive[eid.index()] && cluster[u.index()] == Some(c) {
                    alive[eid.index()] = false;
                }
            }
        }

        pub fn build(&self, graph: &Graph, rng: &mut dyn RngCore) -> EdgeSet {
            let n = graph.node_count();
            let mut spanner = graph.empty_edge_set();
            if n == 0 || graph.edge_count() == 0 {
                return spanner;
            }
            let p = (n as f64).powf(-1.0 / self.k as f64);

            let mut alive = vec![true; graph.edge_count()];
            // cluster[v] = Some(center) while v is clustered, None once discarded.
            let mut cluster: Vec<Option<usize>> = (0..n).map(Some).collect();

            // Phase 1: k - 1 rounds of cluster sampling.
            for _round in 0..self.k.saturating_sub(1) {
                // Which cluster centers survive this round? The coin flips are
                // assigned to centers in ascending id order so the sampled set is
                // a pure function of the rng state (hash order is not).
                let mut centers: Vec<usize> = cluster.iter().flatten().copied().collect();
                centers.sort_unstable();
                centers.dedup();
                let sampled: HashSet<usize> = centers
                    .into_iter()
                    .filter(|_| rng.gen::<f64>() < p)
                    .collect();

                let mut next_cluster: Vec<Option<usize>> = vec![None; n];
                // Vertices of sampled clusters stay put.
                for v in 0..n {
                    if let Some(c) = cluster[v] {
                        if sampled.contains(&c) {
                            next_cluster[v] = Some(c);
                        }
                    }
                }

                for v_idx in 0..n {
                    let v = NodeId::new(v_idx);
                    let Some(own) = cluster[v_idx] else { continue };
                    if sampled.contains(&own) {
                        continue;
                    }
                    let neighbors = Self::neighbor_clusters(graph, &alive, &cluster, v);
                    // Closest sampled neighbor cluster, if any.
                    let best_sampled = neighbors
                        .iter()
                        .filter(|(c, _)| sampled.contains(c))
                        .min_by(|a, b| {
                            a.1 .0
                                .partial_cmp(&b.1 .0)
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(&c, &(w, e))| (c, w, e));

                    match best_sampled {
                        None => {
                            // No sampled neighbor: buy the cheapest edge to every
                            // neighboring cluster and drop out of the clustering.
                            for (&c, &(_w, e)) in &neighbors {
                                spanner.insert(e);
                                Self::discard_edges_to_cluster(graph, &mut alive, &cluster, v, c);
                            }
                            next_cluster[v_idx] = None;
                        }
                        Some((c_star, w_star, e_star)) => {
                            spanner.insert(e_star);
                            next_cluster[v_idx] = Some(c_star);
                            Self::discard_edges_to_cluster(graph, &mut alive, &cluster, v, c_star);
                            for (&c, &(w, e)) in &neighbors {
                                if c != c_star && w < w_star {
                                    spanner.insert(e);
                                    Self::discard_edges_to_cluster(
                                        graph, &mut alive, &cluster, v, c,
                                    );
                                }
                            }
                        }
                    }
                }

                // Remove edges that became internal to a cluster.
                for (eid, e) in graph.edges() {
                    if alive[eid.index()] {
                        if let (Some(cu), Some(cv)) =
                            (next_cluster[e.u.index()], next_cluster[e.v.index()])
                        {
                            if cu == cv {
                                alive[eid.index()] = false;
                            }
                        }
                    }
                }

                cluster = next_cluster;
            }

            // Phase 2: every vertex buys the cheapest edge to each remaining
            // adjacent cluster.
            for v_idx in 0..n {
                let v = NodeId::new(v_idx);
                let neighbors = Self::neighbor_clusters(graph, &alive, &cluster, v);
                for (&c, &(_w, e)) in &neighbors {
                    spanner.insert(e);
                    Self::discard_edges_to_cluster(graph, &mut alive, &cluster, v, c);
                }
            }

            spanner
        }
    }
}

/// Runs both constructions from the same generator state and returns the
/// first difference, if any: the edge sets, or the stream position (the
/// next `u64` after each build).
fn mismatch(g: &Graph, k: usize, seed: u64) -> Option<String> {
    let mut fast_rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ref_rng = fast_rng.clone();
    let fast: EdgeSet = BaswanaSenSpanner::new(k).build(g, &mut fast_rng);
    let slow: EdgeSet = reference::BaswanaSenSpanner { k }.build(g, &mut ref_rng);
    if fast != slow {
        return Some(format!(
            "k = {k}, seed = {seed}, n = {}, m = {}: edge sets differ ({} vs {} edges)",
            g.node_count(),
            g.edge_count(),
            fast.len(),
            slow.len()
        ));
    }
    let (next_fast, next_ref) = (fast_rng.next_u64(), ref_rng.next_u64());
    if next_fast != next_ref {
        return Some(format!(
            "k = {k}, seed = {seed}: generator positions differ after the build"
        ));
    }
    None
}

fn assert_equivalent(g: &Graph, k: usize, seed: u64) {
    if let Some(why) = mismatch(g, k, seed) {
        panic!("{why}");
    }
}

/// The weight distributions of the battery: unit weights (every comparison
/// is a tie), a narrow band (many near-ties) and a wide band.
const WEIGHTS: [generate::WeightKind; 3] = [
    generate::WeightKind::Unit,
    generate::WeightKind::Uniform { min: 1.0, max: 1.5 },
    generate::WeightKind::Uniform { min: 1.0, max: 4.0 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small G(n, p) over every edge density, all three weight bands and
    /// k = 1..5.
    #[test]
    fn matches_the_reference_on_small_gnp(
        n in 1usize..40,
        p in 0.0f64..1.0,
        weights in 0usize..3,
        k in 1usize..6,
        graph_seed in any::<u64>(),
        build_seed in any::<u64>(),
    ) {
        let g = generate::gnp(n, p, WEIGHTS[weights], &mut ChaCha8Rng::seed_from_u64(graph_seed));
        prop_assert_eq!(mismatch(&g, k, build_seed), None);
    }
}

#[test]
fn matches_the_reference_on_a_seeded_gnp_sweep() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB5);
    for weights in WEIGHTS {
        for k in 1..=5 {
            for trial in 0..12 {
                let n = rng.gen_range(2..80);
                let p = [0.05, 0.2, 0.5, 0.9][trial % 4];
                let g = generate::gnp(n, p, weights, &mut rng);
                assert_equivalent(&g, k, rng.gen());
            }
        }
    }
}

#[test]
fn matches_the_reference_on_degenerate_graphs() {
    let empty = Graph::new(0);
    let isolated = Graph::new(5);
    let mut two = Graph::new(2);
    two.add_edge(NodeId::new(0), NodeId::new(1), 2.0).unwrap();
    let mut zero_weight = Graph::new(3);
    zero_weight
        .add_edge(NodeId::new(0), NodeId::new(2), 0.0)
        .unwrap();
    for k in 1..=5 {
        for (seed, g) in [&empty, &isolated, &two, &zero_weight]
            .into_iter()
            .enumerate()
        {
            assert_equivalent(g, k, seed as u64);
        }
    }
}

/// The shape the conversion feeds the black box: a dense G(n, m) with about
/// half its vertices masked out (isolated, ids preserved).
#[test]
fn matches_the_reference_on_a_dense_induced_subgraph() {
    let g = GeneratorSpec::Gnm {
        nodes: 400,
        edges: 40_000,
        weights: generate::WeightKind::Unit,
        seed: 11,
    }
    .generate()
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let alive: Vec<bool> = (0..g.node_count())
        .map(|_| rng.gen::<f64>() >= 0.5)
        .collect();
    let sub = g
        .restricted_subgraph(&g.full_edge_set(), |v| alive[v.index()])
        .unwrap();
    assert!(
        sub.edge_count() > 5_000,
        "mask kept {} edges",
        sub.edge_count()
    );
    for k in [2, 3] {
        assert_equivalent(&sub, k, 13 + k as u64);
    }
}
