//! The randomized clustering spanner of Baswana & Sen.

use crate::SpannerAlgorithm;
use ftspan_graph::{EdgeId, EdgeSet, Graph, NodeId};
use rand::Rng;
use rand::RngCore;

/// The Baswana–Sen randomized `(2k−1)`-spanner construction.
///
/// The algorithm maintains a clustering of the vertices and runs `k − 1`
/// rounds of cluster sampling (each cluster survives with probability
/// `n^{−1/k}`), followed by a final vertex–cluster joining phase. Its expected
/// size is `O(k · n^{1+1/k})` and it works with arbitrary non-negative edge
/// lengths.
///
/// # Running time
///
/// Every round is `O(n + m)`: each vertex scans its adjacency list once to
/// find its lightest edge into every adjacent cluster (dense scratch arrays
/// indexed by cluster centre, reset through a touched list), and once more
/// to discard its edges into every cluster it bought. A build is therefore
/// `O(k · (n + m))` time with `O(n + m)` scratch.
///
/// # Determinism
///
/// The output is a pure function of `(graph, rng state)`:
///
/// * the sampling coins go to the live cluster centres in ascending id
///   order, one `f64` draw each;
/// * among equally light edges from a vertex into one cluster, the first in
///   the vertex's adjacency order (ascending neighbour id) wins;
/// * among equally light sampled clusters, the one with the smallest centre
///   id wins.
///
/// In this workspace it serves as an alternative black box for the conversion
/// theorem (Theorem 2.1), exercising the theorem's claim that *any* spanner
/// construction can be made fault tolerant.
///
/// # Example
///
/// ```
/// use ftspan_spanners::{BaswanaSenSpanner, SpannerAlgorithm};
/// use ftspan_graph::{generate, verify};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let g = generate::gnp(50, 0.4, generate::WeightKind::Unit, &mut rng);
/// let alg = BaswanaSenSpanner::new(2); // stretch 2*2 - 1 = 3
/// let spanner = alg.build(&g, &mut rng);
/// assert!(verify::is_k_spanner(&g, &spanner, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaswanaSenSpanner {
    k: usize,
}

impl BaswanaSenSpanner {
    /// Creates the construction with parameter `k >= 1`; the produced spanner
    /// has stretch `2k − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "Baswana-Sen parameter k must be at least 1");
        BaswanaSenSpanner { k }
    }

    /// The clustering parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// One vertex's view of its adjacent clusters, in arrays indexed by cluster
/// centre and reused from vertex to vertex. Only the entries listed in
/// `touched` are meaningful; [`ClusterScratch::discard_bought`] resets them,
/// so each vertex pays for its own degree and nothing else.
struct ClusterScratch {
    /// Lightest alive edge from the current vertex into each touched cluster.
    best: Vec<(f64, EdgeId)>,
    /// Whether the cluster is in `touched`.
    seen: Vec<bool>,
    /// Whether the current vertex bought an edge into the cluster (and so
    /// discards all its edges into it).
    bought: Vec<bool>,
    /// The clusters adjacent to the current vertex, in first-seen order.
    touched: Vec<usize>,
}

impl ClusterScratch {
    fn new(n: usize) -> Self {
        ClusterScratch {
            best: vec![(0.0, EdgeId::new(0)); n],
            seen: vec![false; n],
            bought: vec![false; n],
            touched: Vec::new(),
        }
    }

    /// Records the lightest alive edge from `v` into each adjacent cluster.
    /// An entry is replaced only by a strictly lighter edge, so ties go to
    /// the first edge in `v`'s adjacency order.
    fn scan(&mut self, graph: &Graph, alive: &[bool], cluster: &[Option<usize>], v: NodeId) {
        for (u, eid) in graph.incident(v) {
            if !alive[eid.index()] {
                continue;
            }
            let Some(c) = cluster[u.index()] else {
                continue;
            };
            let w = graph.edge(eid).weight;
            if !self.seen[c] {
                self.seen[c] = true;
                self.best[c] = (w, eid);
                self.touched.push(c);
            } else if w < self.best[c].0 {
                self.best[c] = (w, eid);
            }
        }
    }

    /// The sampled adjacent cluster with the lightest edge; ties go to the
    /// smallest centre id.
    fn nearest_sampled(&self, sampled: &[bool]) -> Option<usize> {
        self.touched
            .iter()
            .copied()
            .filter(|&c| sampled[c])
            .min_by(|&a, &b| {
                self.best[a]
                    .0
                    .partial_cmp(&self.best[b].0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
    }

    /// Adds the lightest edge into cluster `c` to the spanner.
    fn buy(&mut self, spanner: &mut EdgeSet, c: usize) {
        spanner.insert(self.best[c].1);
        self.bought[c] = true;
    }

    /// Buys every adjacent cluster whose lightest edge is strictly lighter
    /// than `limit`.
    fn buy_lighter_than(&mut self, spanner: &mut EdgeSet, limit: f64) {
        for &c in &self.touched {
            if self.best[c].0 < limit {
                spanner.insert(self.best[c].1);
                self.bought[c] = true;
            }
        }
    }

    /// Discards every edge from `v` into a bought cluster in one pass over
    /// `v`'s adjacency, then resets the scratch for the next vertex.
    ///
    /// Only `v`'s own edges change and `cluster` is the previous round's
    /// clustering, so this leaves `alive` exactly as discarding one bought
    /// cluster at a time would.
    fn discard_bought(
        &mut self,
        graph: &Graph,
        alive: &mut [bool],
        cluster: &[Option<usize>],
        v: NodeId,
    ) {
        for (u, eid) in graph.incident(v) {
            if let Some(c) = cluster[u.index()] {
                if self.bought[c] {
                    alive[eid.index()] = false;
                }
            }
        }
        for c in self.touched.drain(..) {
            self.seen[c] = false;
            self.bought[c] = false;
        }
    }
}

impl SpannerAlgorithm for BaswanaSenSpanner {
    fn name(&self) -> &str {
        "baswana-sen"
    }

    fn stretch(&self) -> f64 {
        (2 * self.k - 1) as f64
    }

    fn build(&self, graph: &Graph, rng: &mut dyn RngCore) -> EdgeSet {
        let n = graph.node_count();
        let mut spanner = graph.empty_edge_set();
        if n == 0 || graph.edge_count() == 0 {
            return spanner;
        }
        let p = (n as f64).powf(-1.0 / self.k as f64);

        let mut alive = vec![true; graph.edge_count()];
        // cluster[v] = Some(center) while v is clustered, None once discarded.
        let mut cluster: Vec<Option<usize>> = (0..n).map(Some).collect();
        let mut sampled = vec![false; n];
        let mut scratch = ClusterScratch::new(n);

        // Phase 1: k - 1 rounds of cluster sampling.
        for _round in 0..self.k.saturating_sub(1) {
            // Which cluster centers survive this round? Mark the live centers,
            // then flip one coin per center in ascending id order.
            sampled.fill(false);
            for &c in cluster.iter().flatten() {
                sampled[c] = true;
            }
            for s in sampled.iter_mut().filter(|s| **s) {
                *s = rng.gen::<f64>() < p;
            }

            // Vertices of sampled clusters stay put.
            let mut next_cluster: Vec<Option<usize>> =
                cluster.iter().map(|c| c.filter(|&c| sampled[c])).collect();

            for v_idx in 0..n {
                let Some(own) = cluster[v_idx] else { continue };
                if sampled[own] {
                    continue;
                }
                let v = NodeId::new(v_idx);
                scratch.scan(graph, &alive, &cluster, v);
                match scratch.nearest_sampled(&sampled) {
                    None => {
                        // No sampled neighbor: buy the cheapest edge to every
                        // neighboring cluster and drop out of the clustering.
                        scratch.buy_lighter_than(&mut spanner, f64::INFINITY);
                        next_cluster[v_idx] = None;
                    }
                    Some(c_star) => {
                        // Join the nearest sampled cluster, and keep the
                        // cheapest edge to every strictly closer cluster.
                        let w_star = scratch.best[c_star].0;
                        scratch.buy(&mut spanner, c_star);
                        scratch.buy_lighter_than(&mut spanner, w_star);
                        next_cluster[v_idx] = Some(c_star);
                    }
                }
                scratch.discard_bought(graph, &mut alive, &cluster, v);
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
            scratch.scan(graph, &alive, &cluster, v);
            scratch.buy_lighter_than(&mut spanner, f64::INFINITY);
            scratch.discard_bought(graph, &mut alive, &cluster, v);
        }

        spanner
    }

    fn size_bound(&self, n: usize) -> f64 {
        crate::size_bounds::baswana_sen_size_bound(n, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generate, verify};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    #[should_panic]
    fn rejects_k_zero() {
        BaswanaSenSpanner::new(0);
    }

    #[test]
    fn k_one_keeps_every_edge() {
        // Stretch 1 requires every edge of a unit-weight complete graph.
        let g = generate::complete(7);
        let s = BaswanaSenSpanner::new(1).build(&g, &mut rng(1));
        assert_eq!(s.len(), g.edge_count());
    }

    #[test]
    fn stretch_guarantee_on_random_graphs() {
        let mut r = rng(2);
        for k in [2usize, 3] {
            for trial in 0..5 {
                let g = generate::gnp(
                    40,
                    0.3,
                    generate::WeightKind::Uniform { min: 1.0, max: 5.0 },
                    &mut r,
                );
                let alg = BaswanaSenSpanner::new(k);
                let s = alg.build(&g, &mut r);
                assert!(
                    verify::is_k_spanner(&g, &s, alg.stretch()),
                    "trial {trial}: not a {}-spanner",
                    alg.stretch()
                );
            }
        }
    }

    #[test]
    fn stretch_guarantee_on_dense_unit_graph() {
        let mut r = rng(3);
        let g = generate::complete(30);
        let alg = BaswanaSenSpanner::new(2);
        let s = alg.build(&g, &mut r);
        assert!(verify::is_k_spanner(&g, &s, 3.0));
        // Expected size O(k n^{1.5}) ≈ 2 * 164; leave generous slack but stay
        // well below the 435 input edges.
        assert!(s.len() < 420, "spanner too dense: {}", s.len());
    }

    #[test]
    fn handles_empty_and_tiny_graphs() {
        let alg = BaswanaSenSpanner::new(3);
        let empty = Graph::new(0);
        assert_eq!(alg.build(&empty, &mut rng(4)).len(), 0);
        let isolated = Graph::new(5);
        assert_eq!(alg.build(&isolated, &mut rng(5)).len(), 0);
        let mut two = Graph::new(2);
        two.add_edge(NodeId::new(0), NodeId::new(1), 2.0).unwrap();
        let s = alg.build(&two, &mut rng(6));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn size_bound_grows_with_k_and_n() {
        let a2 = BaswanaSenSpanner::new(2);
        let a3 = BaswanaSenSpanner::new(3);
        assert!(a2.size_bound(1000) > a3.size_bound(1000) / 3.0);
        assert!(a2.size_bound(2000) > a2.size_bound(1000));
    }

    #[test]
    fn reports_name_and_stretch() {
        let alg = BaswanaSenSpanner::new(4);
        assert_eq!(alg.name(), "baswana-sen");
        assert_eq!(alg.stretch(), 7.0);
        assert_eq!(alg.k(), 4);
    }
}
