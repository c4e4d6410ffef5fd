//! Undirected weighted graphs.

use crate::{EdgeId, EdgeSet, GraphError, NodeId, Result};

/// An undirected edge with a non-negative length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint (the smaller index by construction).
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Length of the edge (`>= 0`, finite).
    pub weight: f64,
}

impl Edge {
    /// Returns the endpoint of the edge that is not `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("vertex {x:?} is not an endpoint of edge {self:?}");
        }
    }

    /// Returns `true` if `x` is an endpoint of this edge.
    pub fn is_incident(&self, x: NodeId) -> bool {
        x == self.u || x == self.v
    }
}

/// An undirected graph with non-negative edge lengths.
///
/// Vertices are dense indices `0..n`; edges are stored once in an edge list
/// indexed by [`EdgeId`] and mirrored in per-vertex adjacency lists. The graph
/// is simple: no self-loops, and parallel edges are rejected by
/// [`Graph::add_edge`].
///
/// This is the input type of the conversion theorem (Theorem 2.1 of the
/// paper) and of all classic spanner constructions in `ftspan-spanners`.
///
/// # Example
///
/// ```
/// use ftspan_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new(4);
/// g.add_edge(NodeId::new(0), NodeId::new(1), 1.0)?;
/// g.add_edge(NodeId::new(1), NodeId::new(2), 2.0)?;
/// g.add_edge(NodeId::new(2), NodeId::new(3), 1.0)?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    edges: Vec<Edge>,
    /// adjacency: for each vertex, (neighbor, edge id), kept sorted by
    /// neighbor so [`Graph::find_edge`] can binary-search instead of
    /// scanning linearly (the oracle-heavy paths call it in tight loops).
    adj: Vec<Vec<(NodeId, EdgeId)>>,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Creates a graph with `n` vertices from an iterator of
    /// `(u, v, weight)` triples.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of bounds, any weight is
    /// negative or not finite, any edge is a self-loop, or an edge appears
    /// twice.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let mut g = Graph::new(n);
        for (u, v, w) in edges {
            g.add_edge(NodeId::new(u), NodeId::new(v), w)?;
        }
        Ok(g)
    }

    /// Creates a unit-weight graph with `n` vertices from `(u, v)` pairs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::from_edges`].
    pub fn from_unit_edges<I>(n: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        Self::from_edges(n, edges.into_iter().map(|(u, v)| (u, v, 1.0)))
    }

    /// Creates a graph with `n` vertices from edges sorted lexicographically
    /// by normalized endpoint pair `(min(u, v), max(u, v))`.
    ///
    /// Bulk loading through [`Graph::add_edge`] pays a binary search plus a
    /// `Vec::insert` shift per edge, which degrades towards quadratic on
    /// dense vertices. When the input arrives in sorted order every adjacency
    /// list can be built with pure appends: vertex `x` first receives its
    /// smaller neighbors (from edges `(a, x)` with `a` ascending) and then
    /// its larger neighbors (from edges `(x, b)` with `b` ascending), so the
    /// lists come out sorted by construction in `O(n + m)` total.
    ///
    /// Edge identifiers are assigned in input order, exactly as if the edges
    /// had been added one by one.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if any endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if any edge is a self-loop.
    /// * [`GraphError::InvalidWeight`] if any weight is negative or not
    ///   finite.
    /// * [`GraphError::InvalidParameter`] if the normalized pairs are not
    ///   strictly increasing (out of order, or a duplicate edge).
    pub fn from_sorted_edges<I>(n: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let mut g = Graph::new(n);
        let mut prev: Option<(usize, usize)> = None;
        for (u, v, weight) in edges {
            for x in [u, v] {
                if x >= n {
                    return Err(GraphError::NodeOutOfBounds { node: x, len: n });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(GraphError::InvalidWeight { weight });
            }
            let (a, b) = (u.min(v), u.max(v));
            if let Some(p) = prev {
                if (a, b) <= p {
                    return Err(GraphError::InvalidParameter {
                        message: format!(
                            "edge ({a}, {b}) is not strictly after ({}, {}); \
                             from_sorted_edges requires strictly increasing \
                             normalized pairs",
                            p.0, p.1
                        ),
                    });
                }
            }
            prev = Some((a, b));
            let id = EdgeId::new(g.edges.len());
            g.edges.push(Edge {
                u: NodeId::new(a),
                v: NodeId::new(b),
                weight,
            });
            g.adj[a].push((NodeId::new(b), id));
            g.adj[b].push((NodeId::new(a), id));
        }
        Ok(g)
    }

    /// Builds a graph with `n` vertices whose edge `i` is `edges[i]`, with
    /// its endpoints normalized so that `u <= v`.
    ///
    /// The result equals adding the edges one by one through
    /// [`Graph::add_edge`], but the adjacency lists are appended and then
    /// sorted once per vertex, which avoids the per-edge sorted insertion
    /// on dense vertices.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if any endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if any edge is a self-loop.
    /// * [`GraphError::InvalidWeight`] if any weight is negative or not
    ///   finite.
    /// * [`GraphError::InvalidParameter`] if two edges join the same pair.
    pub fn from_indexed_edges(n: usize, mut edges: Vec<Edge>) -> Result<Self> {
        for e in &mut edges {
            for x in [e.u, e.v] {
                if x.index() >= n {
                    return Err(GraphError::NodeOutOfBounds {
                        node: x.index(),
                        len: n,
                    });
                }
            }
            if e.u == e.v {
                return Err(GraphError::SelfLoop { node: e.u.index() });
            }
            if !(e.weight.is_finite() && e.weight >= 0.0) {
                return Err(GraphError::InvalidWeight { weight: e.weight });
            }
            if e.v < e.u {
                std::mem::swap(&mut e.u, &mut e.v);
            }
        }
        let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            adj[e.u.index()].push((e.v, EdgeId::new(i)));
            adj[e.v.index()].push((e.u, EdgeId::new(i)));
        }
        for (v, list) in adj.iter_mut().enumerate() {
            list.sort_unstable_by_key(|&(nbr, _)| nbr);
            if list.windows(2).any(|w| w[0].0 == w[1].0) {
                return Err(GraphError::InvalidParameter {
                    message: format!("vertex {v} has parallel edges"),
                });
            }
        }
        Ok(Graph { edges, adj })
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Iterator over all vertex identifiers `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterator over `(EdgeId, &Edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i), e))
    }

    /// Returns the edge with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Returns the edge with the given identifier, or `None` if out of bounds.
    pub fn get_edge(&self, e: EdgeId) -> Option<&Edge> {
        self.edges.get(e.index())
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Adds an undirected edge of length `weight` between `u` and `v`.
    ///
    /// Returns the identifier of the new edge.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if either endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    /// * [`GraphError::InvalidWeight`] if `weight` is negative or not finite.
    /// * [`GraphError::InvalidParameter`] if the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> Result<EdgeId> {
        let n = self.node_count();
        for x in [u, v] {
            if x.index() >= n {
                return Err(GraphError::NodeOutOfBounds {
                    node: x.index(),
                    len: n,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u.index() });
        }
        if !(weight.is_finite() && weight >= 0.0) {
            return Err(GraphError::InvalidWeight { weight });
        }
        let u_slot = match self.adj[u.index()].binary_search_by_key(&v, |&(nbr, _)| nbr) {
            Ok(_) => {
                return Err(GraphError::InvalidParameter {
                    message: format!("edge ({}, {}) already exists", u, v),
                })
            }
            Err(slot) => slot,
        };
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Edge { u: a, v: b, weight });
        // Sorted insertion keeps every adjacency list binary-searchable; the
        // shift is bounded by the endpoint's degree, so building a graph stays
        // cheap (O(deg) worst case per edge, near-append for bulk loads whose
        // neighbors arrive roughly in order).
        self.adj[u.index()].insert(u_slot, (v, id));
        let v_slot = self.adj[v.index()]
            .binary_search_by_key(&u, |&(nbr, _)| nbr)
            .unwrap_err();
        self.adj[v.index()].insert(v_slot, (u, id));
        Ok(id)
    }

    /// Returns the identifier of the edge between `u` and `v`, if present.
    ///
    /// Binary search over the smaller endpoint's sorted adjacency list:
    /// `O(log min(deg u, deg v))`.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u.index() >= self.node_count() || v.index() >= self.node_count() {
            return None;
        }
        // Search the smaller adjacency list.
        let (a, b) = if self.adj[u.index()].len() <= self.adj[v.index()].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a.index()]
            .binary_search_by_key(&b, |&(nbr, _)| nbr)
            .ok()
            .map(|slot| self.adj[a.index()][slot].1)
    }

    /// Returns `true` if an edge between `u` and `v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterator over the neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[v.index()].iter().map(|&(nbr, _)| nbr)
    }

    /// Iterator over `(neighbor, edge id)` pairs incident to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.adj[v.index()].iter().copied()
    }

    /// Returns an [`EdgeSet`] containing every edge of this graph.
    pub fn full_edge_set(&self) -> EdgeSet {
        let mut s = EdgeSet::new(self.edge_count());
        for i in 0..self.edge_count() {
            s.insert(EdgeId::new(i));
        }
        s
    }

    /// Returns an empty [`EdgeSet`] sized for this graph.
    pub fn empty_edge_set(&self) -> EdgeSet {
        EdgeSet::new(self.edge_count())
    }

    /// Builds the subgraph induced by keeping only the edges in `edges` and
    /// only the vertices for which `alive` returns `true`.
    ///
    /// The returned graph has the same vertex set (dead vertices become
    /// isolated), which keeps vertex identifiers stable — this is what the
    /// fault-tolerance machinery relies on.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MismatchedEdgeSet`] if `edges` was built for a
    /// different edge count.
    pub fn restricted_subgraph<F>(&self, edges: &EdgeSet, alive: F) -> Result<Graph>
    where
        F: Fn(NodeId) -> bool,
    {
        if edges.capacity() != self.edge_count() {
            return Err(GraphError::MismatchedEdgeSet {
                set_len: edges.capacity(),
                graph_len: self.edge_count(),
            });
        }
        let mut g = Graph::new(self.node_count());
        for (id, e) in self.edges() {
            if edges.contains(id) && alive(e.u) && alive(e.v) {
                g.add_edge(e.u, e.v, e.weight)?;
            }
        }
        Ok(g)
    }

    /// Builds the subgraph of this graph that survives after removing the
    /// vertices in `faults` (vertex identifiers are preserved; removed
    /// vertices become isolated).
    pub fn remove_vertices(&self, faults: &[NodeId]) -> Graph {
        let mut dead = vec![false; self.node_count()];
        for &f in faults {
            if f.index() < dead.len() {
                dead[f.index()] = true;
            }
        }
        let full = self.full_edge_set();
        self.restricted_subgraph(&full, |v| !dead[v.index()])
            .expect("full edge set always matches the graph")
    }

    /// Materializes the spanner described by `edges` as a standalone graph on
    /// the same vertex set.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MismatchedEdgeSet`] if `edges` was built for a
    /// different edge count.
    pub fn subgraph(&self, edges: &EdgeSet) -> Result<Graph> {
        self.restricted_subgraph(edges, |_| true)
    }

    /// Sum of the weights of the edges in `edges`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MismatchedEdgeSet`] if `edges` was built for a
    /// different edge count.
    pub fn edge_set_weight(&self, edges: &EdgeSet) -> Result<f64> {
        if edges.capacity() != self.edge_count() {
            return Err(GraphError::MismatchedEdgeSet {
                set_len: edges.capacity(),
                graph_len: self.edge_count(),
            });
        }
        Ok(edges.iter().map(|id| self.edge(id).weight).sum())
    }

    /// Returns `true` if every vertex can reach every other vertex.
    ///
    /// The empty graph and single-vertex graph are considered connected.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for u in self.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == n
    }

    /// Returns `true` if every edge has weight exactly 1.
    pub fn is_unit_weight(&self) -> bool {
        self.edges.iter().all(|e| e.weight == 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        Graph::from_unit_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn indexed_edges_build_equals_edge_by_edge_build() {
        let raw = [(3, 1, 2.0), (0, 1, 1.0), (2, 0, 0.5), (1, 2, 1.0)];
        let edges: Vec<Edge> = raw
            .iter()
            .map(|&(u, v, weight)| Edge {
                u: NodeId::new(u),
                v: NodeId::new(v),
                weight,
            })
            .collect();
        assert_eq!(
            Graph::from_indexed_edges(4, edges.clone()).unwrap(),
            Graph::from_edges(4, raw).unwrap()
        );

        let with = |extra: Edge| {
            let mut bad = edges.clone();
            bad.push(extra);
            Graph::from_indexed_edges(4, bad).unwrap_err()
        };
        let edge = |u: usize, v: usize, weight: f64| Edge {
            u: NodeId::new(u),
            v: NodeId::new(v),
            weight,
        };
        assert!(matches!(
            with(edge(0, 4, 1.0)),
            GraphError::NodeOutOfBounds { .. }
        ));
        assert!(matches!(with(edge(2, 2, 1.0)), GraphError::SelfLoop { .. }));
        assert!(matches!(
            with(edge(0, 3, -1.0)),
            GraphError::InvalidWeight { .. }
        ));
        assert!(matches!(
            with(edge(1, 0, 1.0)),
            GraphError::InvalidParameter { .. }
        ));
    }
    #[test]
    fn new_graph_is_empty() {
        let g = Graph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_empty());
        assert!(Graph::new(0).is_empty());
    }

    #[test]
    fn add_edge_and_lookup() {
        let mut g = Graph::new(3);
        let e = g.add_edge(NodeId::new(2), NodeId::new(0), 2.5).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(e).weight, 2.5);
        // Stored with u <= v.
        assert_eq!(g.edge(e).u, NodeId::new(0));
        assert_eq!(g.edge(e).v, NodeId::new(2));
        assert_eq!(g.find_edge(NodeId::new(0), NodeId::new(2)), Some(e));
        assert_eq!(g.find_edge(NodeId::new(2), NodeId::new(0)), Some(e));
        assert!(g.find_edge(NodeId::new(0), NodeId::new(1)).is_none());
    }

    #[test]
    fn add_edge_rejects_bad_input() {
        let mut g = Graph::new(3);
        assert!(matches!(
            g.add_edge(NodeId::new(0), NodeId::new(5), 1.0),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId::new(1), NodeId::new(1), 1.0),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId::new(0), NodeId::new(1), -1.0),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId::new(0), NodeId::new(1), f64::NAN),
            Err(GraphError::InvalidWeight { .. })
        ));
        g.add_edge(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        assert!(matches!(
            g.add_edge(NodeId::new(1), NodeId::new(0), 2.0),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path_graph(4);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(g.max_degree(), 2);
        let nbrs: Vec<_> = g.neighbors(NodeId::new(1)).collect();
        assert!(nbrs.contains(&NodeId::new(0)));
        assert!(nbrs.contains(&NodeId::new(2)));
    }

    #[test]
    fn edge_other_endpoint() {
        let g = path_graph(3);
        let (_, e) = g.edges().next().unwrap();
        assert_eq!(e.other(NodeId::new(0)), NodeId::new(1));
        assert_eq!(e.other(NodeId::new(1)), NodeId::new(0));
        assert!(e.is_incident(NodeId::new(0)));
        assert!(!e.is_incident(NodeId::new(2)));
    }

    #[test]
    #[should_panic]
    fn edge_other_panics_for_non_endpoint() {
        let g = path_graph(3);
        let (_, e) = g.edges().next().unwrap();
        let _ = e.other(NodeId::new(2));
    }

    #[test]
    fn remove_vertices_keeps_ids_stable() {
        let g = path_graph(5);
        let h = g.remove_vertices(&[NodeId::new(2)]);
        assert_eq!(h.node_count(), 5);
        assert_eq!(h.edge_count(), 2); // edges (0,1) and (3,4) survive
        assert!(h.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(h.has_edge(NodeId::new(3), NodeId::new(4)));
        assert!(!h.has_edge(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn subgraph_from_edge_set() {
        let g = path_graph(4);
        let mut s = g.empty_edge_set();
        s.insert(EdgeId::new(0));
        s.insert(EdgeId::new(2));
        let h = g.subgraph(&s).unwrap();
        assert_eq!(h.edge_count(), 2);
        assert!(h.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!h.has_edge(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn mismatched_edge_set_is_rejected() {
        let g = path_graph(4);
        let wrong = EdgeSet::new(99);
        assert!(matches!(
            g.subgraph(&wrong),
            Err(GraphError::MismatchedEdgeSet { .. })
        ));
        assert!(matches!(
            g.edge_set_weight(&wrong),
            Err(GraphError::MismatchedEdgeSet { .. })
        ));
    }

    #[test]
    fn connectivity() {
        let g = path_graph(6);
        assert!(g.is_connected());
        let h = g.remove_vertices(&[NodeId::new(3)]);
        assert!(!h.is_connected());
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn weights_and_unit_check() {
        let g = path_graph(4);
        assert!(g.is_unit_weight());
        assert_eq!(g.total_weight(), 3.0);
        let full = g.full_edge_set();
        assert_eq!(g.edge_set_weight(&full).unwrap(), 3.0);
        let mut g2 = Graph::new(2);
        g2.add_edge(NodeId::new(0), NodeId::new(1), 2.0).unwrap();
        assert!(!g2.is_unit_weight());
    }

    #[test]
    fn adjacency_is_sorted_and_lookup_matches_linear_scan() {
        // Insert edges in scrambled order; the per-vertex lists must stay
        // sorted (the invariant behind the binary-searched find_edge).
        let mut g = Graph::new(8);
        for (u, v) in [(0, 7), (0, 3), (0, 5), (0, 1), (3, 7), (2, 3), (3, 4)] {
            g.add_edge(NodeId::new(u), NodeId::new(v), 1.0).unwrap();
        }
        for v in g.nodes() {
            let nbrs: Vec<NodeId> = g.neighbors(v).collect();
            let mut sorted = nbrs.clone();
            sorted.sort_unstable();
            assert_eq!(nbrs, sorted, "adjacency of {v} not sorted");
        }
        for u in 0..8 {
            for v in 0..8 {
                let expected = g
                    .edges()
                    .find(|(_, e)| (e.u.index(), e.v.index()) == (u.min(v), u.max(v)) && u != v)
                    .map(|(id, _)| id);
                assert_eq!(g.find_edge(NodeId::new(u), NodeId::new(v)), expected);
            }
        }
    }

    #[test]
    fn from_sorted_edges_matches_incremental_build() {
        let edges = [
            (0usize, 1usize, 1.5),
            (0, 3, 2.0),
            (1, 2, 0.5),
            (2, 3, 1.0),
            (2, 4, 3.0),
        ];
        let bulk = Graph::from_sorted_edges(5, edges).unwrap();
        let incremental = Graph::from_edges(5, edges).unwrap();
        assert_eq!(bulk, incremental);
        for v in bulk.nodes() {
            let nbrs: Vec<NodeId> = bulk.neighbors(v).collect();
            let mut sorted = nbrs.clone();
            sorted.sort_unstable();
            assert_eq!(nbrs, sorted, "adjacency of {v} not sorted");
        }
        // Edge ids follow input order.
        assert_eq!(
            bulk.find_edge(NodeId::new(1), NodeId::new(2)),
            Some(EdgeId::new(2))
        );
    }

    #[test]
    fn from_sorted_edges_rejects_bad_input() {
        assert!(matches!(
            Graph::from_sorted_edges(3, [(0, 5, 1.0)]),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert!(matches!(
            Graph::from_sorted_edges(3, [(1, 1, 1.0)]),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            Graph::from_sorted_edges(3, [(0, 1, f64::NAN)]),
            Err(GraphError::InvalidWeight { .. })
        ));
        // Out of order.
        assert!(matches!(
            Graph::from_sorted_edges(3, [(1, 2, 1.0), (0, 1, 1.0)]),
            Err(GraphError::InvalidParameter { .. })
        ));
        // Duplicate (after normalization).
        assert!(matches!(
            Graph::from_sorted_edges(3, [(0, 1, 1.0), (1, 0, 2.0)]),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn full_and_empty_edge_sets() {
        let g = path_graph(5);
        assert_eq!(g.full_edge_set().len(), 4);
        assert_eq!(g.empty_edge_set().len(), 0);
    }
}
