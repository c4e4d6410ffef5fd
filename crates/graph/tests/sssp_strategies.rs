//! Property tests pinning the bucket-queue SSSP strategy **bit-equal** to
//! the binary-heap baseline.
//!
//! Both strategies drive the same strict-improvement relaxation to
//! exhaustion, so their distance arrays must agree to the last bit on every
//! graph, mask and cutoff — that exact equality is what lets the serving
//! paths switch strategies by size without changing a single digest. Parent
//! trees may differ between strategies (any tight shortest-path tree is
//! correct), so they are checked for validity, not identity.
//!
//! The second half pins the target-directed traversals
//! (`CsrSubgraph::sssp_toward` / `sssp_resume`) to the full run of the same
//! strategy: a suspended run is a prefix of the full one, so the target's
//! distance bits and its reconstructed path must be identical, and a run
//! resumed to completion must end with identical distances and parents.

use ftspan_graph::csr::{reconstruct_path, CsrSubgraph, SsspStrategy, SsspWorkspace};
use ftspan_graph::stream::GeneratorSpec;
use ftspan_graph::{generate, Graph, NodeId};
use proptest::prelude::*;

fn graph_from_bits(n: usize, bits: &[bool], weights: &[f64]) -> Graph {
    let mut g = Graph::new(n);
    let mut idx = 0usize;
    for u in 0..n {
        for v in (u + 1)..n {
            if idx < bits.len() && bits[idx] {
                let w = weights.get(idx).copied().unwrap_or(1.0).abs().max(0.01);
                g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
            }
            idx += 1;
        }
    }
    g
}

/// Runs both strategies on the same traversal and checks the contract:
/// bit-identical distances, and a valid (tight, alive, rooted) parent tree
/// from each strategy.
fn assert_strategies_agree(
    csr: &CsrSubgraph,
    source: NodeId,
    dead: Option<&[bool]>,
    dead_edges: Option<&[bool]>,
    cutoff: Option<f64>,
    heap_ws: &mut SsspWorkspace,
    bucket_ws: &mut SsspWorkspace,
) {
    csr.sssp_into_with_strategy(
        source,
        dead,
        dead_edges,
        cutoff,
        SsspStrategy::BinaryHeap,
        heap_ws,
    )
    .unwrap();
    csr.sssp_into_with_strategy(
        source,
        dead,
        dead_edges,
        cutoff,
        SsspStrategy::BucketQueue,
        bucket_ws,
    )
    .unwrap();

    let dh = heap_ws.distances();
    let db = bucket_ws.distances();
    assert_eq!(dh.len(), db.len());
    for v in 0..dh.len() {
        assert_eq!(
            dh[v].to_bits(),
            db[v].to_bits(),
            "vertex {v}: heap {} vs bucket {}",
            dh[v],
            db[v]
        );
    }

    let source_dead = dead.is_some_and(|d| d[source.index()]);
    for ws in [&*heap_ws, &*bucket_ws] {
        let d = ws.distances();
        for (v, parent) in ws.parents().iter().enumerate() {
            match parent {
                None => {
                    // Only the (alive) source and unreached vertices lack a
                    // parent.
                    if v == source.index() && !source_dead {
                        assert_eq!(d[v], 0.0);
                    } else {
                        assert!(d[v].is_infinite(), "vertex {v} reached without parent");
                    }
                }
                Some(p) => {
                    assert!(d[v].is_finite());
                    assert!(d[p.index()].is_finite());
                    assert!(!dead.is_some_and(|m| m[v] || m[p.index()]));
                    // Some alive edge (p, v) must make the label exactly
                    // tight — the defining property of a shortest-path tree
                    // edge under floating-point arithmetic.
                    let tight = csr.neighbors(*p).any(|(nbr, w, e)| {
                        nbr.index() == v
                            && !dead_edges.is_some_and(|m| m[e.index()])
                            && d[v] == d[p.index()] + w
                    });
                    assert!(tight, "vertex {v}: parent edge not tight/alive");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// G(n, p)-style random graphs with arbitrary positive weights, under
    /// random vertex masks, edge masks and cutoffs. The two workspaces are
    /// reused across every traversal of every case, so this also exercises
    /// workspace reuse across graphs of different sizes.
    #[test]
    fn bucket_matches_heap_on_random_graphs(
        n in 2usize..14,
        bits in proptest::collection::vec(any::<bool>(), 0..91),
        weights in proptest::collection::vec(0.01f64..50.0, 0..91),
        dead_bits in proptest::collection::vec(any::<bool>(), 14..15),
        dead_edge_bits in proptest::collection::vec(any::<bool>(), 91..92),
        cutoff_raw in 0.5f64..20.0,
        use_cutoff in any::<bool>(),
    ) {
        let cutoff = if use_cutoff { Some(cutoff_raw) } else { None };
        let g = graph_from_bits(n, &bits, &weights);
        let csr = CsrSubgraph::from_graph(&g);
        let dead: Vec<bool> = dead_bits[..n].to_vec();
        let dead_edges: Vec<bool> = (0..g.edge_count())
            .map(|e| dead_edge_bits[e % dead_edge_bits.len()])
            .collect();
        let mut heap_ws = SsspWorkspace::new();
        let mut bucket_ws = SsspWorkspace::new();
        for src in 0..n {
            let source = NodeId::new(src);
            assert_strategies_agree(&csr, source, None, None, None, &mut heap_ws, &mut bucket_ws);
            assert_strategies_agree(
                &csr, source, Some(&dead), Some(&dead_edges), cutoff,
                &mut heap_ws, &mut bucket_ws,
            );
        }
    }

    /// Grids and tori from the streaming generator: uniform structure,
    /// seeded uniform weights — the family in which many buckets hold many
    /// entries at once.
    #[test]
    fn bucket_matches_heap_on_grids(
        rows in 1usize..7,
        cols in 1usize..7,
        wrap in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = GeneratorSpec::Grid {
            rows,
            cols,
            wrap,
            weights: generate::WeightKind::Uniform { min: 0.5, max: 3.0 },
            seed,
        };
        let csr = spec.generate_csr().unwrap();
        let n = csr.node_count();
        let mut heap_ws = SsspWorkspace::new();
        let mut bucket_ws = SsspWorkspace::new();
        for src in [0, n / 2, n - 1] {
            assert_strategies_agree(
                &csr, NodeId::new(src), None, None, None, &mut heap_ws, &mut bucket_ws,
            );
        }
    }

    /// Preferential-attachment (power-law) graphs: hubs concentrate
    /// relaxations, unit weights collapse everything into few buckets.
    #[test]
    fn bucket_matches_heap_on_power_law(
        nodes in 5usize..40,
        attach in 1usize..4,
        seed in any::<u64>(),
        masked in any::<bool>(),
    ) {
        let spec = GeneratorSpec::PreferentialAttachment { nodes, attach, seed };
        let csr = spec.generate_csr().unwrap();
        let dead: Vec<bool> = (0..nodes).map(|v| masked && v % 5 == 1).collect();
        let mut heap_ws = SsspWorkspace::new();
        let mut bucket_ws = SsspWorkspace::new();
        for src in [0, nodes - 1] {
            assert_strategies_agree(
                &csr, NodeId::new(src), Some(&dead), None, None,
                &mut heap_ws, &mut bucket_ws,
            );
        }
    }
}

/// A single pair of workspaces serves an interleaved sequence of graphs of
/// very different sizes and weight scales; every traversal must produce the
/// same bits as a traversal into a fresh workspace.
#[test]
fn workspace_reuse_never_leaks_state() {
    let specs = [
        GeneratorSpec::Gnm {
            nodes: 300,
            edges: 900,
            weights: generate::WeightKind::Uniform {
                min: 0.001,
                max: 0.01,
            },
            seed: 1,
        },
        GeneratorSpec::Grid {
            rows: 9,
            cols: 11,
            wrap: true,
            weights: generate::WeightKind::Uniform {
                min: 100.0,
                max: 90000.0,
            },
            seed: 2,
        },
        GeneratorSpec::PreferentialAttachment {
            nodes: 50,
            attach: 2,
            seed: 3,
        },
        GeneratorSpec::Gnm {
            nodes: 8,
            edges: 12,
            weights: generate::WeightKind::Unit,
            seed: 4,
        },
    ];
    let mut shared_heap = SsspWorkspace::new();
    let mut shared_bucket = SsspWorkspace::new();
    for spec in &specs {
        let csr = spec.generate_csr().unwrap();
        let n = csr.node_count();
        for src in [0, n - 1] {
            let source = NodeId::new(src);
            assert_strategies_agree(
                &csr,
                source,
                None,
                None,
                None,
                &mut shared_heap,
                &mut shared_bucket,
            );
            let mut fresh = SsspWorkspace::new();
            csr.sssp_into_with_strategy(source, None, None, None, SsspStrategy::Auto, &mut fresh)
                .unwrap();
            assert_eq!(fresh.distances(), shared_heap.distances());
            assert_eq!(fresh.distances(), shared_bucket.distances());
        }
    }
}

// ---------------------------------------------------------------------------
// Target-directed, resumable traversals
// ---------------------------------------------------------------------------

const STRATEGIES: [SsspStrategy; 3] = [
    SsspStrategy::BinaryHeap,
    SsspStrategy::BucketQueue,
    SsspStrategy::Auto,
];

/// Checks, for one strategy, that a traversal directed at each of `targets`
/// reports the full run's distance bits and path for it, and that one run
/// resumed through `targets` in the given order and then to completion ends
/// with the full run's distances, parents and work. Returns the half-edges
/// the directed runs scanned and what as many full runs scan.
fn assert_toward_matches_full(
    csr: &CsrSubgraph,
    source: NodeId,
    targets: &[NodeId],
    dead: Option<&[bool]>,
    dead_edges: Option<&[bool]>,
    strategy: SsspStrategy,
) -> (u64, u64) {
    let mut full = SsspWorkspace::new();
    csr.sssp_into_with_strategy(source, dead, dead_edges, None, strategy, &mut full)
        .unwrap();
    assert!(full.is_complete());
    let check = |ws: &SsspWorkspace, t: NodeId| {
        assert_eq!(
            ws.distances()[t.index()].to_bits(),
            full.distances()[t.index()].to_bits(),
            "{strategy:?}: {source:?} -> {t:?}"
        );
        assert_eq!(
            reconstruct_path(ws.parents(), ws.distances(), source, t),
            reconstruct_path(full.parents(), full.distances(), source, t),
            "{strategy:?}: path {source:?} -> {t:?}"
        );
        assert!(ws.half_edges_scanned() <= full.half_edges_scanned());
    };

    let mut directed = 0;
    for &t in targets {
        let mut ws = SsspWorkspace::new();
        csr.sssp_toward_with_strategy(source, t, dead, dead_edges, strategy, &mut ws)
            .unwrap();
        check(&ws, t);
        directed += ws.half_edges_scanned();
    }

    let mut ws = SsspWorkspace::new();
    for (i, &t) in targets.iter().enumerate() {
        if i == 0 {
            csr.sssp_toward_with_strategy(source, t, dead, dead_edges, strategy, &mut ws)
                .unwrap();
        } else {
            csr.sssp_resume(Some(t), dead, dead_edges, &mut ws).unwrap();
        }
        check(&ws, t);
    }
    csr.sssp_resume(None, dead, dead_edges, &mut ws).unwrap();
    assert!(ws.is_complete());
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(ws.distances()), bits(full.distances()));
    assert_eq!(ws.parents(), full.parents());
    assert_eq!(ws.half_edges_scanned(), full.half_edges_scanned());
    (directed, full.half_edges_scanned() * targets.len() as u64)
}

/// Every vertex as a target, ordered near to far by the full run's
/// distance (unreachable ones last), plus the same list far to near.
fn near_and_far_orders(
    csr: &CsrSubgraph,
    source: NodeId,
    dead: Option<&[bool]>,
) -> [Vec<NodeId>; 2] {
    let dist = csr.sssp(source, dead, None).unwrap();
    let mut near: Vec<NodeId> = (0..csr.node_count()).map(NodeId::new).collect();
    near.sort_by(|a, b| dist[a.index()].total_cmp(&dist[b.index()]));
    let far = near.iter().rev().copied().collect();
    [near, far]
}

/// The whole battery on one CSR: every strategy, every source in
/// `sources`, every target, near-to-far and far-to-near, with and without
/// the given masks. Returns, per strategy, the half-edges the directed runs
/// scanned and what as many full runs scan.
fn battery(
    csr: &CsrSubgraph,
    sources: &[usize],
    dead: &[bool],
    dead_edges: &[bool],
) -> [(u64, u64); 3] {
    let mut work = [(0, 0); 3];
    for &s in sources {
        let source = NodeId::new(s);
        for (strategy, work) in STRATEGIES.into_iter().zip(&mut work) {
            for masks in [
                (None, None),
                (Some(dead), None),
                (None, Some(dead_edges)),
                (Some(dead), Some(dead_edges)),
            ] {
                for targets in near_and_far_orders(csr, source, masks.0) {
                    let (directed, full) = assert_toward_matches_full(
                        csr, source, &targets, masks.0, masks.1, strategy,
                    );
                    work.0 += directed;
                    work.1 += full;
                }
            }
        }
    }
    work
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small random graphs, unit weights (many ties) or arbitrary positive
    /// weights, under random vertex and edge masks: the masks kill targets
    /// and cut components off, so dead and unreachable targets come up in
    /// most cases; the source is always among the targets.
    #[test]
    fn toward_matches_full_on_random_graphs(
        n in 2usize..14,
        bits in proptest::collection::vec(any::<bool>(), 0..91),
        weights in proptest::collection::vec(0.01f64..50.0, 0..91),
        unit in any::<bool>(),
        dead_bits in proptest::collection::vec(any::<bool>(), 14..15),
        dead_edge_bits in proptest::collection::vec(any::<bool>(), 91..92),
    ) {
        let weights = if unit { Vec::new() } else { weights };
        let g = graph_from_bits(n, &bits, &weights);
        let csr = CsrSubgraph::from_graph(&g);
        let dead: Vec<bool> = dead_bits[..n].to_vec();
        let dead_edges: Vec<bool> = (0..g.edge_count())
            .map(|e| dead_edge_bits[e % dead_edge_bits.len()])
            .collect();
        battery(&csr, &[0, n / 2, n - 1], &dead, &dead_edges);
    }
}

/// Seeded graphs big enough for the bucket queue to hold many entries per
/// bucket and to expand vertices more than once: unit-weight,
/// uniform-weight and widely spread weight `G(n, m)`, a disconnected union
/// (unreachable targets), and a torus, each under a dead-vertex and a
/// dead-edge mask. On every one of them, stopping at the target must save
/// work with every strategy.
#[test]
fn toward_matches_full_on_seeded_graphs() {
    let specs = [
        GeneratorSpec::Gnm {
            nodes: 120,
            edges: 600,
            weights: generate::WeightKind::Unit,
            seed: 5,
        },
        GeneratorSpec::Gnm {
            nodes: 120,
            edges: 1500,
            weights: generate::WeightKind::Uniform { min: 1.0, max: 4.0 },
            seed: 6,
        },
        // Weights spread over three orders of magnitude: targets are first
        // reached over heavy edges and improved late over chains of light
        // ones, so stopping even slightly early shows.
        GeneratorSpec::Gnm {
            nodes: 100,
            edges: 900,
            weights: generate::WeightKind::Uniform {
                min: 0.01,
                max: 10.0,
            },
            seed: 9,
        },
        GeneratorSpec::Gnm {
            nodes: 150,
            edges: 160,
            weights: generate::WeightKind::Uniform { min: 0.1, max: 9.0 },
            seed: 7,
        },
        GeneratorSpec::Grid {
            rows: 9,
            cols: 12,
            wrap: true,
            weights: generate::WeightKind::Uniform { min: 0.5, max: 3.0 },
            seed: 8,
        },
    ];
    for spec in &specs {
        let csr = spec.generate_csr().unwrap();
        let n = csr.node_count();
        let dead: Vec<bool> = (0..n).map(|v| v % 7 == 3).collect();
        let dead_edges: Vec<bool> = (0..csr.parent_edge_count()).map(|e| e % 5 == 2).collect();
        for (strategy, (directed, full)) in
            STRATEGIES
                .into_iter()
                .zip(battery(&csr, &[0, 3, n / 2], &dead, &dead_edges))
        {
            assert!(
                directed < full,
                "{spec:?} {strategy:?}: {directed} vs {full}"
            );
        }
    }
}

/// Edge cases, one by one, on a path `0 - 1 - 2 - 3` plus an isolated
/// vertex 4, and on a triangle whose target improves late.
#[test]
fn toward_edge_cases() {
    let g = Graph::from_edges(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)]).unwrap();
    let csr = CsrSubgraph::from_graph(&g);
    let node = NodeId::new;
    for strategy in STRATEGIES {
        // Target = source: final at distance 0 before any expansion.
        let mut ws = SsspWorkspace::new();
        csr.sssp_toward_with_strategy(node(0), node(0), None, None, strategy, &mut ws)
            .unwrap();
        assert_eq!(ws.distances()[0], 0.0);
        assert_eq!(
            reconstruct_path(ws.parents(), ws.distances(), node(0), node(0)),
            Some(vec![node(0)])
        );
        // A dead target suspends before the first pop.
        let dead = [false, false, true, false, false];
        csr.sssp_toward_with_strategy(node(0), node(2), Some(&dead), None, strategy, &mut ws)
            .unwrap();
        assert!(ws.distances()[2].is_infinite());
        assert_eq!(ws.half_edges_scanned(), 0);
        assert!(!ws.is_complete());
        // Resuming past it to a live target behind it finds it unreachable.
        csr.sssp_resume(Some(node(3)), Some(&dead), None, &mut ws)
            .unwrap();
        assert!(ws.distances()[3].is_infinite());
        assert!(ws.is_complete());
        // An unreachable target exhausts the source's component.
        csr.sssp_toward_with_strategy(node(0), node(4), None, None, strategy, &mut ws)
            .unwrap();
        assert!(ws.distances()[4].is_infinite());
        assert!(ws.is_complete());
        assert_eq!(ws.distances()[3], 4.0);
        // A dead source reaches nothing, not even itself.
        let dead_source = [true, false, false, false, false];
        csr.sssp_toward_with_strategy(
            node(0),
            node(0),
            Some(&dead_source),
            None,
            strategy,
            &mut ws,
        )
        .unwrap();
        assert!(ws.distances()[0].is_infinite());
        assert!(ws.is_complete());
    }
    // A late improvement: 0 reaches 2 directly at 1.0, then through 1 at
    // 0.999 + 0.0005. Stopping before 1 is expanded would report 1.0.
    let near_tie = Graph::from_edges(3, [(0, 2, 1.0), (0, 1, 0.999), (1, 2, 0.0005)]).unwrap();
    let near_tie = CsrSubgraph::from_graph(&near_tie);
    for strategy in STRATEGIES {
        let mut ws = SsspWorkspace::new();
        near_tie
            .sssp_toward_with_strategy(node(0), node(2), None, None, strategy, &mut ws)
            .unwrap();
        assert_eq!(ws.distances()[2], 0.999 + 0.0005);
        assert_eq!(
            reconstruct_path(ws.parents(), ws.distances(), node(0), node(2)),
            Some(vec![node(0), node(1), node(2)])
        );
    }
    // Invalid inputs are typed errors.
    let mut ws = SsspWorkspace::new();
    assert!(csr
        .sssp_toward(node(0), node(9), None, None, &mut ws)
        .is_err());
    assert!(csr.sssp_resume(None, None, None, &mut ws).is_err());
    let other = CsrSubgraph::from_graph(&generate::path(3));
    other
        .sssp_toward(node(0), node(2), None, None, &mut ws)
        .unwrap();
    assert!(csr.sssp_resume(Some(node(3)), None, None, &mut ws).is_err());
}

/// The automatic queue choice: the heap for small CSRs, the bucket queue
/// for large sparse ones, the heap again from 64 half-edges per vertex.
#[test]
fn auto_strategy_follows_size_and_density() {
    let gnm = |nodes, edges| GeneratorSpec::Gnm {
        nodes,
        edges,
        weights: generate::WeightKind::Uniform { min: 1.0, max: 4.0 },
        seed: 1,
    };
    let small = CsrSubgraph::from_graph(&generate::path(10));
    assert_eq!(small.auto_strategy(), SsspStrategy::BinaryHeap);
    let sparse = gnm(100_000, 400_000).generate_csr().unwrap();
    assert_eq!(sparse.auto_strategy(), SsspStrategy::BucketQueue);
    let dense = gnm(1000, 300_000).generate_csr().unwrap();
    assert_eq!(dense.auto_strategy(), SsspStrategy::BinaryHeap);
}
