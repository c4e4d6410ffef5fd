//! The paper's experiments, one function per `paper-*` scenario of
//! [`Profile::Paper`](crate::scenarios::Profile::Paper).
//!
//! Each function takes the scenario seed and returns its tables; the tables
//! hold no wall-clock columns, so they (and the scenario digest over them)
//! are a pure function of the seed. A validity column that comes out `false`
//! panics with the experiment and row instead of printing, so a broken
//! guarantee fails the run.

use crate::{fmt, Table};
use fault_tolerant_spanners::core::two_spanner::{solve_relaxation, RelaxationConfig};
use fault_tolerant_spanners::prelude::*;
use ftspan_spanners::size_bounds;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// E1 — Theorem 2.1 / Corollary 2.2: spanner size as a function of the number
/// of tolerated faults `r`, for `k ∈ {3, 5}` on one G(200, 0.15) instance,
/// next to the Corollary 2.2 bound (iteration scale 0.25, validity re-checked
/// by sampling 30 fault sets).
///
/// Expected shape: `blowup` grows polynomially (roughly `r^{2-2/(k+1)} log n`),
/// not exponentially.
pub fn e1_size_vs_r(seed: u64) -> Vec<Table> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = 200;
    let graph = generate::connected_gnp(n, 0.15, generate::WeightKind::Unit, &mut rng);
    let mut table = Table::new(
        "e1_size_vs_r",
        &[
            "k",
            "r",
            "edges",
            "plain_edges",
            "blowup",
            "cor22_bound",
            "valid_sampled",
        ],
    );
    for &k in &[3.0f64, 5.0] {
        let plain = GreedySpanner::new(k).build(&graph, &mut rng);
        for &r in &[1usize, 2, 3, 4, 6, 8] {
            let report = FtSpannerBuilder::new("conversion")
                .faults(r)
                .stretch(k)
                .scale(0.25)
                .build_with_rng(GraphInput::from(&graph), &mut rng)
                .expect("the conversion accepts undirected inputs");
            let check = verify::verify_fault_tolerance_sampled(
                &graph,
                report.edge_set().expect("undirected report"),
                k,
                r,
                30,
                &mut rng,
            );
            assert!(
                check.is_valid(),
                "E1 k = {k}, r = {r}: valid_sampled is false"
            );
            table.row(&[
                fmt(k, 0),
                r.to_string(),
                report.size().to_string(),
                plain.len().to_string(),
                fmt(report.size() as f64 / plain.len() as f64, 2),
                fmt(size_bounds::corollary_2_2_bound(n, r, k), 0),
                check.is_valid().to_string(),
            ]);
        }
    }
    vec![table]
}

/// E2 — Corollary 2.2: spanner size as a function of `n` for `r = 2`, `k = 3`
/// on G(n, 10/n) (iteration scale 0.25).
///
/// Expected shape: `edges_per_n^1.5` stays roughly flat (up to the `log n`
/// factor and graph density effects) — the plain spanner's `n`-dependence
/// times a `poly(r) log n` factor.
pub fn e2_size_vs_n(seed: u64) -> Vec<Table> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let r = 2usize;
    let k = 3.0f64;
    let builder = FtSpannerBuilder::new("corollary-2.2")
        .faults(r)
        .stretch(k)
        .scale(0.25);
    let mut table = Table::new(
        "e2_size_vs_n",
        &[
            "n",
            "m",
            "ft_edges",
            "plain_edges",
            "blowup",
            "cor22_bound",
            "edges_per_n^1.5",
        ],
    );
    for &n in &[100usize, 200, 400, 800] {
        let p = (10.0 / n as f64).min(1.0);
        let graph = generate::connected_gnp(n, p, generate::WeightKind::Unit, &mut rng);
        let plain = GreedySpanner::new(k).build(&graph, &mut rng);
        let report = builder
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("corollary-2.2 accepts undirected inputs");
        table.row(&[
            n.to_string(),
            graph.edge_count().to_string(),
            report.size().to_string(),
            plain.len().to_string(),
            fmt(report.size() as f64 / plain.len().max(1) as f64, 2),
            fmt(size_bounds::corollary_2_2_bound(n, r, k), 0),
            fmt(report.size() as f64 / (n as f64).powf(1.5), 3),
        ]);
    }
    vec![table]
}

/// E3 — the conversion theorem against the CLPR09-style baseline (the union
/// of greedy spanners over every fault set) on one G(60, 0.12) instance,
/// with both theoretical bounds.
///
/// Expected shape: `clpr_fault_sets` (the baseline's work) explodes
/// combinatorially with `r` and `clpr09_bound` grows exponentially, while
/// ours grows polynomially. Edge counts are capped by `m` on a fixed graph,
/// so the contrast shows most clearly in the bounds and the work.
pub fn e3_vs_clpr(seed: u64) -> Vec<Table> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = 60;
    let k = 3.0;
    let graph = generate::connected_gnp(n, 0.12, generate::WeightKind::Unit, &mut rng);
    let mut table = Table::new(
        "e3_vs_clpr",
        &[
            "r",
            "ours_edges",
            "ours_iterations",
            "clpr_edges",
            "clpr_fault_sets",
            "cor22_bound",
            "clpr09_bound",
        ],
    );
    for &r in &[0usize, 1, 2] {
        let ours = if r == 0 {
            // r = 0 is just the plain spanner; the conversion is not needed.
            let plain = GreedySpanner::new(k).build(&graph, &mut rng);
            (plain.len(), 1usize)
        } else {
            let report = FtSpannerBuilder::new("conversion")
                .faults(r)
                .stretch(k)
                .scale(0.25)
                .build_with_rng(GraphInput::from(&graph), &mut rng)
                .expect("the conversion accepts undirected inputs");
            (report.size(), report.iterations)
        };
        let clpr = FtSpannerBuilder::new("clpr09")
            .faults(r)
            .stretch(k)
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("the CLPR09 baseline accepts undirected inputs");
        table.row(&[
            r.to_string(),
            ours.0.to_string(),
            ours.1.to_string(),
            clpr.size().to_string(),
            clpr.iterations.to_string(),
            fmt(size_bounds::corollary_2_2_bound(n, r, k), 0),
            fmt(size_bounds::clpr09_bound(n, r, 2), 0),
        ]);
    }
    vec![table]
}

/// E4 — Theorem 3.3: the knapsack-cover LP rounding's approximation ratio is
/// independent of `r`, while the DK10 baseline degrades. Both ratios are
/// measured against the stronger LP (4) lower bound on directed G(16, 0.4),
/// once with unit and once with random costs.
///
/// Expected shape: `ours_ratio` stays roughly flat as `r` grows; `dk10_ratio`
/// (and its alpha) grow with `r`, converging to the buy-everything cost.
pub fn e4_k2_approx(seed: u64) -> Vec<Table> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    two_cost_models(&mut rng, |costs, label, rng| {
        let graph = generate::directed_gnp(16, 0.4, costs, rng);
        let mut table = Table::new(
            &format!("e4_k2_approx_{label}"),
            &[
                "r",
                "lp4_lower_bound",
                "ours_cost",
                "ours_ratio",
                "ours_alpha",
                "dk10_cost",
                "dk10_ratio",
                "dk10_alpha",
                "buy_all",
            ],
        );
        for &r in &[0usize, 1, 2, 3, 4] {
            let ours = FtSpannerBuilder::new("two-spanner-lp")
                .faults(r)
                .build_with_rng(GraphInput::from(&graph), rng)
                .expect("relaxation solvable");
            let dk10 = FtSpannerBuilder::new("dk10")
                .faults(r)
                .build_with_rng(GraphInput::from(&graph), rng)
                .expect("relaxation solvable");
            assert_ft_two_spanner(&graph, &ours, r, "E4 two-spanner-lp");
            assert_ft_two_spanner(&graph, &dk10, r, "E4 dk10");
            let lp4 = ours.lp_objective.expect("LP rounding reports its bound");
            table.row(&[
                r.to_string(),
                fmt(lp4, 2),
                fmt(ours.cost, 1),
                fmt(ours.cost / lp4.max(1e-9), 2),
                fmt(ours.alpha.expect("LP rounding reports alpha"), 2),
                fmt(dk10.cost, 1),
                fmt(dk10.cost / lp4.max(1e-9), 2),
                fmt(dk10.alpha.expect("DK10 reports alpha"), 2),
                fmt(graph.total_cost(), 1),
            ]);
        }
        table
    })
}

/// E5 — Sections 3.1–3.2: integrality gaps of the relaxations, on fixed
/// instances (the seed is unused).
///
/// * The costly-arc gadget (Section 3.2): `gap_lp3` grows linearly with `r`
///   (the Ω(r) gap of LP (3)); `gap_lp4` stays at 1.00 — the knapsack-cover
///   inequalities of LP (4) close it.
/// * The complete digraph `K_n` (Section 3.1): every integral solution needs
///   `(r+1)·n` arcs while the flow relaxation pays much less, and the ratio
///   grows with `r`. Rows whose LP (3) solve hits the simplex pivot cap
///   print `n/a`.
pub fn e5_integrality_gap(_seed: u64) -> Vec<Table> {
    let expensive = 100.0;
    let mut gadget = Table::new(
        "e5_gap_gadget",
        &["r", "opt", "lp3", "lp4", "gap_lp3", "gap_lp4", "kc_cuts"],
    );
    for &r in &[1usize, 2, 4, 8] {
        let g = generate::gap_gadget(r, expensive).expect("r >= 1");
        let opt = expensive + 2.0 * r as f64; // must buy everything
        let lp3 = solve_relaxation(&g, &RelaxationConfig::new(r).without_knapsack_cover())
            .expect("LP (3) solvable");
        let lp4 = solve_relaxation(&g, &RelaxationConfig::new(r)).expect("LP (4) solvable");
        gadget.row(&[
            r.to_string(),
            fmt(opt, 1),
            fmt(lp3.objective, 2),
            fmt(lp4.objective, 2),
            fmt(opt / lp3.objective, 2),
            fmt(opt / lp4.objective, 2),
            lp4.cuts.cuts_added.to_string(),
        ]);
    }

    let mut kn = Table::new(
        "e5_complete_digraph",
        &["n", "r", "integral_lower_bound", "lp3", "ratio"],
    );
    for &(n, r) in &[(7usize, 1usize), (7, 2), (7, 3), (8, 2), (8, 4)] {
        let g = generate::complete_digraph(n);
        let integral = ((r + 1) * n) as f64;
        let (lp3, ratio) =
            match solve_relaxation(&g, &RelaxationConfig::new(r).without_knapsack_cover()) {
                Ok(lp3) => (fmt(lp3.objective, 2), fmt(integral / lp3.objective, 2)),
                Err(e) => {
                    eprintln!("warning: LP (3) on K_{n} with r = {r} not solved: {e}");
                    ("n/a".to_string(), "n/a".to_string())
                }
            };
        kn.row(&[n.to_string(), r.to_string(), fmt(integral, 0), lp3, ratio]);
    }
    vec![gadget, kn]
}

/// E6 — Theorem 3.4: on bounded-degree unit-cost graphs the constructive
/// Lovász Local Lemma cuts the inflation from `O(log n)` to `O(log Δ)`. The
/// Theorem 3.3 rounding and the Moser–Tardos variant run on near-regular
/// 20-node graphs of growing degree, `r = 1`.
///
/// Expected shape: `lll_alpha` tracks `ln Δ` (smaller than `logn_alpha` =
/// `3 ln n` for sparse graphs) and the LLL cost is no worse — usually better
/// — than the `log n` rounding, with a handful of resampling steps.
pub fn e6_bounded_degree(seed: u64) -> Vec<Table> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = 20;
    let r = 1usize;
    let mut table = Table::new(
        "e6_bounded_degree",
        &[
            "delta",
            "arcs",
            "lp_lower_bound",
            "logn_cost",
            "logn_ratio",
            "logn_alpha",
            "lll_cost",
            "lll_ratio",
            "lll_alpha",
            "lll_resamples",
        ],
    );
    for &d in &[3usize, 4, 6, 8] {
        let undirected = generate::random_near_regular(n, d, &mut rng);
        let graph = DiGraph::from_graph(&undirected);
        let theorem33 = FtSpannerBuilder::new("two-spanner-lp")
            .faults(r)
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("relaxation solvable");
        let lll = FtSpannerBuilder::new("two-spanner-lll")
            .faults(r)
            .degree_bound(graph.max_degree())
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("relaxation solvable");
        assert_ft_two_spanner(&graph, &theorem33, r, "E6 two-spanner-lp");
        assert_ft_two_spanner(&graph, &lll, r, "E6 two-spanner-lll");
        let lp = lll.lp_objective.expect("LLL rounding reports its bound");
        table.row(&[
            graph.max_degree().to_string(),
            graph.arc_count().to_string(),
            fmt(lp, 2),
            fmt(theorem33.cost, 1),
            fmt(theorem33.cost / lp.max(1e-9), 2),
            fmt(theorem33.alpha.expect("LP rounding reports alpha"), 2),
            fmt(lll.cost, 1),
            fmt(lll.ratio_vs_lp().expect("LLL reports its bound"), 2),
            fmt(lll.alpha.expect("LLL reports alpha"), 2),
            lll.resamples.expect("LLL reports resamples").to_string(),
        ]);
    }
    vec![table]
}

/// E7 — Theorems 2.3 / 2.4 and 3.9: the distributed algorithms, with LOCAL
/// rounds and messages side by side.
///
/// * (a) The distributed conversion at stretch 3 and the theorem's full
///   iteration budget: rounds = 2 × iterations (the black box is
///   constant-round), so the total is `O(r³ log n)`, and every output
///   verifies as fault tolerant on 30 sampled fault sets. (A quarter of the
///   budget is not enough: at n = 100, r = 1 it can miss an edge outright,
///   leaving stretch 4 with no fault at all.)
/// * (b) The distributed 2-spanner (Algorithm 2, 4 repetitions): rounds grow
///   polylogarithmically in `n` and the cost stays within an
///   `O(log n)`-like factor of the centralized LP lower bound.
pub fn e7_distributed(seed: u64) -> Vec<Table> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut a = Table::new(
        "e7a_distributed_conversion",
        &[
            "n",
            "m",
            "r",
            "iterations",
            "rounds",
            "messages",
            "edges",
            "valid_sampled",
        ],
    );
    for &(n, r) in &[(50usize, 1usize), (50, 2), (100, 1), (100, 2)] {
        let graph = generate::connected_gnp(
            n,
            (8.0 / n as f64).min(1.0),
            generate::WeightKind::Unit,
            &mut rng,
        );
        let out = FtSpannerBuilder::new("distributed-conversion")
            .faults(r)
            .stretch(3.0)
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("the distributed conversion accepts stretch-3 requests");
        let check = verify::verify_fault_tolerance_sampled(
            &graph,
            out.edge_set().expect("undirected report"),
            3.0,
            r,
            30,
            &mut rng,
        );
        assert!(
            check.is_valid(),
            "E7a n = {n}, r = {r}: valid_sampled is false"
        );
        a.row(&[
            n.to_string(),
            graph.edge_count().to_string(),
            r.to_string(),
            out.iterations.to_string(),
            out.rounds.expect("distributed reports rounds").to_string(),
            out.messages
                .expect("distributed reports messages")
                .to_string(),
            out.size().to_string(),
            check.is_valid().to_string(),
        ]);
    }

    let mut b = Table::new(
        "e7b_distributed_two_spanner",
        &[
            "n",
            "arcs",
            "r",
            "repetitions",
            "rounds",
            "cost",
            "central_lp",
            "ratio",
            "repaired",
        ],
    );
    for &(n, r) in &[(10usize, 0usize), (10, 1), (14, 1)] {
        let graph = generate::directed_gnp(n, 0.4, generate::WeightKind::Unit, &mut rng);
        let central = solve_relaxation(&graph, &RelaxationConfig::new(r)).expect("LP solvable");
        let out = FtSpannerBuilder::new("distributed-two-spanner")
            .faults(r)
            .repetitions(4)
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("cluster LPs solvable");
        assert_ft_two_spanner(&graph, &out, r, "E7b distributed-two-spanner");
        b.row(&[
            n.to_string(),
            graph.arc_count().to_string(),
            r.to_string(),
            out.iterations.to_string(),
            out.rounds.expect("distributed reports rounds").to_string(),
            fmt(out.cost, 1),
            fmt(central.objective, 2),
            fmt(out.cost / central.objective.max(1e-9), 2),
            out.repaired_arcs.to_string(),
        ]);
    }
    vec![a, b]
}

/// E9 — edge-fault tolerance (the extension of Theorem 2.1 that samples
/// edges instead of vertices into the oversized fault set). The same
/// `conversion` algorithm runs under both fault models on one G(60, 0.15)
/// instance at stretch 3; edge-fault validity is checked exhaustively for
/// `r ≤ 2` and on 40 sampled fault sets above.
///
/// Expected shape: both models' sizes grow slowly with `r` and stay above
/// the degree lower bound; the edge-fault construction uses fewer
/// iterations (`Θ(r² log n)` vs `Θ(r³ log n)`).
pub fn e9_edge_faults(seed: u64) -> Vec<Table> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = generate::connected_gnp(60, 0.15, generate::WeightKind::Unit, &mut rng);
    let k = 3.0;
    let mut table = Table::new(
        "e9_edge_faults",
        &[
            "r",
            "edge_ft_edges",
            "edge_ft_iters",
            "vertex_ft_edges",
            "vertex_ft_iters",
            "plain_edges",
            "lower_bound",
            "edge_ft_valid",
        ],
    );
    let plain = GreedySpanner::new(k).build(&graph, &mut rng);
    let builder = FtSpannerBuilder::new("conversion").stretch(k).scale(0.25);
    for &r in &[1usize, 2, 3, 4] {
        let edge_result = builder
            .clone()
            .faults(r)
            .edge_faults()
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("the conversion accepts edge-fault requests");
        let vertex_result = builder
            .clone()
            .faults(r)
            .vertex_faults()
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("the conversion accepts vertex-fault requests");
        let edges = edge_result.edge_set().expect("undirected report");
        let valid = if r <= 2 {
            verify::verify_edge_fault_tolerance_exhaustive(&graph, edges, k, r).is_valid()
        } else {
            verify::verify_edge_fault_tolerance_sampled(&graph, edges, k, r, 40, &mut rng)
                .is_valid()
        };
        assert!(valid, "E9 r = {r}: edge_ft_valid is false");
        table.row(&[
            r.to_string(),
            edge_result.size().to_string(),
            edge_result.iterations.to_string(),
            vertex_result.size().to_string(),
            vertex_result.iterations.to_string(),
            plain.len().to_string(),
            vertex_fault_size_lower_bound(&graph, r).to_string(),
            valid.to_string(),
        ]);
    }
    vec![table]
}

/// E10 — the Theorem 3.3 LP rounding against the LP-free greedy cover, next
/// to the LP (4) and the combinatorial degree lower bounds, on directed
/// G(16, 0.4) with unit and with random costs.
///
/// Expected shape: both stay within a small factor of the LP lower bound;
/// the greedy cover is competitive here but carries no worst-case
/// guarantee.
pub fn e10_greedy_vs_lp(seed: u64) -> Vec<Table> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    two_cost_models(&mut rng, |costs, label, rng| {
        let graph = generate::directed_gnp(16, 0.4, costs, rng);
        let mut table = Table::new(
            &format!("e10_greedy_vs_lp_{label}"),
            &[
                "r",
                "degree_lower_bound",
                "lp4_lower_bound",
                "lp_rounding_cost",
                "lp_rounding_ratio",
                "greedy_cost",
                "greedy_ratio",
                "buy_all",
            ],
        );
        for &r in &[0usize, 1, 2, 3] {
            let rounded = FtSpannerBuilder::new("two-spanner-lp")
                .faults(r)
                .build_with_rng(GraphInput::from(&graph), rng)
                .expect("relaxation solvable");
            let greedy = FtSpannerBuilder::new("two-spanner-greedy")
                .faults(r)
                .build_with_rng(GraphInput::from(&graph), rng)
                .expect("the greedy cover always succeeds");
            assert_ft_two_spanner(&graph, &rounded, r, "E10 two-spanner-lp");
            assert_ft_two_spanner(&graph, &greedy, r, "E10 two-spanner-greedy");
            let lp4 = rounded.lp_objective.expect("LP rounding reports its bound");
            table.row(&[
                r.to_string(),
                fmt(directed_cost_lower_bound(&graph, r), 1),
                fmt(lp4, 2),
                fmt(rounded.cost, 1),
                fmt(rounded.cost / lp4.max(1e-9), 2),
                fmt(greedy.cost, 1),
                fmt(greedy.cost / lp4.max(1e-9), 2),
                fmt(graph.total_cost(), 1),
            ]);
        }
        table
    })
}

/// E11 — how many of Theorem 2.1's `Θ(r³ log n)` iterations are needed in
/// practice: the `adaptive` construction (stops once the union passes a
/// verification battery) against the full-budget `corollary-2.2` on one
/// G(80, 0.12) instance at stretch 3. Exhaustive re-verification is
/// affordable only at `r = 1` (`-` otherwise).
///
/// Expected shape: the adaptive construction needs a small fraction of the
/// theorem's budget while producing a spanner of comparable size that still
/// verifies.
pub fn e11_adaptive_alpha(seed: u64) -> Vec<Table> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = generate::connected_gnp(80, 0.12, generate::WeightKind::Unit, &mut rng);
    let k = 3.0;
    let mut table = Table::new(
        "e11_adaptive_alpha",
        &[
            "r",
            "adaptive_iters",
            "theorem_iters",
            "budget_fraction",
            "adaptive_edges",
            "full_alpha_edges",
            "verified",
            "valid_exhaustive_r1",
        ],
    );
    for &r in &[1usize, 2, 3] {
        let adaptive = FtSpannerBuilder::new("adaptive")
            .faults(r)
            .stretch(k)
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("the adaptive conversion accepts undirected inputs");
        let full = FtSpannerBuilder::new("corollary-2.2")
            .faults(r)
            .stretch(k)
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("corollary-2.2 accepts undirected inputs");
        let verified = adaptive.verified.expect("adaptive reports its battery");
        assert!(verified, "E11 r = {r}: verified is false");
        let exhaustive = if r == 1 {
            let valid = verify::is_fault_tolerant_k_spanner(
                &graph,
                adaptive.edge_set().expect("undirected report"),
                k,
                r,
            );
            assert!(valid, "E11 r = {r}: valid_exhaustive_r1 is false");
            valid.to_string()
        } else {
            "-".to_string()
        };
        table.row(&[
            r.to_string(),
            adaptive.iterations.to_string(),
            adaptive
                .theorem_iterations
                .expect("adaptive reports the theorem budget")
                .to_string(),
            fmt(adaptive.budget_fraction(), 3),
            adaptive.size().to_string(),
            full.size().to_string(),
            verified.to_string(),
            exhaustive,
        ]);
    }
    vec![table]
}

/// E12 — the whole registry on a shared undirected G(40, 0.2) and a shared
/// directed G(12, 0.4) instance at `r = 1`: every construction —
/// centralized, distributed, baselines — out of the same
/// `FtSpannerAlgorithm::build` call and the same `SpannerReport` shape. The
/// adaptive row stops early, the distributed rows carry LOCAL round counts,
/// the LP rows carry lower bounds.
pub fn e12_registry_matrix(seed: u64) -> Vec<Table> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generate::connected_gnp(40, 0.2, generate::WeightKind::Unit, &mut rng);
    let dg = generate::directed_gnp(12, 0.4, generate::WeightKind::Unit, &mut rng);
    let mut table = Table::new(
        "e12_registry_matrix",
        &[
            "algorithm",
            "reference",
            "family",
            "fault_model",
            "stretch",
            "size",
            "cost",
            "iters",
            "rounds",
            "lp_bound",
        ],
    );
    let base_request = SpannerRequest::new(1).with_scale(0.5).with_repetitions(4);
    for algorithm in registry().iter() {
        // The CLPR09 baseline is exhaustive by default; cap its fault-set
        // count the way a production deployment would, via the request. The
        // knob stays off for everything else (on `adaptive` it would also
        // downgrade the stopping rule from exhaustive to sampled).
        let request = if algorithm.name() == "clpr09" {
            base_request.with_samples(40)
        } else {
            base_request
        };
        let input = match algorithm.graph_family() {
            GraphFamily::Undirected => GraphInput::from(&g),
            GraphFamily::Directed => GraphInput::from(&dg),
        };
        let report = match algorithm.build(input, &request, &mut rng) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("warning: `{}` skipped: {e}", algorithm.name());
                continue;
            }
        };
        table.row(&[
            report.algorithm.clone(),
            algorithm.reference().to_string(),
            algorithm.graph_family().to_string(),
            report.fault_model.to_string(),
            fmt(report.stretch, 0),
            report.size().to_string(),
            fmt(report.cost, 1),
            report.iterations.to_string(),
            report
                .rounds
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            report
                .lp_objective
                .map_or_else(|| "-".to_string(), |v| fmt(v, 2)),
        ]);
    }
    vec![table]
}

/// Runs `experiment` once with unit costs and once with costs uniform in
/// `[1, 10]`, on the same random stream (E4 and E10).
fn two_cost_models(
    rng: &mut ChaCha8Rng,
    mut experiment: impl FnMut(generate::WeightKind, &str, &mut ChaCha8Rng) -> Table,
) -> Vec<Table> {
    vec![
        experiment(generate::WeightKind::Unit, "unit_costs", rng),
        experiment(
            generate::WeightKind::Uniform {
                min: 1.0,
                max: 10.0,
            },
            "random_costs",
            rng,
        ),
    ]
}

fn assert_ft_two_spanner(graph: &DiGraph, report: &SpannerReport, r: usize, what: &str) {
    assert!(
        verify::is_ft_two_spanner(graph, report.arc_set().expect("directed report"), r),
        "{what} r = {r}: output is not an {r}-fault-tolerant 2-spanner"
    );
}
