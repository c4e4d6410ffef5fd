//! The conversion theorem (Theorem 2.1) and Corollary 2.2.
//!
//! The construction is deliberately simple — the paper's title promise. In
//! each of `α = Θ(r³ log n)` independent iterations:
//!
//! 1. every vertex joins a sampled "oversized fault set" `J` independently
//!    with probability `p = 1 − 1/r` (`p = 1/2` when `r ≤ 1`);
//! 2. the given black-box `k`-spanner algorithm is run on `G \ J`;
//! 3. the resulting edges are added to the output.
//!
//! For any real fault set `F` (`|F| ≤ r`) and any surviving edge `(u, v)`
//! whose shortest surviving path is the edge itself, an iteration "covers"
//! the pair when `u, v ∉ J` and `F ⊆ J`; this happens with probability at
//! least `1/(4r²)`, so `Θ(r³ log n)` iterations cover every pair and every
//! fault set with high probability. The expected number of surviving vertices
//! per iteration is `n/r`, which is where the `f(2n/r)` in the size bound
//! comes from.

use crate::par;
use crate::{CoreError, Result};
use ftspan_graph::{EdgeId, EdgeSet, Graph, NodeId};
use ftspan_spanners::SpannerAlgorithm;
use rand::Rng;
use rand::RngCore;

/// Parameters of the fault-tolerant conversion (Theorem 2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionParams {
    /// Number of vertex faults `r` to tolerate.
    pub faults: usize,
    /// Explicit number of iterations `α`. When `None`, the theorem's
    /// `⌈scale · 4 r² (r + 2) ln n⌉` is used.
    pub iterations: Option<usize>,
    /// Multiplier on the default iteration count. The paper's analysis uses a
    /// conservative union bound; experiments can lower this (and re-verify
    /// the output) to study how many iterations are needed in practice — the
    /// `paper-e11-adaptive-alpha` scenario of `bench_runner --profile paper`
    /// does exactly that.
    pub scale: f64,
}

impl ConversionParams {
    /// Parameters tolerating `faults` vertex failures with the default
    /// iteration count.
    pub fn new(faults: usize) -> Self {
        ConversionParams {
            faults,
            iterations: None,
            scale: 1.0,
        }
    }

    /// Overrides the number of iterations `α`.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Scales the default iteration count by `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "iteration scale must be positive");
        self.scale = scale;
        self
    }

    /// The sampling probability `p` with which each vertex joins the
    /// oversized fault set `J` (Theorem 2.1 uses `1 − 1/r`, or `1/2` when
    /// `r ≤ 1`).
    pub fn sampling_probability(&self) -> f64 {
        if self.faults <= 1 {
            0.5
        } else {
            1.0 - 1.0 / self.faults as f64
        }
    }

    /// The number of iterations `α` that will be used for an `n`-vertex
    /// graph.
    ///
    /// The default follows the proof of Theorem 2.1: the per-iteration
    /// success probability for a fixed pair and fault set is at least
    /// `1/(4r²)`, and a union bound over the roughly `n^{r+2}` (pair, fault
    /// set) combinations requires `α ≈ 4 r² (r + 2) ln n`.
    pub fn iterations_for(&self, n: usize) -> usize {
        if let Some(it) = self.iterations {
            return it.max(1);
        }
        let r = self.faults.max(1) as f64;
        let ln_n = (n.max(2) as f64).ln();
        let alpha = self.scale * 4.0 * r * r * (r + 2.0) * ln_n;
        alpha.ceil().max(1.0) as usize
    }

    /// The size bound `O(r³ log n · f(2n/r))` of Theorem 2.1, evaluated with
    /// the concrete iteration count used by this configuration and the
    /// black box's own size bound `f`.
    pub fn size_bound(&self, n: usize, f: impl Fn(usize) -> f64) -> f64 {
        let r = self.faults.max(1);
        let per_iteration_n = (2 * n / r).max(2);
        self.iterations_for(n) as f64 * f(per_iteration_n)
    }
}

/// Per-iteration record kept by [`FaultTolerantConverter::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationStats {
    /// Number of vertices that survived the oversampled fault set `J`.
    pub surviving_vertices: usize,
    /// Number of edges of `G \ J`.
    pub surviving_edges: usize,
    /// Number of edges the black box selected in this iteration.
    pub spanner_edges: usize,
    /// Number of those edges that were new to the union.
    pub new_edges: usize,
}

/// The output of the conversion: the fault-tolerant spanner plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversionResult {
    /// The edges of the `r`-fault-tolerant `k`-spanner (over the input
    /// graph's edge identifiers).
    pub edges: EdgeSet,
    /// The number of iterations that were run.
    pub iterations: usize,
    /// Per-iteration statistics, in order.
    pub per_iteration: Vec<IterationStats>,
}

impl ConversionResult {
    /// Number of edges in the constructed spanner.
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// The mean number of vertices surviving the oversampling per iteration
    /// (the paper's analysis shows this concentrates around `n/r`).
    pub fn mean_surviving_vertices(&self) -> f64 {
        if self.per_iteration.is_empty() {
            return 0.0;
        }
        self.per_iteration
            .iter()
            .map(|s| s.surviving_vertices as f64)
            .sum::<f64>()
            / self.per_iteration.len() as f64
    }
}

/// The Theorem 2.1 converter: wraps any [`SpannerAlgorithm`] and produces
/// `r`-fault-tolerant spanners.
///
/// # Example
///
/// ```
/// use ftspan_core::conversion::{ConversionParams, FaultTolerantConverter};
/// use ftspan_spanners::{BaswanaSenSpanner, SpannerAlgorithm};
/// use ftspan_graph::{generate, verify};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let g = generate::gnp(30, 0.4, generate::WeightKind::Unit, &mut rng);
/// let alg = BaswanaSenSpanner::new(2); // a 3-spanner black box
/// let converter = FaultTolerantConverter::new(ConversionParams::new(1));
/// let result = converter.build(&g, &alg, &mut rng);
/// assert!(verify::is_fault_tolerant_k_spanner(&g, &result.edges, 3.0, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTolerantConverter {
    params: ConversionParams,
}

impl FaultTolerantConverter {
    /// Creates a converter with the given parameters.
    pub fn new(params: ConversionParams) -> Self {
        FaultTolerantConverter { params }
    }

    /// The conversion parameters.
    pub fn params(&self) -> &ConversionParams {
        &self.params
    }

    /// Runs the conversion of Theorem 2.1 on `graph` with the given black-box
    /// spanner algorithm, sequentially (one worker).
    ///
    /// The output is an `r`-fault-tolerant `algorithm.stretch()`-spanner with
    /// high probability; use `ftspan_graph::verify` to check it when
    /// certainty is required.
    pub fn build<A>(&self, graph: &Graph, algorithm: &A, rng: &mut dyn RngCore) -> ConversionResult
    where
        A: SpannerAlgorithm + ?Sized,
    {
        self.build_with_threads(graph, algorithm, rng, 1)
    }

    /// [`FaultTolerantConverter::build`] with the `α` independent iterations
    /// fanned out across up to `threads` workers.
    ///
    /// Each iteration derives a private random stream from a seed drawn
    /// sequentially from `rng` (see [`crate::par`]) and the per-iteration
    /// results are merged in iteration order, so the output — the edge union
    /// *and* every statistic — is byte-identical at any worker count.
    pub fn build_with_threads<A>(
        &self,
        graph: &Graph,
        algorithm: &A,
        rng: &mut dyn RngCore,
        threads: usize,
    ) -> ConversionResult
    where
        A: SpannerAlgorithm + ?Sized,
    {
        let n = graph.node_count();
        let p = self.params.sampling_probability();
        let alpha = self.params.iterations_for(n);
        let seeds = par::derive_seeds(rng, alpha);

        let outcomes = par::map(threads, alpha, |i| {
            run_iteration(graph, algorithm, seeds[i], p)
        });

        let mut union = graph.empty_edge_set();
        let mut per_iteration = Vec::with_capacity(alpha);
        for (edges, mut stats) in outcomes {
            for parent in edges {
                if union.insert(parent) {
                    stats.new_edges += 1;
                }
            }
            per_iteration.push(stats);
        }

        ConversionResult {
            edges: union,
            iterations: alpha,
            per_iteration,
        }
    }
}

/// Replay record of one conversion iteration, kept by
/// [`FaultTolerantConverter::build_traced`].
///
/// The oversampled fault set itself is not stored — it is a pure function of
/// the iteration's seed (the mask consumes exactly `n` `f64` draws from the
/// seed's private stream), so a repair can recompute it bit-exactly. Only
/// what the black box *decided* is recorded: the endpoint pairs of the edges
/// it admitted, in output order.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedIteration {
    /// Normalized `(u, v)` endpoint pairs of the edges the black box
    /// admitted, in the order they were merged into the union.
    pub endpoints: Vec<(NodeId, NodeId)>,
    /// Number of vertices that survived the oversampled fault set.
    pub surviving_vertices: usize,
    /// Number of edges of `G \ J`.
    pub surviving_edges: usize,
}

/// Everything needed to replay a conversion build iteration-by-iteration:
/// the per-iteration seeds plus each iteration's admitted edges.
///
/// A trace makes the conversion *incrementally repairable*: after an
/// edge-only change to the graph, an iteration whose oversampled fault set
/// does not expose any changed edge (no changed edge has both endpoints
/// alive) produced — and would again produce — exactly the same black-box
/// output, so its recorded endpoints can be replayed without re-running the
/// black box. See [`FaultTolerantConverter::repair_traced`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConversionTrace {
    /// Vertex count of the graph the trace was built on. Repair requires the
    /// vertex set to be unchanged (edge-only deltas), because the alive mask
    /// consumes exactly this many draws per iteration.
    pub nodes: usize,
    /// Per-iteration seeds, in iteration order, as drawn by
    /// [`crate::par::derive_seeds`] from the root generator.
    pub seeds: Vec<u64>,
    /// Per-iteration replay records, in iteration order.
    pub iterations: Vec<TracedIteration>,
}

/// A successful incremental repair: the rebuilt result, the refreshed trace
/// (valid for the *post-delta* graph), and how much work it took.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairedConversion {
    /// The conversion result on the post-delta graph — bit-identical to what
    /// [`FaultTolerantConverter::build_traced`] would produce from scratch
    /// with the same root generator state.
    pub result: ConversionResult,
    /// The refreshed trace, usable for the next repair.
    pub trace: ConversionTrace,
    /// Number of iterations whose black box had to be re-run.
    pub touched_iterations: usize,
}

/// Outcome of a repair attempt (see
/// [`FaultTolerantConverter::repair_traced`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RepairAttempt {
    /// The repair completed within the touched-iteration budget.
    Repaired(RepairedConversion),
    /// More iterations were touched than `max_touched` allows; nothing was
    /// rebuilt — the caller should fall back to a full build.
    TooManyTouched {
        /// Number of iterations that would have to re-run the black box.
        touched: usize,
    },
}

impl FaultTolerantConverter {
    /// [`FaultTolerantConverter::build_with_threads`], additionally recording
    /// a [`ConversionTrace`] that makes the build incrementally repairable.
    ///
    /// The returned [`ConversionResult`] is bit-identical to what
    /// [`FaultTolerantConverter::build_with_threads`] produces from the same
    /// generator state — tracing only records, it never draws.
    pub fn build_traced<A>(
        &self,
        graph: &Graph,
        algorithm: &A,
        rng: &mut dyn RngCore,
        threads: usize,
    ) -> (ConversionResult, ConversionTrace)
    where
        A: SpannerAlgorithm + ?Sized,
    {
        let n = graph.node_count();
        let p = self.params.sampling_probability();
        let alpha = self.params.iterations_for(n);
        let seeds = par::derive_seeds(rng, alpha);

        let outcomes = par::map(threads, alpha, |i| {
            let (edges, stats) = run_iteration(graph, algorithm, seeds[i], p);
            let endpoints = endpoints_of(graph, &edges);
            (edges, endpoints, stats)
        });

        let mut union = graph.empty_edge_set();
        let mut per_iteration = Vec::with_capacity(alpha);
        let mut iterations = Vec::with_capacity(alpha);
        for (edges, endpoints, mut stats) in outcomes {
            for parent in edges {
                if union.insert(parent) {
                    stats.new_edges += 1;
                }
            }
            iterations.push(TracedIteration {
                endpoints,
                surviving_vertices: stats.surviving_vertices,
                surviving_edges: stats.surviving_edges,
            });
            per_iteration.push(stats);
        }

        (
            ConversionResult {
                edges: union,
                iterations: alpha,
                per_iteration,
            },
            ConversionTrace {
                nodes: n,
                seeds,
                iterations,
            },
        )
    }

    /// Incrementally repairs a traced build after an edge-only change.
    ///
    /// `new_graph` must be the post-delta graph with the *same vertex set*
    /// as the traced build and with the relative order of surviving edges
    /// preserved (deletions compact, insertions append — the contract of
    /// `ftspan_core::dynamic::apply_deltas`). `changed` lists the endpoint
    /// pairs of every inserted, deleted, or reweighted edge.
    ///
    /// An iteration is *touched* when some changed edge has both endpoints
    /// alive in that iteration's oversampled mask — only then can its
    /// induced subgraph differ from the traced build's, so only those
    /// iterations re-run the black box (from the recorded seed, drawing the
    /// mask first so the stream position matches a from-scratch run).
    /// Untouched iterations replay their recorded endpoints. Merging in
    /// iteration order then reproduces — bit-identically — the result of
    /// [`FaultTolerantConverter::build_traced`] on `new_graph` from the same
    /// root generator state, because that build would draw the very same
    /// seeds (`α` depends only on `n` and the parameters, both unchanged).
    ///
    /// When more than `max_touched` iterations are touched the attempt is
    /// abandoned before any black-box work and
    /// [`RepairAttempt::TooManyTouched`] is returned.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if the vertex count changed, if the
    ///   parameters no longer yield the traced iteration count, or if an
    ///   untouched iteration's recorded edge is missing from `new_graph`
    ///   (the `changed` list was incomplete).
    pub fn repair_traced<A>(
        &self,
        new_graph: &Graph,
        algorithm: &A,
        trace: &ConversionTrace,
        changed: &[(NodeId, NodeId)],
        max_touched: usize,
        threads: usize,
    ) -> Result<RepairAttempt>
    where
        A: SpannerAlgorithm + ?Sized,
    {
        let n = new_graph.node_count();
        if n != trace.nodes {
            return Err(CoreError::InvalidParameter {
                message: format!(
                    "conversion repair requires an unchanged vertex set: trace has {} nodes, \
                     graph has {n}",
                    trace.nodes
                ),
            });
        }
        let alpha = self.params.iterations_for(n);
        if alpha != trace.seeds.len() || trace.iterations.len() != trace.seeds.len() {
            return Err(CoreError::InvalidParameter {
                message: format!(
                    "conversion repair parameters drifted: trace has {} iterations, parameters \
                     now yield {alpha}",
                    trace.seeds.len()
                ),
            });
        }
        let p = self.params.sampling_probability();

        // Pass 1: recompute the masks (n draws each, no subgraphs) and flag
        // the touched iterations.
        let touched_flags = par::map(threads, alpha, |i| {
            let alive = oversampled_mask(n, p, &mut par::stream(trace.seeds[i]));
            changed
                .iter()
                .any(|&(u, v)| alive[u.index()] && alive[v.index()])
        });
        let touched = touched_flags.iter().filter(|&&t| t).count();
        if touched > max_touched {
            return Ok(RepairAttempt::TooManyTouched { touched });
        }

        // Pass 2: re-run the black box for touched iterations, replay the
        // recorded endpoints for the rest.
        let outcomes = par::map(threads, alpha, |i| -> Result<_> {
            if touched_flags[i] {
                let (edges, stats) = run_iteration(new_graph, algorithm, trace.seeds[i], p);
                let record = TracedIteration {
                    endpoints: endpoints_of(new_graph, &edges),
                    surviving_vertices: stats.surviving_vertices,
                    surviving_edges: stats.surviving_edges,
                };
                Ok((edges, record))
            } else {
                let record = trace.iterations[i].clone();
                let edges = record
                    .endpoints
                    .iter()
                    .map(|&(u, v)| {
                        new_graph
                            .find_edge(u, v)
                            .ok_or_else(|| CoreError::InvalidParameter {
                                message: format!(
                                    "conversion repair replay: recorded edge ({u}, {v}) of \
                                     iteration {i} is missing from the post-delta graph — the \
                                     changed-edge list was incomplete"
                                ),
                            })
                    })
                    .collect::<Result<Vec<EdgeId>>>()?;
                Ok((edges, record))
            }
        });

        let mut union = new_graph.empty_edge_set();
        let mut per_iteration = Vec::with_capacity(alpha);
        let mut iterations = Vec::with_capacity(alpha);
        for outcome in outcomes {
            let (edges, record) = outcome?;
            let mut stats = IterationStats {
                surviving_vertices: record.surviving_vertices,
                surviving_edges: record.surviving_edges,
                spanner_edges: record.endpoints.len(),
                new_edges: 0,
            };
            for parent in edges {
                if union.insert(parent) {
                    stats.new_edges += 1;
                }
            }
            per_iteration.push(stats);
            iterations.push(record);
        }

        Ok(RepairAttempt::Repaired(RepairedConversion {
            result: ConversionResult {
                edges: union,
                iterations: alpha,
                per_iteration,
            },
            trace: ConversionTrace {
                nodes: n,
                seeds: trace.seeds.clone(),
                iterations,
            },
            touched_iterations: touched,
        }))
    }
}

/// Samples the alive mask of one iteration: each vertex joins the oversized
/// fault set `J` with probability `p`, one `f64` draw per vertex in id
/// order. A repair recomputes the mask bit-exactly from the seed.
fn oversampled_mask(n: usize, p: f64, rng: &mut impl Rng) -> Vec<bool> {
    (0..n).map(|_| rng.gen::<f64>() >= p).collect()
}

/// One conversion iteration from its seed: sample `J`, then run the black
/// box on `G \ J` with the rest of the same stream.
fn run_iteration<A>(
    graph: &Graph,
    algorithm: &A,
    seed: u64,
    p: f64,
) -> (Vec<EdgeId>, IterationStats)
where
    A: SpannerAlgorithm + ?Sized,
{
    let mut task_rng = par::stream(seed);
    let alive = oversampled_mask(graph.node_count(), p, &mut task_rng);
    run_black_box(graph, algorithm, &alive, &mut task_rng)
}

/// Runs `algorithm` on the subgraph induced by the vertices with
/// `alive[v] == true` and maps the selected edges back to `graph`'s edge
/// ids, in the black box's output order. The returned statistics leave
/// `new_edges` at 0 for the caller's in-order merge to fill.
pub(crate) fn run_black_box<A>(
    graph: &Graph,
    algorithm: &A,
    alive: &[bool],
    rng: &mut dyn RngCore,
) -> (Vec<EdgeId>, IterationStats)
where
    A: SpannerAlgorithm + ?Sized,
{
    let (sub, edge_map) = induced_subgraph(graph, alive);
    let spanner = algorithm.build(&sub, rng);
    let edges: Vec<EdgeId> = spanner
        .iter()
        .map(|sub_edge| edge_map[sub_edge.index()])
        .collect();
    let stats = IterationStats {
        surviving_vertices: alive.iter().filter(|&&a| a).count(),
        surviving_edges: sub.edge_count(),
        spanner_edges: spanner.len(),
        new_edges: 0,
    };
    (edges, stats)
}

/// The normalized endpoint pairs of `edges`, in order.
fn endpoints_of(graph: &Graph, edges: &[EdgeId]) -> Vec<(NodeId, NodeId)> {
    edges
        .iter()
        .map(|&id| {
            let e = graph.edge(id);
            (e.u, e.v)
        })
        .collect()
}

/// Builds the subgraph of `graph` induced by the vertices with
/// `alive[v] == true`, preserving vertex identifiers, together with a map
/// from the subgraph's edge ids back to the parent graph's edge ids.
fn induced_subgraph(graph: &Graph, alive: &[bool]) -> (Graph, Vec<EdgeId>) {
    let mut sub = Graph::new(graph.node_count());
    let mut map = Vec::new();
    for (id, e) in graph.edges() {
        if alive[e.u.index()] && alive[e.v.index()] {
            sub.add_edge(e.u, e.v, e.weight)
                .expect("edges of a valid graph remain valid in a subgraph");
            map.push(id);
        }
    }
    (sub, map)
}

/// Corollary 2.2: the conversion applied to the greedy spanner of Althöfer et
/// al., giving `r`-fault-tolerant `k`-spanners of size
/// `O(r^{2−2/(k+1)} n^{1+2/(k+1)} log n)` for odd `k ≥ 1`.
///
/// # Panics
///
/// Panics if `stretch < 1`.
pub fn corollary_2_2(
    graph: &Graph,
    stretch: f64,
    faults: usize,
    rng: &mut dyn RngCore,
) -> ConversionResult {
    let converter = FaultTolerantConverter::new(ConversionParams::new(faults));
    converter.build(graph, &ftspan_spanners::GreedySpanner::new(stretch), rng)
}

/// Samples the oversized fault set once (exposed for the distributed
/// implementation in `ftspan-local`, where each vertex makes this decision
/// locally).
pub fn sample_oversized_fault_set<R: Rng + ?Sized>(
    n: usize,
    params: &ConversionParams,
    rng: &mut R,
) -> Vec<NodeId> {
    let p = params.sampling_probability();
    (0..n)
        .filter(|_| rng.gen::<f64>() < p)
        .map(NodeId::new)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generate, verify};
    use ftspan_spanners::{BaswanaSenSpanner, GreedySpanner};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn iteration_count_follows_theorem() {
        let p = ConversionParams::new(2);
        let n = 100;
        let expected = (4.0 * 4.0 * 4.0 * (100f64).ln()).ceil() as usize;
        assert_eq!(p.iterations_for(n), expected);
        assert_eq!(p.with_iterations(17).iterations_for(n), 17);
        let scaled = ConversionParams::new(2).with_scale(0.5);
        assert!(scaled.iterations_for(n) < expected);
    }

    #[test]
    fn sampling_probability_special_cases() {
        assert_eq!(ConversionParams::new(0).sampling_probability(), 0.5);
        assert_eq!(ConversionParams::new(1).sampling_probability(), 0.5);
        assert_eq!(ConversionParams::new(4).sampling_probability(), 0.75);
    }

    #[test]
    #[should_panic]
    fn zero_scale_rejected() {
        ConversionParams::new(1).with_scale(0.0);
    }

    #[test]
    fn output_is_fault_tolerant_r1_k3() {
        let mut r = rng(1);
        let g = generate::gnp(25, 0.5, generate::WeightKind::Unit, &mut r);
        let result = corollary_2_2(&g, 3.0, 1, &mut r);
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            1
        ));
        assert!(result.size() <= g.edge_count());
        assert_eq!(result.per_iteration.len(), result.iterations);
    }

    #[test]
    fn output_is_fault_tolerant_r2_weighted() {
        let mut r = rng(2);
        let g = generate::connected_gnp(
            18,
            0.4,
            generate::WeightKind::Uniform { min: 1.0, max: 3.0 },
            &mut r,
        );
        let result = corollary_2_2(&g, 3.0, 2, &mut r);
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            2
        ));
    }

    #[test]
    fn works_with_baswana_sen_black_box() {
        let mut r = rng(3);
        let g = generate::gnp(24, 0.5, generate::WeightKind::Unit, &mut r);
        let alg = BaswanaSenSpanner::new(2);
        let converter = FaultTolerantConverter::new(ConversionParams::new(1));
        let result = converter.build(&g, &alg, &mut r);
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            1
        ));
    }

    #[test]
    fn oversampling_keeps_roughly_n_over_r_vertices() {
        let mut r = rng(4);
        let g = generate::gnp(60, 0.2, generate::WeightKind::Unit, &mut r);
        let params = ConversionParams::new(4).with_iterations(200);
        let converter = FaultTolerantConverter::new(params);
        let result = converter.build(&g, &GreedySpanner::new(3.0), &mut r);
        let mean = result.mean_surviving_vertices();
        // Expected survivors: n / r = 15; allow generous sampling slack.
        assert!(mean > 9.0 && mean < 21.0, "mean survivors {mean}");
    }

    #[test]
    fn more_faults_need_more_edges() {
        let mut r = rng(5);
        let g = generate::gnp(30, 0.5, generate::WeightKind::Unit, &mut r);
        let small = corollary_2_2(&g, 3.0, 1, &mut r).size();
        let large = corollary_2_2(&g, 3.0, 3, &mut r).size();
        assert!(
            large >= small,
            "r=3 spanner ({large}) smaller than r=1 ({small})"
        );
    }

    #[test]
    fn size_bound_helper_composes_f() {
        let params = ConversionParams::new(2);
        let bound = params.size_bound(100, |n| n as f64);
        assert_eq!(bound, params.iterations_for(100) as f64 * 100.0);
    }

    #[test]
    fn sample_oversized_fault_set_has_expected_density() {
        let mut r = rng(6);
        let params = ConversionParams::new(4); // p = 3/4
        let sampled = sample_oversized_fault_set(1000, &params, &mut r);
        assert!(
            sampled.len() > 650 && sampled.len() < 850,
            "got {}",
            sampled.len()
        );
    }

    #[test]
    fn empty_graph_yields_empty_spanner() {
        let mut r = rng(7);
        let g = Graph::new(0);
        let result = corollary_2_2(&g, 3.0, 2, &mut r);
        assert_eq!(result.size(), 0);
    }

    #[test]
    fn traced_build_matches_untraced_build_exactly() {
        let g = generate::gnp(22, 0.4, generate::WeightKind::Unit, &mut rng(11));
        let converter = FaultTolerantConverter::new(ConversionParams::new(2).with_iterations(30));
        let plain = converter.build_with_threads(&g, &GreedySpanner::new(3.0), &mut rng(12), 2);
        let (traced, trace) = converter.build_traced(&g, &GreedySpanner::new(3.0), &mut rng(12), 2);
        assert_eq!(plain, traced);
        assert_eq!(trace.nodes, g.node_count());
        assert_eq!(trace.seeds.len(), 30);
        assert_eq!(trace.iterations.len(), 30);
        for (record, stats) in trace.iterations.iter().zip(&traced.per_iteration) {
            assert_eq!(record.endpoints.len(), stats.spanner_edges);
            assert_eq!(record.surviving_vertices, stats.surviving_vertices);
        }
    }

    #[test]
    fn repair_with_no_changes_replays_the_trace_verbatim() {
        let g = generate::gnp(20, 0.4, generate::WeightKind::Unit, &mut rng(13));
        let converter = FaultTolerantConverter::new(ConversionParams::new(1).with_iterations(25));
        let alg = GreedySpanner::new(3.0);
        let (result, trace) = converter.build_traced(&g, &alg, &mut rng(14), 1);
        match converter
            .repair_traced(&g, &alg, &trace, &[], usize::MAX, 2)
            .unwrap()
        {
            RepairAttempt::Repaired(repaired) => {
                assert_eq!(repaired.result, result);
                assert_eq!(repaired.trace, trace);
                assert_eq!(repaired.touched_iterations, 0);
            }
            RepairAttempt::TooManyTouched { .. } => panic!("no change touched an iteration"),
        }
    }

    #[test]
    fn repair_matches_a_from_scratch_rebuild_bit_for_bit() {
        let mut r = rng(15);
        let g = generate::connected_gnp(24, 0.3, generate::WeightKind::Unit, &mut r);
        let converter = FaultTolerantConverter::new(ConversionParams::new(2).with_iterations(40));
        let alg = GreedySpanner::new(3.0);
        let (_, trace) = converter.build_traced(&g, &alg, &mut rng(16), 2);

        // Post-delta graph: drop one edge (compacting), append one new edge —
        // the contract repair_traced documents.
        let dropped = *g.edge(ftspan_graph::EdgeId::new(0));
        let mut new_graph = Graph::new(g.node_count());
        for (id, e) in g.edges() {
            if id.index() != 0 {
                new_graph.add_edge(e.u, e.v, e.weight).unwrap();
            }
        }
        let (mut iu, mut iv) = (NodeId::new(0), NodeId::new(0));
        'outer: for u in 0..g.node_count() {
            for v in (u + 1)..g.node_count() {
                if g.find_edge(NodeId::new(u), NodeId::new(v)).is_none() {
                    iu = NodeId::new(u);
                    iv = NodeId::new(v);
                    break 'outer;
                }
            }
        }
        assert_ne!(iu, iv, "test graph unexpectedly complete");
        new_graph.add_edge(iu, iv, 1.0).unwrap();
        let changed = vec![(dropped.u, dropped.v), (iu, iv)];

        let (reference, _) = converter.build_traced(&new_graph, &alg, &mut rng(16), 1);
        for threads in [1usize, 2, 8] {
            match converter
                .repair_traced(&new_graph, &alg, &trace, &changed, usize::MAX, threads)
                .unwrap()
            {
                RepairAttempt::Repaired(repaired) => {
                    assert_eq!(repaired.result, reference, "threads = {threads}");
                    assert!(repaired.touched_iterations > 0);
                    assert!(repaired.touched_iterations < trace.seeds.len());
                }
                RepairAttempt::TooManyTouched { .. } => panic!("unlimited budget"),
            }
        }
    }

    #[test]
    fn repair_respects_the_touched_budget_and_rejects_node_changes() {
        let g = generate::gnp(18, 0.5, generate::WeightKind::Unit, &mut rng(17));
        let converter = FaultTolerantConverter::new(ConversionParams::new(1).with_iterations(20));
        let alg = GreedySpanner::new(3.0);
        let (_, trace) = converter.build_traced(&g, &alg, &mut rng(18), 1);
        let e = *g.edge(ftspan_graph::EdgeId::new(0));
        let changed = vec![(e.u, e.v)];
        // p = 1/2: both endpoints alive in ~1/4 of 20 iterations; budget 0
        // forces the fallback signal.
        match converter
            .repair_traced(&g, &alg, &trace, &changed, 0, 1)
            .unwrap()
        {
            RepairAttempt::TooManyTouched { touched } => assert!(touched > 0),
            RepairAttempt::Repaired(_) => panic!("budget 0 must refuse any touched iteration"),
        }
        let bigger = Graph::new(g.node_count() + 1);
        assert!(converter
            .repair_traced(&bigger, &alg, &trace, &[], usize::MAX, 1)
            .is_err());
    }

    #[test]
    fn parallel_build_is_byte_identical_across_worker_counts() {
        let g = generate::gnp(24, 0.4, generate::WeightKind::Unit, &mut rng(8));
        let converter = FaultTolerantConverter::new(ConversionParams::new(2).with_iterations(40));
        let reference = converter.build_with_threads(&g, &GreedySpanner::new(3.0), &mut rng(9), 1);
        for threads in [2usize, 3, 8] {
            let got =
                converter.build_with_threads(&g, &GreedySpanner::new(3.0), &mut rng(9), threads);
            assert_eq!(reference, got, "threads = {threads} changed the result");
        }
        // The randomized black box follows the same discipline.
        let bs = BaswanaSenSpanner::new(2);
        let reference = converter.build_with_threads(&g, &bs, &mut rng(10), 1);
        let got = converter.build_with_threads(&g, &bs, &mut rng(10), 4);
        assert_eq!(reference, got);
    }
}
