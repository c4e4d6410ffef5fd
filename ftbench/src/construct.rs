//! The construct pipeline: generate the fixture, build its artifact through
//! the facade, save it; and the traced replica of the build that times the
//! black box from a wrapper around it.

use crate::trace::{self, Tracer};
use crate::traffic;
use crate::workload::Bench;
use crate::Metrics;
use fault_tolerant_spanners::core::conversion::{ConversionParams, FaultTolerantConverter};
use fault_tolerant_spanners::graph::csr::CsrSubgraph;
use fault_tolerant_spanners::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Vertex faults the fixture tolerates.
pub const FAULTS: usize = 1;
/// Stretch of the Baswana–Sen black box (its `k = 2` clustering).
pub const STRETCH: f64 = 3.0;
pub const BLACK_BOX: BlackBoxKind = BlackBoxKind::BaswanaSen;

/// The fixture's builder: the theorem's α (no `iterations` or `scale`
/// cap) and the default thread count.
pub fn builder(seed: u64) -> FtSpannerBuilder {
    FtSpannerBuilder::new("conversion")
        .faults(FAULTS)
        .stretch(STRETCH)
        .black_box(BLACK_BOX)
        .seed(traffic::build_seed(seed))
}

pub fn generate(seed: u64) -> Result<Graph, String> {
    traffic::fixture_spec(seed)
        .generate()
        .map_err(|e| format!("generating the fixture: {e}"))
}

/// `artifact_on_graph` then `ArtifactStore::save`, each in its own span;
/// returns the artifact and the seconds each step took. The graph is
/// cloned before the caller's clock starts.
pub fn build_and_save(
    tracer: &Tracer,
    builder: &FtSpannerBuilder,
    graph: Graph,
    store: &ArtifactStore,
) -> Result<(FtSpanner, f64, f64), String> {
    let (artifact, build_s) = tracer.timed("builder.artifact_on_graph", None, None, || {
        builder.artifact_on_graph(graph)
    });
    let artifact = artifact.map_err(|e| format!("building the fixture artifact: {e}"))?;
    let (saved, save_s) = tracer.timed("store.save", None, None, || {
        store.save(traffic::ARTIFACT, &artifact)
    });
    saved.map_err(|e| format!("saving the fixture artifact: {e}"))?;
    Ok((artifact, build_s, save_s))
}

/// Sources per fault set of the stretch check.
const CHECKED_SOURCES: usize = 16;
/// Fault sets of the stretch check besides the empty one.
const CHECKED_FAULT_SETS: usize = 3;

/// Checks the declared (k, r) = (3, 1) on the empty fault set and a few
/// sampled single-vertex fault sets: from sampled sources, every surviving
/// vertex must be within `k` times its surviving-graph distance in the
/// surviving spanner. (The oracle's all-edges sweep costs seconds per fault
/// set on the fixture; sampled sources keep the check well under one.)
pub fn check_stretch(graph: &Graph, artifact: &FtSpanner, seed: u64) -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(traffic::sub_seed(seed, "oracle"));
    let n = graph.node_count();
    let full = CsrSubgraph::from_graph(graph);
    let spanner =
        CsrSubgraph::from_edge_set(graph, artifact.spanner_edges()).map_err(|e| e.to_string())?;
    let mut fault_sets = vec![Vec::new()];
    fault_sets.extend((0..CHECKED_FAULT_SETS).map(|_| vec![rng.gen_range(0..n)]));
    for faults in fault_sets {
        let mut dead = vec![false; n];
        for &f in &faults {
            dead[f] = true;
        }
        for _ in 0..CHECKED_SOURCES {
            let s = NodeId::new(rng.gen_range(0..n));
            if dead[s.index()] {
                continue;
            }
            let sssp =
                |csr: &CsrSubgraph| csr.sssp(s, Some(&dead), None).map_err(|e| e.to_string());
            let (in_graph, in_spanner) = (sssp(&full)?, sssp(&spanner)?);
            for (v, (&dg, &dh)) in in_graph.iter().zip(&in_spanner).enumerate() {
                if !dead[v] && dh > STRETCH * dg + 1e-9 * dg.max(1.0) {
                    return Err(format!(
                        "the artifact is not a ({STRETCH}, {FAULTS}) spanner: under faults \
                         {faults:?}, d({s}, {v}) is {dh} in the spanner and {dg} in the graph"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The black box, wrapped to record one span per call and count the edges
/// it reads and returns.
pub struct TracedBlackBox<'t> {
    inner: Box<dyn SpannerAlgorithm>,
    tracer: &'t Tracer,
    parent: Option<u64>,
    pub edges_in: AtomicU64,
    pub edges_out: AtomicU64,
}

impl<'t> TracedBlackBox<'t> {
    pub fn new(tracer: &'t Tracer, parent: Option<u64>) -> Self {
        TracedBlackBox {
            inner: BLACK_BOX.instantiate(STRETCH),
            tracer,
            parent,
            edges_in: AtomicU64::new(0),
            edges_out: AtomicU64::new(0),
        }
    }
}

impl SpannerAlgorithm for TracedBlackBox<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn stretch(&self) -> f64 {
        self.inner.stretch()
    }

    fn build(&self, graph: &Graph, rng: &mut dyn RngCore) -> EdgeSet {
        let out = self.tracer.span("spanners.call", self.parent, None, || {
            self.inner.build(graph, rng)
        });
        self.edges_in
            .fetch_add(graph.edge_count() as u64, Ordering::Relaxed);
        self.edges_out
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    fn size_bound(&self, n: usize) -> f64 {
        self.inner.size_bound(n)
    }
}

/// Runs the theorem's conversion directly, with the builder's seeded
/// generator and thread count, over `black_box`.
pub fn convert(
    graph: &Graph,
    builder: &FtSpannerBuilder,
    seed: u64,
    black_box: &dyn SpannerAlgorithm,
) -> fault_tolerant_spanners::core::conversion::ConversionResult {
    let converter = FaultTolerantConverter::new(ConversionParams::new(FAULTS));
    let mut rng = ChaCha8Rng::seed_from_u64(traffic::build_seed(seed));
    let threads = builder.current_request().effective_threads();
    converter.build_with_threads(graph, black_box, &mut rng, threads)
}

/// The traced replica of the build: the theorem's conversion run directly
/// over a black box wrapped in spans, packed and saved under one root span.
/// It must reproduce the facade's artifact edge for edge.
pub fn trace_build(
    bench: &Bench<'_>,
    artifact: &FtSpanner,
    on_graph_s: f64,
    work: &Path,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let (tracer, graph, builder, seed) =
        (&bench.tracer, &bench.graph, &bench.builder, bench.seed());
    // The same conversion untraced, as the base of the tracing overhead.
    let plain = BLACK_BOX.instantiate(STRETCH);
    let start = Instant::now();
    convert(graph, builder, seed, plain.as_ref());
    let plain_s = start.elapsed().as_secs_f64();

    let traced_store = ArtifactStore::open(work.join("traced")).map_err(|e| e.to_string())?;
    let root = tracer.reserve_id();
    let conversion = tracer.reserve_id();
    let black_box = TracedBlackBox::new(tracer, Some(conversion));
    let (result, pack_s, save_s) = tracer.span_with_id(root, "build", None, None, || {
        let result = tracer.span_with_id(conversion, "core.conversion", Some(root), None, || {
            convert(graph, builder, seed, &black_box)
        });
        let (packed, pack_s) = tracer.timed("builder.pack", Some(root), None, || {
            FtSpanner::from_edge_set(
                graph,
                result.edges.clone(),
                "conversion",
                "traced replica",
                FaultModel::Vertex,
                FAULTS,
                STRETCH,
            )
        });
        let packed = packed.map_err(|e| e.to_string())?;
        let (saved, save_s) = tracer.timed("store.save", Some(root), None, || {
            traced_store.save(traffic::ARTIFACT, &packed)
        });
        saved.map_err(|e| e.to_string())?;
        Ok::<_, String>((result, pack_s, save_s))
    })?;
    if &result.edges != artifact.spanner_edges() {
        return Err("the traced conversion does not reproduce the facade's artifact".to_string());
    }

    let spans = tracer.spans();
    let find = |id: u64| spans.iter().find(|s| s.id == id).expect("span recorded");
    let calls: Vec<_> = spans.iter().filter(|s| s.name == "spanners.call").collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let conversion_span = find(conversion);
    let root_span = find(root);
    let conversion_s = conversion_span.duration_ns() as f64 / 1e9;
    let black_box_out: usize = result.per_iteration.iter().map(|s| s.spanner_edges).sum();
    metrics.add("spanners.calls", calls.len() as f64, "count");
    metrics.add(
        "spanners.busy_ms",
        calls.iter().map(|s| ms(s.duration_ns())).sum(),
        "ms",
    );
    metrics.add(
        "spanners.edges_in",
        black_box
            .edges_in
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
        "edges",
    );
    metrics.add(
        "spanners.edges_out",
        black_box
            .edges_out
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
        "edges",
    );
    metrics.add(
        "core.conversion.iterations",
        result.iterations as f64,
        "count",
    );
    metrics.add(
        "core.conversion.self_ms",
        ms(trace::self_ns(conversion_span, &spans)),
        "ms",
    );
    metrics.add(
        "core.conversion.union_yield",
        result.size() as f64 / black_box_out.max(1) as f64,
        "fraction",
    );
    metrics.add("builder.pack_ms", (on_graph_s - conversion_s) * 1e3, "ms");
    metrics.add("builder.replica_pack_ms", pack_s * 1e3, "ms");
    metrics.add("store.replica_save_ms", save_s * 1e3, "ms");
    metrics.add(
        "bench.trace_overhead_frac",
        conversion_s / plain_s - 1.0,
        "fraction",
    );
    metrics.add(
        "bench.span_coverage_frac",
        1.0 - trace::self_ns(root_span, &spans) as f64 / root_span.duration_ns().max(1) as f64,
        "fraction",
    );
    metrics.add("bench.traced_build_ms", ms(root_span.duration_ns()), "ms");
    Ok(())
}

/// The cold-load layers, called one by one on the saved artifact.
pub fn trace_cold_load(
    bench: &Bench<'_>,
    artifact: &FtSpanner,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let (tracer, store) = (&bench.tracer, &bench.store);
    let (loaded, load_s) = tracer.timed("store.load", None, None, || store.load(traffic::ARTIFACT));
    let loaded = loaded.map_err(|e| e.to_string())?;
    let path = store.dir().join(format!(
        "{}.{}",
        traffic::ARTIFACT,
        fault_tolerant_spanners::ARTIFACT_EXTENSION
    ));
    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    let (view, parse_s) = tracer.timed("core.serve.parse", None, None, || {
        FtSpannerView::parse(&bytes)
    });
    let view = view.map_err(|e| e.to_string())?;
    let (materialized, materialize_s) =
        tracer.timed("core.serve.materialize", None, None, || view.materialize());
    let materialized = materialized.map_err(|e| e.to_string())?;
    if &loaded != artifact || &materialized != artifact {
        return Err("the stored artifact does not load back unchanged".to_string());
    }
    metrics.add("store.bytes", bytes.len() as f64, "bytes");
    metrics.add("store.load_ms", load_s * 1e3, "ms");
    metrics.add("core.serve.parse_ms", parse_s * 1e3, "ms");
    metrics.add("core.serve.materialize_ms", materialize_s * 1e3, "ms");
    Ok(())
}
