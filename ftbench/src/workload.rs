//! One run of a workload: rounds of build, cold start, reads and churn.
//!
//! The 2-vCPU virtual machine the rates were sized on runs 10–20 % faster
//! or slower for stretches of ten seconds or more. So a run does not
//! measure each pipeline in one contiguous block: it makes [`ROUNDS`]
//! rounds, and each round builds the fixture once, cold-starts one server
//! on the store, and drives it with a share of every phase. Every metric
//! pools its samples over all rounds.

use crate::load::{self, Outcome, Scheduled, Summary};
use crate::replay;
use crate::server::Server;
use crate::stats::{max_rate_within, median, tail, Rung};
use crate::trace::Tracer;
use crate::traffic::{
    self, sub_seed, DeltaStream, QueryStream, SurvivalMasks, Traffic, ARTIFACT, NODES,
};
use crate::{construct, Args, Metrics};
use fault_tolerant_spanners::prelude::*;
use ftspan_net::{Request, Response};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rounds per run; `build_s` and `setup_s` are medians over them.
pub const ROUNDS: usize = 3;
/// Queries per request.
pub const BATCH: usize = 8;
/// Reader connections while reads run alone (at most the 2 cores of the
/// box the rates were sized on).
pub const READERS: usize = 2;
/// The reference request rate, per second: about half of what the server
/// sustains in closed loop on two connections.
pub const REFERENCE: f64 = 60.0;
/// The ladder's rates above the reference, per second, climbing past the
/// server's capacity (about 130 requests per second on that box).
pub const LADDER: [f64; 5] = [80.0, 100.0, 115.0, 130.0, 145.0];
/// Latency limit on a rate's tail, in ms.
pub const SLO_MS: f64 = 100.0;
/// Request rate of the one reader beside the writer.
pub const CHURN_RATE: f64 = 30.0;
/// Deltas per round: one the default rebuild policy patches, then one it
/// rebuilds for.
pub const APPLIES_PER_ROUND: usize = 2;
/// Least seconds between two writer deltas; the writer also waits for each
/// reply before it sends the next.
pub const APPLY_PERIOD: f64 = 1.5;
/// Shares of `--seconds` spent at the reference rate, on the ladder and
/// under churn, summed over the rounds.
pub const REFERENCE_SHARE: f64 = 0.25;
pub const LADDER_SHARE: f64 = 0.4;
pub const CHURN_SHARE: f64 = 0.35;
/// A run whose requests went out later than this (tail of the lateness)
/// measured the load generator, not the server, and is void.
pub const LAG_BOUND_MS: f64 = 50.0;
/// Reference-rate requests per round whose wire answers are checked bit
/// for bit against the naive executor.
const CHECKED_REQUESTS: usize = 4;
/// Queries of the check after the last round's deltas.
const FINAL_CHECK_QUERIES: usize = 24;
/// Seconds of traffic at the reference rate before anything is measured on
/// a fresh server.
const WARM_UP: f64 = 0.5;
/// Delay before a phase's first due time, so every connection is ready.
const LEAD_IN: f64 = 0.1;

/// A scratch directory inside the checkout, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    Reference,
    Ladder,
    Churn,
}

/// One connection of a phase: what it was to send, and what happened.
pub struct Conn {
    pub schedule: Vec<Scheduled>,
    pub outcomes: Vec<Outcome>,
    /// Sent one request at a time, so lateness does not apply.
    pub closed_loop: bool,
}

/// Connections that ran together.
pub struct Phase {
    pub round: usize,
    pub kind: PhaseKind,
    pub conns: Vec<Conn>,
}

impl Phase {
    fn summary(&self) -> Summary {
        let mut s = Summary::default();
        for c in &self.conns {
            s.add(&c.outcomes);
        }
        s
    }
}

/// Runs open-loop connections concurrently from one origin; returns the
/// phase and the replies of the first connection at the `keep` indices.
fn run_phase(
    addr: SocketAddr,
    round: usize,
    kind: PhaseKind,
    schedules: Vec<Vec<Scheduled>>,
    keep: &[usize],
) -> (Phase, Vec<(usize, Response)>) {
    let origin = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, schedule)| {
                let keep = if c == 0 { keep } else { &[] };
                scope.spawn(move || load::drive(addr, origin, schedule, keep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a connection thread panicked"))
            .collect()
    });
    let mut kept = Vec::new();
    let mut conns = Vec::new();
    for (schedule, (outcomes, k)) in schedules.into_iter().zip(results) {
        if conns.is_empty() {
            kept = k;
        }
        conns.push(Conn {
            schedule,
            outcomes,
            closed_loop: false,
        });
    }
    (Phase { round, kind, conns }, kept)
}

fn batch_queries(request: &Request) -> &[Query] {
    match request {
        Request::RunBatch(queries) => queries,
        _ => &[],
    }
}

fn encoded(response: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    response
        .write_to(&mut frame)
        .expect("encoding into memory cannot fail");
    frame
}

/// Checks wire answers bit for bit against the naive executor of `engine`.
fn check_answers(
    engine: &Engine,
    queries: &[Query],
    wire: &Response,
    what: &str,
) -> Result<(), String> {
    let naive = Response::Batch(engine.run_batch_naive(queries));
    if encoded(&naive) == encoded(wire) {
        Ok(())
    } else {
        Err(format!(
            "{what}: the server's answer differs from run_batch_naive for {queries:?}"
        ))
    }
}

fn tail_ms(samples: &[f64], what: &str) -> Result<f64, String> {
    tail(samples).map(|t| t.1).ok_or(format!(
        "{what}: too few samples for a tail ({})",
        samples.len()
    ))
}

/// Requests attempted and failed, over the whole run.
#[derive(Default)]
struct Counts {
    attempted: usize,
    failed: usize,
}

/// The state of one run.
pub struct Bench<'a> {
    args: &'a Args,
    pub tracer: Tracer,
    store_dir: PathBuf,
    pub store: ArtifactStore,
    pub graph: Graph,
    pub builder: FtSpannerBuilder,
    counts: Counts,
    build_s: Vec<f64>,
    setup_s: Vec<f64>,
}

impl Bench<'_> {
    pub fn seed(&self) -> u64 {
        self.args.seed
    }

    /// One `artifact_on_graph` + `save` of the fixture into the store.
    fn build(&mut self) -> Result<(FtSpanner, f64, f64), String> {
        let input = self.graph.clone();
        let (artifact, on_graph_s, save_s) =
            construct::build_and_save(&self.tracer, &self.builder, input, &self.store)?;
        self.build_s.push(on_graph_s + save_s);
        Ok((artifact, on_graph_s, save_s))
    }

    /// A cold start of the server on the store.
    fn start(&mut self) -> Result<Server, String> {
        let (server, secs) = Server::start(&self.args.serve_bin, &self.store_dir)?;
        self.setup_s.push(secs);
        self.counts.attempted += 1;
        Ok(server)
    }

    /// Open-loop read schedules: `rate` requests per second over `seconds`,
    /// dealt round-robin to `conns` connections.
    fn read_schedules(
        &self,
        tag: &str,
        rate: f64,
        seconds: f64,
        conns: usize,
    ) -> Vec<Vec<Scheduled>> {
        let seed = self.args.seed;
        let dues = traffic::even_schedules(
            rate,
            seconds,
            conns,
            sub_seed(seed, &format!("{tag}/schedule")),
        );
        dues.into_iter()
            .enumerate()
            .map(|(c, dues)| {
                let mut queries = QueryStream::new(
                    self.args.traffic,
                    NODES,
                    sub_seed(seed, &format!("{tag}/queries/{c}")),
                );
                dues.into_iter()
                    .map(|due| Scheduled {
                        due: LEAD_IN + due,
                        request: Request::RunBatch(queries.batch(BATCH)),
                    })
                    .collect()
            })
            .collect()
    }
}

/// What the rounds of a run measured.
#[derive(Default)]
struct Pooled {
    phases: Vec<Phase>,
    reference: Summary,
    /// Each round's reference-rate tail, in ms.
    reference_tails: Vec<f64>,
    /// Latency samples per ladder rate (index into [`LADDER`]).
    rungs: Vec<Summary>,
    /// Each round's churn-reader tail, in ms.
    churn_tails: Vec<f64>,
    apply_ms: Vec<f64>,
    peak_rss_mb: f64,
}

/// One round on its own server: warm-up, the reference rate, the ladder,
/// then one reader beside a writer. With `final_check`, the state after the
/// deltas is checked against a from-scratch build on the benchmark's copy of
/// the graph.
fn round(
    bench: &mut Bench<'_>,
    r: usize,
    naive: &Engine,
    pooled: &mut Pooled,
    final_check: bool,
) -> Result<(), String> {
    let seconds = bench.args.seconds / ROUNDS as f64;
    let seed = bench.seed();
    let server = bench.start()?;
    let (warm_up, _) = run_phase(
        server.addr,
        r,
        PhaseKind::Reference,
        bench.read_schedules(&format!("{r}/warm-up"), REFERENCE, WARM_UP, READERS),
        &[],
    );
    let s = warm_up.summary();
    bench.counts.attempted += s.attempted;
    bench.counts.failed += s.failed;

    let schedules = bench.read_schedules(
        &format!("{r}/reference"),
        REFERENCE,
        seconds * REFERENCE_SHARE,
        READERS,
    );
    let mut keep: Vec<usize> = (0..schedules[0].len()).collect();
    keep.shuffle(&mut ChaCha8Rng::seed_from_u64(sub_seed(
        seed,
        &format!("{r}/check"),
    )));
    keep.truncate(CHECKED_REQUESTS);
    keep.sort_unstable();
    let (reference, kept) = run_phase(server.addr, r, PhaseKind::Reference, schedules, &keep);
    if kept.len() != keep.len() {
        return Err("some checked requests went unanswered".to_string());
    }
    for (i, wire) in &kept {
        let queries = batch_queries(&reference.conns[0].schedule[*i].request);
        check_answers(naive, queries, wire, "at the reference rate")?;
    }
    let reference_summary = reference.summary();
    pooled
        .reference_tails
        .push(tail_ms(&reference_summary.latency_ms, "reference rate")?);
    pooled.reference.add_summary(&reference_summary);
    pooled.phases.push(reference);

    let rung_seconds = seconds * LADDER_SHARE / LADDER.len() as f64;
    for (i, &rate) in LADDER.iter().enumerate() {
        let (phase, _) = run_phase(
            server.addr,
            r,
            PhaseKind::Ladder,
            bench.read_schedules(&format!("{r}/ladder/{rate}"), rate, rung_seconds, READERS),
            &[],
        );
        pooled.rungs[i].add_summary(&phase.summary());
        pooled.phases.push(phase);
    }
    pooled.peak_rss_mb = pooled.peak_rss_mb.max(server.peak_rss_mb()?);

    // One reader beside one closed-loop writer.
    let churn_seconds = seconds * CHURN_SHARE;
    let masks = SurvivalMasks::new(NODES, construct::FAULTS, traffic::build_seed(seed));
    let mut deltas = DeltaStream::new(&bench.graph, masks, sub_seed(seed, &format!("{r}/deltas")));
    let dues: Vec<f64> = (0..APPLIES_PER_ROUND)
        .map(|k| LEAD_IN + APPLY_PERIOD * k as f64)
        .collect();
    let reader = bench
        .read_schedules(&format!("{r}/churn"), CHURN_RATE, churn_seconds, 1)
        .remove(0);
    let origin = Instant::now();
    let ((reader_outcomes, _), (writer, writer_outcomes)) = std::thread::scope(|scope| {
        let reads = scope.spawn(|| load::drive(server.addr, origin, &reader, &[]));
        let writes = load::drive_closed(server.addr, origin, &dues, || Request::ApplyDeltas {
            artifact: ARTIFACT.to_string(),
            deltas: vec![deltas.next_delta()],
        });
        (reads.join().expect("the churn reader panicked"), writes)
    });
    if writer.len() != APPLIES_PER_ROUND {
        return Err(format!(
            "the writer's connection broke after {} of {APPLIES_PER_ROUND} deltas",
            writer.len()
        ));
    }
    let churn_reads = Summary::of(&reader_outcomes);
    pooled
        .churn_tails
        .push(tail_ms(&churn_reads.latency_ms, "churn reader")?);
    pooled.apply_ms.extend(
        writer_outcomes
            .iter()
            .filter_map(|o| o.round_trip().map(|t| t * 1e3)),
    );

    if final_check {
        let queries = QueryStream::new(bench.args.traffic, NODES, sub_seed(seed, "final"))
            .batch(FINAL_CHECK_QUERIES);
        let wire = server.call(&Request::RunBatch(queries.clone()))?;
        bench.counts.attempted += 1;
        let mut log = DeltaLog::new();
        for s in &writer {
            if let Request::ApplyDeltas { deltas, .. } = &s.request {
                for d in deltas {
                    log.append(d.clone());
                }
            }
        }
        let replayed = log.replay(&bench.graph).map_err(|e| e.to_string())?;
        if traffic::graph_keys(&replayed) != deltas.edge_keys() {
            return Err(
                "the delta log does not reproduce the benchmark's copy of the graph".into(),
            );
        }
        let mut rebuilt = Engine::new();
        let artifact = bench
            .builder
            .artifact_on_graph(replayed)
            .map_err(|e| e.to_string())?;
        rebuilt.register(ARTIFACT, artifact);
        check_answers(&rebuilt, &queries, &wire, "after the deltas")?;
    }
    pooled.peak_rss_mb = pooled.peak_rss_mb.max(server.peak_rss_mb()?);
    server.stop()?;
    pooled.phases.push(Phase {
        round: r,
        kind: PhaseKind::Churn,
        conns: vec![
            Conn {
                schedule: reader,
                outcomes: reader_outcomes,
                closed_loop: false,
            },
            Conn {
                schedule: writer,
                outcomes: writer_outcomes,
                closed_loop: true,
            },
        ],
    });
    Ok(())
}

/// Runs the workload and fills `metrics`; returns the requests attempted
/// and failed.
pub fn run(args: &Args, metrics: &mut Metrics) -> Result<(usize, usize), String> {
    let work = WorkDir::create()?;
    let store_dir = work.0.join("store");
    let store = ArtifactStore::open(&store_dir).map_err(|e| e.to_string())?;
    let tracer = Tracer::new(args.trace);
    let (graph, generate_s) = tracer.timed("graph.stream.generate", None, None, || {
        construct::generate(args.seed)
    });
    let mut bench = Bench {
        args,
        tracer,
        store_dir,
        store,
        graph: graph?,
        builder: construct::builder(args.seed),
        counts: Counts::default(),
        build_s: Vec::new(),
        setup_s: Vec::new(),
    };
    let mut pooled = Pooled {
        rungs: vec![Summary::default(); LADDER.len()],
        ..Pooled::default()
    };
    let mut naive = Engine::new();
    let mut artifact = None;
    for r in 0..ROUNDS {
        let (built, on_graph_s, save_s) = bench.build()?;
        if r == 0 {
            construct::check_stretch(&bench.graph, &built, args.seed)?;
            bench
                .store
                .load_into(&mut naive)
                .map_err(|e| e.to_string())?;
            if args.trace {
                metrics.add("graph.stream.generate_ms", generate_s * 1e3, "ms");
                metrics.add("store.save_ms", save_s * 1e3, "ms");
                construct::trace_build(&bench, &built, on_graph_s, &work.0, metrics)?;
                construct::trace_cold_load(&bench, &built, metrics)?;
            }
        } else if Some(&built) != artifact.as_ref() {
            return Err("rebuilding the fixture gave another artifact".to_string());
        }
        artifact = Some(built);
        round(&mut bench, r, &naive, &mut pooled, r + 1 == ROUNDS)?;
    }
    let artifact = artifact.expect("at least one round ran");

    let mut lateness = Vec::new();
    for conn in pooled.phases.iter().flat_map(|p| &p.conns) {
        let s = Summary::of(&conn.outcomes);
        bench.counts.attempted += s.attempted;
        bench.counts.failed += s.failed;
        if !conn.closed_loop {
            lateness.extend(s.lateness_ms);
        }
    }
    let lag_ms = tail_ms(&lateness, "lateness")?;
    if lag_ms > LAG_BOUND_MS {
        return Err(format!(
            "void run: requests went out up to {lag_ms:.1} ms late (bound {LAG_BOUND_MS} ms)"
        ));
    }

    if args.trace {
        metrics.add("bench.lag_ms", lag_ms, "ms");
        let rejected = pooled
            .phases
            .iter()
            .flat_map(|p| &p.conns)
            .flat_map(|c| &c.outcomes)
            .filter(|o| o.rejected)
            .count();
        metrics.add("net.rejected", rejected as f64, "count");
        replay::replay(&bench.tracer, &bench.store_dir, &pooled.phases, metrics)?;
        let traces = Path::new(".bench_work").join("traces");
        std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
        let workload = match args.traffic {
            Traffic::Zipf => "serve-zipf",
            Traffic::Fresh => "serve-fresh",
        };
        bench
            .tracer
            .write_tsv(&traces.join(format!("{workload}-seed{}.tsv", args.seed)))
            .map_err(|e| format!("writing the spans: {e}"))?;
    } else {
        let mut rungs = Vec::new();
        for (rate, s) in std::iter::once(&REFERENCE)
            .chain(&LADDER)
            .zip(std::iter::once(&pooled.reference).chain(&pooled.rungs))
        {
            rungs.push(Rung {
                rate: rate * BATCH as f64,
                tail_ms: tail_ms(&s.latency_ms, &format!("rate {rate}"))?,
                clean: s.failed == 0 && tail(&s.lateness_ms).is_none_or(|t| t.1 <= LAG_BOUND_MS),
            });
        }
        let apply = &pooled.apply_ms;
        if apply.is_empty() {
            return Err("no delta batch succeeded".to_string());
        }
        metrics.add(
            "setup_s",
            median(&bench.setup_s).expect("servers started"),
            "s",
        );
        metrics.add("build_s", median(&bench.build_s).expect("builds ran"), "s");
        metrics.add(
            "spanner_edges",
            artifact.spanner_edge_count() as f64,
            "edges",
        );
        metrics.add("peak_rss_mb", pooled.peak_rss_mb, "MB");
        let reference = &pooled.reference.latency_ms;
        metrics.add(
            "query_p50_ms",
            median(reference).ok_or("no reference latencies")?,
            "ms",
        );
        metrics.add(
            "query_tail_ms",
            median(&pooled.reference_tails).expect("rounds ran"),
            "ms",
        );
        metrics.add("max_qps_at_slo", max_rate_within(&rungs, SLO_MS), "q/s");
        metrics.add(
            "apply_mean_ms",
            apply.iter().sum::<f64>() / apply.len() as f64,
            "ms",
        );
        metrics.add(
            "churn_query_tail_ms",
            median(&pooled.churn_tails).expect("rounds ran"),
            "ms",
        );
    }
    Ok((bench.counts.attempted, bench.counts.failed))
}
