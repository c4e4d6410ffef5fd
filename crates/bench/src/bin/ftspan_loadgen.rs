//! `ftspan_loadgen` — seeded load generator for `ftspan_serve`.
//!
//! ```text
//! ftspan_loadgen --addr HOST:PORT [--duration-secs N] [--connections C]
//!                [--batch B] [--seed N] [--zipf-exponent F] [--scopes S]
//!                [--burst K] [--update-stream] [--churn D]
//!                [--update-artifact NAME] [--min-qps Q] [--out PATH]
//!                [--server-stats] [--shutdown]
//! ```
//!
//! * `--addr` — server to drive (required).
//! * `--duration-secs` — how long to generate load (default 2).
//! * `--connections` — concurrent client connections (default 2).
//! * `--batch` — queries per request frame (default 32).
//! * `--seed` — RNG seed; the traffic is fully reproducible (default 2011).
//! * `--zipf-exponent` — skew of the source popularity distribution
//!   (default 1.0; 0 = uniform).
//! * `--scopes` — distinct fault scopes the traffic rotates through
//!   (default 4; repeated scopes exercise the server's planner groups).
//! * `--burst` — open-loop burstiness: each connection sends `K` requests
//!   back-to-back, then yields (default 1 = smooth).
//! * `--update-stream` — mixed read/write traffic: alongside the query
//!   connections, one writer connection pushes seeded `ApplyDeltas` batches
//!   at a dynamic artifact for the whole run, so every warm swap happens
//!   under live query load. The writer only deletes/reweights edges it
//!   inserted itself, so its churn stream stays valid without knowing the
//!   server's graph; an insert that collides with an existing edge is a
//!   *typed* rejection the server must answer cleanly (counted, not fatal).
//!   Apply latency lands in its own histogram, reported separately from
//!   query latency.
//! * `--churn` — edge deltas per `ApplyDeltas` batch (default 4; only with
//!   `--update-stream`).
//! * `--update-artifact` — artifact the writer targets (default: the
//!   server's first artifact; it must be served dynamic, e.g. via
//!   `ftspan_serve --dynamic`, or every apply is rejected).
//! * `--min-qps` — exit 1 if measured throughput falls below this (CI gate).
//! * `--out` — write a `BENCH.json`-compatible report here.
//! * `--server-stats` — after the run, fetch and print the server's wire
//!   [`ServerStats`](ftspan_net::ServerStats): queue/batch counters plus the
//!   engine's planner groups, planner units and source-cache hit rate.
//! * `--shutdown` — send a graceful-shutdown frame when done (CI smoke).
//!
//! The traffic mix is Zipf-distributed sources, rotating fault scopes and
//! mixed query kinds — the all-to-all-with-hot-spots shape network serving
//! actually sees. Per-request round-trip latency lands in an HDR-style
//! histogram; the report carries throughput plus p50/p99/p999 in
//! microseconds. Any `Overloaded` response is counted (and retried after a
//! beat) — it is backpressure, not an error. Protocol errors are fatal.

use fault_tolerant_spanners::prelude::*;
use fault_tolerant_spanners::Query;
use ftspan_bench::hist::Histogram;
use ftspan_bench::scenarios::{BenchReport, Profile, ScenarioConfig, ScenarioResult};
use ftspan_bench::Table;
use ftspan_net::{ArtifactInfo, BatchReply, Client};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: Option<String>,
    duration: Duration,
    connections: usize,
    batch: usize,
    seed: u64,
    zipf_exponent: f64,
    scopes: usize,
    burst: usize,
    update_stream: bool,
    churn: usize,
    update_artifact: Option<String>,
    min_qps: Option<f64>,
    out: Option<std::path::PathBuf>,
    server_stats: bool,
    shutdown: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        duration: Duration::from_secs(2),
        connections: 2,
        batch: 32,
        seed: 2011,
        zipf_exponent: 1.0,
        scopes: 4,
        burst: 1,
        update_stream: false,
        churn: 4,
        update_artifact: None,
        min_qps: None,
        out: None,
        server_stats: false,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(value_of("--addr")),
            "--duration-secs" => {
                args.duration = Duration::from_secs_f64(
                    value_of("--duration-secs")
                        .parse()
                        .expect("--duration-secs expects a number"),
                );
            }
            "--connections" => {
                args.connections = value_of("--connections")
                    .parse()
                    .expect("--connections expects a positive integer");
            }
            "--batch" => {
                args.batch = value_of("--batch")
                    .parse()
                    .expect("--batch expects a positive integer");
            }
            "--seed" => args.seed = value_of("--seed").parse().expect("--seed expects a u64"),
            "--zipf-exponent" => {
                args.zipf_exponent = value_of("--zipf-exponent")
                    .parse()
                    .expect("--zipf-exponent expects a number");
            }
            "--scopes" => {
                args.scopes = value_of("--scopes")
                    .parse()
                    .expect("--scopes expects a positive integer");
            }
            "--burst" => {
                args.burst = value_of("--burst")
                    .parse()
                    .expect("--burst expects a positive integer");
            }
            "--update-stream" => args.update_stream = true,
            "--churn" => {
                args.churn = value_of("--churn")
                    .parse()
                    .expect("--churn expects a positive integer");
            }
            "--update-artifact" => args.update_artifact = Some(value_of("--update-artifact")),
            "--min-qps" => {
                args.min_qps = Some(
                    value_of("--min-qps")
                        .parse()
                        .expect("--min-qps expects a number"),
                );
            }
            "--out" => args.out = Some(value_of("--out").into()),
            "--server-stats" => args.server_stats = true,
            "--shutdown" => args.shutdown = true,
            other => panic!("unknown argument `{other}` (see the ftspan_loadgen docs)"),
        }
    }
    args
}

/// Seeded traffic source: Zipf-popular query sources, rotating fault
/// scopes, mixed query kinds, all against the server's own artifact list.
struct TrafficSource {
    rng: ChaCha8Rng,
    artifacts: Vec<ArtifactInfo>,
    /// Per-artifact cumulative Zipf weights over sources.
    cumulative: Vec<Vec<f64>>,
    scopes: Vec<Vec<NodeId>>,
}

impl TrafficSource {
    fn new(seed: u64, artifacts: Vec<ArtifactInfo>, zipf_exponent: f64, scopes: usize) -> Self {
        let cumulative = artifacts
            .iter()
            .map(|a| {
                let n = (a.nodes as usize).max(1);
                (0..n)
                    .scan(0.0f64, |acc, i| {
                        *acc += 1.0 / ((i as f64 + 1.0).powf(zipf_exponent));
                        Some(*acc)
                    })
                    .collect()
            })
            .collect();
        // Fault scopes are derived from the first vertex-fault artifact's
        // size; edge-fault artifacts are queried fault-free (the generator
        // has no edge list to draw real edges from).
        let n = artifacts
            .iter()
            .find(|a| a.fault_model == fault_tolerant_spanners::core::FaultModel::Vertex)
            .map(|a| a.nodes as usize)
            .unwrap_or(1)
            .max(1);
        let scopes = (0..scopes.max(1))
            .map(|s| {
                if s == 0 {
                    Vec::new() // the fault-free scope is always in the mix
                } else {
                    vec![NodeId::new((s * 7 + 1) % n)]
                }
            })
            .collect();
        TrafficSource {
            rng: ChaCha8Rng::seed_from_u64(seed),
            artifacts,
            cumulative,
            scopes,
        }
    }

    fn zipf_node(&mut self, artifact: usize) -> NodeId {
        let cumulative = &self.cumulative[artifact];
        let total = *cumulative.last().expect("artifacts have nodes");
        let x: f64 = self.rng.gen::<f64>() * total;
        NodeId::new(
            cumulative
                .partition_point(|&c| c < x)
                .min(cumulative.len() - 1),
        )
    }

    fn batch(&mut self, size: usize) -> Vec<Query> {
        let mut queries = Vec::with_capacity(size);
        for _ in 0..size {
            let a = self.rng.gen_range(0..self.artifacts.len());
            let u = self.zipf_node(a);
            let v = NodeId::new(self.rng.gen_range(0..self.artifacts[a].nodes.max(1)) as usize);
            let vertex_faults =
                self.artifacts[a].fault_model == fault_tolerant_spanners::core::FaultModel::Vertex;
            let scope = if vertex_faults {
                let s = self.rng.gen_range(0..self.scopes.len());
                self.scopes[s].clone()
            } else {
                Vec::new()
            };
            let name = self.artifacts[a].name.as_str();
            queries.push(match self.rng.gen_range(0..8u32) {
                0 => Query::certificate(name, scope, u, v),
                1 => Query::path(name, scope, u, v),
                _ => Query::distance(name, scope, u, v),
            });
        }
        queries
    }
}

struct WorkerOutcome {
    latency_us: Histogram,
    queries: u64,
    query_errors: u64,
    overloaded: u64,
    protocol_errors: u64,
}

#[allow(clippy::too_many_arguments)]
fn drive_connection(
    addr: &str,
    deadline: Instant,
    stop: &AtomicBool,
    batch: usize,
    burst: usize,
    seed: u64,
    zipf_exponent: f64,
    scopes: usize,
) -> Result<WorkerOutcome, ftspan_net::NetError> {
    let mut client = Client::connect(addr)?;
    let artifacts = client.artifacts()?;
    if artifacts.is_empty() {
        return Err(ftspan_net::NetError::Io {
            message: "server holds no artifacts".into(),
        });
    }
    let mut source = TrafficSource::new(seed, artifacts, zipf_exponent, scopes);
    let mut outcome = WorkerOutcome {
        latency_us: Histogram::new(),
        queries: 0,
        query_errors: 0,
        overloaded: 0,
        protocol_errors: 0,
    };
    'open_loop: while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        // Open-loop burst: `burst` requests back-to-back, then yield once,
        // approximating correlated arrivals instead of a smooth closed loop.
        for _ in 0..burst {
            let queries = source.batch(batch);
            let start = Instant::now();
            let reply = match client.run_batch(&queries) {
                Ok(reply) => reply,
                Err(_) => {
                    outcome.protocol_errors += 1;
                    break 'open_loop;
                }
            };
            let elapsed_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            match reply {
                BatchReply::Results(results) => {
                    outcome.latency_us.record(elapsed_us);
                    outcome.queries += results.len() as u64;
                    outcome.query_errors += results.iter().filter(|r| r.is_err()).count() as u64;
                }
                BatchReply::Overloaded => {
                    // Backpressure, not an error: back off for a beat.
                    outcome.overloaded += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                BatchReply::ShuttingDown => break 'open_loop,
            }
        }
        std::thread::yield_now();
    }
    Ok(outcome)
}

struct UpdateOutcome {
    apply_us: Histogram,
    applies: u64,
    deltas_applied: u64,
    apply_rejected: u64,
    rebuilds: u64,
    protocol_errors: u64,
}

/// The writer connection behind `--update-stream`: an open loop of seeded
/// `ApplyDeltas` batches against one artifact. The writer keeps a private
/// set of edges it has inserted — deletes and reweights only ever touch
/// those, so the stream stays valid against a graph it cannot see. Inserts
/// draw random vertex pairs; one that collides with a base-graph edge makes
/// the whole batch a typed rejection (applies are atomic), in which case the
/// private set is left unchanged and the collision is counted.
fn drive_updates(
    addr: &str,
    deadline: Instant,
    stop: &AtomicBool,
    churn: usize,
    seed: u64,
    artifact: Option<String>,
) -> Result<UpdateOutcome, ftspan_net::NetError> {
    let mut client = Client::connect(addr)?;
    let artifacts = client.artifacts()?;
    let target = match artifact {
        Some(name) => name,
        None => {
            let Some(first) = artifacts.first() else {
                return Err(ftspan_net::NetError::Io {
                    message: "server holds no artifacts".into(),
                });
            };
            first.name.clone()
        }
    };
    let n = artifacts
        .iter()
        .find(|a| a.name == target)
        .map(|a| (a.nodes as usize).max(2))
        .unwrap_or(2);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Edges this writer has successfully inserted (normalized u < v), with
    // their current weight.
    let mut owned: Vec<((usize, usize), f64)> = Vec::new();
    let mut outcome = UpdateOutcome {
        apply_us: Histogram::new(),
        applies: 0,
        deltas_applied: 0,
        apply_rejected: 0,
        rebuilds: 0,
        protocol_errors: 0,
    };
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        // Build the batch against a scratch copy so a rejected batch leaves
        // the committed set untouched.
        let mut scratch = owned.clone();
        let mut deltas = Vec::with_capacity(churn);
        for _ in 0..churn {
            match rng.gen_range(0..4u32) {
                0 if !scratch.is_empty() => {
                    let ((a, b), _) = scratch.swap_remove(rng.gen_range(0..scratch.len()));
                    deltas.push(EdgeDelta::Delete {
                        u: NodeId::new(a),
                        v: NodeId::new(b),
                    });
                }
                1 if !scratch.is_empty() => {
                    let pick = rng.gen_range(0..scratch.len());
                    let entry = &mut scratch[pick];
                    entry.1 += 0.25;
                    deltas.push(EdgeDelta::Reweight {
                        u: NodeId::new(entry.0 .0),
                        v: NodeId::new(entry.0 .1),
                        weight: entry.1,
                    });
                }
                _ => {
                    for _ in 0..16 {
                        let a = rng.gen_range(0..n);
                        let b = rng.gen_range(0..n);
                        if a == b {
                            continue;
                        }
                        let pair = (a.min(b), a.max(b));
                        if scratch.iter().any(|(p, _)| *p == pair) {
                            continue;
                        }
                        let weight = 1.0 + rng.gen::<f64>();
                        scratch.push((pair, weight));
                        deltas.push(EdgeDelta::Insert {
                            u: NodeId::new(pair.0),
                            v: NodeId::new(pair.1),
                            weight,
                        });
                        break;
                    }
                }
            }
        }
        if deltas.is_empty() {
            continue;
        }

        let start = Instant::now();
        match client.apply_deltas(&target, &deltas) {
            Ok(Ok(info)) => {
                let elapsed_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                outcome.apply_us.record(elapsed_us);
                outcome.applies += 1;
                outcome.deltas_applied += info.applied;
                outcome.rebuilds += u64::from(info.rebuilt);
                owned = scratch;
            }
            Ok(Err(_)) => {
                // A typed rejection: an insert hit an existing base-graph
                // edge (or the artifact is not dynamic). Nothing applied;
                // keep the committed set and roll fresh dice next round.
                outcome.apply_rejected += 1;
            }
            Err(_) => {
                outcome.protocol_errors += 1;
                break;
            }
        }
        std::thread::yield_now();
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(addr) = args.addr else {
        eprintln!("ftspan_loadgen: --addr HOST:PORT is required");
        return ExitCode::FAILURE;
    };

    let stop = Arc::new(AtomicBool::new(false));
    let failed = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + args.duration;
    let start = Instant::now();
    let workers: Vec<_> = (0..args.connections.max(1))
        .map(|i| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let failed = Arc::clone(&failed);
            let (batch, burst) = (args.batch.max(1), args.burst.max(1));
            let (zipf, scopes) = (args.zipf_exponent, args.scopes);
            // Distinct per-connection seeds keep the streams independent
            // while the whole run stays reproducible from --seed.
            let seed = args
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
            std::thread::spawn(move || {
                match drive_connection(&addr, deadline, &stop, batch, burst, seed, zipf, scopes) {
                    Ok(outcome) => Some(outcome),
                    Err(e) => {
                        eprintln!("ftspan_loadgen: connection {i} failed: {e}");
                        failed.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                }
            })
        })
        .collect();

    let updater = args.update_stream.then(|| {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let failed = Arc::clone(&failed);
        let churn = args.churn.max(1);
        let artifact = args.update_artifact.clone();
        // A seed stream disjoint from every query connection's.
        let seed = args.seed ^ 0xD17A_5EED_0F0F_2011;
        std::thread::spawn(move || {
            match drive_updates(&addr, deadline, &stop, churn, seed, artifact) {
                Ok(outcome) => Some(outcome),
                Err(e) => {
                    eprintln!("ftspan_loadgen: update connection failed: {e}");
                    failed.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        })
    });

    let mut latency_us = Histogram::new();
    let mut queries = 0u64;
    let mut query_errors = 0u64;
    let mut overloaded = 0u64;
    let mut protocol_errors = 0u64;
    for worker in workers {
        if let Ok(Some(outcome)) = worker.join() {
            latency_us.merge(&outcome.latency_us);
            queries += outcome.queries;
            query_errors += outcome.query_errors;
            overloaded += outcome.overloaded;
            protocol_errors += outcome.protocol_errors;
        }
    }
    let mut updates: Option<UpdateOutcome> = None;
    if let Some(handle) = updater {
        if let Ok(Some(outcome)) = handle.join() {
            protocol_errors += outcome.protocol_errors;
            updates = Some(outcome);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let qps = if elapsed > 0.0 {
        queries as f64 / elapsed
    } else {
        0.0
    };

    // Fetch server-side counters before any shutdown frame: the planner and
    // cache numbers live on the server, not in this process.
    if args.server_stats {
        match Client::connect(addr.as_str()).and_then(|mut c| c.stats()) {
            Ok(stats) => {
                let engine = stats.engine;
                let mut table = Table::new("server-stats", &["metric", "value"]);
                table.row(&[
                    "connections_accepted".to_string(),
                    stats.connections_accepted.to_string(),
                ]);
                table.row(&[
                    "batches_completed".to_string(),
                    stats.batches_completed.to_string(),
                ]);
                table.row(&[
                    "batches_rejected".to_string(),
                    stats.batches_rejected.to_string(),
                ]);
                table.row(&["queue_depth".to_string(), stats.queue_depth.to_string()]);
                table.row(&["engine_queries".to_string(), engine.queries.to_string()]);
                table.row(&[
                    "planner_groups".to_string(),
                    engine.planner_groups.to_string(),
                ]);
                table.row(&[
                    "planner_units".to_string(),
                    engine.planner_units.to_string(),
                ]);
                table.row(&["cache_hits".to_string(), engine.cache_hits.to_string()]);
                table.row(&["cache_misses".to_string(), engine.cache_misses.to_string()]);
                table.row(&[
                    "cache_hit_rate".to_string(),
                    format!("{:.3}", engine.hit_rate()),
                ]);
                table.row(&[
                    "sssp_half_edges".to_string(),
                    engine.sssp_half_edges.to_string(),
                ]);
                table.row(&["swaps".to_string(), engine.swaps.to_string()]);
                table.row(&[
                    "deltas_applied".to_string(),
                    engine.deltas_applied.to_string(),
                ]);
                table.row(&["rebuilds".to_string(), engine.rebuilds.to_string()]);
                println!("{}", table.render());
            }
            Err(e) => {
                eprintln!("ftspan_loadgen: stats request failed: {e}");
                protocol_errors += 1;
            }
        }
    }

    if args.shutdown {
        match Client::connect(addr.as_str()).and_then(|mut c| c.shutdown_server()) {
            Ok(()) => eprintln!("ftspan_loadgen: server acknowledged shutdown"),
            Err(e) => {
                eprintln!("ftspan_loadgen: shutdown request failed: {e}");
                protocol_errors += 1;
            }
        }
    }

    let mut table = Table::new("loadgen", &["metric", "value"]);
    table.row(&["queries".to_string(), queries.to_string()]);
    table.row(&["throughput_qps".to_string(), format!("{qps:.0}")]);
    table.row(&["batches".to_string(), latency_us.count().to_string()]);
    table.row(&[
        "latency_p50_us".to_string(),
        latency_us.quantile(0.50).to_string(),
    ]);
    table.row(&[
        "latency_p99_us".to_string(),
        latency_us.quantile(0.99).to_string(),
    ]);
    table.row(&[
        "latency_p999_us".to_string(),
        latency_us.quantile(0.999).to_string(),
    ]);
    table.row(&[
        "latency_mean_us".to_string(),
        format!("{:.0}", latency_us.mean()),
    ]);
    table.row(&["query_errors".to_string(), query_errors.to_string()]);
    table.row(&["overloaded".to_string(), overloaded.to_string()]);
    table.row(&["protocol_errors".to_string(), protocol_errors.to_string()]);
    if let Some(u) = &updates {
        // The write side of the mixed workload, kept apart from query
        // latency: applies are rare and heavy (a rebuild can take
        // milliseconds), and folding them into the query histogram would
        // wreck its tail.
        table.row(&["applies".to_string(), u.applies.to_string()]);
        table.row(&["deltas_applied".to_string(), u.deltas_applied.to_string()]);
        table.row(&["apply_rejected".to_string(), u.apply_rejected.to_string()]);
        table.row(&["apply_rebuilds".to_string(), u.rebuilds.to_string()]);
        table.row(&[
            "apply_p50_us".to_string(),
            u.apply_us.quantile(0.50).to_string(),
        ]);
        table.row(&[
            "apply_p99_us".to_string(),
            u.apply_us.quantile(0.99).to_string(),
        ]);
        table.row(&[
            "apply_mean_us".to_string(),
            format!("{:.0}", u.apply_us.mean()),
        ]);
    }
    println!("{}", table.render());

    if let Some(out) = &args.out {
        // A BENCH.json-compatible single-scenario report: the reader
        // ignores keys it does not know, so downstream tooling for
        // bench_runner output reads loadgen reports unchanged.
        let config = ScenarioConfig {
            profile: Profile::Ci,
            seed: args.seed,
            threads: Some(args.connections),
            repeats: 1,
        };
        let report = BenchReport::new(
            &config,
            vec![ScenarioResult {
                name: "loadgen-net".to_string(),
                wall_ms: elapsed * 1e3,
                queries_per_sec: Some(qps),
                digest: format!(
                    "{:016x}",
                    latency_us.quantile(0.50)
                        ^ latency_us.quantile(0.99).rotate_left(21)
                        ^ queries.rotate_left(42)
                ),
                ..ScenarioResult::default()
            }],
        );
        if let Some(dir) = out.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("output directory is creatable");
            }
        }
        std::fs::write(out, report.to_json()).expect("report path is writable");
        println!("wrote {}", out.display());
    }

    if protocol_errors > 0 || failed.load(Ordering::Relaxed) > 0 {
        eprintln!("ftspan_loadgen: FAILED ({protocol_errors} protocol errors)");
        return ExitCode::FAILURE;
    }
    if let Some(min) = args.min_qps {
        if qps < min {
            eprintln!(
                "ftspan_loadgen: FAILED (throughput {qps:.0} q/s below the {min:.0} q/s floor)"
            );
            return ExitCode::FAILURE;
        }
        println!("throughput gate OK: {qps:.0} q/s >= {min:.0} q/s");
    }
    ExitCode::SUCCESS
}
