//! The server-internal layers, measured after the server has exited: the
//! run's exact request and delta streams are replayed in process against
//! the same store, with a span around every codec, engine, session and
//! apply call.

use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::traffic::ARTIFACT;
use crate::workload::{Phase, PhaseKind};
use crate::Metrics;
use fault_tolerant_spanners::prelude::*;
use ftspan_net::{Request, Response};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Read requests whose session calls are timed one by one (sessions are
/// opened again for them, beside the batch the engine ran).
const SESSION_SAMPLE: usize = 64;

/// A request of the run, in the order the replay issues it.
struct Event<'a> {
    request_id: u64,
    round: usize,
    request: &'a Request,
    wire_rtt: Option<f64>,
    reference: bool,
}

/// Replays `phases` in run order (within a phase, requests go in the order
/// they were sent) and adds the layer metrics. Every round ran on a fresh
/// server, so the dynamic artifact is reset to the stored one at each new
/// round.
pub fn replay(
    tracer: &Tracer,
    store_dir: &Path,
    phases: &[Phase],
    metrics: &mut Metrics,
) -> Result<(), String> {
    let store = ArtifactStore::open(store_dir).map_err(|e| e.to_string())?;
    let mut engine = Engine::new();
    store.load_into(&mut engine).map_err(|e| e.to_string())?;
    let original = promote(&engine)?;

    let mut events = Vec::new();
    for phase in phases {
        let mut phase_events = Vec::new();
        for conn in &phase.conns {
            for (s, o) in conn.schedule.iter().zip(&conn.outcomes) {
                let wire_rtt = match (o.sent, o.done) {
                    (Some(sent), Some(done)) if o.ok => Some(done - sent),
                    _ => None,
                };
                phase_events.push((o.sent.unwrap_or(s.due), &s.request, wire_rtt));
            }
        }
        phase_events.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (_, request, wire_rtt) in phase_events {
            events.push(Event {
                request_id: events.len() as u64,
                round: phase.round,
                request,
                wire_rtt,
                reference: phase.kind == PhaseKind::Reference,
            });
        }
    }

    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut frame_bytes = 0usize;
    let mut batch_ms = Vec::new();
    let mut wait_ms = Vec::new();
    let mut open_us = Vec::new();
    let mut sssp_us = Vec::new();
    let mut apply_ms = Vec::new();
    let (mut patches, mut touched, mut touched_of) = (0usize, 0usize, 0usize);
    let mut sessions_timed = 0;
    let before = engine.stats();
    let mut round = None;

    for event in &events {
        if round != Some(event.round) {
            engine.register_dynamic(ARTIFACT, original.clone());
            round = Some(event.round);
        }
        let rid = Some(event.request_id);
        match event.request {
            Request::RunBatch(_) => {
                let (req_frame, enc_req) = tracer.timed("net.encode", None, rid, || {
                    let mut frame = Vec::new();
                    event.request.write_to(&mut frame).map(|()| frame)
                });
                let req_frame = req_frame.map_err(|e| e.to_string())?;
                let (decoded, dec_req) = tracer.timed("net.decode", None, rid, || {
                    Request::read_from(&mut req_frame.as_slice())
                });
                let Request::RunBatch(queries) = decoded.map_err(|e| e.to_string())? else {
                    return Err("a batch request decoded as another request".to_string());
                };
                let (results, engine_s) =
                    tracer.timed("engine.run_batch", None, rid, || engine.run_batch(&queries));
                let response = Response::Batch(results);
                let (resp_frame, enc_resp) = tracer.timed("net.encode", None, rid, || {
                    let mut frame = Vec::new();
                    response.write_to(&mut frame).map(|()| frame)
                });
                let resp_frame = resp_frame.map_err(|e| e.to_string())?;
                let (decoded, dec_resp) = tracer.timed("net.decode", None, rid, || {
                    Response::read_from(&mut resp_frame.as_slice())
                });
                decoded.map_err(|e| e.to_string())?;
                encode_us.extend([enc_req * 1e6, enc_resp * 1e6]);
                decode_us.extend([dec_req * 1e6, dec_resp * 1e6]);
                frame_bytes += req_frame.len() + resp_frame.len();
                batch_ms.push(engine_s * 1e3);
                if let (true, Some(rtt)) = (event.reference, event.wire_rtt) {
                    let in_process = enc_req + dec_req + engine_s + enc_resp + dec_resp;
                    wait_ms.push((rtt - in_process) * 1e3);
                }
                if event.reference && sessions_timed < SESSION_SAMPLE {
                    sessions_timed += 1;
                    time_sessions(tracer, &engine, &queries, rid, &mut open_us, &mut sssp_us)?;
                }
            }
            Request::ApplyDeltas { artifact, deltas } => {
                let (report, secs) = tracer.timed("core.dynamic.apply", None, rid, || {
                    engine.apply_deltas(artifact, deltas, &RebuildPolicy::default())
                });
                let report = report.map_err(|e| format!("replaying a delta batch: {e}"))?;
                apply_ms.push(secs * 1e3);
                if let ApplyAction::Patched {
                    touched_iterations,
                    total_iterations,
                } = report.action
                {
                    patches += 1;
                    touched += touched_iterations;
                    touched_of += total_iterations;
                }
            }
            other => return Err(format!("unexpected request in the stream: {other:?}")),
        }
    }

    let after = engine.stats();
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let batches = (after.batches - before.batches).max(1);
    let groups = after.planner_groups - before.planner_groups;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    metrics.add("net.encode_us", median(&encode_us).unwrap_or(0.0), "us");
    metrics.add("net.decode_us", median(&decode_us).unwrap_or(0.0), "us");
    metrics.add("net.frame_bytes", frame_bytes as f64, "bytes");
    metrics.add("net.wait_ms", median(&wait_ms).unwrap_or(0.0), "ms");
    metrics.add(
        "engine.batch_p50_ms",
        median(&batch_ms).unwrap_or(0.0),
        "ms",
    );
    metrics.add(
        "engine.batch_tail_ms",
        tail(&batch_ms).map_or(0.0, |t| t.1),
        "ms",
    );
    metrics.add(
        "engine.groups_per_batch",
        groups as f64 / batches as f64,
        "groups",
    );
    metrics.add("engine.cache_hits", hits as f64, "count");
    metrics.add("engine.cache_misses", misses as f64, "count");
    metrics.add(
        "engine.cache_hit_rate",
        ratio(hits as usize, (hits + misses) as usize),
        "fraction",
    );
    metrics.add("engine.swaps", (after.swaps - before.swaps) as f64, "count");
    metrics.add(
        "engine.rebuilds",
        (after.rebuilds - before.rebuilds) as f64,
        "count",
    );
    metrics.add(
        "core.serve.session_open_us",
        median(&open_us).unwrap_or(0.0),
        "us",
    );
    metrics.add("core.serve.sssp_count", sssp_us.len() as f64, "count");
    metrics.add("core.serve.sssp_us", median(&sssp_us).unwrap_or(0.0), "us");
    metrics.add(
        "core.dynamic.apply_ms",
        median(&apply_ms).unwrap_or(0.0),
        "ms",
    );
    metrics.add(
        "core.dynamic.patch_ratio",
        ratio(patches, apply_ms.len()),
        "fraction",
    );
    metrics.add(
        "core.dynamic.touched_frac",
        ratio(touched, touched_of),
        "fraction",
    );
    Ok(())
}

/// The stored artifact as a dynamic one, the way `ftspan_serve --dynamic`
/// promotes it: rebuilt from the recipe its provenance records, and checked
/// equal to the stored one.
fn promote(engine: &Engine) -> Result<DynamicArtifact, String> {
    let flat = engine
        .artifact(ARTIFACT)
        .ok_or("the store holds no fixture artifact")?;
    let recipe = BuildRecipe::from_tagged_provenance(flat.algorithm(), flat.provenance())
        .ok_or("the fixture artifact records no build recipe")?;
    let dynamic = DynamicArtifact::build(flat.source_graph(), recipe).map_err(|e| e.to_string())?;
    if dynamic.artifact() != &*flat {
        return Err("rebuilding the fixture from its recipe changed it".to_string());
    }
    Ok(dynamic)
}

/// Opens one session per fault scope of the batch and runs one traversal
/// per distinct source in it, timing each call.
fn time_sessions(
    tracer: &Tracer,
    engine: &Engine,
    queries: &[Query],
    rid: Option<u64>,
    open_us: &mut Vec<f64>,
    sssp_us: &mut Vec<f64>,
) -> Result<(), String> {
    let artifact = engine
        .artifact(ARTIFACT)
        .ok_or("the fixture is not registered")?;
    let mut scopes: BTreeMap<Vec<NodeId>, BTreeSet<NodeId>> = BTreeMap::new();
    for q in queries {
        let mut scope = q.faults.clone();
        scope.sort_unstable();
        scopes.entry(scope).or_default().insert(q.u);
    }
    for (scope, sources) in scopes {
        let (session, secs) = tracer.timed("core.serve.session_open", None, rid, || {
            artifact.under_faults(&scope)
        });
        let session = session.map_err(|e| e.to_string())?;
        open_us.push(secs * 1e6);
        for u in sources {
            let (dist, secs) =
                tracer.timed("core.serve.sssp", None, rid, || session.distances_from(u));
            dist.map_err(|e| e.to_string())?;
            sssp_us.push(secs * 1e6);
        }
    }
    Ok(())
}
