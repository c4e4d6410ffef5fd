//! `ftbench` — the repository benchmark.
//!
//! ```text
//! ftbench --serve-bin PATH --workload serve-zipf|serve-fresh --seed N
//!         --seconds S --trace 0|1
//! ```
//!
//! One run takes one fixture through all four pipelines of the system, in
//! rounds (see [`workload`]):
//!
//! 1. **construct** — build the fixture's 1-vertex-fault-tolerant
//!    3-spanner with the theorem's α over Baswana–Sen
//!    (`artifact_on_graph`) and save it (`ArtifactStore::save`);
//! 2. **cold load** — spawn `ftspan_serve --store --dynamic` on the saved
//!    store until it answers its first request;
//! 3. **serve** — drive it over loopback with open-loop 8-query batches:
//!    at the reference rate, then up a ladder of rates;
//! 4. **apply deltas** — one writer sends single-edge `ApplyDeltas` while
//!    one reader keeps sending.
//!
//! The two workloads differ only in the queries the readers send (see
//! [`traffic::Traffic`]). Every output is checked; the last line of stdout
//! is one JSON object with the run's metrics: the end-to-end ones, or with
//! `--trace 1` the per-layer ones, measured by spans the benchmark records
//! around its calls into each layer and by replaying the run's requests in
//! process after each server exits. `ftbench/README.md` defines every
//! metric.

mod construct;
mod load;
mod replay;
mod server;
mod stats;
mod trace;
mod traffic;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use traffic::Traffic;

/// Named metrics with units, printed in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

pub struct Args {
    pub serve_bin: PathBuf,
    pub traffic: Traffic,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut serve_bin = None;
    let mut traffic = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--workload" => {
                traffic = Some(match value.as_str() {
                    "serve-zipf" => Traffic::Zipf,
                    "serve-fresh" => Traffic::Fresh,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(5.0..=120.0).contains(&s) {
                    return Err("--seconds must lie in [5, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        traffic: traffic.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ftbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    let started = Instant::now();
    let outcome = workload::run(&args, &mut metrics);
    eprintln!("ftbench: run took {:.1} s", started.elapsed().as_secs_f64());
    let (attempted, failed) = match outcome {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("ftbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match metrics.to_json() {
        Ok(json) => {
            println!(
                "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {json}}}"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ftbench: {e}");
            ExitCode::FAILURE
        }
    }
}
