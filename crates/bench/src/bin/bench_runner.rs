//! `bench_runner` — runs the seeded scenario suite and writes `BENCH.json`;
//! the CI `perf-smoke` job uses `--check` as a regression gate.
//!
//! ```text
//! bench_runner [--profile ci|full|paper] [--seed N] [--threads N] [--out PATH]
//!              [--check BASELINE] [--tolerance F] [--list]
//! ```
//!
//! * `--profile` — `ci` (small and seconds-fast; default) and `full` run the
//!   perf scenarios at two sizes; `paper` runs the paper's experiments
//!   E1–E12 once each, prints their tables and writes them as CSV under
//!   `target/experiments/`.
//! * `--seed` — base seed (default 2011); every scenario derives its own.
//! * `--threads` — worker threads (default: one per CPU). Digests are
//!   identical at any value.
//! * `--out` — where to write the JSON report (default `BENCH.json`).
//! * `--check` — compare against a baseline `BENCH.json`; exit 1 if any
//!   scenario's wall-clock regresses by more than the tolerance or its
//!   digest differs from the baseline's.
//! * `--tolerance` — allowed slowdown fraction for `--check` (default 0.25).
//! * `--list` — print the profile's scenarios and exit.
//!
//! Re-baseline with:
//!
//! ```text
//! cargo run --release -p ftspan-bench --bin bench_runner -- --profile ci --out bench/baseline.json
//! cargo run --release -p ftspan-bench --bin bench_runner -- --profile paper --out bench/paper.json
//! ```

use ftspan_bench::scenarios::{self, BenchReport, Profile, ScenarioConfig};
use ftspan_bench::Table;
use std::process::ExitCode;

struct Args {
    config: ScenarioConfig,
    out: std::path::PathBuf,
    check: Option<std::path::PathBuf>,
    tolerance: f64,
    list: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        config: ScenarioConfig::new(Profile::Ci),
        out: std::path::PathBuf::from("BENCH.json"),
        check: None,
        tolerance: 0.25,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--profile" => {
                let v = value_of("--profile");
                args.config.profile = Profile::parse(&v)
                    .unwrap_or_else(|| panic!("unknown profile `{v}` (expected ci|full|paper)"));
            }
            "--seed" => {
                args.config.seed = value_of("--seed").parse().expect("--seed expects a u64");
            }
            "--threads" => {
                args.config.threads = Some(
                    value_of("--threads")
                        .parse()
                        .expect("--threads expects a positive integer"),
                );
            }
            "--out" => args.out = value_of("--out").into(),
            "--check" => args.check = Some(value_of("--check").into()),
            "--tolerance" => {
                args.tolerance = value_of("--tolerance")
                    .parse()
                    .expect("--tolerance expects a fraction like 0.25");
            }
            "--list" => args.list = true,
            other => panic!("unknown argument `{other}` (see the bench_runner docs)"),
        }
    }
    // The profile picks the repeat count (paper runs each scenario once).
    args.config.repeats = ScenarioConfig::new(args.config.profile).repeats;
    args
}

fn main() -> ExitCode {
    let args = parse_args();

    if args.list {
        let mut table = Table::new("scenarios", &["name", "description"]);
        for s in scenarios::for_profile(args.config.profile) {
            table.row(&[s.name, s.description]);
        }
        println!("{}", table.render());
        return ExitCode::SUCCESS;
    }

    println!(
        "running {} scenarios (profile {}, seed {}, threads {})",
        scenarios::for_profile(args.config.profile).len(),
        args.config.profile,
        args.config.seed,
        args.config
            .threads
            .map(|t| t.to_string())
            .unwrap_or_else(|| "auto".to_string()),
    );
    let results = scenarios::run_all(&args.config);
    for table in results.iter().flat_map(|r| &r.tables) {
        table.print_and_save();
    }

    let mut table = Table::new(
        "bench",
        &[
            "scenario",
            "wall_ms",
            "edges/s",
            "queries/s",
            "size",
            "rss_mb",
            "digest",
        ],
    );
    for r in &results {
        table.row(&[
            r.name.clone(),
            format!("{:.2}", r.wall_ms),
            r.edges_per_sec
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".to_string()),
            r.queries_per_sec
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".to_string()),
            r.spanner_edges.to_string(),
            r.peak_rss_kb
                .map(|v| format!("{:.0}", v as f64 / 1024.0))
                .unwrap_or_else(|| "-".to_string()),
            r.digest.clone(),
        ]);
    }
    println!("{}", table.render());

    let report = BenchReport::new(&args.config, results.clone());
    if let Some(dir) = args.out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("output directory is creatable");
        }
    }
    std::fs::write(&args.out, report.to_json()).expect("BENCH.json is writable");
    println!("wrote {}", args.out.display());

    if let Some(baseline_path) = &args.check {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", baseline_path.display()));
        let baseline = BenchReport::parse_json(&text)
            .unwrap_or_else(|| panic!("{} is not a BENCH.json document", baseline_path.display()));
        let regressions = scenarios::compare(&baseline, &results, args.tolerance);
        if regressions.is_empty() {
            println!(
                "perf gate OK: every digest matches and no scenario regressed more than {:.0}% vs {}",
                args.tolerance * 100.0,
                baseline_path.display()
            );
        } else {
            eprintln!("perf gate FAILED ({} regressions):", regressions.len());
            for r in &regressions {
                eprintln!("  {}", r.message);
            }
            eprintln!(
                "re-baseline (after verifying the slowdown or output change is intended) with:\n  \
                 cargo run --release -p ftspan-bench --bin bench_runner -- --profile {} --out {}",
                args.config.profile,
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
