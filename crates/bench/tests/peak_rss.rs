//! `peak_rss_kb` is per scenario, not process-wide: the high-water mark is
//! reset before each run, so a small scenario after a large one reports its
//! own peak. A test binary of its own, because tests running concurrently in
//! one process would raise the mark.

#![cfg(target_os = "linux")]

use ftspan_bench::scenarios::{self, Profile, ScenarioConfig};

#[test]
fn peak_rss_is_reset_between_scenarios() {
    let config = ScenarioConfig {
        repeats: 1,
        ..ScenarioConfig::new(Profile::Ci)
    };
    let run = |name| {
        scenarios::find(name)
            .expect("scenario exists")
            .run(&config)
            .peak_rss_kb
            .expect("procfs reports VmHWM on Linux")
    };
    let large = run("sssp-large");
    let small = run("conversion-gnp");
    assert!(
        small < large,
        "conversion-gnp reported {small} kB after sssp-large's {large} kB"
    );
}
