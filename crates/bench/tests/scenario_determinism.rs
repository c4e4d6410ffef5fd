//! Scenario digests are a pure function of the seed: identical across
//! repeated runs and across worker counts (the property the CI perf gate's
//! baseline relies on).

use ftspan_bench::scenarios::{self, Profile, ScenarioConfig};

/// The cheap construction scenarios plus the serving scenarios — enough to
/// cover every digest path (undirected, directed, engine, planner, store)
/// while keeping the suite fast — and the two cheapest paper experiments,
/// which pin the table digests. The full-suite sweep lives in
/// `bench_runner` itself.
const PINNED: [&str; 15] = [
    "conversion-gnp",
    "conversion-grid",
    "two-spanner-greedy-gnp",
    "engine-queries",
    "serve-repeated-faults",
    "serve-zipf-sources",
    "serve-store-cold-load",
    "shard-build",
    "serve-sharded-batch",
    "construct-large-gnm",
    "sssp-large",
    "delta-replay",
    "serve-under-churn",
    "paper-e7-distributed",
    "paper-e12-registry-matrix",
];

#[test]
fn digests_are_identical_across_worker_counts() {
    for name in PINNED {
        let scenario = scenarios::find(name).expect("pinned scenario exists");
        let mut digests = Vec::new();
        for threads in [1usize, 2, 8] {
            let config = ScenarioConfig {
                profile: Profile::Ci,
                seed: 2011,
                threads: Some(threads),
                repeats: 1,
            };
            digests.push(scenario.run(&config).digest);
        }
        assert_eq!(digests[0], digests[1], "{name}: threads 1 vs 2");
        assert_eq!(digests[0], digests[2], "{name}: threads 1 vs 8");
    }
}

#[test]
fn digests_are_identical_across_repeated_runs() {
    let config = ScenarioConfig {
        profile: Profile::Ci,
        seed: 7,
        threads: None,
        repeats: 1,
    };
    for name in PINNED {
        let scenario = scenarios::find(name).expect("pinned scenario exists");
        let a = scenario.run(&config);
        let b = scenario.run(&config);
        assert_eq!(a.digest, b.digest, "{name}: repeated run changed digest");
        assert_eq!(a.spanner_edges, b.spanner_edges);
    }
}

#[test]
fn digests_depend_on_the_seed() {
    let scenario = scenarios::find("conversion-gnp").unwrap();
    let with_seed = |seed| {
        scenario
            .run(&ScenarioConfig {
                profile: Profile::Ci,
                seed,
                threads: Some(2),
                repeats: 1,
            })
            .digest
    };
    assert_ne!(with_seed(1), with_seed(2));
}
