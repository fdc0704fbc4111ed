//! Golden reports: committed scenarios must reproduce their recorded JSON
//! reports byte for byte.
//!
//! The files under `tests/golden/` are the exact `scenario_run` output
//! (`serde_json::to_string` of the `ScenarioReport`) of the committed specs,
//! recorded before the scoring plane was last optimised. Any change to a
//! classifier, the windower, a defense stage or the executors that moves a
//! single count or the last bit of a rate fails here. Every committed family
//! that runs in well under a second is pinned:
//!
//! * `staged_defense` — the online adversary, forked per station and scoring
//!   test-then-train across a mid-session splice (every member learns, naive
//!   Bayes included);
//! * `mixed_population` — the frozen batch ensemble, where naive Bayes
//!   arbitrates whenever SVM and NN disagree;
//! * `throughput_baseline` — padding, morphing and morph∘OR on one
//!   BitTorrent session each, pinning their per-station overhead;
//! * `station_churn` — arrival and departure events clipping sessions.
//!
//! Regenerate (only for an intended behaviour change) with
//! `cargo run --release -p bench --bin scenario_run -- --out
//! crates/bench/tests/golden scenarios/staged_defense.toml
//! scenarios/mixed_population.toml scenarios/throughput_baseline.toml
//! scenarios/station_churn.toml`.

use bench::scenario::{default_scenarios_dir, load_spec, run_scenario};
use std::path::Path;

fn assert_matches_golden(family: &str) {
    let spec = load_spec(&default_scenarios_dir().join(format!("{family}.toml")))
        .unwrap_or_else(|e| panic!("{e}"));
    let scenario = spec.build().unwrap_or_else(|e| panic!("{family}: {e}"));
    let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{family}: {e}"));
    let json = serde_json::to_string(&report).expect("reports always serialize");
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{family}.json"));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    assert!(
        json == golden,
        "{family}: report differs from {}\n  got:    {json}\n  golden: {golden}",
        golden_path.display()
    );
}

#[test]
fn staged_defense_matches_its_golden_report() {
    assert_matches_golden("staged_defense");
}

#[test]
fn mixed_population_matches_its_golden_report() {
    assert_matches_golden("mixed_population");
}

#[test]
fn throughput_baseline_matches_its_golden_report() {
    assert_matches_golden("throughput_baseline");
}

#[test]
fn station_churn_matches_its_golden_report() {
    assert_matches_golden("station_churn");
}
