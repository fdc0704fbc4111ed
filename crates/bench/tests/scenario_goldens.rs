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
//! * `station_churn` — arrival and departure events clipping sessions;
//! * two slices of `metropolis` (every station group scaled by the same
//!   factor, as the benchmark scales it; every splice and churn event targets
//!   a station below 10, so all of them stay in): 20,000 stations against
//!   the frozen ensemble on the virtual-time executor, and 2,000 stations
//!   against the online adversary. These pin station admission and
//!   retirement, where per-station state is built or recycled.
//!
//! Regenerate (only for an intended behaviour change) with
//! `cargo run --release -p bench --bin scenario_run -- --out
//! crates/bench/tests/golden scenarios/staged_defense.toml
//! scenarios/mixed_population.toml scenarios/throughput_baseline.toml
//! scenarios/station_churn.toml`; the metropolis slices with
//! `cargo test -p bench --test scenario_goldens -- --ignored
//! write_metropolis_goldens`.

use bench::scenario::{
    default_scenarios_dir, load_spec, run_scenario, AdversaryMode, ScenarioSpec,
};
use std::path::{Path, PathBuf};

fn committed_spec(family: &str) -> ScenarioSpec {
    load_spec(&default_scenarios_dir().join(format!("{family}.toml")))
        .unwrap_or_else(|e| panic!("{e}"))
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// The spec's report, exactly as `scenario_run` writes it.
fn report_json(name: &str, spec: ScenarioSpec) -> String {
    let scenario = spec.build().unwrap_or_else(|e| panic!("{name}: {e}"));
    let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
    serde_json::to_string(&report).expect("reports always serialize")
}

/// `metropolis.toml` with every group scaled to `stations` in total.
fn metropolis_slice(stations: usize, mode: AdversaryMode) -> ScenarioSpec {
    let mut spec = committed_spec("metropolis");
    let total: usize = spec.stations.iter().map(|g| g.count).sum();
    for group in &mut spec.stations {
        group.count = (group.count * stations / total).max(1);
    }
    spec.adversary.mode = mode;
    spec
}

/// The pinned metropolis slices: golden name and spec.
fn metropolis_slices() -> [(&'static str, ScenarioSpec); 2] {
    [
        (
            "metropolis_20k",
            metropolis_slice(20_000, AdversaryMode::Batch),
        ),
        (
            "metropolis_online_2k",
            metropolis_slice(2_000, AdversaryMode::Online),
        ),
    ]
}

fn assert_matches_golden(family: &str) {
    assert_spec_matches_golden(family, committed_spec(family));
}

fn assert_spec_matches_golden(name: &str, spec: ScenarioSpec) {
    let json = report_json(name, spec);
    let golden_path = golden_path(name);
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    assert!(
        json == golden,
        "{name}: report differs from {}\n  got:    {json}\n  golden: {golden}",
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

#[test]
fn metropolis_20k_slice_matches_its_golden_report() {
    let [(name, spec), _] = metropolis_slices();
    assert_spec_matches_golden(name, spec);
}

#[test]
fn metropolis_online_2k_slice_matches_its_golden_report() {
    let [_, (name, spec)] = metropolis_slices();
    assert_spec_matches_golden(name, spec);
}

#[test]
#[ignore = "writes golden files; run only for an intended behaviour change"]
fn write_metropolis_goldens() {
    for (name, spec) in metropolis_slices() {
        let path = golden_path(name);
        std::fs::write(&path, report_json(name, spec))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}
