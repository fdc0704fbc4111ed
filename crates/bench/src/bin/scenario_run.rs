//! Runs (or validates) declarative scenario specs.
//!
//! ```text
//! cargo run --release -p bench --bin scenario_run -- \
//!     [--check] [--out DIR] [--skip-over N] [PATH ...]
//! ```
//!
//! Each `PATH` is a spec file or a directory of `*.toml` specs; the committed
//! `scenarios/` directory is the default. Every spec is parsed and compiled
//! through `ScenarioSpec::build()`; with `--check` that is all (CI gates on
//! it, so a malformed committed spec fails the build — compilation is
//! O(groups + events), so even the million-station metropolis spec checks in
//! milliseconds), otherwise each scenario runs on its spec'd executor and its
//! report is written to `DIR/<name>.json` (default `scenario-results/`).
//! `--skip-over N` skips *executing* (not checking) scenarios with more than
//! N stations, so routine CI sweeps don't run the metropolis family at full
//! size.

use bench::scenario::{default_scenarios_dir, execute_scenario, load_spec, spec_files, train_for};
use bench::streaming::{Executor, ExecutorStats};
use std::path::PathBuf;

fn main() {
    let mut check_only = false;
    let mut out_dir = PathBuf::from("scenario-results");
    let mut skip_over: Option<usize> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check_only = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => fail("--out needs a directory argument"),
            },
            "--skip-over" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => skip_over = Some(n),
                None => fail("--skip-over needs a station-count argument"),
            },
            "--help" | "-h" => {
                println!("usage: scenario_run [--check] [--out DIR] [--skip-over N] [PATH ...]");
                return;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        paths.push(default_scenarios_dir());
    }

    let mut files = Vec::new();
    for path in &paths {
        match spec_files(path) {
            Ok(found) => files.extend(found),
            Err(e) => fail(&e),
        }
    }
    if files.is_empty() {
        fail("no scenario spec files found");
    }

    let mut failures = 0usize;
    let mut seen_names: std::collections::HashSet<String> = std::collections::HashSet::new();
    for file in &files {
        let outcome = load_spec(file).and_then(|spec| {
            spec.build()
                .map(|s| (spec, s))
                .map_err(|e| format!("{}: {e}", file.display()))
        });
        let (spec, scenario) = match outcome {
            Ok(built) => built,
            Err(e) => {
                eprintln!("FAIL {e}");
                failures += 1;
                continue;
            }
        };
        // Names key the per-scenario report files; a duplicate would silently
        // overwrite another scenario's JSON.
        if !seen_names.insert(scenario.name.clone()) {
            eprintln!(
                "FAIL {}: duplicate scenario name `{}`",
                file.display(),
                scenario.name
            );
            failures += 1;
            continue;
        }
        if check_only {
            println!(
                "ok {} ({} stations, {} events)",
                scenario.name,
                scenario.station_count(),
                spec.events.len()
            );
            continue;
        }
        if skip_over.is_some_and(|cap| scenario.station_count() > cap) {
            println!(
                "skip {} ({} stations > --skip-over cap)",
                scenario.name,
                scenario.station_count()
            );
            continue;
        }
        let adversary = train_for(&scenario);
        let start = std::time::Instant::now();
        match execute_scenario(&scenario, &adversary, scenario.executor) {
            Ok((report, stats)) => {
                let secs = start.elapsed().as_secs_f64().max(1e-9);
                let json = serde_json::to_string(&report).expect("reports always serialize");
                if let Err(e) = std::fs::create_dir_all(&out_dir) {
                    fail(&format!("{}: cannot create: {e}", out_dir.display()));
                }
                let out_path = out_dir.join(format!("{}.json", report.scenario));
                if let Err(e) = std::fs::write(&out_path, &json) {
                    fail(&format!("{}: cannot write: {e}", out_path.display()));
                }
                println!(
                    "ran {}: {} stations, {} packets, {} windows, identification {:.3}, \
                     mean overhead {:.2}% -> {}",
                    report.scenario,
                    report.stations,
                    report.packets,
                    report.windows,
                    report.identification_rate,
                    report.mean_overhead_pct,
                    out_path.display()
                );
                println!(
                    "    [{}: {} workers, {:.0} stations/s, {}]",
                    scenario.executor.name(),
                    stats.workers,
                    report.stations as f64 / secs,
                    schedule_summary(scenario.executor, &stats)
                );
            }
            Err(e) => {
                eprintln!("FAIL {}: {e}", scenario.name);
                failures += 1;
            }
        }
    }
    if failures > 0 {
        fail(&format!("{failures} scenario(s) failed"));
    }
}

/// The executor counters of a run, `n/a` where the executor does not
/// measure them: the pool has no event heap (no events, no coalescing
/// ratio) and no common clock (its `peak_active` is just the worker count).
fn schedule_summary(executor: Executor, stats: &ExecutorStats) -> String {
    match executor {
        Executor::Pooled => "peak_active n/a, events n/a, packets/event n/a".to_string(),
        Executor::VirtualTime { .. } => format!(
            "peak_active {}, {} events, {:.1} packets/event",
            stats.peak_active,
            stats.events_popped,
            stats.packets_per_event()
        ),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("scenario_run: {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_runs_print_unmeasured_counters_as_not_applicable() {
        let stats = ExecutorStats {
            workers: 2,
            admitted: 3,
            peak_active: 2,
            virtual_secs: 0.0,
            events_popped: 0,
            packets: 900,
        };
        let pooled = schedule_summary(Executor::Pooled, &stats);
        assert_eq!(pooled, "peak_active n/a, events n/a, packets/event n/a");
        let vtime = schedule_summary(
            Executor::VirtualTime {
                workers: Some(2),
                max_slice: None,
            },
            &ExecutorStats {
                events_popped: 6,
                ..stats
            },
        );
        assert_eq!(vtime, "peak_active 2, 6 events, 150.0 packets/event");
    }
}
