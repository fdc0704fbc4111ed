//! The repository benchmark: runs one workload warm for a fixed time and
//! prints its end-to-end metrics, or, traced, its per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <metropolis|prequential|long_haul|paper_tables> \
//!     [--seed <n>] --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Run it from the repository root (the workloads read the committed
//! `scenarios/*.toml`). The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the host, the inputs' sizes and the raw samples. A traced run
//! also writes its spans to `perfbench/out/spans-<workload>.csv`, replacing
//! the previous traced run's.
//! `--smoke` shrinks every workload to a few seconds (the smoke test).
//! `--memory-probe` is how an untraced run measures `peak_rss_mb`: the run
//! starts this executable again with it, and the probe sets the workload up,
//! runs it once and prints only its own peak resident memory.

mod measure;
mod stations;
mod tables;
mod trace;

use measure::Metrics;
use stations::StationWorkload;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("stations_per_s", "1/s"),
    ("packets_per_s", "1/s"),
    ("windows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("correct_share", "ratio"),
];

/// The per-layer metrics every traced run prints, with their units. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("traffic_gen.build_us", "us"),
    ("traffic_gen.pull_ns_per_pkt", "ns"),
    ("traffic_gen.busy_share", "ratio"),
    ("defenses.build_us", "us"),
    ("defenses.ns_per_pkt.none", "ns"),
    ("defenses.ns_per_pkt.padding", "ns"),
    ("defenses.ns_per_pkt.morphing", "ns"),
    ("defenses.ns_per_pkt.pseudonym", "ns"),
    ("defenses.ns_per_pkt.fh", "ns"),
    ("defenses.ns_per_pkt.or", "ns"),
    ("defenses.ns_per_pkt.morph_or", "ns"),
    ("defenses.out_per_in", "count"),
    ("defenses.busy_share", "ratio"),
    ("classifier.windower.ns_per_pkt", "ns"),
    ("classifier.windower.pkts_per_window", "count"),
    ("classifier.windower.busy_share", "ratio"),
    ("classifier.scorer.us_per_window", "us"),
    ("classifier.scorer.rows_per_call", "count"),
    ("classifier.scorer.fork_us", "us"),
    ("classifier.scorer.busy_share", "ratio"),
    ("classifier.train_s", "s"),
    ("scenario.compile_ms", "ms"),
    ("streaming.station_us_p50", "us"),
    ("streaming.station_us_tail", "us"),
    ("streaming.station_tail_pct", "%"),
    ("streaming.station_samples", "count"),
    ("streaming.worker_busy_share", "ratio"),
    ("streaming.scorer_share", "ratio"),
    ("streaming.events_popped", "count"),
    ("streaming.packets_per_event", "count"),
    ("streaming.peak_active", "count"),
    ("streaming.unattributed_share", "ratio"),
    ("pipeline.corpus_s", "s"),
    ("pipeline.evaluate_s", "s"),
    ("tables.table2_s", "s"),
    ("tables.table3_s", "s"),
    ("tables.table4_s", "s"),
    ("tables.table5_s", "s"),
    ("tables.table6_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// The workload seed when `--seed` is not given (every figure quoted in
/// `perfbench/README.md` is from this seed unless it says otherwise).
pub const DEFAULT_SEED: u64 = 1;

/// One workload run's outcome.
pub struct Run {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Extra JSON fields for the context line (sizes, raw samples).
    context: String,
}

/// Share of operations that matched their reference.
pub fn correct_share(attempted: u64, failed: u64) -> f64 {
    1.0 - failed as f64 / attempted.max(1) as f64
}

/// Where a traced run writes its spans (one file per workload, so repeated
/// traced runs do not pile up span dumps).
pub fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(format!("perfbench/out/spans-{workload}.csv"))
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    memory_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut memory_probe = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--memory-probe" => memory_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: match seconds {
            Some(s) => s,
            None if memory_probe => 0.0,
            None => return Err("--seconds is required".to_string()),
        },
        traced,
        smoke,
        memory_probe,
    })
}

fn run(args: &Args) -> Result<Run, String> {
    let station = |w| stations::run(w, args.seed, args.seconds, args.traced, args.smoke);
    match args.workload.as_str() {
        "metropolis" => station(StationWorkload::Metropolis),
        "prequential" => station(StationWorkload::Prequential),
        "long_haul" => station(StationWorkload::LongHaul),
        "paper_tables" => tables::run(args.seed, args.seconds, args.traced, args.smoke),
        other => Err(format!("unknown workload {other}")),
    }
}

/// One set-up and one run of the workload, for [`measure::probe_peak_rss_mb`].
fn memory_probe(args: &Args) -> Result<(), String> {
    let station = |w| stations::probe(w, args.seed, args.smoke);
    match args.workload.as_str() {
        "metropolis" => station(StationWorkload::Metropolis),
        "prequential" => station(StationWorkload::Prequential),
        "long_haul" => station(StationWorkload::LongHaul),
        "paper_tables" => {
            tables::probe(args.seed, args.smoke);
            Ok(())
        }
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.memory_probe {
        return match memory_probe(&args) {
            Ok(()) => {
                println!("{}", measure::peak_rss_mb());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: memory probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = run(&args).and_then(|run| {
        let schema: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
        Ok((
            run.metrics.conform(schema)?,
            run.attempted,
            run.failed,
            run.context,
        ))
    });
    match outcome {
        Ok((metrics, attempted, failed, context)) => {
            println!(
                "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, {context}}}",
                measure::json_str(&args.workload),
                args.seed,
                args.seconds,
                u8::from(args.traced),
                measure::host_fingerprint(),
            );
            println!("{}", metrics.result_line(attempted, failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
