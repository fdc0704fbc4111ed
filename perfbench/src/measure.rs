//! Measurement plumbing shared by every workload: sample statistics, the
//! per-run peak-memory mark, the host fingerprint and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `samples` (mean of the middle pair for an even count; 0 when
/// empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `q` (0..=1) of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, as `(percentile in %, value)`; the median when the
/// sample is too small for any of them.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let p = [0.9999, 0.999, 0.99, 0.95, 0.9, 0.8, 0.75]
        .into_iter()
        .find(|p| n * (1.0 - p) >= 10.0)
        .unwrap_or(0.5);
    (p * 100.0, quantile(samples, p))
}

/// Whether to set up once more, after `done` repetitions begun at `start`:
/// at least [`SETUP_MIN_REPS`], then until [`SETUP_MIN_SECS`] have passed,
/// at most [`SETUP_MAX_REPS`]. `setup_s` is the repetitions' median.
pub fn more_setup(done: usize, start: Instant) -> bool {
    done < SETUP_MIN_REPS || (done < SETUP_MAX_REPS && secs_since(start) < SETUP_MIN_SECS)
}

const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_SECS: f64 = 1.0;

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB (0
/// where procfs is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of one run of `workload`, in MiB: the median over
/// [`MEMORY_PROBES`] fresh child processes (this executable with
/// `--memory-probe`), so nothing this process did before — set-up
/// repetitions, the reference, warm and timed iterations — shares a probe's
/// heap. The median drops the occasional probe whose threads happened to
/// spread their allocations over an extra allocator arena. Waits for each
/// child.
pub fn probe_peak_rss_mb(workload: &str, seed: u64, smoke: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("memory probe: {e}"))?;
    let mut peaks = Vec::with_capacity(MEMORY_PROBES);
    for _ in 0..MEMORY_PROBES {
        let mut probe = std::process::Command::new(&exe);
        probe.args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--memory-probe",
        ]);
        if smoke {
            probe.arg("--smoke");
        }
        let out = probe.output().map_err(|e| format!("memory probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "memory probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let peak = String::from_utf8_lossy(&out.stdout)
            .lines()
            .last()
            .and_then(|line| line.trim().parse().ok())
            .ok_or_else(|| "memory probe printed no peak".to_string())?;
        peaks.push(peak);
    }
    Ok(median(&peaks))
}

/// Probe processes per `peak_rss_mb` reading.
const MEMORY_PROBES: usize = 3;

/// The machine's available parallelism — the executors' worker cap.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// CPU model, parallelism and source revision, as one JSON object.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cpu\": {}, \"nproc\": {}, \"git_rev\": {}}}",
        json_str(&cpu),
        nproc(),
        json_str(&git_rev())
    )
}

/// The checked-out commit, read from `.git` without spawning git ("unknown"
/// outside a git checkout).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v` with every digit Rust's shortest round-trip form
/// gives it (non-finite values, which JSON cannot carry, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The metrics one run reports, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    /// Adds metric `name` in `unit`.
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push((name, unit, value));
    }

    /// The metrics reordered to `schema`, with 0 for every schema metric
    /// this run did not measure; a metric outside the schema, or in another
    /// unit, is an error.
    pub fn conform(self, schema: &[(&'static str, &'static str)]) -> Result<Metrics, String> {
        for (name, unit, _) in &self.0 {
            match schema.iter().find(|(n, _)| n == name) {
                None => return Err(format!("metric {name} is not in the schema")),
                Some((_, u)) if u != unit => {
                    return Err(format!("metric {name} is in {unit}, the schema says {u}"))
                }
                Some(_) => {}
            }
        }
        Ok(Metrics(
            schema
                .iter()
                .map(|&(name, unit)| {
                    let value = self.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2);
                    (name, unit, value)
                })
                .collect(),
        ))
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            failed == 0,
            attempted.max(1),
            failed,
            metrics.join(", ")
        )
    }
}

/// Splitmix64 of `seed` mixed with a stream tag: every seed the program
/// receives derives from the workload seed through this.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 99.0);
        let small: Vec<f64> = (0..56).map(f64::from).collect();
        assert_eq!(tail(&small).0, 80.0);
        assert_eq!(tail(&[1.0, 2.0]).0, 50.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("run_s", "s", 1.25);
        assert_eq!(
            m.result_line(3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
