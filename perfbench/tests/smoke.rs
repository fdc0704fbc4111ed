//! Reduced-size smoke test of the benchmark: runs every workload of
//! `BENCHMARK.json` untraced and traced with `--smoke`, and checks that the
//! result line is well formed and carries every metric `BENCHMARK.json`
//! names, with its unit.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use serde::{Deserialize, Error, Value};
use std::path::PathBuf;
use std::process::Command;

/// Any JSON document, as the serde shim's value tree.
struct Doc(Value);

impl Deserialize for Doc {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Doc(v.clone()))
    }
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    let map = v
        .as_map()
        .unwrap_or_else(|| panic!("expected an object around {key}"));
    serde::value_get(map, key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn string(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        other => panic!("expected a number, found {other:?}"),
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    get(spec, section)
        .as_seq()
        .expect("metric sections are lists")
        .iter()
        .map(|m| {
            (
                string(get(m, "name")).to_string(),
                string(get(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let spec = serde_json::from_str::<Doc>(&text)
        .expect("BENCHMARK.json parses")
        .0;
    let workloads: Vec<String> = get(&spec, "workloads")
        .as_seq()
        .expect("workloads is a list")
        .iter()
        .map(|w| string(get(w, "name")).to_string())
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(repo_root())
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::from_str::<Doc>(last)
                .expect("the result line is JSON")
                .0;
            let keys: Vec<&str> = result
                .as_map()
                .expect("the result is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                get(&result, "correct"),
                &Value::Bool(true),
                "{workload}: {last}"
            );
            assert_eq!(number(get(&result, "failed")), 0.0);
            assert!(number(get(&result, "attempted")) >= 1.0);
            let metrics = get(&result, "metrics");
            let printed = metrics.as_map().expect("metrics is an object").len();
            let names = declared(&spec, section);
            assert_eq!(printed, names.len(), "{workload} trace {trace}: {last}");
            for (name, unit) in names {
                let metric = get(metrics, &name);
                assert_eq!(string(get(metric, "unit")), unit, "{workload}: {name}");
                assert!(
                    number(get(metric, "value")).is_finite(),
                    "{workload}: {name}"
                );
            }
        }
    }
}
