//! Golden tables: the paper's table runners, at the `experiments quick`
//! settings, must reproduce their recorded JSON byte for byte.
//!
//! `tests/golden/tables_quick.json` holds one `serde_json::to_string` line
//! per runner, in this order: Table II (W = 5 s), Table III (W = 20 s),
//! Table IV at W = 5 s and at W = 20 s, Table V over I = 2, 3, 5, Table VI,
//! the scheduler ablation, the interface-count ablation over I = 1..=5 and
//! the §V-C combined defense. Every accuracy, false-positive rate and
//! overhead the tables print is in there, so any change to the evaluation
//! path (defense stages, windowing, scoring, member selection) that moves
//! one cell fails here.
//!
//! Regenerate (only for an intended behaviour change) with
//! `cargo test -p bench --test table_goldens -- --ignored write_table_goldens`.

use bench::ablation::{interface_count_ablation, scheduler_ablation};
use bench::tables::{combined_defense, table2, table3, table4, table5, table6};
use bench::ExperimentConfig;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tables_quick.json")
}

/// Every quick-preset table, one JSON document per line.
fn quick_tables() -> String {
    let w5 = ExperimentConfig::quick();
    let w20 = ExperimentConfig {
        window_secs: 20.0,
        ..ExperimentConfig::quick()
    };
    let lines = [
        json(&table2(&w5)),
        json(&table3(&w20)),
        json(&table4(&w5)),
        json(&table4(&w20)),
        json(&table5(&w5, &[2, 3, 5])),
        json(&table6(&w5)),
        json(&scheduler_ablation(&w5)),
        json(&interface_count_ablation(&w5, &[1, 2, 3, 4, 5])),
        json(&combined_defense(&w5)),
    ];
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn json(table: &impl serde::Serialize) -> String {
    serde_json::to_string(table).expect("tables always serialize")
}

#[test]
fn quick_tables_match_their_golden_file() {
    let path = golden_path();
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let got = quick_tables();
    for (i, (got, want)) in got.lines().zip(golden.lines()).enumerate() {
        assert!(
            got == want,
            "line {} of {} differs\n  got:    {got}\n  golden: {want}",
            i + 1,
            path.display()
        );
    }
    assert!(got == golden, "{}: line count differs", path.display());
}

#[test]
#[ignore = "writes the golden file; run only for an intended behaviour change"]
fn write_table_goldens() {
    let path = golden_path();
    std::fs::write(&path, quick_tables()).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}
