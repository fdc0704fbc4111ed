//! The `paper_tables` workload: the `paper`-preset runners of Tables II–VI
//! in `bench::tables`, with the configuration seeds derived from the
//! workload seed, checked cell by cell against a reference computed through
//! `pipeline::defended_examples` and `AdversaryEnsemble::evaluate_best`
//! instead of the runners' sharded `evaluate_defense`.

use crate::measure::{self, derive_seed, median, secs_since, Metrics};
use crate::Run;
use bench::corpus::ExperimentConfig;
use bench::pipeline::{defended_examples, evaluate_defense, train_adversary};
use bench::tables::{
    table2, table3, table4, table5, table6, AccuracyTable, EfficiencyTable, FalsePositiveTable,
};
use bench::DefenseKind;
use classifier::ensemble::AdversaryEnsemble;
use classifier::features::FEATURE_DIM;
use classifier::window::FeatureMode;
use classifier::{ConfusionMatrix, Dataset};
use std::time::Instant;
use traffic_gen::app::AppKind;
use traffic_gen::trace::Trace;

/// Table V's interface counts, as the `experiments` binary runs it.
const TABLE5_INTERFACES: [usize; 3] = [2, 3, 5];
/// Defense evaluations one pass of the runners makes: Table II and III five
/// each, Table IV two per window, Table V three, Table VI two.
const EVALUATIONS: u64 = 5 + 5 + 2 + 2 + 3 + 2;

/// The `W = 5 s` and `W = 60 s` configurations, seeded from the workload
/// seed (`smoke` swaps in the `quick` preset).
fn configs(seed: u64, smoke: bool) -> (ExperimentConfig, ExperimentConfig) {
    let base = if smoke {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper(5.0)
    };
    let c5 = ExperimentConfig {
        train_seed: derive_seed(seed, 11),
        eval_seed: derive_seed(seed, 12),
        window_secs: 5.0,
        ..base
    };
    let c60 = ExperimentConfig {
        window_secs: if smoke { 20.0 } else { 60.0 },
        ..c5
    };
    (c5, c60)
}

/// One pass of the runners, in the `experiments` binary's order.
struct Tables {
    t2: AccuracyTable,
    t3: AccuracyTable,
    t4: [FalsePositiveTable; 2],
    t5: AccuracyTable,
    t6: EfficiencyTable,
}

/// Runs Tables II–VI, adding each runner's seconds to `secs` (Table IV's
/// two windows share a slot).
fn run_tables(c5: &ExperimentConfig, c60: &ExperimentConfig, secs: &mut [f64; 5]) -> Tables {
    let mut timed = |slot: usize, start: Instant| secs[slot] += secs_since(start);
    let start = Instant::now();
    let t2 = table2(c5);
    timed(0, start);
    let start = Instant::now();
    let t3 = table3(c60);
    timed(1, start);
    let start = Instant::now();
    let t4 = [table4(c5), table4(c60)];
    timed(2, start);
    let start = Instant::now();
    let t5 = table5(c5, &TABLE5_INTERFACES);
    timed(3, start);
    let start = Instant::now();
    let t6 = table6(c5);
    timed(4, start);
    Tables { t2, t3, t4, t5, t6 }
}

/// Every numeric cell of a pass, rows then the mean row, table by table.
fn cells(t: &Tables) -> Vec<f64> {
    let mut out = Vec::new();
    for table in [&t.t2, &t.t3] {
        accuracy_cells(table, &mut out);
    }
    for table in &t.t4 {
        for &(_, original, reshaped) in &table.rows {
            out.extend([original, reshaped]);
        }
        out.extend([table.mean.0, table.mean.1]);
    }
    accuracy_cells(&t.t5, &mut out);
    for row in &t.t6.rows {
        out.extend([
            row.accuracy_padding_morphing,
            row.accuracy_reshaping,
            row.padding_overhead,
            row.morphing_overhead,
        ]);
    }
    let m = t.t6.mean;
    out.extend([m.0, m.1, m.2, m.3]);
    out
}

fn accuracy_cells(table: &AccuracyTable, out: &mut Vec<f64>) {
    for (_, accs) in &table.rows {
        out.extend(accs);
    }
    out.extend(&table.mean);
}

/// A defense's confusion matrix the reference way: every evaluation trace
/// through `defended_examples` on this thread (with the seeds
/// `evaluate_defense` gives its shards), then one `evaluate_best`. Returns
/// the matrix and the number of windows scored.
fn reference_matrix(
    adversary: &AdversaryEnsemble,
    eval: &[Trace],
    defense: DefenseKind,
    config: &ExperimentConfig,
    mode: FeatureMode,
) -> (ConfusionMatrix, u64) {
    let mut dataset = Dataset::new(FEATURE_DIM);
    for (i, trace) in eval.iter().enumerate() {
        let seed = config.eval_seed ^ ((i as u64) << 8);
        for (features, label) in defended_examples(trace, defense, config, seed, mode) {
            dataset.push(features, label);
        }
    }
    let windows = dataset.len() as u64;
    if dataset.is_empty() {
        return (ConfusionMatrix::new(AppKind::COUNT), 0);
    }
    let (_, matrix) = adversary.evaluate_best(&dataset);
    (matrix.widen_to(AppKind::COUNT), windows)
}

/// What a correct pass must produce: every cell (`None` where no second
/// path exists — Table VI's overheads, taken from the warm-up pass), and the
/// work one pass does.
struct Reference {
    cells: Vec<Option<f64>>,
    sessions: u64,
    packets: u64,
    windows: u64,
}

fn accuracy_reference(matrices: &[&ConfusionMatrix], out: &mut Vec<Option<f64>>) {
    for app in AppKind::ALL {
        out.extend(
            matrices
                .iter()
                .map(|m| Some(m.class_accuracy(app.class_index()))),
        );
    }
    out.extend(matrices.iter().map(|m| Some(m.mean_accuracy())));
}

fn false_positive_reference(
    original: &ConfusionMatrix,
    reshaped: &ConfusionMatrix,
    out: &mut Vec<Option<f64>>,
) {
    let rows: Vec<(f64, f64)> = AppKind::ALL
        .iter()
        .map(|app| {
            (
                original.false_positive_rate(app.class_index()),
                reshaped.false_positive_rate(app.class_index()),
            )
        })
        .collect();
    for &(o, r) in &rows {
        out.extend([Some(o), Some(r)]);
    }
    let n = rows.len() as f64;
    out.push(Some(rows.iter().map(|r| r.0).sum::<f64>() / n));
    out.push(Some(rows.iter().map(|r| r.1).sum::<f64>() / n));
}

impl Reference {
    fn new(
        c5: &ExperimentConfig,
        c60: &ExperimentConfig,
        adv5: &AdversaryEnsemble,
        eval: &[Trace],
    ) -> Self {
        let adv60 = train_adversary(c60, FeatureMode::Full);
        let timing = train_adversary(c5, FeatureMode::TimingOnly);
        let table23 = DefenseKind::TABLE23;
        let at = |kind| {
            table23
                .iter()
                .position(|d| *d == kind)
                .expect("Tables II/III include the defense")
        };
        let (none, or) = (at(DefenseKind::None), at(DefenseKind::Orthogonal));
        let full = |adv: &AdversaryEnsemble, config: &ExperimentConfig, defense| {
            reference_matrix(adv, eval, defense, config, FeatureMode::Full)
        };
        let m5: Vec<_> = table23.iter().map(|&d| full(adv5, c5, d)).collect();
        let m60: Vec<_> = table23.iter().map(|&d| full(&adv60, c60, d)).collect();
        let m5i: Vec<_> = TABLE5_INTERFACES
            .iter()
            .map(|&interfaces| {
                if interfaces == c5.interfaces {
                    m5[or].clone()
                } else {
                    let config = ExperimentConfig { interfaces, ..*c5 };
                    full(adv5, &config, DefenseKind::Orthogonal)
                }
            })
            .collect();
        let padded = reference_matrix(
            &timing,
            eval,
            DefenseKind::Padding,
            c5,
            FeatureMode::TimingOnly,
        );

        let mut cells = Vec::new();
        accuracy_reference(&m5.iter().map(|m| &m.0).collect::<Vec<_>>(), &mut cells);
        accuracy_reference(&m60.iter().map(|m| &m.0).collect::<Vec<_>>(), &mut cells);
        false_positive_reference(&m5[none].0, &m5[or].0, &mut cells);
        false_positive_reference(&m60[none].0, &m60[or].0, &mut cells);
        accuracy_reference(&m5i.iter().map(|m| &m.0).collect::<Vec<_>>(), &mut cells);
        let rows: Vec<(f64, f64)> = AppKind::ALL
            .iter()
            .map(|app| {
                (
                    padded.0.class_accuracy(app.class_index()),
                    m5[or].0.class_accuracy(app.class_index()),
                )
            })
            .collect();
        for &(pm, r) in &rows {
            cells.extend([Some(pm), Some(r), None, None]);
        }
        let n = rows.len() as f64;
        cells.extend([
            Some(rows.iter().map(|r| r.0).sum::<f64>() / n),
            Some(rows.iter().map(|r| r.1).sum::<f64>() / n),
            None,
            None,
        ]);

        let windows = m5.iter().chain(&m60).chain(&m5i).map(|m| m.1).sum::<u64>()
            + m5[none].1
            + m5[or].1
            + m60[none].1
            + m60[or].1
            + padded.1
            + m5[or].1;
        Reference {
            cells,
            sessions: EVALUATIONS * eval.len() as u64,
            packets: EVALUATIONS * eval.iter().map(|t| t.len() as u64).sum::<u64>(),
            windows,
        }
    }

    /// Cells of `pass` that differ from the reference; the first call fills
    /// the cells that have no second path.
    fn failures(&mut self, pass: &[f64]) -> u64 {
        if pass.len() != self.cells.len() {
            return self.cells.len() as u64;
        }
        let mut failed = 0;
        for (want, &got) in self.cells.iter_mut().zip(pass) {
            match want {
                Some(want) => failed += u64::from(want.to_bits() != got.to_bits()),
                None => *want = Some(got),
            }
        }
        failed
    }
}

/// The memory probe's body: one pass of the runners, which generate and
/// train everything they use.
pub fn probe(seed: u64, smoke: bool) {
    let (c5, c60) = configs(seed, smoke);
    run_tables(&c5, &c60, &mut [0.0; 5]);
}

/// Runs the `paper_tables` workload for `seconds` and reports its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool, smoke: bool) -> Result<Run, String> {
    let (c5, c60) = configs(seed, smoke);
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut prepared = None;
    let setup_start = Instant::now();
    while measure::more_setup(setup_s.len(), setup_start) {
        let start = Instant::now();
        let eval = c5.evaluation_corpus();
        let train_start = Instant::now();
        let adv5 = train_adversary(&c5, FeatureMode::Full);
        train_s.push(secs_since(train_start));
        setup_s.push(secs_since(start));
        prepared = Some((eval, adv5));
    }
    let (eval, adv5) = prepared.expect("at least one set-up repetition");
    let mut reference = Reference::new(&c5, &c60, &adv5, &eval);
    let ops = reference.cells.len() as u64;

    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Untimed warm-up pass; it also supplies the Table VI overhead cells.
    let warm = run_tables(&c5, &c60, &mut [0.0; 5]);
    attempted += ops;
    failed += reference.failures(&cells(&warm));
    drop(warm);

    let mut run_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut per_runner: Vec<[f64; 5]> = Vec::new();
    let start = Instant::now();
    while run_s.is_empty() || secs_since(start) < seconds {
        let pass_start = Instant::now();
        let pass = run_tables(&c5, &c60, &mut [0.0; 5]);
        run_s.push(secs_since(pass_start));
        attempted += ops;
        failed += reference.failures(&cells(&pass));
        if traced {
            let mut secs = [0.0; 5];
            let pass = run_tables(&c5, &c60, &mut secs);
            traced_s.push(secs.iter().sum());
            per_runner.push(secs);
            attempted += ops;
            failed += reference.failures(&cells(&pass));
        }
    }
    let run_median = median(&run_s);

    let mut metrics = Metrics::default();
    if traced {
        let start = Instant::now();
        let _ = (c5.training_corpus(), c5.evaluation_corpus());
        metrics.put("pipeline.corpus_s", "s", secs_since(start));
        let start = Instant::now();
        let matrices: Vec<ConfusionMatrix> = DefenseKind::TABLE23
            .iter()
            .map(|&d| evaluate_defense(&adv5, &eval, d, &c5, FeatureMode::Full))
            .collect();
        metrics.put("pipeline.evaluate_s", "s", secs_since(start));
        // Table II's cells are these matrices' accuracies.
        let mut table2_cells = Vec::new();
        accuracy_reference(&matrices.iter().collect::<Vec<_>>(), &mut table2_cells);
        attempted += table2_cells.len() as u64;
        failed += table2_cells
            .iter()
            .zip(&reference.cells)
            .filter(|(got, want)| got.map(f64::to_bits) != want.map(f64::to_bits))
            .count() as u64;
        metrics.put("classifier.train_s", "s", median(&train_s));
        for (slot, name) in [
            "tables.table2_s",
            "tables.table3_s",
            "tables.table4_s",
            "tables.table5_s",
            "tables.table6_s",
        ]
        .into_iter()
        .enumerate()
        {
            let samples: Vec<f64> = per_runner.iter().map(|s| s[slot]).collect();
            metrics.put(name, "s", median(&samples));
        }
        metrics.put(
            "trace.overhead_pct",
            "%",
            (median(&traced_s) / run_median - 1.0) * 100.0,
        );
    } else {
        metrics.put("setup_s", "s", median(&setup_s));
        metrics.put("run_s", "s", run_median);
        metrics.put(
            "stations_per_s",
            "1/s",
            reference.sessions as f64 / run_median,
        );
        metrics.put(
            "packets_per_s",
            "1/s",
            reference.packets as f64 / run_median,
        );
        metrics.put(
            "windows_per_s",
            "1/s",
            reference.windows as f64 / run_median,
        );
        metrics.put(
            "peak_rss_mb",
            "MB",
            measure::probe_peak_rss_mb("paper_tables", seed, smoke)?,
        );
        metrics.put(
            "correct_share",
            "ratio",
            crate::correct_share(attempted, failed),
        );
    }
    let context = format!(
        "\"sessions\": {}, \"packets\": {}, \"windows\": {}, \"cells\": {}, \"iterations\": {}, \"run_s_samples\": {:?}, \"setup_s_samples\": {:?}",
        reference.sessions,
        reference.packets,
        reference.windows,
        ops,
        run_s.len(),
        run_s,
        setup_s,
    );
    Ok(Run {
        metrics,
        attempted,
        failed,
        context,
    })
}
