//! Spec-driven experiment engine: one entry point behind every paper
//! artifact and the `swim` CLI.
//!
//! [`run_spec`] takes a validated [`ExperimentSpec`], runs the
//! experiment it describes, prints its human-readable tables, and
//! returns (optionally writing to `--out`) a typed results document
//! ([`swim_report::ResultsDoc`]):
//! the spec echo, seed, per-method accuracy-vs-NWC curves, every
//! rendered table, and wall time. Emission goes through the same schema
//! structs that `swim diff` / `swim report` parse back, so the write
//! path and the read path cannot drift apart; sweeps thereby become
//! diffable artifacts instead of terminal scrollback.

use crate::cli::{tuning_from_flags, Args};
use crate::driver::{run_methods, DriverConfig, MethodCurves};
use crate::prep::{prepare_with_model, PrepConfig, Prepared, Scenario, Trained, TrainedCache};
use crate::speedup::nwc_to_reach;
use swim_cim::model::device_model_by_name;
use swim_core::montecarlo::SweepPoint;
use swim_core::report::{fmt_mean_std, Table};
use swim_core::select::SwimNoTieBreakSelector;
use swim_core::sensitivity::{correlation_study, CorrelationConfig};
use swim_exp::spec::{ExperimentKind, ExperimentSpec};
use swim_nn::loss::SoftmaxCrossEntropy;
use swim_report::io::write_atomic;
use swim_report::schema::{
    merge_provenance, BlockKey, Correlations, CurvePoint, FaultDoc, InsituPoint, MethodCurveDoc,
    Provenance, RawMethodDoc, RawSweepDoc, ResultsDoc, SweepDoc,
};
use swim_tensor::simd;
use swim_tensor::tune;
use swim_tensor::Prng;

/// Output options orthogonal to the experiment description.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Also print CSV blocks (`--csv`).
    pub csv: bool,
    /// Write the JSON results document here.
    pub out: Option<std::path::PathBuf>,
    /// The kernel configuration (from [`tuning_from_flags`]), which
    /// [`run_spec`] installs — timing-only, never affects result bytes.
    pub tuning: tune::KernelTuning,
    /// Write a checkpoint journal here after every completed block.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Resume from this checkpoint journal (and keep checkpointing to it
    /// unless `checkpoint` points elsewhere).
    pub resume: Option<std::path::PathBuf>,
    /// Refuse a spec whose `run.simd` pin differs from the process's
    /// active backend instead of switching to it — for long-lived hosts
    /// that assume one backend for the process lifetime (the `swim
    /// serve` engine applies the same check via its `validate` hook).
    pub pin_backend: bool,
}

/// Accumulates the typed results alongside the printed output.
pub(crate) struct Collector {
    tables: Vec<Table>,
    sweeps: Vec<SweepDoc>,
    correlations: Option<Correlations>,
    faults: Vec<FaultDoc>,
    /// `(model, sigma)` blocks finished so far, in grid order —
    /// preseeded on `--resume`, journaled after every block.
    completed: Vec<BlockKey>,
    /// Checkpoint journal path, when checkpointing is on.
    journal: Option<std::path::PathBuf>,
    /// Blocks *this process* finished (excludes resumed ones) — drives
    /// the kill-mid-sweep test hook.
    blocks_this_run: usize,
    /// Suppress terminal output (the `swim merge` replay path).
    quiet: bool,
}

impl Collector {
    fn new() -> Self {
        Collector {
            tables: Vec::new(),
            sweeps: Vec::new(),
            correlations: None,
            faults: Vec::new(),
            completed: Vec::new(),
            journal: None,
            blocks_this_run: 0,
            quiet: false,
        }
    }

    pub(crate) fn quiet() -> Self {
        Collector { quiet: true, ..Collector::new() }
    }

    /// Prints a table (unless quiet) and records it in the results
    /// document.
    fn show(&mut self, table: &Table) {
        if !self.quiet {
            println!("{}", table.render());
        }
        self.tables.push(table.clone());
    }

    /// Whether a `(model, sigma)` block was already completed (resumed
    /// from a checkpoint journal).
    fn block_done(&self, model: &str, sigma: f64) -> bool {
        self.completed.iter().any(|b| b.device_model == model && b.sigma == sigma)
    }

    /// Marks a block complete and, when checkpointing, journals the
    /// whole state so far to the checkpoint path (atomically — a crash
    /// between blocks never leaves a truncated journal).
    fn finish_block(
        &mut self,
        spec: &ExperimentSpec,
        model: &str,
        sigma: f64,
    ) -> Result<(), String> {
        self.completed.push(BlockKey { device_model: model.to_string(), sigma });
        self.blocks_this_run += 1;
        if let Some(path) = self.journal.clone() {
            let mut doc = ResultsDoc::new(spec.clone(), 0.0);
            doc.sweeps = self.sweeps.clone();
            doc.correlations = self.correlations;
            doc.tables = self.tables.clone();
            doc.faults = self.faults.clone();
            doc.completed = Some(self.completed.clone());
            write_atomic(&path, doc.to_json().as_bytes())?;
            if !self.quiet {
                eprintln!(
                    "[swim] checkpointed {} block(s) to {}",
                    self.completed.len(),
                    path.display()
                );
            }
            // Kill-mid-sweep test hook: die (uncleanly, as far as the
            // engine is concerned) right after the k-th checkpoint of
            // this process, so an integration test can resume from a
            // journal produced by a genuine partial run.
            if let Ok(k) = std::env::var("SWIM_TEST_ABORT_AFTER_BLOCKS") {
                if k.parse::<usize>() == Ok(self.blocks_this_run) {
                    eprintln!("[swim] SWIM_TEST_ABORT_AFTER_BLOCKS={k}: aborting");
                    std::process::exit(3);
                }
            }
        }
        Ok(())
    }
}

fn point_doc(p: &SweepPoint) -> CurvePoint {
    CurvePoint {
        fraction: p.fraction,
        nwc: p.nwc,
        accuracy_mean: p.accuracy.mean(),
        accuracy_std: p.accuracy.std(),
        accuracy_min: p.accuracy_min,
        accuracy_p05: p.accuracy_p05,
    }
}

/// One (device model, sigma) block of a sweep-kind experiment as a
/// typed schema record. `with_raw` attaches the per-run matrices (shard
/// documents and checkpoint journals of sharded runs — the mergeable
/// form); final unsharded documents omit them.
fn sweep_record(
    device_model: &str,
    sigma: f64,
    float_acc: f64,
    quant_acc: f64,
    curves: &MethodCurves,
    with_raw: bool,
) -> SweepDoc {
    let raw = with_raw.then(|| RawSweepDoc {
        methods: curves
            .methods
            .iter()
            .map(|m| RawMethodDoc {
                name: m.name.clone(),
                rows: if m.points.is_empty() {
                    Vec::new()
                } else {
                    m.raw.chunks(m.points.len()).map(|row| row.to_vec()).collect()
                },
            })
            .collect(),
        insitu_runs: curves.insitu_raw.clone(),
    });
    SweepDoc {
        device_model: device_model.to_string(),
        sigma,
        float_accuracy: float_acc,
        quant_accuracy: quant_acc,
        methods: curves
            .methods
            .iter()
            .map(|m| MethodCurveDoc {
                name: m.name.clone(),
                points: m.points.iter().map(point_doc).collect(),
            })
            .collect(),
        insitu: curves
            .insitu
            .iter()
            .map(|p| InsituPoint {
                nwc: p.nwc,
                accuracy_mean: p.accuracy.mean(),
                accuracy_std: p.accuracy.std(),
            })
            .collect(),
        raw,
    }
}

/// Records one finished block in the collector: the typed sweep record
/// plus any isolated run faults, tagged with the block's coordinates.
fn record_block(
    spec: &ExperimentSpec,
    collector: &mut Collector,
    model_name: &str,
    sigma: f64,
    float_acc: f64,
    quant_acc: f64,
    curves: &MethodCurves,
) {
    collector.sweeps.push(sweep_record(
        model_name,
        sigma,
        float_acc,
        quant_acc,
        curves,
        spec.run.shard.is_some(),
    ));
    for m in &curves.methods {
        for f in &m.faults {
            collector.faults.push(FaultDoc {
                device_model: model_name.to_string(),
                sigma,
                method: m.name.clone(),
                run: f.run,
                seed: spec.seed,
                message: f.message.clone(),
            });
        }
    }
}

/// Assembles the typed results document shared by every kind.
pub(crate) fn results_document(
    spec: &ExperimentSpec,
    collector: Collector,
    wall_time_s: f64,
) -> ResultsDoc {
    let mut doc = ResultsDoc::new(spec.clone(), wall_time_s);
    doc.sweeps = collector.sweeps;
    doc.correlations = collector.correlations;
    doc.tables = collector.tables;
    doc.faults = collector.faults;
    doc
}

/// Preseeds the collector from a checkpoint journal: validates the
/// journal against the spec about to run, then adopts its completed
/// blocks wholesale so the engine re-enters at the first incomplete one.
fn resume_into(
    collector: &mut Collector,
    spec: &ExperimentSpec,
    path: &std::path::Path,
) -> Result<(), String> {
    let doc = ResultsDoc::load(path).map_err(|e| e.to_string())?;
    if doc.spec != *spec {
        return Err(format!(
            "{}: checkpoint journal was produced by a different experiment than the one being \
             resumed (spec echoes differ)",
            path.display()
        ));
    }
    // Resuming merges the journal with this process's continuation, so
    // it follows the provenance merge rule (one SIMD backend).
    let label = path.display().to_string();
    merge_provenance(&[(&label, &doc.provenance), ("this process", &Provenance::capture())])
        .map_err(|e| format!("cannot resume the checkpoint journal: {e}"))?;
    let Some(completed) = doc.completed else {
        return Err(format!(
            "{}: not a checkpoint journal (no `completed` block list — this looks like a \
             finished results document)",
            path.display()
        ));
    };
    let grid = model_sigma_grid(spec);
    for b in &completed {
        if !grid.iter().any(|(m, s)| *m == b.device_model && *s == b.sigma) {
            return Err(format!(
                "{}: checkpointed block ({}, sigma={}) is not in this spec's grid",
                path.display(),
                b.device_model,
                b.sigma
            ));
        }
    }
    eprintln!(
        "[swim] resuming from {}: {} of {} block(s) already complete",
        path.display(),
        completed.len(),
        grid.len()
    );
    collector.tables = doc.tables;
    collector.sweeps = doc.sweeps;
    collector.correlations = doc.correlations;
    collector.faults = doc.faults;
    collector.completed = completed;
    Ok(())
}

/// Runs a validated spec end to end.
///
/// Prints the artifact's human-readable output, writes the JSON results
/// document to `opts.out` when set (atomically — a crash never leaves a
/// truncated document), and returns the typed document.
pub fn run_spec(spec: &ExperimentSpec, opts: &RunOptions) -> Result<ResultsDoc, String> {
    run_spec_with(spec, opts, &TrainedCache::default())
}

/// [`run_spec`] drawing the grid kinds' trained stage from `cache`.
fn run_spec_with(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    cache: &TrainedCache,
) -> Result<ResultsDoc, String> {
    spec.validate().map_err(|e| e.to_string())?;
    // Pinned hosts verify the spec agrees with the process's backend;
    // otherwise the spec's `run.simd` is switched to and the kernel
    // configuration is installed once for the whole run. The kernel
    // configuration is timing-only — result bytes are identical under
    // every value.
    if opts.pin_backend {
        check_provenance_pinned(spec)?;
    } else {
        if let Some(requested) = &spec.run.simd {
            let backend =
                simd::Backend::parse(requested).expect("validated spec has a known SIMD backend");
            simd::set_backend(backend).map_err(|e| format!("run.simd: {e}"))?;
        }
        tune::install(&opts.tuning);
    }
    let grid_kind =
        matches!(spec.kind, ExperimentKind::Table1 | ExperimentKind::Fig2 | ExperimentKind::Sweep);
    if (opts.checkpoint.is_some() || opts.resume.is_some()) && !grid_kind {
        return Err(format!(
            "--checkpoint/--resume apply to block-structured kinds (table1, fig2, sweep), \
             not `{}`",
            spec.kind.key()
        ));
    }
    let t0 = std::time::Instant::now();
    let mut collector = Collector::new();
    collector.journal = opts.checkpoint.clone().or_else(|| opts.resume.clone());
    if let Some(path) = &opts.resume {
        resume_into(&mut collector, spec, path)?;
    }
    match spec.kind {
        ExperimentKind::Table1 => run_table1(spec, opts, cache, &mut collector)?,
        ExperimentKind::Fig2 => run_fig2(spec, opts, cache, &mut collector)?,
        ExperimentKind::Sweep => run_generic_sweep(spec, opts, cache, &mut collector)?,
        ExperimentKind::Fig1 => run_fig1(spec, opts, &mut collector),
        ExperimentKind::Calibration => run_calibration(spec, opts, &mut collector),
        ExperimentKind::Ablation => run_ablation(spec, opts, &mut collector),
    }
    let doc = results_document(spec, collector, t0.elapsed().as_secs_f64());
    if let Some(path) = &opts.out {
        write_atomic(path, doc.to_json().as_bytes())
            .map_err(|e| format!("writing results document: {e}"))?;
        eprintln!("[swim] wrote results document to {}", path.display());
    }
    Ok(doc)
}

/// Errors when a validated spec's `run.simd` pin contradicts the
/// backend this process already runs with.
///
/// Used where switching backend mid-process is off the table:
/// `run_spec` with [`RunOptions::pin_backend`], and the `swim serve`
/// engine, whose trained-model cache and worker pool assume one
/// backend for the process lifetime. A spec that agrees with the
/// process passes; one that pins another backend is rejected rather
/// than switched to — a served document must not claim a pin the
/// process ignored.
pub(crate) fn check_provenance_pinned(spec: &ExperimentSpec) -> Result<(), String> {
    match Provenance::capture().pin_conflict(spec) {
        None => Ok(()),
        Some(c) => Err(format!(
            "spec pins `{} = {}` but this process runs with `{}`; restart it with {}={} to \
             honor the spec",
            c.spec_key, c.pinned, c.recorded, c.env, c.pinned
        )),
    }
}

/// Binds `trained` to one `(device model, sigma)` block and sweeps every
/// configured method over it — the block body of `run_spec` and of the
/// `swim serve` engine.
pub(crate) fn sweep_block(
    spec: &ExperimentSpec,
    trained: &Trained,
    model_name: &str,
    sigma: f64,
    cfg: &DriverConfig,
) -> Result<MethodCurves, String> {
    let device_model = device_model_by_name(model_name)
        .ok_or_else(|| format!("unknown device model `{model_name}`"))?;
    let model = trained.prepared.model.with_device(spec.device.config_at(sigma), device_model);
    Ok(run_methods(trained, &model, &spec.selection.selectors(), cfg))
}

/// Runs and presents every `(device model, sigma)` block of the grid
/// not yet done. Every block binds the one trained stage `cache` holds
/// for the spec, trained on first use — so a fully resumed run trains
/// nothing.
fn run_grid(
    spec: &ExperimentSpec,
    csv: bool,
    cache: &TrainedCache,
    collector: &mut Collector,
) -> Result<(), String> {
    // `run_spec` already installed the kernel configuration; the driver
    // config reads it back so every layer sees one policy.
    let t = tune::current();
    let cfg = DriverConfig::from_spec(spec, t.gemm_threads, t.gemm_block_cols);
    let emit = block_emitter(spec.kind);
    for (model_name, sigma) in model_sigma_grid(spec) {
        if collector.block_done(&model_name, sigma) {
            continue;
        }
        let (trained, _) = cache.get(spec);
        let curves = sweep_block(spec, &trained, &model_name, sigma, &cfg)?;
        let Prepared { float_accuracy, quant_accuracy, .. } = trained.prepared;
        emit(spec, csv, collector, &model_name, sigma, float_accuracy, quant_accuracy, &curves);
        collector.finish_block(spec, &model_name, sigma)?;
    }
    Ok(())
}

/// The presentation of a grid kind's finished blocks (shared with the
/// `swim serve` assembly).
#[allow(clippy::type_complexity)]
pub(crate) fn block_emitter(
    kind: ExperimentKind,
) -> fn(&ExperimentSpec, bool, &mut Collector, &str, f64, f64, f64, &MethodCurves) {
    match kind {
        ExperimentKind::Table1 => emit_table1_block,
        ExperimentKind::Fig2 => emit_fig2_block,
        _ => emit_sweep_block,
    }
}

/// The grid of `(device model, sigma)` blocks a grid-kind spec runs,
/// models outermost (so all sigmas of one model group together in the
/// output and the results document).
pub(crate) fn model_sigma_grid(spec: &ExperimentSpec) -> Vec<(String, f64)> {
    spec.device
        .models
        .iter()
        .flat_map(|m| spec.device.sigmas.iter().map(move |&s| (m.clone(), s)))
        .collect()
}

/// The `(model, sigma)` label for a grid block: just the sigma when the
/// spec runs a single device model (the historical output, preserved
/// byte-for-byte), the pair otherwise.
fn block_label(spec: &ExperimentSpec, model_name: &str, sigma: f64) -> String {
    if spec.device.models.len() == 1 {
        format!("sigma = {sigma}")
    } else {
        format!("model = {model_name}, sigma = {sigma}")
    }
}

// ---------------------------------------------------------- Table 1

/// Emits one finished Table 1 block: the per-method table, the two §4.3
/// speed-up summaries, and the typed records. Shared between the live
/// run path and the `swim merge` replay (which passes a quiet collector
/// and `csv = false`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_table1_block(
    spec: &ExperimentSpec,
    csv: bool,
    collector: &mut Collector,
    model_name: &str,
    sigma: f64,
    float_acc: f64,
    quant_acc: f64,
    curves: &MethodCurves,
) {
    let label = block_label(spec, model_name, sigma);
    if !collector.quiet {
        println!(
            "\n{label}: float accuracy {float_acc:.2}%, quantized (clean-mapped) accuracy \
             {quant_acc:.2}%"
        );
    }
    let table = curves.to_table(&format!("Table 1 block, {label}"));
    collector.show(&table);
    if csv {
        let csv_label = if spec.device.models.len() == 1 {
            format!("table1_sigma_{sigma}")
        } else {
            format!("table1_{model_name}_sigma_{sigma}")
        };
        println!("{}", curves.to_csv(&csv_label));
    }
    record_block(spec, collector, model_name, sigma, float_acc, quant_acc, curves);

    let Some(swim) = curves.curve("SWIM") else { return };

    // §4.3 speed-up summary: NWC needed to come within 0.1 points of
    // the full write-verify accuracy.
    let full_wv = swim.last().expect("nonempty sweep").accuracy.mean();
    let target = full_wv - 0.1;
    let mut summary = Table::new(
        format!("write cycles to reach {target:.2}% (full-WV {full_wv:.2}% − 0.1)"),
        &["method", "NWC needed", "speedup vs full write-verify"],
    );
    let insitu_points = curves.insitu_points();
    let mut rows: Vec<(&str, &[SweepPoint])> =
        curves.methods.iter().map(|m| (m.name.as_str(), m.points.as_slice())).collect();
    if !insitu_points.is_empty() {
        rows.push(("In-situ", &insitu_points));
    }
    for (name, pts) in &rows {
        let (nwc_text, speed_text) = match nwc_to_reach(pts, target) {
            Some(nwc) if nwc > 0.0 => (format!("{nwc:.2}"), format!("{:.1}x", 1.0 / nwc)),
            Some(_) => ("0.00".into(), "inf".into()),
            None => ("not reached ≤ 1.0".into(), "-".into()),
        };
        summary.push_row_owned(vec![name.to_string(), nwc_text, speed_text]);
    }
    collector.show(&summary);

    // The paper's §4.3 comparison style: the NWC each *baseline*
    // needs to attain the accuracy SWIM reaches at NWC = 0.1
    // (paper: magnitude ~0.5, random ~0.9, in-situ ~0.9 → 5x/9x/9x).
    if let Some(swim_01) = swim.iter().find(|p| (p.fraction - 0.1).abs() < 1e-9) {
        let target = swim_01.accuracy.mean();
        let mut equal = Table::new(
            format!("NWC to attain SWIM@0.1's accuracy ({target:.2}%)"),
            &["method", "NWC needed", "SWIM speedup"],
        );
        for (name, pts) in &rows {
            let (nwc_text, speed_text) = match nwc_to_reach(pts, target) {
                Some(nwc) if nwc > 0.0 => (format!("{nwc:.2}"), format!("{:.1}x", nwc / 0.1)),
                Some(_) => ("0.00".into(), "-".into()),
                None => ("not reached ≤ 1.0".into(), ">10x".into()),
            };
            equal.push_row_owned(vec![name.to_string(), nwc_text, speed_text]);
        }
        collector.show(&equal);
    }
}

/// The `table1` output: per-sigma method tables plus the §4.3
/// speed-up summaries.
fn run_table1(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    cache: &TrainedCache,
    collector: &mut Collector,
) -> Result<(), String> {
    let scenario = Scenario::from_spec(&spec.scenario);
    let scenario_label = match scenario {
        // The seed binary's hardcoded header, preserved byte-for-byte.
        Scenario::LenetMnist => "LeNet / MNIST-substitute, 4-bit".to_string(),
        other => other.name(),
    };
    let runs = spec.montecarlo.runs;
    println!("SWIM reproduction — Table 1: {scenario_label}");
    println!(
        "(runs = {runs}; the paper used 3000. Absolute accuracies differ on the synthetic \
         dataset; compare method ordering, gaps, and stds.)\n"
    );

    run_grid(spec, opts.csv, cache, collector)?;

    println!(
        "paper (Table 1) reports: SWIM reaches full-write-verify accuracy at the lowest NWC at\n\
         every sigma, with the smallest std; magnitude is second; random and in-situ need most\n\
         cycles (not checked against the tables above)."
    );
    Ok(())
}

// ------------------------------------------------------------ Fig. 2

/// Emits the single Fig. 2 block: the sweep table, the typed records,
/// and the paper's shape checks. Shared with the `swim merge` replay.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_fig2_block(
    spec: &ExperimentSpec,
    csv: bool,
    collector: &mut Collector,
    model_name: &str,
    sigma: f64,
    float_acc: f64,
    quant_acc: f64,
    curves: &MethodCurves,
) {
    if !collector.quiet {
        println!(
            "float accuracy {float_acc:.2}%, quantized (clean-mapped) accuracy {quant_acc:.2}%"
        );
    }
    let table = curves.to_table(&format!("{} accuracy vs NWC", spec.name));
    collector.show(&table);
    if csv {
        println!("{}", curves.to_csv(&spec.name));
    }
    record_block(spec, collector, model_name, sigma, float_acc, quant_acc, curves);

    if collector.quiet {
        return;
    }
    // The paper's headline comparison: the accuracy retained at NWC = 0.1
    // versus writing-verifying everything.
    let Some(swim) = curves.curve("SWIM") else { return };
    let full = swim.last().expect("nonempty sweep").accuracy.mean();
    println!("shape checks vs the paper:");
    let at = |pts: &[SweepPoint]| {
        pts.iter().find(|p| (p.fraction - 0.1).abs() < 1e-9).map(|p| p.accuracy.mean())
    };
    if let (Some(s), Some(m), Some(r)) =
        (at(swim), curves.curve("Magnitude").and_then(at), curves.curve("Random").and_then(at))
    {
        println!(
            "  at NWC=0.1: SWIM {s:.2}% vs Magnitude {m:.2}% vs Random {r:.2}% (full WV {full:.2}%)"
        );
        println!(
            "  SWIM drop at NWC=0.1: {:.2} points; ordering SWIM>=Magnitude>=Random {}",
            full - s,
            if s >= m - 0.3 && m >= r - 0.3 { "holds" } else { "VIOLATED" }
        );
    }
    let target = full - 0.5;
    if let Some(nwc) = nwc_to_reach(swim, target) {
        println!("  SWIM reaches (full-WV − 0.5%) at NWC {nwc:.2} — paper: ~0.1 for ResNet-18");
    }
}

/// The Fig. 2 panel output: one sweep with the paper's shape
/// checks.
fn run_fig2(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    cache: &TrainedCache,
    collector: &mut Collector,
) -> Result<(), String> {
    let scenario = Scenario::from_spec(&spec.scenario);
    println!("SWIM reproduction — {}: {}", spec.name, scenario.name());
    println!("paper: {}\n", spec.note);

    run_grid(spec, opts.csv, cache, collector)
}

// ----------------------------------------------------- generic sweep

/// Emits one finished generic-sweep block. Shared with the `swim merge`
/// replay.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_sweep_block(
    spec: &ExperimentSpec,
    csv: bool,
    collector: &mut Collector,
    model_name: &str,
    sigma: f64,
    float_acc: f64,
    quant_acc: f64,
    curves: &MethodCurves,
) {
    let label = block_label(spec, model_name, sigma);
    if !collector.quiet {
        println!(
            "{label}: float accuracy {float_acc:.2}%, quantized (clean-mapped) accuracy \
             {quant_acc:.2}%"
        );
    }
    let table = curves.to_table(&format!("{} accuracy vs NWC ({label})", spec.name));
    collector.show(&table);
    if csv {
        let csv_label = if spec.device.models.len() == 1 {
            format!("{}_sigma_{sigma}", spec.name)
        } else {
            format!("{}_{model_name}_sigma_{sigma}", spec.name)
        };
        println!("{}", curves.to_csv(&csv_label));
    }
    record_block(spec, collector, model_name, sigma, float_acc, quant_acc, curves);
}

/// Generic sweep presentation for custom specs: per-sigma method
/// tables, no paper framing.
fn run_generic_sweep(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    cache: &TrainedCache,
    collector: &mut Collector,
) -> Result<(), String> {
    let scenario = Scenario::from_spec(&spec.scenario);
    println!("SWIM experiment — {}: {}", spec.name, scenario.name());
    if !spec.note.is_empty() {
        println!("note: {}", spec.note);
    }
    println!();
    run_grid(spec, opts.csv, cache, collector)
}

// ------------------------------------------------------------ Fig. 1

/// The Fig. 1 (`fig1`) output: perturbation scatter plus the
/// Pearson summary.
fn run_fig1(spec: &ExperimentSpec, opts: &RunOptions, collector: &mut Collector) {
    let probes = spec.correlation.probes;
    let runs = spec.correlation.runs;
    println!("SWIM reproduction — Fig. 1: single-weight perturbation correlations");
    println!("paper: Fig. 1a weak magnitude correlation; Fig. 1b strong second-derivative correlation (r = 0.83)\n");

    let sigma = spec.device.sigmas[0];
    let device = spec.device.config_at(sigma);
    let scenario = Scenario::from_spec(&spec.scenario);
    let prep_cfg = PrepConfig::from(spec);
    let model = device_model_by_name(&spec.device.models[0]).expect("validated model");
    let mut prepared = prepare_with_model(scenario, device, &prep_cfg, model);

    eprintln!("[fig1] computing sensitivities...");
    let sens = prepared.model.sensitivities(&SoftmaxCrossEntropy::new(), &prepared.train, 128);

    eprintln!("[fig1] perturbing {probes} weights x {runs} Monte Carlo runs...");
    let study_cfg = CorrelationConfig {
        probes,
        runs,
        batch: spec.montecarlo.eval_batch,
        seed: spec.seed.wrapping_add(9),
    };
    // The accuracy drops are measured on the *training* split: the
    // second-derivative theory (Eq. 3) concerns the converged training
    // loss, and on a small held-out set single-weight perturbations help
    // as often as they hurt, drowning the signal (the paper's 10k-image
    // MNIST test set with a 98.7%-accurate model does not have this
    // problem).
    let study = correlation_study(&mut prepared.model, &sens, &prepared.train, &study_cfg);

    let mut table = Table::new(
        "Fig. 1 scatter data (one row per probed weight)",
        &["weight_idx", "magnitude", "second_derivative", "accuracy_drop_%"],
    );
    for impact in &study.impacts {
        table.push_row_owned(vec![
            impact.index.to_string(),
            format!("{:.5}", impact.magnitude),
            format!("{:.6e}", impact.sensitivity),
            format!("{:.4}", impact.accuracy_drop),
        ]);
    }
    if opts.csv {
        println!("{}", table.to_csv());
    } else {
        println!("({} scatter rows suppressed; pass --csv to print them)\n", table.len());
    }
    collector.tables.push(table.clone());

    let mut summary =
        Table::new("Fig. 1 correlation summary", &["series", "Pearson r (measured)", "paper"]);
    summary.push_row_owned(vec![
        "1a: |w| vs accuracy drop".into(),
        format!("{:.3}", study.magnitude_correlation),
        "weak (\"little correlation\")".into(),
    ]);
    summary.push_row_owned(vec![
        "1b: d2f/dw2 vs accuracy drop".into(),
        format!("{:.3}", study.sensitivity_correlation),
        "strong (r = 0.83)".into(),
    ]);
    collector.show(&summary);

    collector.correlations = Some(Correlations {
        magnitude: study.magnitude_correlation,
        sensitivity: study.sensitivity_correlation,
    });

    let ok = study.sensitivity_correlation > study.magnitude_correlation;
    println!(
        "shape check: second derivative correlates {} than magnitude — {}",
        if ok { "more strongly" } else { "LESS strongly" },
        if ok { "matches the paper" } else { "DOES NOT match the paper" }
    );
}

// ------------------------------------------------------- calibration

/// The `calibration` output: §4.1 write-verify statistics.
fn run_calibration(spec: &ExperimentSpec, opts: &RunOptions, collector: &mut Collector) {
    use swim_cim::device::{DeviceConfig, DeviceTech};
    use swim_cim::writeverify::measure_stats;

    let samples = spec.calibration.devices;
    println!("SWIM reproduction — §4.1 device-model calibration");
    println!("paper: ~10 average write cycles/weight, residual sigma ~0.03 at sigma = 0.1\n");

    let mut table = Table::new(
        format!("write-verify statistics over {samples} devices"),
        &["config", "sigma", "avg cycles", "residual std", "raw std", "1-try rate"],
    );

    let mut rng = Prng::seed_from_u64(spec.seed);
    for &sigma in &spec.device.sigmas {
        let cfg = spec.device.config_at(sigma);
        let stats = measure_stats(&cfg, samples, &mut rng);
        table.push_row_owned(vec![
            format!("{} (paper sweep)", spec.device.tech),
            format!("{sigma:.2}"),
            format!("{:.2}", stats.avg_pulses),
            format!("{:.4}", stats.residual_std),
            format!("{:.4}", stats.raw_std),
            format!("{:.3}", stats.first_try_rate),
        ]);
    }
    for tech in DeviceTech::all() {
        let cfg = DeviceConfig::for_tech(tech);
        let stats = measure_stats(&cfg, samples, &mut rng);
        table.push_row_owned(vec![
            format!("{tech} preset"),
            format!("{:.2}", cfg.sigma),
            format!("{:.2}", stats.avg_pulses),
            format!("{:.4}", stats.residual_std),
            format!("{:.4}", stats.raw_std),
            format!("{:.3}", stats.first_try_rate),
        ]);
    }
    // The seed binary printed the table before its optional CSV block.
    println!("{}", table.render());
    if opts.csv {
        println!("{}", table.to_csv());
    }
    collector.tables.push(table.clone());
    println!("paper-vs-measured: at sigma = 0.10 expect avg cycles ≈ 10 and residual ≈ 0.03.");
}

// ---------------------------------------------------------- ablation

/// The `ablation` output: granularity sweep, tie-break
/// comparison, calibration-set-size study.
fn run_ablation(spec: &ExperimentSpec, _opts: &RunOptions, collector: &mut Collector) {
    use swim_core::algorithm::selective_write_verify;
    use swim_core::montecarlo::{nwc_sweep_outcome, PanicPolicy, SweepConfig};
    use swim_core::select::{SelectionInputs, Selector, SwimSelector};

    let sigma = spec.device.sigmas[0];
    let runs = spec.montecarlo.runs;
    let threads = spec.threads();
    let seed = spec.seed;

    println!("SWIM reproduction — ablations\n");
    let device = spec.device.config_at(sigma);
    let scenario = Scenario::from_spec(&spec.scenario);
    let prep_cfg = PrepConfig::from(spec);
    let model = device_model_by_name(&spec.device.models[0]).expect("validated model");
    let mut prepared = prepare_with_model(scenario, device, &prep_cfg, model);
    let loss = SoftmaxCrossEntropy::new();
    let sens = prepared.model.sensitivities(&loss, &prepared.train, 128);
    let mags = prepared.model.magnitudes();
    let reference = prepared.quant_accuracy / 100.0;

    // ------------------------------------------- 1. granularity p sweep
    let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &mags), None);
    let mut table = Table::new(
        format!(
            "Algorithm 1 granularity sweep (deltaA = {}%, sigma = {sigma})",
            100.0 * spec.ablation.max_drop
        ),
        &["p", "mean NWC", "mean verified %", "mean groups (re-reads)", "mean accuracy %"],
    );
    for &p in &spec.ablation.granularities {
        let cfg = spec.alg1_config_at(p);
        let mut nwc = swim_tensor::stats::Running::new();
        let mut verified = swim_tensor::stats::Running::new();
        let mut groups = swim_tensor::stats::Running::new();
        let mut acc = swim_tensor::stats::Running::new();
        for run in 0..runs {
            let mut rng = Prng::seed_from_u64(seed.wrapping_add(1000 + run as u64));
            let out = selective_write_verify(
                &mut prepared.model,
                &ranking,
                &prepared.train,
                reference,
                &cfg,
                &mut rng,
            );
            nwc.push(out.nwc);
            verified.push(100.0 * out.verified_fraction);
            groups.push(out.groups as f64);
            acc.push(100.0 * out.accuracy);
        }
        table.push_row_owned(vec![
            format!("{:.0}%", 100.0 * p),
            format!("{:.3}", nwc.mean()),
            format!("{:.1}", verified.mean()),
            format!("{:.1}", groups.mean()),
            format!("{:.2}", acc.mean()),
        ]);
    }
    collector.show(&table);
    println!(
        "expected: small p finds a tighter stopping point (lower NWC) at the cost of more\n\
         accuracy re-reads; p = 5% (the paper's choice) balances the two.\n"
    );

    // ------------------------------------------- 2. tie-break ablation
    let sweep_cfg = SweepConfig {
        fractions: spec.ablation.tiebreak_fractions.clone(),
        runs,
        threads,
        eval_batch: spec.montecarlo.eval_batch,
        seed,
        run_offset: 0,
        on_panic: PanicPolicy::FailFast,
    };
    let with_tb =
        nwc_sweep_outcome(&prepared.model, &SwimSelector, &sens, &mags, &prepared.test, &sweep_cfg)
            .points;
    let without_tb = nwc_sweep_outcome(
        &prepared.model,
        &SwimNoTieBreakSelector,
        &sens,
        &mags,
        &prepared.test,
        &sweep_cfg,
    )
    .points;
    let mut table = Table::new(
        "magnitude tie-break ablation (SWIM ranking, accuracy %)",
        &["NWC", "with |w| tie-break", "without (index order)"],
    );
    for (a, b) in with_tb.iter().zip(&without_tb) {
        table.push_row_owned(vec![
            format!("{:.2}", a.fraction),
            fmt_mean_std(&a.accuracy),
            fmt_mean_std(&b.accuracy),
        ]);
    }
    collector.show(&table);
    println!(
        "expected: differences are small (ties are rare among float sensitivities) but the\n\
         tie-break never hurts — it matters when many weights share a zero sensitivity.\n"
    );

    // --------------------------------- 3. calibration-set size ablation
    // How much data does the single sensitivity pass need? The paper uses
    // the full training set; if a small calibration slice suffices, the
    // (already one-pass) analysis gets proportionally cheaper.
    let sweep_fracs = vec![0.1];
    let mut table = Table::new(
        "sensitivity calibration-set size (SWIM accuracy % at NWC = 0.1)",
        &["calibration samples", "rank corr. vs full", "accuracy @ NWC 0.1"],
    );
    let full_ranking_order = {
        let mut idx: Vec<usize> = (0..sens.len()).collect();
        idx.sort_by(|&a, &b| sens[b].partial_cmp(&sens[a]).unwrap_or(std::cmp::Ordering::Equal));
        // Rank position of each weight under the full-data sensitivities.
        let mut rank = vec![0.0f64; sens.len()];
        for (pos, &w) in idx.iter().enumerate() {
            rank[w] = pos as f64;
        }
        rank
    };
    for &frac in &spec.ablation.calibration_fractions {
        let n = ((prepared.train.len() as f64 * frac) as usize).max(32);
        let subset = prepared.train.take(n);
        let sub_sens = prepared.model.sensitivities(&loss, &subset, 128);
        // Spearman-style agreement with the full-data ranking.
        let sub_rank = {
            let mut idx: Vec<usize> = (0..sub_sens.len()).collect();
            idx.sort_by(|&a, &b| {
                sub_sens[b].partial_cmp(&sub_sens[a]).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut rank = vec![0.0f64; sub_sens.len()];
            for (pos, &w) in idx.iter().enumerate() {
                rank[w] = pos as f64;
            }
            rank
        };
        let agreement = swim_tensor::stats::pearson(&full_ranking_order, &sub_rank);
        let sweep_cfg = SweepConfig {
            fractions: sweep_fracs.clone(),
            runs,
            threads,
            eval_batch: spec.montecarlo.eval_batch,
            seed: seed.wrapping_add(7),
            run_offset: 0,
            on_panic: PanicPolicy::FailFast,
        };
        let pts = nwc_sweep_outcome(
            &prepared.model,
            &SwimSelector,
            &sub_sens,
            &mags,
            &prepared.test,
            &sweep_cfg,
        )
        .points;
        table.push_row_owned(vec![
            format!("{n}"),
            format!("{agreement:.3}"),
            fmt_mean_std(&pts[0].accuracy),
        ]);
    }
    collector.show(&table);
    println!(
        "expected: the ranking stabilizes with a few hundred calibration samples — the\n\
         sensitivity pass can run on a small slice of the training data."
    );
}

// ------------------------------------------------------ CLI flags

/// Flags that configure output or kernels rather than the experiment —
/// never forwarded into the spec.
const NON_SPEC_FLAGS: &[&str] = &["gemm-threads", "out", "checkpoint", "resume"];

/// Boolean flags `swim run`/`swim preset` understand; anything else is a
/// typo.
const KNOWN_BOOL_FLAGS: &[&str] = &["quick", "csv", "full", "help"];

/// Applies the `--flag value` pairs as spec overrides and
/// rejects unknown boolean flags (a typo like `--quik` must not
/// silently launch the full-budget experiment).
pub fn apply_flag_overrides(spec: &mut ExperimentSpec, args: &Args) -> Result<(), String> {
    if let Some(unknown) = args.flags().find(|f| !KNOWN_BOOL_FLAGS.contains(f)) {
        return Err(format!("unknown flag --{unknown} (pass --help for the flag reference)"));
    }
    let pairs: Vec<(String, String)> =
        args.values().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    for (key, value) in pairs {
        if NON_SPEC_FLAGS.contains(&key.as_str()) {
            continue;
        }
        if key == "set" {
            // The single-valued flag map only keeps the last `--set`,
            // which would silently drop earlier ones — `swim` splits the
            // repeatable `--set` pairs out before flag parsing.
            return Err("--set must be split out before flag parsing (`swim preset <name> \
                 --set k=v` does); the flag map keeps only direct flags like --runs"
                .to_string());
        }
        spec.apply_set(&format!("{key}={value}")).map_err(|e| format!("--{key}: {e}"))?;
    }
    Ok(())
}

/// Resolves output options and the kernel configuration for a spec.
pub fn options_from_args(spec: &ExperimentSpec, args: &Args) -> Result<RunOptions, String> {
    // Single-run artifacts (no Monte Carlo fan-out during the heavy
    // phases) let the matrix kernels use every core.
    let mc_threads = match spec.kind {
        ExperimentKind::Fig1 | ExperimentKind::Calibration => 1,
        _ => spec.threads(),
    };
    Ok(RunOptions {
        csv: args.has("csv") || args.has("full"),
        out: args.get("out").map(std::path::PathBuf::from),
        tuning: tuning_from_flags(args, mc_threads)?,
        checkpoint: args.get("checkpoint").map(std::path::PathBuf::from),
        resume: args.get("resume").map(std::path::PathBuf::from),
        pin_backend: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_tensor::stats::Running;

    fn mk_point(fraction: f64, acc: f64) -> SweepPoint {
        let mut r = Running::new();
        r.push(acc);
        r.push(acc + 1.0);
        SweepPoint {
            fraction,
            nwc: fraction * 0.9,
            accuracy: r,
            accuracy_min: acc,
            accuracy_p05: acc + 0.05,
        }
    }

    /// A grid of 2 device models × 2 sigmas trains and runs the
    /// sensitivity pass exactly once; every block equals the per-block
    /// path it replaces (train, quantize straight onto the block's
    /// device, own sensitivity pass); and resuming the finished run from
    /// its journal trains nothing.
    #[test]
    fn model_sigma_grid_trains_once_and_matches_independent_blocks() {
        let spec = ExperimentSpec::parse_str(
            "kind = \"sweep\"\nseed = 5\n\
             [device]\nmodel = [\"rram-gaussian\", \"sram-vt\"]\nsigmas = [0.1, 0.2]\n\
             [training]\nsamples = 200\nepochs = 1\n\
             [selection]\nmethods = [\"swim\", \"random\"]\n\
             [sweep]\nfractions = [0.0, 0.5]\n[montecarlo]\nruns = 2\neval_batch = 50\n",
        )
        .unwrap();
        let journal =
            std::env::temp_dir().join(format!("swim-grid-trains-once-{}.json", std::process::id()));
        let t = tune::current();
        let opts = RunOptions {
            tuning: t.clone(),
            checkpoint: Some(journal.clone()),
            ..RunOptions::default()
        };
        let cache = TrainedCache::default();
        let doc = run_spec_with(&spec, &opts, &cache).unwrap();
        assert_eq!(cache.counters(), (3, 1), "(hits, misses) over four blocks");
        assert_eq!(doc.sweeps.len(), 4);

        let cfg = DriverConfig::from_spec(&spec, t.gemm_threads, t.gemm_block_cols);
        for block in &doc.sweeps {
            let device_model = device_model_by_name(&block.device_model).unwrap();
            let mut prepared = prepare_with_model(
                Scenario::from_spec(&spec.scenario),
                spec.device.config_at(block.sigma),
                &PrepConfig::from(&spec),
                device_model,
            );
            let loss = SoftmaxCrossEntropy::new();
            let sensitivities = prepared.model.sensitivities(&loss, &prepared.train, 50);
            let magnitudes = prepared.model.magnitudes();
            let alone = Trained { prepared, sensitivities, magnitudes };
            let model = &alone.prepared.model;
            let curves = run_methods(&alone, model, &spec.selection.selectors(), &cfg);
            let (float, quant) = (alone.prepared.float_accuracy, alone.prepared.quant_accuracy);
            let expected =
                sweep_record(&block.device_model, block.sigma, float, quant, &curves, false);
            assert_eq!(*block, expected, "{} at {}", block.device_model, block.sigma);
        }

        let resume_opts = RunOptions { resume: Some(journal.clone()), ..opts };
        let cache = TrainedCache::default();
        let resumed = run_spec_with(&spec, &resume_opts, &cache).unwrap();
        std::fs::remove_file(&journal).unwrap();
        assert_eq!(cache.counters(), (0, 0), "a fully resumed run trains nothing");
        assert_eq!(resumed.sweeps, doc.sweeps);
    }

    /// The results document must embed a spec echo that parses back to
    /// the exact spec that ran — the acceptance contract for diffable
    /// sweep artifacts.
    #[test]
    fn results_document_spec_echo_round_trips() {
        let spec = swim_exp::preset("fig2a", true).unwrap();
        let mut collector = Collector::new();
        let mut table = Table::new("demo", &["a"]);
        table.push_row(&["1"]);
        collector.tables.push(table.clone());
        let doc = results_document(&spec, collector, 1.25);

        let json = doc.to_json();
        let parsed = swim_exp::value::parse_json(&json).unwrap();
        assert_eq!(
            parsed.get("swim_results_version").unwrap().as_int(),
            Some(swim_report::schema::RESULTS_VERSION)
        );
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("fig2"));
        let echoed = ExperimentSpec::from_value(parsed.get("spec").unwrap()).unwrap();
        assert_eq!(echoed, spec);
    }

    #[test]
    fn sweep_record_shape() {
        use crate::driver::{InsituStats, MethodCurve};
        let mut acc = Running::new();
        acc.push(94.0);
        let curves = MethodCurves {
            methods: vec![MethodCurve {
                name: "SWIM".into(),
                points: vec![mk_point(0.0, 90.0), mk_point(1.0, 95.0)],
                raw: vec![(90.0, 0.0), (95.0, 0.9)],
                faults: Vec::new(),
            }],
            insitu: vec![InsituStats { nwc: 0.5, accuracy: acc }],
            insitu_raw: Vec::new(),
        };
        let rec = sweep_record("rram-gaussian", 0.1, 99.0, 98.5, &curves, false);
        assert_eq!(rec.device_model, "rram-gaussian");
        assert_eq!(rec.sigma, 0.1);
        assert_eq!(rec.methods[0].name, "SWIM");
        assert_eq!(rec.methods[0].points.len(), 2);
        assert!(rec.methods[0].points[1].accuracy_mean > 95.0);
        assert_eq!(rec.methods[0].points[1].accuracy_min, 95.0);
        assert!((rec.methods[0].points[1].accuracy_p05 - 95.05).abs() < 1e-12);
        assert_eq!(rec.insitu[0].accuracy_mean, 94.0);
    }

    /// Every preset's emitted document must re-parse through the typed
    /// schema — write path and read path share one definition.
    #[test]
    fn every_preset_document_round_trips_through_schema() {
        for info in swim_exp::preset_infos() {
            for quick in [false, true] {
                let spec = swim_exp::preset(info.name, quick).unwrap();
                let mut collector = Collector::new();
                let mut table = Table::new("demo", &["method", "acc"]);
                table.push_row(&["SWIM", "98.50 ± 0.10"]);
                collector.show(&table);
                let mut acc = Running::new();
                acc.push(97.0);
                acc.push(98.0);
                let curves = MethodCurves {
                    methods: vec![crate::driver::MethodCurve {
                        name: "SWIM".into(),
                        points: vec![mk_point(0.0, 90.0), mk_point(1.0, 97.5)],
                        raw: vec![(90.0, 0.0), (97.5, 0.9)],
                        faults: Vec::new(),
                    }],
                    insitu: vec![crate::driver::InsituStats { nwc: 0.4, accuracy: acc }],
                    insitu_raw: Vec::new(),
                };
                collector.sweeps.push(sweep_record(
                    &spec.device.models[0],
                    spec.device.sigmas[0],
                    99.1,
                    98.6,
                    &curves,
                    spec.run.shard.is_some(),
                ));
                if spec.kind == ExperimentKind::Fig1 {
                    collector.correlations =
                        Some(Correlations { magnitude: 0.1, sensitivity: 0.8 });
                }
                let doc = results_document(&spec, collector, 0.5);
                let back = ResultsDoc::parse_str(&doc.to_json())
                    .unwrap_or_else(|e| panic!("preset {} (quick={quick}): {e}", info.name));
                assert_eq!(back, doc, "preset {} (quick={quick})", info.name);
                assert_eq!(back.spec, spec);
            }
        }
    }

    /// Every checked-in spec file must parse, validate, and survive the
    /// results-document spec-echo loop — `swim run <file> --out r.json`
    /// then feeding `r.json`'s `spec` object back to the parser yields
    /// the identical experiment.
    #[test]
    fn checked_in_spec_files_round_trip() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("examples/specs exists") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("toml") {
                continue;
            }
            seen += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let spec = ExperimentSpec::parse_str(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let doc = results_document(&spec, Collector::new(), 0.0);
            let echoed = ResultsDoc::parse_str(&doc.to_json()).unwrap();
            assert_eq!(echoed.spec, spec, "{}", path.display());
        }
        assert!(seen >= 3, "expected the sample specs to be present, found {seen}");
    }

    #[test]
    fn flag_overrides_respect_non_spec_flags() {
        let mut spec = swim_exp::preset("table1", false).unwrap();
        let args = Args::try_parse_from(
            ["--runs", "7", "--gemm-threads", "2", "--out", "x.json"].iter().map(|s| s.to_string()),
        )
        .unwrap();
        apply_flag_overrides(&mut spec, &args).unwrap();
        assert_eq!(spec.montecarlo.runs, 7);
        // gemm/out flags did not leak into the spec (they would be
        // unknown keys).
    }

    #[test]
    fn unknown_flag_override_errors() {
        let mut spec = swim_exp::preset("table1", false).unwrap();
        let args = Args::try_parse_from(["--rnus", "7"].iter().map(|s| s.to_string())).unwrap();
        let e = apply_flag_overrides(&mut spec, &args).unwrap_err();
        assert!(e.contains("rnus"), "{e}");
    }

    /// A typo'd boolean flag (`--quik`) must error, not silently launch
    /// the full-budget experiment.
    #[test]
    fn unknown_boolean_flag_errors() {
        let mut spec = swim_exp::preset("table1", false).unwrap();
        let args = Args::try_parse_from(["--quik".to_string()].into_iter()).unwrap();
        let e = apply_flag_overrides(&mut spec, &args).unwrap_err();
        assert!(e.contains("--quik"), "{e}");
        // The real flags are accepted.
        let args =
            Args::try_parse_from(["--quick", "--csv", "--full"].iter().map(|s| s.to_string()))
                .unwrap();
        apply_flag_overrides(&mut spec, &args).unwrap();
    }

    /// `--set` left in the flag map is rejected (single-valued flag
    /// parsing would silently drop repeats) and redirected to `swim`.
    #[test]
    fn set_flag_on_classic_binary_errors() {
        let mut spec = swim_exp::preset("table1", false).unwrap();
        let args = Args::try_parse_from(["--set", "runs=1"].iter().map(|s| s.to_string())).unwrap();
        let e = apply_flag_overrides(&mut spec, &args).unwrap_err();
        assert!(e.contains("swim"), "{e}");
        assert_eq!(spec.montecarlo.runs, 25, "override must not be applied");
    }

    /// Single-sigma kinds reject a sigma grid — the spec echo must
    /// never claim sigmas the engine did not run.
    #[test]
    fn single_sigma_kinds_reject_grids() {
        for preset_name in ["fig2a", "fig1", "ablation"] {
            let mut spec = swim_exp::preset(preset_name, true).unwrap();
            let e = spec.apply_set("sigmas=0.1,0.2").unwrap_err();
            assert!(e.0.contains("single variation level"), "{preset_name}: {e}");
        }
        // Grid kinds still accept it.
        let mut spec = swim_exp::preset("table1", true).unwrap();
        spec.apply_set("sigmas=0.1,0.2").unwrap();
    }
}
