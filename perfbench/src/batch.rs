//! The batch workloads (`table1-lenet`, `fig2b-resnet`): the untraced
//! pass times `run_spec` as a user runs it, the traced pass re-drives the
//! same spec through the layers and checks it against `run_spec`.

use std::time::{Duration, Instant};

use swim_bench::experiment::{options_from_args, run_spec, RunOptions};
use swim_bench::prep::{prepare_with_model, PrepConfig, Scenario};
use swim_cim::model::device_model_by_name;
use swim_exp::spec::ExperimentSpec;
use swim_report::schema::ResultsDoc;
use swim_tensor::tune;

use crate::metrics::Values;
use crate::pipeline::{run_traced, BlockStats, Counts, TracedRun};
use crate::report::{layer_values, median, Outcome};
use crate::trace::Tracer;

/// Set-up is repeated at least this often and for at least
/// `SETUP_MIN_SECONDS`; `setup_s` is the median of the repetitions.
pub const SETUP_MIN_REPS: usize = 3;

/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_SECONDS: f64 = 2.0;

/// Repeats `setup` (which returns its own duration) at least
/// `SETUP_MIN_REPS` times and `SETUP_MIN_SECONDS` long.
pub fn repeat_setup(mut setup: impl FnMut() -> Result<f64, String>) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    while times.len() < SETUP_MIN_REPS || times.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        times.push(setup()?);
    }
    Ok(times)
}

/// Monte Carlo runs one `run_spec` of `spec` performs.
pub fn runs_in(spec: &ExperimentSpec) -> u64 {
    let per_block = spec.selection.methods.len() + usize::from(spec.selection.insitu);
    (spec.device.models.len() * spec.device.sigmas.len() * per_block * spec.montecarlo.runs) as u64
}

/// The run options `swim run <spec>` resolves with no flags.
pub fn user_options(spec: &ExperimentSpec) -> Result<RunOptions, String> {
    let args = swim_bench::cli::Args::try_parse_from(std::iter::empty::<String>())?;
    options_from_args(spec, &args)
}

/// The document with its wall time zeroed: equal documents of one spec
/// differ only there.
pub fn normalized(doc: &ResultsDoc) -> String {
    let mut doc = doc.clone();
    doc.wall_time_s = 0.0;
    doc.to_json()
}

/// `run_spec` with a panic turned into an error; returns the document and
/// the call's wall time.
pub fn timed_run_spec(
    spec: &ExperimentSpec,
    opts: &RunOptions,
) -> (Result<ResultsDoc, String>, Duration) {
    let start = Instant::now();
    let result = std::panic::catch_unwind(|| run_spec(spec, opts))
        .unwrap_or_else(|_| Err("run_spec panicked".to_string()));
    (result, start.elapsed())
}

/// Time until a model is ready for its first Monte Carlo run: one
/// `prepare_with_model` of the spec's first block.
fn setup_once(spec: &ExperimentSpec) -> Result<f64, String> {
    let model_name = &spec.device.models[0];
    let model = device_model_by_name(model_name)
        .ok_or_else(|| format!("unknown device model `{model_name}`"))?;
    let start = Instant::now();
    let prepared = prepare_with_model(
        Scenario::from_spec(&spec.scenario),
        spec.device.config_at(spec.device.sigmas[0]),
        &PrepConfig::from(spec),
        model,
    );
    let seconds = start.elapsed().as_secs_f64();
    drop(prepared);
    Ok(seconds)
}

/// The untraced pass: repeated set-up, then `run_spec` back to back for
/// `seconds`; every document must equal the first.
pub fn untraced(spec: &ExperimentSpec, seconds: f64) -> Result<Outcome, String> {
    let opts = user_options(spec)?;
    tune::install(&opts.tuning);
    let mut out = Outcome::default();
    let setups = repeat_setup(|| setup_once(spec))?;

    let runs = runs_in(spec);
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut reference: Option<String> = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (result, wall) = timed_run_spec(spec, &opts);
        out.attempted += runs;
        let doc = match result {
            Ok(doc) => doc,
            Err(e) => {
                out.fail(runs, format!("run_spec failed: {e}"));
                break;
            }
        };
        out.failed += doc.faults.len() as u64;
        let text = normalized(&doc);
        match &reference {
            None => reference = Some(text),
            Some(first) if *first != text => {
                out.mismatch("repeated run_spec calls of one spec returned different documents")
            }
            Some(_) => {}
        }
        walls.push(wall.as_secs_f64());
        rates.push(runs as f64 / wall.as_secs_f64());
    }
    out.note(format!("run_spec calls: {}; walls (s): {walls:.3?}", walls.len()));
    out.values.insert("wall_s", median(&walls));
    out.values.insert("setup_s", median(&setups));
    out.printed.insert("runs_per_s", median(&rates));
    Ok(out)
}

/// The untraced (`traced == false`) or traced pass of a batch workload.
pub fn run(spec: &ExperimentSpec, seconds: f64, traced: bool) -> Result<Outcome, String> {
    if traced {
        self::traced(spec)
    } else {
        untraced(spec, seconds)
    }
}

/// Compares the traced statistics with the document bit for bit.
pub fn compare_blocks(traced: &[BlockStats], doc: &ResultsDoc) -> Vec<String> {
    let mut problems = Vec::new();
    if traced.len() != doc.sweeps.len() {
        problems.push(format!("{} traced blocks vs {} documented", traced.len(), doc.sweeps.len()));
    }
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    for (t, d) in traced.iter().zip(&doc.sweeps) {
        let at = format!("block ({}, sigma={})", d.device_model, d.sigma);
        if t.model != d.device_model || !same(t.sigma, d.sigma) {
            problems.push(format!("{at}: traced block order differs"));
        }
        if !same(t.float_accuracy, d.float_accuracy) || !same(t.quant_accuracy, d.quant_accuracy) {
            problems.push(format!("{at}: float/quant accuracy differs"));
        }
        if t.methods.len() != d.methods.len() {
            problems.push(format!("{at}: method count differs"));
        }
        for ((name, points), method) in t.methods.iter().zip(&d.methods) {
            let equal = *name == method.name
                && points.len() == method.points.len()
                && points.iter().zip(&method.points).all(|(p, q)| {
                    same(p.fraction, q.fraction)
                        && same(p.nwc, q.nwc)
                        && same(p.accuracy.mean(), q.accuracy_mean)
                        && same(p.accuracy.std(), q.accuracy_std)
                        && same(p.accuracy_min, q.accuracy_min)
                        && same(p.accuracy_p05, q.accuracy_p05)
                });
            if !equal {
                problems.push(format!("{at}: {} sweep statistics differ", method.name));
            }
        }
        let insitu_equal = t.insitu.len() == d.insitu.len()
            && t.insitu.iter().zip(&d.insitu).all(|(p, q)| {
                same(p.nwc, q.nwc)
                    && same(p.accuracy.mean(), q.accuracy_mean)
                    && same(p.accuracy.std(), q.accuracy_std)
            });
        if !insitu_equal {
            problems.push(format!("{at}: in-situ statistics differ"));
        }
    }
    problems
}

/// One traced re-drive of `spec` with `threads` Monte Carlo workers,
/// checked against `reference`; returns the run and its wall time and
/// adds its work to `counts`.
pub fn traced_and_checked(
    spec: &ExperimentSpec,
    threads: Option<usize>,
    tracer: &Tracer,
    counts: &Counts,
    reference: &ResultsDoc,
    out: &mut Outcome,
) -> Result<(TracedRun, f64), String> {
    let (runs_before, faults_before) = (Counts::get(&counts.mc_runs), Counts::get(&counts.faults));
    let start = Instant::now();
    let run = run_traced(spec, threads, tracer, counts)?;
    let wall_s = start.elapsed().as_secs_f64();
    for problem in compare_blocks(&run.blocks, reference) {
        out.mismatch(&format!("traced pass vs run_spec: {problem}"));
    }
    out.attempted += Counts::get(&counts.mc_runs) - runs_before;
    out.failed += Counts::get(&counts.faults) - faults_before;
    Ok((run, wall_s))
}

/// Fails the outcome unless two runs of one seed spent exactly the same
/// simulated write-verify work.
pub fn check_cim_counts(first: &Counts, repeat: &Counts, out: &mut Outcome) {
    for (name, a, b) in [
        ("cim.verify_pulses", &first.verify_pulses, &repeat.verify_pulses),
        ("cim.verified_weights", &first.verified_weights, &repeat.verified_weights),
    ] {
        if Counts::get(a) != Counts::get(b) {
            out.mismatch(&format!(
                "{name} differs between two runs of one seed: {} vs {}",
                Counts::get(a),
                Counts::get(b)
            ));
        }
    }
}

/// The traced pass of a batch workload.
pub fn traced(spec: &ExperimentSpec) -> Result<Outcome, String> {
    let opts = user_options(spec)?;
    let mut out = Outcome::default();
    let runs = runs_in(spec);

    // The first call warms the process up and is the reference
    // document; the second, after the traced pass, is the untraced wall
    // the tracing overhead is measured against.
    let (result, _) = timed_run_spec(spec, &opts);
    out.attempted += runs;
    let doc = result.map_err(|e| format!("untraced run_spec failed: {e}"))?;
    out.failed += doc.faults.len() as u64;

    let tracer = Tracer::default();
    let counts = Counts::default();
    let (run, traced_wall) = traced_and_checked(spec, None, &tracer, &counts, &doc, &mut out)?;
    // The same seed again on one worker: the statistics and the
    // simulated device work must not move with the schedule.
    let repeat = Counts::default();
    traced_and_checked(spec, Some(1), &Tracer::default(), &repeat, &doc, &mut out)?;
    check_cim_counts(&counts, &repeat, &mut out);

    let (result, untraced_wall) = timed_run_spec(spec, &opts);
    out.attempted += runs;
    match result {
        Ok(again) if normalized(&again) == normalized(&doc) => {
            out.failed += again.faults.len() as u64
        }
        Ok(_) => out.mismatch("repeated run_spec calls of one spec returned different documents"),
        Err(e) => out.fail(runs, format!("run_spec failed: {e}")),
    }

    let spans = tracer.take();
    let mut values: Values = layer_values(
        &spans,
        None,
        &run,
        &counts,
        spec,
        traced_wall,
        untraced_wall.as_secs_f64(),
        &[doc],
    )?;
    for name in [
        "serve.job_latency_p50_s",
        "serve.job_latency_p90_s",
        "serve.latency_samples",
        "serve.jobs_per_s",
        "serve.overhead_s",
        "serve.prep_cache.hit_ratio",
        "serve.rejected",
    ] {
        values.insert(name, 0.0);
    }
    out.values = values;
    out.spans = spans;
    Ok(out)
}
