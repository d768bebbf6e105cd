//! The autotuning acceptance contract: tuning is **timing-only**. The
//! same spec run under the forced default configuration and under the
//! shape-keyed autotuner must produce byte-identical results documents,
//! modulo the two fields that legitimately differ — `wall_time_s` and
//! the tuning inside the `provenance` envelope. This is the property that
//! makes the tuner safe to enable anywhere: it can only ever change how
//! fast the answer arrives, never the answer.

use swim_bench::experiment::{run_spec, RunOptions};
use swim_bench::service::ServiceEngine;
use swim_exp::spec::ExperimentSpec;
use swim_report::diff::{diff_docs, DiffOptions};
use swim_serve::server::JobEngine;
use swim_tensor::tune::{self, KernelTuning, TuneMode};

fn tiny_spec() -> ExperimentSpec {
    ExperimentSpec::parse_str(
        "name = \"tune-loop\"\nseed = 23\n\
         [training]\nsamples = 120\nepochs = 1\n\
         [selection]\nmethods = [\"swim\"]\ninsitu = false\n\
         [sweep]\nfractions = [0.0, 0.5, 1.0]\n\
         [montecarlo]\nruns = 2\nthreads = 1\n",
    )
    .unwrap()
}

fn opts_with(mode: TuneMode) -> RunOptions {
    RunOptions {
        tuning: KernelTuning { mode, gemm_threads: 1, ..Default::default() },
        ..Default::default()
    }
}

/// One sequential test: the sub-checks share (and mutate) the
/// process-global tuning state, so they must not interleave.
#[test]
fn autotuned_run_is_byte_identical_and_pinned_hosts_reject_contradictions() {
    // ---- the differential contract -------------------------------------
    let spec = tiny_spec();
    let default_doc = run_spec(&spec, &opts_with(TuneMode::Off)).unwrap();
    assert_eq!(default_doc.provenance.tuning.mode, "off");
    assert!(default_doc.provenance.tuning.choices.is_empty());

    tune::clear_winners();
    let tuned_doc = run_spec(&spec, &opts_with(TuneMode::On)).unwrap();
    assert_eq!(tuned_doc.provenance.tuning.mode, "on");

    let mut a = default_doc.clone();
    let mut b = tuned_doc.clone();
    a.wall_time_s = 0.0;
    b.wall_time_s = 0.0;
    a.provenance.tuning = Default::default();
    b.provenance.tuning = Default::default();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "autotuning changed result bytes beyond wall_time_s and the provenance tuning"
    );

    // `swim diff` semantics: the tuning difference is provenance — it is
    // listed, but it is never drift, so the diff is clean.
    let report = diff_docs(&default_doc, &tuned_doc, &DiffOptions::default());
    assert!(report.drift.is_empty(), "{}", report.render());
    assert!(report.clean(), "provenance must never fail a diff: {}", report.render());
    assert!(
        report.provenance.iter().any(|e| e.path == "provenance.tuning.mode"),
        "mode off vs on must be listed: {}",
        report.render()
    );

    // The document round-trips with its choices intact.
    let back = swim_report::schema::ResultsDoc::parse_str(&tuned_doc.to_json()).unwrap();
    assert_eq!(back, tuned_doc);

    // ---- spec [tune] overlay beats the CLI layer -----------------------
    let mut pinned_spec = tiny_spec();
    pinned_spec.apply_set("tune=off").unwrap();
    let doc = run_spec(&pinned_spec, &opts_with(TuneMode::On)).unwrap();
    assert_eq!(doc.provenance.tuning.mode, "off", "spec `[tune] mode` must beat the CLI layer");

    // ---- pinned hosts (serve) reject contradicting [tune] sections -----
    tune::install(&KernelTuning { gemm_threads: 1, ..Default::default() });
    let engine = ServiceEngine::new(1, 0);
    let mut tuned_spec = tiny_spec();
    tuned_spec.apply_set("tune=on").unwrap();
    let e = engine.validate(&tuned_spec).unwrap_err();
    assert!(e.contains("tune.mode"), "{e}");
    let mut block_spec = tiny_spec();
    block_spec.apply_set("tune.gemm_block=96").unwrap();
    let e = engine.validate(&block_spec).unwrap_err();
    assert!(e.contains("tune.gemm_block"), "{e}");
    // A spec that agrees with the installed state passes.
    assert!(engine.validate(&tiny_spec()).is_ok());
}
