//! Golden-file tests over checked-in results documents.
//!
//! `tests/fixtures/run_a.json` is a real (tiny) `swim run --out`
//! artifact; `run_b_perturbed.json` is the same document with one SWIM
//! curve point's `accuracy_mean` shifted by +0.75; `report_a.md` is the
//! committed `swim report` rendering of `run_a.json`. Regenerate them
//! with the commands in `docs/workflow.md` if the schema or report
//! layout changes on a version bump.

use swim_report::diff::{diff_docs, DiffOptions};
use swim_report::markdown::render_report;
use swim_report::schema::ResultsDoc;
use swim_report::summary::summarize;

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn load(name: &str) -> ResultsDoc {
    ResultsDoc::load(&fixture(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Regenerates the JSON fixtures after a schema version bump: parse the
/// old document leniently (version check overridden), then re-serialize
/// through the current schema so the bytes are canonical. Run with
/// `cargo test -p swim-report --test golden -- --ignored regenerate`
/// and commit the result.
#[test]
#[ignore = "rewrites tests/fixtures; run explicitly after a version bump"]
fn regenerate_fixtures() {
    use swim_exp::value::{parse_json, Value};
    for name in ["run_a.json", "run_b_perturbed.json"] {
        let path = fixture(name);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut root = parse_json(&text).unwrap();
        root.set("swim_results_version", Value::Int(swim_report::schema::RESULTS_VERSION));
        // v5 -> v6: the top-level `simd` and `tuning` keys move,
        // unchanged, into the `provenance` envelope.
        if let Value::Table(entries) = &mut root {
            let (moved, kept): (Vec<_>, Vec<_>) =
                entries.drain(..).partition(|(k, _)| k == "simd" || k == "tuning");
            *entries = kept;
            if !moved.is_empty() {
                root.set("provenance", Value::Table(moved));
            }
        }
        let doc = ResultsDoc::from_value(&root).unwrap_or_else(|e| panic!("{name}: {e}"));
        std::fs::write(&path, doc.to_json()).unwrap();
    }
    let a = load("run_a.json");
    std::fs::write(fixture("report_a.md"), render_report(&a, None)).unwrap();
}

#[test]
fn fixtures_parse_through_the_typed_schema() {
    let a = load("run_a.json");
    assert_eq!(a.name(), "fixture");
    assert_eq!(a.seed(), 3);
    assert_eq!(a.sweeps.len(), 2, "two sigma blocks");
    let block = a.sweep_at(0.1).unwrap();
    assert_eq!(block.methods.len(), 2);
    assert_eq!(block.methods[0].name, "SWIM");
    assert_eq!(block.methods[0].points.len(), 3);
    assert_eq!(block.insitu.len(), 3);
}

#[test]
fn emitted_document_reserializes_identically() {
    // Write path and read path share one schema: parse → write → parse
    // is a fixed point.
    let a = load("run_a.json");
    let again = ResultsDoc::parse_str(&a.to_json()).unwrap();
    assert_eq!(again, a);
}

#[test]
fn identical_documents_diff_clean() {
    let a = load("run_a.json");
    let report = diff_docs(&a, &a.clone(), &DiffOptions::default());
    assert!(report.clean(), "{}", report.render());
    assert!(report.values_compared >= 50, "compared {}", report.values_compared);
}

#[test]
fn perturbed_curve_point_drifts_and_is_named() {
    let a = load("run_a.json");
    let b = load("run_b_perturbed.json");
    let report = diff_docs(&a, &b, &DiffOptions::default());
    assert!(!report.clean());
    assert!(report.spec.is_empty(), "same experiment: {}", report.render());
    assert_eq!(report.drift.len(), 1, "{}", report.render());
    let entry = &report.drift[0];
    assert!(entry.path.contains("sigma=0.1"), "{}", entry.path);
    assert!(entry.path.contains("SWIM"), "{}", entry.path);
    assert!(entry.path.contains("fraction 0.5"), "{}", entry.path);
    assert!((entry.delta.unwrap() + 0.75).abs() < 1e-9);
    // A tolerance wider than the perturbation forgives it.
    let loose = DiffOptions { abs_tol: 1.0, ..Default::default() };
    assert!(diff_docs(&a, &b, &loose).clean());
}

#[test]
fn report_markdown_matches_golden() {
    let a = load("run_a.json");
    let golden = std::fs::read_to_string(fixture("report_a.md")).unwrap();
    let rendered = render_report(&a, None);
    assert_eq!(rendered, golden, "report drifted from tests/fixtures/report_a.md");
}

#[test]
fn report_contains_every_method_curve_table() {
    let a = load("run_a.json");
    let md = render_report(&a, None);
    for sweep in &a.sweeps {
        assert!(md.contains(&format!("## sigma = {}", sweep.sigma)));
        for method in &sweep.methods {
            for p in &method.points {
                let cell = format!("{:.2} ± {:.2}", p.accuracy_mean, p.accuracy_std);
                assert!(md.contains(&cell), "missing `{cell}` for {}", method.name);
            }
        }
    }
}

#[test]
fn summarize_flattens_both_fixtures() {
    let runs = vec![
        ("a".to_string(), load("run_a.json")),
        ("b".to_string(), load("run_b_perturbed.json")),
    ];
    let table = summarize(&runs);
    // 2 docs × 2 sigmas × (2 methods + insitu).
    assert_eq!(table.len(), 12);
}
