//! The scalar-reference reproducibility contract: every committed
//! golden fixture in this workspace is a **scalar-backend artifact**,
//! and forcing `Backend::Scalar` must reproduce it from scratch, byte
//! for byte (wall time excepted — it is the one field that legitimately
//! differs between runs, so it is pinned to the fixture's value before
//! comparing).
//!
//! This is what makes the SIMD layer safe to evolve: a vector backend
//! may drift within `GEMM_DRIFT_TOL`, but the scalar path is frozen
//! against the committed bytes, so "scalar is the reference" is a
//! checked property rather than a convention. If this test fails, a
//! change altered the scalar numerics — regenerate the fixtures only if
//! that was the point of the change.

use swim_bench::experiment::{run_spec, RunOptions};
use swim_bench::merge::merge_docs;
use swim_report::schema::ResultsDoc;
use swim_tensor::simd::{with_backend, Backend};

fn bench_fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn report_fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../report/tests/fixtures").join(name)
}

/// Re-runs `fixture`'s own spec echo under the forced scalar backend
/// and demands the committed bytes back.
fn rerun_reproduces(path: &std::path::Path) {
    let committed = std::fs::read_to_string(path).unwrap();
    let doc = ResultsDoc::parse_str(&committed).unwrap();
    assert_eq!(
        doc.provenance.simd,
        "scalar",
        "{}: golden fixtures are scalar artifacts",
        path.display()
    );
    let opts = RunOptions {
        tuning: swim_tensor::tune::KernelTuning { gemm_threads: 1, ..Default::default() },
        ..Default::default()
    };
    let mut rerun = with_backend(Backend::Scalar, || run_spec(&doc.spec, &opts))
        .expect("scalar backend is always supported")
        .expect("fixture spec echo runs");
    rerun.wall_time_s = doc.wall_time_s;
    assert_eq!(
        rerun.to_json(),
        committed,
        "{}: forced-scalar re-run of the spec echo drifted from the committed bytes",
        path.display()
    );
}

#[test]
fn forced_scalar_reproduces_the_committed_run_fixture() {
    rerun_reproduces(&report_fixture("run_a.json"));
}

#[test]
fn forced_scalar_reproduces_the_committed_shard_fixtures_and_their_merge() {
    let paths = [bench_fixture("shard_0.json"), bench_fixture("shard_1.json")];
    let mut shards = Vec::new();
    for path in &paths {
        rerun_reproduces(path);
        shards.push((path.display().to_string(), ResultsDoc::load(path).unwrap()));
    }
    // And the committed merged document is exactly what merging the
    // (just re-verified) shards produces.
    let merged = merge_docs(&shards).unwrap();
    let committed = std::fs::read_to_string(bench_fixture("merged.json")).unwrap();
    assert_eq!(merged.to_json(), committed);
}
