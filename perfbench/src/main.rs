//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <old-result.json> <new-result.json>
//! ```
//!
//! `--trace 0` runs the workload as a user does and prints the
//! end-to-end metrics; `--trace 1` re-drives it through the layers with
//! spans and prints the per-layer metrics. The last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); every run also writes a results file with its provenance
//! to `.bench_out/`. See `perfbench/README.md`.

mod batch;
mod metrics;
mod pipeline;
mod replay;
mod report;
mod serve;
mod trace;
mod workload;

use std::path::{Path, PathBuf};

use swim_bench::cli::Args;
use swim_exp::value::{parse_json, Value};

use metrics::{declared, json_number, result_line, END_TO_END, PER_LAYER};
use report::{span_table, Outcome};
use workload::{batch_spec, Workload, DEFAULT_SEED, HELDOUT_SEED};

/// Where results files and span dumps go, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = ".bench_out";

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown (no .git)".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Provenance recorded with every result.
fn provenance(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Value {
    let mut p = Value::table();
    p.set("workload", Value::Str(workload.name().into()));
    p.set("seed", Value::Int(seed as i64));
    p.set("seconds", Value::Float(seconds));
    p.set("trace", Value::Bool(trace));
    p.set("host_fingerprint", Value::Str(swim_tensor::tune::host_fingerprint()));
    p.set("simd", Value::Str(swim_tensor::simd::backend().name().into()));
    p.set("tune_mode", Value::Str(swim_tensor::tune::current().mode.name().into()));
    p.set("commit", Value::Str(commit()));
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    p.set("available_parallelism", Value::Int(cores as i64));
    p
}

fn write_results(
    workload: Workload,
    seed: u64,
    trace: bool,
    provenance: Value,
    outcome: &Outcome,
    correct: bool,
) -> Result<PathBuf, String> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let stem = format!("{}-seed{seed}-trace{}", workload.name(), u8::from(trace));
    let mut doc = Value::table();
    doc.set("provenance", provenance);
    doc.set("correct", Value::Bool(correct));
    doc.set("attempted", Value::Int(outcome.attempted as i64));
    doc.set("failed", Value::Int(outcome.failed as i64));
    let mut metrics = Value::table();
    for (name, value) in &outcome.values {
        metrics.set(name, Value::Float(*value));
    }
    doc.set("metrics", metrics);
    let strings = |xs: &[String]| Value::Array(xs.iter().cloned().map(Value::Str).collect());
    doc.set("mismatches", strings(&outcome.mismatches));
    doc.set("notes", strings(&outcome.notes));
    if trace {
        let wall = outcome.values.get("trace.wall_s").copied().unwrap_or(0.0);
        doc.set("spans", strings(&span_table(&outcome.spans, wall)));
        let spans_path = dir.join(format!("{stem}.spans.jsonl"));
        std::fs::write(&spans_path, trace::to_jsonl(&outcome.spans))
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    }
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, doc.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Runs one pass of a workload and completes its metrics.
fn measure(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match batch_spec(workload, seed) {
        Some(spec) => finish(batch::run(&spec, seconds, trace)?, trace, true),
        None => finish(serve::run(seed, seconds, trace)?, trace, false),
    }
}

/// Adds the process's peak memory; on a traced batch pass, demands that
/// the top-level spans cover the traced wall time.
fn finish(mut outcome: Outcome, trace: bool, batch: bool) -> Result<Outcome, String> {
    if !trace {
        outcome.printed.insert("peak_rss_mb", peak_rss_mb()?);
    } else {
        outcome.values.insert("process.peak_rss_mb", peak_rss_mb()?);
        if batch && outcome.values.get("trace.coverage").is_some_and(|c| *c < 0.95) {
            outcome.mismatch("top-level spans cover less than 95% of the traced wall time");
        }
    }
    Ok(outcome)
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         perfbench compare <old-result.json> <new-result.json>\n\
         default seed {DEFAULT_SEED}; held-out seed {HELDOUT_SEED} (confirms a claimed gain)",
        names.join("|")
    )
}

fn run(args: &Args) -> Result<i32, String> {
    if args.has("help") {
        println!("{}", usage());
        return Ok(0);
    }
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?;
    let seed = args.get_u64("seed", DEFAULT_SEED)?;
    let seconds = args.get_f64("seconds", 10.0)?;
    let trace = match args.get_usize("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }

    let outcome = measure(workload, seed, seconds, trace)?;
    let correct = outcome.mismatches.is_empty();
    let table = if trace { PER_LAYER } else { END_TO_END };

    let prov = provenance(workload, seed, seconds, trace);
    println!(
        "perfbench {} seed={seed} trace={} | host {} | simd {} | commit {}",
        workload.name(),
        u8::from(trace),
        swim_tensor::tune::host_fingerprint(),
        swim_tensor::simd::backend().name(),
        commit()
    );
    for (name, value) in outcome.values.iter().chain(&outcome.printed) {
        let metric = declared(name).ok_or_else(|| format!("undeclared metric `{name}`"))?;
        println!(
            "  {name:<34} {:>16} {:<8} ({} is better)",
            json_number(*value),
            metric.unit,
            metric.better
        );
    }
    let error_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16} {:<8} ({} failed of {} attempted)",
        "error_ratio",
        json_number(error_ratio),
        "ratio",
        outcome.failed,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for mismatch in &outcome.mismatches {
        println!("  OUTPUT CHECK FAILED: {mismatch}");
    }
    let path = write_results(workload, seed, trace, prov, &outcome, correct)?;
    println!("  results: {}", path.display());
    let line = result_line(table, &outcome.values, correct, outcome.attempted, outcome.failed)?;
    println!("{line}");
    Ok(if correct { 0 } else { 1 })
}

/// A provenance field of a results file, as text.
fn provenance_field(doc: &Value, key: &str) -> String {
    doc.get("provenance")
        .and_then(|p| p.get(key))
        .map(|v| v.as_str().map_or_else(|| v.to_json().trim().to_string(), str::to_string))
        .unwrap_or_default()
}

/// Why two results files must not be compared: another host, workload
/// or pass.
fn refusal(a: &Value, b: &Value) -> Option<String> {
    ["host_fingerprint", "workload", "trace"].into_iter().find_map(|key| {
        let (x, y) = (provenance_field(a, key), provenance_field(b, key));
        (x != y).then(|| format!("`{key}` differs ({x} vs {y})"))
    })
}

/// `perfbench compare OLD NEW`: per-metric change between two results
/// files of one workload, judged against the bounds in
/// `BENCHMARK.json`. Refuses files from different hosts.
fn compare(old: &str, new: &str) -> Result<i32, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(old)?, load(new)?);
    if let Some(reason) = refusal(&a, &b) {
        eprintln!("refusing to compare: {reason}");
        return Ok(2);
    }
    let bounds: Vec<(String, f64)> = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| parse_json(&t).ok())
        .and_then(|doc| {
            doc.get("end_to_end")?.as_array().map(|list| {
                list.iter()
                    .filter_map(|m| {
                        Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_float()?))
                    })
                    .collect()
            })
        })
        .unwrap_or_default();
    let metrics =
        |doc: &Value| doc.get("metrics").and_then(Value::as_table).unwrap_or(&[]).to_vec();
    let new_metrics = metrics(&b);
    let mut regressed = false;
    println!(
        "{} ({} → {})",
        provenance_field(&a, "workload"),
        provenance_field(&a, "commit"),
        provenance_field(&b, "commit")
    );
    for (name, old_value) in metrics(&a) {
        let (Some(x), Some(y)) = (
            old_value.as_float(),
            new_metrics.iter().find(|(n, _)| *n == name).and_then(|(_, v)| v.as_float()),
        ) else {
            continue;
        };
        let change = if x != 0.0 { y / x - 1.0 } else { 0.0 };
        let worse = match declared(&name).map(|m| m.better) {
            Some("higher") => -change,
            _ => change,
        };
        let verdict = match bounds.iter().find(|(n, _)| *n == name) {
            Some((_, bound)) if worse > *bound => {
                regressed = true;
                format!("REGRESSION beyond bound {bound}")
            }
            Some((_, bound)) => format!("within bound {bound}"),
            None => String::new(),
        };
        println!("  {name:<34} {x:>14.6} → {y:>14.6} ({:+.2}%) {verdict}", 100.0 * change);
    }
    Ok(if regressed { 1 } else { 0 })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = if raw.first().map(String::as_str) == Some("compare") {
        match raw.as_slice() {
            [_, old, new] => compare(old, new),
            _ => Err("usage: perfbench compare <old-result.json> <new-result.json>".into()),
        }
    } else {
        Args::try_parse_from(raw.into_iter()).and_then(|args| run(&args))
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_exp::spec::ExperimentSpec;

    /// The workload's spec at a fraction of its budget.
    fn shrunk(mut spec: ExperimentSpec) -> ExperimentSpec {
        spec.training.samples = 50;
        spec.montecarlo.runs = 1;
        spec.device.sigmas.truncate(1);
        spec.sweep.fractions = vec![0.0, 1.0];
        spec
    }

    #[test]
    fn compare_refuses_results_of_another_host() {
        let result = |host: &str| {
            let mut doc = Value::table();
            let mut prov = provenance(Workload::Table1Lenet, 1, 25.0, false);
            prov.set("host_fingerprint", Value::Str(host.into()));
            doc.set("provenance", prov);
            doc
        };
        assert_eq!(refusal(&result("a|avx2|2cores"), &result("a|avx2|2cores")), None);
        let reason = refusal(&result("a|avx2|2cores"), &result("a|avx2|1cores"));
        assert!(reason.is_some_and(|r| r.contains("host_fingerprint")));
    }

    #[test]
    fn every_workload_emits_every_metric_of_both_passes() {
        for trace in [false, true] {
            let table = if trace { PER_LAYER } else { END_TO_END };
            let mut outcomes = Vec::new();
            for spec in [workload::table1_spec(1), workload::fig2b_spec(1)] {
                let out = batch::run(&shrunk(spec), 0.01, trace).expect("batch pass");
                outcomes.push(finish(out, trace, true).expect("finished batch pass"));
            }
            let out = serve::run(1, 0.2, trace).expect("serve pass");
            outcomes.push(finish(out, trace, false).expect("finished serve pass"));
            for out in outcomes {
                assert!(out.mismatches.is_empty(), "output checks failed: {:?}", out.mismatches);
                result_line(table, &out.values, true, out.attempted, out.failed)
                    .expect("every declared metric of the pass");
            }
        }
    }
}
