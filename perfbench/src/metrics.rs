//! The declared metrics (mirrored in `BENCHMARK.json`, which the tests
//! check against these tables) and the final result line.

use std::collections::BTreeMap;

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction: `"lower"` or `"higher"` is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, emitted by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[m("wall_s", "s", "lower"), m("setup_s", "s", "lower")];

/// Metrics an untraced run prints beside the end-to-end ones but does
/// not put in its result line: too noisy on a shared host to guard
/// (`peak_rss_mb` moves with allocator arena reuse under the served
/// workload's thread timing), redundant with `wall_s` (`runs_per_s`),
/// or defined on the served workload only.
pub const PRINTED: &[Metric] = &[
    m("runs_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
    m("job_latency_p50_s", "s", "lower"),
    m("job_latency_p90_s", "s", "lower"),
    m("job_latency_samples", "count", "higher"),
    m("jobs_per_s", "1/s", "higher"),
];

/// Per-layer metrics, emitted by every traced run (`--trace 1`). A layer
/// that does no work on a workload reports 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("data.generate_s", "s", "lower"),
    m("nn.train_s", "s", "lower"),
    m("nn.train.samples_per_s", "1/s", "higher"),
    m("quant.quantize_s", "s", "lower"),
    m("core.sensitivity_s", "s", "lower"),
    m("core.sensitivity.samples_per_s", "1/s", "higher"),
    m("core.rank_s", "s", "lower"),
    m("core.montecarlo.sweep_s", "s", "lower"),
    m("core.montecarlo.runs_per_s", "1/s", "higher"),
    m("core.montecarlo.busy_ratio", "ratio", "higher"),
    m("core.montecarlo.faults", "count", "lower"),
    m("core.insitu_s", "s", "lower"),
    m("nn.eval_s", "s", "lower"),
    m("nn.eval.images_per_s", "1/s", "higher"),
    m("tensor.gemm_s", "s", "lower"),
    m("tensor.gemm.gflops", "GFLOP/s", "higher"),
    m("tensor.im2col_s", "s", "lower"),
    m("tensor.eval_share", "ratio", "lower"),
    m("cim.program_s", "s", "lower"),
    m("cim.program.weights_per_s", "1/s", "higher"),
    m("cim.verify_pulses", "count", "lower"),
    m("cim.verified_weights", "count", "lower"),
    m("report.assemble_s", "s", "lower"),
    m("report.doc_bytes", "bytes", "lower"),
    m("serve.job_latency_p50_s", "s", "lower"),
    m("serve.job_latency_p90_s", "s", "lower"),
    m("serve.latency_samples", "count", "higher"),
    m("serve.jobs_per_s", "1/s", "higher"),
    m("serve.overhead_s", "s", "lower"),
    m("serve.prep_cache.hit_ratio", "ratio", "higher"),
    m("serve.rejected", "count", "lower"),
    m("share.data", "ratio", "lower"),
    m("share.nn", "ratio", "lower"),
    m("share.quant", "ratio", "lower"),
    m("share.core", "ratio", "lower"),
    m("share.cim", "ratio", "lower"),
    m("share.harness", "ratio", "lower"),
    m("trace.wall_s", "s", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
    m("trace.coverage", "ratio", "higher"),
    m("process.peak_rss_mb", "MiB", "lower"),
];

/// The declared metric of `name` in any table.
pub fn declared(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).chain(PRINTED).find(|m| m.name == name)
}

/// Whether `name` is a legal metric name.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values of one run, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the one-line result object, checking that exactly the
/// declared metrics of the pass are present and finite.
pub fn result_line(
    table: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(table.len());
    for metric in table {
        let value = values
            .get(metric.name)
            .ok_or_else(|| format!("metric `{}` was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite ({value})", metric.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            json_number(*value),
            metric.unit
        ));
    }
    if let Some(extra) = values.keys().find(|k| !table.iter().any(|m| m.name == **k)) {
        return Err(format!("metric `{extra}` is not declared for this pass"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form carries.
pub fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_exp::value::{parse_json, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn declared_in(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field =
                    |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER).chain(PRINTED).map(|m| m.name).collect();
        for name in &names {
            assert!(valid_name(name), "illegal metric name `{name}`");
        }
        names.sort_unstable();
        names.dedup();
        let declared = END_TO_END.len() + PER_LAYER.len() + PRINTED.len();
        assert_eq!(names.len(), declared, "duplicate metric name");
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect();
            assert_eq!(declared_in(&doc, key), ours, "`{key}` differs from BENCHMARK.json");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads list")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("workload name").to_string())
            .collect();
        let ours: Vec<String> =
            crate::workload::Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_demands_exactly_the_declared_metrics() {
        let mut values: Values = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = result_line(END_TO_END, &values, true, 3, 0).expect("complete values");
        let parsed = parse_json(&line).expect("result line is JSON");
        let metrics = parsed.get("metrics").expect("metrics object");
        for metric in END_TO_END {
            let entry = metrics.get(metric.name).expect("metric present");
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(metric.unit));
        }
        values.remove("setup_s");
        assert!(result_line(END_TO_END, &values, true, 3, 0).is_err());
        values.insert("setup_s", f64::NAN);
        assert!(result_line(END_TO_END, &values, true, 3, 0).is_err());
        values.insert("setup_s", 2.0);
        values.insert("nn.eval_s", 2.0);
        assert!(result_line(END_TO_END, &values, true, 3, 0).is_err());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.000123456789), "0.000123456789");
    }
}
