//! Outcome of one benchmark run and the per-layer metrics of a traced
//! pass.

use std::time::Instant;

use swim_exp::spec::ExperimentSpec;
use swim_report::schema::ResultsDoc;

use crate::metrics::Values;
use crate::pipeline::{input_shape, untrained_network, Counts, TracedRun};
use crate::replay::{eval_kernels, replay};
use crate::trace::{layer, subtree, top_level_s, totals, Span};

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: Values,
    /// Operations attempted (Monte Carlo runs, or served jobs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Human-readable details for the results file.
    pub notes: Vec<String>,
    /// Spans of the traced pass (empty when untraced).
    pub spans: Vec<Span>,
    /// Printed-only metric values (see `metrics::PRINTED`).
    pub printed: Values,
}

impl Outcome {
    /// Records an output-check failure.
    pub fn mismatch(&mut self, message: &str) {
        self.mismatches.push(message.to_string());
    }

    /// Records `operations` failed operations and why.
    pub fn fail(&mut self, operations: u64, message: String) {
        self.failed += operations;
        self.mismatches.push(message);
    }

    /// Records a detail line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of a sample; 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when there was no work (`b == 0`).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Layers whose share of the traced wall time is reported.
const SHARE_LAYERS: [(&str, &str); 6] = [
    ("share.data", "data"),
    ("share.nn", "nn"),
    ("share.quant", "quant"),
    ("share.core", "core"),
    ("share.cim", "cim"),
    ("share.harness", "harness"),
];

/// Per-layer metrics of a traced pass: span totals, counters, the
/// kernel replay at the workload's eval shapes, and document assembly
/// timed on `docs`. `untraced_wall_s` is the wall time of the same work
/// without tracing. Layer shares are taken over the subtrees of the
/// spans named `share_root` when given (the served workload, whose
/// preparation is a cache hit), else over the whole traced wall.
#[allow(clippy::too_many_arguments)]
pub fn layer_values(
    spans: &[Span],
    share_root: Option<&str>,
    run: &TracedRun,
    counts: &Counts,
    spec: &ExperimentSpec,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    docs: &[ResultsDoc],
) -> Result<Values, String> {
    let t = totals(spans);
    let busy = |names: &[&str]| -> f64 {
        names.iter().filter_map(|n| t.get(n)).fold(0.0, |sum, n| sum + n.busy_s)
    };
    let count = |c: &std::sync::atomic::AtomicU64| Counts::get(c) as f64;
    let mut v = Values::new();

    v.insert("data.generate_s", busy(&["data.generate"]));
    let train_s = busy(&["nn.train"]);
    v.insert("nn.train_s", train_s);
    v.insert("nn.train.samples_per_s", ratio(count(&counts.train_samples), train_s));
    v.insert("quant.quantize_s", busy(&["quant.quantize"]));
    let sens_s = busy(&["core.sensitivity"]);
    v.insert("core.sensitivity_s", sens_s);
    v.insert("core.sensitivity.samples_per_s", ratio(count(&counts.sensitivity_samples), sens_s));
    v.insert("core.rank_s", busy(&["core.rank", "core.rank.mask", "core.rank.magnitudes"]));
    let sweep_s = busy(&["core.montecarlo.sweep"]);
    v.insert("core.montecarlo.sweep_s", sweep_s);
    v.insert("core.montecarlo.runs_per_s", ratio(count(&counts.mc_runs), sweep_s));
    v.insert(
        "core.montecarlo.busy_ratio",
        ratio(busy(&["core.montecarlo.run"]), run.workers as f64 * sweep_s),
    );
    v.insert("core.montecarlo.faults", count(&counts.faults));
    v.insert("core.insitu_s", busy(&["core.insitu"]));
    let eval_s = busy(&["nn.eval"]);
    v.insert("nn.eval_s", eval_s);
    v.insert("nn.eval.images_per_s", ratio(count(&counts.eval_images), eval_s));
    let program_s = busy(&["cim.program"]);
    v.insert("cim.program_s", program_s);
    v.insert("cim.program.weights_per_s", ratio(count(&counts.programmed_weights), program_s));
    v.insert("cim.verify_pulses", count(&counts.verify_pulses));
    v.insert("cim.verified_weights", count(&counts.verified_weights));

    let network = untrained_network(spec);
    let kernels = eval_kernels(
        &network.describe(),
        input_shape(spec),
        run.eval_items,
        swim_tensor::tune::im2col_cap_elems(),
    )?;
    let kernel_times = replay(&kernels, 5);
    v.insert("tensor.gemm_s", kernel_times.gemm_s);
    v.insert("tensor.gemm.gflops", ratio(kernel_times.flops, kernel_times.gemm_s) * 1e-9);
    v.insert("tensor.im2col_s", kernel_times.im2col_s);
    let eval_batch_s = ratio(eval_s, count(&counts.eval_batches));
    v.insert("tensor.eval_share", ratio(kernel_times.gemm_s + kernel_times.im2col_s, eval_batch_s));

    let (mut assemble, mut bytes) = (Vec::new(), Vec::new());
    for doc in docs {
        for _ in 0..5 {
            let start = Instant::now();
            let json = doc.to_json();
            ResultsDoc::parse_str(&json).map_err(|e| format!("document does not parse: {e}"))?;
            assemble.push(start.elapsed().as_secs_f64());
            bytes.push(json.len() as f64);
        }
    }
    v.insert("report.assemble_s", median(&assemble));
    v.insert("report.doc_bytes", median(&bytes));

    let (share_totals, share_wall) = match share_root {
        Some(root) => {
            let scoped = subtree(spans, root);
            (totals(&scoped), top_level_s(&scoped))
        }
        None => (t, traced_wall_s),
    };
    for (metric, name) in SHARE_LAYERS {
        let self_wall = share_totals
            .iter()
            .filter(|(n, _)| layer(n) == name)
            .fold(0.0, |sum, (_, n)| sum + n.self_wall_s);
        v.insert(metric, ratio(self_wall, share_wall));
    }
    v.insert("trace.wall_s", traced_wall_s);
    v.insert("trace.overhead_ratio", ratio(traced_wall_s, untraced_wall_s));
    v.insert("trace.coverage", ratio(top_level_s(spans), traced_wall_s));
    Ok(v)
}

/// Per-span-name table of a traced pass, for the results file.
pub fn span_table(spans: &[Span], wall_s: f64) -> Vec<String> {
    let t = totals(spans);
    let mut rows: Vec<_> = t.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_wall_s.total_cmp(&a.1.self_wall_s));
    rows.into_iter()
        .map(|(name, n)| {
            format!(
                "{name}: count {}, busy {:.4} s, self {:.4} s ({:.1}% of traced wall)",
                n.count,
                n.busy_s,
                n.self_wall_s,
                100.0 * ratio(n.self_wall_s, wall_s)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }
}
