//! In-memory spans for the traced pass.
//!
//! Each span has a name, start, end, parent and (inside Monte Carlo)
//! the run it belongs to. Worker threads record into a private buffer
//! that is handed to the tracer when the worker ends, so recording takes
//! no lock on the hot path. Spans are analysed and written out only
//! after the pass.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Static span name; its first dotted component is the layer.
    pub name: &'static str,
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a top-level span.
    pub parent: u64,
    /// Monte Carlo run id, when the span belongs to one run.
    pub run: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Share of one core the span's thread stands for: `1/workers` in a
    /// parallel region, 1 elsewhere. Converts thread time to wall time.
    pub weight: f64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span collector of one traced pass.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span that started at `start_ns`.
    pub fn close(&self, name: &'static str, id: u64, parent: u64, start_ns: u64) {
        let span = Span { name, id, parent, run: None, start_ns, end_ns: self.now(), weight: 1.0 };
        self.spans.lock().expect("span sink lock").push(span);
    }

    /// Runs `f` inside a main-thread span; `f` receives the span's id
    /// for its children.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let (id, start) = (self.id(), self.now());
        let out = f(id);
        self.close(name, id, parent, start);
        out
    }

    /// A lock-free buffer for one worker thread of a parallel region
    /// run by `workers` threads.
    pub fn local(&self, workers: usize) -> LocalSpans<'_> {
        LocalSpans { tracer: self, weight: 1.0 / workers.max(1) as f64, buf: Vec::new() }
    }

    /// Every span recorded so far, by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span sink lock"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// A worker thread's span buffer, handed to the tracer on drop.
pub struct LocalSpans<'a> {
    tracer: &'a Tracer,
    weight: f64,
    buf: Vec<Span>,
}

impl LocalSpans<'_> {
    /// The tracer's clock.
    pub fn now(&self) -> u64 {
        self.tracer.now()
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.tracer.id()
    }

    /// Records a finished span of run `run` that started at `start_ns`.
    pub fn close(&mut self, name: &'static str, id: u64, parent: u64, run: usize, start_ns: u64) {
        let end_ns = self.tracer.now();
        self.buf.push(Span {
            name,
            id,
            parent,
            run: Some(run),
            start_ns,
            end_ns,
            weight: self.weight,
        });
    }

    /// Runs `f` as a leaf span of run `run`.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        run: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let (id, start) = (self.id(), self.now());
        let out = f();
        self.close(name, id, parent, run, start);
        out
    }
}

impl Drop for LocalSpans<'_> {
    fn drop(&mut self) {
        // A poisoned sink only means another worker panicked; the spans
        // are still valid, so keep them rather than panic in drop.
        let mut sink = self.tracer.spans.lock().unwrap_or_else(|e| e.into_inner());
        sink.append(&mut self.buf);
    }
}

/// The layer a span belongs to: the first dotted component of its name
/// for layer spans, `harness` for the benchmark's structural spans.
pub fn layer(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => "harness",
    }
}

/// Per-span-name totals of a traced pass.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration in thread-seconds.
    pub busy_s: f64,
    /// Summed self time converted to wall-seconds (see [`Span::weight`]).
    pub self_wall_s: f64,
}

/// Totals per span name.
///
/// A span's self time is its duration minus what its children stand for
/// in wall time: a same-thread child covers its own duration, and each
/// of `workers` parallel children covers `1/workers` of its duration.
/// Self times therefore sum to the wall time of the top-level spans,
/// with a parallel region's idle worker time left on the region itself.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_wall: BTreeMap<u64, f64> = BTreeMap::new();
    let weight_of: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.weight)).collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let parent_weight = weight_of.get(&s.parent).copied().unwrap_or(1.0);
        *child_wall.entry(s.parent).or_default() += s.seconds() * s.weight / parent_weight;
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.busy_s += s.seconds();
        let own = (s.seconds() - child_wall.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        entry.self_wall_s += own * s.weight;
    }
    out
}

/// Wall seconds covered by the top-level spans.
pub fn top_level_s(spans: &[Span]) -> f64 {
    spans.iter().filter(|s| s.parent == 0).map(Span::seconds).sum()
}

/// The spans named `root` and everything below them, with the roots
/// made top-level.
pub fn subtree(spans: &[Span], root: &str) -> Vec<Span> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let under_root = |s: &Span| {
        let mut parent = s.parent;
        while let Some(p) = by_id.get(&parent) {
            if p.name == root {
                return true;
            }
            parent = p.parent;
        }
        false
    };
    spans
        .iter()
        .filter_map(|s| {
            if s.name == root {
                Some(Span { parent: 0, ..s.clone() })
            } else {
                under_root(s).then(|| s.clone())
            }
        })
        .collect()
}

/// Renders the spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let run = s.run.map_or("null".to_string(), |r| r.to_string());
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"run\": {run}, \"start_ns\": {}, \
             \"end_ns\": {}, \"weight\": {}}}\n",
            s.name, s.id, s.parent, s.start_ns, s.end_ns, s.weight
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64, weight: f64) -> Span {
        Span { name, id, parent, run: None, start_ns: start, end_ns: end, weight }
    }

    #[test]
    fn self_times_sum_to_the_top_level_wall() {
        // block [0,100] ⊃ prep [0,30] + sweep [30,100]; the sweep runs
        // two workers: runs [30,90] and [30,70] at weight 1/2.
        let spans = vec![
            span("block", 1, 0, 0, 100, 1.0),
            span("nn.train", 2, 1, 0, 30, 1.0),
            span("core.montecarlo.sweep", 3, 1, 30, 100, 1.0),
            span("mc.run", 4, 3, 30, 90, 0.5),
            span("mc.run", 5, 3, 30, 70, 0.5),
            span("nn.eval", 6, 4, 40, 80, 0.5),
        ];
        let t = totals(&spans);
        let sum: f64 = t.values().map(|n| n.self_wall_s).sum();
        assert!((sum - top_level_s(&spans)).abs() < 1e-15, "{sum}");
        // Sweep: 70 ns wall minus (60 + 40)/2 covered by its workers.
        assert!((t["core.montecarlo.sweep"].self_wall_s - 20e-9).abs() < 1e-18);
        assert!((t["nn.eval"].self_wall_s - 20e-9).abs() < 1e-18);
        assert_eq!(t["mc.run"].count, 2);
        let sweep = subtree(&spans, "core.montecarlo.sweep");
        assert_eq!(sweep.len(), 4);
        assert!((top_level_s(&sweep) - 70e-9).abs() < 1e-18);
        assert_eq!(layer("core.montecarlo.sweep"), "core");
        assert_eq!(layer("block"), "harness");
    }

    #[test]
    fn worker_buffers_reach_the_tracer() {
        let tracer = Tracer::default();
        let root = tracer.span("block", 0, |id| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let mut local = tracer.local(2);
                        local.leaf("nn.eval", id, 0, || ());
                    });
                }
            });
            id
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.iter().filter(|s| s.parent == root).count(), 2);
    }
}
