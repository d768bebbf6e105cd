//! The experiment service: job registry, bounded admission, block
//! scheduling onto the shared [`WorkerPool`], cancellation, metrics,
//! and the HTTP routing that exposes it all.
//!
//! # Job lifecycle
//!
//! ```text
//! POST /jobs ── validate ── admit ──► queued ──► running ──► done
//!                  │           │                    │  │
//!                  ▼           ▼                    ▼  ▼
//!                 400     429 (full)          cancelled  failed
//! ```
//!
//! A job's `(model, sigma)` blocks are submitted to the pool the moment
//! the job is admitted; blocks of different jobs interleave freely on
//! the shared workers. Cancellation is cooperative and block-granular:
//! `DELETE /jobs/{id}` flips the job's [`CancelToken`], and every block
//! checks it before starting — a cancelled job therefore stops within
//! at most one in-flight block per worker, exactly the seams the
//! checkpoint journal uses.
//!
//! The engine behind the jobs is abstract ([`JobEngine`]) so the
//! service layer stays free of the experiment crates' heavy
//! dependencies (and unit-testable with a scripted engine); the real
//! implementation lives in `swim-bench`, which also owns the
//! trained-model cache whose counters surface in `/metrics`.

use std::any::Any;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use swim_core::pool::{CancelToken, WorkerPool};
use swim_exp::spec::ExperimentSpec;
use swim_exp::value::Value;
use swim_report::schema::ResultsDoc;

use crate::http::{read_request, HttpError, Request, Response};

/// Opaque per-block result, produced and later consumed only by the
/// engine (the service never looks inside).
pub type BlockPayload = Box<dyn Any + Send>;

/// What one block computation returns to the scheduler.
pub struct BlockOutcome {
    /// Engine-private block result, handed back at assembly.
    pub payload: BlockPayload,
    /// Whether preparation came from the cache (or another block's training).
    pub cache_hit: bool,
    /// Seconds spent training, or waiting for the cached/in-flight model.
    pub prep_seconds: f64,
    /// Seconds spent on the selection/Monte-Carlo sweep.
    pub sweep_seconds: f64,
}

/// The experiment engine the service schedules. Implementations must be
/// callable from many pool workers at once.
pub trait JobEngine: Send + Sync + 'static {
    /// Rejects specs the service cannot run (non-grid kinds, shards).
    fn validate(&self, spec: &ExperimentSpec) -> Result<(), String>;
    /// The `(device model, sigma)` block grid in document order.
    fn grid(&self, spec: &ExperimentSpec) -> Vec<(String, f64)>;
    /// Computes one block.
    fn run_block(
        &self,
        spec: &ExperimentSpec,
        device_model: &str,
        sigma: f64,
    ) -> Result<BlockOutcome, String>;
    /// Assembles the final results document (JSON text) from the block
    /// payloads, given in the same order as [`JobEngine::grid`].
    fn assemble(
        &self,
        spec: &ExperimentSpec,
        payloads: Vec<BlockPayload>,
        wall_time_s: f64,
    ) -> Result<String, String>;
    /// Model-cache `(hits, misses)` counters.
    fn cache_counters(&self) -> (u64, u64);
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the shared pool (0 = one per core).
    pub workers: usize,
    /// Maximum jobs admitted but not yet terminal; beyond it `POST
    /// /jobs` answers 429.
    pub queue_cap: usize,
    /// Request body cap in bytes (413 beyond it).
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 0, queue_cap: 16, max_body_bytes: 1 << 20 }
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted; no block has started yet.
    Queued,
    /// At least one block has started.
    Running,
    /// All blocks computed and the document assembled + validated.
    Done,
    /// A block or the assembly failed.
    Failed,
    /// Cancelled before completion; at least one block was skipped.
    Cancelled,
}

impl JobState {
    /// Stable lowercase key used in JSON and metrics.
    pub fn key(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// Per-block progress states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Pending,
    Running,
    Done,
    Failed,
    Skipped,
}

impl BlockState {
    fn key(&self) -> &'static str {
        match self {
            BlockState::Pending => "pending",
            BlockState::Running => "running",
            BlockState::Done => "done",
            BlockState::Failed => "failed",
            BlockState::Skipped => "skipped",
        }
    }
}

/// Progress record for one `(model, sigma)` block.
struct BlockInfo {
    model: String,
    sigma: f64,
    state: BlockState,
    cache_hit: Option<bool>,
    prep_seconds: f64,
    sweep_seconds: f64,
}

/// One submitted job and everything the API reports about it.
struct Job {
    id: String,
    spec: ExperimentSpec,
    cancel: CancelToken,
    state: Mutex<JobState>,
    blocks: Mutex<Vec<BlockInfo>>,
    payloads: Mutex<Vec<Option<BlockPayload>>>,
    blocks_done: AtomicUsize,
    /// Final results document (JSON), present once `Done`.
    result: Mutex<Option<String>>,
    /// First error, present once `Failed`.
    error: Mutex<Option<String>>,
    submitted_at: Instant,
}

impl Job {
    fn state(&self) -> JobState {
        *self.state.lock().expect("job state lock")
    }

    /// Queued → Running on the first block to start; later states win.
    fn mark_running(&self) {
        let mut state = self.state.lock().expect("job state lock");
        if *state == JobState::Queued {
            *state = JobState::Running;
        }
    }

    fn set_error(&self, message: String) {
        let mut error = self.error.lock().expect("job error lock");
        if error.is_none() {
            *error = Some(message);
        }
    }
}

/// Service-level counters (cache counters live with the engine).
#[derive(Default)]
struct Metrics {
    submitted: AtomicU64,
    rejected: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    /// Seconds ×1e6 (micros), accumulated atomically.
    prep_micros: AtomicU64,
    sweep_micros: AtomicU64,
    assemble_micros: AtomicU64,
}

impl Metrics {
    fn add_seconds(counter: &AtomicU64, seconds: f64) {
        counter.fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
    }

    fn seconds(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// The service: engine + pool + registry + metrics. Routing is a pure
/// function of a [`Request`] (see [`Server::handle`]) so every endpoint
/// is testable without sockets.
pub struct Server {
    engine: Arc<dyn JobEngine>,
    pool: WorkerPool,
    config: ServerConfig,
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    next_id: AtomicU64,
    metrics: Arc<Metrics>,
    started_at: Instant,
}

impl Server {
    /// Builds a server with its own worker pool.
    pub fn new(engine: Arc<dyn JobEngine>, config: ServerConfig) -> Arc<Server> {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.workers
        };
        Arc::new(Server {
            engine,
            pool: WorkerPool::new(workers),
            config,
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            metrics: Arc::new(Metrics::default()),
            started_at: Instant::now(),
        })
    }

    /// Worker threads in the shared pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    // ------------------------------------------------------ routing

    /// Routes one request to its endpoint.
    pub fn handle(self: &Arc<Self>, request: &Request) -> Response {
        let segments: Vec<&str> =
            request.path.trim_matches('/').split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Response::text(200, "ok\n".into()),
            ("GET", ["metrics"]) => Response::text(200, self.render_metrics()),
            ("POST", ["jobs"]) => self.submit(&request.body),
            ("GET", ["jobs", id]) => self.job_status(id),
            ("GET", ["jobs", id, "result"]) => self.job_result(id),
            ("DELETE", ["jobs", id]) => self.cancel_job(id),
            ("POST" | "DELETE", ["metrics" | "healthz"]) | ("PUT" | "PATCH" | "HEAD", _) => {
                error_response(405, "method not allowed")
            }
            _ => {
                error_response(404, &format!("no such route: {} {}", request.method, request.path))
            }
        }
    }

    /// `POST /jobs`: validate, admit under the queue cap, schedule.
    fn submit(self: &Arc<Self>, body: &[u8]) -> Response {
        let text = match std::str::from_utf8(body) {
            Ok(text) => text,
            Err(_) => return error_response(400, "request body is not UTF-8"),
        };
        if text.trim().is_empty() {
            return error_response(400, "request body is empty (want an experiment spec)");
        }
        let spec = match ExperimentSpec::parse_str(text) {
            Ok(spec) => spec,
            Err(e) => return error_response(400, &e.to_string()),
        };
        if let Err(e) = self.engine.validate(&spec) {
            return error_response(400, &e);
        }
        let grid = self.engine.grid(&spec);
        if grid.is_empty() {
            return error_response(400, "spec produces an empty block grid");
        }

        // Admission control: the insert must happen under the same lock
        // as the capacity check, or two racing submits could both pass.
        let job = {
            let mut jobs = self.jobs.lock().expect("jobs lock");
            let pending = jobs.values().filter(|j| !j.state().terminal()).count();
            if pending >= self.config.queue_cap {
                self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return error_response(
                    429,
                    &format!("job queue is full ({pending}/{} pending)", self.config.queue_cap),
                )
                .with_header("retry-after", "1");
            }
            let id = format!("job-{}", self.next_id.fetch_add(1, Ordering::Relaxed));
            let blocks = grid
                .iter()
                .map(|(model, sigma)| BlockInfo {
                    model: model.clone(),
                    sigma: *sigma,
                    state: BlockState::Pending,
                    cache_hit: None,
                    prep_seconds: 0.0,
                    sweep_seconds: 0.0,
                })
                .collect();
            let job = Arc::new(Job {
                id: id.clone(),
                spec,
                cancel: CancelToken::new(),
                state: Mutex::new(JobState::Queued),
                blocks: Mutex::new(blocks),
                payloads: Mutex::new((0..grid.len()).map(|_| None).collect()),
                blocks_done: AtomicUsize::new(0),
                result: Mutex::new(None),
                error: Mutex::new(None),
                submitted_at: Instant::now(),
            });
            jobs.insert(id, Arc::clone(&job));
            job
        };
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);

        for index in 0..grid.len() {
            let engine = Arc::clone(&self.engine);
            let metrics = Arc::clone(&self.metrics);
            let job = Arc::clone(&job);
            self.pool.spawn(move || run_block_task(&*engine, &job, &metrics, index));
        }

        let mut out = Value::table();
        out.set("id", Value::Str(job.id.clone()));
        out.set("state", Value::Str(job.state().key().into()));
        out.set("blocks_total", Value::Int(grid.len() as i64));
        out.set("status_url", Value::Str(format!("/jobs/{}", job.id)));
        out.set("result_url", Value::Str(format!("/jobs/{}/result", job.id)));
        Response::json(201, out.to_json())
    }

    fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs.lock().expect("jobs lock").get(id).cloned()
    }

    /// `GET /jobs/{id}`: state plus per-block progress and provenance.
    fn job_status(&self, id: &str) -> Response {
        let Some(job) = self.job(id) else {
            return error_response(404, &format!("no such job `{id}`"));
        };
        let blocks = job.blocks.lock().expect("job blocks lock");
        let mut out = Value::table();
        out.set("id", Value::Str(job.id.clone()));
        out.set("name", Value::Str(job.spec.name.clone()));
        out.set("state", Value::Str(job.state().key().into()));
        out.set("blocks_total", Value::Int(blocks.len() as i64));
        out.set("blocks_done", Value::Int(job.blocks_done.load(Ordering::SeqCst) as i64));
        out.set(
            "cache_hits",
            Value::Int(blocks.iter().filter(|b| b.cache_hit == Some(true)).count() as i64),
        );
        let rows = blocks
            .iter()
            .map(|b| {
                let mut row = Value::table();
                row.set("model", Value::Str(b.model.clone()));
                row.set("sigma", Value::Float(b.sigma));
                row.set("state", Value::Str(b.state.key().into()));
                if let Some(hit) = b.cache_hit {
                    row.set("cache_hit", Value::Bool(hit));
                }
                if b.state == BlockState::Done {
                    row.set("prep_s", Value::Float(b.prep_seconds));
                    row.set("sweep_s", Value::Float(b.sweep_seconds));
                }
                row
            })
            .collect();
        out.set("blocks", Value::Array(rows));
        if let Some(error) = job.error.lock().expect("job error lock").as_ref() {
            out.set("error", Value::Str(error.clone()));
        }
        Response::json(200, out.to_json())
    }

    /// `GET /jobs/{id}/result`: the v3 results document, once done.
    fn job_result(&self, id: &str) -> Response {
        let Some(job) = self.job(id) else {
            return error_response(404, &format!("no such job `{id}`"));
        };
        match job.state() {
            JobState::Done => {
                let result = job.result.lock().expect("job result lock");
                match result.as_ref() {
                    Some(doc) => Response::json(200, doc.clone()),
                    None => error_response(500, "done job has no stored result"),
                }
            }
            JobState::Failed => {
                let error = job.error.lock().expect("job error lock");
                error_response(
                    500,
                    error.as_deref().unwrap_or("job failed without a recorded error"),
                )
            }
            state => error_response(
                409,
                &format!("job `{id}` is {}; the result exists only once it is done", state.key()),
            ),
        }
    }

    /// `DELETE /jobs/{id}`: flip the cancel token; blocks observe it at
    /// their boundaries.
    fn cancel_job(&self, id: &str) -> Response {
        let Some(job) = self.job(id) else {
            return error_response(404, &format!("no such job `{id}`"));
        };
        let state = job.state();
        let mut out = Value::table();
        out.set("id", Value::Str(job.id.clone()));
        if state.terminal() {
            out.set("state", Value::Str(state.key().into()));
            out.set("note", Value::Str("job already finished; nothing to cancel".into()));
            return Response::json(200, out.to_json());
        }
        job.cancel.cancel();
        out.set("state", Value::Str("cancelling".into()));
        out.set(
            "note",
            Value::Str("cancellation is cooperative; blocks stop at their boundaries".into()),
        );
        Response::json(202, out.to_json())
    }

    /// `GET /metrics`: text exposition of queue, cache, and stage counters
    /// (`swim_prep_cache_*` keep their names until perfbench stops reading them).
    fn render_metrics(&self) -> String {
        let jobs = self.jobs.lock().expect("jobs lock");
        let mut queued = 0usize;
        let mut running = 0usize;
        for job in jobs.values() {
            match job.state() {
                JobState::Queued => queued += 1,
                JobState::Running => running += 1,
                _ => {}
            }
        }
        drop(jobs);
        let (hits, misses) = self.engine.cache_counters();
        let m = &self.metrics;
        let mut out = String::new();
        out.push_str("# swim serve metrics (text format)\n");
        out.push_str(&format!(
            "swim_uptime_seconds {:.3}\n",
            self.started_at.elapsed().as_secs_f64()
        ));
        out.push_str(&format!("swim_pool_workers {}\n", self.pool.workers()));
        out.push_str(&format!("swim_queue_cap {}\n", self.config.queue_cap));
        out.push_str(&format!("swim_queue_depth {}\n", queued + running));
        out.push_str(&format!("swim_jobs_queued {queued}\n"));
        out.push_str(&format!("swim_jobs_running {running}\n"));
        out.push_str(&format!(
            "swim_jobs_submitted_total {}\n",
            m.submitted.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("swim_jobs_rejected_total {}\n", m.rejected.load(Ordering::Relaxed)));
        out.push_str(&format!("swim_jobs_done_total {}\n", m.done.load(Ordering::Relaxed)));
        out.push_str(&format!("swim_jobs_failed_total {}\n", m.failed.load(Ordering::Relaxed)));
        out.push_str(&format!(
            "swim_jobs_cancelled_total {}\n",
            m.cancelled.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("swim_prep_cache_hits_total {hits}\n"));
        out.push_str(&format!("swim_prep_cache_misses_total {misses}\n"));
        out.push_str(&format!(
            "swim_stage_prep_seconds_total {:.6}\n",
            Metrics::seconds(&m.prep_micros)
        ));
        out.push_str(&format!(
            "swim_stage_sweep_seconds_total {:.6}\n",
            Metrics::seconds(&m.sweep_micros)
        ));
        out.push_str(&format!(
            "swim_stage_assemble_seconds_total {:.6}\n",
            Metrics::seconds(&m.assemble_micros)
        ));
        out
    }
}

/// One pool task: compute block `index` of `job` (or skip it when the
/// job is cancelled), and finalize the job when it is the last block.
fn run_block_task(engine: &dyn JobEngine, job: &Job, metrics: &Metrics, index: usize) {
    job.mark_running();
    let (model, sigma) = {
        let blocks = job.blocks.lock().expect("job blocks lock");
        (blocks[index].model.clone(), blocks[index].sigma)
    };

    // The cancellation seam: a flipped token means this block never
    // starts, so a cancelled job stops within one block per worker.
    let failed_or_cancelled =
        job.cancel.is_cancelled() || job.error.lock().expect("job error lock").is_some();
    if failed_or_cancelled {
        job.blocks.lock().expect("job blocks lock")[index].state = BlockState::Skipped;
    } else {
        job.blocks.lock().expect("job blocks lock")[index].state = BlockState::Running;
        match engine.run_block(&job.spec, &model, sigma) {
            Ok(outcome) => {
                Metrics::add_seconds(&metrics.prep_micros, outcome.prep_seconds);
                Metrics::add_seconds(&metrics.sweep_micros, outcome.sweep_seconds);
                job.payloads.lock().expect("job payloads lock")[index] = Some(outcome.payload);
                let mut blocks = job.blocks.lock().expect("job blocks lock");
                blocks[index].state = BlockState::Done;
                blocks[index].cache_hit = Some(outcome.cache_hit);
                blocks[index].prep_seconds = outcome.prep_seconds;
                blocks[index].sweep_seconds = outcome.sweep_seconds;
            }
            Err(message) => {
                job.blocks.lock().expect("job blocks lock")[index].state = BlockState::Failed;
                job.set_error(format!("block ({model}, sigma={sigma}) failed: {message}"));
            }
        }
    }

    let total = job.blocks.lock().expect("job blocks lock").len();
    let done = job.blocks_done.fetch_add(1, Ordering::SeqCst) + 1;
    if done == total {
        finalize_job(engine, job, metrics);
    }
}

/// Runs exactly once, by whichever block task finished last.
fn finalize_job(engine: &dyn JobEngine, job: &Job, metrics: &Metrics) {
    let error = job.error.lock().expect("job error lock").clone();
    let new_state = if error.is_some() {
        metrics.failed.fetch_add(1, Ordering::Relaxed);
        JobState::Failed
    } else if job.cancel.is_cancelled() {
        metrics.cancelled.fetch_add(1, Ordering::Relaxed);
        JobState::Cancelled
    } else {
        let payloads: Vec<BlockPayload> = job
            .payloads
            .lock()
            .expect("job payloads lock")
            .iter_mut()
            .map(|slot| slot.take().expect("every block stored a payload"))
            .collect();
        let assembly_start = Instant::now();
        let wall_time_s = job.submitted_at.elapsed().as_secs_f64();
        match engine.assemble(&job.spec, payloads, wall_time_s) {
            Ok(json) => {
                Metrics::add_seconds(
                    &metrics.assemble_micros,
                    assembly_start.elapsed().as_secs_f64(),
                );
                // The document the service hands out must be a valid v3
                // results document — validate through the strict parser
                // before anyone can fetch it.
                match ResultsDoc::parse_str(&json) {
                    Ok(_) => {
                        *job.result.lock().expect("job result lock") = Some(json);
                        metrics.done.fetch_add(1, Ordering::Relaxed);
                        JobState::Done
                    }
                    Err(e) => {
                        job.set_error(format!("assembled document failed validation: {e}"));
                        metrics.failed.fetch_add(1, Ordering::Relaxed);
                        JobState::Failed
                    }
                }
            }
            Err(message) => {
                job.set_error(format!("assembly failed: {message}"));
                metrics.failed.fetch_add(1, Ordering::Relaxed);
                JobState::Failed
            }
        }
    };
    *job.state.lock().expect("job state lock") = new_state;
}

/// Uniform JSON error body.
fn error_response(status: u16, message: &str) -> Response {
    let mut out = Value::table();
    out.set("error", Value::Str(message.into()));
    Response::json(status, out.to_json())
}

// ------------------------------------------------------------ transport

/// Accept loop: one thread per connection (connections are short-lived
/// — every response closes), compute stays on the worker pool.
///
/// Returns only when the listener itself fails.
pub fn serve_forever(server: Arc<Server>, listener: TcpListener) -> std::io::Error {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let server = Arc::clone(&server);
                let _ = std::thread::Builder::new()
                    .name("swim-serve-conn".into())
                    .spawn(move || handle_connection(&server, stream));
            }
            Err(e) => return e,
        }
    }
}

/// Reads one request, routes it, writes one response, closes.
fn handle_connection(server: &Arc<Server>, mut stream: TcpStream) {
    // A stalled peer must not pin the connection thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = &stream;
    let response = match read_request(&mut reader, server.config.max_body_bytes) {
        Ok(request) => server.handle(&request),
        Err(HttpError::Malformed(message)) => error_response(400, &message),
        Err(e @ HttpError::BodyTooLarge { .. }) => error_response(413, &e.to_string()),
        Err(HttpError::Io(_)) => return, // nothing sensible to answer
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// A scripted engine: every spec has a 2-block grid; each block
    /// waits for a tick on a channel before finishing, making queue and
    /// cancellation states deterministic.
    struct MockEngine {
        gate: Mutex<Receiver<()>>,
        hits: AtomicU64,
        misses: AtomicU64,
    }

    impl MockEngine {
        fn gated() -> (Arc<MockEngine>, Sender<()>) {
            let (tx, rx) = channel();
            let engine = Arc::new(MockEngine {
                gate: Mutex::new(rx),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            });
            (engine, tx)
        }
    }

    impl JobEngine for MockEngine {
        fn validate(&self, spec: &ExperimentSpec) -> Result<(), String> {
            if spec.name == "reject-me" {
                return Err("engine rejects this spec".into());
            }
            Ok(())
        }

        fn grid(&self, _spec: &ExperimentSpec) -> Vec<(String, f64)> {
            vec![("rram-gaussian".into(), 0.05), ("rram-gaussian".into(), 0.1)]
        }

        fn run_block(
            &self,
            _spec: &ExperimentSpec,
            _model: &str,
            sigma: f64,
        ) -> Result<BlockOutcome, String> {
            // Block until the test releases a tick.
            self.gate.lock().expect("gate lock").recv().map_err(|e| e.to_string())?;
            self.misses.fetch_add(1, Ordering::Relaxed);
            Ok(BlockOutcome {
                payload: Box::new(sigma),
                cache_hit: false,
                prep_seconds: 0.0,
                sweep_seconds: 0.0,
            })
        }

        fn assemble(
            &self,
            spec: &ExperimentSpec,
            payloads: Vec<BlockPayload>,
            _wall_time_s: f64,
        ) -> Result<String, String> {
            // Not a real results document: tests that reach assembly
            // assert the *failure* path (validation must reject this).
            Ok(format!("{{\"name\": \"{}\", \"blocks\": {}}}", spec.name, payloads.len()))
        }

        fn cache_counters(&self) -> (u64, u64) {
            (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
        }
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request { method: method.into(), path: path.into(), body: body.as_bytes().to_vec() }
    }

    fn spec_json(name: &str) -> String {
        format!("{{\"name\": \"{name}\", \"montecarlo\": {{\"runs\": 2}}}}")
    }

    fn wait_for_state(server: &Arc<Server>, id: &str, want: &str) {
        for _ in 0..500 {
            let status = server.handle(&request("GET", &format!("/jobs/{id}"), ""));
            if body_field(&status, "state") == want {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never reached state {want}");
    }

    fn body_field(response: &Response, key: &str) -> String {
        let text = String::from_utf8(response.body.clone()).unwrap();
        let tree = swim_exp::value::parse_json(&text).expect("json body");
        tree.get(key).and_then(|v| v.as_str()).unwrap_or_default().to_string()
    }

    #[test]
    fn unknown_route_is_404_and_bad_method_405() {
        let (engine, _tx) = MockEngine::gated();
        let server = Server::new(engine, ServerConfig::default());
        assert_eq!(server.handle(&request("GET", "/nope", "")).status, 404);
        assert_eq!(server.handle(&request("GET", "/jobs/x/result/extra", "")).status, 404);
        assert_eq!(server.handle(&request("PUT", "/jobs", "")).status, 405);
        assert_eq!(server.handle(&request("GET", "/healthz", "")).status, 200);
    }

    #[test]
    fn malformed_spec_is_400_with_the_parser_error() {
        let (engine, _tx) = MockEngine::gated();
        let server = Server::new(engine, ServerConfig::default());
        // Unknown key: the strict parser's full-path message must
        // surface verbatim in the error body.
        let response = server.handle(&request("POST", "/jobs", "{\"training\": {\"sample\": 10}}"));
        assert_eq!(response.status, 400);
        let error = body_field(&response, "error");
        assert!(error.contains("unknown key `training.sample`"), "{error}");
        // Engine-level rejection also maps to 400.
        let response = server.handle(&request("POST", "/jobs", &spec_json("reject-me")));
        assert_eq!(response.status, 400);
        assert!(body_field(&response, "error").contains("engine rejects"), "engine veto");
        // Non-UTF-8 and empty bodies.
        let bad = Request { method: "POST".into(), path: "/jobs".into(), body: vec![0xff, 0xfe] };
        assert_eq!(server.handle(&bad).status, 400);
        assert_eq!(server.handle(&request("POST", "/jobs", "  ")).status, 400);
    }

    #[test]
    fn full_queue_answers_429_with_retry_after() {
        let (engine, tx) = MockEngine::gated();
        let server = Server::new(
            engine,
            ServerConfig { workers: 1, queue_cap: 1, ..ServerConfig::default() },
        );
        let first = server.handle(&request("POST", "/jobs", &spec_json("occupant")));
        assert_eq!(first.status, 201);
        // The queue (cap 1) now holds a non-terminal job: reject.
        let second = server.handle(&request("POST", "/jobs", &spec_json("turned-away")));
        assert_eq!(second.status, 429);
        assert!(
            second.extra_headers.iter().any(|(k, v)| *k == "retry-after" && v == "1"),
            "429 must carry retry-after"
        );
        let metrics = server.handle(&request("GET", "/metrics", ""));
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("swim_jobs_rejected_total 1"), "{text}");
        assert!(text.contains("swim_queue_depth 1"), "{text}");
        // Release the two gated blocks so worker threads can exit.
        tx.send(()).unwrap();
        tx.send(()).unwrap();
    }

    #[test]
    fn cancelled_job_skips_remaining_blocks_and_reports_cancelled() {
        let (engine, tx) = MockEngine::gated();
        // One worker ⇒ strictly serial blocks: block 1 holds at the
        // gate, the cancel lands, block 2 must then be skipped.
        let server = Server::new(engine, ServerConfig { workers: 1, ..ServerConfig::default() });
        let created = server.handle(&request("POST", "/jobs", &spec_json("doomed")));
        assert_eq!(created.status, 201);
        let id = body_field(&created, "id");
        wait_for_state(&server, &id, "running");

        let cancel = server.handle(&request("DELETE", &format!("/jobs/{id}"), ""));
        assert_eq!(cancel.status, 202);
        tx.send(()).unwrap(); // let the in-flight block finish
        wait_for_state(&server, &id, "cancelled");

        let status = server.handle(&request("GET", &format!("/jobs/{id}"), ""));
        let text = String::from_utf8(status.body).unwrap();
        let tree = swim_exp::value::parse_json(&text).unwrap();
        let states: Vec<String> = tree
            .get("blocks")
            .and_then(|b| b.as_array())
            .unwrap()
            .iter()
            .map(|row| row.get("state").and_then(|s| s.as_str()).unwrap().to_string())
            .collect();
        assert!(states.contains(&"skipped".to_string()), "one block must be skipped: {states:?}");
        // The result endpoint refuses.
        let result = server.handle(&request("GET", &format!("/jobs/{id}/result"), ""));
        assert_eq!(result.status, 409);
        // A second DELETE reports the terminal state idempotently.
        let again = server.handle(&request("DELETE", &format!("/jobs/{id}"), ""));
        assert_eq!(again.status, 200);
        let metrics = server.handle(&request("GET", "/metrics", ""));
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("swim_jobs_cancelled_total 1"), "{text}");
    }

    #[test]
    fn invalid_assembled_document_fails_the_job() {
        // The mock engine assembles junk; the server-side strict
        // validation must park the job in `failed`, and the result
        // endpoint must answer 500 with the recorded error.
        let (engine, tx) = MockEngine::gated();
        let server = Server::new(engine, ServerConfig { workers: 1, ..ServerConfig::default() });
        let created = server.handle(&request("POST", "/jobs", &spec_json("junk-doc")));
        let id = body_field(&created, "id");
        tx.send(()).unwrap();
        tx.send(()).unwrap();
        wait_for_state(&server, &id, "failed");
        let result = server.handle(&request("GET", &format!("/jobs/{id}/result"), ""));
        assert_eq!(result.status, 500);
        assert!(body_field(&result, "error").contains("failed validation"));
        let missing = server.handle(&request("GET", "/jobs/job-999", ""));
        assert_eq!(missing.status, 404);
    }
}
