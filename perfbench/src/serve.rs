//! The `serve-zoo` workload: a closed loop of two clients against an
//! in-process `swim serve` (`swim_serve::Server` + `ServiceEngine`) on
//! loopback HTTP.
//!
//! The listener loop is the benchmark's own copy of `serve_forever`'s
//! (accept, one thread per connection, `read_request` → `Server::handle`
//! → `Response::write_to`) because `serve_forever` never returns: the
//! benchmark must start several servers to time set-up, and stop and
//! join every thread it starts.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swim_bench::cli::{apply_gemm_flags, Args};
use swim_bench::service::ServiceEngine;
use swim_exp::spec::ExperimentSpec;
use swim_exp::value::{parse_json, Value};
use swim_report::schema::ResultsDoc;
use swim_serve::http::read_request;
use swim_serve::{Server, ServerConfig};

use crate::batch::{
    check_cim_counts, normalized, repeat_setup, runs_in, timed_run_spec, traced_and_checked,
    user_options,
};
use crate::metrics::Values;
use crate::pipeline::Counts;
use crate::report::{layer_values, median, percentile, Outcome};
use crate::trace::Tracer;
use crate::workload::{
    serve_job_spec, serve_script, ServeJob, SERVE_BLOCKS, SERVE_SUFFIX_COUNT, WORKERS,
};

/// Concurrent clients of the closed loop (at most one connection each).
const CLIENTS: usize = 2;

/// Admission bound of the server (the `swim serve` default).
const QUEUE_CAP: usize = 16;

/// Request body cap (the `swim serve` default).
const MAX_BODY: usize = 1 << 20;

/// Pause between two status polls of one job.
const POLL: Duration = Duration::from_millis(5);

/// A job still running after this long fails the run (a hung server
/// must not hang the benchmark).
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Read timeout of one HTTP exchange.
const HTTP_TIMEOUT: Duration = Duration::from_secs(30);

/// Length of the job script; far more than one run submits.
const SCRIPT_LEN: usize = 4096;

/// An in-process server on an ephemeral loopback port.
struct LiveServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl LiveServer {
    fn start(gemm_threads: usize, gemm_block: usize) -> Result<LiveServer, String> {
        let engine = Arc::new(ServiceEngine::new(gemm_threads, gemm_block));
        let config =
            ServerConfig { workers: WORKERS, queue_cap: QUEUE_CAP, max_body_bytes: MAX_BODY };
        let server = Server::new(engine, config);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("perfbench-accept".into())
                .spawn(move || accept_loop(&server, &listener, &stop))
                .map_err(|e| format!("spawn accept loop: {e}"))?
        };
        Ok(LiveServer { addr, stop, accept: Some(accept) })
    }

    /// Stops accepting, joins every connection thread, and drops the
    /// server (which joins its worker pool).
    fn shutdown(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept so it sees the flag.
            let _ = TcpStream::connect(self.addr);
            if accept.join().is_err() {
                eprintln!("[perfbench] accept loop panicked");
            }
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(server: &Arc<Server>, listener: &TcpListener, stop: &AtomicBool) {
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            scope.spawn(move || {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                let mut reader = &stream;
                if let Ok(request) = read_request(&mut reader, MAX_BODY) {
                    let _ = server.handle(&request).write_to(&mut stream);
                }
            });
        }
    });
}

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(HTTP_TIMEOUT)).map_err(io)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .map_err(io)?;
    stream.write_all(body).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let text = String::from_utf8(raw).map_err(|_| format!("{method} {path}: non-UTF-8 reply"))?;
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or_else(|| format!("{method} {path}: no header end"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

fn json_field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value.get(key).ok_or_else(|| format!("reply has no `{key}`: {}", value.to_json()))
}

/// Submits a spec; returns the job id, or the HTTP status of a refusal.
fn submit(addr: SocketAddr, toml: &str) -> Result<Result<String, u16>, String> {
    let (status, body) = http(addr, "POST", "/jobs", toml.as_bytes())?;
    if status != 201 {
        return Ok(Err(status));
    }
    let reply = parse_json(&body)?;
    Ok(Ok(json_field(&reply, "id")?.as_str().ok_or("job id is not a string")?.to_string()))
}

/// Polls a job to a terminal state; returns its final status object.
fn wait(addr: SocketAddr, id: &str) -> Result<Value, String> {
    let start = Instant::now();
    loop {
        if start.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {id} still running after {JOB_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL);
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), b"")?;
        if status != 200 {
            return Err(format!("GET /jobs/{id} answered {status}"));
        }
        let reply = parse_json(&body)?;
        if matches!(json_field(&reply, "state")?.as_str(), Some("done" | "failed" | "cancelled")) {
            return Ok(reply);
        }
    }
}

/// `/metrics` as name → value.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = http(addr, "GET", "/metrics", b"")?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| v.trim().parse().ok().map(|v| (k.to_string(), v)))
        .collect())
}

/// The distinct jobs of the workload, with their specs and request
/// bodies, indexed `block · SERVE_SUFFIX_COUNT + suffix`.
struct Catalogue {
    jobs: Vec<(ExperimentSpec, String)>,
}

impl Catalogue {
    fn new(seed: u64) -> Catalogue {
        let jobs = (0..SERVE_BLOCKS)
            .flat_map(|block| (0..SERVE_SUFFIX_COUNT).map(move |suffix| ServeJob { block, suffix }))
            .map(|job| {
                let spec = serve_job_spec(seed, job);
                let toml = spec.to_toml();
                (spec, toml)
            })
            .collect();
        Catalogue { jobs }
    }

    fn index(job: ServeJob) -> usize {
        job.block * SERVE_SUFFIX_COUNT + job.suffix
    }
}

/// Starts a server and fills its prepared-model cache: one job per
/// distinct preparation, all submitted at once.
fn start_warm(catalogue: &Catalogue, gemm: (usize, usize)) -> Result<LiveServer, String> {
    let server = LiveServer::start(gemm.0, gemm.1)?;
    let mut ids = Vec::new();
    for block in 0..SERVE_BLOCKS {
        let (_, toml) = &catalogue.jobs[Catalogue::index(ServeJob { block, suffix: 0 })];
        ids.push(submit(server.addr, toml)?.map_err(|s| format!("warm-up job refused ({s})"))?);
    }
    for id in ids {
        let status = wait(server.addr, &id)?;
        if json_field(&status, "state")?.as_str() != Some("done") {
            return Err(format!("warm-up job {id} did not finish: {}", status.to_json()));
        }
    }
    Ok(server)
}

/// What the closed loop observed.
#[derive(Default)]
struct LoopStats {
    latencies: Vec<f64>,
    overheads: Vec<f64>,
    runs_done: u64,
    submitted: u64,
    refused: u64,
    not_done: u64,
    /// First served document of every distinct job, by catalogue index.
    docs: HashMap<usize, String>,
    errors: Vec<String>,
}

/// One job of the loop: submit, poll to a terminal state, fetch.
fn one_job(
    addr: SocketAddr,
    catalogue: &Catalogue,
    job: ServeJob,
    stats: &Mutex<LoopStats>,
) -> Result<(), String> {
    let (spec, toml) = &catalogue.jobs[Catalogue::index(job)];
    let start = Instant::now();
    let submitted = submit(addr, toml)?;
    let mut s = stats.lock().expect("loop stats lock");
    s.submitted += 1;
    let id = match submitted {
        Ok(id) => id,
        Err(_) => {
            s.refused += 1;
            return Ok(());
        }
    };
    drop(s);
    let status = wait(addr, &id)?;
    let latency = start.elapsed().as_secs_f64();
    if json_field(&status, "state")?.as_str() != Some("done") {
        stats.lock().expect("loop stats lock").not_done += 1;
        return Ok(());
    }
    let compute: f64 = json_field(&status, "blocks")?
        .as_array()
        .ok_or("blocks is not an array")?
        .iter()
        .map(|b| {
            let field = |k: &str| b.get(k).and_then(Value::as_float).unwrap_or(0.0);
            field("prep_s") + field("sweep_s")
        })
        .sum();
    let (code, doc) = http(addr, "GET", &format!("/jobs/{id}/result"), b"")?;
    if code != 200 {
        return Err(format!("GET /jobs/{id}/result answered {code}"));
    }
    let mut s = stats.lock().expect("loop stats lock");
    s.latencies.push(latency);
    s.overheads.push(latency - compute);
    s.runs_done += runs_in(spec);
    s.docs.entry(Catalogue::index(job)).or_insert(doc);
    Ok(())
}

/// Runs the closed loop for `seconds`: each client submits its next
/// job only after the previous one was fetched. Returns the stats and
/// the loop's wall time.
fn closed_loop(
    addr: SocketAddr,
    catalogue: &Catalogue,
    script: &[ServeJob],
    seconds: f64,
) -> (LoopStats, f64) {
    let stats = Mutex::new(LoopStats::default());
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                while start.elapsed().as_secs_f64() < seconds {
                    let job = script[next.fetch_add(1, Ordering::Relaxed) % script.len()];
                    if let Err(e) = one_job(addr, catalogue, job, &stats) {
                        let mut s = stats.lock().expect("loop stats lock");
                        s.not_done += 1;
                        s.errors.push(e);
                    }
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (stats.into_inner().expect("loop stats lock"), wall)
}

/// Serve-side metrics of a loop: tail latency, throughput, overhead
/// beyond the block compute, cache hits and refusals in the loop.
fn serve_values(
    stats: &LoopStats,
    loop_wall: f64,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> Values {
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let (hits, misses) =
        (delta("swim_prep_cache_hits_total"), delta("swim_prep_cache_misses_total"));
    let mut v = Values::new();
    v.insert("serve.job_latency_p50_s", median(&stats.latencies));
    v.insert("serve.job_latency_p90_s", percentile(&stats.latencies, 0.9));
    v.insert("serve.latency_samples", stats.latencies.len() as f64);
    v.insert("serve.jobs_per_s", stats.latencies.len() as f64 / loop_wall);
    v.insert("serve.overhead_s", median(&stats.overheads));
    v.insert(
        "serve.prep_cache.hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
    );
    v.insert("serve.rejected", delta("swim_jobs_rejected_total"));
    v
}

/// Served documents must equal `run_spec`'s for the same spec, apart
/// from wall time. Returns the reference documents and their walls.
fn check_served_docs(
    catalogue: &Catalogue,
    stats: &LoopStats,
    out: &mut Outcome,
) -> Result<Vec<(usize, ResultsDoc, f64)>, String> {
    let mut keys: Vec<usize> = stats.docs.keys().copied().collect();
    keys.sort_unstable();
    let mut references = Vec::new();
    for key in keys {
        let (spec, _) = &catalogue.jobs[key];
        let (result, wall) = timed_run_spec(spec, &user_options(spec)?);
        let reference = result.map_err(|e| format!("reference run_spec failed: {e}"))?;
        let served = ResultsDoc::parse_str(&stats.docs[&key])
            .map_err(|e| format!("served document does not parse: {e}"))?;
        if normalized(&served) != normalized(&reference) {
            out.mismatch(&format!(
                "served document of job {key} differs from run_spec beyond wall_time_s"
            ));
        }
        references.push((key, reference, wall.as_secs_f64()));
    }
    if references.len() < catalogue.jobs.len() {
        out.note(format!(
            "{} of {} distinct jobs were served and checked",
            references.len(),
            catalogue.jobs.len()
        ));
    }
    Ok(references)
}

/// Runs the workload; `traced` adds the traced re-drive of every
/// distinct job for the per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    // `swim serve`'s process-wide tuning: blocks sweep serially, so the
    // GEMMs get one thread each (the pool already fills the cores).
    let args = Args::try_parse_from(std::iter::empty::<String>())?;
    let gemm = apply_gemm_flags(&args, WORKERS)?;
    let catalogue = Catalogue::new(seed);
    let script = serve_script(seed, SCRIPT_LEN);
    let mut out = Outcome::default();

    // Each set-up starts a fresh server; dropping the previous one stops
    // and joins it. The traced pass needs one server only.
    let mut live = None;
    let mut setup = || -> Result<f64, String> {
        drop(live.take());
        let start = Instant::now();
        live = Some(start_warm(&catalogue, gemm)?);
        Ok(start.elapsed().as_secs_f64())
    };
    let setups = if traced { vec![setup()?] } else { repeat_setup(setup)? };
    let mut server = live.ok_or("no server started")?;
    let before = scrape(server.addr)?;
    let (stats, loop_wall) = closed_loop(server.addr, &catalogue, &script, seconds);
    let after = scrape(server.addr)?;
    server.shutdown();

    out.attempted = stats.submitted;
    out.failed = stats.refused + stats.not_done;
    for e in &stats.errors {
        out.mismatch(&format!("job error: {e}"));
    }
    if stats.latencies.is_empty() {
        return Err("no job completed in the timed loop".into());
    }
    let serve = serve_values(&stats, loop_wall, &before, &after);
    let references = check_served_docs(&catalogue, &stats, &mut out)?;

    if !traced {
        out.values.insert("wall_s", median(&stats.latencies));
        out.values.insert("setup_s", median(&setups));
        out.printed.insert("runs_per_s", stats.runs_done as f64 / loop_wall);
        for (printed, traced_name) in [
            ("job_latency_p50_s", "serve.job_latency_p50_s"),
            ("job_latency_p90_s", "serve.job_latency_p90_s"),
            ("job_latency_samples", "serve.latency_samples"),
            ("jobs_per_s", "serve.jobs_per_s"),
        ] {
            out.printed.insert(printed, serve[traced_name]);
        }
        return Ok(out);
    }

    // Traced re-drive of every served distinct job (serial inside the
    // block, as the spec says and the service runs it), checked against
    // run_spec.
    let tracer = Tracer::default();
    let counts = Counts::default();
    let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
    let mut last = None;
    for (key, reference, wall) in &references {
        let (spec, _) = &catalogue.jobs[*key];
        let first = Counts::default();
        let (run, traced_s) = traced_and_checked(spec, None, &tracer, &first, reference, &mut out)?;
        let repeat = Counts::default();
        traced_and_checked(spec, None, &Tracer::default(), &repeat, reference, &mut out)?;
        check_cim_counts(&first, &repeat, &mut out);
        counts.absorb(&first);
        traced_wall += traced_s;
        untraced_wall += wall;
        last = Some((run, spec));
    }
    let (run, spec) = last.ok_or("no distinct job was served")?;
    let spans = tracer.take();
    let docs: Vec<ResultsDoc> = references.into_iter().map(|(_, doc, _)| doc).collect();
    let mut values = layer_values(
        &spans,
        Some("sweep"),
        &run,
        &counts,
        spec,
        traced_wall,
        untraced_wall,
        &docs,
    )?;
    values.extend(serve);
    out.values = values;
    out.spans = spans;
    Ok(out)
}
