//! End-to-end test of the experiment service on the real engine: the
//! document served over `GET /jobs/{id}/result` must be byte-identical
//! to what `swim run` writes for the same spec (modulo `wall_time_s`),
//! and every block of every job with one training prefix must share a
//! single training — visible in both `/metrics` and the per-block job
//! provenance.
//!
//! The requests go through [`Server::handle`] directly (the routing,
//! scheduling, and assembly layers); the raw-socket path is covered by
//! the serve crate's parser tests, the CI smoke, and the hostile-body
//! test below.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use swim_bench::cli::Args;
use swim_bench::experiment::{options_from_args, run_spec};
use swim_bench::service::ServiceEngine;
use swim_exp::spec::ExperimentSpec;
use swim_exp::value::{parse_json, Value};
use swim_report::schema::ResultsDoc;
use swim_serve::{serve_forever, Request, Response, Server, ServerConfig};

/// Two (model, sigma) blocks on a tiny training/Monte Carlo budget —
/// enough to exercise scheduling, assembly order, and the cache without
/// making the test slow.
const SPEC: &str = r#"
name = "serve-e2e"
kind = "sweep"
seed = 11

[scenario]
model = "lenet-mnist"

[device]
tech = "rram"
sigmas = [0.1, 0.15]

[training]
samples = 300
epochs = 1

[selection]
methods = ["swim", "magnitude"]
insitu = false

[sweep]
fractions = [0.0, 1.0]

[montecarlo]
runs = 2
"#;

fn request(method: &str, path: &str, body: &[u8]) -> Request {
    Request { method: method.into(), path: path.into(), body: body.to_vec() }
}

fn body_json(response: &Response) -> Value {
    let text = std::str::from_utf8(&response.body).expect("utf-8 body");
    parse_json(text).unwrap_or_else(|e| panic!("body is not JSON ({e}): {text}"))
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value.get(key).unwrap_or_else(|| panic!("missing `{key}` in {}", value.to_json()))
}

/// Polls the job until it reaches a terminal state, returning the final
/// status body.
fn wait_terminal(server: &Arc<Server>, id: &str) -> Value {
    for _ in 0..1200 {
        let response = server.handle(&request("GET", &format!("/jobs/{id}"), b""));
        assert_eq!(response.status, 200);
        let status = body_json(&response);
        match field(&status, "state").as_str() {
            Some("done") | Some("failed") | Some("cancelled") => return status,
            _ => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    }
    panic!("job {id} did not finish");
}

/// The document with its wall time zeroed — the one field that may
/// legitimately differ between the served and CLI paths.
fn normalized(doc_json: &str) -> String {
    let mut doc = ResultsDoc::parse_str(doc_json).expect("valid results document");
    doc.wall_time_s = 0.0;
    doc.to_json()
}

#[test]
fn served_document_matches_run_and_resubmission_hits_the_cache() {
    let spec = ExperimentSpec::parse_str(SPEC).expect("test spec parses");

    // The reference: the exact document `swim run` would emit.
    let args = Args::try_parse_from(std::iter::empty::<String>()).expect("empty args");
    let opts = options_from_args(&spec, &args).expect("run options");
    let reference = run_spec(&spec, &opts).expect("reference run");

    let engine =
        Arc::new(ServiceEngine::new(opts.tuning.gemm_threads, opts.tuning.gemm_block_cols));
    let server = Server::new(engine, ServerConfig { workers: 2, ..ServerConfig::default() });

    // First submission: the two sigma blocks share one training prefix,
    // so exactly one of them trains (miss) and the other reuses or waits
    // for that training (hit).
    let created = server.handle(&request("POST", "/jobs", SPEC.as_bytes()));
    assert_eq!(created.status, 201, "{}", String::from_utf8_lossy(&created.body));
    let id = field(&body_json(&created), "id").as_str().expect("job id").to_string();
    let status = wait_terminal(&server, &id);
    assert_eq!(field(&status, "state").as_str(), Some("done"), "{}", status.to_json());
    let blocks = field(&status, "blocks").as_array().expect("blocks array");
    assert_eq!(blocks.len(), 2);
    let hits: Vec<bool> =
        blocks.iter().map(|b| field(b, "cache_hit").as_bool().expect("cache_hit")).collect();
    assert_eq!(hits.iter().filter(|&&h| h).count(), 1, "{}", status.to_json());

    let served = server.handle(&request("GET", &format!("/jobs/{id}/result"), b""));
    assert_eq!(served.status, 200);
    let served_doc = String::from_utf8(served.body).expect("utf-8 document");
    assert_eq!(
        normalized(&served_doc),
        normalized(&reference.to_json()),
        "served document differs from `swim run` beyond wall_time_s"
    );

    // Resubmission: the same spec prefix — every block must reuse the
    // cached preparation (no training) and still produce the identical
    // document.
    let resubmitted = server.handle(&request("POST", "/jobs", SPEC.as_bytes()));
    assert_eq!(resubmitted.status, 201);
    let id2 = field(&body_json(&resubmitted), "id").as_str().expect("job id").to_string();
    assert_ne!(id, id2);
    let status2 = wait_terminal(&server, &id2);
    assert_eq!(field(&status2, "state").as_str(), Some("done"), "{}", status2.to_json());
    for block in field(&status2, "blocks").as_array().expect("blocks array") {
        assert_eq!(field(block, "cache_hit").as_bool(), Some(true), "{}", block.to_json());
    }
    assert_eq!(field(&status2, "cache_hits").as_int(), Some(2));

    let served2 = server.handle(&request("GET", &format!("/jobs/{id2}/result"), b""));
    assert_eq!(served2.status, 200);
    let served_doc2 = String::from_utf8(served2.body).expect("utf-8 document");
    assert_eq!(normalized(&served_doc2), normalized(&served_doc));

    // The cache traffic is visible in /metrics: 1 miss + 1 hit (first
    // job), 2 hits (resubmission).
    let metrics = server.handle(&request("GET", "/metrics", b""));
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).expect("utf-8 metrics");
    assert!(text.contains("swim_prep_cache_hits_total 3"), "{text}");
    assert!(text.contains("swim_prep_cache_misses_total 1"), "{text}");
    assert!(text.contains("swim_jobs_done_total 2"), "{text}");
}

/// Concurrent jobs that share a training prefix but differ in device
/// model, sigma grid and sweep suffix train exactly once between them:
/// the first block to arrive trains, every other block waits for that
/// trainer or reuses its result.
#[test]
fn concurrent_submissions_sharing_a_training_prefix_train_once() {
    let engine = Arc::new(ServiceEngine::new(1, 0));
    let server = Server::new(engine, ServerConfig { workers: 2, ..ServerConfig::default() });
    let variants = [
        SPEC.to_string(),
        SPEC.replace("tech = \"rram\"", "tech = \"rram\"\nmodel = [\"sram-vt\"]"),
        SPEC.replace("fractions = [0.0, 1.0]", "fractions = [0.5]")
            .replace("sigmas = [0.1, 0.15]", "sigmas = [0.2]"),
    ];
    let ids: Vec<String> = variants
        .iter()
        .map(|spec| {
            let created = server.handle(&request("POST", "/jobs", spec.as_bytes()));
            assert_eq!(created.status, 201, "{}", String::from_utf8_lossy(&created.body));
            field(&body_json(&created), "id").as_str().expect("job id").to_string()
        })
        .collect();
    for id in &ids {
        let status = wait_terminal(&server, id);
        assert_eq!(field(&status, "state").as_str(), Some("done"), "{}", status.to_json());
    }
    let metrics = server.handle(&request("GET", "/metrics", b""));
    let text = String::from_utf8(metrics.body).expect("utf-8 metrics");
    assert!(text.contains("swim_prep_cache_misses_total 1\n"), "{text}");
    assert!(text.contains("swim_prep_cache_hits_total 4\n"), "{text}");
}

/// One raw HTTP/1.1 exchange over a fresh connection; returns the
/// status code.
fn raw_status(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    let status = reply.split_whitespace().nth(1).unwrap_or_else(|| panic!("no status: {reply}"));
    status.parse().expect("numeric status")
}

/// A ~800 KB `POST /jobs` body whose value nests 400,000 arrays is
/// refused with 400 on its connection thread — it used to overflow that
/// thread's stack and abort the whole server — and the server keeps
/// answering afterwards.
#[test]
fn hostile_nested_body_gets_400_and_the_server_keeps_answering() {
    let engine = Arc::new(ServiceEngine::new(1, 0));
    let server = Server::new(engine, ServerConfig { workers: 1, ..ServerConfig::default() });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || serve_forever(server, listener));

    let body = format!("x = {}1{}", "[".repeat(400_000), "]".repeat(400_000));
    assert!(body.len() < ServerConfig::default().max_body_bytes, "under the body cap");
    assert_eq!(raw_status(addr, "POST", "/jobs", body.as_bytes()), 400);
    assert_eq!(raw_status(addr, "GET", "/healthz", b""), 200);
    assert_eq!(raw_status(addr, "GET", "/metrics", b""), 200);
}

/// The service assumes one SIMD backend for the process lifetime: a spec
/// whose `run.simd` names another backend is rejected at submission
/// (400) instead of switched to, an agreeing spec is accepted, and the
/// removed `[tune]` section is an unknown key.
#[test]
fn pinned_host_rejects_a_spec_naming_another_simd_backend() {
    use swim_serve::server::JobEngine;
    let engine = Arc::new(ServiceEngine::new(1, 0));
    let active = swim_tensor::simd::backend().name();
    let other = if active == "scalar" { "avx2" } else { "scalar" };

    let mut agreeing = ExperimentSpec::parse_str(SPEC).expect("test spec parses");
    agreeing.apply_set(&format!("simd={active}")).unwrap();
    assert!(engine.validate(&agreeing).is_ok());

    let mut contradicting = ExperimentSpec::parse_str(SPEC).expect("test spec parses");
    contradicting.apply_set(&format!("simd={other}")).unwrap();
    let e = engine.validate(&contradicting).unwrap_err();
    assert!(e.contains(&format!("run.simd = {other}")), "{e}");
    assert!(e.contains(&format!("SWIM_SIMD={other}")), "{e}");

    let server = Server::new(engine, ServerConfig { workers: 1, ..ServerConfig::default() });
    let body = format!("{SPEC}\n[run]\nsimd = \"{other}\"\n");
    let rejected = server.handle(&request("POST", "/jobs", body.as_bytes()));
    assert_eq!(rejected.status, 400, "{}", String::from_utf8_lossy(&rejected.body));
    assert!(String::from_utf8_lossy(&rejected.body).contains("run.simd"));

    let body = format!("{SPEC}\n[tune]\nmode = \"on\"\n");
    let rejected = server.handle(&request("POST", "/jobs", body.as_bytes()));
    assert_eq!(rejected.status, 400);
    assert!(String::from_utf8_lossy(&rejected.body).contains("unknown key `tune`"));
}
