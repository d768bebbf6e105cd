//! The `swim serve` engine: [`swim_serve::JobEngine`] implemented on
//! the real experiment machinery, plus the CLI entry point.
//!
//! Three responsibilities live here, on the bench side of the
//! service/engine seam:
//!
//! 1. **Block computation.** One `(device model, sigma)` block = binding
//!    the shared trained model to the block's device + the multi-method
//!    sweep. Intra-block Monte Carlo runs serially (`threads = 1`); all
//!    parallelism comes from the service scheduling many blocks of many
//!    jobs onto the shared [`swim_core::pool::WorkerPool`] — this is
//!    what replaces the CLI's per-sweep `thread::scope`. Results are
//!    unaffected: the Monte Carlo harness is bit-identical across
//!    thread counts by construction.
//! 2. **The trained-model cache.** Training, quantization and the
//!    sensitivity pass read neither device model nor sigma, so a
//!    single-flight [`TrainedCache`] keyed by
//!    [`ExperimentSpec::trained_fingerprint`] trains once per training
//!    prefix and every block of every job shares the `Arc`. Hits and
//!    misses surface in `/metrics` and in per-block job provenance.
//! 3. **Document assembly.** Blocks complete in arbitrary order on the
//!    pool; the final document replays them through a quiet
//!    `Collector` in grid order (the same replay `swim merge` uses),
//!    so the served document is byte-identical to `swim run`'s for the
//!    same spec — modulo `wall_time_s`, the one legitimately differing
//!    field.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use swim_exp::spec::{ExperimentKind, ExperimentSpec};
use swim_serve::server::{BlockOutcome, BlockPayload, JobEngine};
use swim_serve::{serve_forever, Server, ServerConfig};

use crate::cli::{apply_gemm_flags, Args};
use crate::driver::{DriverConfig, MethodCurves};
use crate::experiment::{
    block_emitter, check_provenance_pinned, model_sigma_grid, results_document, sweep_block,
    Collector,
};
use crate::prep::TrainedCache;

/// What one computed block carries to assembly (opaque to the service).
struct ServiceBlock {
    float_accuracy: f64,
    quant_accuracy: f64,
    curves: MethodCurves,
}

/// The real engine: trained-model cache + block compute + assembly.
pub struct ServiceEngine {
    cache: TrainedCache,
    gemm_threads: usize,
    gemm_block: usize,
}

impl ServiceEngine {
    /// An engine with an empty cache and the given GEMM policy (perfbench
    /// builds it so until ROADMAP direction 1's benchmark change).
    pub fn new(gemm_threads: usize, gemm_block: usize) -> ServiceEngine {
        ServiceEngine { cache: TrainedCache::default(), gemm_threads, gemm_block }
    }
}

impl JobEngine for ServiceEngine {
    fn validate(&self, spec: &ExperimentSpec) -> Result<(), String> {
        if !matches!(
            spec.kind,
            ExperimentKind::Sweep | ExperimentKind::Table1 | ExperimentKind::Fig2
        ) {
            return Err(format!(
                "kind `{}` has no (model, sigma) block structure; the service runs the \
                 block-structured kinds (sweep, table1, fig2) — use `swim run` for the others",
                spec.kind.key()
            ));
        }
        if spec.run.shard.is_some() {
            return Err(
                "sharded specs are not accepted over the service (submit the unsharded spec; \
                 the scheduler already parallelizes across blocks)"
                    .into(),
            );
        }
        // The trained-model cache and worker pool assume one SIMD
        // backend for the process lifetime, so a spec pinning a
        // different one is rejected rather than switched to.
        check_provenance_pinned(spec)?;
        Ok(())
    }

    fn grid(&self, spec: &ExperimentSpec) -> Vec<(String, f64)> {
        model_sigma_grid(spec)
    }

    fn run_block(
        &self,
        spec: &ExperimentSpec,
        device_model: &str,
        sigma: f64,
    ) -> Result<BlockOutcome, String> {
        let prep_start = Instant::now();
        let (trained, cache_hit) = self.cache.get(spec);
        let prep_seconds = prep_start.elapsed().as_secs_f64();

        let sweep_start = Instant::now();
        let mut cfg = DriverConfig::from_spec(spec, self.gemm_threads, self.gemm_block);
        // Serial Monte Carlo inside the block: concurrency comes from
        // the shared pool running many blocks at once, and the harness
        // is bit-identical across thread counts, so this changes
        // nothing but scheduling.
        cfg.threads = 1;
        let curves = sweep_block(spec, &trained, device_model, sigma, &cfg)?;
        let sweep_seconds = sweep_start.elapsed().as_secs_f64();

        Ok(BlockOutcome {
            payload: Box::new(ServiceBlock {
                float_accuracy: trained.prepared.float_accuracy,
                quant_accuracy: trained.prepared.quant_accuracy,
                curves,
            }),
            cache_hit,
            prep_seconds,
            sweep_seconds,
        })
    }

    fn assemble(
        &self,
        spec: &ExperimentSpec,
        payloads: Vec<BlockPayload>,
        wall_time_s: f64,
    ) -> Result<String, String> {
        let grid = model_sigma_grid(spec);
        if payloads.len() != grid.len() {
            return Err(format!(
                "assembly got {} block payload(s) for a {}-block grid",
                payloads.len(),
                grid.len()
            ));
        }
        // Replay presentation in grid order on a quiet collector — the
        // same path `swim merge` uses, which is what makes the served
        // document byte-identical to `swim run`'s (modulo wall time).
        let mut collector = Collector::quiet();
        let emit = block_emitter(spec.kind);
        for ((model_name, sigma), payload) in grid.iter().zip(payloads) {
            let block = payload
                .downcast::<ServiceBlock>()
                .map_err(|_| "block payload is not a ServiceBlock".to_string())?;
            emit(
                spec,
                false,
                &mut collector,
                model_name,
                *sigma,
                block.float_accuracy,
                block.quant_accuracy,
                &block.curves,
            );
        }
        Ok(results_document(spec, collector, wall_time_s).to_json())
    }

    fn cache_counters(&self) -> (u64, u64) {
        self.cache.counters()
    }
}

/// `swim serve`: bind, print the listen line, serve until killed.
pub fn serve_main(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let workers = args.get_usize("workers", 0)?;
    let queue_cap = args.get_usize("queue-cap", 16)?;
    if queue_cap == 0 {
        return Err("--queue-cap must be positive".into());
    }
    // Kernel configuration for the whole process (installed once):
    // blocks compute serially (see ServiceEngine::run_block), so
    // per-GEMM threading defaults to 1 — the pool already saturates the
    // machine. The thread count is a pure performance setting; results
    // are bit-identical for every value.
    let (gemm_threads, gemm_block) = apply_gemm_flags(args, 2)?;

    let engine = Arc::new(ServiceEngine::new(gemm_threads, gemm_block));
    let server = Server::new(engine, ServerConfig { workers, queue_cap, max_body_bytes: 1 << 20 });
    let listener = TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!(
        "swim serve: listening on http://{local} ({} pool worker(s), queue cap {queue_cap})",
        server.workers()
    );
    println!("endpoints: POST /jobs · GET /jobs/{{id}} · GET /jobs/{{id}}/result · DELETE /jobs/{{id}} · GET /metrics");
    let err = serve_forever(server, listener);
    Err(format!("accept loop failed: {err}"))
}
