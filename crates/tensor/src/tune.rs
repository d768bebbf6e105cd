//! The kernel configuration behind [`KernelTuning`]: the built-in GEMM
//! plan and the conv im2col scratch cap.
//!
//! Every product runs the built-in plan ([`gemm_plan`]): a packed-panel
//! block width that keeps the active block near 128 KiB, and the
//! row-panel threaded path above [`crate::linalg::PARALLEL_MIN_FLOPS`]
//! multiplies. The conv lowering chunks its batch under
//! [`DEFAULT_IM2COL_CAP_ELEMS`]. One [`KernelTuning`] value is resolved
//! per run (the `--gemm-threads` flag) and installed process-wide with
//! [`install`]; the kernels read it through cheap atomic loads.
//!
//! # Timing-only contract
//!
//! Worker count and block width change *speed*, never *bytes*: every
//! output element accumulates in increasing-`k` order for any block
//! width, and the threaded split is thread-count independent (pinned by
//! the determinism tests in [`crate::linalg`]). Two runs that differ
//! only in their [`KernelTuning`] produce byte-identical documents apart
//! from wall time.

use crate::linalg::{NR, PARALLEL_MIN_FLOPS};
use crate::simd;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default im2col scratch cap in `f32` elements (~16 MiB), the value
/// `swim_nn`'s conv lowering chunks its batch under.
pub const DEFAULT_IM2COL_CAP_ELEMS: usize = 1 << 22;

/// The kernel-configuration mode. The built-in plan is the only one, so
/// its single variant is `off` (no self-timing selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TuneMode {
    /// The built-in plan, honouring explicit pins.
    #[default]
    Off,
}

impl TuneMode {
    /// The canonical spelling (`off`).
    pub fn name(self) -> &'static str {
        match self {
            TuneMode::Off => "off",
        }
    }
}

/// The kernel configuration, resolved once per run.
///
/// Both knobs use `0` for "auto": the built-in plan. Non-zero values are
/// explicit pins.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelTuning {
    /// Always [`TuneMode::Off`].
    pub mode: TuneMode,
    /// GEMM worker threads (`0` = one per available core).
    pub gemm_threads: usize,
    /// GEMM packed-panel block width (`0` = the 128 KiB heuristic).
    pub gemm_block_cols: usize,
}

static PIN_THREADS: AtomicUsize = AtomicUsize::new(0);
static PIN_BLOCK: AtomicUsize = AtomicUsize::new(0);

/// Installs `t` as the process-wide kernel configuration.
///
/// Timing-only: installing a different config never changes result
/// bytes, so a mid-process re-install is always safe.
pub fn install(t: &KernelTuning) {
    PIN_THREADS.store(t.gemm_threads, Ordering::Relaxed);
    PIN_BLOCK.store(t.gemm_block_cols, Ordering::Relaxed);
}

/// A snapshot of the installed configuration.
pub fn current() -> KernelTuning {
    KernelTuning {
        mode: TuneMode::Off,
        gemm_threads: PIN_THREADS.load(Ordering::Relaxed),
        gemm_block_cols: PIN_BLOCK.load(Ordering::Relaxed),
    }
}

/// `available_parallelism`, detected once and cached.
///
/// The std call is not free — on Linux it re-reads the cgroup CPU quota
/// files, allocating in the process — and the GEMM entry points consult
/// the thread count on *every* product; the cached value keeps the
/// steady-state eval loop allocation-free (enforced by `swim-core`'s
/// `tests/alloc_free.rs`).
pub fn detected_parallelism() -> usize {
    static DETECTED: AtomicUsize = AtomicUsize::new(0);
    match DETECTED.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            DETECTED.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// The worker-thread count large products will use.
pub fn gemm_threads() -> usize {
    match PIN_THREADS.load(Ordering::Relaxed) {
        0 => detected_parallelism(),
        n => n,
    }
}

/// The cache-resident block-width heuristic: keep the active packed
/// block near 128 KiB so it stays cache resident while a row panel
/// sweeps it.
fn block_cols_heuristic(k: usize) -> usize {
    let budget = (128 * 1024) / (4 * k.max(1));
    budget.clamp(NR, 4096)
}

/// Rounds a block width up to a panel multiple and caps it at the
/// (rounded) output width.
fn clamp_block(cols: usize, n: usize) -> usize {
    cols.next_multiple_of(NR).min(n.next_multiple_of(NR).max(NR))
}

/// The im2col scratch cap in `f32` elements the conv lowering honours.
pub fn im2col_cap_elems() -> usize {
    DEFAULT_IM2COL_CAP_ELEMS
}

/// The per-product execution plan [`gemm_plan`] hands the kernel:
/// worker count and block width, both byte-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmPlan {
    /// Threads the row-panel split uses (`1` = serial).
    pub workers: usize,
    /// Packed-panel block width (multiple of [`NR`]).
    pub block_cols: usize,
}

/// The built-in plan for one `m×k·k×n` product.
///
/// `threads_req` is the caller's explicit thread count (`0` = the
/// installed/auto setting). Products below
/// [`PARALLEL_MIN_FLOPS`] multiplies stay serial; the block width is the
/// installed pin, or the 128 KiB heuristic when none is pinned.
pub fn gemm_plan(m: usize, k: usize, n: usize, threads_req: usize) -> GemmPlan {
    let threads = if threads_req == 0 { gemm_threads() } else { threads_req };
    let flops = m.saturating_mul(n).saturating_mul(k);
    let workers = if flops < PARALLEL_MIN_FLOPS { 1 } else { threads.min(m).max(1) };
    let block_cols = match PIN_BLOCK.load(Ordering::Relaxed) {
        0 => block_cols_heuristic(k),
        pinned => pinned,
    };
    GemmPlan { workers, block_cols: clamp_block(block_cols, n) }
}

/// A stable description of this host: CPU brand, SIMD feature set, and
/// core count. Benchmark results from different hosts are told apart by
/// it.
pub fn host_fingerprint() -> String {
    let brand = cpu_brand();
    let features: Vec<&str> = simd::available_backends().iter().map(|b| b.name()).collect();
    format!("{brand}|{}|{}cores", features.join("+"), detected_parallelism())
}

/// The first `model name` line of `/proc/cpuinfo`, squashed to
/// single-space tokens; the target architecture elsewhere.
fn cpu_brand() -> String {
    if let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in text.lines() {
            if let Some((key, value)) = line.split_once(':') {
                if key.trim() == "model name" {
                    return value.split_whitespace().collect::<Vec<_>>().join(" ");
                }
            }
        }
    }
    std::env::consts::ARCH.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_mode_is_off() {
        assert_eq!(TuneMode::default().name(), "off");
        assert_eq!(current().mode, TuneMode::Off);
    }

    #[test]
    fn install_and_current_round_trip() {
        let _serial = crate::serial_guard();
        let previous = current();
        let t = KernelTuning { mode: TuneMode::Off, gemm_threads: 3, gemm_block_cols: 64 };
        install(&t);
        assert_eq!(current(), t);
        assert_eq!(gemm_threads(), 3);
        assert_eq!(gemm_plan(64, 64, 1024, 0).block_cols, 64);
        install(&previous);
        assert_eq!(current(), previous);
    }

    #[test]
    fn plan_defaults_match_legacy_heuristic() {
        let _serial = crate::serial_guard();
        let previous = current();
        install(&KernelTuning::default());
        let plan = gemm_plan(8, 70, 90, 1);
        assert_eq!(plan.workers, 1, "below the flops threshold");
        assert_eq!(plan.block_cols, clamp_block(block_cols_heuristic(70), 90));
        let big = gemm_plan(256, 256, 256, 4);
        assert_eq!(big.workers, 4, "above the flops threshold");
        assert_eq!(big.block_cols, 128, "128 KiB / (4 B · k = 256)");
        assert_eq!(im2col_cap_elems(), DEFAULT_IM2COL_CAP_ELEMS);
        install(&previous);
    }

    #[test]
    fn fingerprint_is_stable() {
        assert_eq!(host_fingerprint(), host_fingerprint());
        assert!(host_fingerprint().contains("cores"));
    }

    #[test]
    fn clamp_block_rounds_to_panels() {
        assert_eq!(clamp_block(1, 1024), NR);
        assert_eq!(clamp_block(100, 1024), 128);
        assert_eq!(clamp_block(4096, 64), 64);
    }
}
