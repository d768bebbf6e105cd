//! The allocation gate: a steady-state Monte Carlo sweep iteration must
//! perform **zero heap allocations**.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! counts every `alloc`/`realloc` event. After a warm-up (which grows
//! the network clone, programming buffers, GEMM/im2col scratch, and the
//! activation arena to their steady-state sizes), further sweep
//! iterations — selection mask, device programming, weight load, and
//! arena-backed accuracy evaluation — must not touch the heap at all.
//!
//! Everything lives in ONE `#[test]` function: the default test harness
//! runs `#[test]`s on separate threads, and a second concurrently
//! running test would pollute the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swim_cim::DeviceConfig;
use swim_core::model::{EvalScratch, QuantizedModel};
use swim_core::montecarlo::{nwc_sweep_outcome, SweepConfig};
use swim_core::select::{mask_top_fraction_into, SwimSelector};
use swim_data::Dataset;
use swim_nn::layers::{
    ActQuant, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu, Residual, Sequential,
};
use swim_nn::Network;
use swim_tensor::{Prng, Tensor};

/// System allocator wrapper counting allocation events (`alloc` and
/// `realloc`; frees are irrelevant to the gate).
struct CountingAllocator;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// A small model covering the layer kinds of the paper's networks:
/// conv, ReLU, activation quantization, max pooling, batch norm, a
/// residual block, flatten, and FC layers.
fn build_model() -> (QuantizedModel, Dataset) {
    let mut rng = Prng::seed_from_u64(77);
    let mut seq = Sequential::new();
    seq.push(Conv2d::new(1, 3, 3, 1, 1, &mut rng));
    seq.push(Relu::new());
    seq.push(ActQuant::unsigned(4));
    seq.push(MaxPool2d::new(2));
    seq.push(BatchNorm2d::new(3));
    let mut branch = Sequential::new();
    branch.push(Conv2d::new(3, 3, 3, 1, 1, &mut rng));
    seq.push(Residual::new(branch));
    seq.push(Flatten::new());
    seq.push(Linear::new(3 * 4 * 4, 8, &mut rng));
    seq.push(Relu::new());
    seq.push(Linear::new(8, 3, &mut rng));
    let net = Network::new("alloc-gate", seq);
    let model = QuantizedModel::new(net, 4, DeviceConfig::rram());
    let images = Tensor::randn(&[24, 1, 8, 8], &mut rng);
    let labels: Vec<usize> = (0..24).map(|i| i % 3).collect();
    let data = Dataset::new(images, labels, 3).unwrap();
    (model, data)
}

#[test]
fn steady_state_sweep_iterations_allocate_nothing() {
    let (model, data) = build_model();
    let ranking: Vec<usize> = (0..model.weight_count()).collect();
    let fractions = [0.0f64, 0.5, 1.0];
    let base = Prng::seed_from_u64(5);
    let mut scratch = EvalScratch::new(&model);

    // One full sweep iteration, making the same calls `nwc_sweep_outcome`
    // makes per Monte Carlo run: per fraction, build the mask, program
    // the device model, load the weights into the scratch network, and
    // score with the arena.
    let iteration = |scratch: &mut EvalScratch, run: u64| {
        let mut rng = base.fork(run);
        let mut acc_sum = 0.0;
        let EvalScratch { network, mask, codes, weights, arena, .. } = scratch;
        for &fraction in &fractions {
            mask_top_fraction_into(&ranking, fraction, mask);
            model.program_weights_into(Some(&mask[..]), &mut rng, codes, weights);
            network.set_device_weights(weights);
            // Eval batch 16 on 24 images: the final partial batch
            // exercises the shrink-then-grow buffer reuse.
            acc_sum += network.accuracy_with(data.images(), data.labels(), 16, arena);
        }
        acc_sum
    };

    // Warm-up: grow every buffer (arena, GEMM thread-local scratch,
    // im2col scratch, programming buffers) to steady-state size.
    let mut warm = 0.0;
    for run in 0..3 {
        warm += iteration(&mut scratch, run);
    }

    // The counter is process-global, so a stray allocation from another
    // runtime thread (lazy std init, the libtest harness) could land
    // inside the measured window. Such events are finite one-offs; a
    // genuine per-iteration leak would show up in *every* window. So:
    // take the minimum over a few windows — any window observing zero
    // proves the iteration itself is allocation-free, without making
    // the gate flaky.
    //
    // The gate runs once per SIMD backend the host supports: each
    // backend has its own kernel bodies and lane-remainder paths, and
    // any of them could plausibly stage through a fresh buffer.
    let mut measured = 0.0;
    let mut next_run = 2u64;
    for backend in swim_tensor::simd::available_backends() {
        swim_tensor::simd::with_backend(backend, || {
            // Re-warm under this backend before measuring.
            next_run += 1;
            warm += iteration(&mut scratch, next_run);
            let mut leaked = u64::MAX;
            for _attempt in 0..5u64 {
                let before = alloc_events();
                for _ in 0..10 {
                    next_run += 1;
                    measured += iteration(&mut scratch, next_run);
                }
                let after = alloc_events();
                leaked = leaked.min(after - before);
                if leaked == 0 {
                    break;
                }
            }
            assert_eq!(
                leaked, 0,
                "backend {backend}: steady-state sweep iterations performed {leaked} heap \
                 allocations (expected zero)"
            );
        })
        .expect("available backend");
    }
    // The accuracies are real numbers, not optimized away.
    assert!(warm > 0.0 && measured > 0.0);

    // Second gate: a full serial `nwc_sweep_outcome` call must allocate a
    // run-count-independent number of times — i.e. the per-run marginal
    // allocation count is exactly zero. (Sizes of the up-front
    // allocations differ with the run count; the number of allocation
    // events must not.)
    let sens = model.magnitudes();
    let mags = model.magnitudes();
    let sweep_cfg = |runs: usize| SweepConfig {
        fractions: vec![0.0, 0.5, 1.0],
        runs,
        threads: 1,
        eval_batch: 16,
        seed: 5,
        run_offset: 0,
        on_panic: swim_core::montecarlo::PanicPolicy::FailFast,
    };
    // Warm sweep (thread-locals, lazy statics).
    let _ = nwc_sweep_outcome(&model, &SwimSelector, &sens, &mags, &data, &sweep_cfg(2));

    // Same cross-thread-noise caveat as above: accept the first of a few
    // attempts where the two counts agree.
    let mut deltas = (0u64, 0u64);
    for _ in 0..5 {
        let c0 = alloc_events();
        let short =
            nwc_sweep_outcome(&model, &SwimSelector, &sens, &mags, &data, &sweep_cfg(4)).points;
        let c1 = alloc_events();
        let long =
            nwc_sweep_outcome(&model, &SwimSelector, &sens, &mags, &data, &sweep_cfg(24)).points;
        let c2 = alloc_events();
        assert_eq!(short.len(), 3);
        assert_eq!(long.len(), 3);
        deltas = (c1 - c0, c2 - c1);
        if deltas.0 == deltas.1 {
            break;
        }
    }
    assert_eq!(
        deltas.0, deltas.1,
        "per-run marginal allocations: 4-run sweep allocated {} times, 24-run sweep {} times",
        deltas.0, deltas.1
    );
}
