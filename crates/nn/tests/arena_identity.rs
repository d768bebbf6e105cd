//! Arena state never reaches the result.
//!
//! Every built-in layer has one forward body, `Layer::forward_into`,
//! which writes its output into a buffer grabbed from an
//! `ActivationArena`; `Layer::forward` runs it with a cold arena. The
//! invariant pinned here: whatever the arena holds — nothing, or stale
//! buffers of other shapes and contents left by a larger batch and by
//! other layers — the forward output, the backward and second-order
//! backward results, and the parameter gradient/Hessian accumulators
//! are bit-identical. Checked for every built-in layer type in both
//! `Mode::Train` and `Mode::Eval`.

use swim_nn::arena::ActivationArena;
use swim_nn::layer::{Layer, Mode};
use swim_nn::layers::{
    ActQuant, AvgPool2d, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
    Residual, Sequential, Smooth, SmoothActivation,
};
use swim_nn::network::Network;
use swim_tensor::{Prng, Tensor};

/// The bit patterns of a tensor's elements (so `-0.0` and `0.0`, or two
/// NaN payloads, count as different).
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Collects the bits of every parameter's gradient and Hessian
/// accumulator.
fn param_state(layer: &mut dyn Layer) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push((bits(&p.grad), bits(&p.hess))));
    out
}

/// Parks stale buffers in a fresh arena: the output of a throwaway copy
/// of `layer` on a larger batch, another small network's activations,
/// and a NaN-filled tensor of an unrelated shape. A layer that let any
/// of it through (an unwritten element, a leftover shape) would differ
/// from the cold run.
fn warm_arena(layer: &dyn Layer, input: &Tensor, mode: Mode) -> ActivationArena {
    let mut rng = Prng::seed_from_u64(0xA4E7);
    let mut arena = ActivationArena::new();
    let mut big_shape = input.shape().to_vec();
    big_shape[0] = 2 * big_shape[0] + 1;
    let big = Tensor::randn(&big_shape, &mut rng);
    let y = layer.clone_layer().forward_into(&big, mode, &mut arena);
    let mut other = Sequential::new();
    other.push(Linear::new(11, 13, &mut rng));
    other.push(Relu::new());
    other.push(Linear::new(13, 7, &mut rng));
    let z = other.forward_into(&Tensor::randn(&[9, 11], &mut rng), mode, &mut arena);
    arena.recycle(Tensor::full(&[3, 5], f32::NAN));
    arena.recycle(z);
    arena.recycle(y);
    arena
}

/// Drives `layer` through a cold arena ([`Layer::forward`]) and an
/// identical clone through a warm one — three forward passes, then
/// backward and second-order backward — asserting bit-identical outputs,
/// input derivatives, and parameter accumulators at every step.
fn assert_arena_state_invisible(layer: &mut dyn Layer, input: &Tensor, mode: Mode, label: &str) {
    let mut warm = layer.clone_layer();
    let mut arena = warm_arena(layer, input, mode);
    let cold = layer;

    for pass in 0..3 {
        let y_cold = cold.forward(input, mode);
        let y_warm = warm.forward_into(input, mode, &mut arena);
        assert_eq!(y_cold.shape(), y_warm.shape(), "{label}: shape, pass {pass}");
        assert_eq!(bits(&y_cold), bits(&y_warm), "{label}: forward, pass {pass}");
        arena.recycle(y_warm);
    }

    // The backward passes after the last forward must see the same
    // cached activations on both sides.
    let mut rng = Prng::seed_from_u64(0xBAC4);
    let shape = cold.forward(input, mode).shape().to_vec();
    let y_warm = warm.forward_into(input, mode, &mut arena);
    arena.recycle(y_warm);
    let upstream = Tensor::randn(&shape, &mut rng);

    let g_cold = cold.backward(&upstream);
    let g_warm = warm.backward(&upstream);
    assert_eq!(bits(&g_cold), bits(&g_warm), "{label}: backward");

    let h_cold = cold.second_backward(&upstream);
    let h_warm = warm.second_backward(&upstream);
    assert_eq!(bits(&h_cold), bits(&h_warm), "{label}: second_backward");

    assert_eq!(param_state(cold), param_state(warm.as_mut()), "{label}: parameter grad/hess");
}

fn both_modes(mut layer: Box<dyn Layer>, input: &Tensor, label: &str) {
    for mode in [Mode::Train, Mode::Eval] {
        assert_arena_state_invisible(layer.as_mut(), input, mode, &format!("{label}/{mode:?}"));
    }
}

#[test]
fn linear_is_bit_identical() {
    let mut rng = Prng::seed_from_u64(1);
    let layer = Linear::new(5, 7, &mut rng);
    let x = Tensor::randn(&[4, 5], &mut rng);
    both_modes(Box::new(layer), &x, "Linear");
}

#[test]
fn conv2d_is_bit_identical() {
    let mut rng = Prng::seed_from_u64(2);
    for &(cin, cout, k, s, p, h, w) in
        &[(2usize, 3usize, 3usize, 1usize, 1usize, 6usize, 6usize), (1, 2, 3, 2, 0, 7, 5)]
    {
        let layer = Conv2d::new(cin, cout, k, s, p, &mut rng);
        let x = Tensor::randn(&[3, cin, h, w], &mut rng);
        both_modes(Box::new(layer), &x, &format!("Conv2d(k{k},s{s},p{p})"));
    }
}

#[test]
fn relu_is_bit_identical() {
    let mut rng = Prng::seed_from_u64(3);
    let x = Tensor::randn(&[4, 9], &mut rng);
    both_modes(Box::new(Relu::new()), &x, "ReLU");
}

#[test]
fn smooth_activations_are_bit_identical() {
    let mut rng = Prng::seed_from_u64(4);
    let x = Tensor::randn(&[3, 6], &mut rng);
    both_modes(Box::new(SmoothActivation::new(Smooth::Tanh)), &x, "Tanh");
    both_modes(Box::new(SmoothActivation::new(Smooth::Sigmoid)), &x, "Sigmoid");
}

#[test]
fn pools_are_bit_identical() {
    let mut rng = Prng::seed_from_u64(5);
    let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
    both_modes(Box::new(MaxPool2d::new(2)), &x, "MaxPool2d");
    both_modes(Box::new(AvgPool2d::new(3)), &x, "AvgPool2d");
    both_modes(Box::new(GlobalAvgPool::new()), &x, "GlobalAvgPool");
}

#[test]
fn batchnorm_is_bit_identical() {
    // Train mode also advances the running statistics on both copies —
    // they must stay in lockstep across the repeated passes.
    let mut rng = Prng::seed_from_u64(6);
    let x = Tensor::from_fn(&[4, 3, 4, 4], |_| rng.normal_f32(1.5, 2.0));
    both_modes(Box::new(BatchNorm2d::new(3)), &x, "BatchNorm2d");
}

#[test]
fn flatten_and_actquant_are_bit_identical() {
    let mut rng = Prng::seed_from_u64(7);
    let x = Tensor::randn(&[3, 2, 4, 4], &mut rng);
    both_modes(Box::new(Flatten::new()), &x, "Flatten");
    let flat = Tensor::randn(&[3, 10], &mut rng);
    both_modes(Box::new(ActQuant::new(4)), &flat, "ActQuant/signed");
    both_modes(Box::new(ActQuant::unsigned(4)), &flat, "ActQuant/unsigned");
}

#[test]
fn residual_blocks_are_bit_identical() {
    let mut rng = Prng::seed_from_u64(8);
    let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);

    let mut main = Sequential::new();
    main.push(Conv2d::new(3, 3, 3, 1, 1, &mut rng));
    both_modes(Box::new(Residual::new(main)), &x, "Residual/identity");

    let mut main = Sequential::new();
    main.push(Conv2d::new(3, 4, 3, 1, 1, &mut rng));
    let mut shortcut = Sequential::new();
    shortcut.push(Conv2d::new(3, 4, 1, 1, 0, &mut rng));
    both_modes(Box::new(Residual::with_shortcut(main, shortcut)), &x, "Residual/projection");
}

#[test]
fn sequential_stack_is_bit_identical() {
    let mut rng = Prng::seed_from_u64(9);
    let mut seq = Sequential::new();
    seq.push(Conv2d::new(1, 3, 3, 1, 1, &mut rng));
    seq.push(Relu::new());
    seq.push(ActQuant::unsigned(4));
    seq.push(MaxPool2d::new(2));
    seq.push(BatchNorm2d::new(3));
    seq.push(Flatten::new());
    seq.push(Linear::new(3 * 4 * 4, 6, &mut rng));
    seq.push(SmoothActivation::new(Smooth::Tanh));
    seq.push(Linear::new(6, 3, &mut rng));
    let x = Tensor::randn(&[5, 1, 8, 8], &mut rng);
    both_modes(Box::new(seq), &x, "Sequential/lenet-ish");
}

#[test]
fn empty_sequential_copies_input() {
    let mut seq = Sequential::new();
    let mut arena = ActivationArena::new();
    let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
    let y = seq.forward_into(&x, Mode::Eval, &mut arena);
    assert_eq!(y, x);
}

#[test]
fn sequential_chain_settles_into_ping_pong() {
    // After recycling the final output, a purely sequential network
    // parks exactly two buffers in the arena — the double-buffer pair —
    // and repeated passes neither grow nor shrink the pool.
    let mut rng = Prng::seed_from_u64(10);
    let mut seq = Sequential::new();
    seq.push(Linear::new(8, 16, &mut rng));
    seq.push(Relu::new());
    seq.push(Linear::new(16, 16, &mut rng));
    seq.push(Relu::new());
    seq.push(Linear::new(16, 4, &mut rng));
    let x = Tensor::randn(&[6, 8], &mut rng);
    let mut arena = ActivationArena::new();
    for _ in 0..4 {
        let y = seq.forward_into(&x, Mode::Eval, &mut arena);
        arena.recycle(y);
        assert_eq!(arena.pooled(), 2, "sequential chain should double-buffer");
    }
}

#[test]
fn network_accuracy_with_matches_accuracy() {
    let mut rng = Prng::seed_from_u64(11);
    let mut seq = Sequential::new();
    seq.push(Flatten::new());
    seq.push(Linear::new(12, 10, &mut rng));
    seq.push(Relu::new());
    seq.push(Linear::new(10, 3, &mut rng));
    let mut net = Network::new("acc", seq);
    let images = Tensor::randn(&[23, 1, 3, 4], &mut rng);
    let labels: Vec<usize> = (0..23).map(|i| i % 3).collect();
    // Warm the arena with a larger set and a stale NaN buffer first.
    let mut arena = ActivationArena::new();
    let more = Tensor::randn(&[64, 1, 3, 4], &mut rng);
    let more_labels: Vec<usize> = (0..64).map(|i| i % 3).collect();
    net.accuracy_with(&more, &more_labels, 64, &mut arena);
    arena.recycle(Tensor::full(&[5, 7], f32::NAN));
    // Uneven final batches exercise the shrinking batch buffer.
    for batch in [4usize, 7, 23, 64] {
        let cold = net.accuracy(&images, &labels, batch);
        let warm = net.accuracy_with(&images, &labels, batch, &mut arena);
        assert_eq!(cold.to_bits(), warm.to_bits(), "batch {batch}");
    }
}
