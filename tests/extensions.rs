//! Integration tests for the substrate extensions: tiled crossbars,
//! correlated variation, smooth activations, augmentation — wired
//! through the public facade.

use swim::cim::crossbar::CrossbarConfig;
use swim::cim::tiles::TiledMatrix;
use swim::cim::variation::CorrelatedVariation;
use swim::data::augment::{augment, expand, AugmentConfig};
use swim::nn::layers::{Linear, Sequential, Smooth, SmoothActivation};
use swim::prelude::*;
use swim::quant::QuantizedTensor;

/// A linear layer mapped through *tiles* must behave like the same layer
/// mapped through one big crossbar, including write-verified accuracy.
#[test]
fn tiled_mapping_equivalent_to_flat() {
    let mut rng = Prng::seed_from_u64(1);
    let w = Tensor::randn(&[20, 30], &mut rng);
    let q = QuantizedTensor::quantize(&w, 4);
    let cfg = CrossbarConfig {
        device: DeviceConfig::rram().with_sigma(0.0),
        weight_bits: 4,
        adc_bits: None,
    };
    let (tiled, summary) = TiledMatrix::program(&q, &cfg, 8, None, &mut rng);
    assert_eq!(summary.total_weights, 600);
    let x = Tensor::randn(&[30], &mut rng);
    let dense = swim::tensor::linalg::matvec(&q.dequantize(), &x);
    assert!(tiled.matvec(&x).allclose(&dense, 1e-3));
}

/// SWIM's pipeline is noise-model-agnostic: applying correlated
/// variation to the flat weights and evaluating accuracy exercises the
/// extension path end to end.
#[test]
fn correlated_variation_through_pipeline() {
    let data = synthetic_mnist(600, 51);
    let (train, test) = data.split(0.8);
    let mut net = LeNetConfig::default().build(2);
    let cfg = TrainConfig { epochs: 2, batch_size: 32, lr: 0.05, ..Default::default() };
    fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &cfg);
    let mut model = QuantizedModel::new(net, 4, DeviceConfig::rram());
    let clean = model.clean_accuracy(&test, 128);

    // Correlated noise scaled into weight-value units via the model's
    // per-weight sigma (the device-sigma component matches Eq. 16).
    let variation = CorrelatedVariation::with_defaults(0.1);
    let mut rng = Prng::seed_from_u64(3);
    let noise = variation.sample(model.weight_count(), &mut rng);
    let sigmas = model.weight_value_sigmas();
    let weights: Vec<f32> = model
        .clean_weights()
        .iter()
        .zip(noise.iter().zip(&sigmas))
        .map(|(&w, (&n, &s))| w + (n / variation.device_sigma) as f32 * s)
        .collect();
    model.network_mut().set_device_weights(&weights);
    let noisy = model.network_mut().accuracy(test.images(), test.labels(), 128);
    assert!(noisy <= clean + 0.02, "correlated noise should not help: {clean} -> {noisy}");
    model.restore_clean();
}

/// SWIM ranks and write-verifies weights of a *tanh* network using the
/// full second-order rule.
#[test]
fn swim_selection_on_smooth_network() {
    let mut rng = Prng::seed_from_u64(4);
    let mut seq = Sequential::new();
    seq.push(swim::nn::layers::Flatten::new());
    seq.push(Linear::new(16, 24, &mut rng));
    seq.push(SmoothActivation::new(Smooth::Tanh));
    seq.push(Linear::new(24, 4, &mut rng));
    let mut net = Network::new("tanh-mlp", seq);

    // Separable 4-class data in 16 dims.
    let n = 120;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..n {
        let cls = i % 4;
        for d in 0..16 {
            let c = if (cls >> (d % 2)) & 1 == 1 { 1.0 } else { -1.0 };
            xs.push(c as f32 + rng.normal_f32(0.0, 0.4));
        }
        ys.push(cls);
    }
    let images = Tensor::from_vec(xs, &[n, 1, 4, 4]).unwrap();
    let data = Dataset::new(images, ys, 4).unwrap();
    let cfg = TrainConfig { epochs: 10, batch_size: 20, lr: 0.1, ..Default::default() };
    fit(&mut net, &SoftmaxCrossEntropy::new(), data.images(), data.labels(), &cfg);

    let mut model = QuantizedModel::new(net, 4, DeviceConfig::rram().with_sigma(0.3));
    // Full-rule sensitivities through the network API.
    model.network_mut().zero_hess();
    model.network_mut().zero_grads();
    model.network_mut().accumulate_hessian_full(
        &SoftmaxCrossEntropy::new(),
        data.images(),
        data.labels(),
    );
    let sens = model.network_mut().device_hessian();
    assert!(sens.iter().any(|&h| h != 0.0));

    let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &model.magnitudes()), None);
    let mask = mask_top_fraction(&ranking, 0.2);
    let mut rng = Prng::seed_from_u64(5);
    let (mut mapped, _) = model.program_network(Some(&mask), &mut rng);
    let acc = mapped.accuracy(data.images(), data.labels(), 64);
    assert!((0.0..=1.0).contains(&acc));
}

/// Augmented training data flows through the standard training loop.
#[test]
fn augmentation_composes_with_training() {
    let data = synthetic_mnist(300, 61);
    let mut rng = Prng::seed_from_u64(6);
    let expanded = expand(&data, 1, &AugmentConfig::default(), &mut rng);
    assert_eq!(expanded.len(), 600);
    let aug_once = augment(&data, &AugmentConfig::default(), &mut rng);
    assert_eq!(aug_once.len(), data.len());

    let mut net = LeNetConfig::default().build(7);
    let cfg = TrainConfig { epochs: 1, batch_size: 32, lr: 0.05, ..Default::default() };
    let hist =
        fit(&mut net, &SoftmaxCrossEntropy::new(), expanded.images(), expanded.labels(), &cfg);
    assert!(hist.final_loss().is_finite());
}
