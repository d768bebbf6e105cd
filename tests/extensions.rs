//! Integration test for the smooth-activation extension: SWIM's full
//! second-order selection on a tanh network, wired through the public
//! facade.

use swim::nn::layers::{Linear, Sequential, Smooth, SmoothActivation};
use swim::prelude::*;

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
