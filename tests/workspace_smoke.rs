//! Workspace-wiring smoke test: the `swim` facade must re-export every
//! type a typical SWIM workflow touches, so facade drift breaks CI here
//! instead of breaking downstream users.

use swim::prelude::*;

/// Every name in `swim::prelude` resolves and composes: build each
/// model config, construct the device presets, run one tiny programming
/// pass through the facade path only.
#[test]
fn prelude_reexports_compose() {
    // Model configs from all three paper networks.
    let _ = LeNetConfig::default();
    let _ = ConvNetConfig::reduced(0.125);
    let _ = ResNet18Config { stem: ResNetStem::Cifar, ..ResNet18Config::paper_cifar() };

    // Device presets and the quantized model.
    for device in [DeviceConfig::rram(), DeviceConfig::fefet(), DeviceConfig::pcm()] {
        assert!(device.sigma > 0.0);
    }
    let net = LeNetConfig::default().build(7);
    let mut model = QuantizedModel::new(net, 4, DeviceConfig::rram());

    // Data, loss, training entry points.
    let data = synthetic_mnist(60, 3);
    let (train, _test) = data.split(0.5);
    let _ = synthetic_cifar(4, 0);
    let _ = synthetic_tiny_imagenet(4, 2, 0);
    let loss = SoftmaxCrossEntropy::new();
    let _ = L2Loss;
    let cfg = TrainConfig { epochs: 1, batch_size: 8, lr: 0.01, ..Default::default() };
    let mut untrained = LeNetConfig::default().build(8);
    fit(&mut untrained, &loss, train.images(), train.labels(), &cfg);

    // Selection, programming, evaluation through the facade.
    let sens = model.sensitivities(&loss, &train, 16);
    let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &model.magnitudes()), None);
    let mask = mask_top_fraction(&ranking, 0.05);
    let mut rng = Prng::seed_from_u64(1);
    let (mut mapped, summary) = model.program_network(Some(&mask), &mut rng);
    assert_eq!(summary.verified_weights as usize, mask.iter().filter(|&&m| m).count());
    let acc = mapped.accuracy(train.images(), train.labels(), 16);
    assert!((0.0..=1.0).contains(&acc));

    // The algorithm/harness config types are reachable.
    let _ = Alg1Config::default();
    let _ = InsituConfig::default();
    let _ = SweepConfig::default();
    let _: fn(&_, _, &_, &_, &_, &_) -> swim::core::montecarlo::SweepOutcome = nwc_sweep_outcome;
    let _ = selective_write_verify;
    let _ = insitu_training;
}

/// The per-crate module paths advertised by the facade stay reachable.
#[test]
fn facade_module_paths_resolve() {
    let _ = swim::tensor::linalg::gemm_threads();
    let _ = swim::core::montecarlo::num_threads();
    let _ = swim::nn::Mode::Eval;
    let _ = swim::quant::DeviceSlicing::new(4, 4);
    let _ = swim::cim::DeviceConfig::rram();
    let t: swim::tensor::Tensor = swim::tensor::Tensor::zeros(&[2, 2]);
    assert_eq!(t.len(), 4);
}
