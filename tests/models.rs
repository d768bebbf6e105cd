//! Integration tests for the three paper models end to end (reduced
//! widths: these verify wiring, not benchmark-level accuracy).

use swim::prelude::*;

#[test]
fn convnet_learns_synthetic_cifar() {
    let data = synthetic_cifar(600, 31);
    let (train, test) = data.split(0.8);
    let mut net = ConvNetConfig::reduced(0.125).build(2);
    let cfg = TrainConfig { epochs: 3, batch_size: 32, lr: 0.03, ..Default::default() };
    fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &cfg);
    let acc = net.accuracy(test.images(), test.labels(), 64);
    assert!(acc > 0.3, "ConvNet should beat chance clearly, got {acc}");
}

#[test]
fn resnet18_learns_synthetic_cifar() {
    let data = synthetic_cifar(600, 32);
    let (train, test) = data.split(0.8);
    // 6 epochs, not 4: the margin must hold on every SIMD backend (the
    // suite runs forced-scalar in CI), and backend rounding differences
    // compound chaotically through training — at 4 epochs this run sat
    // just past the threshold on some backends and under it on others.
    let mut net = ResNet18Config::reduced(0.0625).build(3);
    let cfg = TrainConfig { epochs: 6, batch_size: 32, lr: 0.05, ..Default::default() };
    fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &cfg);
    let acc = net.accuracy(test.images(), test.labels(), 64);
    assert!(acc > 0.3, "ResNet-18 should beat chance clearly, got {acc}");
}

#[test]
fn resnet18_tiny_imagenet_shapes_and_pipeline() {
    let data = synthetic_tiny_imagenet(160, 8, 33);
    let (train, test) = data.split(0.75);
    let cfg_model = ResNet18Config {
        num_classes: 8,
        stem: ResNetStem::TinyImageNet,
        width_factor: 0.0625,
        ..ResNet18Config::paper_tiny_imagenet()
    };
    let mut net = cfg_model.build(4);
    let cfg = TrainConfig { epochs: 2, batch_size: 16, lr: 0.05, ..Default::default() };
    fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &cfg);

    // Whole pipeline on the 6-bit / K=4 sliced configuration (two devices
    // per weight, the paper's CIFAR/TinyImageNet setting).
    let mut model = QuantizedModel::new(net, 6, DeviceConfig::rram());
    assert_eq!(model.mapper().slicing().num_devices(), 2);
    let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &train, 32);
    let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &model.magnitudes()), None);
    let mask = mask_top_fraction(&ranking, 0.1);
    let mut rng = Prng::seed_from_u64(12);
    let (mut mapped, summary) = model.program_network(Some(&mask), &mut rng);
    let acc = mapped.accuracy(test.images(), test.labels(), 32);
    assert!((0.0..=1.0).contains(&acc));
    // Bulk pulses: 2 devices per unselected weight.
    let unselected = model.weight_count() as u64 - summary.verified_weights;
    assert_eq!(summary.bulk_pulses, 2 * unselected);
}

#[test]
fn quantization_bits_match_paper_settings() {
    // 4-bit LeNet -> 1 device; 6-bit ConvNet/ResNet -> 2 devices (K=4).
    let lenet = QuantizedModel::new(LeNetConfig::default().build(0), 4, DeviceConfig::rram());
    assert_eq!(lenet.mapper().slicing().num_devices(), 1);
    let convnet =
        QuantizedModel::new(ConvNetConfig::reduced(0.0625).build(0), 6, DeviceConfig::rram());
    assert_eq!(convnet.mapper().slicing().num_devices(), 2);
    assert_eq!(convnet.mapper().slicing().device_levels(1), 4);
}

#[test]
fn paper_scale_weight_counts() {
    // The paper's weight counts: LeNet 1.05e5, ConvNet 6.4e6, ResNet-18
    // 1.12e7. Ours land close (each builder's doc gives its layer shapes).
    let mut lenet = LeNetConfig::paper().build(0);
    let n = lenet.device_weight_count();
    assert!((95_000..115_000).contains(&n), "LeNet {n}");

    let mut resnet = ResNet18Config::paper_cifar().build(0);
    let n = resnet.device_weight_count();
    assert!((10_900_000..11_400_000).contains(&n), "ResNet-18 {n}");
}
