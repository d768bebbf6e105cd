//! Cross-crate integration tests: the full SWIM pipeline at small scale.

use std::sync::OnceLock;
use swim::prelude::*;

/// One shared trained LeNet for every test in this file (training it
/// once keeps the suite fast; each test still gets its own model copy).
fn shared() -> &'static (Network, Dataset, Dataset) {
    static TRAINED: OnceLock<(Network, Dataset, Dataset)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let data = synthetic_mnist(2000, 123);
        let (train, test) = data.split(0.8);
        let mut net = LeNetConfig::default().build(5);
        let cfg = TrainConfig { epochs: 5, batch_size: 32, lr: 0.05, ..Default::default() };
        fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &cfg);
        (net, train, test)
    })
}

fn trained_lenet(sigma: f64) -> (QuantizedModel, Dataset, Dataset) {
    let (net, train, test) = shared();
    let model = QuantizedModel::new(net.clone(), 4, DeviceConfig::rram().with_sigma(sigma));
    (model, train.clone(), test.clone())
}

#[test]
fn training_reaches_useful_accuracy() {
    let (mut model, _, test) = trained_lenet(0.1);
    let acc = model.clean_accuracy(&test, 128);
    assert!(acc > 0.6, "LeNet should learn the synthetic digits, got {acc}");
}

#[test]
fn quantization_costs_little_accuracy() {
    let (net, _, test) = shared();
    let mut net = net.clone();
    let float_acc = net.accuracy(test.images(), test.labels(), 128);
    let mut model = QuantizedModel::new(net, 4, DeviceConfig::rram());
    let quant_acc = model.clean_accuracy(test, 128);
    assert!(
        quant_acc > float_acc - 0.1,
        "4-bit quantization dropped accuracy {float_acc} -> {quant_acc}"
    );
}

#[test]
fn unverified_mapping_hurts_and_full_write_verify_recovers() {
    let (model, _, test) = trained_lenet(0.2);
    let mut clean_net = model.network_clone();
    let clean = clean_net.accuracy(test.images(), test.labels(), 128);

    let mut rng = Prng::seed_from_u64(1);
    let (mut noisy_net, _) = model.program_network(None, &mut rng);
    let noisy = noisy_net.accuracy(test.images(), test.labels(), 128);

    let all = vec![true; model.weight_count()];
    let (mut wv_net, _) = model.program_network(Some(&all), &mut rng);
    let recovered = wv_net.accuracy(test.images(), test.labels(), 128);

    assert!(noisy < clean - 0.02, "sigma 0.2 should hurt: clean {clean} noisy {noisy}");
    assert!(
        recovered > noisy,
        "full write-verify should recover: noisy {noisy} recovered {recovered}"
    );
    assert!(
        recovered > clean - 0.03,
        "full write-verify should approach clean: clean {clean} recovered {recovered}"
    );
}

#[test]
fn swim_selection_beats_random_at_low_budget() {
    let (mut model, train, test) = trained_lenet(0.2);
    let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &train, 128);
    let mags = model.magnitudes();
    let cfg = SweepConfig {
        fractions: vec![0.1],
        runs: 10,
        eval_batch: 128,
        seed: 77,
        ..Default::default()
    };
    let swim = nwc_sweep(&model, &SwimSelector, &sens, &mags, &test, &cfg);
    let random = nwc_sweep(&model, &RandomSelector, &sens, &mags, &test, &cfg);
    assert!(
        swim[0].accuracy.mean() > random[0].accuracy.mean(),
        "SWIM {} should beat random {} at 10% budget",
        swim[0].accuracy.mean(),
        random[0].accuracy.mean()
    );
}

#[test]
fn swim_variance_is_lower_than_random() {
    // The paper highlights SWIM's "significantly lower standard
    // deviation in accuracy ... across different devices".
    let (mut model, train, test) = trained_lenet(0.2);
    let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &train, 128);
    let mags = model.magnitudes();
    let cfg = SweepConfig {
        fractions: vec![0.3],
        runs: 12,
        eval_batch: 128,
        seed: 78,
        ..Default::default()
    };
    let swim = nwc_sweep(&model, &SwimSelector, &sens, &mags, &test, &cfg);
    let random = nwc_sweep(&model, &RandomSelector, &sens, &mags, &test, &cfg);
    assert!(
        swim[0].accuracy.std() < random[0].accuracy.std() * 1.5,
        "SWIM std {} should not exceed random std {} materially",
        swim[0].accuracy.std(),
        random[0].accuracy.std()
    );
}

#[test]
fn nwc_accounting_scales_with_selection() {
    let (model, _, _) = trained_lenet(0.1);
    let mut rng = Prng::seed_from_u64(5);
    let denom = model.write_verify_all_cost(&mut rng.fork(u64::MAX)) as f64;
    for fraction in [0.1, 0.5, 0.9] {
        let ranking: Vec<usize> = (0..model.weight_count()).collect();
        let mask = mask_top_fraction(&ranking, fraction);
        let (_, summary) = model.program_weights(Some(&mask), &mut rng);
        let nwc = summary.verify_pulses as f64 / denom;
        assert!(
            (nwc - fraction).abs() < 0.05,
            "NWC {nwc} should track selected fraction {fraction}"
        );
    }
}

#[test]
fn algorithm1_meets_budget_on_easy_setting() {
    let (mut model, train, _) = trained_lenet(0.1);
    let reference = model.clean_accuracy(&train, 128);
    let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &train, 128);
    let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &model.magnitudes()), None);
    let mut rng = Prng::seed_from_u64(8);
    let out = swim::core::algorithm::selective_write_verify(
        &mut model,
        &ranking,
        &train,
        reference,
        &Alg1Config { granularity: 0.05, max_drop: 0.02, batch: 128 },
        &mut rng,
    );
    assert!(out.met_budget, "budget should be met: {out:?}");
    assert!(out.nwc < 1.0, "selective NWC should be under full write-verify");
}

#[test]
fn end_to_end_determinism() {
    // Identical seeds => identical numbers, across the whole stack.
    // (The shared OnceLock guarantees both closure invocations see the
    // same trained network.)
    let run = || {
        let (mut model, train, test) = trained_lenet(0.15);
        let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &train, 128);
        let mags = model.magnitudes();
        let cfg = SweepConfig {
            fractions: vec![0.2],
            runs: 4,
            threads: 3,
            eval_batch: 128,
            seed: 99,
            ..Default::default()
        };
        nwc_sweep(&model, &SwimSelector, &sens, &mags, &test, &cfg)[0].accuracy.mean()
    };
    assert_eq!(run(), run());
}
