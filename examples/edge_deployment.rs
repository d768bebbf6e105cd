//! Edge-deployment scenario: meet an accuracy target with the least
//! programming time (the paper's Algorithm 1, driven by δA).
//!
//! The paper's motivation is edge devices: programming even ResNet-18
//! with full write-verify "can take more than one week". A deployment
//! engineer instead specifies the largest accuracy drop δA they can
//! tolerate; Algorithm 1 write-verifies sensitivity-ranked groups of
//! weights until the mapped network meets it, and stops.
//!
//! This example runs Algorithm 1 at several δA budgets and shows the
//! NWC each one costs — the accuracy/programming-time dial SWIM gives a
//! deployment pipeline.
//!
//! ```text
//! cargo run --release --example edge_deployment
//! ```

use swim::core::algorithm::{selective_write_verify, Alg1Config};
use swim::prelude::*;

fn main() {
    println!("[prep] training LeNet on the MNIST substitute...");
    let data = synthetic_mnist(2500, 3);
    let (train, test) = data.split(0.8);
    let mut net = LeNetConfig::default().build(11);
    let cfg = TrainConfig { epochs: 6, batch_size: 32, lr: 0.05, ..Default::default() };
    fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &cfg);

    // A noisy, immature device technology (sigma = 0.2, the paper's
    // worst case) makes the trade-off visible.
    let device = DeviceConfig::rram().with_sigma(0.2);
    let mut model = QuantizedModel::new(net, 4, device);
    let reference = model.clean_accuracy(&train, 256);
    println!(
        "[prep] clean mapped accuracy (reference A): {:.2}% on the training set\n",
        100.0 * reference
    );

    println!("[swim] one second-derivative pass for the ranking...");
    let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &train, 128);
    let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &model.magnitudes()), None);

    println!("\nAlgorithm 1 under different accuracy budgets (granularity p = 5%):\n");
    println!(
        "{:>8} {:>14} {:>12} {:>10} {:>12} {:>14}",
        "deltaA", "verified %", "NWC", "groups", "train acc", "test acc"
    );
    for max_drop in [0.05, 0.02, 0.01, 0.005, 0.0] {
        let alg_cfg = Alg1Config { granularity: 0.05, max_drop, batch: 256 };
        let mut rng = Prng::seed_from_u64(100 + (max_drop * 1000.0) as u64);
        let outcome =
            selective_write_verify(&mut model, &ranking, &train, reference, &alg_cfg, &mut rng);
        // Re-program with the found fraction to get an unbiased test
        // accuracy (Alg. 1 evaluates on D = training data, like the paper).
        let mask = mask_top_fraction(&ranking, outcome.verified_fraction);
        let (mut mapped, _) = model.program_network(Some(&mask), &mut rng);
        let test_acc = mapped.accuracy(test.images(), test.labels(), 256);
        println!(
            "{:>7.1}% {:>13.1}% {:>12.3} {:>10} {:>11.2}% {:>13.2}%",
            100.0 * max_drop,
            100.0 * outcome.verified_fraction,
            outcome.nwc,
            outcome.groups,
            100.0 * outcome.accuracy,
            100.0 * test_acc,
        );
    }

    println!(
        "\nreading the table: a relaxed budget (5%) deploys with a fraction of the write\n\
         cycles; tightening toward 0% smoothly buys accuracy with programming time.\n\
         That dial — not a fixed all-or-nothing write-verify — is SWIM's deployment story."
    );
}
