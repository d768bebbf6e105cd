//! Quickstart: the complete SWIM pipeline on LeNet in ~1 minute.
//!
//! Train → quantize → rank by second derivative → selectively
//! write-verify → evaluate under programming noise, comparing against
//! writing-verifying everything and nothing.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use swim::prelude::*;

fn main() {
    let t0 = std::time::Instant::now();

    // 1. Data and training (the substrate the paper assumes: a model
    //    "trained to converge ... before mapping").
    println!("[1/4] generating data and training LeNet...");
    let data = synthetic_mnist(2500, 1);
    let (train, test) = data.split(0.8);
    let mut net = LeNetConfig::default().build(42);
    let cfg = TrainConfig { epochs: 6, batch_size: 32, lr: 0.05, ..Default::default() };
    fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &cfg);
    let float_acc = net.accuracy(test.images(), test.labels(), 256);
    println!("      float test accuracy: {:.2}%", 100.0 * float_acc);

    // 2. Quantize to 4 bits and bind to an RRAM-like device model with
    //    sigma = 0.15 programming noise.
    println!("[2/4] quantizing to 4 bits, binding to RRAM devices (sigma = 0.15)...");
    let device = DeviceConfig::rram().with_sigma(0.15);
    let mut model = QuantizedModel::new(net, 4, device);
    let clean_acc = model.clean_accuracy(&test, 256);
    println!(
        "      quantized accuracy: {:.2}%  ({} device-mapped weights)",
        100.0 * clean_acc,
        model.weight_count()
    );

    // 3. SWIM sensitivity analysis: one forward + one second-order
    //    backward pass over the training set.
    println!("[3/4] computing second-derivative sensitivities (single pass)...");
    let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &train, 128);
    let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &model.magnitudes()), None);

    // 4. Program with three write-verify budgets and measure.
    println!("[4/4] programming and evaluating under device variation...\n");
    println!("{:<28} {:>10} {:>12} {:>14}", "configuration", "accuracy", "NWC", "write pulses");
    let mut rng = Prng::seed_from_u64(7);
    let denom = model.write_verify_all_cost(&mut rng.fork(u64::MAX)) as f64;
    for (label, fraction) in [
        ("no write-verify", 0.0),
        ("SWIM top 10%", 0.10),
        ("SWIM top 50%", 0.50),
        ("write-verify everything", 1.0),
    ] {
        let mask = mask_top_fraction(&ranking, fraction);
        let (mut mapped, summary) = model.program_network(Some(&mask), &mut rng);
        let acc = mapped.accuracy(test.images(), test.labels(), 256);
        println!(
            "{:<28} {:>9.2}% {:>12.3} {:>14}",
            label,
            100.0 * acc,
            summary.verify_pulses as f64 / denom,
            summary.verify_pulses
        );
    }

    println!(
        "\nSWIM's claim: the top-10% row should sit within a couple points of full \
         write-verify\nat one tenth of the write cycles. Total example time: {:?}",
        t0.elapsed()
    );
}
