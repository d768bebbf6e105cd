//! Device-technology comparison: SWIM across RRAM / FeFET / PCM presets
//! and a variation sweep.
//!
//! The paper notes that "certain emerging technologies may lead to higher
//! variations especially before they become mature" (§4.3) and sweeps
//! σ ∈ {0.1, 0.15, 0.2}. This example maps the same trained LeNet onto
//! the three technology presets and onto a σ sweep, comparing how much
//! write-verify each needs to recover accuracy — the kind of study a
//! device engineer would run to size a programming-time budget.
//!
//! ```text
//! cargo run --release --example device_comparison
//! ```

use swim::cim::device::DeviceTech;
use swim::core::montecarlo::{nwc_sweep, SweepConfig};
use swim::prelude::*;

fn main() {
    println!("[prep] training LeNet on the MNIST substitute...");
    let data = synthetic_mnist(2500, 5);
    let (train, test) = data.split(0.8);
    let mut net = LeNetConfig::default().build(21);
    let cfg = TrainConfig { epochs: 6, batch_size: 32, lr: 0.05, ..Default::default() };
    fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &cfg);
    println!(
        "[prep] float accuracy {:.2}%\n",
        100.0 * net.accuracy(test.images(), test.labels(), 256)
    );

    let configs: Vec<(String, DeviceConfig)> =
        [DeviceTech::Rram, DeviceTech::Fefet, DeviceTech::Pcm]
            .into_iter()
            .map(|t| (format!("{t} preset"), DeviceConfig::for_tech(t)))
            .chain([(
                "immature device (sigma 0.2)".to_string(),
                DeviceConfig::rram().with_sigma(0.2),
            )])
            .collect();

    println!(
        "{:<30} {:>7} {:>12} {:>12} {:>12}",
        "device", "sigma", "acc @ NWC 0", "acc @ 0.1", "acc @ 1.0"
    );
    for (name, device) in configs {
        // Each device binds its own copy of the same trained network.
        let mut model = QuantizedModel::new(net.clone(), 4, device);
        let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &train, 128);
        let mags = model.magnitudes();
        let sweep = nwc_sweep(
            &model,
            &SwimSelector,
            &sens,
            &mags,
            &test,
            &SweepConfig {
                fractions: vec![0.0, 0.1, 1.0],
                runs: 15,
                eval_batch: 256,
                seed: 9,
                ..Default::default()
            },
        );
        println!(
            "{:<30} {:>7.2} {:>11.2}% {:>11.2}% {:>11.2}%",
            name,
            device.sigma,
            sweep[0].accuracy.mean(),
            sweep[1].accuracy.mean(),
            sweep[2].accuracy.mean(),
        );
    }

    println!(
        "\nreading the table: noisier technologies lose more accuracy unprotected\n\
         (NWC 0), but SWIM's top-10% write-verify recovers most of the gap on every\n\
         device — the selection transfers across technologies because it depends on\n\
         the *network's* curvature, not the device."
    );
}
