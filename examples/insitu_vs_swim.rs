//! Write-budget race: SWIM vs on-chip in-situ training.
//!
//! The paper's §4.2 contrasts two ways of spending write pulses after
//! mapping: *verifying* the most sensitive weights (SWIM) vs *training*
//! on-chip (ref [13], one noisy write per weight per update). In-situ
//! training eventually recovers full accuracy — the paper reports 32 NWC
//! for LeNet — but SWIM gets most of the accuracy back with a tenth of
//! one NWC's worth of pulses.
//!
//! This example gives both methods the same escalating write budget and
//! prints the race.
//!
//! ```text
//! cargo run --release --example insitu_vs_swim
//! ```

use swim::core::insitu::{insitu_training, InsituConfig};
use swim::core::montecarlo::{nwc_sweep_outcome, SweepConfig};
use swim::prelude::*;

fn main() {
    println!("[prep] training LeNet on the MNIST substitute...");
    let data = synthetic_mnist(2500, 9);
    let (train, test) = data.split(0.8);
    let mut net = LeNetConfig::default().build(33);
    let cfg = TrainConfig { epochs: 6, batch_size: 32, lr: 0.05, ..Default::default() };
    fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &cfg);

    let device = DeviceConfig::rram().with_sigma(0.15);
    let mut model = QuantizedModel::new(net, 4, device);
    let clean = 100.0 * model.clean_accuracy(&test, 256);
    println!("[prep] clean mapped accuracy: {clean:.2}%\n");

    // SWIM curve over the shared budget grid.
    let budgets = vec![0.0, 0.1, 0.3, 0.5, 1.0, 2.0, 4.0];
    let swim_fractions: Vec<f64> = budgets.iter().map(|&b: &f64| b.min(1.0)).collect();
    let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &train, 128);
    let mags = model.magnitudes();
    let swim_curve = nwc_sweep_outcome(
        &model,
        &SwimSelector,
        &sens,
        &mags,
        &test,
        &SweepConfig {
            fractions: swim_fractions,
            runs: 10,
            eval_batch: 256,
            seed: 3,
            ..Default::default()
        },
    )
    .points;

    // In-situ curve over the same budgets (it can exceed NWC 1.0).
    println!("[race] running in-situ training to NWC {}...", budgets.last().unwrap());
    let insitu_cfg =
        InsituConfig { lr: 0.02, batch_size: 32, eval_batch: 256, record_at: budgets.clone() };
    let mut rng = Prng::seed_from_u64(17);
    let insitu_curve = insitu_training(
        &mut model,
        &SoftmaxCrossEntropy::new(),
        &train,
        &test,
        &insitu_cfg,
        &mut rng,
    );

    println!("\n{:>10} {:>16} {:>16}", "NWC budget", "SWIM accuracy", "in-situ accuracy");
    for (i, &budget) in budgets.iter().enumerate() {
        let swim_acc = swim_curve[i].accuracy.mean();
        let swim_note = if budget > 1.0 {
            // SWIM cannot spend more than 1.0 NWC (all weights verified).
            format!("{:.2}% (saturated)", swim_acc)
        } else {
            format!("{:.2}%", swim_acc)
        };
        println!("{:>10.1} {:>16} {:>15.2}%", budget, swim_note, 100.0 * insitu_curve[i].accuracy);
    }

    println!(
        "\nreading the table: in-situ training crawls upward — every update rewrites all\n\
         weights with fresh noise — while SWIM jumps to near-clean accuracy within a\n\
         fraction of one NWC. The paper reports in-situ needs 32 NWC to fully recover\n\
         LeNet; extend the budget list to watch it close the gap (slowly)."
    );
}
