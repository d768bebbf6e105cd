//! Algorithm 1: iterative selective write-verify.
//!
//! The paper's Alg. 1: program all weights, rank them by sensitivity,
//! then write-verify them in groups of `p` (5% of the weights by
//! default), re-reading the mapped network's accuracy after each group
//! and stopping as soon as the drop versus the reference accuracy is
//! within the budget `δA`. Reads are free; only write pulses count.

use crate::model::QuantizedModel;
use swim_data::Dataset;
use swim_nn::ActivationArena;
use swim_tensor::Prng;

/// Configuration for [`selective_write_verify`].
#[derive(Debug, Clone, Copy)]
pub struct Alg1Config {
    /// Programming granularity `p` as a fraction of the weights
    /// (paper: 0.05 — "setting p to be 5% of the total number of weights
    /// is sufficient").
    pub granularity: f64,
    /// Maximum acceptable accuracy drop `δA`, in accuracy fraction
    /// (e.g. `0.005` = half a percentage point).
    pub max_drop: f64,
    /// Evaluation batch size.
    pub batch: usize,
}

impl Default for Alg1Config {
    fn default() -> Self {
        Alg1Config { granularity: 0.05, max_drop: 0.005, batch: 256 }
    }
}

/// Outcome of one Algorithm 1 execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alg1Outcome {
    /// Accuracy of the mapped network when the loop stopped.
    pub accuracy: f64,
    /// Normalized write cycles spent on write-verify.
    pub nwc: f64,
    /// Fraction of weights that were write-verified.
    pub verified_fraction: f64,
    /// Number of granularity groups processed.
    pub groups: usize,
    /// Whether the accuracy budget was met (false = ran out of weights).
    pub met_budget: bool,
}

/// Runs Algorithm 1 on a mapped model.
///
/// `ranking` is the most-important-first weight order (from
/// [`crate::select::Selector::rank`]); `reference_accuracy` is `A`, the
/// clean model's accuracy; `eval` is the dataset `D` used for the
/// accuracy re-reads (the paper uses the training set).
///
/// # Panics
///
/// Panics if the ranking length differs from the model's weight count or
/// the config is out of range.
pub fn selective_write_verify(
    model: &mut QuantizedModel,
    ranking: &[usize],
    eval: &Dataset,
    reference_accuracy: f64,
    config: &Alg1Config,
    rng: &mut Prng,
) -> Alg1Outcome {
    let n = model.weight_count();
    assert_eq!(ranking.len(), n, "ranking length mismatch");
    assert!(config.granularity > 0.0 && config.granularity <= 1.0, "granularity must be in (0, 1]");
    assert!(config.max_drop >= 0.0, "max_drop must be non-negative");
    assert!(config.batch > 0, "batch must be positive");

    // NWC denominator on an independent stream.
    let denom = model.write_verify_all_cost(&mut rng.fork(u64::MAX)) as f64;

    // Step 2: program all weights (parallel bulk write; free per the
    // paper's NWC accounting).
    let (mut weights, _) = model.program_weights(None, rng);

    let group = ((n as f64 * config.granularity).round() as usize).max(1);
    let mut verify_pulses = 0u64;
    let mut verified = 0usize;
    let mut groups = 0usize;
    let mut met_budget = false;

    // NWC = 0 evaluation first: maybe no write-verify is needed at all.
    // One arena serves every per-group evaluation of this run.
    let mut arena = ActivationArena::new();
    model.network_mut().set_device_weights(&weights);
    let mut accuracy =
        model.network_mut().accuracy_with(eval.images(), eval.labels(), config.batch, &mut arena);
    if reference_accuracy - accuracy <= config.max_drop {
        met_budget = true;
    } else {
        let mut start = 0usize;
        while start < n {
            let end = (start + group).min(n);
            for &idx in &ranking[start..end] {
                let (value, pulses) = model.program_single(idx, true, rng);
                weights[idx] = value;
                verify_pulses += pulses;
            }
            verified += end - start;
            groups += 1;
            model.network_mut().set_device_weights(&weights);
            accuracy = model.network_mut().accuracy_with(
                eval.images(),
                eval.labels(),
                config.batch,
                &mut arena,
            );
            if reference_accuracy - accuracy <= config.max_drop {
                met_budget = true;
                break;
            }
            start = end;
        }
    }
    model.restore_clean();

    Alg1Outcome {
        accuracy,
        nwc: verify_pulses as f64 / denom,
        verified_fraction: verified as f64 / n as f64,
        groups,
        met_budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{SelectionInputs, Selector, SwimSelector};
    use swim_cim::DeviceConfig;
    use swim_nn::layers::{Flatten, Linear, Relu, Sequential};
    use swim_nn::loss::SoftmaxCrossEntropy;
    use swim_nn::Network;
    use swim_tensor::Tensor;

    /// Small trained classifier over 2 blobs.
    fn trained() -> (QuantizedModel, Dataset) {
        let mut rng = Prng::seed_from_u64(20);
        let mut seq = Sequential::new();
        seq.push(Flatten::new());
        seq.push(Linear::new(8, 12, &mut rng));
        seq.push(Relu::new());
        seq.push(Linear::new(12, 2, &mut rng));
        let mut net = Network::new("t", seq);
        let n = 80;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let cls = i % 2;
            let c = if cls == 0 { -1.0f32 } else { 1.0 };
            for _ in 0..8 {
                xs.push(c + rng.normal_f32(0.0, 0.5));
            }
            ys.push(cls);
        }
        let images = Tensor::from_vec(xs, &[n, 1, 2, 4]).unwrap();
        let data = Dataset::new(images, ys, 2).unwrap();
        let cfg = swim_nn::train::TrainConfig {
            epochs: 12,
            batch_size: 16,
            lr: 0.1,
            ..Default::default()
        };
        swim_nn::train::fit(
            &mut net,
            &SoftmaxCrossEntropy::new(),
            data.images(),
            data.labels(),
            &cfg,
        );
        // High sigma so write-verify is actually needed.
        let model = QuantizedModel::new(net, 4, DeviceConfig::rram().with_sigma(0.5));
        (model, data)
    }

    #[test]
    fn loose_budget_stops_immediately() {
        let (mut model, data) = trained();
        let reference = model.clean_accuracy(&data, 64);
        let ranking: Vec<usize> = (0..model.weight_count()).collect();
        let cfg = Alg1Config { max_drop: 1.0, ..Default::default() };
        let mut rng = Prng::seed_from_u64(1);
        let out = selective_write_verify(&mut model, &ranking, &data, reference, &cfg, &mut rng);
        assert!(out.met_budget);
        assert_eq!(out.nwc, 0.0);
        assert_eq!(out.verified_fraction, 0.0);
    }

    #[test]
    fn tight_budget_verifies_more_than_loose() {
        let (mut model, data) = trained();
        let reference = model.clean_accuracy(&data, 64);
        let mut rng_sens = Prng::seed_from_u64(2);
        let _ = &mut rng_sens;
        let loss = SoftmaxCrossEntropy::new();
        let sens = model.sensitivities(&loss, &data, 40);
        let mags = model.magnitudes();
        let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &mags), None);

        let mut rng = Prng::seed_from_u64(3);
        let tight = selective_write_verify(
            &mut model,
            &ranking,
            &data,
            reference,
            &Alg1Config { max_drop: 0.0, granularity: 0.1, batch: 64 },
            &mut rng,
        );
        let mut rng = Prng::seed_from_u64(3);
        let loose = selective_write_verify(
            &mut model,
            &ranking,
            &data,
            reference,
            &Alg1Config { max_drop: 0.25, granularity: 0.1, batch: 64 },
            &mut rng,
        );
        assert!(tight.verified_fraction >= loose.verified_fraction);
        assert!(tight.nwc >= loose.nwc);
    }

    #[test]
    fn full_verification_recovers_reference() {
        let (mut model, data) = trained();
        let reference = model.clean_accuracy(&data, 64);
        let ranking: Vec<usize> = (0..model.weight_count()).collect();
        let mut rng = Prng::seed_from_u64(4);
        let out = selective_write_verify(
            &mut model,
            &ranking,
            &data,
            reference,
            &Alg1Config { max_drop: 0.0, granularity: 0.25, batch: 64 },
            &mut rng,
        );
        // Even if the budget was never met, verifying everything must end
        // within margin-level accuracy of the reference.
        assert!(
            out.accuracy >= reference - 0.05,
            "accuracy {} vs reference {reference}",
            out.accuracy
        );
        if !out.met_budget {
            assert_eq!(out.verified_fraction, 1.0);
            assert!((out.nwc - 1.0).abs() < 0.1, "nwc {}", out.nwc);
        }
    }

    #[test]
    fn model_weights_restored_after_run() {
        let (mut model, data) = trained();
        let before = model.clean_weights().to_vec();
        let reference = model.clean_accuracy(&data, 64);
        let ranking: Vec<usize> = (0..model.weight_count()).collect();
        let mut rng = Prng::seed_from_u64(5);
        selective_write_verify(
            &mut model,
            &ranking,
            &data,
            reference,
            &Alg1Config::default(),
            &mut rng,
        );
        assert_eq!(model.network_mut().device_weights(), before);
    }
}
