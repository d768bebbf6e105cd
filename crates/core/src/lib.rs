//! SWIM: selective write-verify for computing-in-memory neural
//! accelerators.
//!
//! This crate implements the paper's contribution ([Yan, Hu & Shi,
//! DAC 2022]) on top of the workspace substrates:
//!
//! 1. **Sensitivity analysis** ([`sensitivity`]) — the per-weight
//!    second-derivative metric (Eq. 5), computed by `swim-nn`'s
//!    single-pass recursion, with magnitude tie-breaking;
//! 2. **Selection strategies** ([`select`]) — SWIM's Hessian ranking and
//!    the paper's baselines (magnitude, random);
//! 3. **The mapped model** ([`model::QuantizedModel`]) — a trained
//!    network quantized and bound to the device programming model, able
//!    to produce noisy programmed instances with exact write-cycle
//!    accounting;
//! 4. **Algorithm 1** ([`algorithm`]) — iterative selective write-verify
//!    with programming granularity `p` and accuracy-drop budget `δA`;
//! 5. **In-situ training baseline** ([`insitu`]) — on-device SGD
//!    fine-tuning after mapping (paper ref \[13\]), counting one write per
//!    device per update;
//! 6. **Monte Carlo harness** ([`montecarlo`]) — deterministic parallel
//!    replication of the paper's 3,000-run statistics;
//! 7. **Reporting** ([`report`]) — the aligned text tables and CSV the
//!    `swim` CLI prints.
//!
//! # Example: one SWIM pass end to end
//!
//! ```
//! use swim_core::model::QuantizedModel;
//! use swim_core::select::{mask_top_fraction, SelectionInputs, Selector, SwimSelector};
//! use swim_cim::DeviceConfig;
//! use swim_data::synthetic_mnist;
//! use swim_nn::loss::SoftmaxCrossEntropy;
//! use swim_nn::models::LeNetConfig;
//! use swim_tensor::Prng;
//!
//! // A (tiny, untrained — see examples/ for trained) model and data.
//! let net = LeNetConfig::default().build(0);
//! let data = synthetic_mnist(40, 0);
//! let mut model = QuantizedModel::new(net, 4, DeviceConfig::rram());
//!
//! // Rank by second derivative and write-verify the top 10%.
//! let loss = SoftmaxCrossEntropy::new();
//! let sens = model.sensitivities(&loss, &data, 20);
//! let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &model.magnitudes()), None);
//! let mask = mask_top_fraction(&ranking, 0.1);
//! let mut rng = Prng::seed_from_u64(1);
//! let (mut programmed, summary) = model.program_network(Some(&mask), &mut rng);
//! assert_eq!(summary.verified_weights as usize, mask.iter().filter(|&&m| m).count());
//! let _acc = programmed.accuracy(data.images(), data.labels(), 20);
//! ```
//!
//! [Yan, Hu & Shi, DAC 2022]: https://arxiv.org/abs/2202.08395

#![warn(missing_docs)]

pub mod algorithm;
pub mod insitu;
pub mod model;
pub mod montecarlo;
pub mod pool;
pub mod report;
pub mod select;
pub mod sensitivity;

pub use algorithm::{selective_write_verify, Alg1Config, Alg1Outcome};
pub use model::QuantizedModel;
pub use pool::{CancelToken, WorkerPool};
pub use select::{mask_top_fraction, registry, selector_by_name, SelectionInputs, Selector};
