//! # SWIM: Selective Write-Verify for Computing-in-Memory Neural Accelerators
//!
//! A from-scratch Rust reproduction of [Yan, Hu & Shi, DAC 2022]
//! (arXiv:2202.08395): when a trained, quantized DNN is programmed onto a
//! non-volatile computing-in-memory (nvCiM) accelerator, only a small
//! fraction of the weights — those with the largest diagonal second
//! derivative of the loss — need the slow iterative *write-verify*
//! procedure; the rest can be written once, noisily, in parallel. SWIM
//! computes all second derivatives in a single forward+backward pass and
//! cuts programming time by up to 10× at equal accuracy.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`tensor`] — dense f32 tensors, GEMM, im2col, deterministic PRNG;
//! * [`nn`] — layers, models (LeNet / ConvNet / ResNet-18), losses, SGD,
//!   and the paper's single-pass second-derivative backpropagation;
//! * [`quant`] — M-bit quantization and K-bit device bit-slicing;
//! * [`cim`] — the NVM device model, write-verify programming with exact
//!   pulse accounting, and a crossbar tile;
//! * [`data`] — procedural MNIST / CIFAR-10 / Tiny-ImageNet substitutes;
//! * [`core`] — the SWIM algorithm, the paper's baselines (behind the
//!   pluggable `Selector` trait), and the Monte Carlo evaluation harness;
//! * [`exp`] — declarative `ExperimentSpec` documents, presets for every
//!   paper artifact, and the TOML/JSON value layer behind the `swim` CLI;
//! * [`report`] — the typed results-document schema plus the
//!   `swim diff` / `swim report` / `swim summarize` analysis engines.
//!
//! # Quickstart
//!
//! ```
//! use swim::prelude::*;
//!
//! // 1. Train a model (tiny budget for the doctest).
//! let data = synthetic_mnist(300, 7);
//! let (train, test) = data.split(0.8);
//! let mut net = LeNetConfig::default().build(42);
//! let cfg = TrainConfig { epochs: 1, batch_size: 32, lr: 0.05, ..Default::default() };
//! fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &cfg);
//!
//! // 2. Quantize and bind to the device model.
//! let mut model = QuantizedModel::new(net, 4, DeviceConfig::rram());
//!
//! // 3. Rank weights by second derivative (one pass) and write-verify
//! //    only the top 10%.
//! let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &train, 64);
//! let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &model.magnitudes()), None);
//! let mask = mask_top_fraction(&ranking, 0.10);
//!
//! // 4. Program onto devices and evaluate under programming noise.
//! let mut rng = Prng::seed_from_u64(1);
//! let (mut mapped, summary) = model.program_network(Some(&mask), &mut rng);
//! let accuracy = mapped.accuracy(test.images(), test.labels(), 64);
//! assert!(accuracy <= 1.0);
//! assert_eq!(summary.verified_weights, (model.weight_count() as f64 * 0.1).round() as u64);
//! ```
//!
//! # Reproducing the paper's tables and figures
//!
//! The unified `swim` CLI in `swim-bench` runs every paper artifact from
//! a named preset or a declarative spec file (see README.md and
//! `examples/specs/`):
//!
//! ```text
//! cargo run --release -p swim-bench --bin swim -- list
//! cargo run --release -p swim-bench --bin swim -- preset table1 --out table1.json
//! cargo run --release -p swim-bench --bin swim -- run examples/specs/table1.toml
//! ```
//!
//! [Yan, Hu & Shi, DAC 2022]: https://arxiv.org/abs/2202.08395

#![warn(missing_docs)]

pub use swim_cim as cim;
pub use swim_core as core;
pub use swim_data as data;
pub use swim_exp as exp;
pub use swim_nn as nn;
pub use swim_quant as quant;
pub use swim_report as report;
pub use swim_tensor as tensor;

/// One-import convenience: the types used by a typical SWIM workflow.
pub mod prelude {
    pub use swim_cim::device::{DeviceConfig, DeviceTech};
    pub use swim_core::algorithm::{selective_write_verify, Alg1Config};
    pub use swim_core::insitu::{insitu_training, InsituConfig};
    pub use swim_core::model::QuantizedModel;
    pub use swim_core::montecarlo::{nwc_sweep, SweepConfig};
    pub use swim_core::select::{
        mask_top_fraction, registry, selector_by_name, MagnitudeSelector, RandomSelector,
        SelectionInputs, Selector, SwimSelector,
    };
    pub use swim_data::{synthetic_cifar, synthetic_mnist, synthetic_tiny_imagenet, Dataset};
    pub use swim_exp::spec::ExperimentSpec;
    pub use swim_nn::loss::{L2Loss, Loss, SoftmaxCrossEntropy};
    pub use swim_nn::models::{ConvNetConfig, LeNetConfig, ResNet18Config, ResNetStem};
    pub use swim_nn::train::{fit, TrainConfig};
    pub use swim_nn::{Layer, Mode, Network};
    pub use swim_report::schema::ResultsDoc;
    pub use swim_tensor::{Prng, Tensor};
}
