//! Non-volatile computing-in-memory (nvCiM) substrate.
//!
//! The SWIM paper evaluates against a simulated nvCiM accelerator whose
//! devices suffer temporal programming variation: every write lands at
//! `N(g_desired, σ²)` with σ independent of the value (paper §4.1,
//! Eq. 16, after ref \[2\]). This crate is that accelerator substrate:
//!
//! * [`device::DeviceConfig`] — variation level σ, write-verify margin,
//!   pulse quantum, and `K`-bit device resolution, with RRAM / FeFET /
//!   PCM presets;
//! * [`writeverify`] — single-device programming with and without the
//!   iterative write-verify loop, counting every programming pulse
//!   (the paper's programming-time unit);
//! * [`mapping::WeightMapper`] — programs whole quantized weight tensors
//!   through bit-slicing ([`swim_quant::DeviceSlicing`]), returning noisy
//!   weights plus exact pulse counts — the bridge between the neural
//!   network world and the device world;
//! * [`crossbar`] — a crossbar tile model (differential columns for
//!   signed weights, optional ADC quantization) performing matrix-vector
//!   multiplication in the "analog" domain.
//!
//! # Calibration against the paper
//!
//! With the default `sigma = 0.1`, `margin = 0.06`, `pulse_step = 0.018`
//! the write-verify loop measures ≈10 average pulses per weight and a
//! residual error std ≈ 0.034 — matching the paper's "average of 10
//! cycles over all the weights and a weight variation distribution with
//! σ = 0.03 after write-verify" (§4.1, after ref \[8\]). See the
//! `calibration` preset (`swim preset calibration`) and the tests in
//! [`writeverify`].
//!
//! # Example
//!
//! ```
//! use swim_cim::device::DeviceConfig;
//! use swim_cim::writeverify::{program_once, write_verify};
//! use swim_tensor::Prng;
//!
//! let cfg = DeviceConfig::rram();
//! let mut rng = Prng::seed_from_u64(1);
//! let raw = program_once(7.0, &cfg, &mut rng);
//! let verified = write_verify(7.0, &cfg, &mut rng);
//! assert!((verified.value - 7.0).abs() <= cfg.level_margin());
//! assert!(verified.pulses >= raw.pulses);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod crossbar;
pub mod device;
pub mod drift;
pub mod mapping;
pub mod model;
pub mod tiles;
pub mod variation;
pub mod writeverify;

pub use cost::{CostEstimate, CostModel};
pub use crossbar::{Crossbar, CrossbarConfig};
pub use device::{DeviceConfig, DeviceTech};
pub use drift::DriftModel;
pub use mapping::{ProgramSummary, WeightMapper};
pub use model::{
    default_device_model, device_model_by_name, device_model_keys, device_model_registry,
    DeviceModel, DriftingModel, MramStochastic, RramGaussian, SramVt, DEFAULT_DEVICE_MODEL,
};
pub use tiles::TiledMatrix;
pub use variation::CorrelatedVariation;
pub use writeverify::{program_once, write_verify, ProgramOutcome};
