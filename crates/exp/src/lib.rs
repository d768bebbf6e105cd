//! Declarative experiment descriptions for the SWIM reproduction.
//!
//! This crate turns "which experiment am I running" into data: an
//! [`spec::ExperimentSpec`] bundles scenario, device model, training
//! budget, selection strategy, sweep grid, and Monte Carlo budget into
//! one validated struct that
//!
//! * parses from a hand-rolled TOML subset or JSON ([`value`]) with
//!   `Default`-based completion and unknown-key rejection,
//! * writes back out losslessly (spec files and results documents are
//!   diffable artifacts),
//! * derives the per-stage config views the engine crates consume
//!   (`Alg1Config`, `DeviceConfig`, the shard run range), and
//! * ships presets replicating each paper artifact ([`presets`]).
//!
//! The `swim` CLI in `swim-bench` is the main consumer: `swim run
//! spec.toml`, `swim preset table1 --set runs=25`, `swim list`.
//!
//! # Example
//!
//! ```
//! use swim_exp::presets::preset;
//! use swim_exp::spec::ExperimentSpec;
//!
//! let spec = preset("table1", false).unwrap();
//! assert_eq!(spec.device.sigmas, vec![0.1, 0.15, 0.2]);
//!
//! // Specs are data: write, edit, re-parse.
//! let text = spec.to_toml();
//! let same = ExperimentSpec::parse_str(&text).unwrap();
//! assert_eq!(spec, same);
//! ```

#![warn(missing_docs)]

pub mod presets;
pub mod spec;
pub mod value;

pub use presets::{preset, preset_infos};
pub use spec::{ExperimentKind, ExperimentSpec, ScenarioKind, SpecError};
pub use value::Value;
