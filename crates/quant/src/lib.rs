//! Fixed-point quantization and K-bit device bit-slicing.
//!
//! The SWIM paper maps quantized DNN weights onto multi-level non-volatile
//! memory devices (§4.1). A weight's desired value is an `M`-bit magnitude
//! code with a separate sign (Eq. 14):
//!
//! ```text
//! W_des = Σ_{i=0}^{M-1} m_i · 2^i
//! ```
//!
//! and the magnitude is *bit-sliced* onto `M/K` devices of `K` bits each
//! (Eq. 15), so device `i` stores the level `Σ_j m_{iK+j} 2^j`. Programming
//! noise on each device is value-independent Gaussian, which makes the
//! total weight-code error `N(0, σ² Σ_i 2^{2iK})` (Eq. 16) — the
//! variance amplification exposed by [`slicing::DeviceSlicing`].
//!
//! This crate provides that pipeline:
//!
//! * [`params::QuantParams`] — symmetric max-abs calibration, code ↔ value;
//! * [`fake::fake_quant`] — straight-through fake quantization used for
//!   quantization-aware training and activation quantization;
//! * [`slicing`] — sign-magnitude K-bit slicing and reconstruction.
//!
//! # Example
//!
//! ```
//! use swim_quant::slicing::DeviceSlicing;
//!
//! // 4-bit weights on 4-bit devices: one device per weight (LeNet setup).
//! let slicing = DeviceSlicing::new(4, 4);
//! assert_eq!(slicing.num_devices(), 1);
//! assert_eq!(slicing.variance_amplification(), 1.0);
//!
//! // 6-bit weights on 4-bit devices: low nibble + 2-bit high device.
//! let slicing = DeviceSlicing::new(6, 4);
//! assert_eq!(slicing.num_devices(), 2);
//! assert_eq!(slicing.variance_amplification(), 1.0 + 256.0);
//! ```

#![warn(missing_docs)]

pub mod fake;
pub mod params;
pub mod slicing;

pub use fake::{fake_quant, fake_quant_into, fake_quant_unsigned, fake_quant_unsigned_into};
pub use params::QuantParams;
pub use slicing::DeviceSlicing;
