//! Symmetric quantization parameters.

use std::fmt;
use swim_tensor::Tensor;

/// Symmetric, sign-magnitude quantization parameters for one tensor.
///
/// A value `w` maps to an integer magnitude code in `[0, 2^bits − 1]` plus
/// a sign, with `w ≈ sign · code · scale`. Max-abs calibration picks
/// `scale = max|w| / (2^bits − 1)` so the largest weight lands on the top
/// code. This mirrors the paper's Eq. 14, where an `M`-bit magnitude is
/// later bit-sliced onto devices and "negative weights are mapped in a
/// similar manner" (differential columns).
///
/// # Example
///
/// ```
/// use swim_quant::QuantParams;
/// use swim_tensor::Tensor;
///
/// let w = Tensor::from_vec(vec![-1.5, 0.3, 0.75], &[3])?;
/// let p = QuantParams::from_tensor(&w, 4);
/// assert_eq!(p.quantize(-1.5), -15); // most negative value -> -max code
/// let back = p.dequantize(p.quantize(0.3));
/// assert!((back - 0.3).abs() <= p.scale() / 2.0);
/// # Ok::<(), swim_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    bits: u32,
    scale: f32,
}

impl QuantParams {
    /// Creates parameters from an explicit scale.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16, or `scale` is not finite
    /// and positive.
    pub fn new(bits: u32, scale: f32) -> Self {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16, got {bits}");
        assert!(scale.is_finite() && scale > 0.0, "scale must be finite and positive, got {scale}");
        QuantParams { bits, scale }
    }

    /// Max-abs calibration: the largest magnitude in `t` maps to the top
    /// code `2^bits − 1`.
    ///
    /// An all-zero tensor gets `scale = 1.0` (any scale represents it
    /// exactly).
    pub fn from_tensor(t: &Tensor, bits: u32) -> Self {
        let max_abs = t.data().iter().fold(0.0f32, |acc, &x| acc.max(x.abs()));
        let scale = if max_abs > 0.0 { max_abs / Self::max_code_for(bits) as f32 } else { 1.0 };
        QuantParams::new(bits, scale)
    }

    /// Number of magnitude bits `M`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The value of one least-significant magnitude code.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Largest representable magnitude code, `2^bits − 1`.
    pub fn max_code(&self) -> i32 {
        Self::max_code_for(self.bits)
    }

    fn max_code_for(bits: u32) -> i32 {
        (1i32 << bits) - 1
    }

    /// Quantizes a value to a signed code in `[−max_code, max_code]`
    /// (round to nearest, saturating).
    pub fn quantize(&self, value: f32) -> i32 {
        let code = (value / self.scale).round() as i64;
        let m = self.max_code() as i64;
        code.clamp(-m, m) as i32
    }

    /// Reconstructs the real value of a signed code.
    pub fn dequantize(&self, code: i32) -> f32 {
        code as f32 * self.scale
    }

    /// Quantization error bound: values within the representable range are
    /// reconstructed to within half a scale step.
    pub fn half_step(&self) -> f32 {
        self.scale / 2.0
    }
}

impl fmt::Display for QuantParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit (scale {:.3e})", self.bits, self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_top_code() {
        let t = Tensor::from_vec(vec![0.1, -2.0, 1.0], &[3]).unwrap();
        let p = QuantParams::from_tensor(&t, 4);
        assert_eq!(p.quantize(-2.0), -15);
        assert_eq!(p.quantize(2.0), 15);
    }

    #[test]
    fn round_trip_within_half_step() {
        let t = Tensor::from_vec(vec![0.77, -0.33, 0.5, -1.0], &[4]).unwrap();
        for bits in [2u32, 4, 6, 8] {
            let p = QuantParams::from_tensor(&t, bits);
            for &v in t.data() {
                let back = p.dequantize(p.quantize(v));
                assert!((back - v).abs() <= p.half_step() + 1e-7, "bits={bits} v={v} back={back}");
            }
        }
    }

    #[test]
    fn saturates_out_of_range() {
        let p = QuantParams::new(4, 0.1);
        assert_eq!(p.quantize(100.0), 15);
        assert_eq!(p.quantize(-100.0), -15);
    }

    #[test]
    fn zero_maps_to_zero() {
        let p = QuantParams::new(6, 0.02);
        assert_eq!(p.quantize(0.0), 0);
        assert_eq!(p.dequantize(0), 0.0);
    }

    #[test]
    fn all_zero_tensor_is_representable() {
        let t = Tensor::zeros(&[5]);
        let p = QuantParams::from_tensor(&t, 4);
        assert_eq!(p.quantize(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn rejects_zero_bits() {
        QuantParams::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn rejects_bad_scale() {
        QuantParams::new(4, -1.0);
    }

    #[test]
    fn display_mentions_bits() {
        assert!(QuantParams::new(4, 0.5).to_string().contains("4-bit"));
    }
}
