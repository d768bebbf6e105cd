//! Activation fake-quantization layer.

use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use swim_tensor::Tensor;

/// Quantizes activations to `bits` on the forward pass; gradients and
/// second derivatives pass through unchanged (straight-through estimator).
///
/// The paper's models are "quantized to the proper data precision"
/// (4-bit for MNIST, 6-bit for CIFAR/Tiny-ImageNet, §4.2–4.5) — on the
/// accelerator this models the finite ADC/DAC resolution at layer
/// boundaries. Placed after ReLU the quantization grid is unsigned;
/// elsewhere it is symmetric signed.
#[derive(Debug, Clone)]
pub struct ActQuant {
    bits: u32,
    unsigned: bool,
}

impl ActQuant {
    /// Creates a signed activation quantizer.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or above 16.
    pub fn new(bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        ActQuant { bits, unsigned: false }
    }

    /// Creates an unsigned quantizer for post-ReLU activations.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or above 16.
    pub fn unsigned(bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        ActQuant { bits, unsigned: true }
    }

    /// Bit width of the quantization grid.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

impl Layer for ActQuant {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, arena: &mut ActivationArena) -> Tensor {
        let mut out = arena.grab();
        if self.unsigned {
            swim_quant::fake_quant_unsigned_into(input, self.bits, &mut out);
        } else {
            swim_quant::fake_quant_into(input, self.bits, &mut out);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        // Straight-through estimator.
        grad_output.clone()
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        hess_output.clone()
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        format!(
            "ActQuant({}-bit, {})",
            self.bits,
            if self.unsigned { "unsigned" } else { "signed" }
        )
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_tensor::Prng;

    #[test]
    fn forward_snaps_to_grid() {
        let mut q = ActQuant::unsigned(2); // grid {0, 1/3, 2/3, 1} * max
        let x = Tensor::from_vec(vec![0.0, 0.4, 0.9, 1.2], &[4]).unwrap();
        let y = q.forward(&x, Mode::Eval);
        let step = 1.2 / 3.0;
        for &v in y.data() {
            let k = (v / step).round();
            assert!((v - k * step).abs() < 1e-6);
        }
    }

    #[test]
    fn straight_through_gradients() {
        let mut q = ActQuant::new(4);
        let mut rng = Prng::seed_from_u64(2);
        let x = Tensor::randn(&[8], &mut rng);
        q.forward(&x, Mode::Train);
        let g = Tensor::randn(&[8], &mut rng);
        assert_eq!(q.backward(&g), g);
        assert_eq!(q.second_backward(&g), g);
    }

    #[test]
    fn higher_bits_smaller_error() {
        let mut rng = Prng::seed_from_u64(3);
        let x = Tensor::randn(&[256], &mut rng);
        let e = |bits| {
            let mut q = ActQuant::new(bits);
            let y = q.forward(&x, Mode::Eval);
            (&y - &x).norm_sq()
        };
        assert!(e(6) < e(3));
    }
}
