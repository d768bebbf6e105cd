//! ReLU activation.

use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use swim_tensor::simd;
use swim_tensor::Tensor;

/// Rectified linear unit, `y = max(x, 0)`.
///
/// First- and second-order backward both multiply by the active-input
/// indicator: with ReLU, `g'(x)² = 1[x > 0]` and `g'' = 0`, which is why
/// the paper's Eq. 9 collapses to Eq. 10 — the second derivative is routed
/// exactly like the gradient.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    fn mask(&self) -> &[bool] {
        self.mask.as_deref().expect("backward called before forward")
    }
}

impl Layer for Relu {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, arena: &mut ActivationArena) -> Tensor {
        // The active-input mask buffer is refilled in place (no
        // allocation once it has grown to the activation size).
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.clear();
        let mut out = arena.grab();
        out.copy_from(input);
        simd::relu_forward_inplace(out.data_mut(), mask);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self.mask();
        assert_eq!(mask.len(), grad_output.len(), "gradient does not match cached input");
        let mut out = grad_output.clone();
        simd::relu_apply_mask(out.data_mut(), mask);
        out
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        let mask = self.mask();
        assert_eq!(mask.len(), hess_output.len(), "hessian does not match cached input");
        let mut out = hess_output.clone();
        simd::relu_apply_mask(out.data_mut(), mask);
        out
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        "ReLU".into()
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = relu.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_inactive() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[2]).unwrap();
        relu.forward(&x, Mode::Train);
        let g = relu.backward(&Tensor::ones(&[2]));
        assert_eq!(g.data(), &[0.0, 1.0]);
    }

    #[test]
    fn second_backward_same_mask_as_first() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, 0.0, 0.5, 7.0], &[4]).unwrap();
        relu.forward(&x, Mode::Train);
        let g = relu.backward(&Tensor::ones(&[4]));
        let h = relu.second_backward(&Tensor::ones(&[4]));
        assert_eq!(g.data(), h.data());
    }

    #[test]
    fn zero_input_is_inactive() {
        // The boundary x = 0 contributes no derivative (subgradient 0).
        let mut relu = Relu::new();
        relu.forward(&Tensor::zeros(&[1]), Mode::Train);
        assert_eq!(relu.backward(&Tensor::ones(&[1])).data(), &[0.0]);
    }

    #[test]
    fn no_params() {
        let mut relu = Relu::new();
        assert_eq!(relu.num_params(), 0);
    }
}
