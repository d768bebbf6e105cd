//! Smooth activations (Tanh, Sigmoid) with the *full* second-order rule.
//!
//! The paper's Eq. 9 keeps a curvature term that vanishes for ReLU:
//!
//! ```text
//! ∂²f/∂I² = g'(I)² · ∂²f/∂P²  −  g''(I) · ∂f/∂I-side-term
//! ```
//!
//! in the standard chain-rule form for `P = g(I)`:
//! `h_I = g'(I)²·h_P + g''(I)·(∂f/∂P)`. For ReLU `g'' = 0` and the rule
//! collapses to the indicator (Eq. 10); these layers implement the
//! general form, which requires the first-order gradient `∂f/∂P` — so
//! [`Layer::backward`] must run before [`Layer::second_backward`] for the
//! curvature term to be included (the
//! [`crate::network::Network::accumulate_hessian_full`] helper does
//! this). Without a cached gradient the layers fall back to the
//! Gauss–Newton form (`g''` term dropped), which is also what the paper's
//! ReLU-only experiments use.

use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use swim_tensor::Tensor;

/// Which smooth nonlinearity a [`SmoothActivation`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Smooth {
    /// `tanh(x)`; `g' = 1 − g²`, `g'' = −2·g·g'`.
    Tanh,
    /// `1/(1+e^{−x})`; `g' = g(1−g)`, `g'' = g'(1−2g)`.
    Sigmoid,
}

/// Tanh or sigmoid activation with exact second-order backpropagation.
///
/// # Example
///
/// ```
/// use swim_nn::layers::{Smooth, SmoothActivation};
/// use swim_nn::layer::{Layer, Mode};
/// use swim_tensor::Tensor;
///
/// let mut act = SmoothActivation::new(Smooth::Tanh);
/// let y = act.forward(&Tensor::from_vec(vec![0.0, 100.0], &[2])?, Mode::Eval);
/// assert!(y.data()[0].abs() < 1e-7);
/// assert!((y.data()[1] - 1.0).abs() < 1e-6);
/// # Ok::<(), swim_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SmoothActivation {
    kind: Smooth,
    /// Cached activation output `g(I)` from the last forward.
    output: Option<Tensor>,
    /// Cached upstream gradient `∂f/∂P` from the last backward.
    grad_output: Option<Tensor>,
}

impl SmoothActivation {
    /// Creates the activation layer.
    pub fn new(kind: Smooth) -> Self {
        SmoothActivation { kind, output: None, grad_output: None }
    }

    /// The nonlinearity in use.
    pub fn kind(&self) -> Smooth {
        self.kind
    }

    fn apply(&self, x: f32) -> f32 {
        match self.kind {
            Smooth::Tanh => x.tanh(),
            Smooth::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// First derivative expressed through the cached output `g`.
    fn derivative(&self, g: f32) -> f32 {
        match self.kind {
            Smooth::Tanh => 1.0 - g * g,
            Smooth::Sigmoid => g * (1.0 - g),
        }
    }

    /// Second derivative expressed through the cached output `g`.
    fn second_derivative(&self, g: f32) -> f32 {
        match self.kind {
            Smooth::Tanh => -2.0 * g * (1.0 - g * g),
            Smooth::Sigmoid => g * (1.0 - g) * (1.0 - 2.0 * g),
        }
    }
}

impl Layer for SmoothActivation {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, arena: &mut ActivationArena) -> Tensor {
        let mut out = arena.grab();
        out.copy_from(input);
        out.map_inplace(|x| self.apply(x));
        // The cached output copy reuses its previous allocation.
        match &mut self.output {
            Some(cached) => cached.copy_from(&out),
            slot => *slot = Some(out.clone()),
        }
        self.grad_output = None; // stale gradients must not leak
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self.output.as_ref().expect("backward called before forward");
        assert_eq!(out.len(), grad_output.len(), "gradient does not match cached forward");
        self.grad_output = Some(grad_output.clone());
        grad_output.zip_map(out, |dy, g| dy * self.derivative(g))
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        let out = self.output.as_ref().expect("second_backward called before forward");
        assert_eq!(out.len(), hess_output.len(), "hessian does not match cached forward");
        // Gauss–Newton part: g'(I)² · h_P.
        let mut h = hess_output.zip_map(out, |hp, g| {
            let d = self.derivative(g);
            hp * d * d
        });
        // Full Eq. 9 curvature part, if a first-order pass ran.
        if let Some(grad) = &self.grad_output {
            let correction = grad.zip_map(out, |dy, g| dy * self.second_derivative(g));
            h.add_assign_t(&correction);
        }
        h
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        match self.kind {
            Smooth::Tanh => "Tanh".into(),
            Smooth::Sigmoid => "Sigmoid".into(),
        }
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(kind: Smooth) -> SmoothActivation {
        SmoothActivation::new(kind)
    }

    #[test]
    fn forward_values() {
        let mut t = act(Smooth::Tanh);
        let y = t.forward(&Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap(), Mode::Eval);
        assert!((y.data()[1] - 1.0f32.tanh()).abs() < 1e-6);

        let mut s = act(Smooth::Sigmoid);
        let y = s.forward(&Tensor::from_vec(vec![0.0], &[1]).unwrap(), Mode::Eval);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn backward_matches_finite_difference() {
        for kind in [Smooth::Tanh, Smooth::Sigmoid] {
            let mut layer = act(kind);
            let x = Tensor::from_vec(vec![-1.2, -0.3, 0.4, 2.0], &[4]).unwrap();
            layer.forward(&x, Mode::Train);
            let g = layer.backward(&Tensor::ones(&[4]));
            let eps = 1e-3f32;
            for i in 0..4 {
                let mut xp = x.clone();
                xp.data_mut()[i] += eps;
                let mut xm = x.clone();
                xm.data_mut()[i] -= eps;
                let mut lp = act(kind);
                let mut lm = act(kind);
                let fp = lp.forward(&xp, Mode::Train).sum();
                let fm = lm.forward(&xm, Mode::Train).sum();
                let fd = ((fp - fm) / (2.0 * eps as f64)) as f32;
                assert!((g.data()[i] - fd).abs() < 1e-3, "{kind:?} i={i}");
            }
        }
    }

    /// d²(sum g(x))/dx² via the layer equals analytic g''(x): the g''
    /// correction term must be present when backward ran first.
    #[test]
    fn second_backward_includes_curvature_term() {
        for kind in [Smooth::Tanh, Smooth::Sigmoid] {
            let mut layer = act(kind);
            let x = Tensor::from_vec(vec![-0.8, 0.1, 0.9], &[3]).unwrap();
            let out = layer.forward(&x, Mode::Train);
            // Loss = sum of outputs: dL/dP = 1, d²L/dP² = 0.
            layer.backward(&Tensor::ones(&[3]));
            let h = layer.second_backward(&Tensor::zeros(&[3]));
            for i in 0..3 {
                let g = out.data()[i];
                let expected = layer.second_derivative(g);
                assert!(
                    (h.data()[i] - expected).abs() < 1e-5,
                    "{kind:?} i={i}: {} vs {expected}",
                    h.data()[i]
                );
            }
        }
    }

    /// Without a preceding backward, the layer falls back to the
    /// Gauss-Newton form (g'' term dropped).
    #[test]
    fn gauss_newton_fallback_without_backward() {
        let mut layer = act(Smooth::Tanh);
        let x = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let out = layer.forward(&x, Mode::Train);
        let h = layer.second_backward(&Tensor::ones(&[1]));
        let d = layer.derivative(out.data()[0]);
        assert!((h.data()[0] - d * d).abs() < 1e-6);
    }

    #[test]
    fn forward_invalidates_stale_gradient() {
        let mut layer = act(Smooth::Sigmoid);
        let x = Tensor::from_vec(vec![0.3], &[1]).unwrap();
        layer.forward(&x, Mode::Train);
        layer.backward(&Tensor::ones(&[1]));
        // New forward: the old grad must not contaminate the next
        // second_backward.
        let out = layer.forward(&x, Mode::Train);
        let h = layer.second_backward(&Tensor::ones(&[1]));
        let d = layer.derivative(out.data()[0]);
        assert!((h.data()[0] - d * d).abs() < 1e-6);
    }

    #[test]
    fn full_hessian_matches_finite_difference_through_chain() {
        // Chain: x -> tanh -> sum. d²L/dx² = g''(x) exactly (single path).
        let mut layer = act(Smooth::Tanh);
        let x = Tensor::from_vec(vec![-1.5, -0.2, 0.7, 1.8], &[4]).unwrap();
        layer.forward(&x, Mode::Train);
        layer.backward(&Tensor::ones(&[4]));
        let h = layer.second_backward(&Tensor::zeros(&[4]));
        let eps = 1e-2f32;
        for i in 0..4 {
            let f = |v: f32| -> f64 {
                let mut xx = x.clone();
                xx.data_mut()[i] = v;
                let mut l = act(Smooth::Tanh);
                l.forward(&xx, Mode::Train).sum()
            };
            let x0 = x.data()[i];
            let fd = (f(x0 + eps) - 2.0 * f(x0) + f(x0 - eps)) / (eps as f64 * eps as f64);
            assert!((h.data()[i] as f64 - fd).abs() < 1e-2, "i={i}: {} vs {fd}", h.data()[i]);
        }
    }
}
