//! Fully connected layer.

use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamKind};
use swim_tensor::linalg::{matmul, matmul_at, matmul_bt_into};
use swim_tensor::{Prng, Tensor};

/// Fully connected layer `Y = X · Wᵀ + b`.
///
/// * `X`: `[N, in]` batch of inputs,
/// * `W`: `[out, in]` weight matrix (device-mapped),
/// * `b`: `[out]` bias (digital).
///
/// The second-order backward implements paper Eq. 8 and the weight part of
/// Eq. 10: `h_W[j,i] += Σ_batch h_O[n,j] · X[n,i]²` and
/// `h_X[n,i] = Σ_j W[j,i]² h_O[n,j]`.
///
/// # Example
///
/// ```
/// use swim_nn::layers::Linear;
/// use swim_nn::layer::{Layer, Mode};
/// use swim_tensor::{Prng, Tensor};
///
/// let mut rng = Prng::seed_from_u64(0);
/// let mut fc = Linear::new(3, 2, &mut rng);
/// let x = Tensor::ones(&[4, 3]);
/// let y = fc.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weight initialization and zero
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Prng) -> Self {
        assert!(in_features > 0 && out_features > 0, "dimensions must be positive");
        let bound = (1.0 / in_features as f32).sqrt();
        let weight = Tensor::rand_uniform(&[out_features, in_features], -bound, bound, rng);
        Linear {
            weight: Param::new("weight", weight, ParamKind::DeviceWeight),
            bias: Param::new("bias", Tensor::zeros(&[out_features]), ParamKind::Digital),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight parameter (tests, inspection).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    fn cached(&self) -> &Tensor {
        self.cached_input.as_ref().expect("backward called before forward")
    }
}

impl Layer for Linear {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, arena: &mut ActivationArena) -> Tensor {
        assert_eq!(input.rank(), 2, "Linear expects [N, in] input");
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "Linear expected {} input features, got {}",
            self.in_features,
            input.shape()[1]
        );
        let n = input.shape()[0];
        let mut out = arena.take(&[n, self.out_features]);
        // y = X · Wᵀ through the fused variant: one packed transpose
        // inside the kernel instead of materializing a Tensor here.
        matmul_bt_into(
            input.data(),
            self.weight.value.data(),
            n,
            self.in_features,
            self.out_features,
            out.data_mut(),
        );
        let bias = self.bias.value.data();
        let od = out.data_mut();
        for row in 0..n {
            for (j, &b) in bias.iter().enumerate() {
                od[row * self.out_features + j] += b;
            }
        }
        // Cache the activation for the backward passes, reusing the
        // previous cache's buffer when possible — on the fixed-batch
        // eval loop this is a copy, not an allocation.
        match &mut self.cached_input {
            Some(cached) => cached.copy_from(input),
            slot => *slot = Some(input.clone()),
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self.cached().clone();
        // dW[j,i] += Σ_n δ[n,j] x[n,i]  ==  δᵀ · X
        self.weight.grad.add_assign_t(&matmul_at(grad_output, &x));
        self.bias.grad.add_assign_t(&grad_output.sum_axis0());
        // dX = δ · W
        matmul(grad_output, &self.weight.value)
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        let x = self.cached();
        let x_sq = x.map(|v| v * v);
        // Eq. 8: h_W[j,i] += Σ_n h_O[n,j] · x[n,i]²
        self.weight.hess.add_assign_t(&matmul_at(hess_output, &x_sq));
        self.bias.hess.add_assign_t(&hess_output.sum_axis0());
        // Eq. 10 (linear part): h_X[n,i] = Σ_j W[j,i]² h_O[n,j]
        let w_sq = self.weight.value.map(|v| v * v);
        matmul(hess_output, &w_sq)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!("Linear({}->{})", self.in_features, self.out_features)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_linear() -> Linear {
        let mut rng = Prng::seed_from_u64(1);
        let mut fc = Linear::new(2, 2, &mut rng);
        fc.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        fc.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        fc
    }

    #[test]
    fn forward_matches_manual() {
        let mut fc = simple_linear();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = fc.forward(&x, Mode::Eval);
        // y0 = 1*1 + 2*1 + 0.5 = 3.5 ; y1 = 3 + 4 - 0.5 = 6.5
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_gradients_match_manual() {
        let mut fc = simple_linear();
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap();
        fc.forward(&x, Mode::Train);
        let delta = Tensor::from_vec(vec![1.0, 10.0], &[1, 2]).unwrap();
        let dx = fc.backward(&delta);
        // dW = δᵀ x = [[2,3],[20,30]]
        assert_eq!(fc.weight.grad.data(), &[2.0, 3.0, 20.0, 30.0]);
        assert_eq!(fc.bias.grad.data(), &[1.0, 10.0]);
        // dX = δ W = [1*1+10*3, 1*2+10*4] = [31, 42]
        assert_eq!(dx.data(), &[31.0, 42.0]);
    }

    #[test]
    fn second_backward_squares_everything() {
        let mut fc = simple_linear();
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap();
        fc.forward(&x, Mode::Train);
        let h = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let hx = fc.second_backward(&h);
        // h_W[j,i] = h[j] * x[i]^2 -> [[4,9],[8,18]]
        assert_eq!(fc.weight.hess.data(), &[4.0, 9.0, 8.0, 18.0]);
        // h_X[i] = Σ_j W[j,i]^2 h[j] -> [1*1 + 9*2, 4*1 + 16*2] = [19, 36]
        assert_eq!(hx.data(), &[19.0, 36.0]);
    }

    #[test]
    fn gradients_accumulate_across_batches() {
        let mut fc = simple_linear();
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        fc.forward(&x, Mode::Train);
        fc.backward(&g);
        fc.forward(&x, Mode::Train);
        fc.backward(&g);
        assert_eq!(fc.weight.grad.data(), &[2.0, 2.0, 2.0, 2.0]);
        fc.zero_grads();
        assert_eq!(fc.weight.grad.sum(), 0.0);
    }

    #[test]
    fn batch_forward_shape() {
        let mut rng = Prng::seed_from_u64(2);
        let mut fc = Linear::new(5, 7, &mut rng);
        let x = Tensor::zeros(&[13, 5]);
        assert_eq!(fc.forward(&x, Mode::Eval).shape(), &[13, 7]);
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn rejects_wrong_width() {
        let mut rng = Prng::seed_from_u64(2);
        let mut fc = Linear::new(5, 7, &mut rng);
        fc.forward(&Tensor::zeros(&[1, 4]), Mode::Eval);
    }

    #[test]
    fn weight_is_device_mapped_bias_is_not() {
        let mut fc = simple_linear();
        let mut kinds = vec![];
        fc.visit_params(&mut |p| kinds.push((p.name.clone(), p.is_device_mapped())));
        assert_eq!(kinds[0], ("weight".to_string(), true));
        assert_eq!(kinds[1], ("bias".to_string(), false));
    }
}
