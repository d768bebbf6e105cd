//! Flatten layer: `[N, ...] -> [N, prod(...)]`.

use super::remember_shape;
use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use swim_tensor::Tensor;

/// Reshapes each batch item to a vector, preserving the batch dimension.
///
/// Pure data movement: both backward passes reshape their argument back to
/// the cached input shape.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }

    fn unflatten(&self, upstream: &Tensor) -> Tensor {
        let shape = self.input_shape.as_ref().expect("backward called before forward");
        upstream.clone().reshaped(shape)
    }
}

impl Layer for Flatten {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, arena: &mut ActivationArena) -> Tensor {
        assert!(input.rank() >= 1, "Flatten expects a batched input");
        let n = input.shape()[0];
        let inner: usize = input.shape()[1..].iter().product();
        remember_shape(&mut self.input_shape, input.shape());
        let mut out = arena.take(&[n, inner]);
        out.data_mut().copy_from_slice(input.data());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.unflatten(grad_output)
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        self.unflatten(hess_output)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        "Flatten".into()
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut fl = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        let y = fl.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 60]);
        let g = fl.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 4, 5]);
        assert_eq!(g, x);
    }

    #[test]
    fn no_params() {
        assert_eq!(Flatten::new().num_params(), 0);
    }
}
