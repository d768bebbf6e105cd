//! Residual block with skip connection.

use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::layers::{Relu, Sequential};
use crate::param::Param;
use swim_tensor::Tensor;

/// `y = ReLU(main(x) + shortcut(x))` — the ResNet basic-block skeleton.
///
/// An empty `shortcut` is the identity. During both backward passes the
/// derivative arriving from the output is pushed through *both* branches
/// and the input contributions are summed — per the paper: "for ResNet and
/// other models with skip connections ... the second derivatives of
/// different branches are summed up" (§3.3).
#[derive(Debug, Clone)]
pub struct Residual {
    main: Sequential,
    shortcut: Sequential,
    relu: Relu,
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    pub fn new(main: Sequential) -> Self {
        Residual { main, shortcut: Sequential::new(), relu: Relu::new() }
    }

    /// Creates a residual block with a projection shortcut (used when the
    /// main branch changes shape, e.g. stride-2 stage transitions).
    pub fn with_shortcut(main: Sequential, shortcut: Sequential) -> Self {
        Residual { main, shortcut, relu: Relu::new() }
    }
}

impl Layer for Residual {
    fn forward_into(&mut self, input: &Tensor, mode: Mode, arena: &mut ActivationArena) -> Tensor {
        // Both branches draw from the arena; the branch sum happens in
        // place in the main branch's buffer, so the block holds at most
        // one extra buffer beyond the sequential ping/pong pair.
        let mut main_out = self.main.forward_into(input, mode, arena);
        let short_out = self.shortcut.forward_into(input, mode, arena);
        assert_eq!(
            main_out.shape(),
            short_out.shape(),
            "residual branch shapes diverge: {:?} vs {:?}",
            main_out.shape(),
            short_out.shape()
        );
        main_out.add_assign_t(&short_out);
        arena.recycle(short_out);
        let out = self.relu.forward_into(&main_out, mode, arena);
        arena.recycle(main_out);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.relu.backward(grad_output);
        let g_main = self.main.backward(&g);
        let g_short = self.shortcut.backward(&g);
        &g_main + &g_short
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        let h = self.relu.second_backward(hess_output);
        let h_main = self.main.second_backward(&h);
        let h_short = self.shortcut.second_backward(&h);
        // Branch second derivatives sum (paper §3.3).
        &h_main + &h_short
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(visitor);
        self.shortcut.visit_params(visitor);
    }

    fn describe(&self) -> String {
        if self.shortcut.is_empty() {
            format!("Residual[{}]", self.main.describe())
        } else {
            format!("Residual[{} || {}]", self.main.describe(), self.shortcut.describe())
        }
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use swim_tensor::Prng;

    #[test]
    fn identity_shortcut_doubles_zero_main() {
        // main = Linear with zero weights -> y = relu(x)
        let mut rng = Prng::seed_from_u64(1);
        let mut fc = Linear::new(3, 3, &mut rng);
        fc.visit_params(&mut |p| p.value.fill(0.0));
        let mut main = Sequential::new();
        main.push(fc);
        let mut block = Residual::new(main);
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap();
        let y = block.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[1.0, 0.0, 3.0]);
    }

    #[test]
    fn backward_sums_branches() {
        // Both branches identity-like: grad should double.
        let mut rng = Prng::seed_from_u64(2);
        let mut id_main = Linear::new(2, 2, &mut rng);
        id_main.visit_params(&mut |p| {
            if p.name == "weight" {
                p.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
            } else {
                p.value.fill(0.0);
            }
        });
        let mut id_short = Linear::new(2, 2, &mut rng);
        id_short.visit_params(&mut |p| {
            if p.name == "weight" {
                p.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
            } else {
                p.value.fill(0.0);
            }
        });
        let mut main = Sequential::new();
        main.push(id_main);
        let mut short = Sequential::new();
        short.push(id_short);
        let mut block = Residual::with_shortcut(main, short);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let y = block.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[2.0, 4.0]); // x + x, relu positive
        let g = block.backward(&Tensor::ones(&[1, 2]));
        assert_eq!(g.data(), &[2.0, 2.0]); // both branches contribute 1

        let h = block.second_backward(&Tensor::ones(&[1, 2]));
        assert_eq!(h.data(), &[2.0, 2.0]); // 1² per branch, summed
    }

    #[test]
    fn relu_gates_block_output() {
        let mut rng = Prng::seed_from_u64(3);
        let mut fc = Linear::new(1, 1, &mut rng);
        fc.visit_params(&mut |p| p.value.fill(0.0));
        let mut main = Sequential::new();
        main.push(fc);
        let mut block = Residual::new(main);
        let x = Tensor::from_vec(vec![-5.0], &[1, 1]).unwrap();
        let y = block.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[0.0]);
        // Output was gated off: no gradient flows.
        let g = block.backward(&Tensor::ones(&[1, 1]));
        assert_eq!(g.data(), &[0.0]);
    }

    #[test]
    fn params_from_both_branches() {
        let mut rng = Prng::seed_from_u64(4);
        let mut main = Sequential::new();
        main.push(Linear::new(2, 2, &mut rng));
        let mut short = Sequential::new();
        short.push(Linear::new(2, 2, &mut rng));
        let mut block = Residual::with_shortcut(main, short);
        assert_eq!(block.num_params(), 2 * (2 * 2 + 2));
    }
}
