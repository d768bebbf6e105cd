//! Pooling layers: max, average, and global average.

use super::remember_shape;
use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use swim_tensor::Tensor;

/// 2-D max pooling with a square window and equal stride.
///
/// The backward passes route derivatives to the argmax of each window; per
/// the paper (§3.3), "the backpropagation process of max pooling layers
/// cancels derivatives of the deactivated inputs", identically for first
/// and second order.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    /// For each output element, the flat input index that won the max.
    argmax: Option<Vec<usize>>,
    input_shape: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with `window × window` cells and stride
    /// equal to the window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MaxPool2d { window, argmax: None, input_shape: None }
    }

    fn route(&self, upstream: &Tensor) -> Tensor {
        let argmax = self.argmax.as_ref().expect("backward called before forward");
        let shape = self.input_shape.as_ref().expect("backward called before forward");
        assert_eq!(upstream.len(), argmax.len(), "upstream does not match cached forward");
        let mut out = Tensor::zeros(shape);
        let od = out.data_mut();
        for (&idx, &v) in argmax.iter().zip(upstream.data()) {
            od[idx] += v;
        }
        out
    }
}

impl Layer for MaxPool2d {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, arena: &mut ActivationArena) -> Tensor {
        assert_eq!(input.rank(), 4, "MaxPool2d expects [N, C, H, W] input");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let k = self.window;
        assert!(h >= k && w >= k, "window {k} larger than input {h}x{w}");
        let (oh, ow) = (h / k, w / k);
        let mut out = arena.take(&[n, c, oh, ow]);
        let argmax = self.argmax.get_or_insert_with(Vec::new);
        argmax.clear();
        argmax.resize(n * c * oh * ow, 0);
        let id = input.data();
        let od = out.data_mut();
        let mut o = 0usize;
        for item in 0..n {
            for ch in 0..c {
                let plane = (item * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_idx = plane + (oy * k) * w + ox * k;
                        let mut best = id[best_idx];
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = plane + (oy * k + ky) * w + (ox * k + kx);
                                if id[idx] > best {
                                    best = id[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        od[o] = best;
                        argmax[o] = best_idx;
                        o += 1;
                    }
                }
            }
        }
        remember_shape(&mut self.input_shape, input.shape());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.route(grad_output)
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        self.route(hess_output)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        format!("MaxPool2d({0}x{0})", self.window)
    }
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// 2-D average pooling with a square window and equal stride.
///
/// First-order backward spreads `1/k²` of the gradient to each window
/// element; second-order spreads `1/k⁴` (the squared linear coefficient),
/// following the same FC-layer reduction as the paper's Eq. 8/10.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    window: usize,
    input_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with `window × window` cells and
    /// stride equal to the window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        AvgPool2d { window, input_shape: None }
    }

    fn spread(&self, upstream: &Tensor, coeff: f32) -> Tensor {
        let shape = self.input_shape.as_ref().expect("backward called before forward");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        assert_eq!(upstream.len(), n * c * oh * ow, "upstream does not match cached forward");
        let mut out = Tensor::zeros(shape);
        let od = out.data_mut();
        let ud = upstream.data();
        let mut u = 0usize;
        for item in 0..n {
            for ch in 0..c {
                let plane = (item * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let v = ud[u] * coeff;
                        u += 1;
                        for ky in 0..k {
                            for kx in 0..k {
                                od[plane + (oy * k + ky) * w + (ox * k + kx)] += v;
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl Layer for AvgPool2d {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, arena: &mut ActivationArena) -> Tensor {
        assert_eq!(input.rank(), 4, "AvgPool2d expects [N, C, H, W] input");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let k = self.window;
        assert!(h >= k && w >= k, "window {k} larger than input {h}x{w}");
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut out = arena.take(&[n, c, oh, ow]);
        let id = input.data();
        let od = out.data_mut();
        let mut o = 0usize;
        for item in 0..n {
            for ch in 0..c {
                let plane = (item * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += id[plane + (oy * k + ky) * w + (ox * k + kx)];
                            }
                        }
                        od[o] = acc * inv;
                        o += 1;
                    }
                }
            }
        }
        remember_shape(&mut self.input_shape, input.shape());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let k2 = (self.window * self.window) as f32;
        self.spread(grad_output, 1.0 / k2)
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        let k2 = (self.window * self.window) as f32;
        self.spread(hess_output, 1.0 / (k2 * k2))
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        format!("AvgPool2d({0}x{0})", self.window)
    }
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling `[N, C, H, W] -> [N, C]`.
///
/// Equivalent to [`AvgPool2d`] with the window equal to the full feature
/// map followed by a flatten; used by ResNet heads.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }

    fn spread(&self, upstream: &Tensor, square: bool) -> Tensor {
        let shape = self.input_shape.as_ref().expect("backward called before forward");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(upstream.len(), n * c, "upstream does not match cached forward");
        let lin = 1.0 / (h * w) as f32;
        let coeff = if square { lin * lin } else { lin };
        let mut out = Tensor::zeros(shape);
        let od = out.data_mut();
        for item in 0..n {
            for ch in 0..c {
                let v = upstream.data()[item * c + ch] * coeff;
                let plane = (item * c + ch) * h * w;
                for p in &mut od[plane..plane + h * w] {
                    *p += v;
                }
            }
        }
        out
    }
}

impl Layer for GlobalAvgPool {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, arena: &mut ActivationArena) -> Tensor {
        assert_eq!(input.rank(), 4, "GlobalAvgPool expects [N, C, H, W] input");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut out = arena.take(&[n, c]);
        let od = out.data_mut();
        let id = input.data();
        for item in 0..n {
            for ch in 0..c {
                let plane = (item * c + ch) * h * w;
                od[item * c + ch] = id[plane..plane + h * w].iter().sum::<f32>() * inv;
            }
        }
        remember_shape(&mut self.input_shape, input.shape());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.spread(grad_output, false)
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        self.spread(hess_output, true)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        "GlobalAvgPool".into()
    }
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maximum() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0], &[1, 2, 2, 2])
            .unwrap();
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[4.0, -1.0]);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x, Mode::Train);
        let g = pool.backward(&Tensor::from_vec(vec![7.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(g.data(), &[0.0, 7.0, 0.0, 0.0]);
        // Second-order routing is identical.
        let h = pool.second_backward(&Tensor::from_vec(vec![9.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(h.data(), &[0.0, 9.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_averages() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[3.0]);
    }

    #[test]
    fn avgpool_backward_coefficients() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        pool.forward(&x, Mode::Train);
        let g = pool.backward(&Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]); // 4 * 1/4
        let h = pool.second_backward(&Tensor::from_vec(vec![16.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(h.data(), &[1.0, 1.0, 1.0, 1.0]); // 16 * 1/16
    }

    #[test]
    fn global_avg_pool_shapes() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 3]);
        assert!(y.allclose(&Tensor::ones(&[2, 3]), 1e-6));
        let g = pool.backward(&Tensor::ones(&[2, 3]));
        assert!((g.data()[0] - 1.0 / 16.0).abs() < 1e-7);
        let h = pool.second_backward(&Tensor::ones(&[2, 3]));
        assert!((h.data()[0] - 1.0 / 256.0).abs() < 1e-9);
    }

    #[test]
    fn odd_sizes_truncate() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        assert_eq!(pool.forward(&x, Mode::Eval).shape(), &[1, 1, 2, 2]);
    }
}
