//! 2-D convolution layer, lowered to GEMM via im2col.

use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamKind};
use swim_tensor::conv::{col2im_accumulate, im2col_batch_into, ConvGeometry};
use swim_tensor::linalg::{matmul_at_into, matmul_bt_into, matmul_into};
use swim_tensor::{tune, Prng, Tensor};

/// Cap, in `f32` elements, on the batched im2col scratch of one layer
/// (re-exported from [`tune::DEFAULT_IM2COL_CAP_ELEMS`]).
///
/// A whole batch is lowered through a single `[N·outH·outW, C·k²]` patch
/// matrix when it fits; larger batches are processed in item chunks so
/// the scratch stays within ~16 MiB however wide the model is. The chunk
/// split is invisible in the results: every pass is bit-identical for
/// any chunk size (each item's rows are computed independently, and the
/// parameter-gradient accumulation is per-item either way).
pub const IM2COL_CAP_ELEMS: usize = tune::DEFAULT_IM2COL_CAP_ELEMS;

/// Reusable lowering buffers owned by one `Conv2d` layer.
///
/// Cloning a layer (one network clone per Monte Carlo worker) must not
/// duplicate scratch contents, so `Clone` yields empty buffers that grow
/// back on first use.
#[derive(Debug, Default)]
struct ConvScratch {
    /// Batched im2col patches `[chunk·spatial, CK²]`.
    cols: Vec<f32>,
    /// Large GEMM output: forward `[F, chunk·spatial]`, backward passes
    /// `[chunk·spatial, CK²]` (the column-space gradient).
    gemm: Vec<f32>,
    /// Output-gradient chunk transposed to `[chunk·spatial, F]`.
    delta: Vec<f32>,
    /// One item's weight-gradient tile `[F, CK²]`.
    wtile: Vec<f32>,
}

impl Clone for ConvScratch {
    fn clone(&self) -> Self {
        ConvScratch::default()
    }
}

/// 2-D convolution `[N, C, H, W] -> [N, F, H', W']`.
///
/// The convolution is computed as `im2col(x) · Wᵀ`, which "casts it in
/// the same form as FC layers" — exactly the reduction the paper's §3.3
/// uses so that the FC second-order rules (Eq. 8/10) apply unchanged to
/// convolutions. The lowering is *batched*: up to `IM2COL_CAP_ELEMS`
/// (~16 MiB) worth of images are unrolled into one patch matrix so a whole batch
/// becomes a single large GEMM (big enough for the threaded row-panel
/// path to engage), with all intermediate buffers reused across calls
/// from a per-layer scratch. The backward passes recompute the im2col
/// matrix instead of caching it, trading a little compute for a large
/// memory saving on wide models.
///
/// # Example
///
/// ```
/// use swim_nn::layers::Conv2d;
/// use swim_nn::layer::{Layer, Mode};
/// use swim_tensor::{Prng, Tensor};
///
/// let mut rng = Prng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = Tensor::zeros(&[2, 3, 16, 16]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
    scratch: ConvScratch,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal initialization (suited to
    /// the ReLU networks of the paper) and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any of channel counts, kernel, or stride are zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Prng,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0, "channel counts must be positive");
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        let fan_in = (in_channels * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        let weight = Tensor::from_fn(&[out_channels, in_channels, kernel, kernel], |_| {
            rng.normal_f32(0.0, std)
        });
        Conv2d {
            weight: Param::new("weight", weight, ParamKind::DeviceWeight),
            bias: Param::new("bias", Tensor::zeros(&[out_channels]), ParamKind::Digital),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: None,
            scratch: ConvScratch::default(),
        }
    }

    fn geometry(&self, h: usize, w: usize) -> ConvGeometry {
        ConvGeometry {
            in_channels: self.in_channels,
            in_h: h,
            in_w: w,
            kernel_h: self.kernel,
            kernel_w: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }

    fn weight_matrix(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let cols = self.in_channels * self.kernel * self.kernel;
        self.weight.value.map(f).reshaped(&[self.out_channels, cols])
    }

    /// Immutable access to the weight parameter (tests, inspection).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Items per lowering chunk for a given output spatial size: as many
    /// as fit the [`IM2COL_CAP_ELEMS`] scratch cap, at least one.
    ///
    /// Sized by the *largest* per-item buffer — the `CK²`-wide patch
    /// matrix or the `F`-wide GEMM/delta buffers — so a channel-expanding
    /// layer (`F ≫ CK²`, e.g. a wide 1×1 conv) cannot blow past the cap
    /// through the output-side scratch.
    fn chunk_items(&self, spatial: usize, n: usize) -> usize {
        let widest = (self.in_channels * self.kernel * self.kernel).max(self.out_channels);
        let per_item = spatial * widest;
        (IM2COL_CAP_ELEMS / per_item.max(1)).clamp(1, n.max(1))
    }

    /// Forward pass with an explicit chunk size (`chunk = 1` is the
    /// per-image lowering; results are bit-identical for every value).
    /// `out` is completely overwritten.
    fn forward_impl(&mut self, input: &Tensor, chunk: usize, out: &mut Tensor) {
        let (n, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let geom = self.geometry(h, w);
        assert!(geom.is_valid(), "kernel does not fit input {geom:?}");
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let spatial = oh * ow;
        let ck2 = geom.col_cols();
        let nf = self.out_channels;
        let image_len = self.in_channels * h * w;
        out.reset_zeroed(&[n, nf, oh, ow]);

        let mut i0 = 0;
        while i0 < n {
            let i1 = (i0 + chunk).min(n);
            let items = i1 - i0;
            let rows = items * spatial;
            im2col_batch_into(
                &input.data()[i0 * image_len..i1 * image_len],
                items,
                &geom,
                &mut self.scratch.cols,
            );
            // One GEMM for the whole chunk: W · colsᵀ = [F, items·spatial].
            // (Equivalent to the per-item `cols · Wᵀ` with the same
            // k-accumulation order, but the output comes back in
            // [F, item, spatial] layout, so writing NCHW output is all
            // contiguous row copies instead of a scalar transpose.)
            // The [F, C, k, k] weight tensor is already the [F, CK²]
            // matrix in row-major order, so no reshaped copy is needed.
            self.scratch.gemm.resize(nf * rows, 0.0);
            matmul_bt_into(
                self.weight.value.data(),
                &self.scratch.cols,
                nf,
                ck2,
                rows,
                &mut self.scratch.gemm,
            );
            let od = out.data_mut();
            let bias = self.bias.value.data();
            for (f, yrow) in self.scratch.gemm.chunks_exact(rows).enumerate() {
                for it in 0..items {
                    let dst = &mut od[((i0 + it) * nf + f) * spatial..][..spatial];
                    let src = &yrow[it * spatial..(it + 1) * spatial];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = s + bias[f];
                    }
                }
            }
            i0 = i1;
        }
        // Cache the activation for the backward passes, reusing the
        // previous cache's capacity even when the batch shape changes —
        // on the eval loop (including its shorter final batch) this is a
        // copy, not an allocation. (Caching must happen in Eval mode
        // too: the sensitivity pass forwards in `Mode::Eval` and then
        // runs `second_backward`.)
        match &mut self.cached_input {
            Some(cached) => cached.copy_from(input),
            slot => *slot = Some(input.clone()),
        }
    }

    /// Shared chunked backward pass. `square` selects the second-order
    /// variant: patches and weights are squared (Eq. 8/10) and the
    /// results accumulate into `hess` instead of `grad`.
    fn backward_impl(&mut self, grad_output: &Tensor, chunk: usize, square: bool) -> Tensor {
        // Take (not clone) the cached activation; restored before
        // returning so backward can run again after this pass.
        let input = self.cached_input.take().expect("backward called before forward");
        let (n, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let geom = self.geometry(h, w);
        let spatial = geom.out_h() * geom.out_w();
        let ck2 = geom.col_cols();
        let nf = self.out_channels;
        let image_len = self.in_channels * h * w;
        let wmat = if square { self.weight_matrix(|v| v * v) } else { self.weight_matrix(|v| v) };
        let mut grad_input = Tensor::zeros(input.shape());
        let mut wgrad = vec![0.0f32; nf * ck2];
        let mut bgrad = vec![0.0f32; nf];
        let gd = grad_output.data();

        let mut i0 = 0;
        while i0 < n {
            let i1 = (i0 + chunk).min(n);
            let items = i1 - i0;
            let rows = items * spatial;
            im2col_batch_into(
                &input.data()[i0 * image_len..i1 * image_len],
                items,
                &geom,
                &mut self.scratch.cols,
            );
            if square {
                for v in &mut self.scratch.cols {
                    *v = *v * *v;
                }
            }
            // Transpose the chunk's output gradient [item, F, spatial]
            // into δ = [item·spatial, F] with strided copies, folding the
            // bias gradient along the way.
            self.scratch.delta.resize(rows * nf, 0.0);
            for it in 0..items {
                for f in 0..nf {
                    let src = &gd[((i0 + it) * nf + f) * spatial..][..spatial];
                    let mut idx = it * spatial * nf + f;
                    for &v in src {
                        self.scratch.delta[idx] = v;
                        idx += nf;
                    }
                    let mut acc = bgrad[f];
                    for &v in src {
                        acc += v;
                    }
                    bgrad[f] = acc;
                }
            }
            // dW accumulates per item (δᵢᵀ · colsᵢ), preserving the
            // per-image summation order bit for bit.
            self.scratch.wtile.resize(nf * ck2, 0.0);
            for it in 0..items {
                let drows = &self.scratch.delta[it * spatial * nf..][..spatial * nf];
                let crows = &self.scratch.cols[it * spatial * ck2..][..spatial * ck2];
                matmul_at_into(drows, crows, nf, spatial, ck2, &mut self.scratch.wtile);
                for (g, &v) in wgrad.iter_mut().zip(&self.scratch.wtile) {
                    *g += v;
                }
            }
            // dX: one GEMM for the whole chunk (δ · W, row-independent),
            // then a per-item col2im scatter straight into grad_input.
            self.scratch.gemm.resize(rows * ck2, 0.0);
            matmul_into(&self.scratch.delta, wmat.data(), rows, nf, ck2, &mut self.scratch.gemm);
            let gi = grad_input.data_mut();
            for it in 0..items {
                col2im_accumulate(
                    &self.scratch.gemm[it * spatial * ck2..][..spatial * ck2],
                    &geom,
                    &mut gi[(i0 + it) * image_len..][..image_len],
                );
            }
            i0 = i1;
        }

        let target = if square { &mut self.weight.hess } else { &mut self.weight.grad };
        for (g, &v) in target.data_mut().iter_mut().zip(&wgrad) {
            *g += v;
        }
        let btarget = if square { &mut self.bias.hess } else { &mut self.bias.grad };
        for (g, &v) in btarget.data_mut().iter_mut().zip(&bgrad) {
            *g += v;
        }
        self.cached_input = Some(input);
        grad_input
    }
}

impl Layer for Conv2d {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, arena: &mut ActivationArena) -> Tensor {
        assert_eq!(input.rank(), 4, "Conv2d expects [N, C, H, W] input");
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "Conv2d expected {} input channels, got {}",
            self.in_channels,
            input.shape()[1]
        );
        let geom = self.geometry(input.shape()[2], input.shape()[3]);
        let chunk = self.chunk_items(geom.out_h() * geom.out_w(), input.shape()[0]);
        let mut out = arena.grab();
        self.forward_impl(input, chunk, &mut out);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward called before forward");
        let geom = self.geometry(input.shape()[2], input.shape()[3]);
        let chunk = self.chunk_items(geom.out_h() * geom.out_w(), input.shape()[0]);
        self.backward_impl(grad_output, chunk, false)
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward called before forward");
        let geom = self.geometry(input.shape()[2], input.shape()[3]);
        let chunk = self.chunk_items(geom.out_h() * geom.out_w(), input.shape()[0]);
        self.backward_impl(hess_output, chunk, true)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!(
            "Conv2d({}->{}, k{}, s{}, p{})",
            self.in_channels, self.out_channels, self.kernel, self.stride, self.padding
        )
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = Prng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        conv.weight.value.fill(0.0);
        conv.bias.value = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2, 3, 3]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 1, 2, 2]), -1.0);
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut rng = Prng::seed_from_u64(4);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.weight.value.fill(1.0);
        let x = Tensor::from_fn(&[1, 1, 3, 3], |i| i as f32);
        let y = conv.forward(&x, Mode::Eval);
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn gradcheck_weights_and_input() {
        // Finite-difference check of the analytic backward pass.
        let mut rng = Prng::seed_from_u64(5);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 4], &mut rng);
        // Loss: sum of outputs (so dL/dy = 1 everywhere).
        let y = conv.forward(&x, Mode::Train);
        let ones = Tensor::ones(y.shape());
        let dx = conv.backward(&ones);

        let eps = 1e-2f32;
        // Check a few weight coordinates.
        for &i in &[0usize, 7, 20, 53] {
            let orig = conv.weight.value.data()[i];
            conv.weight.value.data_mut()[i] = orig + eps;
            let lp = conv.forward(&x, Mode::Train).sum();
            conv.weight.value.data_mut()[i] = orig - eps;
            let lm = conv.forward(&x, Mode::Train).sum();
            conv.weight.value.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = conv.weight.grad.data()[i] as f64;
            assert!((fd - an).abs() < 1e-2 * (1.0 + an.abs()), "w[{i}]: fd {fd} an {an}");
        }
        // Check a few input coordinates.
        for &i in &[0usize, 13, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let lp = conv.forward(&xp, Mode::Train).sum();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lm = conv.forward(&xm, Mode::Train).sum();
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = dx.data()[i] as f64;
            assert!((fd - an).abs() < 1e-2 * (1.0 + an.abs()), "x[{i}]: fd {fd} an {an}");
        }
    }

    #[test]
    fn second_backward_is_nonnegative_for_nonneg_seed() {
        let mut rng = Prng::seed_from_u64(6);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 1, 5, 5], &mut rng);
        let y = conv.forward(&x, Mode::Train);
        let h = Tensor::ones(y.shape());
        let hx = conv.second_backward(&h);
        assert!(conv.weight.hess.data().iter().all(|&v| v >= 0.0));
        assert!(hx.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn stride_two_shapes() {
        let mut rng = Prng::seed_from_u64(7);
        let mut conv = Conv2d::new(4, 8, 3, 2, 1, &mut rng);
        let x = Tensor::zeros(&[1, 4, 8, 8]);
        assert_eq!(conv.forward(&x, Mode::Eval).shape(), &[1, 8, 4, 4]);
    }

    #[test]
    fn param_count() {
        let mut rng = Prng::seed_from_u64(8);
        let mut conv = Conv2d::new(3, 16, 3, 1, 1, &mut rng);
        // 16*3*3*3 weights + 16 biases
        assert_eq!(conv.num_params(), 16 * 27 + 16);
    }

    /// Replicates the pre-batching per-image implementation (one im2col
    /// and one GEMM per item, scalar scatter loops) as an independent
    /// semantic reference. Returns `(y, dx, dw, db)` for a sum-style
    /// upstream gradient `g`.
    #[allow(clippy::needless_range_loop)]
    fn per_image_reference(
        conv: &Conv2d,
        x: &Tensor,
        g: &Tensor,
    ) -> (Tensor, Tensor, Tensor, Vec<f32>) {
        use swim_tensor::conv::{col2im, im2col};
        use swim_tensor::linalg::{matmul, matmul_at, matmul_bt};
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let geom = conv.geometry(h, w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let spatial = oh * ow;
        let (nf, ck2) = (conv.out_channels, geom.col_cols());
        let wmat = conv.weight_matrix(|v| v);
        let mut y = Tensor::zeros(&[n, nf, oh, ow]);
        let mut dx = Tensor::zeros(x.shape());
        let mut dw = Tensor::zeros(&[nf, ck2]);
        let mut db = vec![0.0f32; nf];
        for item in 0..n {
            let image = x.slice_axis0(item, item + 1).reshaped(&[conv.in_channels, h, w]);
            let cols = im2col(&image, &geom);
            let yi = matmul_bt(&cols, &wmat); // [spatial, F]
            let od = y.data_mut();
            let base = item * nf * spatial;
            for s in 0..spatial {
                for f in 0..nf {
                    od[base + f * spatial + s] = yi.data()[s * nf + f] + conv.bias.value.data()[f];
                }
            }
            let mut delta = Tensor::zeros(&[spatial, nf]);
            let dd = delta.data_mut();
            for f in 0..nf {
                for s in 0..spatial {
                    let v = g.data()[base + f * spatial + s];
                    dd[s * nf + f] = v;
                    db[f] += v;
                }
            }
            dw.add_assign_t(&matmul_at(&delta, &cols));
            let dimg = col2im(&matmul(&delta, &wmat), &geom);
            let ibase = item * conv.in_channels * h * w;
            let gi = dx.data_mut();
            for (dst, &src) in
                gi[ibase..ibase + conv.in_channels * h * w].iter_mut().zip(dimg.data())
            {
                *dst += src;
            }
        }
        (y, dx, dw, db)
    }

    /// The batched lowering must be bit-identical to the per-image path
    /// (chunk size 1) *and* to the pre-batching reference algorithm,
    /// across stride/padding edge cases — forward and backward.
    #[test]
    fn batched_lowering_bit_identical_to_per_image() {
        let mut rng = Prng::seed_from_u64(31);
        // (cin, cout, kernel, stride, padding, h, w)
        for &(cin, cout, k, s, p, h, w) in &[
            (1usize, 2usize, 3usize, 1usize, 0usize, 5usize, 5usize),
            (3, 4, 3, 2, 1, 7, 6),
            (2, 3, 3, 1, 2, 4, 4), // padding wider than half the kernel
            (1, 2, 5, 1, 2, 2, 3), // kernel larger than the image
            (2, 2, 1, 3, 0, 7, 7), // 1x1 kernel, large stride
        ] {
            let mut conv = Conv2d::new(cin, cout, k, s, p, &mut rng);
            let x = Tensor::randn(&[3, cin, h, w], &mut rng);
            let y = conv.forward(&x, Mode::Train);
            let g = Tensor::randn(y.shape(), &mut rng);

            let mut per_image = conv.clone();
            let mut y1 = Tensor::zeros(&[0]);
            per_image.forward_impl(&x, 1, &mut y1);
            assert_eq!(y.data(), y1.data(), "forward cin={cin} k={k} s={s} p={p}");

            let (yr, dxr, dwr, dbr) = per_image_reference(&conv, &x, &g);
            assert_eq!(y.data(), yr.data(), "reference forward k={k} s={s} p={p}");

            let dx = conv.backward(&g);
            let dx1 = per_image.backward_impl(&g, 1, false);
            assert_eq!(dx.data(), dx1.data(), "dx chunked k={k} s={s} p={p}");
            assert_eq!(dx.data(), dxr.data(), "dx reference k={k} s={s} p={p}");
            assert_eq!(
                conv.weight.grad.data(),
                per_image.weight.grad.data(),
                "dw chunked k={k} s={s} p={p}"
            );
            assert_eq!(conv.weight.grad.data(), dwr.data(), "dw reference k={k} s={s} p={p}");
            assert_eq!(conv.bias.grad.data(), per_image.bias.grad.data());
            assert_eq!(conv.bias.grad.data(), &dbr[..], "db reference k={k} s={s} p={p}");

            // Second-order pass: chunked vs per-image.
            let hx = conv.second_backward(&g);
            let hx1 = per_image.backward_impl(&g, 1, true);
            assert_eq!(hx.data(), hx1.data(), "hx k={k} s={s} p={p}");
            assert_eq!(conv.weight.hess.data(), per_image.weight.hess.data());
            assert_eq!(conv.bias.hess.data(), per_image.bias.hess.data());
        }
    }

    /// Scratch buffers must not leak state across differently-shaped
    /// calls (shrinking batch, then growing again).
    #[test]
    fn scratch_reuse_across_shapes_is_clean() {
        let mut rng = Prng::seed_from_u64(32);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let big = Tensor::randn(&[4, 2, 6, 6], &mut rng);
        let small = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        let via_warm = {
            conv.forward(&big, Mode::Eval);
            conv.forward(&small, Mode::Eval)
        };
        let via_cold = conv.clone_layer().forward(&small, Mode::Eval);
        assert_eq!(via_warm.data(), via_cold.data());
        // And cloning a used layer must not drag its scratch along.
        assert!(conv.scratch.cols.capacity() > 0);
        assert_eq!(conv.clone().scratch.cols.capacity(), 0);
    }
}
