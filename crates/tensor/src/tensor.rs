//! The dense, row-major `f32` tensor type.

use crate::error::TensorError;
use crate::rng::Prng;
use crate::shape::Shape;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A contiguous, row-major, n-dimensional array of `f32`.
///
/// `Tensor` is the workhorse value type of the workspace: network
/// activations, weights, gradients, and the per-weight second derivatives
/// SWIM ranks by are all tensors. Elementwise algebra is shape-checked and
/// panics on mismatch (mismatches indicate layer-wiring bugs, not
/// recoverable conditions); constructors that take external data are
/// fallible and return [`TensorError`].
///
/// # Example
///
/// ```
/// use swim_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::full(&[2, 2], 0.5);
/// let c = &a + &b;
/// assert_eq!(c[[1, 1]], 4.5);
/// # Ok::<(), swim_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![0.0; shape.len()], shape }
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![value; shape.len()], shape }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], shape: Shape::new(&[]) }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { len: data.len(), shape: dims.to_vec() });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor by evaluating `f` at every linear index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(&mut f).collect();
        Tensor { data, shape }
    }

    /// Creates a tensor of standard-normal samples.
    pub fn randn(dims: &[usize], rng: &mut Prng) -> Self {
        Tensor::from_fn(dims, |_| rng.normal_f32(0.0, 1.0))
    }

    /// Creates a tensor of uniform samples in `[lo, hi)`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Prng) -> Self {
        Tensor::from_fn(dims, |_| lo + (hi - lo) * rng.uniform_f32())
    }

    // ------------------------------------------------------------ accessors

    /// The dimension extents.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of range.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of range.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    // ------------------------------------------------------------- reshape

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element count would
    /// change.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.len() != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                len: self.data.len(),
                shape: dims.to_vec(),
            });
        }
        Ok(Tensor { data: self.data.clone(), shape })
    }

    /// Infallible reshape for internal hot paths.
    ///
    /// # Panics
    ///
    /// Panics if the element count would change.
    pub fn reshaped(mut self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} elements into {:?}",
            self.data.len(),
            dims
        );
        self.shape = shape;
        self
    }

    /// Flattens to rank 1.
    pub fn flattened(self) -> Tensor {
        let n = self.data.len();
        self.reshaped(&[n])
    }

    /// Reshapes this tensor in place to `dims`, zero-filled.
    ///
    /// Unlike constructing a fresh [`Tensor::zeros`], both the data and
    /// the shape vectors reuse their existing capacity, so recycling a
    /// buffer through shapes no larger than previously seen performs no
    /// heap allocation. The result is indistinguishable from
    /// `Tensor::zeros(dims)`.
    pub fn reset_zeroed(&mut self, dims: &[usize]) {
        self.shape.set_dims(dims);
        let len = self.shape.len();
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// Makes this tensor a copy of `other` (shape and data), reusing the
    /// existing allocations when capacity suffices.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.shape.set_dims(other.shape());
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    // ------------------------------------------------------- elementwise ops

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&x| f(x)).collect(), shape: self.shape.clone() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other);
        Tensor {
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// `self += other` elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign_t(&mut self, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Adds `alpha` to every element in place.
    pub fn add_scalar(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x += alpha;
        }
    }

    /// Sets every element to zero.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements, accumulated in `f64`.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element, or `f32::NEG_INFINITY` when empty.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element, or `f32::INFINITY` when empty.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Per-row argmax of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires rank 2");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        assert!(cols > 0, "argmax_rows requires at least one column");
        (0..rows)
            .map(|r| {
                let row = &self.data[r * cols..(r + 1) * cols];
                let mut best = 0;
                for (i, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Sum over axis 0 of a rank-2 tensor, yielding one value per column.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_axis0(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_axis0 requires rank 2");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        Tensor { data: out, shape: Shape::new(&[cols]) }
    }

    /// Squared L2 norm, accumulated in `f64`.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// Dot product with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn dot(&self, other: &Tensor) -> f64 {
        self.assert_same_shape(other);
        self.data.iter().zip(&other.data).map(|(&a, &b)| a as f64 * b as f64).sum()
    }

    // ------------------------------------------------------------- 2-D views

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires rank 2");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor { data: out, shape: Shape::new(&[cols, rows]) }
    }

    /// Copies a contiguous range of entries along axis 0 into a new tensor.
    ///
    /// For a `[N, ...]` tensor this extracts items `start..end` of the
    /// batch dimension.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `start > end` or `end` exceeds the
    /// first dimension.
    pub fn slice_axis0(&self, start: usize, end: usize) -> Tensor {
        assert!(self.rank() >= 1, "slice_axis0 requires rank >= 1");
        let n = self.shape.dim(0);
        assert!(
            start <= end && end <= n,
            "slice {start}..{end} out of bounds for axis of size {n}"
        );
        let inner: usize = self.shape.dims()[1..].iter().product();
        let data = self.data[start * inner..end * inner].to_vec();
        let mut dims = self.shape.dims().to_vec();
        dims[0] = end - start;
        Tensor { data, shape: Shape::new(&dims) }
    }

    /// [`Tensor::slice_axis0`] into a caller-owned tensor, reusing its
    /// allocations — the batching primitive of the allocation-free eval
    /// loop. `out` is completely overwritten (shape and data).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `start > end` or `end` exceeds
    /// the first dimension.
    pub fn slice_axis0_into(&self, start: usize, end: usize, out: &mut Tensor) {
        assert!(self.rank() >= 1, "slice_axis0 requires rank >= 1");
        let n = self.shape.dim(0);
        assert!(
            start <= end && end <= n,
            "slice {start}..{end} out of bounds for axis of size {n}"
        );
        let inner: usize = self.shape.dims()[1..].iter().product();
        out.shape.set_dims(self.shape.dims());
        out.shape.set_dim(0, end - start);
        out.data.clear();
        out.data.extend_from_slice(&self.data[start * inner..end * inner]);
    }

    /// Gathers rows of axis 0 by index into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or the tensor is rank 0.
    pub fn gather_axis0(&self, indices: &[usize]) -> Tensor {
        assert!(self.rank() >= 1, "gather_axis0 requires rank >= 1");
        let n = self.shape.dim(0);
        let inner: usize = self.shape.dims()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * inner);
        for &i in indices {
            assert!(i < n, "gather index {i} out of bounds for axis of size {n}");
            data.extend_from_slice(&self.data[i * inner..(i + 1) * inner]);
        }
        let mut dims = self.shape.dims().to_vec();
        dims[0] = indices.len();
        Tensor { data, shape: Shape::new(&dims) }
    }

    // ------------------------------------------------------------- utilities

    /// Whether all elements are within `tol` of `other`'s.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.assert_same_shape(other);
        self.data.iter().zip(&other.data).all(|(&a, &b)| (a - b).abs() <= tol)
    }

    fn assert_same_shape(&self, other: &Tensor) {
        assert!(
            self.shape.same_as(&other.shape),
            "shape mismatch: {} vs {}",
            self.shape,
            other.shape
        );
    }
}

impl Index<[usize; 2]> for Tensor {
    type Output = f32;
    fn index(&self, idx: [usize; 2]) -> &f32 {
        &self.data[self.shape.offset(&idx)]
    }
}

impl IndexMut<[usize; 2]> for Tensor {
    fn index_mut(&mut self, idx: [usize; 2]) -> &mut f32 {
        let off = self.shape.offset(&idx);
        &mut self.data[off]
    }
}

impl Index<[usize; 4]> for Tensor {
    type Output = f32;
    fn index(&self, idx: [usize; 4]) -> &f32 {
        &self.data[self.shape.offset(&idx)]
    }
}

impl IndexMut<[usize; 4]> for Tensor {
    fn index_mut(&mut self, idx: [usize; 4]) -> &mut f32 {
        let off = self.shape.offset(&idx);
        &mut self.data[off]
    }
}

impl Add for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a * b)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} n={}", self.shape, self.len())?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t[[0, 0]], 1.0);
        assert_eq!(t[[1, 2]], 6.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
    }

    #[test]
    fn from_vec_length_check() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn reset_zeroed_matches_fresh_zeros() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        t.reset_zeroed(&[3, 1]);
        assert_eq!(t, Tensor::zeros(&[3, 1]));
        // Growing past the old length also zero-fills everything.
        t.reset_zeroed(&[2, 4]);
        assert_eq!(t, Tensor::zeros(&[2, 4]));
    }

    #[test]
    fn reset_zeroed_reuses_capacity() {
        let mut t = Tensor::zeros(&[8, 8]);
        let ptr = t.data().as_ptr();
        t.reset_zeroed(&[2, 3]);
        t.reset_zeroed(&[4, 4]);
        assert_eq!(t.data().as_ptr(), ptr);
    }

    #[test]
    fn copy_from_replicates_shape_and_data() {
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let mut dst = Tensor::zeros(&[10]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn slice_axis0_into_matches_slice_axis0() {
        let t = Tensor::from_fn(&[5, 2, 3], |i| i as f32);
        let mut out = Tensor::zeros(&[0]);
        t.slice_axis0_into(1, 4, &mut out);
        assert_eq!(out, t.slice_axis0(1, 4));
        // Reuse with a different window, including an empty one.
        t.slice_axis0_into(0, 2, &mut out);
        assert_eq!(out, t.slice_axis0(0, 2));
        t.slice_axis0_into(5, 5, &mut out);
        assert_eq!(out.shape(), &[0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_axis0_into_checks_bounds() {
        let t = Tensor::zeros(&[2, 2]);
        let mut out = Tensor::zeros(&[0]);
        t.slice_axis0_into(1, 3, &mut out);
    }

    #[test]
    fn elementwise_algebra() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!((&a + &b).data(), &[11.0, 22.0]);
        assert_eq!((&b - &a).data(), &[9.0, 18.0]);
        assert_eq!((&a * &b).data(), &[10.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = &a + &b;
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[4]).unwrap();
        assert_eq!(t.sum(), 2.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), 2);
        assert!((t.mean() - 0.625).abs() < 1e-9);
    }

    #[test]
    fn argmax_rows_ties_take_first() {
        let t = Tensor::from_vec(vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn sum_axis0_matches_manual() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.sum_axis0().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let tt = t.transposed();
        assert_eq!(tt.shape(), &[4, 3]);
        assert_eq!(tt[[0, 1]], t[[1, 0]]);
        assert_eq!(tt.transposed(), t);
    }

    #[test]
    fn reshape_checks_size() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.reshape(&[6]).is_ok());
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn slice_axis0_copies_batch_entries() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let s = t.slice_axis0(1, 3);
        assert_eq!(s.shape(), &[2, 4]);
        assert_eq!(s[[0, 0]], 4.0);
        assert_eq!(s[[1, 3]], 11.0);
    }

    #[test]
    fn gather_axis0_reorders() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]).unwrap();
        let g = t.gather_axis0(&[2, 0]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn dot_and_norm() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.norm_sq(), 25.0);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert_eq!(a.dot(&b), 11.0);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = Prng::seed_from_u64(1);
        let t = Tensor::randn(&[10_000], &mut rng);
        assert!(t.mean().abs() < 0.05);
        let var = t.data().iter().map(|&x| (x as f64).powi(2)).sum::<f64>() / 10_000.0;
        assert!((var - 1.0).abs() < 0.1);
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::ones(&[3]);
        let mut b = Tensor::ones(&[3]);
        b.data_mut()[1] = 1.0005;
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-4));
    }

    #[test]
    fn display_summarizes() {
        let t = Tensor::zeros(&[100]);
        let s = t.to_string();
        assert!(s.contains("[100]"));
    }
}
