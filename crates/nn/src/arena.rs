//! Recycled activation buffers for the forward pass.

use swim_tensor::Tensor;

/// A pool of recycled activation tensors backing
/// [`Layer::forward_into`](crate::layer::Layer::forward_into).
///
/// Every [`crate::layer::Layer::forward_into`] call grabs a buffer from
/// the arena for its output and the caller recycles the layer's *input*
/// buffer as soon as the next layer has consumed it. Buffers are handed
/// out LIFO, so a plain sequential network settles into exactly two
/// tensors playing ping (current input) and pong (current output),
/// swapped every layer — the classic double-buffered activation scheme.
/// Branching layers ([`crate::layers::Residual`]) briefly hold a third
/// buffer for the second branch; the pool grows to the high-water mark
/// of simultaneously-live activations on first use and is reused
/// unchanged for every later forward pass.
///
/// Buffers are resized in place ([`Tensor::reset_zeroed`]), so once the
/// pool has seen the widest activation of a network, a steady-state
/// forward pass performs **zero heap allocations**. Arena state never
/// reaches the result: every layer fully overwrites the buffer it
/// grabs, so a warm arena gives the same bits as the cold one that
/// [`crate::layer::Layer::forward`] uses.
///
/// # Example
///
/// ```
/// use swim_nn::arena::ActivationArena;
/// use swim_nn::layer::{Layer, Mode};
/// use swim_nn::layers::Relu;
/// use swim_tensor::Tensor;
///
/// let mut arena = ActivationArena::new();
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[2])?;
/// let y = relu.forward_into(&x, Mode::Eval, &mut arena);
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// arena.recycle(y); // hand the buffer back for the next call
/// assert_eq!(arena.pooled(), 1);
/// # Ok::<(), swim_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ActivationArena {
    free: Vec<Tensor>,
}

impl ActivationArena {
    /// Creates an empty arena; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        ActivationArena::default()
    }

    /// Hands out a buffer of unspecified shape and contents (the most
    /// recently recycled one, or a fresh empty tensor on a cold pool).
    ///
    /// Layer implementations call [`Tensor::reset_zeroed`] on it before
    /// writing, which reuses the buffer's capacity.
    pub fn grab(&mut self) -> Tensor {
        self.free.pop().unwrap_or_else(|| Tensor::zeros(&[0]))
    }

    /// Hands out a buffer already reset to `Tensor::zeros(dims)`.
    pub fn take(&mut self, dims: &[usize]) -> Tensor {
        let mut t = self.grab();
        t.reset_zeroed(dims);
        t
    }

    /// Returns a buffer to the pool for reuse by a later grab.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.free.push(tensor);
    }

    /// Number of buffers currently parked in the pool (a sequential
    /// network settles at two — the ping/pong pair).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grab_recycle_round_trip_reuses_capacity() {
        let mut arena = ActivationArena::new();
        let mut t = arena.take(&[4, 4]);
        assert_eq!(t.shape(), &[4, 4]);
        assert!(t.data().iter().all(|&v| v == 0.0));
        t.fill(7.0);
        let cap_marker = t.data().as_ptr();
        arena.recycle(t);
        assert_eq!(arena.pooled(), 1);
        // Same or smaller shape: the identical buffer comes back, zeroed.
        let t2 = arena.take(&[2, 3]);
        assert_eq!(arena.pooled(), 0);
        assert_eq!(t2.shape(), &[2, 3]);
        assert!(t2.data().iter().all(|&v| v == 0.0));
        assert_eq!(t2.data().as_ptr(), cap_marker);
    }

    #[test]
    fn lifo_order_gives_ping_pong() {
        let mut arena = ActivationArena::new();
        let a = arena.take(&[1]);
        let b = arena.take(&[2]);
        let a_ptr = a.data().as_ptr();
        arena.recycle(a);
        arena.recycle(b);
        // b (most recent) first, then a.
        let _b = arena.grab();
        let a2 = arena.grab();
        assert_eq!(a2.data().as_ptr(), a_ptr);
    }

    #[test]
    fn cold_pool_hands_out_empty_tensors() {
        let mut arena = ActivationArena::new();
        assert_eq!(arena.pooled(), 0);
        assert_eq!(arena.grab().len(), 0);
    }
}
