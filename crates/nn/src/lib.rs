//! Neural network layers, models and first/second-order backpropagation.
//!
//! This crate is the training-and-inference substrate of the SWIM
//! reproduction (the role PyTorch plays in the paper), plus the paper's
//! actual algorithmic kernel: a **single-pass second-derivative
//! backpropagation** (§3.3) that produces the diagonal of the loss Hessian
//! for every weight — SWIM's write-verify sensitivity metric — at roughly
//! the cost of one gradient pass.
//!
//! * [`layer::Layer`] — forward / backward / `second_backward` contract;
//! * [`layers`] — Linear, Conv2d, ReLU, pooling, BatchNorm2d, residual
//!   blocks, activation quantization;
//! * [`loss`] — softmax cross-entropy (Hessian seed `p(1−p)`, Eq. 11) and
//!   L2 loss (seed 2);
//! * [`network::Network`] — a whole model: prediction, accuracy, gradient
//!   and Hessian-diagonal computation, flat views of device-mapped weights;
//! * [`models`] — LeNet, ConvNet (VGG-style), and ResNet-18 builders
//!   matching the paper's three evaluation networks;
//! * [`optim`] / [`train`] — SGD with momentum and a small training loop;
//! * [`finite_diff`] — the O(2n·forward) finite-difference Hessian of
//!   Eq. 6, used to validate the fast recursion in tests.
//!
//! # Example: sensitivity of a tiny classifier
//!
//! ```
//! use swim_nn::layers::{Linear, Relu, Sequential};
//! use swim_nn::loss::SoftmaxCrossEntropy;
//! use swim_nn::network::Network;
//! use swim_tensor::{Prng, Tensor};
//!
//! let mut rng = Prng::seed_from_u64(1);
//! let mut seq = Sequential::new();
//! seq.push(Linear::new(4, 8, &mut rng));
//! seq.push(Relu::new());
//! seq.push(Linear::new(8, 3, &mut rng));
//! let mut net = Network::new("mlp", seq);
//!
//! let x = Tensor::randn(&[16, 4], &mut rng);
//! let y: Vec<usize> = (0..16).map(|i| i % 3).collect();
//! net.accumulate_hessian(&SoftmaxCrossEntropy::new(), &x, &y);
//! let sens = net.device_hessian();
//! assert_eq!(sens.len(), net.device_weight_count());
//! assert!(sens.iter().all(|&h| h >= 0.0));
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod finite_diff;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod models;
pub mod network;
pub mod optim;
pub mod param;
pub mod train;

pub use arena::ActivationArena;
pub use layer::{Layer, Mode};
pub use network::Network;
pub use param::{Param, ParamKind};
