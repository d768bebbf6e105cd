//! Procedural synthetic dataset substrates.
//!
//! The paper evaluates on MNIST, CIFAR-10, and Tiny ImageNet. Those
//! datasets are not redistributable inside this repository (and the build
//! environment has no network), so this crate generates *procedural
//! substitutes with identical tensor shapes and label structure*:
//!
//! | Paper dataset | Substitute | Shape | Classes |
//! |---------------|-----------|-------|---------|
//! | MNIST | [`digits::synthetic_mnist`] — noisy rendered digit glyphs | 1×28×28 | 10 |
//! | CIFAR-10 | [`textures::synthetic_cifar`] — class-conditional color textures | 3×32×32 | 10 |
//! | Tiny ImageNet | [`patterns::synthetic_tiny_imagenet`] — parametric multi-object scenes | 3×64×64 | up to 200 |
//!
//! Why this preserves the paper's behaviour: SWIM is a *post-training
//! mapping* technique. Its claims concern the relationship between a
//! converged model's loss curvature and its robustness to programming
//! noise — any non-trivial classification task the models can learn
//! exercises the identical pipeline (train → quantize → rank → program →
//! evaluate). Absolute accuracies differ from the paper; the shape of the
//! accuracy-vs-write-cycles trade-off is what carries over.
//!
//! All generation is deterministic given a seed.
//!
//! # Example
//!
//! ```
//! use swim_data::digits::synthetic_mnist;
//!
//! let data = synthetic_mnist(100, 7);
//! assert_eq!(data.images().shape(), &[100, 1, 28, 28]);
//! assert_eq!(data.num_classes(), 10);
//! let (train, test) = data.split(0.8);
//! assert_eq!(train.len(), 80);
//! assert_eq!(test.len(), 20);
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod digits;
pub mod patterns;
pub mod textures;

pub use dataset::Dataset;
pub use digits::synthetic_mnist;
pub use patterns::synthetic_tiny_imagenet;
pub use textures::synthetic_cifar;
