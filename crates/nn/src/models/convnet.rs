//! ConvNet (VGG-style, after DNN+NeuroSim) for 32×32 RGB images.

use crate::layers::{ActQuant, Conv2d, Flatten, Linear, MaxPool2d, Relu, Sequential};
use crate::network::Network;
use swim_tensor::Prng;

/// Configuration for the CIFAR-10 [`ConvNet`](build).
///
/// The architecture follows the 8-layer VGG-style CNN used by
/// DNN+NeuroSim (paper ref \[6\]): three conv-conv-pool stages followed by
/// two fully connected layers. At `width_factor = 1.0` it has ≈5.4×10⁶
/// device-mapped weights (the paper reports 6.4×10⁶ for its NeuroSim
/// ConvNet; the difference is the FC head, whose hidden width of 1024
/// is this reproduction's choice — see [`build`] for every layer shape).
/// `width_factor` scales every channel/hidden width so the
/// figure-regeneration benches can run at CPU-friendly sizes while
/// exercising the identical architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvNetConfig {
    /// Number of output classes.
    pub num_classes: usize,
    /// Activation quantization bit width (`None` disables fake quant).
    pub act_bits: Option<u32>,
    /// Multiplier on all channel and hidden widths.
    pub width_factor: f32,
}

impl Default for ConvNetConfig {
    fn default() -> Self {
        ConvNetConfig { num_classes: 10, act_bits: Some(6), width_factor: 1.0 }
    }
}

impl ConvNetConfig {
    /// The paper's setting (6-bit quantization, full width).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A reduced-width configuration sized for CPU experiments.
    pub fn reduced(width_factor: f32) -> Self {
        ConvNetConfig { width_factor, ..Self::default() }
    }

    /// Builds the network with deterministic initialization.
    pub fn build(&self, seed: u64) -> Network {
        build(self, seed)
    }

    fn scaled(&self, base: usize) -> usize {
        ((base as f32 * self.width_factor).round() as usize).max(4)
    }
}

/// Builds the ConvNet:
/// `[conv-conv-pool] ×3 → fc(→1024·w) → fc(→classes)` on 32×32 inputs.
///
/// # Example
///
/// ```
/// use swim_nn::models::ConvNetConfig;
///
/// let mut net = ConvNetConfig::reduced(0.125).build(7);
/// assert!(net.device_weight_count() > 10_000);
/// ```
pub fn build(config: &ConvNetConfig, seed: u64) -> Network {
    assert!(config.num_classes > 0, "num_classes must be positive");
    assert!(
        config.width_factor > 0.0 && config.width_factor.is_finite(),
        "width_factor must be positive"
    );
    let mut rng = Prng::seed_from_u64(seed);
    let c1 = config.scaled(64);
    let c2 = config.scaled(128);
    let c3 = config.scaled(256);
    let fc = config.scaled(1024);

    let mut seq = Sequential::new();
    let conv_block = |seq: &mut Sequential, cin: usize, cout: usize, rng: &mut Prng| {
        seq.push(Conv2d::new(cin, cout, 3, 1, 1, rng));
        seq.push(Relu::new());
        if let Some(bits) = config.act_bits {
            seq.push(ActQuant::unsigned(bits));
        }
    };

    conv_block(&mut seq, 3, c1, &mut rng);
    conv_block(&mut seq, c1, c1, &mut rng);
    seq.push(MaxPool2d::new(2)); // 32 -> 16
    conv_block(&mut seq, c1, c2, &mut rng);
    conv_block(&mut seq, c2, c2, &mut rng);
    seq.push(MaxPool2d::new(2)); // 16 -> 8
    conv_block(&mut seq, c2, c3, &mut rng);
    conv_block(&mut seq, c3, c3, &mut rng);
    seq.push(MaxPool2d::new(2)); // 8 -> 4

    seq.push(Flatten::new()); // c3 * 16
    seq.push(Linear::new(c3 * 16, fc, &mut rng));
    seq.push(Relu::new());
    if let Some(bits) = config.act_bits {
        seq.push(ActQuant::unsigned(bits));
    }
    seq.push(Linear::new(fc, config.num_classes, &mut rng));

    Network::new("convnet", seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use swim_tensor::Tensor;

    #[test]
    fn forward_shape_reduced() {
        let mut net = ConvNetConfig::reduced(0.125).build(0);
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        assert_eq!(net.forward(&x, Mode::Eval).shape(), &[2, 10]);
    }

    #[test]
    fn full_width_weight_count() {
        let mut net = ConvNetConfig::paper().build(0);
        let n = net.device_weight_count();
        // conv: 1728 + 36864 + 73728 + 147456 + 294912 + 589824 = 1144512
        // fc: 4096*1024 + 1024*10 = 4204544
        assert_eq!(n, 1_144_512 + 4_204_544);
    }

    #[test]
    fn width_factor_scales_params() {
        let mut small = ConvNetConfig::reduced(0.25).build(0);
        let mut large = ConvNetConfig::reduced(0.5).build(0);
        assert!(large.device_weight_count() > 3 * small.device_weight_count());
    }

    #[test]
    fn deterministic_build() {
        let mut a = ConvNetConfig::reduced(0.25).build(3);
        let mut b = ConvNetConfig::reduced(0.25).build(3);
        assert_eq!(a.device_weights(), b.device_weights());
    }

    #[test]
    #[should_panic(expected = "width_factor")]
    fn rejects_zero_width() {
        ConvNetConfig { width_factor: 0.0, ..Default::default() }.build(0);
    }
}
