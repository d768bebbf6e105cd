//! Property-based tests for quantization and bit-slicing invariants.

use proptest::prelude::*;
use swim_quant::{fake_quant, DeviceSlicing, QuantParams};
use swim_tensor::Tensor;

proptest! {
    #[test]
    fn quantize_dequantize_error_bound(
        values in proptest::collection::vec(-5.0f32..5.0, 1..64),
        bits in 2u32..10,
    ) {
        let t = Tensor::from_vec(values.clone(), &[values.len()]).expect("sized");
        let p = QuantParams::from_tensor(&t, bits);
        for &v in t.data() {
            let back = p.dequantize(p.quantize(v));
            prop_assert!((back - v).abs() <= p.half_step() + 1e-5);
        }
    }

    #[test]
    fn quantize_is_monotone(
        a in -3.0f32..3.0,
        b in -3.0f32..3.0,
        bits in 2u32..10,
    ) {
        let p = QuantParams::new(bits, 0.05);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(p.quantize(lo) <= p.quantize(hi));
    }

    #[test]
    fn quantize_is_odd_function(v in -3.0f32..3.0, bits in 2u32..10) {
        let p = QuantParams::new(bits, 0.07);
        prop_assert_eq!(p.quantize(v), -p.quantize(-v));
    }

    #[test]
    fn slicing_round_trips(mag in 0u32..4096, k in 1u32..8) {
        let m = 12u32;
        prop_assume!(k <= m);
        let s = DeviceSlicing::new(m, k);
        let levels: Vec<f64> = s.slice(mag).iter().map(|&l| l as f64).collect();
        prop_assert_eq!(s.reconstruct(&levels), mag as f64);
    }

    #[test]
    fn slice_levels_within_device_range(mag in 0u32..4096, k in 1u32..8) {
        let m = 12u32;
        prop_assume!(k <= m);
        let s = DeviceSlicing::new(m, k);
        for (i, &level) in s.slice(mag).iter().enumerate() {
            prop_assert!(level < s.device_levels(i));
        }
    }

    #[test]
    fn variance_amplification_at_least_one(m in 1u32..16, k in 1u32..16) {
        prop_assume!(k <= m);
        let s = DeviceSlicing::new(m, k);
        prop_assert!(s.variance_amplification() >= 1.0);
        // Amplification grows with the number of devices.
        let single = DeviceSlicing::new(k, k);
        prop_assert!(s.variance_amplification() >= single.variance_amplification());
    }

    #[test]
    fn fake_quant_idempotent(
        values in proptest::collection::vec(-2.0f32..2.0, 1..48),
        bits in 2u32..8,
    ) {
        let t = Tensor::from_vec(values.clone(), &[values.len()]).expect("sized");
        let q1 = fake_quant(&t, bits);
        let q2 = fake_quant(&q1, bits);
        prop_assert!(q1.allclose(&q2, 1e-5));
    }

    #[test]
    fn fake_quant_mse_decreases_with_bits(
        values in proptest::collection::vec(-2.0f32..2.0, 16..64),
    ) {
        let t = Tensor::from_vec(values.clone(), &[values.len()]).expect("sized");
        let mse = |bits| {
            let q = fake_quant(&t, bits);
            let sum: f64 =
                q.data().iter().zip(t.data()).map(|(&a, &b)| ((a - b) as f64).powi(2)).sum();
            sum / t.len() as f64
        };
        prop_assert!(mse(8) <= mse(3) + 1e-12);
    }
}
