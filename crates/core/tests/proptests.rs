//! Property-based tests for the SWIM selection and accounting layers.

use proptest::prelude::*;
use swim_core::select::{
    default_selectors, mask_top_fraction, mask_top_k, RandomSelector, SelectionInputs, Selector,
    SwimSelector,
};
use swim_tensor::Prng;

proptest! {
    /// Rankings are always permutations of 0..n.
    #[test]
    fn rankings_are_permutations(
        sens in proptest::collection::vec(0.0f32..10.0, 1..128),
        strategy_id in 0usize..3,
    ) {
        let mags: Vec<f32> = sens.iter().map(|&s| s * 0.5 + 0.1).collect();
        let strategy = &default_selectors()[strategy_id];
        let mut rng = Prng::seed_from_u64(7);
        let ranking = strategy.rank(&SelectionInputs::new(&sens, &mags), Some(&mut rng));
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..sens.len()).collect::<Vec<_>>());
    }

    /// SWIM rankings are non-increasing in sensitivity.
    #[test]
    fn swim_ranking_sorted(
        sens in proptest::collection::vec(0.0f32..10.0, 2..128),
    ) {
        let mags = vec![1.0f32; sens.len()];
        let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &mags), None);
        for w in ranking.windows(2) {
            prop_assert!(sens[w[0]] >= sens[w[1]]);
        }
    }

    /// The tie-break only reorders within equal-sensitivity groups: the
    /// multiset of sensitivities along the ranking is unchanged, and
    /// within a tie the magnitudes are non-increasing.
    #[test]
    fn tie_break_orders_within_groups(
        mags in proptest::collection::vec(0.0f32..1.0, 2..64),
    ) {
        // All-equal sensitivities: order must follow magnitudes.
        let sens = vec![1.0f32; mags.len()];
        let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &mags), None);
        for w in ranking.windows(2) {
            prop_assert!(mags[w[0]] >= mags[w[1]]);
        }
    }

    /// mask_top_fraction selects exactly round(n * fraction) weights and
    /// they are the ranking's prefix.
    #[test]
    fn mask_matches_prefix(
        n in 1usize..200,
        fraction in 0.0f64..1.0,
        seed in 0u64..100,
    ) {
        let sens: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin().abs()).collect();
        let mags: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos().abs()).collect();
        let mut rng = Prng::seed_from_u64(seed);
        let ranking = RandomSelector.rank(&SelectionInputs::new(&sens, &mags), Some(&mut rng));
        let mask = mask_top_fraction(&ranking, fraction);
        let k = (n as f64 * fraction).round() as usize;
        prop_assert_eq!(mask.iter().filter(|&&m| m).count(), k);
        for &idx in &ranking[..k] {
            prop_assert!(mask[idx]);
        }
        for &idx in &ranking[k..] {
            prop_assert!(!mask[idx]);
        }
    }

    /// Nested budgets are monotone: the top-j selection is a subset of
    /// the top-k selection for j <= k (Algorithm 1's incremental property).
    #[test]
    fn selections_are_nested(n in 2usize..100, seed in 0u64..100) {
        let mut rng = Prng::seed_from_u64(seed);
        let sens: Vec<f32> = (0..n).map(|_| rng.uniform_f32()).collect();
        let mags: Vec<f32> = (0..n).map(|_| rng.uniform_f32()).collect();
        let ranking = SwimSelector.rank(&SelectionInputs::new(&sens, &mags), None);
        let j = n / 3;
        let k = 2 * n / 3;
        let small = mask_top_k(&ranking, j);
        let large = mask_top_k(&ranking, k);
        for i in 0..n {
            if small[i] {
                prop_assert!(large[i], "top-{j} not nested in top-{k}");
            }
        }
    }
}
