//! Weight-selection strategies for selective write-verify.
//!
//! The extension point is the [`Selector`] trait: a selector turns the
//! per-weight statistics in [`SelectionInputs`] into a
//! most-important-first ranking of flat weight indices. The paper's
//! method and its baselines are provided as unit structs
//! ([`SwimSelector`], [`MagnitudeSelector`], [`RandomSelector`]) along
//! with two variants the trait unlocks ([`SwimNoTieBreakSelector`],
//! [`LayerBalancedSelector`]); [`registry`] lists every built-in and
//! [`selector_by_name`] resolves the names used by experiment specs and
//! the `swim` CLI.

use std::cmp::Ordering;
use swim_tensor::Prng;

/// Per-weight statistics a [`Selector`] may consult.
///
/// All slices are parallel over the model's flat device-weight order.
/// `spans` describes the parameter-tensor boundaries as `(offset, len)`
/// pairs (one per device-weight tensor, in mapping order); selectors
/// that do not reason about layers may ignore it, and it may be empty
/// when the caller has no layer structure to offer.
#[derive(Debug, Clone, Copy)]
pub struct SelectionInputs<'a> {
    /// Second-derivative sensitivity per weight (paper Eq. 5).
    pub sensitivities: &'a [f32],
    /// Absolute weight value per weight.
    pub magnitudes: &'a [f32],
    /// Parameter-tensor spans as `(offset, len)`; may be empty.
    pub spans: &'a [(usize, usize)],
}

impl<'a> SelectionInputs<'a> {
    /// Builds inputs without layer structure.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn new(sensitivities: &'a [f32], magnitudes: &'a [f32]) -> Self {
        Self::with_spans(sensitivities, magnitudes, &[])
    }

    /// Builds inputs with parameter-tensor spans.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or the spans do not
    /// tile `0..len` contiguously (unless empty).
    pub fn with_spans(
        sensitivities: &'a [f32],
        magnitudes: &'a [f32],
        spans: &'a [(usize, usize)],
    ) -> Self {
        assert_eq!(
            sensitivities.len(),
            magnitudes.len(),
            "sensitivity and magnitude vectors must be parallel"
        );
        let mut expect = 0usize;
        for &(offset, len) in spans {
            assert_eq!(offset, expect, "spans must tile the weight range contiguously");
            expect += len;
        }
        if !spans.is_empty() {
            assert_eq!(expect, sensitivities.len(), "spans must cover every weight");
        }
        SelectionInputs { sensitivities, magnitudes, spans }
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.sensitivities.len()
    }

    /// Whether there are no weights.
    pub fn is_empty(&self) -> bool {
        self.sensitivities.is_empty()
    }
}

/// A pluggable weight-selection strategy.
///
/// Implementations must be deterministic functions of
/// (`inputs`, `rng`): the Monte Carlo harness relies on re-ranking with
/// an equally-seeded RNG producing the identical order.
pub trait Selector: Send + Sync {
    /// Display name used in tables and results documents.
    fn name(&self) -> &str;

    /// Registry key: lowercase, hyphenated, stable (used by specs and
    /// the CLI). Defaults to the lowercased display name.
    fn key(&self) -> String {
        self.name().to_lowercase()
    }

    /// One-line description for `swim list`.
    fn describe(&self) -> &str {
        ""
    }

    /// Whether the ranking must be re-drawn per Monte Carlo run (true
    /// for randomized selectors). Deterministic selectors are ranked
    /// once per sweep.
    fn is_stochastic(&self) -> bool {
        false
    }

    /// Builds the most-important-first ranking of flat weight indices.
    ///
    /// `rng` is `Some` for stochastic selectors inside Monte Carlo runs;
    /// deterministic selectors are called with `None`.
    ///
    /// # Panics
    ///
    /// May panic if the selector requires an RNG and none is given.
    fn rank(&self, inputs: &SelectionInputs, rng: Option<&mut Prng>) -> Vec<usize>;

    /// [`Selector::rank`] into a caller-owned buffer (cleared and
    /// refilled), so stochastic selectors can re-rank inside every Monte
    /// Carlo run without allocating.
    ///
    /// The default delegates to `rank` (one allocation per call);
    /// selectors on the hot path override it. The produced order must be
    /// identical to `rank`'s.
    fn rank_into(&self, inputs: &SelectionInputs, rng: Option<&mut Prng>, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.rank(inputs, rng));
    }
}

/// Descending order by `key`, ties broken descending by `tie`.
fn sort_desc_with_tie(idx: &mut [usize], key: &[f32], tie: &[f32]) {
    idx.sort_by(|&a, &b| match key[b].partial_cmp(&key[a]).unwrap_or(Ordering::Equal) {
        Ordering::Equal => tie[b].partial_cmp(&tie[a]).unwrap_or(Ordering::Equal),
        other => other,
    });
}

/// SWIM (paper §3.2): descending second derivative, magnitude tie-break.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwimSelector;

impl Selector for SwimSelector {
    fn name(&self) -> &str {
        "SWIM"
    }

    fn describe(&self) -> &str {
        "second-derivative ranking with |w| tie-break (paper §3.2)"
    }

    fn rank(&self, inputs: &SelectionInputs, _rng: Option<&mut Prng>) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..inputs.len()).collect();
        sort_desc_with_tie(&mut idx, inputs.sensitivities, inputs.magnitudes);
        idx
    }
}

/// Baseline: descending absolute weight value.
#[derive(Debug, Clone, Copy, Default)]
pub struct MagnitudeSelector;

impl Selector for MagnitudeSelector {
    fn name(&self) -> &str {
        "Magnitude"
    }

    fn describe(&self) -> &str {
        "descending |w| baseline"
    }

    fn rank(&self, inputs: &SelectionInputs, _rng: Option<&mut Prng>) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..inputs.len()).collect();
        idx.sort_by(|&a, &b| {
            inputs.magnitudes[b].partial_cmp(&inputs.magnitudes[a]).unwrap_or(Ordering::Equal)
        });
        idx
    }
}

/// Baseline: uniformly random order, fresh per Monte Carlo run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSelector;

impl Selector for RandomSelector {
    fn name(&self) -> &str {
        "Random"
    }

    fn describe(&self) -> &str {
        "uniformly random order, re-drawn per Monte Carlo run"
    }

    fn is_stochastic(&self) -> bool {
        true
    }

    fn rank(&self, inputs: &SelectionInputs, rng: Option<&mut Prng>) -> Vec<usize> {
        let mut idx = Vec::new();
        self.rank_into(inputs, rng, &mut idx);
        idx
    }

    fn rank_into(&self, inputs: &SelectionInputs, rng: Option<&mut Prng>, out: &mut Vec<usize>) {
        let rng = rng.expect("Random selector requires an RNG");
        out.clear();
        out.extend(0..inputs.len());
        rng.shuffle(out);
    }
}

/// SWIM without the magnitude tie-break: pure second-derivative order,
/// ties left in index order (the ablation the paper motivates in §3.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwimNoTieBreakSelector;

impl Selector for SwimNoTieBreakSelector {
    fn name(&self) -> &str {
        "SWIM (no tie-break)"
    }

    fn key(&self) -> String {
        "swim-no-tiebreak".into()
    }

    fn describe(&self) -> &str {
        "second-derivative ranking only; ties stay in index order"
    }

    fn rank(&self, inputs: &SelectionInputs, _rng: Option<&mut Prng>) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..inputs.len()).collect();
        // Stable sort: equal sensitivities keep ascending index order.
        idx.sort_by(|&a, &b| {
            inputs.sensitivities[b].partial_cmp(&inputs.sensitivities[a]).unwrap_or(Ordering::Equal)
        });
        idx
    }
}

/// Layer-balanced SWIM: every parameter tensor contributes to the
/// verified set in proportion to its size.
///
/// Weights are ranked within their own tensor by the SWIM criterion and
/// then merged by within-layer rank *fraction*, so the top `f` of the
/// global ranking contains (approximately) the top `f` of every layer.
/// This guards small but critical tensors (a first conv, a final
/// classifier) from being crowded out by one large layer's sensitivity
/// scale. Without span information it degenerates to plain SWIM.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerBalancedSelector;

impl Selector for LayerBalancedSelector {
    fn name(&self) -> &str {
        "LayerBalanced"
    }

    fn key(&self) -> String {
        "layer-balanced".into()
    }

    fn describe(&self) -> &str {
        "per-layer SWIM ranking merged proportionally across layers"
    }

    fn rank(&self, inputs: &SelectionInputs, rng: Option<&mut Prng>) -> Vec<usize> {
        if inputs.spans.is_empty() {
            return SwimSelector.rank(inputs, rng);
        }
        // Within-layer rank fraction per weight: position / layer length.
        let mut frac = vec![0.0f64; inputs.len()];
        let mut scratch: Vec<usize> = Vec::new();
        for &(offset, len) in inputs.spans {
            scratch.clear();
            scratch.extend(offset..offset + len);
            sort_desc_with_tie(&mut scratch, inputs.sensitivities, inputs.magnitudes);
            for (pos, &w) in scratch.iter().enumerate() {
                frac[w] = (pos as f64 + 0.5) / len as f64;
            }
        }
        let mut idx: Vec<usize> = (0..inputs.len()).collect();
        idx.sort_by(|&a, &b| match frac[a].partial_cmp(&frac[b]).unwrap_or(Ordering::Equal) {
            Ordering::Equal => inputs.sensitivities[b]
                .partial_cmp(&inputs.sensitivities[a])
                .unwrap_or(Ordering::Equal),
            other => other,
        });
        idx
    }
}

/// Every built-in selector, in presentation order (the paper's trio
/// first, then the variants the trait unlocks).
pub fn registry() -> Vec<Box<dyn Selector>> {
    vec![
        Box::new(SwimSelector),
        Box::new(MagnitudeSelector),
        Box::new(RandomSelector),
        Box::new(SwimNoTieBreakSelector),
        Box::new(LayerBalancedSelector),
    ]
}

/// The paper's three-method comparison set, in Table 1 row order.
pub fn default_selectors() -> Vec<Box<dyn Selector>> {
    vec![Box::new(SwimSelector), Box::new(MagnitudeSelector), Box::new(RandomSelector)]
}

/// Resolves a selector by registry key or display name
/// (case-insensitive). Returns `None` for unknown names.
///
/// # Example
///
/// ```
/// use swim_core::select::selector_by_name;
///
/// assert_eq!(selector_by_name("swim").unwrap().name(), "SWIM");
/// assert_eq!(selector_by_name("Random").unwrap().name(), "Random");
/// assert!(selector_by_name("gradient-descent").is_none());
/// ```
pub fn selector_by_name(name: &str) -> Option<Box<dyn Selector>> {
    let want = name.to_lowercase();
    registry().into_iter().find(|s| s.key() == want || s.name().to_lowercase() == want)
}

/// Converts the top `fraction` of a ranking into a boolean selection
/// mask over flat weight indices.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use swim_core::select::mask_top_fraction;
///
/// let ranking = vec![2, 0, 1];
/// let mask = mask_top_fraction(&ranking, 1.0 / 3.0);
/// assert_eq!(mask, vec![false, false, true]);
/// ```
pub fn mask_top_fraction(ranking: &[usize], fraction: f64) -> Vec<bool> {
    let mut mask = Vec::new();
    mask_top_fraction_into(ranking, fraction, &mut mask);
    mask
}

/// [`mask_top_fraction`] into a caller-owned buffer (cleared and
/// refilled; capacity reused). The Monte Carlo harness calls this once
/// per (run, fraction) with a per-worker buffer.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]`.
pub fn mask_top_fraction_into(ranking: &[usize], fraction: f64, mask: &mut Vec<bool>) {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
    let k = (ranking.len() as f64 * fraction).round() as usize;
    mask_top_k_into(ranking, k, mask);
}

/// Converts the top `k` entries of a ranking into a selection mask.
///
/// # Panics
///
/// Panics if `k > ranking.len()`.
pub fn mask_top_k(ranking: &[usize], k: usize) -> Vec<bool> {
    let mut mask = Vec::new();
    mask_top_k_into(ranking, k, &mut mask);
    mask
}

/// [`mask_top_k`] into a caller-owned buffer.
///
/// # Panics
///
/// Panics if `k > ranking.len()`.
pub fn mask_top_k_into(ranking: &[usize], k: usize, mask: &mut Vec<bool>) {
    assert!(k <= ranking.len(), "k {k} exceeds ranking length {}", ranking.len());
    mask.clear();
    mask.resize(ranking.len(), false);
    for &i in &ranking[..k] {
        mask[i] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(
        selector: &dyn Selector,
        sens: &[f32],
        mags: &[f32],
        rng: Option<&mut Prng>,
    ) -> Vec<usize> {
        selector.rank(&SelectionInputs::new(sens, mags), rng)
    }

    #[test]
    fn swim_sorts_by_sensitivity() {
        let sens = vec![0.5, 2.0, 1.0];
        let mags = vec![1.0, 1.0, 1.0];
        assert_eq!(rank(&SwimSelector, &sens, &mags, None), vec![1, 2, 0]);
    }

    #[test]
    fn swim_tie_breaks_by_magnitude() {
        let sens = vec![1.0, 1.0, 1.0];
        let mags = vec![0.2, 0.9, 0.5];
        assert_eq!(rank(&SwimSelector, &sens, &mags, None), vec![1, 2, 0]);
    }

    #[test]
    fn magnitude_ignores_sensitivity() {
        let sens = vec![9.0, 0.0, 5.0];
        let mags = vec![0.1, 0.9, 0.5];
        assert_eq!(rank(&MagnitudeSelector, &sens, &mags, None), vec![1, 2, 0]);
    }

    #[test]
    fn random_is_permutation_and_seed_dependent() {
        let sens = vec![0.0; 100];
        let mags = vec![0.0; 100];
        let mut rng_a = Prng::seed_from_u64(1);
        let a = rank(&RandomSelector, &sens, &mags, Some(&mut rng_a));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        let mut rng_b = Prng::seed_from_u64(2);
        let b = rank(&RandomSelector, &sens, &mags, Some(&mut rng_b));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "requires an RNG")]
    fn random_without_rng_panics() {
        rank(&RandomSelector, &[0.0], &[0.0], None);
    }

    #[test]
    fn mask_fraction_boundaries() {
        let ranking = vec![3, 1, 0, 2];
        assert_eq!(mask_top_fraction(&ranking, 0.0), vec![false; 4]);
        assert_eq!(mask_top_fraction(&ranking, 1.0), vec![true; 4]);
        let half = mask_top_fraction(&ranking, 0.5);
        assert_eq!(half, vec![false, true, false, true]);
    }

    #[test]
    fn mask_counts() {
        let ranking: Vec<usize> = (0..10).collect();
        for k in 0..=10 {
            let mask = mask_top_k(&ranking, k);
            assert_eq!(mask.iter().filter(|&&m| m).count(), k);
        }
    }

    #[test]
    fn registry_has_at_least_five_unique_selectors() {
        let sels = registry();
        assert!(sels.len() >= 5, "registry has {} selectors", sels.len());
        let mut keys: Vec<String> = sels.iter().map(|s| s.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), sels.len(), "duplicate registry keys");
        for key in ["swim", "magnitude", "random", "swim-no-tiebreak", "layer-balanced"] {
            assert!(selector_by_name(key).is_some(), "missing selector {key}");
        }
    }

    #[test]
    fn selector_lookup_is_case_insensitive_by_display_name() {
        assert_eq!(selector_by_name("MAGNITUDE").unwrap().name(), "Magnitude");
        assert_eq!(selector_by_name("SWIM (no tie-break)").unwrap().key(), "swim-no-tiebreak");
        assert!(selector_by_name("nope").is_none());
    }

    #[test]
    fn no_tiebreak_matches_zeroed_magnitudes() {
        // The ablation binary used to emulate "no tie-break" by zeroing
        // the magnitude vector; the dedicated selector must reproduce
        // that ranking exactly.
        let sens = vec![1.0f32, 3.0, 1.0, 3.0, 0.5];
        let zeros = vec![0.0f32; sens.len()];
        let mags = vec![9.0f32, 1.0, 2.0, 3.0, 4.0];
        let legacy = rank(&SwimSelector, &sens, &zeros, None);
        let inputs = SelectionInputs::new(&sens, &mags);
        assert_eq!(SwimNoTieBreakSelector.rank(&inputs, None), legacy);
    }

    #[test]
    fn layer_balanced_selects_proportionally() {
        // Two layers: a large one with huge sensitivities and a small
        // one with tiny sensitivities. Global SWIM would fill the top
        // ranks with the large layer only; the balanced selector keeps
        // the per-layer share equal at every prefix.
        let mut sens = vec![100.0f32; 80];
        sens.extend(vec![0.1f32; 20]);
        let mags = vec![1.0f32; 100];
        let spans = [(0usize, 80usize), (80, 20)];
        let inputs = SelectionInputs::with_spans(&sens, &mags, &spans);
        let ranking = LayerBalancedSelector.rank(&inputs, None);
        let mut seen = [false; 100];
        let top: Vec<usize> = ranking[..20].to_vec();
        for &w in &top {
            seen[w] = true;
        }
        let small_layer_hits = (80..100).filter(|&w| seen[w]).count();
        // Top 20% globally should contain ~20% of the small layer (4 of
        // 20 weights), not zero.
        assert!(
            (3..=5).contains(&small_layer_hits),
            "small layer got {small_layer_hits} of the top 20"
        );
        // Still a permutation.
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn layer_balanced_without_spans_is_swim() {
        let sens = vec![0.5f32, 2.0, 1.0];
        let mags = vec![1.0f32, 1.0, 1.0];
        let inputs = SelectionInputs::new(&sens, &mags);
        assert_eq!(LayerBalancedSelector.rank(&inputs, None), SwimSelector.rank(&inputs, None));
    }

    #[test]
    #[should_panic(expected = "tile the weight range")]
    fn inputs_reject_gapped_spans() {
        let sens = vec![0.0f32; 10];
        let mags = vec![0.0f32; 10];
        let spans = [(0usize, 4usize), (6, 4)];
        let _ = SelectionInputs::with_spans(&sens, &mags, &spans);
    }
}
