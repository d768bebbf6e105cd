//! NWC-to-reach-accuracy arithmetic: the paper's speed-up numbers.
//!
//! §4.3 derives its headline claims ("SWIM only needs 50% of the write
//! cycles … a speedup of 5×, 9×, and 9×") by asking, for each method,
//! the smallest NWC at which the accuracy curve reaches a target. This
//! module implements that query with linear interpolation between swept
//! points.

use swim_core::montecarlo::SweepPoint;

/// Smallest NWC at which the (mean) accuracy curve reaches
/// `target_accuracy`, linearly interpolating between adjacent sweep
/// points. Returns `None` if the curve never reaches the target.
///
/// Assumes `points` are sorted by NWC (as produced by
/// [`swim_core::montecarlo::nwc_sweep_outcome`]).
///
/// # Example
///
/// ```
/// use swim_bench::speedup::nwc_to_reach;
/// use swim_core::montecarlo::SweepPoint;
/// use swim_tensor::stats::Running;
///
/// let mk = |nwc: f64, acc: f64| {
///     let mut r = Running::new();
///     r.push(acc);
///     SweepPoint { fraction: nwc, nwc, accuracy: r, accuracy_min: acc, accuracy_p05: acc }
/// };
/// let curve = vec![mk(0.0, 90.0), mk(0.5, 95.0), mk(1.0, 96.0)];
/// assert_eq!(nwc_to_reach(&curve, 95.0), Some(0.5));
/// assert_eq!(nwc_to_reach(&curve, 92.5), Some(0.25));
/// assert_eq!(nwc_to_reach(&curve, 99.0), None);
/// ```
pub fn nwc_to_reach(points: &[SweepPoint], target_accuracy: f64) -> Option<f64> {
    let mut prev: Option<&SweepPoint> = None;
    for p in points {
        if p.accuracy.mean() >= target_accuracy {
            return Some(match prev {
                None => p.nwc,
                Some(q) => {
                    let (a0, a1) = (q.accuracy.mean(), p.accuracy.mean());
                    if (a1 - a0).abs() < 1e-12 {
                        p.nwc
                    } else {
                        q.nwc + (p.nwc - q.nwc) * (target_accuracy - a0) / (a1 - a0)
                    }
                }
            });
        }
        prev = Some(p);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_tensor::stats::Running;

    fn mk(nwc: f64, acc: f64) -> SweepPoint {
        let mut r = Running::new();
        r.push(acc);
        SweepPoint { fraction: nwc, nwc, accuracy: r, accuracy_min: acc, accuracy_p05: acc }
    }

    #[test]
    fn exact_hit_at_point() {
        let curve = vec![mk(0.0, 80.0), mk(0.3, 90.0), mk(1.0, 95.0)];
        assert_eq!(nwc_to_reach(&curve, 90.0), Some(0.3));
    }

    #[test]
    fn already_above_at_zero() {
        let curve = vec![mk(0.0, 99.0), mk(1.0, 99.5)];
        assert_eq!(nwc_to_reach(&curve, 98.0), Some(0.0));
    }

    #[test]
    fn interpolates_between_points() {
        let curve = vec![mk(0.0, 80.0), mk(1.0, 100.0)];
        let x = nwc_to_reach(&curve, 90.0).unwrap();
        assert!((x - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unreachable_target() {
        let curve = vec![mk(0.0, 80.0), mk(1.0, 90.0)];
        assert_eq!(nwc_to_reach(&curve, 95.0), None);
    }
}
