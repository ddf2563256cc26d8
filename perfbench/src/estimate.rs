//! Estimators over timing samples.
//!
//! The host this benchmark was tuned on switches between a fast and a slow
//! speed for seconds at a time, so every reported time is an order statistic
//! (median or quantile) over many samples spread through the run, never a
//! mean that one slow spell can drag.

/// The `q`-quantile (`0.0..=1.0`) of `samples`, linearly interpolated between
/// closest ranks. `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), Some(100.0));
    }

    #[test]
    fn quantile_rejects_empty_samples_and_bad_quantiles() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let a = [5.0, 9.0, 1.0, 3.0, 7.0];
        let mut b = a;
        b.reverse();
        for q in [0.1, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(quantile(&a, q), quantile(&b, q));
        }
    }
}
