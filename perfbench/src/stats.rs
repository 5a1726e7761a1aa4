//! Exact statistics over the benchmark's own raw samples.
//!
//! Percentiles are never read from the program's power-of-two
//! histograms: one bucket step there is 2x, far wider than any bound
//! the benchmark gates on.

use std::collections::BTreeMap;

/// Raw samples, each with a weight (how many operations it stands
/// for), so one clock stamp per batch can time every request in it.
///
/// Samples are kept as exact values at a fixed resolution (1 ns by
/// default) with a count per value. Memory grows with the number of
/// distinct values, not with the length of the run, so the peak memory
/// a run reports does not depend on how many units it fitted.
#[derive(Debug)]
pub struct Samples {
    resolution: u64,
    counts: BTreeMap<u64, u64>,
}

impl Default for Samples {
    fn default() -> Self {
        Samples::with_resolution(1)
    }
}

impl Samples {
    /// Samples kept at `resolution` (values are rounded down to a
    /// multiple of it).
    pub fn with_resolution(resolution: u64) -> Self {
        Samples {
            resolution: resolution.max(1),
            counts: BTreeMap::new(),
        }
    }

    /// Records one sample.
    pub fn push(&mut self, value: u64) {
        self.push_weighted(value, 1);
    }

    /// Records one sample that stands for `weight` operations.
    pub fn push_weighted(&mut self, value: u64, weight: u64) {
        if weight > 0 {
            *self.counts.entry(value / self.resolution).or_default() += weight;
        }
    }

    /// Appends every sample of `other` (same resolution).
    pub fn merge(&mut self, other: &Samples) {
        debug_assert_eq!(self.resolution, other.resolution);
        for (&k, &w) in &other.counts {
            *self.counts.entry(k).or_default() += w;
        }
    }

    /// Total weight recorded.
    pub fn count(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Nearest-rank quantiles for every `q` in `qs`, or zeros when
    /// empty: the smallest value whose cumulative weight reaches
    /// ceil(q x total).
    pub fn quantiles(&self, qs: &[f64]) -> Vec<u64> {
        let total = self.count();
        qs.iter()
            .map(|&q| {
                if total == 0 {
                    return 0;
                }
                let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
                let mut seen = 0;
                for (&k, &w) in &self.counts {
                    seen += w;
                    if seen >= rank {
                        return k * self.resolution;
                    }
                }
                unreachable!("ranks stop at the total weight")
            })
            .collect()
    }

    /// One nearest-rank quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantiles(&[q])[0]
    }

    /// Samples strictly beyond the `q` quantile's rank, so a report can
    /// say whether a percentile rests on enough tail samples.
    pub fn beyond(&self, q: f64) -> u64 {
        let total = self.count();
        total - ((q * total as f64).ceil() as u64).min(total)
    }
}

/// Median of a list of readings (mean of the middle two for even n);
/// 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile (inclusive method), for spread lines.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_respect_weights() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v);
        }
        assert_eq!(s.quantiles(&[0.5, 0.99, 1.0]), vec![50, 99, 100]);
        assert_eq!(s.beyond(0.9), 10);

        let mut w = Samples::default();
        w.push_weighted(10, 98);
        w.push_weighted(1000, 2);
        assert_eq!(w.quantile(0.5), 10);
        assert_eq!(w.quantile(0.99), 1000);
        assert_eq!(w.count(), 100);

        let mut coarse = Samples::with_resolution(1000);
        coarse.push(2_999);
        coarse.push(3_001);
        assert_eq!(coarse.quantiles(&[0.5, 1.0]), vec![2_000, 3_000]);
    }

    #[test]
    fn medians_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }
}
