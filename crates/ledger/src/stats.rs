//! Best-of readings, medians and percentiles over samples.

/// MiB, for throughputs.
pub const MIB: f64 = 1024.0 * 1024.0;

/// One end-to-end metric of one run: the value, and how far it can be
/// trusted — the interval `[lo, hi]` the run's own samples put around it.
#[derive(Clone, PartialEq, Debug)]
pub struct Reading {
    /// The reported value.
    pub value: f64,
    /// Lower end of the run's own interval around the value.
    pub lo: f64,
    /// Upper end of the run's own interval around the value.
    pub hi: f64,
    /// The samples, in the order taken (empty when the seed fixes the value).
    pub samples: Vec<f64>,
}

impl Reading {
    /// The best of `samples` — the highest when `higher_is_better`, else
    /// the lowest. The interval runs from the best sample to the one a tenth
    /// of the way down the ranking, so a best sample that stands alone shows
    /// as a wide spread.
    pub fn best_of(samples: Vec<f64>, higher_is_better: bool) -> Reading {
        let mut sorted = samples.clone();
        let tenth = percentile(&mut sorted, if higher_is_better { 0.90 } else { 0.10 });
        let value = if higher_is_better {
            sorted[sorted.len() - 1]
        } else {
            sorted[0]
        };
        Reading {
            value,
            lo: value.min(tenth),
            hi: value.max(tenth),
            samples,
        }
    }

    /// A count or ratio the seed fixes exactly; there are no samples.
    pub fn exact(value: f64) -> Reading {
        Reading {
            value,
            lo: value,
            hi: value,
            samples: Vec::new(),
        }
    }

    /// How `value` was taken from the samples, as reports name it.
    pub fn statistic(&self) -> &'static str {
        if self.samples.is_empty() {
            "exact"
        } else {
            "best"
        }
    }

    /// The interval's width as a share of the value.
    pub fn spread(&self) -> f64 {
        spread(self.value, self.lo, self.hi)
    }
}

/// Width of `[lo, hi]` as a share of `value` (0 for a zero value).
pub fn spread(value: f64, lo: f64, hi: f64) -> f64 {
    if value == 0.0 {
        0.0
    } else {
        (hi - lo) / value.abs()
    }
}

/// The smallest of `samples`: the fastest of a set of timings.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `samples` (at least one).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut x = samples.to_vec();
    x.sort_by(f64::total_cmp);
    let mid = x.len() / 2;
    if x.len() % 2 == 1 {
        x[mid]
    } else {
        (x[mid - 1] + x[mid]) / 2.0
    }
}

/// The `p`-quantile (0..=1) by nearest rank; for batch-latency percentiles
/// where thousands of samples make interpolation moot.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fastest(&[4.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn readings_carry_their_own_interval() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let b = Reading::best_of(v.clone(), true);
        assert_eq!((b.value, b.lo, b.hi), (10.0, 9.0, 10.0));
        assert_eq!((b.spread(), b.statistic()), (0.1, "best"));
        let f = Reading::best_of(v, false);
        assert_eq!((f.value, f.lo, f.hi, f.spread()), (1.0, 1.0, 1.0, 0.0));
        let e = Reading::exact(0.5);
        assert_eq!((e.spread(), e.statistic()), (0.0, "exact"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
    }
}
