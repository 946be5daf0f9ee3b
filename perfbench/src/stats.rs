//! Exact order statistics over raw per-operation samples.

/// Raw samples of one operation, in the unit they were recorded in.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile of the sorted samples: the smallest sample
    /// with at least `p`% of all samples at or below it.  0 when empty.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.pct(50.0)
    }

    pub fn p99(&self) -> f64 {
        self.pct(99.0)
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// How many samples lie strictly above the p99.  Runs are sized so this
    /// is at least ten, and a p99 is never a single outlier.
    pub fn beyond_p99(&self) -> usize {
        let p = self.p99();
        self.0.iter().filter(|&&v| v > p).count()
    }

    /// `p50 / p99 / max (n=…)` in the samples' own unit.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p99 {:.4} {unit}, max {:.4} {unit} (n={}, {} beyond p99)",
            self.p50(),
            self.p99(),
            self.max(),
            self.len(),
            self.beyond_p99()
        )
    }
}

/// Median of a handful of values (repeated set-ups).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.p50()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.beyond_p99(), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
