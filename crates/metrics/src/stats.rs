//! Streaming statistics and log-bucketed histograms.

/// Welford-style streaming mean/variance plus min/max.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    pub fn new() -> RunningStats {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A histogram with logarithmically spaced buckets, good for latency
/// distributions spanning several orders of magnitude. Sub-bucket linear
/// resolution keeps the quantile error under ~3%.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// 32 sub-buckets per power of two.
    counts: Vec<u64>,
    total: u64,
}

const SUB: usize = 32;
const SUB_BITS: u32 = 5;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; 64 * SUB],
            total: 0,
        }
    }

    fn bucket(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((value >> shift) - SUB as u64) as usize;
        ((msb - SUB_BITS + 1) as usize) * SUB + sub
    }

    fn bucket_low(idx: usize) -> u64 {
        let exp = idx / SUB;
        let sub = idx % SUB;
        if exp == 0 {
            sub as u64
        } else {
            ((SUB + sub) as u64) << (exp - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket(value).min(self.counts.len() - 1);
        self.counts[b] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate quantile (`q` in `[0, 1]`); returns the lower bound of the
    /// bucket holding the q-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_low(i);
            }
        }
        Self::bucket_low(self.counts.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats() {
        let s = RunningStats::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB as u64);
        assert_eq!(h.quantile(0.0), 0);
        // Exact buckets below SUB.
        assert_eq!(h.quantile(1.0), SUB as u64 - 1);
    }

    #[test]
    fn histogram_quantile_accuracy() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let est = h.quantile(q) as f64;
            let exact = q * 100_000.0;
            assert!(
                (est - exact).abs() / exact < 0.05,
                "q={q}: est {est} vs {exact}"
            );
        }
    }

    #[test]
    fn histogram_empty_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn histogram_huge_values_saturate() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) > 0);
    }
}
