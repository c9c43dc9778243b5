//! Link-utilization summaries (the paper's Figures 8, 9 and 11).

/// Utilization of every directed channel over a measurement window, plus the
/// aggregate statistics the paper quotes ("65% of links have a utilization
/// less than 10%", "utilization ranges from 14% to 29%", …).
#[derive(Debug, Clone)]
pub struct UtilizationSummary {
    /// Busy fraction per directed channel, in [0, 1].
    pub per_channel: Vec<f64>,
}

impl UtilizationSummary {
    /// Build from per-channel busy-cycle counters over `window` cycles.
    /// A zero-length window (run ended before measurement started) yields
    /// all-zero utilizations rather than NaN, so downstream summaries stay
    /// finite and `==`-comparable.
    pub fn from_busy_cycles(busy: &[u64], window: u64) -> UtilizationSummary {
        if window == 0 {
            return UtilizationSummary {
                per_channel: vec![0.0; busy.len()],
            };
        }
        UtilizationSummary {
            per_channel: busy.iter().map(|&b| b as f64 / window as f64).collect(),
        }
    }

    pub fn max(&self) -> f64 {
        self.per_channel.iter().copied().fold(0.0, f64::max)
    }

    pub fn min(&self) -> f64 {
        if self.per_channel.is_empty() {
            return 0.0;
        }
        self.per_channel.iter().copied().fold(1.0, f64::min)
    }

    pub fn mean(&self) -> f64 {
        if self.per_channel.is_empty() {
            return 0.0;
        }
        self.per_channel.iter().sum::<f64>() / self.per_channel.len() as f64
    }

    /// Fraction of channels whose utilization is below `threshold`.
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        if self.per_channel.is_empty() {
            return 0.0;
        }
        self.per_channel.iter().filter(|&&u| u < threshold).count() as f64
            / self.per_channel.len() as f64
    }

    /// Coefficient of variation (std-dev / mean): the paper's "balanced
    /// traffic" claim corresponds to a small value.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .per_channel
            .iter()
            .map(|&u| (u - mean) * (u - mean))
            .sum::<f64>()
            / self.per_channel.len() as f64;
        var.sqrt() / mean
    }

    /// A compact textual histogram (deciles of utilization).
    pub fn to_histogram_table(&self) -> String {
        let mut buckets = [0usize; 10];
        for &u in &self.per_channel {
            let b = ((u * 10.0) as usize).min(9);
            buckets[b] += 1;
        }
        let mut out = String::from("util%   channels\n");
        for (i, &c) in buckets.iter().enumerate() {
            out.push_str(&format!("{:>2}-{:>3}  {}\n", i * 10, (i + 1) * 10, c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts() {
        let u = UtilizationSummary::from_busy_cycles(&[50, 100, 0, 25], 100);
        assert_eq!(u.per_channel, vec![0.5, 1.0, 0.0, 0.25]);
        assert_eq!(u.max(), 1.0);
        assert_eq!(u.min(), 0.0);
        assert!((u.mean() - 0.4375).abs() < 1e-12);
    }

    #[test]
    fn fraction_below() {
        let u = UtilizationSummary::from_busy_cycles(&[5, 9, 10, 50, 90], 100);
        assert!((u.fraction_below(0.10) - 0.4).abs() < 1e-12);
        assert_eq!(u.fraction_below(1.1), 1.0);
    }

    #[test]
    fn imbalance_zero_for_uniform() {
        let u = UtilizationSummary::from_busy_cycles(&[30, 30, 30], 100);
        assert_eq!(u.imbalance(), 0.0);
        let v = UtilizationSummary::from_busy_cycles(&[0, 60], 100);
        assert!(v.imbalance() > 0.9);
    }

    #[test]
    fn histogram_table() {
        let u = UtilizationSummary::from_busy_cycles(&[5, 15, 95, 100], 100);
        let t = u.to_histogram_table();
        assert!(t.contains("90-100  2"));
        assert!(t.lines().count() == 11);
    }

    #[test]
    fn empty() {
        let u = UtilizationSummary::from_busy_cycles(&[], 10);
        assert_eq!(u.mean(), 0.0);
        assert_eq!(u.min(), 0.0);
        assert_eq!(u.max(), 0.0);
        assert_eq!(u.fraction_below(0.5), 0.0);
        assert_eq!(u.imbalance(), 0.0);
    }

    #[test]
    fn zero_window_is_all_zeros() {
        let u = UtilizationSummary::from_busy_cycles(&[7, 0, 3], 0);
        assert_eq!(u.per_channel, vec![0.0, 0.0, 0.0]);
        assert_eq!(u.mean(), 0.0);
        assert_eq!(u.min(), 0.0);
        assert_eq!(u.max(), 0.0);
        assert_eq!(u.imbalance(), 0.0);
        // Everything stays finite — no NaN leaks into serialized reports.
        assert!(u.per_channel.iter().all(|x| x.is_finite()));
    }
}
