//! Order statistics over small timing samples.

/// Median (mean of the two middle values for an even count). `NaN` for an
/// empty sample, so a missing measurement can never pass for a number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The ⌈n/4⌉-th smallest value. The two time metrics are this and not the
/// median: on a shared host other tenants only ever add time, in bursts
/// that can cover a whole run, so the low side of a run's timings is the
/// side that repeats (README, *Noise*). One quicker-than-usual sample in
/// six does not move it, as it would the minimum.
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(4) - 1]
}

/// `(max − min) / median`, in percent. The benchmark's samples per child
/// (2) and children per run (2–3) are too few for quartiles, so the
/// spread rows use the range.
pub fn range_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn lower_quartile_is_an_order_statistic() {
        assert_eq!(lower_quartile(&[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]), 2.0);
        assert_eq!(lower_quartile(&[2.0, 1.0]), 1.0);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        let many: Vec<f64> = (1..=33).map(f64::from).collect();
        assert_eq!(lower_quartile(&many), 9.0);
        assert!(lower_quartile(&[]).is_nan());
    }

    #[test]
    fn range_is_relative_to_the_median() {
        assert_eq!(range_pct(&[1.0, 2.0, 3.0]), 100.0);
        assert_eq!(range_pct(&[5.0]), 0.0);
    }
}
