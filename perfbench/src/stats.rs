//! Order statistics: medians, quartiles and the percentile rule.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let q = |i: usize| {
                let m = ld + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `values`, with the number
/// of samples strictly beyond it in rank.
pub fn percentile(values: &[f64], q: f64) -> (f64, usize) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 0);
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (v[rank - 1], n - rank)
}

/// Indices, in pass order, of the half of the passes (rounded up) during
/// which the least CPU was stolen. Ties keep pass order, so the choice
/// never looks at how long a pass took.
pub fn least_disturbed(steal_shares: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal_shares.len()).collect();
    order.sort_by(|&a, &b| steal_shares[a].total_cmp(&steal_shares[b]));
    order.truncate(steal_shares.len().div_ceil(2));
    order.sort_unstable();
    order
}

/// How a metric's value came about: its sample count and spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
}

impl Summary {
    /// The median of `values`, with their quartiles.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            value: median(values),
            samples: values.len(),
            q1,
            q3,
        }
    }

    /// A single measured value.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            samples: 1,
            q1: value,
            q3: value,
        }
    }
}

/// Percentiles over windows of consecutive passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Per requested percentile: the median over windows, with the
    /// quartiles of the per-window values.
    pub values: Vec<Summary>,
    /// Windows formed.
    pub windows: usize,
    /// Samples over all windows.
    pub samples: usize,
    /// Fewest samples beyond the highest percentile in any window.
    pub min_beyond: usize,
}

/// The percentile rule: each percentile is computed within a window of
/// consecutive passes holding enough samples that at least
/// [`MIN_BEYOND`] lie beyond the highest requested percentile, and the
/// reported value is the median over windows. Passes left over after the
/// last full window join it. A run too short for one full window reports
/// its only window with `min_beyond` below the rule.
pub fn windowed_percentiles(passes: &[Vec<f64>], qs: &[f64]) -> Windowed {
    let q_max = qs.iter().copied().fold(0.0, f64::max);
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut current: Vec<f64> = Vec::new();
    for pass in passes {
        current.extend_from_slice(pass);
        if percentile(&current, q_max).1 >= MIN_BEYOND {
            windows.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        match windows.last_mut() {
            Some(last) => last.extend(current),
            None => windows.push(current),
        }
    }
    let values = qs
        .iter()
        .map(|&q| {
            let per: Vec<f64> = windows.iter().map(|w| percentile(w, q).0).collect();
            Summary::of(&per)
        })
        .collect();
    Windowed {
        values,
        windows: windows.len(),
        samples: windows.iter().map(Vec::len).sum(),
        min_beyond: windows
            .iter()
            .map(|w| percentile(w, q_max).1)
            .min()
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ramp(4)), (1.25, 3.75));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)), (1.0, 3.0));
        assert_eq!(median(&ramp(10)), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_counts_what_lies_beyond() {
        assert_eq!(percentile(&ramp(100), 0.9), (90.0, 10));
        assert_eq!(percentile(&ramp(112), 0.9), (101.0, 11));
        assert_eq!(percentile(&ramp(112), 0.5), (56.0, 56));
        // One 112-run pass leaves a single sample beyond p99.
        assert_eq!(percentile(&ramp(112), 0.99).1, 1);
    }

    #[test]
    fn windows_grow_until_ten_samples_lie_beyond_the_top_percentile() {
        // 56 samples per pass: one pass leaves 5 beyond p90, two leave 11.
        let passes: Vec<Vec<f64>> = (0..6).map(|_| ramp(56)).collect();
        let w = windowed_percentiles(&passes, &[0.5, 0.9]);
        assert_eq!(w.windows, 3);
        assert_eq!(w.samples, 336);
        assert!(w.min_beyond >= MIN_BEYOND);
        // Every window is two copies of 1..=56, so p90 is rank 101 of 112.
        assert_eq!(w.values[1].value, 51.0);
        assert_eq!(w.values[0].value, 28.0);
    }

    #[test]
    fn leftover_passes_join_the_last_window() {
        let passes: Vec<Vec<f64>> = (0..5).map(|_| ramp(56)).collect();
        let w = windowed_percentiles(&passes, &[0.9]);
        assert_eq!(w.windows, 2);
        assert_eq!(w.samples, 280);
    }

    #[test]
    fn least_disturbed_keeps_the_calmer_half_in_pass_order() {
        assert_eq!(least_disturbed(&[0.1, 0.0, 0.3, 0.0, 0.02]), vec![1, 3, 4]);
        // Ties are broken by pass order, never by anything else.
        assert_eq!(least_disturbed(&[0.0, 0.0, 0.0, 0.0]), vec![0, 1]);
        assert_eq!(least_disturbed(&[0.5]), vec![0]);
        assert!(least_disturbed(&[]).is_empty());
    }

    #[test]
    fn a_short_run_reports_its_shortfall() {
        let w = windowed_percentiles(&[ramp(20)], &[0.9]);
        assert_eq!(w.windows, 1);
        assert_eq!(w.min_beyond, 2);
    }
}
