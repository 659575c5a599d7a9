//! Order statistics, digests and the regression rule shared by every
//! workload and by `compare`.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing a metric's runs against a baseline's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the baseline by more than the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The baseline's own runs spread wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `values` sorted ascending (total order, so NaN cannot panic a sort).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Value at quantile `q` (in `[0, 1]`) of the ascending slice,
/// interpolating linearly between the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (NaN when there are none).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        f64::NAN
    } else {
        quantile(&v, 0.5)
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), so spreads printed here match the ones the
/// acceptance rule computes from the same numbers.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let x = sorted(values.iter().copied());
    assert!(!x.is_empty(), "quartiles of an empty sample");
    let ld = x.len();
    if ld == 1 {
        return [x[0]; 3];
    }
    let m = (ld + 1) as i64;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        *slot = (x[j - 1] * (4 - delta) as f64 + x[j] * delta as f64) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn rel_spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    (q3 - q1) / med.abs()
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest ladder percentile with at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // The tolerance absorbs rounding in `100 - p` (99.9 is inexact).
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// FNV-1a 64: a digest that is stable across processes and builds.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Metric and workload names: a letter or digit, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Judges the runs `b` against the baseline runs `a`: a regression is a
/// median worse than `a`'s by more than `bound` (a share of `a`'s
/// median). When `a`'s own spread exceeds the bound the verdict is
/// unresolved, unless every run of `b` is better than every run of `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let [_, ma, _] = quartiles(a);
    let [_, mb, _] = quartiles(b);
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let (worse_by, dominates) = match better {
        Better::Lower => (
            (mb - ma) / ma.abs(),
            b.iter().fold(f64::MIN, |m, &v| m.max(v)) < a.iter().fold(f64::MAX, |m, &v| m.min(v)),
        ),
        Better::Higher => (
            (ma - mb) / ma.abs(),
            b.iter().fold(f64::MAX, |m, &v| m.min(v)) > a.iter().fold(f64::MIN, |m, &v| m.max(v)),
        ),
    };
    if dominates {
        Verdict::Ok
    } else if rel_spread(a) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&x, 0.0), 1.0);
        assert_eq!(quantile(&x, 0.5), 3.0);
        assert_eq!(quantile(&x, 1.0), 5.0);
        assert!((quantile(&x, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    /// Reference values from CPython's `statistics.quantiles(d, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), [2.5, 5.0, 7.5]);
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
        // Order of the input does not matter.
        assert_eq!(quartiles(&[10.0, 1.0, 5.0, 3.0, 8.0]), [2.0, 5.0, 9.0]);
        assert_eq!(rel_spread(&ten), 5.5 / 5.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "pmm.server.mean_batch",
            "lat_p90_us",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn verdicts_apply_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5% slower, inside a 10% bound.
        let b: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Ok);
        // 20% slower: a regression for lower-is-better...
        let b: Vec<f64> = a.iter().map(|v| v * 1.20).collect();
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Regressed);
        // ...and a clear win for higher-is-better.
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Ok);
        // A baseline wider than the bound cannot resolve a 5% change...
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        let b: Vec<f64> = noisy.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            verdict(&noisy, &b, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every baseline run.
        assert_eq!(
            verdict(&noisy, &[10.0, 11.0], Better::Lower, 0.10),
            Verdict::Ok
        );
    }
}
