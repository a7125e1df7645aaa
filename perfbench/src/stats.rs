//! Order statistics and the percentile rule.
//!
//! A quantile `q` of `n` samples is reported only when at least
//! [`MIN_TAIL`] samples lie beyond it, so a "p99" always describes a real
//! tail rather than the single slowest sample. The median is always
//! reported; with fewer than 40 samples it is the only reportable
//! quantile.

/// Samples that must lie beyond a reported quantile.
pub const MIN_TAIL: usize = 10;

/// Whether quantile `q` of `n` samples may be reported.
pub fn reportable(n: usize, q: f64) -> bool {
    if n == 0 {
        return false;
    }
    q <= 0.5 || ((1.0 - q) * n as f64 + 1e-9).floor() as usize >= MIN_TAIL
}

/// Linear-interpolated quantile of already sorted samples
/// (position `q · (n − 1)`, as numpy's default).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and (when the sample supports it) p99 of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `None` when fewer than [`MIN_TAIL`] samples lie beyond the 99th
    /// percentile (n < 1000).
    pub p99: Option<f64>,
}

impl Summary {
    /// Summarize `samples` (any order). An empty set summarizes to zeros
    /// with `n = 0`, which callers report as "layer idle on this workload".
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                n: 0,
                p50: 0.0,
                p99: None,
            };
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Self {
            n: s.len(),
            p50: quantile_sorted(&s, 0.5),
            p99: reportable(s.len(), 0.99).then(|| quantile_sorted(&s, 0.99)),
        }
    }
}

/// Fewest samples that leave [`MIN_TAIL`] samples beyond a p99; also the
/// size of a p99 window.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Latency percentiles of one run, over every completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub n: usize,
    /// Median over every request.
    pub p50: f64,
    /// Median of the p99s of consecutive windows of at least
    /// [`P99_MIN_SAMPLES`] requests (`None` with fewer than that).
    pub p99: Option<f64>,
    /// Each window's p99, in request order.
    pub window_p99s: Vec<f64>,
    /// Median and p99 over the whole run, with no windows.
    pub all: Summary,
}

/// Summarize request latencies (`samples` in request order).
///
/// Every completed request counts. The p99 is the median over consecutive
/// windows of at least [`P99_MIN_SAMPLES`] requests of each window's p99,
/// so a host stall confined to a few seconds of the run cannot own it,
/// while a tail the program causes shows in every window and counts.
pub fn latency(samples: &[f64]) -> Latency {
    let n = samples.len();
    let windows = n / P99_MIN_SAMPLES;
    let window_p99s: Vec<f64> = (0..windows)
        .map(|w| {
            Summary::of(&samples[w * n / windows..(w + 1) * n / windows])
                .p99
                .expect("every window holds at least P99_MIN_SAMPLES samples")
        })
        .collect();
    let all = Summary::of(samples);
    Latency {
        n,
        p50: all.p50,
        p99: (!window_p99s.is_empty()).then(|| median(&window_p99s)),
        window_p99s,
        all,
    }
}

/// Median of a small set (setup repeats); 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_forty_samples_only_the_median_is_reportable() {
        for n in 1..40 {
            assert!(reportable(n, 0.5), "median at n={n}");
            for q in [0.75, 0.9, 0.95, 0.99] {
                assert!(!reportable(n, q), "q={q} must not be reportable at n={n}");
            }
        }
        assert!(reportable(40, 0.75));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!reportable(999, 0.99));
        assert!(reportable(1000, 0.99));
        let under: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(Summary::of(&under).p99, None);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&enough);
        assert_eq!(s.n, 1000);
        assert!((s.p99.unwrap() - 989.01).abs() < 1e-9);
        assert!((s.p50 - 499.5).abs() < 1e-9);
    }

    #[test]
    fn every_request_counts_and_short_runs_have_no_p99() {
        let lat: Vec<f64> = (0..1200).map(f64::from).collect();
        let l = latency(&lat);
        assert_eq!(l.n, 1200);
        assert_eq!(l.window_p99s.len(), 1);
        assert_eq!(l.p99, l.all.p99);
        assert!((l.p50 - 599.5).abs() < 1e-9);
        assert_eq!(latency(&lat[..999]).p99, None);
    }

    #[test]
    fn a_stall_in_one_window_does_not_own_the_p99() {
        // Four windows of 1000; a 50-sample stall lands in the second.
        let mut v: Vec<f64> = (0..4000).map(|i| (i % 100) as f64 / 100.0).collect();
        for x in &mut v[1200..1250] {
            *x = 40.0;
        }
        let l = latency(&v);
        assert!(l.all.p99.unwrap() > 30.0, "it owns the whole-run p99");
        assert_eq!(l.window_p99s.len(), 4);
        assert!(l.p99.unwrap() < 1.0, "median of four windows");
        // A tail in every window is the program's and counts.
        for w in 0..4 {
            for x in &mut v[w * 1000 + 500..w * 1000 + 520] {
                *x = 20.0;
            }
        }
        assert!(latency(&v).p99.unwrap() >= 20.0);
    }

    #[test]
    fn quantiles_ignore_input_order_and_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.p50, 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
