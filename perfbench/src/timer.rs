//! The benchmark's own repeat timer and order statistics.
//!
//! Every host-time figure the benchmark reports is a median over repeated
//! samples with the warm-up excluded, so one preempted sample on a shared
//! host moves the quartiles, not the headline.

use std::hint::black_box;
use std::time::Instant;

/// Order statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Samples behind the statistics.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
}

/// Linear-interpolation quantile of an ascending slice (the "inclusive"
/// method: `q = 0` is the minimum, `q = 1` the maximum).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

impl Spread {
    /// Order statistics of `values` (any order; NaN-free).
    pub fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Spread {
            n: sorted.len(),
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            p90: quantile_sorted(&sorted, 0.9),
        }
    }
}

/// Times `op` as `samples` batches of `inner` calls after `warmup`
/// untimed batches, returning per-call nanoseconds. `inner` is sized by
/// the caller so one batch lasts well above the clock's resolution.
pub fn repeat_ns<R>(
    warmup: usize,
    samples: usize,
    inner: usize,
    mut op: impl FnMut() -> R,
) -> Spread {
    for _ in 0..warmup * inner {
        black_box(op());
    }
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(op());
            }
            start.elapsed().as_nanos() as f64 / inner as f64
        })
        .collect();
    Spread::of(&per_call)
}

/// Picks a batch size so one batch of `op` takes about `target_ns`,
/// probing with a single call (at least 1).
pub fn batch_for<R>(target_ns: f64, mut op: impl FnMut() -> R) -> usize {
    let start = Instant::now();
    black_box(op());
    let one = start.elapsed().as_nanos().max(1) as f64;
    ((target_ns / one).ceil() as usize).clamp(1, 1 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_inclusive_method() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn timed_work_grows_with_the_work() {
        let small = repeat_ns(1, 5, 8, || (0..100u64).map(black_box).sum::<u64>());
        let large = repeat_ns(1, 5, 8, || (0..100_000u64).map(black_box).sum::<u64>());
        assert!(large.median > small.median, "{small:?} vs {large:?}");
    }
}
