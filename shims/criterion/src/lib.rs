#![allow(clippy::all)]
//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Keeps every `#[bench]`-style target in `crates/bench/benches/*`
//! compiling and runnable without registry access. Measurement times
//! every iteration on its own and reports the median and the minimum:
//! the median resists the odd slow iteration, the minimum shows the
//! floor, and their gap is the spread. Good enough to compare kernels and
//! to keep `cargo bench` wired into CI, without upstream's statistical
//! machinery.
//!
//! Mode selection follows upstream: when cargo invokes a
//! `harness = false` bench target from `cargo test --benches` it passes
//! `--test`, and each benchmark body runs exactly once as a smoke test;
//! under `cargo bench` (which passes `--bench`) the timed loop runs.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement iterations per benchmark in full (non-smoke) mode.
const DEFAULT_ITERS: u64 = 20;

fn smoke_mode() -> bool {
    // Full measurement only when explicitly invoked as a benchmark.
    !std::env::args().any(|a| a == "--bench")
}

/// The benchmark manager: registers and runs benchmark functions.
pub struct Criterion {
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { smoke: smoke_mode() }
    }
}

impl Criterion {
    /// Runs a single benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_one(None, &id.into(), self.smoke, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), smoke: self.smoke, _parent: self }
    }

    /// Upstream parses CLI filters here; the stand-in only needs the
    /// mode flag, which [`Criterion::default`] already read.
    pub fn configure_from_args(self) -> Criterion {
        self
    }

    /// Prints the closing summary (no-op).
    pub fn final_summary(&self) {}
}

/// A named collection of benchmarks sharing throughput/size settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    smoke: bool,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-benchmark sample count (accepted, unused).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the measured throughput unit (accepted, unused).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs a benchmark within this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(Some(&self.name), &id.into(), self.smoke, f);
        self
    }

    /// Runs a parameterised benchmark within this group.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_one(Some(&self.name), &id.into(), self.smoke, |b| f(b, input));
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Identifies one benchmark, optionally parameterised.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id of the form `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId { id: format!("{}/{}", name.into(), parameter) }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { id: s }
    }
}

/// Declared throughput of the benchmarked routine.
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Batch sizing hint for [`Bencher::iter_batched`].
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per routine call.
    PerIteration,
}

/// Times the benchmark routine.
pub struct Bencher {
    smoke: bool,
    /// Host time of each timed iteration.
    samples: Vec<Duration>,
}

impl Bencher {
    fn iters(&self) -> u64 {
        if self.smoke {
            1
        } else {
            DEFAULT_ITERS
        }
    }

    /// Times `routine` once per iteration over the configured count.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        self.samples.clear();
        for _ in 0..self.iters() {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Times `routine` with a fresh un-timed `setup` product per call.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        self.samples.clear();
        for _ in 0..self.iters() {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }
}

/// Median and minimum of the per-iteration times (`None` when the routine
/// never ran).
fn median_min(samples: &mut [Duration]) -> Option<(Duration, Duration)> {
    samples.sort_unstable();
    let n = samples.len();
    let min = *samples.first()?;
    Some(((samples[(n - 1) / 2] + samples[n / 2]) / 2, min))
}

fn run_one<F: FnMut(&mut Bencher)>(group: Option<&str>, id: &BenchmarkId, smoke: bool, mut f: F) {
    let mut b = Bencher { smoke, samples: Vec::new() };
    f(&mut b);
    let label = match group {
        Some(g) => format!("{g}/{}", id.id),
        None => id.id.clone(),
    };
    if smoke {
        println!("bench {label}: ok (smoke)");
    } else if let Some((median, min)) = median_min(&mut b.samples) {
        println!(
            "bench {label}: median {} ns/iter, min {} ns ({} iters)",
            median.as_nanos(),
            min.as_nanos(),
            b.samples.len()
        );
    }
}

/// Bundles benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generates `fn main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_routine() {
        let mut calls = 0u32;
        let mut c = Criterion { smoke: true };
        c.bench_function("unit", |b| b.iter(|| calls += 1));
        assert!(calls >= 1);
    }

    #[test]
    fn groups_and_inputs_plumb_through() {
        let mut c = Criterion { smoke: true };
        let mut g = c.benchmark_group("g");
        g.sample_size(10).throughput(Throughput::Bytes(64));
        let mut seen = 0u64;
        g.bench_with_input(BenchmarkId::new("id", 64), &7u64, |b, &x| b.iter(|| seen = x));
        g.bench_function("batched", |b| b.iter_batched(|| 3u64, |x| x * 2, BatchSize::SmallInput));
        g.finish();
        assert_eq!(seen, 7);
    }

    #[test]
    fn timed_mode_records_every_iteration() {
        let mut b = Bencher { smoke: false, samples: Vec::new() };
        b.iter(|| 1 + 1);
        assert_eq!(b.samples.len() as u64, DEFAULT_ITERS);
    }

    #[test]
    fn median_and_min_of_samples() {
        let ns = Duration::from_nanos;
        assert_eq!(median_min(&mut [ns(9), ns(1), ns(5)]), Some((ns(5), ns(1))));
        assert_eq!(median_min(&mut [ns(4), ns(100), ns(2), ns(6)]), Some((ns(5), ns(2))));
        assert_eq!(median_min(&mut []), None);
    }
}
