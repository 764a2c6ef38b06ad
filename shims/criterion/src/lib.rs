//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate provides the subset of the criterion API the `mgk-bench` targets
//! use: [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`],
//! [`BenchmarkId`], [`Throughput`], [`black_box`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Statistics are deliberately simple — each benchmark runs a warm-up pass
//! followed by timed batches, and the median per-iteration time is printed —
//! but the harness honors `sample_size` / `measurement_time` and reports
//! throughput, which is enough to compare the workspace's implementations
//! against each other on one machine.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting a benchmark
/// body.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `name/parameter` id.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: format!("{}/{parameter}", name.into()) }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Bencher {
    /// Time `routine`, recording one sample per batch.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // warm-up: run until the warm-up budget is spent (at least once)
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            black_box(routine());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let per_iter = warm_start.elapsed().checked_div(warm_iters as u32).unwrap_or_default();

        // choose a batch size that keeps each sample ≳ 1 ms
        let batch = if per_iter < Duration::from_millis(1) {
            (Duration::from_millis(1).as_nanos() / per_iter.as_nanos().max(1)).max(1) as u32
        } else {
            1
        };

        let deadline = Instant::now() + self.measurement_time;
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / batch);
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    fn median(&self) -> Duration {
        let mut s = self.samples.clone();
        if s.is_empty() {
            return Duration::ZERO;
        }
        s.sort_unstable();
        s[s.len() / 2]
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    parent: &'a mut Criterion,
    throughput: Option<Throughput>,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Wall-clock budget for the timed samples.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Wall-clock budget for the warm-up pass.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
        };
        f(&mut bencher);
        let median = bencher.median();
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if median > Duration::ZERO => {
                format!("  ({:.3e} elem/s)", n as f64 / median.as_secs_f64())
            }
            Some(Throughput::Bytes(n)) if median > Duration::ZERO => {
                format!("  ({:.3e} B/s)", n as f64 / median.as_secs_f64())
            }
            _ => String::new(),
        };
        println!("{}/{id}: median {median:?}{rate}", self.name);
        let _ = &self.parent;
        self
    }

    /// Finish the group (no-op; provided for API compatibility).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("== {name} ==");
        BenchmarkGroup {
            name,
            parent: self,
            throughput: None,
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(200),
        }
    }

    /// Run a stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group(name.to_string());
        group.bench_function(BenchmarkId::from_parameter("default"), f);
        group.finish();
        self
    }
}

/// Declare a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate a `main` that runs benchmark groups.
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
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut ran = 0u32;
        {
            let mut g = c.benchmark_group("shim");
            g.sample_size(3)
                .measurement_time(Duration::from_millis(20))
                .warm_up_time(Duration::from_millis(1))
                .throughput(Throughput::Elements(10));
            g.bench_function(BenchmarkId::new("add", 1), |b| {
                b.iter(|| {
                    ran += 1;
                    black_box(2u64 + 2)
                })
            });
            g.finish();
        }
        assert!(ran > 0, "benchmark body never executed");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("a", 3).to_string(), "a/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
