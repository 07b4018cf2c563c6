//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API subset the workspace's benches use — benchmark
//! groups, `bench_function` / `bench_with_input`, `Bencher::iter`,
//! `BenchmarkId`, and the `criterion_group!` / `criterion_main!` macros —
//! with honest wall-clock measurement (warm-up, then `sample_size`
//! samples; median, min and max are reported on stdout).
//!
//! Differences from real criterion, by design:
//!
//! * no plotting, no statistics beyond median/min/max, no saved baselines;
//! * positional command-line arguments are substring filters on the full
//!   `group/bench` id (same spirit as criterion's filter argument), and
//!   a filter that selected no benchmark that ran fails the run
//!   (`criterion_main!` exits non-zero naming it), so a filter naming a
//!   renamed or deleted bench id cannot pass by measuring nothing;
//! * the environment variable `TM_BENCH_QUICK=1` caps every bench at one
//!   warm-up iteration and three samples, so CI can smoke-run benches in
//!   seconds.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter, rendered `name/param`.
    pub fn new<N: fmt::Display, P: fmt::Display>(name: N, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{name}/{parameter}"),
        }
    }

    /// An id carrying only a parameter.
    pub fn from_parameter<P: fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// The timing harness handed to bench closures.
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `routine`, recording one duration per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.samples.capacity() {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            self.samples
                .push(start.elapsed() / self.iters_per_sample as u32);
        }
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    filters: Vec<String>,
    /// Per filter: whether it selected a benchmark that ran.
    matched: Vec<bool>,
    quick: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // Positional args that are not cargo-bench plumbing act as
        // substring filters, like criterion's own filter argument.
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Criterion::new(
            filters,
            std::env::var_os("TM_BENCH_QUICK").is_some_and(|v| v == "1"),
        )
    }
}

impl Criterion {
    fn new(filters: Vec<String>, quick: bool) -> Self {
        Criterion {
            matched: vec![false; filters.len()],
            filters,
            quick,
        }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group<N: Into<String>>(&mut self, name: N) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Runs a stand-alone benchmark (its own single-entry group).
    pub fn bench_function<I, F>(&mut self, id: I, f: F)
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut group = self.benchmark_group(id.id.clone());
        group.run(String::new(), f);
        group.finish();
    }

    fn matches(&self, full_id: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| full_id.contains(f.as_str()))
    }

    /// Records that the benchmark `full_id` ran, crediting every filter
    /// that selected it.
    fn ran(&mut self, full_id: &str) {
        for (filter, matched) in self.filters.iter().zip(&mut self.matched) {
            *matched |= full_id.contains(filter.as_str());
        }
    }

    /// The command-line filters that selected no benchmark that ran.
    fn unmatched_filters(&self) -> Vec<&str> {
        self.filters
            .iter()
            .zip(&self.matched)
            .filter(|(_, &matched)| !matched)
            .map(|(filter, _)| filter.as_str())
            .collect()
    }

    /// Ends the run (called by `criterion_main!`): exits with status 1,
    /// naming them, if some command-line filters selected no benchmark
    /// that ran.
    pub fn final_summary(&self) {
        let unmatched = self.unmatched_filters();
        if !unmatched.is_empty() {
            eprintln!("error: no benchmark matched the filter(s) {unmatched:?}");
            std::process::exit(1);
        }
    }
}

/// A group of benchmarks sharing a name prefix and sampling settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Registers and runs a benchmark.
    pub fn bench_function<I, F>(&mut self, id: I, f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        self.run(id.into().id, f);
        self
    }

    /// Registers and runs a benchmark taking a borrowed input.
    pub fn bench_with_input<I, Inp: ?Sized, F>(&mut self, id: I, input: &Inp, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher, &Inp),
    {
        self.run(id.into().id, |b| f(b, input));
        self
    }

    /// Whether a benchmark registered in this group as `id` would
    /// survive the command-line filters — the same check `run` applies.
    /// Benches whose *setup* is expensive query this before constructing
    /// inputs, so the skip logic cannot diverge from the harness's.
    ///
    /// (Extension over real criterion, which offers no setup-time filter
    /// query; guard any use with `#[cfg]` if this shim is ever swapped
    /// out.)
    pub fn is_selected(&self, id: &str) -> bool {
        self.criterion.matches(&format!("{}/{}", self.name, id))
    }

    /// Ends the group (formatting no-op; kept for API parity).
    pub fn finish(self) {}

    fn run<F: FnMut(&mut Bencher)>(&mut self, id: String, mut f: F) {
        let full_id = if id.is_empty() {
            self.name.clone()
        } else {
            format!("{}/{}", self.name, id)
        };
        if !self.criterion.matches(&full_id) {
            return;
        }
        self.criterion.ran(&full_id);
        let samples = if self.criterion.quick {
            3
        } else {
            self.sample_size
        };
        // Warm-up: one untimed run (criterion warms by wall-clock; one
        // iteration is enough to populate caches for these workloads).
        let mut warmup = Bencher {
            samples: Vec::with_capacity(1),
            iters_per_sample: 1,
        };
        f(&mut warmup);
        let mut bencher = Bencher {
            samples: Vec::with_capacity(samples),
            iters_per_sample: 1,
        };
        f(&mut bencher);
        report(&full_id, &mut bencher.samples);
    }
}

fn report(id: &str, samples: &mut [Duration]) {
    if samples.is_empty() {
        println!("{id:<60} no samples recorded (closure never called iter)");
        return;
    }
    samples.sort();
    let median = samples[samples.len() / 2];
    let min = samples[0];
    let max = samples[samples.len() - 1];
    println!(
        "{id:<60} time: [{:>12?} {:>12?} {:>12?}]  ({} samples)",
        min,
        median,
        max,
        samples.len()
    );
}

/// Declares a function that runs a list of bench functions on a shared
/// driver.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(criterion: &mut $crate::Criterion) {
            $( $target(criterion); )+
        }
    };
}

/// Declares `main` running the given groups on one driver, then failing
/// the run if a command-line filter selected nothing
/// ([`Criterion::final_summary`]).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $( $group(&mut criterion); )+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion::new(Vec::new(), true);
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        let mut calls = 0u32;
        group.bench_function("count", |b| b.iter(|| calls += 1));
        group.finish();
        assert!(calls > 0);
    }

    #[test]
    fn filters_skip_nonmatching() {
        let mut c = Criterion::new(vec!["other".to_owned()], true);
        let mut ran = false;
        let mut group = c.benchmark_group("shim");
        group.bench_function("skipped", |b| b.iter(|| ran = true));
        group.finish();
        assert!(!ran);
    }

    #[test]
    fn is_selected_matches_run_semantics() {
        let mut c = Criterion::new(vec!["group/yes".to_owned()], true);
        let group = c.benchmark_group("group");
        assert!(group.is_selected("yes/2x2"));
        assert!(!group.is_selected("no/2x2"));
        group.finish();
        let mut unfiltered = Criterion::new(Vec::new(), true);
        assert!(unfiltered.benchmark_group("g").is_selected("anything"));
    }

    #[test]
    fn filters_that_ran_nothing_are_reported() {
        let filters = ["shim/ran", "shim/gone", "other/skipped"].map(str::to_owned);
        let mut c = Criterion::new(filters.to_vec(), true);
        let mut group = c.benchmark_group("shim");
        group.bench_function("ran/2x2", |b| b.iter(|| ()));
        // Asked about but never run: selects nothing.
        assert!(group.is_selected("gone/2x2"));
        group.finish();
        let mut other = c.benchmark_group("other");
        other.bench_function("kept", |b| b.iter(|| ()));
        other.finish();
        assert_eq!(c.unmatched_filters(), vec!["shim/gone", "other/skipped"]);
        assert!(Criterion::new(Vec::new(), true).unmatched_filters().is_empty());
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", "2x2").id, "f/2x2");
        assert_eq!(BenchmarkId::from_parameter(7).id, "7");
    }
}
