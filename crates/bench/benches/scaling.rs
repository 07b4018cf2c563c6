//! Scaling bench (extension beyond the paper's tables): how specification
//! and TM state spaces — and the inclusion check — grow with the instance
//! size `(n, k)`, underlining why the reduction theorem matters.
//!
//! The `scaling/compiled-vs-seed` group is the A/B evidence for the
//! interned-alphabet refactor: the seed (label-hashing)
//! `tm_bench::oracle::check_inclusion_reference` (`seed`) against the
//! index-based `check_inclusion` (`compiled`), on the same automata.
//!
//! Automaton construction dominates this bench's setup, so each sized
//! case checks the command-line filter *before* building its automata;
//! e.g. `cargo bench --bench scaling -- compiled-vs-seed` builds nothing
//! else (add `/2x2` to one of its bench ids, such as
//! `compiled-vs-seed/seed/2x2`, to narrow further).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tm_algorithms::{most_general_nfa, DstmTm, MostGeneralSource, TwoPhaseTm};
use tm_automata::{check_inclusion, check_inclusion_otf, Alphabet, QueryBudget, SpecCache};
use tm_bench::oracle::check_inclusion_reference;
use tm_lang::SafetyProperty;
use tm_spec::{spec_alphabet, DetSpec, NondetSpec};

const MAX: usize = 20_000_000;

const SIZES: [(usize, usize); 5] = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)];

/// Instance sizes of the on-the-fly group. Determinizing the (3, 3) and
/// (4, 2) specifications up front does not terminate in reasonable time;
/// the lazy specification reaches them (the `otf-lazy/3x3` /
/// `otf-lazy/4x2` filters are what CI's release smoke runs behind a
/// timeout).
const OTF_SIZES: [(usize, usize); 4] = [(2, 2), (3, 2), (3, 3), (4, 2)];

fn bench_compiled_vs_seed(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/compiled-vs-seed");
    group.sample_size(10);
    for (n, k) in [(2, 2), (2, 3)] {
        let tag = format!("{n}x{k}");
        // Build this size's automata only if at least one of its two
        // bench ids survives the filter.
        if !["seed", "compiled"]
            .iter()
            .any(|kind| group.is_selected(&format!("{kind}/{tag}")))
        {
            continue;
        }
        let spec = DetSpec::new(SafetyProperty::Opacity, n, k).to_dfa(MAX).0;
        let tm = most_general_nfa(&DstmTm::new(n, k), MAX).nfa;
        group.bench_with_input(BenchmarkId::new("seed", &tag), &tm, |b, tm| {
            b.iter(|| check_inclusion_reference(tm, &spec))
        });
        group.bench_with_input(BenchmarkId::new("compiled", &tag), &tm, |b, tm| {
            b.iter(|| check_inclusion(tm, &spec))
        });
    }
    group.finish();
}

fn bench_spec_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/spec-construction");
    group.sample_size(10);
    for (n, k) in SIZES {
        let tag = format!("{n}x{k}");
        if group.is_selected(&format!("det-op/{tag}")) {
            group.bench_with_input(BenchmarkId::new("det-op", &tag), &(n, k), |b, &(n, k)| {
                b.iter(|| DetSpec::new(SafetyProperty::Opacity, n, k).to_dfa(MAX))
            });
        }
        if group.is_selected(&format!("nondet-op/{tag}")) {
            group.bench_with_input(BenchmarkId::new("nondet-op", &tag), &(n, k), |b, &(n, k)| {
                b.iter(|| NondetSpec::new(SafetyProperty::Opacity, n, k).to_nfa(MAX))
            });
        }
    }
    group.finish();
}

fn bench_inclusion_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/inclusion-dstm-op");
    group.sample_size(10);
    for (n, k) in SIZES {
        let tag = format!("{n}x{k}");
        if !group.is_selected(&tag) {
            continue;
        }
        let spec = DetSpec::new(SafetyProperty::Opacity, n, k).to_dfa(MAX).0;
        let tm = most_general_nfa(&DstmTm::new(n, k), MAX).nfa;
        group.bench_with_input(BenchmarkId::from_parameter(&tag), &(n, k), |b, _| {
            b.iter(|| check_inclusion(&tm, &spec))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scaling/inclusion-2pl-ss");
    group.sample_size(10);
    for (n, k) in SIZES {
        let tag = format!("{n}x{k}");
        if !group.is_selected(&tag) {
            continue;
        }
        let spec = DetSpec::new(SafetyProperty::StrictSerializability, n, k)
            .to_dfa(MAX)
            .0;
        let tm = most_general_nfa(&TwoPhaseTm::new(n, k), MAX).nfa;
        group.bench_with_input(BenchmarkId::from_parameter(&tag), &(n, k), |b, _| {
            b.iter(|| check_inclusion(&tm, &spec))
        });
    }
    group.finish();
}

/// The on-the-fly product engine on the TM steppers themselves: no NFA is
/// built, the TM is stepped lazily against the lazy specification
/// (`otf-lazy`, a fresh spec cache per iteration). This is the group that
/// scales past (3, 2).
fn bench_otf_product(c: &mut Criterion) {
    let unlimited = QueryBudget::unlimited();
    let mut group = c.benchmark_group("scaling/otf-product");
    group.sample_size(10);
    for (n, k) in OTF_SIZES {
        let tag = format!("{n}x{k}");
        if !group.is_selected(&format!("otf-lazy/{tag}")) {
            continue;
        }
        let det = DetSpec::new(SafetyProperty::StrictSerializability, n, k);
        let letters = spec_alphabet(n, k);
        let tm = TwoPhaseTm::new(n, k);
        let source = MostGeneralSource::new(&tm, Alphabet::from_letters(&letters));
        group.bench_with_input(BenchmarkId::new("otf-lazy", &tag), &(n, k), |b, _| {
            b.iter(|| {
                check_inclusion_otf(&source, &mut SpecCache::new(&det, letters.clone()), &unlimited)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compiled_vs_seed,
    bench_spec_construction,
    bench_inclusion_scaling,
    bench_otf_product
);
criterion_main!(benches);
