//! **Table 2** bench: time for the language-inclusion safety checks
//! `L(A) ⊆ L(Σᵈ_ss)` and `L(A) ⊆ L(Σᵈ_op)` for each TM algorithm on the
//! most general program with two threads and two variables, as the
//! `Verifier` session answers them: one (2, 2) session per property,
//! whose specification artifact an untimed pass over the roster has
//! already interned, so each iteration is one warm query.
//!
//! The paper reports: seq 0.01 s, 2PL 0.01 s, DSTM 0.16/0.13 s,
//! TL2 3.2/2.4 s, modified TL2+polite 9/8 s (counterexample search) on a
//! 2.8 GHz dual-core PC. Shapes (ordering, rough ratios) are the
//! reproduction target.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tm_algorithms::{most_general_nfa, Tl2Tm};
use tm_automata::Dfa;
use tm_bench::table2_cases;
use tm_checker::Verifier;
use tm_lang::{SafetyProperty, Statement};
use tm_spec::DetSpec;

const MAX: usize = 10_000_000;

fn spec_for(property: SafetyProperty) -> Dfa<Statement> {
    DetSpec::new(property, 2, 2).to_dfa(MAX).0
}

fn bench_inclusion(c: &mut Criterion) {
    let cases = table2_cases();
    for property in SafetyProperty::all() {
        let mut verifier = Verifier::new(2, 2).max_states(MAX);
        for case in &cases {
            case.check_session(&mut verifier, property);
        }
        let mut group = c.benchmark_group(format!("table2/{}", property.short_name()));
        group.sample_size(10);
        for case in &cases {
            group.bench_with_input(BenchmarkId::from_parameter(&case.name), case, |b, case| {
                b.iter(|| case.check_session(&mut verifier, property))
            });
        }
        group.finish();
    }
}

fn bench_automaton_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/construction");
    group.sample_size(10);
    group.bench_function("spec-ss", |b| {
        b.iter(|| spec_for(SafetyProperty::StrictSerializability))
    });
    group.bench_function("spec-op", |b| b.iter(|| spec_for(SafetyProperty::Opacity)));
    group.bench_function("tm-TL2", |b| {
        b.iter(|| most_general_nfa(&Tl2Tm::new(2, 2), MAX))
    });
    group.finish();
}

criterion_group!(benches, bench_inclusion, bench_automaton_construction);
criterion_main!(benches);
