//! **Theorem 3 / §5.3** bench: antichain language-equivalence of the
//! nondeterministic and deterministic specifications for two threads and
//! two variables (the paper's external antichain tool proved both
//! equivalences within 5 seconds), compared against brute-force subset
//! determinization + minimization — all from the validation toolkit,
//! `tm_bench::validation`.

use criterion::{criterion_group, criterion_main, Criterion};

use tm_bench::validation::{
    check_equivalence_antichain, check_inclusion_antichain, determinize, minimize, NondetSpec,
};
use tm_lang::SafetyProperty;
use tm_spec::{spec_alphabet, DetSpec};

const MAX: usize = 10_000_000;

fn bench_equivalence(c: &mut Criterion) {
    for property in SafetyProperty::all() {
        let nondet = NondetSpec::new(property, 2, 2).to_nfa(MAX);
        let det = DetSpec::new(property, 2, 2).to_dfa(MAX).0.to_nfa();
        let mut group =
            c.benchmark_group(format!("theorem3/{}", property.short_name()));
        group.sample_size(10);
        group.bench_function("antichain-equivalence", |b| {
            b.iter(|| check_equivalence_antichain(&nondet.nfa, &det))
        });
        group.bench_function("antichain-forward-only", |b| {
            b.iter(|| check_inclusion_antichain(&nondet.nfa, &det))
        });
        group.bench_function("subset-determinize+minimize", |b| {
            b.iter(|| minimize(&determinize(&nondet.nfa, spec_alphabet(2, 2))))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_equivalence);
criterion_main!(benches);
