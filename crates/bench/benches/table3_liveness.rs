//! **Table 3** bench: time to model check obstruction freedom and
//! livelock freedom for each TM algorithm (with its contention manager)
//! on the most general program with two threads and one variable.
//!
//! The paper reports 0.1–2 s per row on a 2.66 GHz desktop PC.

use criterion::{criterion_group, criterion_main, Criterion};

use tm_algorithms::{
    AggressiveCm, DstmTm, PoliteCm, SequentialTm, Tl2Tm, TmAlgorithm, TwoPhaseTm,
    WithContentionManager,
};
use tm_bench::oracle::check_liveness_reference;
use tm_checker::{Verdict, Verifier};
use tm_lang::LivenessProperty;

/// One liveness query through a fresh session, so every iteration pays
/// the run-graph build.
fn check_liveness<A: TmAlgorithm>(tm: &A, property: LivenessProperty) -> Verdict {
    Verifier::new(tm.threads(), tm.vars()).check_liveness(tm, property)
}

fn bench_liveness(c: &mut Criterion) {
    for property in [
        LivenessProperty::ObstructionFreedom,
        LivenessProperty::LivelockFreedom,
        LivenessProperty::WaitFreedom,
    ] {
        let tag = match property {
            LivenessProperty::ObstructionFreedom => "of",
            LivenessProperty::LivelockFreedom => "lf",
            LivenessProperty::WaitFreedom => "wf",
        };
        let mut group = c.benchmark_group(format!("table3/{tag}"));
        group.sample_size(10);
        group.bench_function("seq", |b| {
            b.iter(|| check_liveness(&SequentialTm::new(2, 1), property))
        });
        group.bench_function("2PL", |b| {
            b.iter(|| check_liveness(&TwoPhaseTm::new(2, 1), property))
        });
        group.bench_function("dstm+aggressive", |b| {
            let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
            b.iter(|| check_liveness(&tm, property))
        });
        group.bench_function("TL2+polite", |b| {
            let tm = WithContentionManager::new(Tl2Tm::new(2, 1), PoliteCm);
            b.iter(|| check_liveness(&tm, property))
        });
        group.finish();
    }
}

/// A/B: the compiled engine (masked CSR passes) against the seed
/// reference (cloned filtered subgraphs) on the heaviest Table 3 rows.
fn bench_engine_vs_reference(c: &mut Criterion) {
    let two_phase = TwoPhaseTm::new(2, 1);
    let tl2 = WithContentionManager::new(Tl2Tm::new(2, 1), PoliteCm);
    let mut group = c.benchmark_group("table3/engine-vs-reference");
    group.sample_size(10);
    group.bench_function("engine/2PL/lf", |b| {
        b.iter(|| check_liveness(&two_phase, LivenessProperty::LivelockFreedom))
    });
    group.bench_function("reference/2PL/lf", |b| {
        b.iter(|| check_liveness_reference(&two_phase, LivenessProperty::LivelockFreedom))
    });
    group.bench_function("engine/TL2+polite/lf", |b| {
        b.iter(|| check_liveness(&tl2, LivenessProperty::LivelockFreedom))
    });
    group.bench_function("reference/TL2+polite/lf", |b| {
        b.iter(|| check_liveness_reference(&tl2, LivenessProperty::LivelockFreedom))
    });
    group.finish();
}

criterion_group!(benches, bench_liveness, bench_engine_vs_reference);
criterion_main!(benches);
