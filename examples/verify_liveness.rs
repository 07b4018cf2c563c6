//! Reproduces the paper's **Table 3**: liveness model checking of the TM
//! algorithms (with their contention managers) on the most general program
//! with two threads and one variable.
//!
//! ```bash
//! cargo run --release --example verify_liveness
//! ```

use tm_modelcheck::algorithms::{
    AggressiveCm, DstmTm, KarmaCm, PoliteCm, SequentialTm, Tl2Tm, TwoPhaseTm,
    WithContentionManager,
};
use tm_modelcheck::algorithms::TmAlgorithm;
use tm_modelcheck::checker::{liveness_table, LivenessVerdict, Verifier};
use tm_modelcheck::lang::LivenessProperty;

fn check<A: TmAlgorithm>(verifier: &mut Verifier, tm: &A, p: LivenessProperty) -> LivenessVerdict {
    verifier
        .check_liveness(tm, p)
        .into_liveness()
        .expect("liveness query")
}

fn main() {
    // One session: each TM's run graph is compiled once and answers all
    // three properties.
    let mut verifier = Verifier::new(2, 1);
    let mut verdicts: Vec<LivenessVerdict> = Vec::new();
    let properties = [
        LivenessProperty::ObstructionFreedom,
        LivenessProperty::LivelockFreedom,
        LivenessProperty::WaitFreedom,
    ];

    for p in properties {
        verdicts.push(check(&mut verifier, &SequentialTm::new(2, 1), p));
        verdicts.push(check(&mut verifier, &TwoPhaseTm::new(2, 1), p));
        verdicts.push(check(
            &mut verifier,
            &WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm),
            p,
        ));
        verdicts.push(check(
            &mut verifier,
            &WithContentionManager::new(Tl2Tm::new(2, 1), PoliteCm),
            p,
        ));
        // Extension beyond the paper: a finite Karma manager.
        verdicts.push(check(
            &mut verifier,
            &WithContentionManager::new(DstmTm::new(2, 1), KarmaCm::new(2, 2)),
            p,
        ));
    }

    println!(
        "{}",
        liveness_table(
            "Table 3 — liveness model checking (2 threads, 1 variable)",
            &verdicts
        )
    );
    println!(
        "Paper verdict pattern (OF/LF): seq N/N, 2PL N/N, dstm+aggressive Y/N,\n\
         TL2+polite N/N; wait freedom fails everywhere (it implies livelock\n\
         freedom). The dstm+karma row is an extension beyond the paper."
    );
}
