//! Quickstart: verify a transactional memory in a few lines.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use tm_modelcheck::algorithms::{
    AggressiveCm, DstmTm, PoliteCm, Tl2Tm, ValidationStyle, WithContentionManager,
};
use tm_modelcheck::checker::Verifier;
use tm_modelcheck::lang::{LivenessProperty, SafetyProperty};

fn main() {
    // --- Safety -----------------------------------------------------------
    // Is DSTM opaque? One session per instance size: two threads and two
    // variables suffice by the paper's reduction theorem. The query runs
    // DSTM on the most general program against the deterministic opacity
    // specification and checks language inclusion.
    let mut safety = Verifier::new(2, 2);
    let verdict = safety
        .check_safety(&DstmTm::new(2, 2), SafetyProperty::Opacity)
        .into_safety()
        .expect("safety query");
    println!(
        "DSTM opacity: {} ({} TM states, {} spec keys, checked in {:.2?})",
        if verdict.holds() { "VERIFIED" } else { "VIOLATED" },
        verdict.tm_states,
        verdict.spec_states,
        verdict.check_time,
    );

    // A broken TM yields a counterexample word. The paper's "modified
    // TL2" splits commit-time validation into two non-atomic steps in the
    // unsafe order:
    let modified = Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock);
    let verdict = safety
        .check_safety(&modified, SafetyProperty::StrictSerializability)
        .into_safety()
        .expect("safety query");
    println!(
        "modified TL2 strict serializability: {} — counterexample: {}",
        if verdict.holds() { "VERIFIED" } else { "VIOLATED" },
        verdict
            .counterexample()
            .map(|w| w.to_string())
            .unwrap_or_default(),
    );

    // --- Liveness ---------------------------------------------------------
    // Liveness depends on the contention manager: DSTM with the aggressive
    // manager never self-aborts, so a transaction running alone commits.
    // Liveness is checked at two threads and one variable; the session
    // compiles each TM's run graph once for all three properties.
    let mut liveness = Verifier::new(2, 1);
    let dstm_aggr = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
    let of = liveness.check_liveness(&dstm_aggr, LivenessProperty::ObstructionFreedom);
    println!("DSTM+aggressive obstruction freedom: {}", yn(of.holds()));

    // ... but two aggressive writers can abort each other forever:
    let lf = liveness
        .check_liveness(&dstm_aggr, LivenessProperty::LivelockFreedom)
        .into_liveness()
        .expect("liveness query");
    println!(
        "DSTM+aggressive livelock freedom: {} — loop: {}",
        yn(lf.holds()),
        lf.counterexample()
            .map(|l| l.cycle_notation())
            .unwrap_or_default(),
    );

    // TL2 with the polite manager aborts at every conflict; a blocked
    // thread can then starve even in isolation:
    let tl2_pol = WithContentionManager::new(Tl2Tm::new(2, 1), PoliteCm);
    let of = liveness
        .check_liveness(&tl2_pol, LivenessProperty::ObstructionFreedom)
        .into_liveness()
        .expect("liveness query");
    println!(
        "TL2+polite obstruction freedom: {} — loop: {}",
        yn(of.holds()),
        of.counterexample()
            .map(|l| l.cycle_notation())
            .unwrap_or_default(),
    );
}

fn yn(b: bool) -> &'static str {
    if b {
        "VERIFIED"
    } else {
        "VIOLATED"
    }
}
