//! Conformance of the appending stepping API and of the packed state
//! hashes over every reachable state of the service roster's TMs
//! (sequential, 2PL, DSTM, TL2, modified TL2), bare and under the
//! aggressive and polite contention managers.

use std::collections::HashSet;

use tm_automata::CompiledRunGraph;
use tm_lang::{Command, ThreadId};

use crate::algorithm::{Action, Step, TmAlgorithm};
use crate::contention::{AggressiveCm, PoliteCm, WithContentionManager};
use crate::dstm::{DstmState, DstmTm};
use crate::explore::{check_pending_invariant, MostGeneralRunSource};
use crate::sequential::{SeqState, SequentialTm};
use crate::tl2::{Tl2State, Tl2Tm, ValidationStyle};
use crate::two_phase::{TwoPhaseState, TwoPhaseTm};

const MAX_STATES: usize = 1_000_000;

/// The reachable states of `tm`'s most general program, in discovery
/// order.
fn reachable<A: TmAlgorithm>(tm: &A) -> Vec<A::State> {
    CompiledRunGraph::build(&MostGeneralRunSource::new(tm), MAX_STATES)
        .expect("roster instances are small")
        .1
}

/// Checks the stepping contract at every reachable state of `tm`:
/// `steps_into` appends and leaves earlier entries alone, its output is
/// `steps()` element for element, and the pending rules hold.
fn check_stepping<A: TmAlgorithm>(tm: &A) -> usize {
    let states = reachable(tm);
    assert!(
        check_pending_invariant(tm, &states),
        "{}: pending rules",
        tm.name()
    );
    let mut buf: Vec<Step<A::State>> = Vec::new();
    for q in &states {
        let enabled: Vec<(ThreadId, Command)> = tm
            .thread_ids()
            .flat_map(|t| tm.enabled_commands(q, t).map(move |c| (t, c)))
            .collect();
        for &(t, c) in &enabled {
            // A sentinel prefix that `steps_into` must not disturb.
            let sentinel = Step {
                action: Action::Abort,
                next: q.clone(),
            };
            buf.clear();
            buf.push(sentinel.clone());
            buf.push(sentinel.clone());
            tm.steps_into(q, c, t, &mut buf);
            assert_eq!(
                &buf[..2],
                &[sentinel.clone(), sentinel],
                "{}: prefix",
                tm.name()
            );
            assert_eq!(
                buf[2..],
                tm.steps(q, c, t)[..],
                "{}: {c} by {t} at {q:?}",
                tm.name()
            );
        }
    }
    states.len()
}

/// Runs [`check_stepping`] on one TM bare and under both paper managers.
fn check_with_managers<A: TmAlgorithm + Copy>(tm: A) {
    let counts = [
        check_stepping(&tm),
        check_stepping(&WithContentionManager::new(tm, AggressiveCm)),
        check_stepping(&WithContentionManager::new(tm, PoliteCm)),
    ];
    assert!(counts.iter().all(|&n| n > 1), "{}: {counts:?}", tm.name());
}

#[test]
fn steps_into_appends_and_matches_steps_on_the_roster() {
    for (n, k) in [(2, 2), (3, 1)] {
        check_with_managers(SequentialTm::new(n, k));
        check_with_managers(TwoPhaseTm::new(n, k));
        check_with_managers(DstmTm::new(n, k));
        check_with_managers(Tl2Tm::new(n, k));
        check_with_managers(Tl2Tm::with_validation(
            n,
            k,
            ValidationStyle::RValidateThenChkLock,
        ));
    }
}

/// Asserts that distinct reachable states of `tm` pack to distinct
/// words: the packed hash never merges two states into one bucket chain
/// that the derived hash would have kept apart.
fn check_packing_injective<A, const N: usize>(tm: &A, packed: impl Fn(&A::State) -> [u64; N])
where
    A: TmAlgorithm,
{
    let states = reachable(tm);
    let words: HashSet<[u64; N]> = states.iter().map(packed).collect();
    assert_eq!(
        words.len(),
        states.len(),
        "{} packs two states alike",
        tm.name()
    );
}

#[test]
fn reachable_states_pack_to_distinct_words() {
    for (n, k) in [(2, 2), (3, 1)] {
        check_packing_injective(&SequentialTm::new(n, k), SeqState::packed);
        check_packing_injective(&TwoPhaseTm::new(n, k), TwoPhaseState::packed);
        check_packing_injective(&DstmTm::new(n, k), DstmState::packed);
        check_packing_injective(&Tl2Tm::new(n, k), Tl2State::packed);
        check_packing_injective(
            &Tl2Tm::with_validation(n, k, ValidationStyle::RValidateThenChkLock),
            Tl2State::packed,
        );
    }
    check_packing_injective(&DstmTm::new(3, 2), DstmState::packed);
}
