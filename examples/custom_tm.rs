//! Using the checker as a TM **designer's tool** (§1: "we expect our
//! verification tool to be useful to TM designers"): implement a new TM
//! algorithm against the [`TmAlgorithm`] trait and model check it.
//!
//! The example TM is an *optimistic* design that buffers writes and locks
//! nothing — transactions validate nothing at commit. The checker finds
//! the expected opacity (and strict-serializability) violation, and the
//! structural-property harness confirms the design is at least within the
//! scope of the reduction theorem.
//!
//! ```bash
//! cargo run --release --example custom_tm
//! ```

use tm_modelcheck::algorithms::{Step, TmAlgorithm, TmState, MAX_THREADS};
use tm_modelcheck::checker::{check_all_structural, Verifier};
use tm_modelcheck::lang::{Command, SafetyProperty, ThreadId, VarSet};

/// State of the naive optimistic TM: read/write sets per thread (only so
/// that commits are observable events; nothing is ever validated).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
struct NaiveState {
    rs: [VarSet; MAX_THREADS],
    ws: [VarSet; MAX_THREADS],
    pending: [Option<Command>; MAX_THREADS],
}

impl TmState for NaiveState {
    fn pending(&self, t: ThreadId) -> Option<Command> {
        self.pending[t.index()]
    }
    fn set_pending(&mut self, t: ThreadId, c: Option<Command>) {
        self.pending[t.index()] = c;
    }
}

/// A TM that never aborts anybody and never validates: reads and writes
/// always succeed, commits always succeed. Fast — and wrong.
#[derive(Clone, Copy, Debug)]
struct NaiveOptimisticTm {
    threads: usize,
    vars: usize,
}

impl TmAlgorithm for NaiveOptimisticTm {
    type State = NaiveState;

    fn name(&self) -> String {
        "naive-optimistic".to_owned()
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn vars(&self) -> usize {
        self.vars
    }
    fn initial_state(&self) -> NaiveState {
        NaiveState::default()
    }
    fn is_conflict(&self, _q: &NaiveState, _c: Command, _t: ThreadId) -> bool {
        false
    }

    /// Appends the one proper step of each command. The contract of
    /// [`TmAlgorithm::proper_steps`]: append only (never clear or reorder
    /// `out` — the framework may already hold other steps there), and do
    /// not allocate — this runs once per (state, thread, command) of the
    /// whole exploration, so build the successor on the stack and push it.
    fn proper_steps(
        &self,
        q: &NaiveState,
        c: Command,
        t: ThreadId,
        out: &mut Vec<Step<NaiveState>>,
    ) {
        let mut next = *q;
        let ti = t.index();
        match c {
            Command::Read(v) => {
                next.rs[ti].insert(v);
            }
            Command::Write(v) => {
                next.ws[ti].insert(v);
            }
            Command::Commit => {
                next.rs[ti].clear();
                next.ws[ti].clear();
            }
        }
        out.push(Step::complete(c, next));
    }

    fn abort_state(&self, q: &NaiveState, t: ThreadId) -> NaiveState {
        let mut next = *q;
        next.rs[t.index()].clear();
        next.ws[t.index()].clear();
        next
    }
}

fn main() {
    let tm = NaiveOptimisticTm { threads: 2, vars: 2 };

    // Step 1 (paper §8): check the structural properties, so the (2,2)
    // verdict generalizes.
    println!("structural properties of {}:", tm.name());
    for report in check_all_structural(&tm, 5) {
        println!(
            "  {}: {} ({} pairs checked)",
            report.property,
            if report.holds() { "ok" } else { "VIOLATED" },
            report.pairs_checked,
        );
    }

    // Step 2: model check both safety properties.
    let mut verifier = Verifier::new(2, 2);
    for property in SafetyProperty::all() {
        let verdict = verifier.check_safety(&tm, property);
        match verdict.counterexample() {
            None => println!("{property}: verified"),
            Some(w) => println!("{property}: VIOLATED — shortest counterexample: {w}"),
        }
    }

    // The fix would be commit-time validation — exactly what separates
    // this strawman from TL2. Compare:
    let tl2 = tm_modelcheck::algorithms::Tl2Tm::new(2, 2);
    let verdict = verifier.check_safety(&tl2, SafetyProperty::Opacity);
    println!("TL2 (with validation): opacity {}", if verdict.holds() { "verified" } else { "violated" });
}
