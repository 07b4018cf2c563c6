//! Release-mode liveness scaling smoke for CI: runs the compiled liveness
//! engine on every TM × contention-manager combination at (3, 1) and
//! (2, 2) — instance sizes beyond the paper's (2, 1) Table 3 — and
//! cross-checks every counterexample against the word-level property
//! oracle. A regression on the engine (hang, state-space blowup, bogus
//! lasso) fails or times this run out instead of wedging the test job.
//!
//! ```bash
//! cargo run --release -p tm-bench --example liveness_smoke
//! ```

use std::time::Instant;

use tm_bench::{liveness_property_tag, liveness_roster};
use tm_lang::LivenessProperty;

fn main() {
    println!("liveness scaling smoke");
    let start = Instant::now();
    let mut checks = 0usize;
    for (n, k) in [(3usize, 1usize), (2, 2)] {
        for case in liveness_roster(n, k) {
            for property in LivenessProperty::all() {
                let verdict = case.check(property);
                let holds = verdict.holds();
                if let Some(lasso) = verdict.counterexample() {
                    // Every violation must be a genuine one: its
                    // word-level projection fails the property.
                    let word = lasso
                        .to_word_lasso()
                        .expect("TM loops always emit statements");
                    assert!(
                        !property.holds(&word),
                        "{} ({n},{k}) {property}: lasso {word} satisfies the property",
                        case.name
                    );
                }
                if property == LivenessProperty::WaitFreedom {
                    // A thread may always read forever without
                    // committing: no TM is wait free.
                    assert!(!holds, "{} ({n},{k}) claims wait freedom", case.name);
                }
                println!(
                    "  {:22} ({n},{k}) {:2}: {} [{} states, {:.2?}]",
                    case.name,
                    liveness_property_tag(property),
                    if holds { "Y" } else { "N" },
                    verdict.tm_states,
                    verdict.total_time
                );
                checks += 1;
            }
        }
    }
    println!("{checks} checks passed in {:.2?}", start.elapsed());
}
