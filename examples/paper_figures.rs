//! Walks through the paper's illustrative examples: the words of
//! **Figures 1 and 2** (strict serializability and opacity analyses), the
//! commit-blocking conditions **C1–C4 of Figure 3**, and the **Theorem 3**
//! equivalence of the nondeterministic and deterministic specifications.
//!
//! ```bash
//! cargo run --release --example paper_figures
//! ```

use tm_bench::validation::{check_equivalence_antichain, NondetSpec};
use tm_modelcheck::lang::{
    is_opaque, is_strictly_serializable, SafetyProperty, Word,
};
use tm_modelcheck::spec::DetSpec;

fn analyze(label: &str, text: &str) {
    let w: Word = text.parse().expect("valid word syntax");
    println!("{label}: {w}");
    println!(
        "  strictly serializable: {}   opaque: {}",
        is_strictly_serializable(&w),
        is_opaque(&w),
    );
}

fn main() {
    println!("--- Figure 1: strict serializability ---");
    // (a) x = t1 reads v1, writes v2; y = t2 writes v1; z = t3 reads v2, v1.
    analyze("Fig. 1(a)", "(w,1)2 (r,1)1 (r,2)3 c2 (w,2)1 (r,1)3 c1 c3");
    analyze("Fig. 1(a) without z's commit", "(w,1)2 (r,1)1 (r,2)3 c2 (w,2)1 (r,1)3 c1");
    // (b) three threads, three variables.
    analyze("Fig. 1(b)", "(w,1)2 (r,2)2 (r,3)3 (r,1)1 c2 (w,2)3 (w,3)1 c1 c3");

    println!("\n--- Figure 2: opacity ---");
    // (a) unfinished z reads an inconsistent snapshot: SS but not opaque.
    analyze("Fig. 2(a)", "(w,1)2 (r,1)1 (r,2)3 c2 (w,2)1 (r,1)3 c1");
    // (b) an aborted reader forbids x's later commit.
    analyze("Fig. 2(b)", "(w,1)2 (r,1)1 c2 (r,2)3 a3 (w,2)1 c1");

    println!("\n--- Figure 3: conditions C1-C4 (commits the spec disallows) ---");
    let spec = NondetSpec::new(SafetyProperty::StrictSerializability, 2, 2);
    let nfa = spec.to_nfa(1_000_000).nfa;
    let conditions = [
        // C1: x serializes before y; y commits a write of v2; x then reads
        // v2 — observing a value from its own future.
        ("C1", "(r,1)1 (w,1)2 (w,2)2 c2 (r,2)1 c1"),
        // C2: x serializes before y, x writes v2, y reads v2 before x's
        // commit (pre-x value) — yet both commit.
        ("C2", "(r,1)1 (w,2)1 (w,1)2 (r,2)2 c2 c1"),
        // C3: x before y, both write v2, y commits first.
        ("C3", "(r,1)1 (w,2)1 (w,1)2 (w,2)2 c2 c1"),
        // C4: mutual read-before-commit — the w1 cycle of Table 2.
        ("C4", "(w,2)1 (w,1)2 (r,2)2 (r,1)1 c2 c1"),
    ];
    for (name, text) in conditions {
        let w: Word = text.parse().expect("valid word");
        println!(
            "{name}: {w}  →  in L(Σ_ss): {}   (oracle: {})",
            nfa.accepts(w.statements()),
            is_strictly_serializable(&w),
        );
    }

    println!("\n--- Theorem 3: L(Σ) = L(Σᵈ) via antichains ---");
    for property in SafetyProperty::all() {
        let nondet = NondetSpec::new(property, 2, 2).to_nfa(1_000_000);
        let (det, _) = DetSpec::new(property, 2, 2).to_dfa(1_000_000);
        let result = check_equivalence_antichain(&nondet.nfa, &det.to_nfa());
        println!(
            "{property}: nondet {} states, det {} states, equivalent: {}",
            nondet.num_states(),
            det.num_states(),
            result.holds(),
        );
    }
}
