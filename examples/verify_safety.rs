//! Reproduces the paper's **Table 2**: language-inclusion safety checks of
//! sequential, 2PL, DSTM, TL2 and modified TL2 + polite, against both the
//! strict-serializability and opacity specifications, with state counts,
//! timings and counterexamples.
//!
//! ```bash
//! cargo run --release --example verify_safety
//! ```

use tm_modelcheck::algorithms::{
    DstmTm, PoliteCm, SequentialTm, Tl2Tm, TwoPhaseTm, ValidationStyle,
    WithContentionManager,
};
use tm_modelcheck::algorithms::TmAlgorithm;
use tm_modelcheck::checker::{safety_table, Verdict, Verifier};
use tm_modelcheck::lang::SafetyProperty;
use tm_modelcheck::spec::DetSpec;

/// One table row: the TM's name, the property, and the session's verdict.
fn check<A: TmAlgorithm>(
    verifier: &mut Verifier,
    tm: &A,
    property: SafetyProperty,
) -> (String, SafetyProperty, Verdict) {
    (tm.name(), property, verifier.check_safety(tm, property))
}

fn check_all(
    verifier: &mut Verifier,
    property: SafetyProperty,
) -> Vec<(String, SafetyProperty, Verdict)> {
    let modified = WithContentionManager::new(
        Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock),
        PoliteCm,
    );
    let safe_split = Tl2Tm::with_validation(2, 2, ValidationStyle::ChkLockThenRValidate);
    vec![
        check(verifier, &SequentialTm::new(2, 2), property),
        check(verifier, &TwoPhaseTm::new(2, 2), property),
        check(verifier, &DstmTm::new(2, 2), property),
        check(verifier, &Tl2Tm::new(2, 2), property),
        check(verifier, &safe_split, property),
        check(verifier, &modified, property),
    ]
}

fn main() {
    // The session steps each specification lazily and reports only the
    // normal-form keys the product touched; the paper's full size comes
    // from determinizing the specification outright.
    let mut verifier = Verifier::new(2, 2);
    for property in SafetyProperty::all() {
        let rows = check_all(&mut verifier, property);
        let title = format!(
            "Table 2 — L(A) ⊆ L(Σᵈ_{}), most general program (2 threads, 2 variables)",
            property.short_name()
        );
        println!("{}", safety_table(&title, &rows));
        let (spec, _) = DetSpec::new(property, 2, 2).to_dfa(20_000_000);
        println!(
            "spec Σᵈ_{}: {} states (paper: {}); the product touched {} keys\n",
            property.short_name(),
            spec.num_states(),
            match property {
                SafetyProperty::StrictSerializability => "3520",
                SafetyProperty::Opacity => "2272",
            },
            rows.last().expect("six rows").2.stats.spec_states,
        );
    }
    println!(
        "Paper verdict pattern: seq/2PL/DSTM/TL2 → Y for both properties;\n\
         modified TL2 (split validation, unsafe order) + polite → N with\n\
         counterexample w1 = (w,2)1 (w,1)2 (r,2)2 (r,1)1 c2 c1."
    );
}
