//! Integration tests pinning Table 1 (runs and words) and the
//! illustrative examples of Figures 1–3.

use tm_modelcheck::algorithms::{
    execute_schedule, DstmTm, SequentialTm, Tl2Tm, TwoPhaseTm,
};
use tm_modelcheck::lang::{
    is_opaque, is_strictly_serializable, Command, SafetyProperty, VarId, Word,
};
use tm_bench::validation::NondetSpec;

fn read(v: usize) -> Command {
    Command::Read(VarId::new(v))
}
fn write(v: usize) -> Command {
    Command::Write(VarId::new(v))
}
const COMMIT: Command = Command::Commit;

/// Table 1, rows "seq": scheduler output 11122 / 112122.
#[test]
fn table1_sequential_rows() {
    let tm = SequentialTm::new(2, 2);
    let t1 = [read(0), write(1), COMMIT];
    let t2 = [write(0), COMMIT];
    let run = execute_schedule(&tm, &[&t1, &t2], &[0, 0, 0, 1, 1]).unwrap();
    assert_eq!(run.word().to_string(), "(r,1)1 (w,2)1 c1 (w,1)2 c2");

    let t2 = [write(0), write(0), COMMIT];
    let run = execute_schedule(&tm, &[&t1, &t2], &[0, 0, 1, 0, 1, 1]).unwrap();
    assert_eq!(run.word().to_string(), "(r,1)1 (w,2)1 a2 c1 (w,1)2 c2");
}

/// Table 1, rows "2PL": the run shows lock acquisitions as internal
/// steps; the word hides them.
#[test]
fn table1_two_phase_rows() {
    let tm = TwoPhaseTm::new(2, 2);
    let t1 = [read(0), write(1), COMMIT];
    let run = execute_schedule(&tm, &[&t1, &[write(1)]], &[0, 0, 0, 0, 0, 1]).unwrap();
    assert_eq!(
        run.to_notation(),
        "(rl,1)1, (r,1)1, (wl,2)1, (w,2)1, c1, (wl,2)2"
    );
    assert_eq!(run.word().to_string(), "(r,1)1 (w,2)1 c1");

    // 1211112: t2's write of v1 is blocked by t1's read lock and aborts.
    let t2 = [write(0), write(1)];
    let run = execute_schedule(&tm, &[&t1, &t2], &[0, 1, 0, 0, 0, 0, 1]).unwrap();
    assert_eq!(run.word().to_string(), "a2 (r,1)1 (w,2)1 c1");
}

/// Table 1, rows "dstm": ownership stealing and validation.
#[test]
fn table1_dstm_rows() {
    let tm = DstmTm::new(2, 2);
    let t1 = [read(0), write(1), COMMIT];
    let t2 = [write(0), COMMIT];

    // 12211112: t1 reads v1, t2 owns+writes v1, t1 owns v2, writes,
    // validates (killing t2) and commits; t2 reports its abort.
    let run = execute_schedule(&tm, &[&t1, &t2], &[0, 1, 1, 0, 0, 0, 0, 1]).unwrap();
    assert_eq!(
        run.to_notation(),
        "(r,1)1, (o,1)2, (w,1)2, (o,2)1, (w,2)1, v1, c1, a2"
    );
    assert_eq!(run.word().to_string(), "(r,1)1 (w,1)2 (w,2)1 c1 a2");

    // 12222111: t2 commits first, invalidating t1's read; t1 aborts.
    let run = execute_schedule(&tm, &[&t1, &t2], &[0, 1, 1, 1, 1, 0, 0, 0]).unwrap();
    assert_eq!(run.word().to_string(), "(r,1)1 (w,1)2 c2 (w,2)1 a1");
}

/// Table 1, rows "TL2": commit-time locking and validation.
#[test]
fn table1_tl2_rows() {
    let tm = Tl2Tm::new(2, 2);
    let t1 = [read(0), write(1), COMMIT];
    let t2 = [write(0), COMMIT];

    // 112112212: both commit (disjoint write sets).
    let run = execute_schedule(&tm, &[&t1, &t2], &[0, 0, 1, 0, 0, 1, 1, 0, 1]).unwrap();
    assert_eq!(
        run.to_notation(),
        "(r,1)1, (w,2)1, (w,1)2, (l,2)1, v1, (l,1)2, v2, c1, c2"
    );
    assert_eq!(
        run.word().to_string(),
        "(r,1)1 (w,2)1 (w,1)2 c1 c2"
    );
}

/// Figure 1: both words fail strict serializability; dropping the third
/// commit restores it.
#[test]
fn figure1_strict_serializability_analysis() {
    let a: Word = "(w,1)2 (r,1)1 (r,2)3 c2 (w,2)1 (r,1)3 c1 c3".parse().unwrap();
    assert!(!is_strictly_serializable(&a));
    let a_prefix = a.prefix(a.len() - 1);
    assert!(is_strictly_serializable(&a_prefix));

    let b: Word = "(w,1)2 (r,2)2 (r,3)3 (r,1)1 c2 (w,2)3 (w,3)1 c1 c3".parse().unwrap();
    assert!(!is_strictly_serializable(&b));
}

/// Figure 2: opacity rejects words whose aborting/unfinished readers saw
/// inconsistent snapshots, although strict serializability accepts them.
#[test]
fn figure2_opacity_analysis() {
    let a: Word = "(w,1)2 (r,1)1 (r,2)3 c2 (w,2)1 (r,1)3 c1".parse().unwrap();
    assert!(is_strictly_serializable(&a) && !is_opaque(&a));

    let b: Word = "(w,1)2 (r,1)1 c2 (r,2)3 a3 (w,2)1 c1".parse().unwrap();
    assert!(is_strictly_serializable(&b) && !is_opaque(&b));
}

/// Figure 3, conditions C1–C4: words realizing each disallowed-commit
/// condition are rejected by the specification (2 threads suffice).
#[test]
fn figure3_commit_conditions() {
    let spec = NondetSpec::new(SafetyProperty::StrictSerializability, 2, 2);
    let nfa = spec.to_nfa(2_000_000).nfa;

    // C1: x serializes before y (its read of v1 precedes y's commit of
    // v1), y commits a write of v2, then x *reads* v2 — observing a value
    // from its own future. The commit of x must be disallowed.
    let c1: Word = "(r,1)1 (w,1)2 (w,2)2 c2 (r,2)1 c1".parse().unwrap();
    assert!(!is_strictly_serializable(&c1));
    assert!(!nfa.accepts(c1.statements()));

    // C2: x serializes before y, x *writes* v2, and y reads v2 before x
    // commits (so y saw the pre-x value) — yet both commit.
    let c2: Word = "(r,1)1 (w,2)1 (w,1)2 (r,2)2 c2 c1".parse().unwrap();
    assert!(!is_strictly_serializable(&c2));
    assert!(!nfa.accepts(c2.statements()));

    // C3: x serializes before y, both write v2, and y commits first — the
    // commit order contradicts the serialization order.
    let c3: Word = "(r,1)1 (w,2)1 (w,1)2 (w,2)2 c2 c1".parse().unwrap();
    assert!(!is_strictly_serializable(&c3));
    assert!(!nfa.accepts(c3.statements()));

    // C4: x reads v before y's commit of v and tries to commit after while
    // also conflicting the other way (the w1 cycle).
    let c4: Word = "(w,2)1 (w,1)2 (r,2)2 (r,1)1 c2 c1".parse().unwrap();
    assert!(!is_strictly_serializable(&c4));
    assert!(!nfa.accepts(c4.statements()));
}

/// Every Table 1 word is accepted by the corresponding safety
/// specifications (they are real TM histories).
#[test]
fn table1_words_are_opaque() {
    for text in [
        "(r,1)1 (w,2)1 c1 (w,1)2 c2",
        "(r,1)1 (w,2)1 a2 c1 (w,1)2 c2",
        "a2 (r,1)1 (w,2)1 c1",
        "(r,1)1 (w,1)2 (w,2)1 c1 a2",
        "(r,1)1 (w,1)2 c2 (w,2)1 a1",
        "(r,1)1 (w,2)1 (w,1)2 c1 c2",
        "(r,1)1 (w,2)1 (w,1)2 a1 c2",
    ] {
        let w: Word = text.parse().unwrap();
        assert!(is_opaque(&w), "{text}");
    }
}
