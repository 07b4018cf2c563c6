//! The query roster: every TM × contention-manager × property × instance
//! size the service can be asked about, as plain-data [`QuerySpec`]s that
//! parse from (and print to) the wire format's short codes.
//!
//! [`run_query`] is the single bridge from a spec to the session API: it
//! constructs the concrete TM type and dispatches to
//! [`Verifier::check_safety`] / [`Verifier::check_liveness`], so the
//! service layer above never touches concrete TM types.

use std::fmt;
use std::str::FromStr;

use tm_algorithms::{
    AggressiveCm, DstmTm, PoliteCm, SequentialTm, Tl2Tm, TmAlgorithm, TwoPhaseTm,
    ValidationStyle, WithContentionManager,
};
use tm_checker::{Verdict, Verifier};
use tm_lang::{LivenessProperty, SafetyProperty};

/// A TM algorithm of the paper's roster.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TmKind {
    /// The trivial sequential TM.
    Sequential,
    /// Two-phase locking.
    TwoPhase,
    /// DSTM.
    Dstm,
    /// TL2 (published validation order).
    Tl2,
    /// The "modified TL2" with the unsafe validation order
    /// ([`ValidationStyle::RValidateThenChkLock`]) — the paper's
    /// counterexample TM.
    ModifiedTl2,
}

impl TmKind {
    /// The roster, in the paper's Table 2 order.
    pub fn all() -> [TmKind; 5] {
        [
            TmKind::Sequential,
            TmKind::TwoPhase,
            TmKind::Dstm,
            TmKind::Tl2,
            TmKind::ModifiedTl2,
        ]
    }

    /// The wire code — equal to the bare TM's [`TmAlgorithm::name`].
    pub fn code(self) -> &'static str {
        match self {
            TmKind::Sequential => "sequential",
            TmKind::TwoPhase => "2PL",
            TmKind::Dstm => "dstm",
            TmKind::Tl2 => "TL2",
            TmKind::ModifiedTl2 => "modified-TL2",
        }
    }
}

impl fmt::Display for TmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

impl FromStr for TmKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sequential" | "seq" => Ok(TmKind::Sequential),
            "2PL" | "2pl" => Ok(TmKind::TwoPhase),
            "dstm" => Ok(TmKind::Dstm),
            "TL2" | "tl2" => Ok(TmKind::Tl2),
            "modified-TL2" | "modified-tl2" => Ok(TmKind::ModifiedTl2),
            other => Err(format!(
                "unknown TM {other:?} (expected sequential, 2PL, dstm, TL2, or modified-TL2)"
            )),
        }
    }
}

/// A contention manager wrapping (or not) the TM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CmKind {
    /// No manager: the bare TM.
    #[default]
    None,
    /// The aggressive manager.
    Aggressive,
    /// The polite manager.
    Polite,
}

impl CmKind {
    /// The wire code (`None` has none; it is simply omitted).
    pub fn code(self) -> Option<&'static str> {
        match self {
            CmKind::None => None,
            CmKind::Aggressive => Some("aggressive"),
            CmKind::Polite => Some("polite"),
        }
    }
}

impl FromStr for CmKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "" | "none" => Ok(CmKind::None),
            "aggressive" => Ok(CmKind::Aggressive),
            "polite" => Ok(CmKind::Polite),
            other => Err(format!(
                "unknown contention manager {other:?} (expected aggressive or polite)"
            )),
        }
    }
}

/// A property the service can decide: one of the two safety properties of
/// Table 2 or the three liveness properties of Table 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PropertyKind {
    /// A safety (inclusion) property.
    Safety(SafetyProperty),
    /// A liveness (loop-search) property.
    Liveness(LivenessProperty),
}

impl PropertyKind {
    /// The wire code: `ss`, `op`, `of`, `lf`, or `wf`.
    pub fn code(self) -> &'static str {
        match self {
            PropertyKind::Safety(SafetyProperty::StrictSerializability) => "ss",
            PropertyKind::Safety(SafetyProperty::Opacity) => "op",
            PropertyKind::Liveness(LivenessProperty::ObstructionFreedom) => "of",
            PropertyKind::Liveness(LivenessProperty::LivelockFreedom) => "lf",
            PropertyKind::Liveness(LivenessProperty::WaitFreedom) => "wf",
        }
    }
}

impl fmt::Display for PropertyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

impl FromStr for PropertyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "ss" => Ok(PropertyKind::Safety(SafetyProperty::StrictSerializability)),
            "op" => Ok(PropertyKind::Safety(SafetyProperty::Opacity)),
            "of" => Ok(PropertyKind::Liveness(LivenessProperty::ObstructionFreedom)),
            "lf" => Ok(PropertyKind::Liveness(LivenessProperty::LivelockFreedom)),
            "wf" => Ok(PropertyKind::Liveness(LivenessProperty::WaitFreedom)),
            other => Err(format!(
                "unknown property {other:?} (expected ss, op, of, lf, or wf)"
            )),
        }
    }
}

/// One verification query: TM × contention manager × property × instance
/// size — a row of the paper's tables as plain data.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct QuerySpec {
    /// The TM algorithm.
    pub tm: TmKind,
    /// Its contention manager (ignored by the safety semantics only in
    /// the sense that Table 2 uses bare TMs; a managed safety query is
    /// perfectly valid).
    pub cm: CmKind,
    /// The property to decide.
    pub property: PropertyKind,
    /// Threads `n` of the instance.
    pub threads: usize,
    /// Variables `k` of the instance.
    pub vars: usize,
}

/// Largest thread count a query may ask for: the smallest of the
/// engines' bounds — the TM state encodings
/// ([`tm_algorithms::MAX_THREADS`]), the specification states
/// (`tm_spec::MAX_THREADS`, pinned by a unit test) and the liveness
/// engine's edge masks ([`tm_automata::MAX_MASK_THREADS`]). Each
/// enforces its bound with asserts, so a daemon must reject larger
/// queries at the boundary instead of panicking a handler mid-batch.
pub const MAX_QUERY_THREADS: usize = tm_algorithms::MAX_THREADS;
const _: () = assert!(MAX_QUERY_THREADS <= tm_automata::MAX_MASK_THREADS);

/// Largest variable count a query may ask for. State spaces explode well
/// before this; the bound exists so a malformed request is an error, not
/// a runaway exploration cut down by the state-bound assert.
pub const MAX_QUERY_VARS: usize = 8;

impl QuerySpec {
    /// The full TM name ([`TmAlgorithm::name`] of the constructed
    /// algorithm): the bare code, or `"tm+cm"` under a manager. This is
    /// the session's run-graph cache key.
    pub fn tm_name(&self) -> String {
        match self.cm.code() {
            None => self.tm.code().to_owned(),
            Some(cm) => format!("{}+{}", self.tm.code(), cm),
        }
    }

    /// Checks the instance size against the engines' supported range
    /// (`1..=`[`MAX_QUERY_THREADS`] threads, `1..=`[`MAX_QUERY_VARS`]
    /// variables). Both parse boundaries (CLI shorthand and wire
    /// decoding) call this, so an out-of-range query is a client error —
    /// never a panic inside a serving thread.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_QUERY_THREADS).contains(&self.threads) {
            return Err(format!(
                "thread count {} out of range 1..={MAX_QUERY_THREADS}",
                self.threads
            ));
        }
        if !(1..=MAX_QUERY_VARS).contains(&self.vars) {
            return Err(format!(
                "variable count {} out of range 1..={MAX_QUERY_VARS}",
                self.vars
            ));
        }
        Ok(())
    }

    /// Parses the CLI shorthand `tm[+cm]:property:n:k` (e.g.
    /// `dstm+aggressive:of:2:1`, `TL2:ss:2:2`), validating the instance
    /// size.
    pub fn parse(s: &str) -> Result<QuerySpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let [tm_cm, property, n, k] = parts[..] else {
            return Err(format!("expected tm[+cm]:property:n:k, got {s:?}"));
        };
        let (tm, cm) = match tm_cm.split_once('+') {
            None => (tm_cm.parse()?, CmKind::None),
            Some((tm, cm)) => (tm.parse()?, cm.parse()?),
        };
        let spec = QuerySpec {
            tm,
            cm,
            property: property.parse()?,
            threads: n.parse().map_err(|e| format!("bad thread count {n:?}: {e}"))?,
            vars: k.parse().map_err(|e| format!("bad variable count {k:?}: {e}"))?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}:{}",
            self.tm_name(),
            self.property,
            self.threads,
            self.vars
        )
    }
}

/// Runs one query through a session. The session must be for the spec's
/// instance size (the registry guarantees this; [`Verifier`] asserts it).
pub fn run_query(verifier: &mut Verifier, spec: &QuerySpec) -> Verdict {
    let (n, k) = (spec.threads, spec.vars);
    macro_rules! dispatch {
        ($tm:expr) => {
            match spec.cm {
                CmKind::None => run_on(verifier, spec.property, &$tm),
                CmKind::Aggressive => {
                    run_on(verifier, spec.property, &WithContentionManager::new($tm, AggressiveCm))
                }
                CmKind::Polite => {
                    run_on(verifier, spec.property, &WithContentionManager::new($tm, PoliteCm))
                }
            }
        };
    }
    match spec.tm {
        TmKind::Sequential => dispatch!(SequentialTm::new(n, k)),
        TmKind::TwoPhase => dispatch!(TwoPhaseTm::new(n, k)),
        TmKind::Dstm => dispatch!(DstmTm::new(n, k)),
        TmKind::Tl2 => dispatch!(Tl2Tm::new(n, k)),
        TmKind::ModifiedTl2 => {
            dispatch!(Tl2Tm::with_validation(n, k, ValidationStyle::RValidateThenChkLock))
        }
    }
}

fn run_on<A: TmAlgorithm>(verifier: &mut Verifier, property: PropertyKind, tm: &A) -> Verdict {
    match property {
        PropertyKind::Safety(p) => verifier.check_safety(tm, p),
        PropertyKind::Liveness(p) => verifier.check_liveness(tm, p),
    }
}

/// The paper's Table 2 as a batch: the five roster TMs × both safety
/// properties at (2, 2).
pub fn table2_batch() -> Vec<QuerySpec> {
    let rows = [
        (TmKind::Sequential, CmKind::None),
        (TmKind::TwoPhase, CmKind::None),
        (TmKind::Dstm, CmKind::None),
        (TmKind::Tl2, CmKind::None),
        (TmKind::ModifiedTl2, CmKind::Polite),
    ];
    SafetyProperty::all()
        .into_iter()
        .flat_map(|property| {
            rows.into_iter().map(move |(tm, cm)| QuerySpec {
                tm,
                cm,
                property: PropertyKind::Safety(property),
                threads: 2,
                vars: 2,
            })
        })
        .collect()
}

/// The paper's Table 3 as a batch: its four TM × manager rows × all
/// three liveness properties at (2, 1).
pub fn table3_batch() -> Vec<QuerySpec> {
    let rows = [
        (TmKind::Sequential, CmKind::None),
        (TmKind::TwoPhase, CmKind::None),
        (TmKind::Dstm, CmKind::Aggressive),
        (TmKind::Tl2, CmKind::Polite),
    ];
    rows.into_iter()
        .flat_map(|(tm, cm)| {
            LivenessProperty::all().into_iter().map(move |property| QuerySpec {
                tm,
                cm,
                property: PropertyKind::Liveness(property),
                threads: 2,
                vars: 1,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_round_trip() {
        let spec = QuerySpec::parse("dstm+aggressive:of:2:1").unwrap();
        assert_eq!(spec.tm, TmKind::Dstm);
        assert_eq!(spec.cm, CmKind::Aggressive);
        assert_eq!(spec.tm_name(), "dstm+aggressive");
        assert_eq!(spec.to_string(), "dstm+aggressive:of:2:1");
        let bare = QuerySpec::parse("TL2:ss:2:2").unwrap();
        assert_eq!(bare.cm, CmKind::None);
        assert_eq!(bare.tm_name(), "TL2");
        assert!(QuerySpec::parse("TL2:xx:2:2").is_err());
        assert!(QuerySpec::parse("nope:ss:2:2").is_err());
        assert!(QuerySpec::parse("TL2:ss:2").is_err());
        // Instance sizes beyond the engines' supported range are parse
        // errors, not downstream panics.
        assert!(QuerySpec::parse("2PL:of:9:1").is_err());
        assert!(QuerySpec::parse("2PL:of:5:1").is_err());
        const { assert!(MAX_QUERY_THREADS <= tm_spec::MAX_THREADS) };
        assert!(QuerySpec::parse("2PL:of:0:1").is_err());
        assert!(QuerySpec::parse("2PL:of:2:0").is_err());
    }

    #[test]
    fn tm_names_match_the_algorithms() {
        let spec = QuerySpec::parse("modified-TL2+polite:op:2:2").unwrap();
        let tm = WithContentionManager::new(
            Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock),
            PoliteCm,
        );
        assert_eq!(spec.tm_name(), tm.name());
        for kind in TmKind::all() {
            assert_eq!(kind.code().parse::<TmKind>().unwrap(), kind);
        }
    }

    #[test]
    fn paper_batches_have_the_roster_shape() {
        assert_eq!(table2_batch().len(), 10);
        assert_eq!(table3_batch().len(), 12);
        assert!(table2_batch()
            .iter()
            .all(|q| matches!(q.property, PropertyKind::Safety(_)) && q.threads == 2 && q.vars == 2));
        assert!(table3_batch()
            .iter()
            .all(|q| matches!(q.property, PropertyKind::Liveness(_)) && q.vars == 1));
    }

    #[test]
    fn run_query_answers_a_paper_cell() {
        let mut verifier = Verifier::new(2, 1);
        let spec = QuerySpec::parse("dstm+aggressive:of:2:1").unwrap();
        assert!(run_query(&mut verifier, &spec).holds());
        let spec = QuerySpec::parse("dstm+aggressive:lf:2:1").unwrap();
        let verdict = run_query(&mut verifier, &spec);
        assert!(!verdict.holds());
        // Second property answered from the cached run graph.
        assert!(verdict.stats.artifact_cached);
    }
}
