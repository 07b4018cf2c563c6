//! The uniform [`Verdict`] every [`crate::Verifier`] session query
//! returns, and plain-text report tables in the style of the paper's
//! Tables 2 and 3.

use std::fmt;
use std::time::Duration;

use tm_automata::EngineError;
use tm_lang::{LivenessProperty, SafetyProperty, Word};

use crate::liveness::RunLasso;
use crate::reduction::ReductionEvidence;

/// Run statistics of one session query ([`Verdict`]), each count and
/// time exactly once: artifact construction (specification / run graph)
/// apart from the search itself. The per-phase time breakdown is not
/// here: a query's engine phases go to whichever `tm_obs` recorder the
/// calling thread has installed (`tm_obs::with_recorder`).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// States explored by the search: product pairs `(TM state,
    /// specification key)` for a safety query, run-graph states for a
    /// liveness query, the base check's product pairs for a reduction
    /// query.
    pub states_explored: usize,
    /// TM states the on-the-fly product discovered (safety and reduction
    /// queries; zero for liveness, whose run-graph states are
    /// `states_explored`): the full reachable count (Table 2 "Size") when
    /// the property holds, the explored portion when a violation cut the
    /// search short.
    pub tm_states: usize,
    /// Specification keys the product touched (safety and reduction
    /// queries; zero for liveness): the normal-form keys
    /// ([`tm_spec::QuotientSpec`]) the session's lazily interned
    /// specification holds after this query — cumulative over the
    /// session's earlier queries against the same property and size. For
    /// strict serializability a key stands for every state that differs
    /// only in a doomed thread's record; for opacity keys are states. Not
    /// the full deterministic automaton's size, which
    /// `tm_spec::DetSpec::to_dfa` reports.
    pub spec_states: usize,
    /// Time spent building the artifacts this query needed (zero when the
    /// session answered from its cache).
    pub build_time: Duration,
    /// Time spent searching (inclusion BFS or loop queries; for a
    /// reduction query also the structural evidence).
    pub search_time: Duration,
    /// `true` if every artifact the query needed was already cached by an
    /// earlier query of the same session.
    pub artifact_cached: bool,
    /// How many of the artifacts this query built were *re*builds — an
    /// artifact of the same key had been built (or imported) before and
    /// evicted via [`crate::Verifier::evict`]. Zero for cache hits and for
    /// first-time builds; what a memory-budgeted service reports as its
    /// eviction cost.
    pub rebuilds: usize,
}

/// What a query decided: one of the paper's three answers — verified, a
/// shortest violating word (§5), a violating lasso (§6) — or the
/// methodology's evidence, or no answer at all.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The property holds at the queried instance size (by Theorems 1
    /// and 5 at every size, for a structurally well-behaved TM).
    Verified,
    /// A word the TM produces that violates the safety property, shortest
    /// by the product's breadth-first search. Debug builds re-check it
    /// against the definition-level oracle.
    Counterexample(Word),
    /// A reachable loop of the run graph that violates the liveness
    /// property.
    Lasso(RunLasso),
    /// A full reduction-methodology run; [`ReductionEvidence::concludes`]
    /// says whether it established the property for all sizes.
    Reduction(ReductionEvidence),
    /// The engine retired the query at a resource limit — state-space
    /// blowup, expired deadline, or an injected fault — instead of
    /// answering it. The [`QueryStats`] are partial: whatever the query
    /// had spent when it was retired. [`EngineError::is_retryable`] says
    /// whether asking again (with more time) can succeed.
    Aborted(EngineError),
}

/// The result of every [`crate::Verifier`] query: its [`Outcome`] plus
/// [`QueryStats`].
///
/// # Examples
///
/// ```
/// use tm_checker::Verifier;
/// use tm_lang::SafetyProperty;
/// use tm_algorithms::DstmTm;
///
/// let mut verifier = Verifier::new(2, 2);
/// let verdict = verifier.check_safety(&DstmTm::new(2, 2), SafetyProperty::Opacity);
/// assert!(verdict.holds());
/// assert!(!verdict.stats.artifact_cached); // first query builds the spec
/// ```
#[derive(Clone, Debug)]
pub struct Verdict {
    /// What the query decided.
    pub outcome: Outcome,
    /// How the session answered it.
    pub stats: QueryStats,
}

impl Verdict {
    /// `true` if the queried property was verified (for a reduction
    /// query: the methodology concluded).
    pub fn holds(&self) -> bool {
        match &self.outcome {
            Outcome::Verified => true,
            Outcome::Reduction(evidence) => evidence.concludes(),
            Outcome::Counterexample(_) | Outcome::Lasso(_) | Outcome::Aborted(_) => false,
        }
    }

    /// The abort reason, if the engine retired this query at a resource
    /// limit instead of answering it (see [`Outcome::Aborted`]).
    pub fn abort_reason(&self) -> Option<EngineError> {
        match &self.outcome {
            Outcome::Aborted(error) => Some(*error),
            _ => None,
        }
    }

    /// The violating word, if this safety query found one.
    pub fn counterexample(&self) -> Option<&Word> {
        match &self.outcome {
            Outcome::Counterexample(word) => Some(word),
            _ => None,
        }
    }

    /// The violating lasso, if this liveness query found one.
    pub fn lasso(&self) -> Option<&RunLasso> {
        match &self.outcome {
            Outcome::Lasso(lasso) => Some(lasso),
            _ => None,
        }
    }

    /// The "verdict" and witness cells of a report row: `Y`, or `N` with
    /// the counterexample word or the lasso's loop, or `aborted` with the
    /// reason.
    fn cells(&self) -> (&'static str, String) {
        match &self.outcome {
            Outcome::Counterexample(word) => ("N", word.to_string()),
            Outcome::Lasso(lasso) => ("N", lasso.cycle_notation()),
            Outcome::Aborted(error) => ("aborted", error.to_string()),
            Outcome::Verified | Outcome::Reduction(_) => {
                (if self.holds() { "Y" } else { "N" }, String::new())
            }
        }
    }
}

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use tm_checker::Table;
/// let mut t = Table::new("demo", ["tm", "verdict"]);
/// t.push_row(["seq", "Y"]);
/// assert!(t.to_string().contains("seq"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new<T, I, S>(title: T, headers: I) -> Self
    where
        T: Into<String>,
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:width$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats `(TM name, property, verdict)` rows of safety queries as the
/// paper's Table 2 ("Y, time" or "N, counterexample, time").
pub fn safety_table(title: &str, rows: &[(String, SafetyProperty, Verdict)]) -> Table {
    let mut table = Table::new(
        title,
        ["TM", "Size", "property", "verdict", "time", "counterexample"],
    );
    for (tm_name, property, v) in rows {
        let (verdict, cx) = v.cells();
        // On a violation the on-the-fly check stops early, so the state
        // count is a lower bound, not the paper's full "Size" figure.
        let size = if v.holds() {
            v.stats.tm_states.to_string()
        } else {
            format!(">={}", v.stats.tm_states)
        };
        table.push_row([
            tm_name.clone(),
            size,
            property.short_name().to_owned(),
            verdict.to_owned(),
            format!("{:.2?}", v.stats.search_time),
            cx,
        ]);
    }
    table
}

/// Formats `(TM name, property, verdict)` rows of liveness queries as
/// the paper's Table 3 (loop parts of the counterexample lassos shown;
/// the time is build plus search).
pub fn liveness_table(title: &str, rows: &[(String, LivenessProperty, Verdict)]) -> Table {
    let mut table = Table::new(
        title,
        ["TM algorithm", "property", "verdict", "time", "loop"],
    );
    for (tm_name, property, v) in rows {
        let (verdict, lasso) = v.cells();
        table.push_row([
            tm_name.clone(),
            property.to_string(),
            verdict.to_owned(),
            format!("{:.2?}", v.stats.build_time + v.stats.search_time),
            lasso,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_contents() {
        let mut t = Table::new("x", ["a", "bbbb"]);
        t.push_row(["yyyy", "z"]);
        let text = t.to_string();
        assert!(text.contains("== x =="));
        assert!(text.contains("yyyy"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("x", ["a"]);
        t.push_row(["1", "2"]);
    }
}
