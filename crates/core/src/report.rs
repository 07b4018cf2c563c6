//! Plain-text report tables in the style of the paper's Tables 2 and 3,
//! and the uniform [`Verdict`] every [`crate::Verifier`] session query
//! returns.

use std::fmt;
use std::time::Duration;

use tm_automata::EngineError;

use crate::liveness::LivenessVerdict;
use crate::reduction::ReductionEvidence;
use crate::safety::SafetyVerdict;

/// Uniform run statistics attached to every session query ([`Verdict`]),
/// separating what the one-shot verdict types blend together: artifact
/// construction (specification / run graph) versus the search itself.
/// The per-phase time breakdown is not here: a query's engine phases go
/// to whichever `tm_obs` recorder the calling thread has installed
/// (`tm_obs::with_recorder`).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// States explored by the search: product states for a safety query,
    /// run-graph states for a liveness query, base-instance product
    /// states for a reduction query.
    pub states_explored: usize,
    /// Time spent building the artifacts this query needed (zero when the
    /// session answered from its cache).
    pub build_time: Duration,
    /// Time spent searching (inclusion BFS or loop queries).
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

/// The outcome payload of a [`Verdict`]: the query-specific verdict types
/// survive unchanged underneath the uniform session envelope.
#[derive(Clone, Debug)]
pub enum VerdictOutcome {
    /// A safety (inclusion) query.
    Safety(SafetyVerdict),
    /// A liveness (loop-search) query.
    Liveness(LivenessVerdict),
    /// A full reduction-methodology run.
    Reduction(ReductionEvidence),
    /// The engine retired the query at a resource limit — state-space
    /// blowup, expired deadline, cooperative cancellation, a panicked
    /// worker, or an injected fault — instead of answering it. The
    /// [`QueryStats`] are partial: whatever the query had spent when it
    /// was retired. [`EngineError::is_retryable`] says whether asking
    /// again (with more time, or after cancellation clears) can succeed.
    Aborted(EngineError),
}

/// The uniform result of every [`crate::Verifier`] query: the
/// query-specific outcome plus [`QueryStats`].
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
    pub outcome: VerdictOutcome,
    /// How the session answered it.
    pub stats: QueryStats,
}

impl Verdict {
    /// `true` if the queried property was verified (for a reduction
    /// query: the methodology concluded).
    pub fn holds(&self) -> bool {
        match &self.outcome {
            VerdictOutcome::Safety(v) => v.holds(),
            VerdictOutcome::Liveness(v) => v.holds(),
            VerdictOutcome::Reduction(e) => e.concludes(),
            VerdictOutcome::Aborted(_) => false,
        }
    }

    /// The abort reason, if the engine retired this query at a resource
    /// limit instead of answering it (see [`VerdictOutcome::Aborted`]).
    pub fn abort_reason(&self) -> Option<EngineError> {
        match &self.outcome {
            VerdictOutcome::Aborted(error) => Some(*error),
            _ => None,
        }
    }

    /// The safety verdict, if this was a safety query.
    pub fn as_safety(&self) -> Option<&SafetyVerdict> {
        match &self.outcome {
            VerdictOutcome::Safety(v) => Some(v),
            _ => None,
        }
    }

    /// The liveness verdict, if this was a liveness query.
    pub fn as_liveness(&self) -> Option<&LivenessVerdict> {
        match &self.outcome {
            VerdictOutcome::Liveness(v) => Some(v),
            _ => None,
        }
    }

    /// The reduction evidence, if this was a reduction query.
    pub fn as_reduction(&self) -> Option<&ReductionEvidence> {
        match &self.outcome {
            VerdictOutcome::Reduction(e) => Some(e),
            _ => None,
        }
    }

    /// Unwraps a safety query's verdict.
    pub fn into_safety(self) -> Option<SafetyVerdict> {
        match self.outcome {
            VerdictOutcome::Safety(v) => Some(v),
            _ => None,
        }
    }

    /// Unwraps a liveness query's verdict.
    pub fn into_liveness(self) -> Option<LivenessVerdict> {
        match self.outcome {
            VerdictOutcome::Liveness(v) => Some(v),
            _ => None,
        }
    }

    /// Unwraps a reduction query's evidence.
    pub fn into_reduction(self) -> Option<ReductionEvidence> {
        match self.outcome {
            VerdictOutcome::Reduction(e) => Some(e),
            _ => None,
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

/// Formats a set of safety verdicts as the paper's Table 2 ("Y, time" or
/// "N, counterexample, time").
pub fn safety_table(title: &str, verdicts: &[SafetyVerdict]) -> Table {
    let mut table = Table::new(
        title,
        ["TM", "Size", "property", "verdict", "time", "counterexample"],
    );
    for v in verdicts {
        let (verdict, cx) = match v.counterexample() {
            None => ("Y".to_owned(), String::new()),
            Some(w) => ("N".to_owned(), w.to_string()),
        };
        // On a violation the on-the-fly check stops early, so the state
        // count is a lower bound, not the paper's full "Size" figure.
        let size = if v.holds() {
            v.tm_states.to_string()
        } else {
            format!(">={}", v.tm_states)
        };
        table.push_row([
            v.tm_name.clone(),
            size,
            v.property.short_name().to_owned(),
            verdict,
            format!("{:.2?}", v.check_time),
            cx,
        ]);
    }
    table
}

/// Formats a set of liveness verdicts as the paper's Table 3 (loop parts
/// of the counterexample lassos shown).
pub fn liveness_table(title: &str, verdicts: &[LivenessVerdict]) -> Table {
    let mut table = Table::new(
        title,
        ["TM algorithm", "property", "verdict", "time", "loop"],
    );
    for v in verdicts {
        let (verdict, lasso) = match v.counterexample() {
            None => ("Y".to_owned(), String::new()),
            Some(l) => ("N".to_owned(), l.cycle_notation()),
        };
        table.push_row([
            v.tm_name.clone(),
            v.property.to_string(),
            verdict,
            format!("{:.2?}", v.total_time),
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
