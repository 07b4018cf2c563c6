//! Cooperative query budgets and structured engine errors.
//!
//! Wehrheim (arXiv 2107.00271) shows no small-model theorem rescues STM
//! model checking in general: large instances must actually be explored,
//! so a state-space blowup or a long-running query is a *legitimate*
//! outcome a serving system has to survive — not a bug to `assert!` on.
//! Every engine of this crate therefore takes a [`QueryBudget`]:
//!
//! * `max_states` bounds every interning table (implementation states,
//!   product specification rows, run-graph states) and turns a blowup
//!   into [`EngineError::StateLimit`];
//! * an optional deadline is checked at BFS level boundaries and Tarjan
//!   iteration chunks and turns a timeout into [`EngineError::Deadline`].
//!
//! The checks are cheap (a clock read per level/chunk, a comparison per
//! interned state).

use std::fmt;
use std::time::{Duration, Instant};

/// Why an engine stopped without an answer.
///
/// Engines return this instead of panicking on any resource-limit path;
/// sessions surface it as an aborted verdict, services as an HTTP error
/// code. [`EngineError::is_retryable`] is the contract clients key
/// retries on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EngineError {
    /// An interning table hit the budget's `max_states` bound (the bound
    /// is carried along). Retrying cannot help at the same bound.
    StateLimit(usize),
    /// The budget's deadline expired mid-search.
    Deadline,
    /// A deterministic fault-injection point fired (see [`crate::fault`]).
    FaultInjected,
}

impl EngineError {
    /// Whether a retry of the same query can succeed: `true` for
    /// transient conditions (deadline, an injected fault),
    /// `false` for a state-space blowup, which is deterministic at a
    /// fixed bound.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, EngineError::StateLimit(_))
    }

    /// A stable machine-readable code (`state-limit`, `deadline`,
    /// `fault-injected`) — the wire vocabulary of aborted
    /// query results.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::StateLimit(_) => "state-limit",
            EngineError::Deadline => "deadline",
            EngineError::FaultInjected => "fault-injected",
        }
    }

    /// Parses the [`EngineError::code`] vocabulary back (with an optional
    /// `state-limit:<bound>` payload), for wire decoding.
    pub fn from_code(code: &str) -> Option<EngineError> {
        match code {
            "deadline" => Some(EngineError::Deadline),
            "fault-injected" => Some(EngineError::FaultInjected),
            _ => {
                let rest = code.strip_prefix("state-limit")?;
                let bound = match rest.strip_prefix(':') {
                    Some(digits) => digits.parse().ok()?,
                    None if rest.is_empty() => 0,
                    None => return None,
                };
                Some(EngineError::StateLimit(bound))
            }
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::StateLimit(bound) => write!(f, "state-limit:{bound}"),
            other => f.write_str(other.code()),
        }
    }
}

impl std::error::Error for EngineError {}

/// The resource budget of one engine query: a state bound plus an
/// optional wall-clock deadline.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use tm_automata::{EngineError, QueryBudget};
///
/// let budget = QueryBudget::new(1_000);
/// assert!(budget.check_interrupt().is_ok());
/// assert_eq!(budget.check_states(1_000), Err(EngineError::StateLimit(1_000)));
/// let expired = budget.with_timeout(Duration::ZERO);
/// assert_eq!(expired.check_interrupt(), Err(EngineError::Deadline));
/// ```
#[derive(Clone, Debug)]
pub struct QueryBudget {
    max_states: usize,
    deadline: Option<Instant>,
}

impl QueryBudget {
    /// A budget bounding interning tables at `max_states`, with no
    /// deadline.
    pub fn new(max_states: usize) -> Self {
        QueryBudget {
            max_states,
            deadline: None,
        }
    }

    /// A budget that never aborts (the bound is `usize::MAX`).
    pub fn unlimited() -> Self {
        QueryBudget::new(usize::MAX)
    }

    /// Sets a deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let deadline = Instant::now().checked_add(timeout);
        QueryBudget { deadline, ..self }
    }

    /// The state bound.
    pub fn max_states(&self) -> usize {
        self.max_states
    }

    /// Checks the deadline. Cheap; engines call it at BFS level
    /// boundaries and Tarjan iteration chunks.
    pub fn check_interrupt(&self) -> Result<(), EngineError> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(EngineError::Deadline);
            }
        }
        Ok(())
    }

    /// Checks the state bound against the current size of an interning
    /// table, *before* a new state is added: `states` existing states
    /// plus the incoming one must not exceed `max_states`.
    pub fn check_states(&self, states: usize) -> Result<(), EngineError> {
        if states >= self.max_states {
            return Err(EngineError::StateLimit(self.max_states));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_bound_is_checked_pre_intern() {
        let budget = QueryBudget::new(3);
        assert_eq!(budget.max_states(), 3);
        assert!(budget.check_states(2).is_ok());
        assert_eq!(budget.check_states(3), Err(EngineError::StateLimit(3)));
        assert!(QueryBudget::unlimited().check_states(usize::MAX - 1).is_ok());
    }

    #[test]
    fn expired_deadline_interrupts() {
        let budget = QueryBudget::unlimited().with_timeout(Duration::ZERO);
        assert_eq!(budget.check_interrupt(), Err(EngineError::Deadline));
        let generous = QueryBudget::unlimited().with_timeout(Duration::from_secs(3600));
        assert!(generous.check_interrupt().is_ok());
    }

    #[test]
    fn codes_round_trip() {
        for error in [
            EngineError::StateLimit(42),
            EngineError::Deadline,
            EngineError::FaultInjected,
        ] {
            assert_eq!(EngineError::from_code(&error.to_string()), Some(error));
        }
        assert_eq!(EngineError::from_code("nope"), None);
        assert_eq!(EngineError::from_code("state-limit:x"), None);
        assert!(!EngineError::StateLimit(1).is_retryable());
        assert!(EngineError::Deadline.is_retryable());
    }
}
