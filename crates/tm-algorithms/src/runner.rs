//! Executing a TM algorithm under an explicit scheduler (§3.2, Table 1).
//!
//! The scheduler picks a thread at every step; the thread issues its
//! pending command if one exists, otherwise the next command of its
//! program. The TM answers with one of its transitions; the default policy
//! takes the first proper transition and falls back to abort — which is
//! exactly how the runs in the paper's Table 1 unfold.

use std::fmt;

use tm_lang::{Command, Statement, ThreadId, Word};

use crate::algorithm::TmAlgorithm;
use crate::explore::RunLabel;

/// A recorded run of a TM algorithm under a scheduler.
#[derive(Clone, Debug, Default)]
pub struct Run {
    entries: Vec<RunLabel>,
}

impl Run {
    /// The atomic steps of the run.
    pub fn entries(&self) -> &[RunLabel] {
        &self.entries
    }

    /// The run in the paper's Table 1 notation, comma-separated.
    pub fn to_notation(&self) -> String {
        self.entries
            .iter()
            .map(RunLabel::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The word of the run: the sequence of successful statements.
    pub fn word(&self) -> Word {
        self.entries.iter().filter_map(|e| e.statement()).collect()
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_notation())
    }
}

/// Error returned by [`execute_schedule`] when a scheduled thread has no
/// command to run or the TM offers no transition at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleError {
    step: usize,
    thread: ThreadId,
    reason: &'static str,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule step {} ({}): {}",
            self.step, self.thread, self.reason
        )
    }
}

impl std::error::Error for ScheduleError {}

/// Executes `tm` under an explicit schedule.
///
/// `programs[i]` is the command list of thread `i + 1`; `schedule` lists
/// 0-based thread indices, one per atomic step (so a command that needs
/// several TM steps must be scheduled several times, as in Table 1). At
/// each step the first proper transition is taken; if none exists, the
/// thread aborts. A command is consumed from its program when it starts; an
/// abort consumes the in-flight command.
///
/// # Errors
///
/// Fails if a scheduled thread has neither a pending command nor program
/// commands left, or if the TM offers no transition (a product with a
/// contention manager can deadlock a thread at a conflict).
///
/// # Examples
///
/// Table 1, row "2PL", schedule `111112…` (prefix shown):
///
/// ```
/// use tm_algorithms::{execute_schedule, TwoPhaseTm};
/// use tm_lang::{Command, VarId};
///
/// let tm = TwoPhaseTm::new(2, 2);
/// let t1 = [Command::Read(VarId::new(0)), Command::Write(VarId::new(1)), Command::Commit];
/// let run = execute_schedule(&tm, &[&t1, &[]], &[0, 0, 0, 0, 0])?;
/// assert_eq!(run.to_notation(), "(rl,1)1, (r,1)1, (wl,2)1, (w,2)1, c1");
/// assert_eq!(run.word().to_string(), "(r,1)1 (w,2)1 c1");
/// # Ok::<(), tm_algorithms::ScheduleError>(())
/// ```
pub fn execute_schedule<A: TmAlgorithm>(
    tm: &A,
    programs: &[&[Command]],
    schedule: &[usize],
) -> Result<Run, ScheduleError> {
    use crate::algorithm::TmState as _;

    let mut queues: Vec<std::collections::VecDeque<Command>> = programs
        .iter()
        .map(|p| p.iter().copied().collect())
        .collect();
    let mut state = tm.initial_state();
    let mut run = Run::default();

    for (step, &ti) in schedule.iter().enumerate() {
        let t = ThreadId::new(ti);
        let command = match state.pending(t) {
            Some(c) => c,
            None => queues
                .get_mut(ti)
                .and_then(|q| q.pop_front())
                .ok_or(ScheduleError {
                    step,
                    thread: t,
                    reason: "no command left in program",
                })?,
        };
        let steps = tm.steps(&state, command, t);
        let chosen = steps.first().ok_or(ScheduleError {
            step,
            thread: t,
            reason: "TM offers no transition (deadlocked by contention manager)",
        })?;
        run.entries.push(RunLabel {
            thread: t,
            command,
            action: chosen.action,
        });
        state = chosen.next.clone();
    }
    Ok(run)
}

/// The statements of a run's word, convenient for automaton membership
/// checks.
pub fn run_statements(run: &Run) -> Vec<Statement> {
    run.word().statements().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dstm::DstmTm;
    use crate::sequential::SequentialTm;
    use tm_lang::VarId;

    fn read(v: usize) -> Command {
        Command::Read(VarId::new(v))
    }
    fn write(v: usize) -> Command {
        Command::Write(VarId::new(v))
    }

    #[test]
    fn sequential_table1_row_one() {
        // Scheduler 11122…: word (r,1)1 (w,2)1 c1 (w,1)2 c2.
        let tm = SequentialTm::new(2, 2);
        let t1 = [read(0), write(1), Command::Commit];
        let t2 = [write(0), Command::Commit];
        let run = execute_schedule(&tm, &[&t1, &t2], &[0, 0, 0, 1, 1]).unwrap();
        assert_eq!(run.word().to_string(), "(r,1)1 (w,2)1 c1 (w,1)2 c2");
    }

    #[test]
    fn sequential_table1_row_two_has_abort() {
        // Scheduler 112122…: t2 aborts while t1's transaction is open.
        let tm = SequentialTm::new(2, 2);
        let t1 = [read(0), write(1), Command::Commit];
        let t2 = [write(0), write(0), Command::Commit];
        let run = execute_schedule(&tm, &[&t1, &t2], &[0, 0, 1, 0, 1, 1]).unwrap();
        assert_eq!(
            run.word().to_string(),
            "(r,1)1 (w,2)1 a2 c1 (w,1)2 c2"
        );
    }

    #[test]
    fn abort_consumes_inflight_command() {
        let tm = SequentialTm::new(2, 1);
        let t1 = [read(0), Command::Commit];
        let t2 = [read(0), Command::Commit];
        // t1 opens, t2 aborts (its read is consumed), t1 closes, and t2's
        // remaining commit goes through as an empty transaction.
        let run = execute_schedule(&tm, &[&t1, &t2], &[0, 1, 0, 1]).unwrap();
        assert_eq!(run.word().to_string(), "(r,1)1 a2 c1 c2");
    }

    #[test]
    fn schedule_error_on_exhausted_program() {
        let tm = SequentialTm::new(2, 1);
        let err = execute_schedule(&tm, &[&[], &[]], &[0]).unwrap_err();
        assert!(err.to_string().contains("no command left"));
    }

    #[test]
    fn dstm_run_notation_includes_extended_commands() {
        let tm = DstmTm::new(2, 2);
        let t1 = [write(0), Command::Commit];
        let run = execute_schedule(&tm, &[&t1, &[]], &[0, 0, 0, 0]).unwrap();
        assert_eq!(run.to_notation(), "(o,1)1, (w,1)1, v1, c1");
        assert_eq!(run.word().to_string(), "(w,1)1 c1");
    }
}
