//! Answer checking: every verdict against the hand-written expected
//! answers, and every safety counterexample replayed through the TM
//! (`tm_algorithms::execute_schedule`) and the definition-level oracles
//! of `tm-lang`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Mutex;

use tm_algorithms::{execute_schedule, TmAlgorithm, TmState};
use tm_lang::{
    is_opaque, is_strictly_serializable, Command, SafetyProperty, StatementKind, ThreadId, Word,
};
use tm_service::{PropertyKind, QueryOutcome, QueryResult, QuerySpec};

/// Schedules explored per abort assignment before a replay gives up.
const REPLAY_NODE_CAP: usize = 200_000;

/// Checks results against the expected answers. Counterexamples are
/// replayed once per distinct (query, word); a repeat of a replayed word
/// is checked by lookup.
pub struct Checker<'a> {
    expected: &'a HashMap<QuerySpec, bool>,
    replayed: Mutex<HashSet<(QuerySpec, String)>>,
}

impl<'a> Checker<'a> {
    pub fn new(expected: &'a HashMap<QuerySpec, bool>) -> Self {
        Checker {
            expected,
            replayed: Mutex::new(HashSet::new()),
        }
    }

    /// `Err` names why `result` is not the expected answer.
    pub fn check(&self, result: &QueryResult) -> Result<(), String> {
        let spec = &result.spec;
        let want = *self
            .expected
            .get(spec)
            .ok_or_else(|| format!("{spec}: no expected answer"))?;
        match &result.outcome {
            QueryOutcome::Aborted { reason } => Err(format!("{spec}: aborted ({reason})")),
            _ if result.holds != want => Err(format!(
                "{spec}: verdict {} but the paper says {}",
                yn(result.holds),
                yn(want)
            )),
            QueryOutcome::Verified if !result.holds => {
                Err(format!("{spec}: violated without a witness"))
            }
            QueryOutcome::Verified => Ok(()),
            QueryOutcome::SafetyViolation { word } => {
                let key = (spec.clone(), word.clone());
                if self.lock().contains(&key) {
                    return Ok(());
                }
                replay_counterexample(spec, word)?;
                self.lock().insert(key);
                Ok(())
            }
            QueryOutcome::LivenessViolation { cycle, .. } if cycle.is_empty() => {
                Err(format!("{spec}: lasso with an empty loop"))
            }
            QueryOutcome::LivenessViolation { .. } => Ok(()),
        }
    }

    /// The distinct counterexamples replayed so far.
    pub fn counterexamples(&self) -> Vec<(QuerySpec, String)> {
        let mut all: Vec<_> = self.lock().iter().cloned().collect();
        all.sort_by_key(|(spec, word)| (spec.to_string(), word.clone()));
        all
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashSet<(QuerySpec, String)>> {
        self.replayed.lock().expect("a checker thread panicked")
    }
}

fn yn(holds: bool) -> &'static str {
    if holds {
        "Y"
    } else {
        "N"
    }
}

/// Replays a safety counterexample: the TM must produce `word` under
/// some schedule (found here, then confirmed by `execute_schedule`), and
/// the word must violate the query's property by the definition-level
/// oracle.
pub fn replay_counterexample(spec: &QuerySpec, word: &str) -> Result<(), String> {
    let PropertyKind::Safety(property) = spec.property else {
        return Err(format!("{spec}: a word answers a liveness query"));
    };
    let parsed: Word = word
        .parse()
        .map_err(|e| format!("{spec}: counterexample {word:?} does not parse: {e:?}"))?;
    with_tm!(spec, |tm| replay_on(&tm, &parsed))
        .map_err(|e| format!("{spec}: counterexample {word} is not a run of the TM: {e}"))?;
    let violates = match property {
        SafetyProperty::StrictSerializability => !is_strictly_serializable(&parsed),
        SafetyProperty::Opacity => !is_opaque(&parsed),
    };
    if violates {
        Ok(())
    } else {
        Err(format!(
            "{spec}: counterexample {word} satisfies the property"
        ))
    }
}

/// Finds thread programs and a schedule under which `execute_schedule`
/// yields exactly `word`, and confirms it. Command `i` of thread `t`
/// ends as statement `i` of `t` in the word; an abort hides which
/// command it ended, so every assignment of commands to aborts is tried.
fn replay_on<A: TmAlgorithm>(tm: &A, word: &Word) -> Result<(), String> {
    let mut per_thread: Vec<Vec<StatementKind>> = vec![Vec::new(); tm.threads()];
    for s in word.statements() {
        per_thread
            .get_mut(s.thread.index())
            .ok_or("statement of a thread outside the instance")?
            .push(s.kind);
    }
    let commands: Vec<Command> = Command::all(tm.vars()).collect();
    let aborts = per_thread.iter().flatten().filter(|k| k.is_abort()).count();
    let assignments = commands.len().pow(aborts.min(6) as u32);
    for mut assignment in 0..assignments {
        let programs: Vec<Vec<Command>> = per_thread
            .iter()
            .map(|kinds| {
                kinds
                    .iter()
                    .map(|kind| {
                        kind.as_command().unwrap_or_else(|| {
                            let c = commands[assignment % commands.len()];
                            assignment /= commands.len();
                            c
                        })
                    })
                    .collect()
            })
            .collect();
        if let Some(schedule) = find_schedule(tm, &programs, word) {
            let refs: Vec<&[Command]> = programs.iter().map(Vec::as_slice).collect();
            let run = execute_schedule(tm, &refs, &schedule).map_err(|e| e.to_string())?;
            return if run.word().statements() == word.statements() {
                Ok(())
            } else {
                Err(format!("the found schedule yields {}", run.word()))
            };
        }
    }
    Err("no schedule yields it".to_owned())
}

/// Breadth-first search over schedules, stepping exactly as
/// `execute_schedule` does (a thread's next command starts when it has
/// none pending; the first transition the TM offers is taken), keeping
/// only prefixes whose statements match `word`.
fn find_schedule<A: TmAlgorithm>(
    tm: &A,
    programs: &[Vec<Command>],
    word: &Word,
) -> Option<Vec<usize>> {
    type Node<S> = (S, usize, Vec<usize>);
    let target = word.statements();
    let start: Node<A::State> = (tm.initial_state(), 0, vec![0; programs.len()]);
    let mut parent: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX)];
    let mut nodes: Vec<Node<A::State>> = vec![start.clone()];
    let mut seen: HashSet<Node<A::State>> = HashSet::from([start]);
    let mut queue = VecDeque::from([0usize]);
    while let Some(at) = queue.pop_front() {
        let (state, pos, next) = nodes[at].clone();
        if pos == target.len() {
            let mut schedule = Vec::new();
            let mut cursor = at;
            while parent[cursor].0 != usize::MAX {
                schedule.push(parent[cursor].1);
                cursor = parent[cursor].0;
            }
            schedule.reverse();
            return Some(schedule);
        }
        for (t, program) in programs.iter().enumerate() {
            let thread = ThreadId::new(t);
            let mut next = next.clone();
            let command = match state.pending(thread) {
                Some(c) => c,
                None => match program.get(next[t]) {
                    Some(&c) => {
                        next[t] += 1;
                        c
                    }
                    None => continue,
                },
            };
            let Some(step) = tm.steps(&state, command, thread).into_iter().next() else {
                continue;
            };
            let pos = match step.action.statement(command, thread) {
                None => pos,
                Some(s) if s == target[pos] => pos + 1,
                Some(_) => continue,
            };
            let node = (step.next, pos, next);
            if seen.len() < REPLAY_NODE_CAP && seen.insert(node.clone()) {
                parent.push((at, t));
                nodes.push(node);
                queue.push_back(nodes.len() - 1);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_genuine_counterexample_replays() {
        let spec = QuerySpec::parse("modified-TL2+polite:ss:2:2").unwrap();
        let service = tm_service::Service::new(tm_service::ServiceConfig::default());
        let result = service.submit(std::slice::from_ref(&spec)).remove(0);
        let QueryOutcome::SafetyViolation { word } = result.outcome else {
            panic!("modified TL2 violates ss: {:?}", result.outcome);
        };
        replay_counterexample(&spec, &word).unwrap();
    }

    #[test]
    fn a_serializable_word_is_refused() {
        let spec = QuerySpec::parse("TL2:ss:2:2").unwrap();
        assert!(replay_counterexample(&spec, "(r,1)1 c1").is_err());
    }

    #[test]
    fn a_word_the_tm_cannot_produce_is_refused() {
        let spec = QuerySpec::parse("sequential:ss:2:2").unwrap();
        // The sequential TM never interleaves two open transactions.
        assert!(replay_counterexample(&spec, "(r,1)1 (w,1)2 c2 (w,1)1 c1").is_err());
    }
}
