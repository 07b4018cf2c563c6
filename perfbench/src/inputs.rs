//! The benchmark's inputs: the query rosters and their expected answers,
//! both read from the hand-written `expected.txt`, and the seeded order
//! in which each pass sends them.

use std::collections::HashMap;

use tm_service::QuerySpec;

const EXPECTED: &str = include_str!("../expected.txt");

/// The rosters and the expected verdict of every query on them.
pub struct Inputs {
    /// Table 2 (ss/op × 5 TMs at (2,2)) and Table 3 (of/lf/wf × 4 rows
    /// at (2,1)): the 22 queries of `paper-warm` and `budget-churn`.
    pub paper: Vec<QuerySpec>,
    /// of/lf/wf on the DSTM variants at (3,2) and TL2 at (3,1).
    pub cold_scale: Vec<QuerySpec>,
    /// `true` where the property holds.
    pub expected: HashMap<QuerySpec, bool>,
}

impl Inputs {
    /// Parses `expected.txt`.
    pub fn load() -> Result<Inputs, String> {
        let mut inputs = Inputs {
            paper: Vec::new(),
            cold_scale: Vec::new(),
            expected: HashMap::new(),
        };
        let mut section = "";
        for (number, raw) in EXPECTED.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match name {
                    "paper" | "cold-scale" => name,
                    other => {
                        return Err(format!(
                            "expected.txt:{}: unknown roster {other:?}",
                            number + 1
                        ))
                    }
                };
                continue;
            }
            let (query, answer) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("expected.txt:{}: want `query Y|N`", number + 1))?;
            let spec = QuerySpec::parse(query)?;
            let holds = match answer.trim() {
                "Y" => true,
                "N" => false,
                other => {
                    return Err(format!(
                        "expected.txt:{}: answer {other:?} is not Y or N",
                        number + 1
                    ))
                }
            };
            match section {
                "paper" => inputs.paper.push(spec.clone()),
                "cold-scale" => inputs.cold_scale.push(spec.clone()),
                _ => {
                    return Err(format!(
                        "expected.txt:{}: query before any roster",
                        number + 1
                    ))
                }
            }
            if inputs.expected.insert(spec, holds).is_some() {
                return Err(format!(
                    "expected.txt:{}: duplicate query {query}",
                    number + 1
                ));
            }
        }
        Ok(inputs)
    }
}

/// The order in which pass `pass` sends a roster of `len` queries: a
/// Fisher–Yates shuffle driven by splitmix64 over `(seed, pass)`, so the
/// same seed gives the same sequence of passes.
pub fn pass_order(seed: u64, pass: u64, len: usize) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Builds the concrete TM (× contention manager) of a query and
/// evaluates `$body` with it bound to `$tm`.
macro_rules! with_tm {
    ($spec:expr, |$tm:ident| $body:expr) => {{
        use tm_algorithms::{DstmTm, SequentialTm, Tl2Tm, TwoPhaseTm, ValidationStyle};
        use tm_service::TmKind;
        let spec: &tm_service::QuerySpec = $spec;
        let (n, k) = (spec.threads, spec.vars);
        match spec.tm {
            TmKind::Sequential => with_cm!(spec.cm, SequentialTm::new(n, k), |$tm| $body),
            TmKind::TwoPhase => with_cm!(spec.cm, TwoPhaseTm::new(n, k), |$tm| $body),
            TmKind::Dstm => with_cm!(spec.cm, DstmTm::new(n, k), |$tm| $body),
            TmKind::Tl2 => with_cm!(spec.cm, Tl2Tm::new(n, k), |$tm| $body),
            TmKind::ModifiedTl2 => with_cm!(
                spec.cm,
                Tl2Tm::with_validation(n, k, ValidationStyle::RValidateThenChkLock),
                |$tm| $body
            ),
        }
    }};
}

macro_rules! with_cm {
    ($cm:expr, $bare:expr, |$tm:ident| $body:expr) => {{
        use tm_algorithms::{AggressiveCm, PoliteCm, WithContentionManager};
        match $cm {
            tm_service::CmKind::None => {
                let $tm = $bare;
                $body
            }
            tm_service::CmKind::Aggressive => {
                let $tm = WithContentionManager::new($bare, AggressiveCm);
                $body
            }
            tm_service::CmKind::Polite => {
                let $tm = WithContentionManager::new($bare, PoliteCm);
                $body
            }
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters_have_the_paper_shape() {
        let inputs = Inputs::load().unwrap();
        assert_eq!(inputs.paper.len(), 22);
        assert_eq!(inputs.cold_scale.len(), 12);
        assert_eq!(inputs.expected.len(), 34);
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(7, 3, 22);
        assert_eq!(a, pass_order(7, 3, 22));
        assert_ne!(a, pass_order(8, 3, 22));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..22).collect::<Vec<_>>());
    }
}
