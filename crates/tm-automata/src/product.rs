//! On-the-fly product exploration for inclusion checking: the one product
//! BFS of the workspace.
//!
//! The engine explores `(implementation state, spec state)` pairs
//! **lazily**, pulling implementation successors from a
//! [`SuccessorSource`] — implemented by the TM steppers in
//! `tm-algorithms` — so the implementation transition system is only
//! ever evaluated on the product-reachable states and no `Nfa` is ever
//! built. (The most-general-program NFA of TL2 at (2, 2) alone has ~19k
//! states.)
//!
//! The specification side is one artifact, a [`SpecCache`] over a
//! [`DeterministicTransitionSystem`]: its states are interned and its
//! letter rows computed on first touch, so only the specification states
//! the product reaches are ever stepped. [`check_inclusion_otf`] is the
//! one entry point, bounded by a [`QueryBudget`] and running a single
//! FIFO product BFS on the calling thread. The `tm_checker::Verifier`
//! session runs it over `tm_spec::QuotientSpec` (the deterministic
//! specification interned by a normal form; its docs prove that the
//! search reports the same shortest counterexample as over
//! `tm_spec::DetSpec`); a materialized [`crate::Dfa`] runs through the
//! same cache.
//!
//! The BFS's discovery order is that of the seed checker
//! (`tm_bench::oracle`): identical verdicts, identical shortest
//! counterexample words, identical `product_states`.
//!
//! Successor rows are cached per implementation state on first touch
//! (letters and targets interned to `u32`), so each implementation state
//! is stepped exactly once no matter how many product pairs visit it —
//! the product inner loop is pure integer arithmetic after that.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::OnceLock;

use tm_obs::{Histogram, Phase, PhaseTimer, Unit};

use crate::alphabet::LetterId;
use crate::budget::{EngineError, QueryBudget};
use crate::explore::DeterministicTransitionSystem;
use crate::fxhash::{FxHashMap, FxHashSet};

/// Sentinel letter id marking an internal (ε) step in a
/// [`SuccessorSource`]'s successor list.
pub const EPSILON: LetterId = u32::MAX;

/// Sentinel state id marking a missing transition (a rejecting letter) in
/// a [`SpecCache`] row.
pub const NO_STATE: u32 = u32::MAX;

/// How many BFS visits pass between deadline checks.
const INTERRUPT_STRIDE: usize = 4096;

/// Outcome of an inclusion check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InclusionResult<L> {
    /// Every word of the implementation is accepted by the specification.
    Included {
        /// Number of product states explored.
        product_states: usize,
    },
    /// A word of the implementation rejected by the specification.
    Counterexample {
        /// A shortest offending word.
        word: Vec<L>,
        /// Number of product states explored before the violation.
        product_states: usize,
    },
}

impl<L> InclusionResult<L> {
    /// `true` if inclusion holds.
    pub fn holds(&self) -> bool {
        matches!(self, InclusionResult::Included { .. })
    }

    /// The counterexample word, if any.
    pub fn counterexample(&self) -> Option<&[L]> {
        match self {
            InclusionResult::Counterexample { word, .. } => Some(word),
            InclusionResult::Included { .. } => None,
        }
    }

    /// Number of product states explored.
    pub fn product_states(&self) -> usize {
        match self {
            InclusionResult::Included { product_states }
            | InclusionResult::Counterexample { product_states, .. } => *product_states,
        }
    }
}

/// A lazily explorable implementation transition system: the input side
/// of [`check_inclusion_otf`].
///
/// Letters are ids over the *specification's* interned alphabet (plus
/// any extension for implementation-only letters): ids below the
/// specification alphabet length are specification letters, ids at or
/// beyond it can never be matched and are immediate violations, and
/// [`EPSILON`] marks internal steps. [`SuccessorSource::letter`] must
/// resolve every id the source emits (used only to materialize
/// counterexample words).
pub trait SuccessorSource {
    /// Implementation state type.
    type State: Clone + Eq + Hash;
    /// Label type of counterexample words.
    type Label: Clone;

    /// Appends the initial states, in order.
    fn initial_states(&self, out: &mut Vec<Self::State>);

    /// Appends all transitions enabled in `state` as `(letter, successor)`
    /// pairs, in a fixed order ([`EPSILON`] for internal steps). The order
    /// defines BFS discovery order and hence counterexample identity.
    fn successors(&self, state: &Self::State, out: &mut Vec<(LetterId, Self::State)>);

    /// The label behind a letter id emitted by this source.
    fn letter(&self, id: LetterId) -> Self::Label;
}

/// Checks `L(source) ⊆ L(spec)` with **both** sides explored on the fly,
/// on the calling thread: implementation states are stepped lazily, and
/// specification states are interned and row-cached lazily in `cache` —
/// only the spec states the product actually reaches are ever computed.
/// An unbounded check passes [`QueryBudget::unlimited`].
///
/// Spec states and letter rows interned by earlier queries are reused,
/// so a session checking many TMs against one specification pays each
/// spec row at most once; results are bit-identical to a run on a fresh
/// cache (spec state ids are internal; discovery order is driven by the
/// implementation side and letter order only).
///
/// The state bound of `budget` covers fresh interns on both sides of the
/// product (already-interned cache rows never count against a later
/// query); the deadline is polled at BFS level boundaries
/// and every `INTERRUPT_STRIDE` product visits. Aborts are structured —
/// no engine resource limit panics.
///
/// # Errors
///
/// * [`EngineError::StateLimit`] — either side outgrew
///   `budget.max_states()`;
/// * [`EngineError::Deadline`] — the budget interrupted the
///   exploration;
/// * [`EngineError::FaultInjected`] — an armed [`crate::fault`] plan
///   fired (test/chaos builds only).
///
/// The partially interned cache rows stay valid for retries.
///
/// The discovery order is that of the seed checker in `tm_bench::oracle`,
/// hence the identical verdict, word, and `product_states`.
///
/// A query that interned specification states leaves the cache's tables
/// at their exact size (as a run graph is after its build), so a cache
/// grown by queries and the same rows rebuilt by
/// [`SpecCache::from_parts`] report the same [`SpecCache::heap_bytes`].
pub fn check_inclusion_otf<S: SuccessorSource, T: DeterministicTransitionSystem>(
    source: &S,
    cache: &mut SpecCache<T>,
    budget: &QueryBudget,
) -> Result<(InclusionResult<S::Label>, OtfStats), EngineError> {
    let interned = cache.touched();
    let result = product_bfs(source, cache, budget);
    if cache.touched() > interned {
        cache.shrink_to_fit();
    }
    result
}

/// The product BFS behind [`check_inclusion_otf`].
fn product_bfs<S: SuccessorSource, T: DeterministicTransitionSystem>(
    source: &S,
    cache: &mut SpecCache<T>,
    budget: &QueryBudget,
) -> Result<(InclusionResult<S::Label>, OtfStats), EngineError> {
    // Implementation letters at or beyond the specification's are
    // immediate violations.
    let spec_letters = cache.letters.len() as u32;
    let mut ex = Explorer::new(source, budget);
    let mut visited: FxHashSet<u64> = FxHashSet::default();
    let mut queue: Vec<(u32, u32)> = Vec::new();
    let mut parent: Vec<(u32, LetterId)> = Vec::new();

    let spec0 = cache.initial(budget)?;
    let mut inits = Vec::new();
    source.initial_states(&mut inits);
    for state in inits {
        let qi = ex.intern(state)?;
        if visited.insert(pack(qi, spec0)) {
            queue.push((qi, spec0));
            parent.push((ROOT, EPSILON));
        }
    }

    let mut head = 0usize;
    let mut depth_mark = queue.len();
    let mut levels = 0usize;
    observe_frontier(depth_mark);
    let mut level_span = PhaseTimer::start(Phase::BfsLevel).with_value(depth_mark as u64);
    while head < queue.len() {
        if head == depth_mark {
            levels += 1;
            depth_mark = queue.len();
            // Close the finished level's span and open the next one.
            let frontier = depth_mark - head;
            observe_frontier(frontier);
            level_span.stop();
            level_span = PhaseTimer::start(Phase::BfsLevel).with_value(frontier as u64);
            budget.check_interrupt()?;
        } else if head.is_multiple_of(INTERRUPT_STRIDE) {
            // Wide levels still poll the deadline at a bounded stride.
            budget.check_interrupt()?;
        }
        let (qi, qs) = queue[head];
        ex.ensure_row(qi)?;
        let row = ex.rows[qi as usize].as_deref().expect("row ensured above");
        for &(letter, target) in row {
            let qs2 = if letter == EPSILON {
                qs
            } else if letter < spec_letters {
                match cache.step(qs, letter, budget)? {
                    NO_STATE => {
                        return Ok(violation(
                            source,
                            &parent,
                            head,
                            letter,
                            queue.len(),
                            ex.states.len(),
                            levels,
                        ))
                    }
                    next => next,
                }
            } else {
                return Ok(violation(
                    source,
                    &parent,
                    head,
                    letter,
                    queue.len(),
                    ex.states.len(),
                    levels,
                ));
            };
            if visited.insert(pack(target, qs2)) {
                queue.push((target, qs2));
                parent.push((head as u32, letter));
            }
        }
        head += 1;
    }
    level_span.stop();
    Ok((
        InclusionResult::Included {
            product_states: queue.len(),
        },
        OtfStats {
            impl_states: ex.states.len(),
            levels,
        },
    ))
}

/// Statistics of an on-the-fly run, beyond the [`InclusionResult`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OtfStats {
    /// Distinct implementation states discovered. When inclusion holds
    /// this is the full reachable implementation state count (the paper's
    /// Table 2 "Size" column); on a violation it counts only the states
    /// explored before the check stopped.
    pub impl_states: usize,
    /// Number of BFS levels completed (edge depth of the exploration).
    pub levels: usize,
}

/// The cached letter-row table of a [`SpecCache`] in serialization form:
/// `rows[id]` is spec state `id`'s full letter row, `None` if that state
/// was interned but never stepped.
pub type SpecRows = Vec<Option<Box<[u32]>>>;

/// The specification artifact: a [`DeterministicTransitionSystem`] over
/// an ordered letter list (letter ids are indices into it), with a lazy
/// interning cache in front. Spec states become dense `u32` ids on first
/// touch, and each touched state's full letter row is computed once and
/// cached, so repeated product visits are table lookups.
///
/// Held across queries, the cache makes every subsequent check against
/// the same specification pay only for spec states it is the *first* to
/// touch. The system is never stepped twice for the same state. A session
/// owns its system (`SpecCache<tm_spec::QuotientSpec>`); a one-shot check can
/// borrow one, since the trait is implemented for references.
pub struct SpecCache<T: DeterministicTransitionSystem> {
    system: T,
    letters: Vec<T::Label>,
    ids: FxHashMap<T::State, u32>,
    states: Vec<T::State>,
    rows: SpecRows,
}

impl<T: DeterministicTransitionSystem> SpecCache<T> {
    /// Wraps `system` over `letters` with an empty cache; implementation
    /// sources must emit letter ids over the same list (in the same
    /// order).
    pub fn new(system: T, letters: Vec<T::Label>) -> Self {
        SpecCache {
            system,
            letters,
            ids: FxHashMap::default(),
            states: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The letter list, in id order.
    pub fn letters(&self) -> &[T::Label] {
        &self.letters
    }

    /// Number of distinct specification states touched so far (what a
    /// session reports as `spec_states`); the full determinized
    /// specification can be far larger.
    pub fn touched(&self) -> usize {
        self.states.len()
    }

    /// Number of letter rows fully computed so far (each is computed at
    /// most once across the cache's lifetime).
    pub fn rows_built(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// Estimated heap footprint in bytes of the cache's interned rows and
    /// state table: container capacities, elements at inline size (the
    /// convention session-level memory budgets count by). The system and
    /// its letter list are not counted — they are the cheap rule system
    /// the cache exists to avoid re-stepping, not a compiled artifact.
    pub fn heap_bytes(&self) -> usize {
        let rows: usize = self
            .rows
            .iter()
            .flatten()
            .map(|row| std::mem::size_of_val::<[u32]>(row))
            .sum();
        crate::fxhash::map_heap_bytes(&self.ids)
            + self.states.capacity() * std::mem::size_of::<T::State>()
            + self.rows.capacity() * std::mem::size_of::<Option<Box<[u32]>>>()
            + rows
    }

    /// Borrows the interned state table and cached letter rows — the
    /// serialization form used by the on-disk artifact store
    /// (`tm-store`). `states[id]` is the spec state behind id `id`;
    /// `rows[id]` is its cached full letter row (`None` if never
    /// stepped), entries indexing `states` with misses as [`NO_STATE`].
    pub fn parts(&self) -> (&[T::State], &SpecRows) {
        (&self.states, &self.rows)
    }

    /// Rebuilds a cache around `system` and `letters` from
    /// [`SpecCache::parts`] output, verifying before trusting the data
    /// that the tables are parallel, states are distinct, the first
    /// interned state is the system's initial state, and every row has
    /// exactly one entry per letter pointing inside the state table. The
    /// cache is a pure memo of `system.step` — ids are dense renames of
    /// spec states — so a verified import can only change *when* rows are
    /// computed, never what any query answers.
    ///
    /// # Errors
    ///
    /// A static description of the first violated invariant.
    pub fn from_parts(
        system: T,
        letters: Vec<T::Label>,
        states: Vec<T::State>,
        rows: SpecRows,
    ) -> Result<Self, &'static str> {
        if states.len() != rows.len() {
            return Err("state and row tables disagree in length");
        }
        if u32::try_from(states.len()).is_err() {
            return Err("more than u32::MAX spec states");
        }
        if let Some(first) = states.first() {
            if *first != system.initial() {
                return Err("first interned state is not the initial state");
            }
        }
        for row in rows.iter().flatten() {
            if row.len() != letters.len() {
                return Err("cached row has wrong letter count");
            }
            if row
                .iter()
                .any(|&id| id != NO_STATE && id as usize >= states.len())
            {
                return Err("cached row points outside the state table");
            }
        }
        let mut ids = FxHashMap::default();
        for (id, state) in states.iter().enumerate() {
            if ids.insert(state.clone(), id as u32).is_some() {
                return Err("duplicate interned state");
            }
        }
        let mut cache = SpecCache {
            system,
            letters,
            ids,
            states,
            rows,
        };
        cache.shrink_to_fit();
        Ok(cache)
    }

    /// Drops the growth slack of the interner and the state and row
    /// tables (row boxes are exact already), so [`SpecCache::heap_bytes`]
    /// depends only on the interned contents, not on how they arrived.
    fn shrink_to_fit(&mut self) {
        self.ids.shrink_to_fit();
        self.states.shrink_to_fit();
        self.rows.shrink_to_fit();
    }

    /// Interns `state` against `budget`: specification blowups are the
    /// same structured [`EngineError::StateLimit`] abort as
    /// implementation ones — this is the check the (3,3)/(4,2) scaling
    /// cases rely on, where the *spec* side is the wall. Already-interned
    /// states from earlier queries are free.
    fn intern(&mut self, state: T::State, budget: &QueryBudget) -> Result<u32, EngineError> {
        match self.ids.entry(state) {
            Entry::Occupied(entry) => Ok(*entry.get()),
            Entry::Vacant(entry) => {
                budget.check_states(self.states.len())?;
                let id = u32::try_from(self.states.len()).expect("more than u32::MAX spec states");
                self.states.push(entry.key().clone());
                self.rows.push(None);
                entry.insert(id);
                Ok(id)
            }
        }
    }

    /// The interned initial state.
    fn initial(&mut self, budget: &QueryBudget) -> Result<u32, EngineError> {
        let init = self.system.initial();
        self.intern(init, budget)
    }

    /// The successor id of `state` under `letter` (a specification
    /// letter), [`NO_STATE`] on a miss; computes and caches the state's
    /// full letter row on first touch.
    fn step(
        &mut self,
        state: u32,
        letter: LetterId,
        budget: &QueryBudget,
    ) -> Result<u32, EngineError> {
        if self.rows[state as usize].is_none() {
            // Spans cover only the miss path (one per row ever built), so
            // the hot cache-hit lookup stays untimed.
            let _span = PhaseTimer::start(Phase::SpecIntern).with_value(1);
            let generated: Vec<Option<T::State>> = self
                .letters
                .iter()
                .map(|l| self.system.step(&self.states[state as usize], l))
                .collect();
            let mut row = Vec::with_capacity(generated.len());
            for succ in generated {
                row.push(match succ {
                    Some(s) => self.intern(s, budget)?,
                    None => NO_STATE,
                });
            }
            self.rows[state as usize] = Some(row.into_boxed_slice());
        }
        Ok(self.rows[state as usize].as_deref().expect("row cached")[letter as usize])
    }
}

/// Root marker in parent arrays.
const ROOT: u32 = u32::MAX;

/// Observes one BFS level's frontier size into the global
/// `tm_frontier_states` histogram (recorded once per level).
fn observe_frontier(size: usize) {
    static FRONTIER: OnceLock<Histogram> = OnceLock::new();
    FRONTIER
        .get_or_init(|| {
            tm_obs::global_histogram(
                "tm_frontier_states",
                "Frontier size entering each BFS level of the product engine",
                &[],
                Unit::None,
            )
        })
        .observe(size as u64);
}

/// Packs a product pair into the visited-set key.
#[inline]
fn pack(qi: u32, qs: u32) -> u64 {
    (qi as u64) << 32 | qs as u64
}

/// A cached successor row: `(letter, target id)` per edge, in source
/// order.
type Row = Box<[(LetterId, u32)]>;

/// Lazy implementation-side explorer: interns structured states to dense
/// `u32` ids and caches each state's successor row on first touch, so the
/// source is stepped exactly once per reachable state.
struct Explorer<'a, S: SuccessorSource> {
    source: &'a S,
    ids: FxHashMap<S::State, u32>,
    states: Vec<S::State>,
    rows: Vec<Option<Row>>,
    /// Reused successor buffer of [`Explorer::ensure_row`].
    scratch: Vec<(LetterId, S::State)>,
    /// The query budget bounding distinct implementation states (the
    /// caller's declaration that the source was expected to be finite and
    /// bounded).
    budget: &'a QueryBudget,
}

impl<'a, S: SuccessorSource> Explorer<'a, S> {
    fn new(source: &'a S, budget: &'a QueryBudget) -> Self {
        Explorer {
            source,
            ids: FxHashMap::default(),
            states: Vec::new(),
            rows: Vec::new(),
            scratch: Vec::new(),
            budget,
        }
    }

    /// The id of `state`, interning it if new (one hash per call).
    fn intern(&mut self, state: S::State) -> Result<u32, EngineError> {
        match self.ids.entry(state) {
            Entry::Occupied(entry) => Ok(*entry.get()),
            Entry::Vacant(entry) => {
                self.budget.check_states(self.states.len())?;
                let id = u32::try_from(self.states.len()).expect("more than u32::MAX states");
                self.states.push(entry.key().clone());
                self.rows.push(None);
                entry.insert(id);
                Ok(id)
            }
        }
    }

    /// Interns an already-generated successor list as the row of `qi`,
    /// draining `generated`.
    fn store_row(
        &mut self,
        qi: u32,
        generated: &mut Vec<(LetterId, S::State)>,
    ) -> Result<(), EngineError> {
        let mut row = Vec::with_capacity(generated.len());
        for (letter, succ) in generated.drain(..) {
            row.push((letter, self.intern(succ)?));
        }
        self.rows[qi as usize] = Some(row.into_boxed_slice());
        Ok(())
    }

    /// Generates and caches the successor row of `qi` on first touch.
    fn ensure_row(&mut self, qi: u32) -> Result<(), EngineError> {
        if self.rows[qi as usize].is_some() {
            return Ok(());
        }
        let mut generated = std::mem::take(&mut self.scratch);
        self.source
            .successors(&self.states[qi as usize], &mut generated);
        let stored = self.store_row(qi, &mut generated);
        self.scratch = generated;
        stored
    }
}

/// Builds the violating return of the engine.
fn violation<S: SuccessorSource>(
    source: &S,
    parent: &[(u32, LetterId)],
    head: usize,
    letter: LetterId,
    product_states: usize,
    impl_states: usize,
    levels: usize,
) -> (InclusionResult<S::Label>, OtfStats) {
    let word = reconstruct_queue(source, parent, head, letter);
    (
        InclusionResult::Counterexample {
            word,
            product_states,
        },
        OtfStats {
            impl_states,
            levels,
        },
    )
}

/// Reconstructs a violating word along queue parent pointers.
fn reconstruct_queue<S: SuccessorSource>(
    source: &S,
    parent: &[(u32, LetterId)],
    mut at: usize,
    last_letter: LetterId,
) -> Vec<S::Label> {
    let mut word = vec![source.letter(last_letter)];
    loop {
        let (prev, letter) = parent[at];
        if prev == ROOT {
            break;
        }
        if letter != EPSILON {
            word.push(source.letter(letter));
        }
        at = prev as usize;
    }
    word.reverse();
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::dfa::Dfa;
    use crate::nfa::Nfa;

    /// Runs the engine without a budget against a fresh cache over `spec`.
    fn run_otf<S: SuccessorSource>(
        source: &S,
        spec: &Dfa<char>,
    ) -> (InclusionResult<S::Label>, OtfStats) {
        let mut cache = SpecCache::new(spec, spec.letter_ids());
        check_inclusion_otf(source, &mut cache, &QueryBudget::unlimited()).unwrap()
    }

    /// An [`Nfa`] as a [`SuccessorSource`] over the letter ids of
    /// `spec_letters`, its own labels interned after them.
    struct NfaStepper<'a> {
        nfa: &'a Nfa<char>,
        alphabet: Alphabet<char>,
    }

    impl<'a> NfaStepper<'a> {
        fn new(nfa: &'a Nfa<char>, spec_letters: &[char]) -> Self {
            let mut alphabet = Alphabet::from_letters(spec_letters);
            for q in 0..nfa.num_states() {
                for label in nfa.transitions_from(q).iter().filter_map(|(l, _)| l.as_ref()) {
                    alphabet.intern(label);
                }
            }
            NfaStepper { nfa, alphabet }
        }
    }

    impl SuccessorSource for NfaStepper<'_> {
        type State = usize;
        type Label = char;

        fn initial_states(&self, out: &mut Vec<usize>) {
            out.extend_from_slice(self.nfa.initial_states());
        }

        fn successors(&self, state: &usize, out: &mut Vec<(LetterId, usize)>) {
            for (label, target) in self.nfa.transitions_from(*state) {
                let letter = label.map_or(EPSILON, |l| self.alphabet.get(&l).expect("interned"));
                out.push((letter, *target));
            }
        }

        fn letter(&self, id: LetterId) -> char {
            *self.alphabet.letter(id)
        }
    }

    /// `L(nfa) ⊆ L(dfa)` through the engine, without a budget.
    fn check(nfa: &Nfa<char>, dfa: &Dfa<char>) -> InclusionResult<char> {
        run_otf(&NfaStepper::new(nfa, dfa.alphabet()), dfa).0
    }

    fn letter_nfa(letters: &[char]) -> Nfa<char> {
        let mut nfa = Nfa::new();
        let s = nfa.add_state();
        nfa.set_initial(s);
        for &l in letters {
            nfa.add_transition(s, Some(l), s);
        }
        nfa
    }

    fn letter_dfa(letters: &[char]) -> Dfa<char> {
        let mut dfa = Dfa::new(letters.to_vec());
        let q = dfa.add_state();
        dfa.set_initial(q);
        for l in letters {
            dfa.set_transition(q, l, q);
        }
        dfa
    }

    /// A chain with branching and ε-moves, long enough to have several
    /// BFS levels.
    fn chain_nfa(n: usize) -> Nfa<char> {
        let mut nfa = Nfa::new();
        let states: Vec<_> = (0..n).map(|_| nfa.add_state()).collect();
        nfa.set_initial(states[0]);
        for i in 0..n - 1 {
            nfa.add_transition(states[i], Some('a'), states[i + 1]);
            if i % 3 == 0 {
                nfa.add_transition(states[i], None, states[(i + 2).min(n - 1)]);
            }
            if i % 4 == 1 {
                nfa.add_transition(states[i], Some('b'), states[i]);
            }
        }
        nfa.add_transition(states[n - 1], Some('c'), states[n - 1]);
        nfa
    }

    /// Parity system: 'f' flips, 'z' only when even.
    struct Parity;

    impl DeterministicTransitionSystem for Parity {
        type State = bool;
        type Label = char;
        fn initial(&self) -> bool {
            false
        }
        fn step(&self, state: &bool, letter: &char) -> Option<bool> {
            match letter {
                'f' => Some(!state),
                'z' if !state => Some(*state),
                _ => None,
            }
        }
    }

    /// A system over `u64` states whose letters are their own ids.
    struct Counting(fn(u64, LetterId) -> Option<u64>);

    impl DeterministicTransitionSystem for Counting {
        type State = u64;
        type Label = LetterId;
        fn initial(&self) -> u64 {
            0
        }
        fn step(&self, state: &u64, letter: &LetterId) -> Option<u64> {
            (self.0)(*state, *letter)
        }
    }

    #[test]
    fn inclusion_holds_for_subset_alphabet() {
        let result = check(&letter_nfa(&['a']), &letter_dfa(&['a', 'b']));
        assert!(result.holds());
        assert_eq!(result.counterexample(), None);
        assert_eq!(result.product_states(), 1);
    }

    #[test]
    fn counterexample_is_shortest() {
        // Implementation: a* then one c allowed after a b.
        let mut imp = Nfa::new();
        let s0 = imp.add_state();
        let s1 = imp.add_state();
        imp.set_initial(s0);
        imp.add_transition(s0, Some('a'), s0);
        imp.add_transition(s0, Some('b'), s1);
        imp.add_transition(s1, Some('c'), s1);
        // Spec: only a and b.
        let mut spec = Dfa::new(vec!['a', 'b', 'c']);
        let q = spec.add_state();
        spec.set_initial(q);
        spec.set_transition(q, &'a', q);
        spec.set_transition(q, &'b', q);
        assert_eq!(check(&imp, &spec).counterexample(), Some(&['b', 'c'][..]));
    }

    #[test]
    fn epsilon_steps_do_not_consume_spec_letters() {
        let mut imp = Nfa::new();
        let s0 = imp.add_state();
        let s1 = imp.add_state();
        imp.set_initial(s0);
        imp.add_transition(s0, None, s1);
        imp.add_transition(s1, Some('a'), s1);
        assert!(check(&imp, &letter_dfa(&['a'])).holds());
    }

    #[test]
    fn letter_outside_spec_alphabet_is_violation() {
        let result = check(&letter_nfa(&['z']), &letter_dfa(&['a']));
        assert_eq!(result.counterexample(), Some(&['z'][..]));
    }

    #[test]
    fn stats_report_impl_states() {
        let nfa = chain_nfa(10);
        let spec = letter_dfa(&['a', 'b', 'c']);
        let source = NfaStepper::new(&nfa, spec.alphabet());
        let (result, stats) = run_otf(&source, &spec);
        assert!(result.holds());
        assert_eq!(stats.impl_states, nfa.num_states());
        assert!(stats.levels > 0);
    }

    #[test]
    fn bounded_engine_rejects_state_blowup_structurally() {
        let nfa = chain_nfa(10);
        let spec = letter_dfa(&['a', 'b', 'c']);
        let source = NfaStepper::new(&nfa, spec.alphabet());
        let mut cache = SpecCache::new(&spec, spec.letter_ids());
        // The engine returns the structured abort, never panics.
        assert_eq!(
            check_inclusion_otf(&source, &mut cache, &QueryBudget::new(4)).err(),
            Some(EngineError::StateLimit(4))
        );
    }

    #[test]
    fn expired_budget_aborts_the_search() {
        let nfa = chain_nfa(10);
        let spec = letter_dfa(&['a', 'b', 'c']);
        let source = NfaStepper::new(&nfa, spec.alphabet());
        let mut cache = SpecCache::new(&spec, spec.letter_ids());
        let expired = QueryBudget::unlimited().with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            check_inclusion_otf(&source, &mut cache, &expired).err(),
            Some(EngineError::Deadline)
        );
    }

    #[test]
    fn lazy_spec_blowup_is_a_structured_error() {
        // An infinite spec state space: the budget trips on *spec*
        // interning even though the implementation is a single state.
        let nfa = letter_nfa(&['a']);
        let source = NfaStepper::new(&nfa, &['a']);
        let mut cache = SpecCache::new(Counting(|state, _| Some(state + 1)), vec![0]);
        assert_eq!(
            check_inclusion_otf(&source, &mut cache, &QueryBudget::new(8)).err(),
            Some(EngineError::StateLimit(8))
        );
    }

    #[test]
    fn rule_system_matches_its_explored_dfa() {
        // The parity rules stepped lazily vs the DFA explored from them.
        let (dfa, _) =
            crate::explore_deterministic(&Parity, vec!['f', 'z'], &QueryBudget::new(10)).unwrap();
        for nfa in [
            letter_nfa(&['f']),
            letter_nfa(&['f', 'z']),
            letter_nfa(&['z']),
            chain_nfa(7),
        ] {
            let source = NfaStepper::new(&nfa, dfa.alphabet());
            let materialized = run_otf(&source, &dfa);
            let lazy = check_inclusion_otf(
                &source,
                &mut SpecCache::new(&Parity, vec!['f', 'z']),
                &QueryBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(lazy.0, materialized.0);
            assert_eq!(lazy.1, materialized.1);
        }
    }

    #[test]
    fn warm_spec_cache_runs_are_bit_identical() {
        let mut cache = SpecCache::new(&Parity, vec!['f', 'z']);
        let cases = [
            letter_nfa(&['f']),
            letter_nfa(&['f', 'z']),
            letter_nfa(&['z']),
            chain_nfa(7),
        ];
        let spec_dfa = crate::explore_deterministic(&Parity, vec!['f', 'z'], &QueryBudget::new(10))
            .unwrap()
            .0;
        // First pass populates the cache; the second answers from it. All
        // reported fields must match the cold (per-call) lazy path.
        for pass in 0..2 {
            let rows_before = cache.rows_built();
            for nfa in &cases {
                let source = NfaStepper::new(nfa, spec_dfa.alphabet());
                let unlimited = QueryBudget::unlimited();
                let cold = check_inclusion_otf(
                    &source,
                    &mut SpecCache::new(&Parity, vec!['f', 'z']),
                    &unlimited,
                )
                .unwrap();
                let warm = check_inclusion_otf(&source, &mut cache, &unlimited).unwrap();
                assert_eq!(warm.0, cold.0, "pass {pass}");
                assert_eq!(warm.1, cold.1, "pass {pass}");
            }
            if pass == 1 {
                // Nothing new to intern on the warm pass.
                assert_eq!(cache.rows_built(), rows_before);
            }
        }
        assert_eq!(cache.touched(), 2); // both parity states reached
    }

    #[test]
    fn spec_cache_heap_bytes_grow_with_interned_rows() {
        let counter =
            Counting(|state, letter| (state < 50).then_some(state * 4 + u64::from(letter)));
        let mut cache = SpecCache::new(counter, vec![0, 1, 2, 3]);
        let empty = cache.heap_bytes();
        let unlimited = QueryBudget::unlimited();
        // Walk a few states, forcing their full letter rows.
        let mut q = cache.initial(&unlimited).unwrap();
        for letter in [0, 1, 2, 3] {
            q = cache.step(q, letter, &unlimited).unwrap();
        }
        let _ = cache.step(q, 0, &unlimited).unwrap();
        let warm = cache.heap_bytes();
        // Every fully computed row is a boxed `[u32; num_letters]`; the
        // state table and interner grew alongside.
        let floor = cache.rows_built() * 4 * std::mem::size_of::<u32>()
            + cache.touched() * std::mem::size_of::<u64>();
        assert!(warm >= empty + floor, "{empty} -> {warm}, floor {floor}");
    }

    /// A two-letter system over `u64` states, initial state 0, for the
    /// [`SpecCache::from_parts`] tests.
    fn two_letters() -> Counting {
        Counting(|state, letter| Some(state + u64::from(letter) + 1))
    }

    fn rejection(states: Vec<u64>, rows: SpecRows) -> Option<&'static str> {
        SpecCache::from_parts(two_letters(), vec![0, 1], states, rows).err()
    }

    fn row(entries: &[u32]) -> Option<Box<[u32]>> {
        Some(entries.into())
    }

    // One test per rejection branch of `from_parts`, except "more than
    // u32::MAX spec states": reaching it takes about 4 G states.

    #[test]
    fn from_parts_accepts_and_returns_valid_parts() {
        let states = vec![0, 1, 2];
        let rows = vec![row(&[1, 2]), None, row(&[NO_STATE, 0])];
        let cache =
            SpecCache::from_parts(two_letters(), vec![0, 1], states.clone(), rows.clone()).unwrap();
        assert_eq!(cache.parts(), (&states[..], &rows));
        assert_eq!(cache.touched(), 3);
        assert_eq!(cache.rows_built(), 2);
    }

    #[test]
    fn from_parts_rejects_tables_of_different_lengths() {
        assert_eq!(
            rejection(vec![0, 1], vec![None]),
            Some("state and row tables disagree in length")
        );
    }

    #[test]
    fn from_parts_rejects_a_first_state_other_than_the_initial_state() {
        assert_eq!(
            rejection(vec![5], vec![None]),
            Some("first interned state is not the initial state")
        );
    }

    #[test]
    fn from_parts_rejects_a_row_with_the_wrong_letter_count() {
        assert_eq!(
            rejection(vec![0], vec![row(&[0])]),
            Some("cached row has wrong letter count")
        );
    }

    #[test]
    fn from_parts_rejects_a_row_target_out_of_range() {
        assert_eq!(
            rejection(vec![0, 1], vec![row(&[1, 2]), None]),
            Some("cached row points outside the state table")
        );
    }

    #[test]
    fn from_parts_rejects_a_duplicate_state() {
        assert_eq!(
            rejection(vec![0, 1, 1], vec![None, None, None]),
            Some("duplicate interned state")
        );
    }
}
