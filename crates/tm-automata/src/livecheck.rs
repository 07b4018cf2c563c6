//! Compiled liveness engine: CSR run graphs, mask-filtered SCC search,
//! and the first-violation scan over independent loop queries.
//!
//! The paper reduces each liveness property (§6, Theorem 5) to the absence
//! of a certain *loop* in the run-level transition system of the TM
//! applied to the most general program. The seed checker (a test oracle in
//! `tm_bench::oracle`) materializes that system as a boxed labelled edge
//! list and, for every thread subset, **clones** a filtered subgraph and
//! reruns Tarjan on it — `2^n` copies of the graph for the livelock check
//! alone.
//!
//! This module is the liveness counterpart of the on-the-fly product
//! engine in `product.rs`:
//!
//! * [`CompiledRunGraph`] explores a [`RunGraphSource`] breadth-first and
//!   compiles it **directly** into CSR adjacency: a `row_start` offset per
//!   state and two edge columns, a `u32` target and a `u16` label id
//!   (6 bytes per edge). Labels are interned to dense ids, and each
//!   label's [`EdgeMask`] (thread, commit, abort, emits-statement bits)
//!   is computed once when it is interned, so an edge's class is one
//!   lookup through its label. Every array is shrunk to fit when the
//!   build ends, so [`CompiledRunGraph::heap_bytes`] is exact. The
//!   labelled edge list of the seed path is never built.
//! * [`CompiledRunGraph::sccs_masked`] runs an iterative Tarjan that takes
//!   an [`EdgeFilter`] (two mask words) instead of a cloned subgraph; all
//!   scratch state lives in a reusable [`LiveScratch`] arena, so the
//!   `2^n` livelock subsets and the per-thread obstruction / wait passes
//!   share one graph and one allocation.
//! * [`CompiledRunGraph::find_loop`] answers one [`LoopQuery`] — find a
//!   reachable loop containing, for each required mask, an edge matching
//!   it — and extracts the violating lasso (shortest prefix from the
//!   initial state plus a closed walk through the required edges) straight
//!   from the CSR. Edge enumeration order equals the seed path's
//!   (state-major, insertion order per state), so verdicts **and lassos**
//!   are identical to the reference checker's.
//! * [`CompiledRunGraph::find_first_loop`] runs independent queries in
//!   index order on the calling thread, sharing one [`LiveScratch`], and
//!   stops at the first violation.
//!
//! Every search takes a [`QueryBudget`]; an unbounded one passes
//! [`QueryBudget::unlimited`].

use std::collections::hash_map::Entry;
use std::hash::Hash;

use tm_obs::{Phase, PhaseTimer};

use crate::budget::{EngineError, QueryBudget};
use crate::fxhash::FxHashMap;

/// How many units of work (BFS visits during build, Tarjan iterations
/// during SCC search) pass between deadline checks.
const INTERRUPT_STRIDE: usize = 4096;

/// Maximum thread count of the checked TM instance representable in an
/// [`EdgeMask`]: thread ids occupy the low bits, one-hot.
pub const MAX_MASK_THREADS: usize = 8;

/// Per-edge class bits: one-hot thread id in the low
/// [`MAX_MASK_THREADS`] bits, then the commit / abort / emits-statement
/// flags.
pub type EdgeMask = u16;

/// [`EdgeMask`] bit: the edge completes a commit command.
pub const MASK_COMMIT: EdgeMask = 1 << MAX_MASK_THREADS;
/// [`EdgeMask`] bit: the edge aborts a transaction.
pub const MASK_ABORT: EdgeMask = 1 << (MAX_MASK_THREADS + 1);
/// [`EdgeMask`] bit: the edge emits a word-level statement (completions
/// and aborts do; internal `⊥`-response steps do not).
pub const MASK_EMITS: EdgeMask = 1 << (MAX_MASK_THREADS + 2);
/// [`EdgeMask`] bits covering every representable thread.
pub const MASK_ALL_THREADS: EdgeMask = (1 << MAX_MASK_THREADS) - 1;

/// The classification of a run-graph label, provided once per distinct
/// label by [`RunGraphSource::classify`] and stored as that label's
/// [`EdgeMask`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LabelClass {
    /// 0-based id of the thread taking the step.
    pub thread: usize,
    /// `true` if the step completes a commit command.
    pub is_commit: bool,
    /// `true` if the step aborts a transaction.
    pub is_abort: bool,
    /// `true` if the step emits a word-level statement.
    pub emits_statement: bool,
}

impl LabelClass {
    /// Packs the class into an [`EdgeMask`].
    ///
    /// # Panics
    ///
    /// Panics if `thread >= MAX_MASK_THREADS`.
    pub fn mask(self) -> EdgeMask {
        assert!(
            self.thread < MAX_MASK_THREADS,
            "thread id {} exceeds the {MAX_MASK_THREADS}-thread mask capacity",
            self.thread
        );
        let mut mask = 1 << self.thread;
        if self.is_commit {
            mask |= MASK_COMMIT;
        }
        if self.is_abort {
            mask |= MASK_ABORT;
        }
        if self.emits_statement {
            mask |= MASK_EMITS;
        }
        mask
    }
}

/// A lazily explorable run-level transition system: the input of
/// [`CompiledRunGraph::build`]. Implemented by the TM steppers
/// (`tm_algorithms::MostGeneralRunSource`) so the run graph is compiled
/// while it is discovered, without an intermediate edge list.
pub trait RunGraphSource {
    /// Structured state type.
    type State: Clone + Eq + Hash;
    /// Edge label type (interned by the builder).
    type Label: Clone + Eq + Hash;

    /// The initial state.
    fn initial_state(&self) -> Self::State;

    /// Appends all steps enabled in `state` as `(label, successor)` pairs,
    /// in a fixed order. The order defines state numbering and edge
    /// enumeration order, and hence lasso identity.
    fn successors(&self, state: &Self::State, out: &mut Vec<(Self::Label, Self::State)>);

    /// Classifies a label; called once per distinct label at interning
    /// time.
    fn classify(&self, label: &Self::Label) -> LabelClass;
}

/// An edge predicate over [`EdgeMask`]s: the compiled form of the seed
/// path's `filtered(|_, l, _| ...)` closures. An edge with mask `m` is
/// kept iff
///
/// * `m & keep_any != 0` (some required bit present — e.g. "the thread is
///   in the subset"), and
/// * `forbid_all == 0` or `m & forbid_all != forbid_all` (not all
///   forbidden bits present — e.g. "not a commit", or "not a commit *of
///   this thread*" when the forbid mask pairs a thread bit with
///   [`MASK_COMMIT`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EdgeFilter {
    /// Keep only edges sharing a bit with this mask.
    pub keep_any: EdgeMask,
    /// Drop edges containing **all** bits of this mask (`0` forbids
    /// nothing).
    pub forbid_all: EdgeMask,
}

impl EdgeFilter {
    /// `true` if an edge with mask `mask` survives the filter.
    #[inline]
    pub fn keeps(self, mask: EdgeMask) -> bool {
        mask & self.keep_any != 0
            && (self.forbid_all == 0 || mask & self.forbid_all != self.forbid_all)
    }
}

/// How [`CompiledRunGraph::find_loop`] picks the loop to report among the
/// candidates, mirroring the seed checker's two search shapes so lassos
/// come out identical.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopSelection {
    /// Single requirement: the first matching cyclic edge in edge
    /// enumeration order, whatever SCC it lies in (the seed's
    /// `find_cyclic_edge`).
    FirstEdge,
    /// Multiple requirements: the first SCC in component-index order whose
    /// cyclic edges cover every required mask, each requirement resolved
    /// to its first matching edge (the seed's per-component livelock
    /// loop).
    FirstComponent,
}

/// One liveness pass: search the [`EdgeFilter`]-induced subgraph for a
/// loop containing, for each entry of `required`, an edge whose mask has
/// all of that entry's bits.
#[derive(Clone, Debug)]
pub struct LoopQuery {
    /// The subgraph to search.
    pub filter: EdgeFilter,
    /// Edge-class requirements; each must be witnessed by a kept cyclic
    /// edge (`mask & required == required`) on one common loop.
    pub required: Vec<EdgeMask>,
    /// Candidate-selection mode (determines lasso identity, not the
    /// verdict).
    pub selection: LoopSelection,
}

/// A liveness counterexample in compiled form: label sequences of the
/// shortest prefix from the initial state and of the closed walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledLasso<L> {
    /// Labels of the run from the initial state to the loop entry.
    pub prefix: Vec<L>,
    /// Labels of the loop (non-empty).
    pub cycle: Vec<L>,
}

const UNVISITED: u32 = u32::MAX;

/// Reusable scratch arena for [`CompiledRunGraph::sccs_masked`],
/// [`CompiledRunGraph::find_loop`] and the BFS walks of lasso extraction:
/// one allocation shared by every mask-filtered pass over one graph.
#[derive(Default, Debug)]
pub struct LiveScratch {
    // Tarjan state.
    index: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    work: Vec<(u32, u32)>,
    component: Vec<u32>,
    count: u32,
    // Per-(component, requirement) first `(source, edge)` table of the
    // `FirstComponent` search.
    first_match: Vec<(u32, u32)>,
    // Generation-stamped BFS state (no O(n) clear between walks).
    bfs_seen: Vec<u32>,
    bfs_pred: Vec<(u32, u32)>,
    bfs_queue: Vec<u32>,
    bfs_generation: u32,
}

impl LiveScratch {
    /// The SCC index of `state` under the most recent
    /// [`CompiledRunGraph::sccs_masked`] run.
    pub fn component_of(&self, state: usize) -> usize {
        self.component[state] as usize
    }

    /// Number of SCCs of the most recent run.
    pub fn num_components(&self) -> usize {
        self.count as usize
    }
}

/// A run-level transition graph compiled to CSR with interned labels and
/// one class mask per label. Built on the fly from a [`RunGraphSource`];
/// state 0 is the initial state, states and per-state edges are numbered
/// in discovery order (identical to the seed exploration's, so component
/// indices, loop choices, and lassos match the reference checker).
#[derive(Clone, Debug)]
pub struct CompiledRunGraph<L> {
    labels: Vec<L>,
    /// Class mask per label id.
    label_mask: Vec<EdgeMask>,
    /// CSR row boundaries: edges of state `v` are
    /// `row_start[v]..row_start[v + 1]`.
    row_start: Vec<u32>,
    edge_target: Vec<u32>,
    edge_label: Vec<u16>,
}

/// The raw CSR arrays of a [`CompiledRunGraph`]
/// ([`CompiledRunGraph::parts`] / [`CompiledRunGraph::from_parts`]):
/// the serialization form used by the on-disk artifact store. Field
/// meanings match the private fields of [`CompiledRunGraph`]; the label
/// masks are not part of it, since they follow from the labels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunGraphParts<L> {
    /// Interned labels, in id order.
    pub labels: Vec<L>,
    /// CSR row boundaries (length `num_states + 1`, starting at 0).
    pub row_start: Vec<u32>,
    /// Target state per edge.
    pub edge_target: Vec<u32>,
    /// Label id per edge (index into `labels`).
    pub edge_label: Vec<u16>,
}

impl<L: Clone + Eq + Hash> CompiledRunGraph<L> {
    /// Explores `source` breadth-first and compiles the reachable run
    /// graph, returning it with the interning table of structured states
    /// (`states[id]` is the state behind graph node `id`).
    ///
    /// # Errors
    ///
    /// [`EngineError::StateLimit`] if the reachable state space exceeds
    /// `max_states`.
    pub fn build<S: RunGraphSource<Label = L>>(
        source: &S,
        max_states: usize,
    ) -> Result<(Self, Vec<S::State>), EngineError> {
        Self::build_budget(source, &QueryBudget::new(max_states))
    }

    /// [`CompiledRunGraph::build`] under a full [`QueryBudget`]: the state
    /// bound is checked before every intern, the deadline
    /// every `INTERRUPT_STRIDE` expanded states.
    ///
    /// # Errors
    ///
    /// [`EngineError::StateLimit`] or [`EngineError::Deadline`] per the
    /// budget.
    ///
    /// # Panics
    ///
    /// If the source has more than 65,536 distinct labels (label ids are
    /// `u16`; the TM instances the service admits have far fewer), or a
    /// label's thread id is not below [`MAX_MASK_THREADS`].
    pub fn build_budget<S: RunGraphSource<Label = L>>(
        source: &S,
        budget: &QueryBudget,
    ) -> Result<(Self, Vec<S::State>), EngineError> {
        let mut span = PhaseTimer::start(Phase::RunGraphBuild);
        let mut label_ids: FxHashMap<L, u16> = FxHashMap::default();
        let mut labels: Vec<L> = Vec::new();
        let mut label_mask: Vec<EdgeMask> = Vec::new();

        let mut state_ids: FxHashMap<S::State, u32> = FxHashMap::default();
        let mut states: Vec<S::State> = Vec::new();
        let init = source.initial_state();
        state_ids.insert(init.clone(), 0);
        states.push(init);

        let mut row_start: Vec<u32> = vec![0];
        let mut edge_target: Vec<u32> = Vec::new();
        let mut edge_label: Vec<u16> = Vec::new();

        // States are expanded in id (FIFO) order, so CSR rows are emitted
        // sequentially and the edge arrays need no sorting pass.
        let mut buf: Vec<(L, S::State)> = Vec::new();
        let mut head = 0usize;
        while head < states.len() {
            if head.is_multiple_of(INTERRUPT_STRIDE) {
                budget.check_interrupt()?;
            }
            buf.clear();
            source.successors(&states[head], &mut buf);
            for (label, succ) in buf.drain(..) {
                let lid = match label_ids.entry(label) {
                    Entry::Occupied(entry) => *entry.get(),
                    Entry::Vacant(entry) => {
                        let id = u16::try_from(labels.len()).expect("more than 65,536 labels");
                        label_mask.push(source.classify(entry.key()).mask());
                        labels.push(entry.key().clone());
                        *entry.insert(id)
                    }
                };
                let to = match state_ids.entry(succ) {
                    Entry::Occupied(entry) => *entry.get(),
                    Entry::Vacant(entry) => {
                        budget.check_states(states.len())?;
                        let id =
                            u32::try_from(states.len()).expect("more than u32::MAX run states");
                        states.push(entry.key().clone());
                        *entry.insert(id)
                    }
                };
                edge_target.push(to);
                edge_label.push(lid);
            }
            row_start.push(u32::try_from(edge_target.len()).expect("more than u32::MAX edges"));
            head += 1;
        }
        // Rows exist for exactly the discovered states.
        debug_assert_eq!(row_start.len(), states.len() + 1);
        span.set_value(states.len() as u64);
        let graph = CompiledRunGraph {
            labels,
            label_mask,
            row_start,
            edge_target,
            edge_label,
        };
        Ok((graph.shrunk(), states))
    }
}

impl<L> CompiledRunGraph<L> {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.edge_target.len()
    }

    /// Number of distinct (interned) labels.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// Heap footprint in bytes: the capacities of the CSR arrays, labels
    /// counted at their inline size (convention of
    /// [`crate::SpecCache::heap_bytes`]). Built and loaded graphs hold
    /// exact-size arrays, so this is
    /// `(states + 1)·4 + edges·6 + labels·(size_of::<L>() + 2)`.
    pub fn heap_bytes(&self) -> usize {
        (self.row_start.capacity() + self.edge_target.capacity()) * std::mem::size_of::<u32>()
            + self.edge_label.capacity() * std::mem::size_of::<u16>()
            + self.label_mask.capacity() * std::mem::size_of::<EdgeMask>()
            + self.labels.capacity() * std::mem::size_of::<L>()
    }

    /// The graph with every array shrunk to its length.
    fn shrunk(mut self) -> Self {
        self.labels.shrink_to_fit();
        self.label_mask.shrink_to_fit();
        self.row_start.shrink_to_fit();
        self.edge_target.shrink_to_fit();
        self.edge_label.shrink_to_fit();
        self
    }

    /// The edges of state `v`, as indices into the edge columns.
    #[inline]
    fn row(&self, v: usize) -> std::ops::Range<usize> {
        self.row_start[v] as usize..self.row_start[v + 1] as usize
    }

    /// The class mask of edge `e`: its label's.
    #[inline]
    fn mask_of(&self, e: usize) -> EdgeMask {
        self.label_mask[self.edge_label[e] as usize]
    }

    /// Iterates over all edges as `(from, &label, to)`, in the engine's
    /// canonical enumeration order (state-major, discovery order per
    /// state) — the order loop candidates are selected in.
    pub fn edges(&self) -> impl Iterator<Item = (usize, &L, usize)> + '_ {
        (0..self.num_states()).flat_map(move |v| {
            self.row(v).map(move |e| {
                (
                    v,
                    &self.labels[self.edge_label[e] as usize],
                    self.edge_target[e] as usize,
                )
            })
        })
    }

    /// Borrows the raw CSR arrays — the fields of [`RunGraphParts`], in
    /// order: labels, row offsets, edge targets, edge label ids. This is
    /// what the on-disk artifact store (`tm-store`) encodes.
    pub fn parts(&self) -> (&[L], &[u32], &[u32], &[u16]) {
        (
            &self.labels,
            &self.row_start,
            &self.edge_target,
            &self.edge_label,
        )
    }

    /// Reassembles a run graph from raw CSR arrays
    /// ([`CompiledRunGraph::parts`]), verifying every structural
    /// invariant [`CompiledRunGraph::build_budget`] establishes before
    /// trusting the data: CSR shape and monotonicity, array lengths, and
    /// id ranges. The label masks are recomputed by `classify`, as the
    /// build does with [`RunGraphSource::classify`]. A graph that passes
    /// is behaviourally indistinguishable from a freshly built one — SCC
    /// indices, loop choices, and lassos are functions of these arrays
    /// alone — and holds exact-size arrays, so it reports the same
    /// [`CompiledRunGraph::heap_bytes`].
    ///
    /// # Errors
    ///
    /// A static description of the first violated invariant.
    pub fn from_parts(
        parts: RunGraphParts<L>,
        classify: impl Fn(&L) -> LabelClass,
    ) -> Result<Self, &'static str> {
        let RunGraphParts {
            labels,
            row_start,
            edge_target,
            edge_label,
        } = parts;
        if row_start.first() != Some(&0) {
            return Err("CSR rows do not start at 0");
        }
        if row_start.windows(2).any(|w| w[0] > w[1]) {
            return Err("CSR offsets are not monotone");
        }
        let num_states = row_start.len() - 1;
        let num_edges = *row_start.last().expect("nonempty") as usize;
        if edge_target.len() != num_edges || edge_label.len() != num_edges {
            return Err("edge arrays do not cover the CSR rows");
        }
        if edge_target.iter().any(|&t| t as usize >= num_states) {
            return Err("edge target out of range");
        }
        if edge_label.iter().any(|&l| l as usize >= labels.len()) {
            return Err("edge label out of range");
        }
        let label_mask = labels
            .iter()
            .map(|label| {
                let class = classify(label);
                if class.thread < MAX_MASK_THREADS {
                    Ok(class.mask())
                } else {
                    Err("label thread exceeds the mask capacity")
                }
            })
            .collect::<Result<Vec<EdgeMask>, _>>()?;
        let graph = CompiledRunGraph {
            labels,
            label_mask,
            row_start,
            edge_target,
            edge_label,
        };
        Ok(graph.shrunk())
    }

    /// Computes the SCCs of the subgraph induced by `filter` with an
    /// iterative Tarjan over the CSR, storing the result in `scratch`
    /// (query it via [`LiveScratch::component_of`] /
    /// [`LiveScratch::num_components`]). No subgraph is materialized and
    /// no allocation happens once the arena has grown to the graph's
    /// size.
    ///
    /// Component indices are identical to running the seed checker's
    /// Tarjan (`tm_bench::oracle`) on the materialized filtered
    /// subgraph: roots are tried in state order and edges are visited in
    /// enumeration order, skipping filtered ones.
    ///
    /// The deadline of `budget` is polled every
    /// `INTERRUPT_STRIDE` Tarjan iterations (an interrupted run leaves
    /// `scratch` in an unspecified — but reusable — state).
    ///
    /// # Errors
    ///
    /// [`EngineError::Deadline`] per the budget; the state bound does not apply (the graph is already
    /// built).
    pub fn sccs_masked(
        &self,
        filter: EdgeFilter,
        scratch: &mut LiveScratch,
        budget: &QueryBudget,
    ) -> Result<(), EngineError> {
        let _span = PhaseTimer::start(Phase::SccSearch).with_value(self.num_states() as u64);
        let n = self.num_states();
        scratch.index.clear();
        scratch.index.resize(n, UNVISITED);
        scratch.low.clear();
        scratch.low.resize(n, 0);
        scratch.on_stack.clear();
        scratch.on_stack.resize(n, false);
        scratch.stack.clear();
        scratch.work.clear();
        scratch.component.clear();
        scratch.component.resize(n, UNVISITED);
        scratch.count = 0;

        let mut next_index = 0u32;
        let mut ticks = 0usize;
        for root in 0..n as u32 {
            if scratch.index[root as usize] != UNVISITED {
                continue;
            }
            scratch.work.push((root, self.row_start[root as usize]));
            while let Some(&mut (v, ref mut cursor)) = scratch.work.last_mut() {
                ticks += 1;
                if ticks.is_multiple_of(INTERRUPT_STRIDE) {
                    budget.check_interrupt()?;
                }
                let vi = v as usize;
                if scratch.index[vi] == UNVISITED {
                    scratch.index[vi] = next_index;
                    scratch.low[vi] = next_index;
                    next_index += 1;
                    scratch.stack.push(v);
                    scratch.on_stack[vi] = true;
                }
                // Advance the cursor to the next kept edge of v.
                let row_end = self.row_start[vi + 1];
                let mut next_edge = None;
                while *cursor < row_end {
                    let e = *cursor as usize;
                    *cursor += 1;
                    if filter.keeps(self.mask_of(e)) {
                        next_edge = Some(e);
                        break;
                    }
                }
                match next_edge {
                    Some(e) => {
                        let w = self.edge_target[e] as usize;
                        if scratch.index[w] == UNVISITED {
                            scratch.work.push((w as u32, self.row_start[w]));
                        } else if scratch.on_stack[w] {
                            scratch.low[vi] = scratch.low[vi].min(scratch.index[w]);
                        }
                    }
                    None => {
                        // All children done: close v.
                        if scratch.low[vi] == scratch.index[vi] {
                            loop {
                                let w = scratch.stack.pop().expect("tarjan stack underflow");
                                scratch.on_stack[w as usize] = false;
                                scratch.component[w as usize] = scratch.count;
                                if w == v {
                                    break;
                                }
                            }
                            scratch.count += 1;
                        }
                        let (v, _) = scratch.work.pop().expect("frame exists");
                        if let Some(&mut (u, _)) = scratch.work.last_mut() {
                            let (ui, vi) = (u as usize, v as usize);
                            scratch.low[ui] = scratch.low[ui].min(scratch.low[vi]);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl<L: Clone> CompiledRunGraph<L> {
    /// Answers one [`LoopQuery`]: SCC-decomposes the filtered subgraph,
    /// finds a loop witnessing every required mask, and extracts its
    /// lasso (shortest prefix through the **full** graph, closed walk
    /// through the filtered SCC). Returns `None` if no such loop exists.
    /// The budget is polled during the SCC decomposition, the dominant
    /// phase.
    ///
    /// # Errors
    ///
    /// [`EngineError::Deadline`] per the budget.
    pub fn find_loop(
        &self,
        query: &LoopQuery,
        scratch: &mut LiveScratch,
        budget: &QueryBudget,
    ) -> Result<Option<CompiledLasso<L>>, EngineError> {
        self.sccs_masked(query.filter, scratch, budget)?;
        // Each selection scan below is SCC search time: its own span
        // closes before `build_lasso` opens `LassoExtract`, so no time is
        // counted twice.
        Ok(match query.selection {
            LoopSelection::FirstEdge => {
                let scan = PhaseTimer::start(Phase::SccSearch);
                let found = query.required.first().and_then(|&req| {
                    (0..self.num_states()).find_map(|v| {
                        self.row(v)
                            .find(|&e| {
                                let mask = self.mask_of(e);
                                query.filter.keeps(mask)
                                    && mask & req == req
                                    && scratch.component[v]
                                        == scratch.component[self.edge_target[e] as usize]
                            })
                            .map(|e| (v as u32, e as u32))
                    })
                });
                scan.stop();
                found.and_then(|edge| self.build_lasso(query.filter, scratch, &[edge]))
            }
            LoopSelection::FirstComponent => {
                let r = query.required.len();
                if r == 0 {
                    return Ok(None);
                }
                let scan = PhaseTimer::start(Phase::SccSearch);
                let count = scratch.count as usize;
                let mut first_match = std::mem::take(&mut scratch.first_match);
                first_match.clear();
                first_match.resize(count * r, (UNVISITED, UNVISITED));
                for v in 0..self.num_states() {
                    let comp = scratch.component[v];
                    for e in self.row(v) {
                        let mask = self.mask_of(e);
                        if !query.filter.keeps(mask)
                            || comp != scratch.component[self.edge_target[e] as usize]
                        {
                            continue;
                        }
                        for (j, &req) in query.required.iter().enumerate() {
                            let slot = &mut first_match[comp as usize * r + j];
                            if slot.1 == UNVISITED && mask & req == req {
                                *slot = (v as u32, e as u32);
                            }
                        }
                    }
                }
                scan.stop();
                let mut result = None;
                for comp in 0..count {
                    let slots = &first_match[comp * r..(comp + 1) * r];
                    if slots.iter().any(|&(_, e)| e == UNVISITED) {
                        continue;
                    }
                    let required: Vec<(u32, u32)> = slots.to_vec();
                    if let Some(lasso) = self.build_lasso(query.filter, scratch, &required) {
                        result = Some(lasso);
                        break;
                    }
                }
                scratch.first_match = first_match;
                result
            }
        })
    }

    /// Runs independent queries in index order and returns the first
    /// violation, with its query index: the liveness scan of the
    /// `tm_checker::Verifier` session. Queries after the first violation
    /// are not run. One [`LiveScratch`] serves every query, and the
    /// budget is polled inside each SCC search.
    ///
    /// # Errors
    ///
    /// [`EngineError::Deadline`] — the budget interrupted a loop
    /// search.
    pub fn find_first_loop(
        &self,
        queries: &[LoopQuery],
        budget: &QueryBudget,
    ) -> Result<Option<(usize, CompiledLasso<L>)>, EngineError> {
        let mut scratch = LiveScratch::default();
        for (i, q) in queries.iter().enumerate() {
            if let Some(lasso) = self.find_loop(q, &mut scratch, budget)? {
                return Ok(Some((i, lasso)));
            }
        }
        Ok(None)
    }

    /// Wraps the `required` edges (`(source state, edge index)` pairs,
    /// all within one SCC of the filtered subgraph) into a lasso: a
    /// closed walk starting and ending at the source of the first
    /// required edge, visiting every required edge, prefixed by a
    /// shortest path from state 0 through the full (unfiltered) graph.
    fn build_lasso(
        &self,
        filter: EdgeFilter,
        scratch: &mut LiveScratch,
        required: &[(u32, u32)],
    ) -> Option<CompiledLasso<L>> {
        let _span = PhaseTimer::start(Phase::LassoExtract);
        let (&(home, first), rest) = required.split_first()?;
        let comp = scratch.component[home as usize];
        // All endpoints must share the SCC (guaranteed by the callers;
        // kept as the same guard the reference walk has).
        for &(from, e) in required {
            if scratch.component[from as usize] != comp
                || scratch.component[self.edge_target[e as usize] as usize] != comp
            {
                return None;
            }
        }
        let mut walk: Vec<u32> = vec![first];
        let mut at = self.edge_target[first as usize];
        for &(entry, e) in rest {
            self.bfs_path(at, entry, Some((filter, comp)), scratch, &mut walk)?;
            walk.push(e);
            at = self.edge_target[e as usize];
        }
        self.bfs_path(at, home, Some((filter, comp)), scratch, &mut walk)?;

        let mut prefix: Vec<u32> = Vec::new();
        self.bfs_path(0, home, None, scratch, &mut prefix)?;
        Some(CompiledLasso {
            prefix: prefix
                .into_iter()
                .map(|e| self.labels[self.edge_label[e as usize] as usize].clone())
                .collect(),
            cycle: walk
                .into_iter()
                .map(|e| self.labels[self.edge_label[e as usize] as usize].clone())
                .collect(),
        })
    }

    /// Appends a shortest path (edge indices) from `from` to `target` to
    /// `out`. With `restrict = Some((filter, comp))` the path uses only
    /// kept edges whose endpoints lie in SCC `comp` of the current
    /// `scratch` decomposition; with `None` the full graph. BFS visits
    /// edges in enumeration order, so ties break exactly as in the seed
    /// checker's BFS (`tm_bench::oracle`).
    fn bfs_path(
        &self,
        from: u32,
        target: u32,
        restrict: Option<(EdgeFilter, u32)>,
        scratch: &mut LiveScratch,
        out: &mut Vec<u32>,
    ) -> Option<()> {
        if from == target {
            return Some(());
        }
        let n = self.num_states();
        scratch.bfs_seen.resize(n, 0);
        scratch.bfs_pred.resize(n, (0, 0));
        scratch.bfs_generation += 1;
        let generation = scratch.bfs_generation;
        scratch.bfs_queue.clear();
        scratch.bfs_queue.push(from);
        scratch.bfs_seen[from as usize] = generation;
        let mut head = 0usize;
        while head < scratch.bfs_queue.len() {
            let q = scratch.bfs_queue[head];
            head += 1;
            let qi = q as usize;
            for e in self.row_start[qi]..self.row_start[qi + 1] {
                let ei = e as usize;
                if let Some((filter, comp)) = restrict {
                    if !filter.keeps(self.mask_of(ei))
                        || scratch.component[self.edge_target[ei] as usize] != comp
                    {
                        continue;
                    }
                }
                let to = self.edge_target[ei];
                if scratch.bfs_seen[to as usize] == generation {
                    continue;
                }
                scratch.bfs_seen[to as usize] = generation;
                scratch.bfs_pred[to as usize] = (q, e);
                if to == target {
                    let start = out.len();
                    let mut at = to;
                    while at != from {
                        let (p, edge) = scratch.bfs_pred[at as usize];
                        out.push(edge);
                        at = p;
                    }
                    out[start..].reverse();
                    return Some(());
                }
                scratch.bfs_queue.push(to);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A label carrying its own class, for hand-built test graphs.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    struct TestLabel {
        id: u8,
        thread: u8,
        commit: bool,
        abort: bool,
    }

    /// Explicit adjacency as a [`RunGraphSource`]: states `0..n`, edges in
    /// list order per state.
    struct VecSource {
        succ: Vec<Vec<(TestLabel, u32)>>,
    }

    impl RunGraphSource for VecSource {
        type State = u32;
        type Label = TestLabel;

        fn initial_state(&self) -> u32 {
            0
        }

        fn successors(&self, state: &u32, out: &mut Vec<(TestLabel, u32)>) {
            out.extend(self.succ[*state as usize].iter().copied());
        }

        fn classify(&self, label: &TestLabel) -> LabelClass {
            LabelClass {
                thread: label.thread as usize,
                is_commit: label.commit,
                is_abort: label.abort,
                emits_statement: label.commit || label.abort,
            }
        }
    }

    fn lbl(id: u8, thread: u8) -> TestLabel {
        TestLabel {
            id,
            thread,
            commit: false,
            abort: false,
        }
    }

    fn abort(id: u8, thread: u8) -> TestLabel {
        TestLabel {
            id,
            thread,
            commit: false,
            abort: true,
        }
    }

    fn commit(id: u8, thread: u8) -> TestLabel {
        TestLabel {
            id,
            thread,
            commit: true,
            abort: false,
        }
    }

    const KEEP_ALL: EdgeFilter = EdgeFilter {
        keep_any: MASK_ALL_THREADS,
        forbid_all: 0,
    };

    /// [`CompiledRunGraph::find_loop`] without a budget.
    fn find(
        graph: &CompiledRunGraph<TestLabel>,
        query: &LoopQuery,
        scratch: &mut LiveScratch,
    ) -> Option<CompiledLasso<TestLabel>> {
        graph.find_loop(query, scratch, &QueryBudget::unlimited()).unwrap()
    }

    #[test]
    fn build_compiles_reachable_subgraph_in_bfs_order() {
        // 0 -> 1 -> 2 -> 0 ring plus an unreachable state 3 in the
        // adjacency (never discovered).
        let source = VecSource {
            succ: vec![
                vec![(lbl(0, 0), 1)],
                vec![(lbl(1, 1), 2)],
                vec![(lbl(2, 0), 0)],
                vec![(lbl(3, 0), 0)],
            ],
        };
        let (graph, states) = CompiledRunGraph::build(&source, 100).unwrap();
        assert_eq!(graph.num_states(), 3);
        assert_eq!(states, vec![0, 1, 2]);
        assert_eq!(graph.num_edges(), 3);
        assert_eq!(graph.num_labels(), 3);
        let edges: Vec<(usize, u8, usize)> =
            graph.edges().map(|(f, l, t)| (f, l.id, t)).collect();
        assert_eq!(edges, vec![(0, 0, 1), (1, 1, 2), (2, 2, 0)]);
    }

    #[test]
    fn build_enforces_state_bound_structurally() {
        let source = VecSource {
            succ: vec![
                vec![(lbl(0, 0), 1)],
                vec![(lbl(1, 0), 2)],
                vec![(lbl(2, 0), 0)],
            ],
        };
        assert_eq!(
            CompiledRunGraph::build(&source, 2).err(),
            Some(EngineError::StateLimit(2))
        );
        // An expired deadline is the same structured abort, not a panic.
        let expired = QueryBudget::unlimited().with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            CompiledRunGraph::build_budget(&source, &expired).err(),
            Some(EngineError::Deadline)
        );
    }

    #[test]
    fn find_loop_first_edge_reports_lasso_with_prefix() {
        // 0 --t0--> 1, loop 1 <-> 2 with an abort of thread 0 inside.
        let source = VecSource {
            succ: vec![
                vec![(lbl(0, 0), 1)],
                vec![(abort(1, 0), 2)],
                vec![(lbl(2, 0), 1)],
            ],
        };
        let (graph, _) = CompiledRunGraph::build(&source, 100).unwrap();
        let query = LoopQuery {
            filter: EdgeFilter {
                keep_any: 1 << 0,
                forbid_all: MASK_COMMIT,
            },
            required: vec![MASK_ABORT],
            selection: LoopSelection::FirstEdge,
        };
        let mut scratch = LiveScratch::default();
        let lasso = find(&graph, &query, &mut scratch).expect("loop exists");
        assert_eq!(
            lasso.prefix.iter().map(|l| l.id).collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(
            lasso.cycle.iter().map(|l| l.id).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn commit_filter_suppresses_loop() {
        // The only loop contains a commit: filtered out, no violation.
        let source = VecSource {
            succ: vec![
                vec![(lbl(0, 0), 1)],
                vec![(commit(1, 0), 0), (abort(2, 0), 0)],
            ],
        };
        let (graph, _) = CompiledRunGraph::build(&source, 100).unwrap();
        let mut scratch = LiveScratch::default();
        // With commits forbidden the abort loop remains.
        let with_aborts = LoopQuery {
            filter: EdgeFilter {
                keep_any: MASK_ALL_THREADS,
                forbid_all: MASK_COMMIT,
            },
            required: vec![MASK_ABORT],
            selection: LoopSelection::FirstEdge,
        };
        assert!(find(&graph, &with_aborts, &mut scratch).is_some());
        // Forbidding aborts too leaves no qualifying loop.
        let nothing = LoopQuery {
            filter: EdgeFilter {
                keep_any: MASK_ALL_THREADS,
                forbid_all: MASK_COMMIT,
            },
            required: vec![MASK_ABORT | MASK_COMMIT],
            selection: LoopSelection::FirstEdge,
        };
        assert!(find(&graph, &nothing, &mut scratch).is_none());
    }

    #[test]
    fn first_component_requires_all_masks_in_one_scc() {
        // Two disjoint loops: thread 0 aborts in one, thread 1 in the
        // other. Together they can never witness a livelock of {0, 1}.
        let source = VecSource {
            succ: vec![
                vec![(abort(0, 0), 0), (lbl(1, 0), 1)],
                vec![(abort(2, 1), 1)],
            ],
        };
        let (graph, _) = CompiledRunGraph::build(&source, 100).unwrap();
        let mut scratch = LiveScratch::default();
        let both = LoopQuery {
            filter: EdgeFilter {
                keep_any: 0b11,
                forbid_all: MASK_COMMIT,
            },
            required: vec![MASK_ABORT | 1 << 0, MASK_ABORT | 1 << 1],
            selection: LoopSelection::FirstComponent,
        };
        assert!(find(&graph, &both, &mut scratch).is_none());
        // Each singleton requirement is satisfiable on its own.
        for t in 0..2u16 {
            let single = LoopQuery {
                filter: EdgeFilter {
                    keep_any: 1 << t,
                    forbid_all: MASK_COMMIT,
                },
                required: vec![MASK_ABORT | 1 << t],
                selection: LoopSelection::FirstComponent,
            };
            assert!(
                find(&graph, &single, &mut scratch).is_some(),
                "thread {t}"
            );
        }
    }

    #[test]
    fn selection_scans_are_scc_search_spans_outside_lasso_extraction() {
        // One abort loop 1 <-> 2 behind a prefix edge; both selections
        // find it.
        let source = VecSource {
            succ: vec![
                vec![(lbl(0, 0), 1)],
                vec![(abort(1, 0), 2)],
                vec![(lbl(2, 0), 1)],
            ],
        };
        let (graph, _) = CompiledRunGraph::build(&source, 100).unwrap();
        let filter = EdgeFilter {
            keep_any: 1 << 0,
            forbid_all: MASK_COMMIT,
        };
        let queries = [LoopSelection::FirstEdge, LoopSelection::FirstComponent].map(|selection| {
            LoopQuery {
                filter,
                required: vec![MASK_ABORT],
                selection,
            }
        });
        let mut scratch = LiveScratch::default();
        let (found, record) = tm_obs::with_recorder(true, || {
            queries.iter().filter(|q| find(&graph, q, &mut scratch).is_some()).count()
        });
        assert_eq!(found, 2);
        let spans = |phase| -> Vec<(u64, u64)> {
            record
                .events
                .iter()
                .filter(|e| e.phase == phase)
                .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
                .collect()
        };
        let (scc, lasso) = (spans(Phase::SccSearch), spans(Phase::LassoExtract));
        // Per query: the decomposition, then the selection scan, then the
        // lasso — and no lasso span lies inside an SCC search span.
        assert_eq!((scc.len(), lasso.len()), (4, 2));
        for &(start, end) in &lasso {
            assert!(scc.iter().all(|&(s, e)| end <= s || e <= start), "{scc:?} vs {lasso:?}");
        }
    }

    #[test]
    fn find_first_loop_returns_the_smallest_violating_index() {
        // Abort loops exist for threads 1 and 2 only: query 0 holds,
        // queries 1 and 2 both violate, and the scan reports index 1.
        let source = VecSource {
            succ: vec![
                vec![(lbl(0, 0), 1)],
                vec![(abort(1, 1), 2)],
                vec![(lbl(2, 1), 1), (abort(3, 2), 2)],
            ],
        };
        let (graph, _) = CompiledRunGraph::build(&source, 100).unwrap();
        let query_for = |t: u16| LoopQuery {
            filter: EdgeFilter {
                keep_any: 1 << t,
                forbid_all: MASK_COMMIT,
            },
            required: vec![MASK_ABORT],
            selection: LoopSelection::FirstEdge,
        };
        let queries: Vec<LoopQuery> = (0..4).map(query_for).collect();
        let unlimited = QueryBudget::unlimited();
        let mut scratch = LiveScratch::default();
        let alone: Vec<bool> = queries
            .iter()
            .map(|q| graph.find_loop(q, &mut scratch, &unlimited).unwrap().is_some())
            .collect();
        assert_eq!(alone, [false, true, true, false]);
        let (index, lasso) = graph
            .find_first_loop(&queries, &unlimited)
            .unwrap()
            .expect("violation");
        assert_eq!(index, 1);
        let alone_1 = graph.find_loop(&queries[1], &mut scratch, &unlimited).unwrap();
        assert_eq!(Some(lasso), alone_1);
        assert_eq!(graph.find_first_loop(&queries[3..], &unlimited).unwrap(), None);
    }

    #[test]
    fn label_class_mask_bits() {
        let class = LabelClass {
            thread: 3,
            is_commit: true,
            is_abort: false,
            emits_statement: true,
        };
        let mask = class.mask();
        assert_eq!(mask, (1 << 3) | MASK_COMMIT | MASK_EMITS);
        assert!(EdgeFilter { keep_any: 1 << 3, forbid_all: 0 }.keeps(mask));
        assert!(!EdgeFilter {
            keep_any: 1 << 3,
            forbid_all: MASK_COMMIT
        }
        .keeps(mask));
        // A forbid mask pairing a *different* thread with commit keeps it.
        assert!(EdgeFilter {
            keep_any: MASK_ALL_THREADS,
            forbid_all: (1 << 2) | MASK_COMMIT
        }
        .keeps(mask));
    }

    /// The exact footprint of a graph with exact-size arrays.
    fn exact_bytes(g: &CompiledRunGraph<TestLabel>) -> usize {
        (g.num_states() + 1) * 4
            + g.num_edges() * 6
            + g.num_labels() * (std::mem::size_of::<TestLabel>() + 2)
    }

    #[test]
    fn heap_bytes_tracks_the_csr_arrays() {
        let small = VecSource {
            succ: vec![vec![(lbl(0, 0), 1)], vec![(lbl(1, 1), 0)]],
        };
        let (small_graph, _) = CompiledRunGraph::build(&small, 100).unwrap();
        assert_eq!(small_graph.heap_bytes(), exact_bytes(&small_graph));
        // Enough edges that the growing columns overshoot their length
        // before the build shrinks them.
        let big = VecSource {
            succ: (0..100u32)
                .map(|i| {
                    (0..3u32)
                        .map(|j| (lbl(((i + j) % 8) as u8, (j % 2) as u8), (i + j + 1) % 100))
                        .collect()
                })
                .collect(),
        };
        let (big_graph, _) = CompiledRunGraph::build(&big, 1000).unwrap();
        assert_eq!(big_graph.num_edges(), 300);
        assert_eq!(big_graph.heap_bytes(), exact_bytes(&big_graph));
        // A loaded graph is charged exactly what the built one is.
        let loaded = CompiledRunGraph::from_parts(owned_parts(&big_graph), |l| big.classify(l)).unwrap();
        assert_eq!(loaded.heap_bytes(), big_graph.heap_bytes());
        assert!(big_graph.heap_bytes() > small_graph.heap_bytes());
    }

    /// A copy of `graph`'s CSR arrays, for tests that edit them.
    fn owned_parts(graph: &CompiledRunGraph<TestLabel>) -> RunGraphParts<TestLabel> {
        let (labels, row_start, edge_target, edge_label) = graph.parts();
        RunGraphParts {
            labels: labels.to_vec(),
            row_start: row_start.to_vec(),
            edge_target: edge_target.to_vec(),
            edge_label: edge_label.to_vec(),
        }
    }

    /// Parts of a small valid graph: 0 -> 1 -> 2 -> 0 over three labels.
    fn ring_parts() -> (VecSource, RunGraphParts<TestLabel>) {
        let source = VecSource {
            succ: vec![
                vec![(lbl(0, 0), 1), (abort(1, 1), 0)],
                vec![(lbl(2, 1), 2)],
                vec![(lbl(0, 0), 0)],
            ],
        };
        let (graph, _) = CompiledRunGraph::build(&source, 100).unwrap();
        (source, owned_parts(&graph))
    }

    fn load(
        source: &VecSource,
        parts: RunGraphParts<TestLabel>,
    ) -> Result<CompiledRunGraph<TestLabel>, &'static str> {
        CompiledRunGraph::from_parts(parts, |l| source.classify(l))
    }

    #[test]
    fn from_parts_round_trips_a_built_graph() {
        let (source, parts) = ring_parts();
        assert_eq!(parts.row_start, vec![0, 2, 3, 4]);
        assert_eq!(parts.edge_label, vec![0, 1, 2, 0]);
        let (built, _) = CompiledRunGraph::build(&source, 100).unwrap();
        let loaded = load(&source, parts.clone()).unwrap();
        assert_eq!(owned_parts(&loaded), parts);
        assert_eq!(
            loaded.edges().collect::<Vec<_>>(),
            built.edges().collect::<Vec<_>>()
        );
        let query = LoopQuery {
            filter: KEEP_ALL,
            required: vec![MASK_ABORT],
            selection: LoopSelection::FirstEdge,
        };
        let mut scratch = LiveScratch::default();
        assert_eq!(
            find(&loaded, &query, &mut scratch),
            find(&built, &query, &mut scratch)
        );
    }

    #[test]
    fn from_parts_rejects_rows_not_starting_at_zero() {
        let (source, mut parts) = ring_parts();
        parts.row_start[0] = 1;
        assert_eq!(load(&source, parts).err(), Some("CSR rows do not start at 0"));
        let (source, mut parts) = ring_parts();
        parts.row_start.clear();
        assert_eq!(load(&source, parts).err(), Some("CSR rows do not start at 0"));
    }

    #[test]
    fn from_parts_rejects_non_monotone_offsets() {
        let (source, mut parts) = ring_parts();
        parts.row_start = vec![0, 3, 2, 4];
        assert_eq!(load(&source, parts).err(), Some("CSR offsets are not monotone"));
    }

    #[test]
    fn from_parts_rejects_arrays_not_covering_the_rows() {
        let (source, mut parts) = ring_parts();
        parts.edge_target.pop();
        assert_eq!(
            load(&source, parts).err(),
            Some("edge arrays do not cover the CSR rows")
        );
        let (source, mut parts) = ring_parts();
        parts.edge_label.push(0);
        assert_eq!(
            load(&source, parts).err(),
            Some("edge arrays do not cover the CSR rows")
        );
        let (source, mut parts) = ring_parts();
        *parts.row_start.last_mut().unwrap() = 5;
        assert_eq!(
            load(&source, parts).err(),
            Some("edge arrays do not cover the CSR rows")
        );
    }

    #[test]
    fn from_parts_rejects_target_out_of_range() {
        let (source, mut parts) = ring_parts();
        parts.edge_target[2] = 3;
        assert_eq!(load(&source, parts).err(), Some("edge target out of range"));
    }

    #[test]
    fn from_parts_rejects_label_out_of_range() {
        let (source, mut parts) = ring_parts();
        parts.edge_label[1] = 3;
        assert_eq!(load(&source, parts).err(), Some("edge label out of range"));
    }

    #[test]
    fn from_parts_rejects_threads_beyond_the_mask_capacity() {
        let (source, mut parts) = ring_parts();
        parts.labels[2].thread = MAX_MASK_THREADS as u8;
        assert_eq!(
            load(&source, parts).err(),
            Some("label thread exceeds the mask capacity")
        );
    }

    #[test]
    #[should_panic(expected = "mask capacity")]
    fn oversized_thread_id_rejected() {
        let _ = LabelClass {
            thread: MAX_MASK_THREADS,
            is_commit: false,
            is_abort: false,
            emits_statement: false,
        }
        .mask();
    }
}
