//! Labelled directed graphs, strongly connected components, and
//! constrained closed-walk construction — the machinery of the seed
//! liveness checks of §6, which the compiled engine
//! (`tm_automata::CompiledRunGraph`) replaced.
//!
//! A liveness violation is a reachable *loop* in a TM algorithm's
//! transition system whose edges satisfy certain constraints (e.g. "all
//! statements of one thread, at least one abort, no commit"). Within one
//! SCC any set of edges lies on a common closed walk, so the search
//! reduces to: find an SCC (of a filtered subgraph) containing one edge of
//! each required kind, then stitch the walk together with BFS paths.

use std::collections::VecDeque;

/// A directed graph with labelled edges and states `0..num_states`.
///
/// # Examples
///
/// ```
/// use tm_bench::oracle::LabeledGraph;
/// let mut g = LabeledGraph::new(2);
/// g.add_edge(0, 'x', 1);
/// g.add_edge(1, 'y', 0);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct LabeledGraph<L> {
    succ: Vec<Vec<(L, usize)>>,
}

impl<L> LabeledGraph<L> {
    /// Creates a graph with `num_states` states and no edges.
    pub fn new(num_states: usize) -> Self {
        LabeledGraph {
            succ: (0..num_states).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.succ.len()
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Adds an edge `from --label--> to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, label: L, to: usize) {
        assert!(to < self.succ.len(), "edge target out of range");
        self.succ[from].push((label, to));
    }

    /// The outgoing edges of a state.
    pub fn edges_from(&self, state: usize) -> &[(L, usize)] {
        &self.succ[state]
    }

    /// Iterates over all edges as `(from, &label, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, &L, usize)> {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(from, out)| out.iter().map(move |(l, to)| (from, l, *to)))
    }
}

impl<L: Clone> LabeledGraph<L> {
    /// The subgraph containing only edges accepted by `keep`.
    pub fn filtered<F: Fn(usize, &L, usize) -> bool>(&self, keep: F) -> LabeledGraph<L> {
        let mut g = LabeledGraph::new(self.num_states());
        for (from, label, to) in self.edges() {
            if keep(from, label, to) {
                g.add_edge(from, label.clone(), to);
            }
        }
        g
    }

    /// A shortest path (sequence of `(from, label, to)` edges) from `from`
    /// to some state satisfying `is_target`, or `None`. A path of length 0
    /// is returned if `from` itself is a target.
    pub fn shortest_path_to<F: Fn(usize) -> bool>(
        &self,
        from: usize,
        is_target: F,
    ) -> Option<Vec<(usize, L, usize)>> {
        if is_target(from) {
            return Some(Vec::new());
        }
        let mut pred: Vec<Option<(usize, L)>> = vec![None; self.num_states()];
        let mut seen = vec![false; self.num_states()];
        seen[from] = true;
        let mut queue = VecDeque::from([from]);
        while let Some(q) = queue.pop_front() {
            for (label, to) in &self.succ[q] {
                if !seen[*to] {
                    seen[*to] = true;
                    pred[*to] = Some((q, label.clone()));
                    if is_target(*to) {
                        let mut path = Vec::new();
                        let mut at = *to;
                        while let Some((p, l)) = pred[at].take() {
                            path.push((p, l, at));
                            at = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(*to);
                }
            }
        }
        None
    }
}

/// The strongly connected components of a graph.
#[derive(Clone, Debug)]
pub struct Sccs {
    /// `component[v]` is the SCC index of state `v`.
    component: Vec<usize>,
    /// Number of components.
    count: usize,
}

impl Sccs {
    /// SCC index of a state.
    pub fn component_of(&self, state: usize) -> usize {
        self.component[state]
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` if `a` and `b` are in the same SCC.
    pub fn same_component(&self, a: usize, b: usize) -> bool {
        self.component[a] == self.component[b]
    }
}

/// Computes the strongly connected components with an iterative Tarjan
/// algorithm (explicit stack; safe for deep graphs).
pub fn strongly_connected_components<L>(g: &LabeledGraph<L>) -> Sccs {
    const UNVISITED: usize = usize::MAX;
    let n = g.num_states();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut component = vec![UNVISITED; n];
    let mut next_index = 0usize;
    let mut count = 0usize;

    // Work stack frames: (node, next child position).
    let mut work: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        work.push((root, 0));
        while let Some(&mut (v, ref mut child)) = work.last_mut() {
            if *child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some((_, w)) = g.edges_from(v).get(*child).map(|(l, w)| (l, *w)) {
                *child += 1;
                if index[w] == UNVISITED {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                // All children done: close v.
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        component[w] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
                let (v, _) = work.pop().expect("frame exists");
                if let Some(&mut (u, _)) = work.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    Sccs { component, count }
}

/// A closed walk visiting each of the `required` edges at least once,
/// inside the SCC subgraph containing them. Returns the walk as a sequence
/// of edges starting and ending at the source of the first required edge,
/// or `None` if the required edges do not all lie in one SCC of `g`.
///
/// `required` holds `(from, label, to)` triples that must be edges of `g`.
pub fn closed_walk_through<L: Clone + Eq>(
    g: &LabeledGraph<L>,
    required: &[(usize, L, usize)],
) -> Option<Vec<(usize, L, usize)>> {
    let (first, rest) = required.split_first()?;
    let sccs = strongly_connected_components(g);
    let comp = sccs.component_of(first.0);
    // All endpoints must share the SCC (otherwise no closed walk exists).
    for (from, _, to) in required {
        if sccs.component_of(*from) != comp || sccs.component_of(*to) != comp {
            return None;
        }
    }
    // Restrict to the SCC so BFS paths stay inside it.
    let inside =
        g.filtered(|from, _, to| sccs.component_of(from) == comp && sccs.component_of(to) == comp);
    let mut walk: Vec<(usize, L, usize)> = vec![first.clone()];
    let mut at = first.2;
    for edge in rest {
        let path = inside.shortest_path_to(at, |s| s == edge.0)?;
        walk.extend(path);
        walk.push(edge.clone());
        at = edge.2;
    }
    let back = inside.shortest_path_to(at, |s| s == first.0)?;
    walk.extend(back);
    Some(walk)
}
