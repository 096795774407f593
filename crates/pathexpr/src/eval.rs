//! Path-expression evaluation over any [`LabeledGraph`] with the paper's
//! in-memory cost model.
//!
//! The paper (§6.1, following the A(k)-index evaluation) defines the cost of
//! a query as *the number of nodes visited in the index or data graph during
//! path expression evaluation*; extent members of matched index nodes are
//! free, data nodes touched during validation are charged. We realize the
//! model by counting distinct `(automaton state, graph node)` activations —
//! for a linear path query each graph node is charged at most once per query
//! position, which reduces to the intuitive "nodes touched" count.
//!
//! Evaluation is *partial-match* (paper §3): a label path may start at any
//! node, so the automaton is seeded at every node whose label a first
//! transition can consume. Seeding uses a per-graph [`LabelIndex`] (label →
//! nodes) built once per graph, so a query for `director.movie.title` starts
//! only from `director` nodes, never scanning unrelated labels — matching how
//! the A(k) experiments obtain small costs for small indexes.

use crate::nfa::{Nfa, StateId, Step};
use dkindex_graph::{LabeledGraph, Marks, NodeId};
use dkindex_telemetry as telemetry;
use std::convert::Infallible;

/// Label → nodes inverted index for one graph. Build once per graph (its
/// construction is not charged to any query).
#[derive(Clone, Debug)]
pub struct LabelIndex {
    by_label: Vec<Vec<NodeId>>,
}

impl LabelIndex {
    /// Build the inverted index for `g` in O(n).
    pub fn build<G: LabeledGraph>(g: &G) -> Self {
        let mut by_label = vec![Vec::new(); g.labels().len()];
        for node in g.node_ids() {
            by_label[g.label_of(node).index()].push(node);
        }
        LabelIndex { by_label }
    }

    /// Nodes carrying `label`.
    #[inline]
    pub fn nodes_with(&self, label: dkindex_graph::LabelId) -> &[NodeId] {
        &self.by_label[label.index()]
    }

    /// All nodes, flattened (used to seed wildcard-initial queries).
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_label.iter().flatten().copied()
    }
}

/// Outcome of a forward evaluation: the matched nodes and the visit count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Nodes matched by the expression, in ascending id order.
    pub matches: Vec<NodeId>,
    /// Number of `(state, node)` activations — the paper's "nodes visited".
    pub visited: u64,
}

/// Reusable scratch state for [`evaluate_with`] and
/// [`matches_ending_at_with`]: epoch-stamped `(state, node)` activation
/// marks, the matched set, the product-BFS queue, and the start-closure
/// buffer. After warm-up, a batch of queries sharing one arena performs zero
/// steady-state allocation.
#[derive(Clone, Debug, Default)]
pub struct EvalArena {
    active: Marks,
    matched: Marks,
    matched_list: Vec<NodeId>,
    queue: Vec<(StateId, NodeId)>,
}

impl EvalArena {
    /// Fresh, empty arena. Buffers grow on first use and are reused after.
    pub fn new() -> Self {
        EvalArena::default()
    }
}

/// Evaluate `nfa` over `g` with partial-match semantics.
///
/// `label_index` must have been built from the same graph. Allocates scratch
/// per call; batches should prefer [`evaluate_with`] and a shared arena.
pub fn evaluate<G: LabeledGraph>(g: &G, nfa: &Nfa, label_index: &LabelIndex) -> EvalOutcome {
    let Ok(out) = evaluate_with(g, nfa, label_index, &mut EvalArena::new(), &mut Unlimited);
    out
}

/// [`evaluate`] with caller-owned scratch and a [`Budget`]: identical
/// matches and visit counts while the budget holds, no steady-state
/// allocation across a batch of queries. The budget is `&mut` so validation
/// walks can share it; once it runs out the walk returns its error and
/// records no telemetry.
pub fn evaluate_with<G: LabeledGraph, B: Budget>(
    g: &G,
    nfa: &Nfa,
    label_index: &LabelIndex,
    arena: &mut EvalArena,
    budget: &mut B,
) -> Result<EvalOutcome, B::Error> {
    let states = nfa.state_count();
    let nodes = g.node_count();

    // active slot s * nodes + n: pair (s, n) already activated. `s` here is
    // the post-consumption state *before* ε-closure; dedup on that pair
    // bounds the work per node by the number of consuming transitions.
    let EvalArena {
        active,
        matched,
        matched_list,
        queue,
        ..
    } = arena;
    active.reset(states * nodes);
    matched.reset(nodes);
    matched_list.clear();
    queue.clear();
    let mut visited: u64 = 0;

    let activate = |state: StateId,
                        node: NodeId,
                        active: &mut Marks,
                        matched: &mut Marks,
                        matched_list: &mut Vec<NodeId>,
                        queue: &mut Vec<(StateId, NodeId)>,
                        visited: &mut u64,
                        budget: &mut B|
     -> Result<(), B::Error> {
        if !active.mark(state.index() * nodes + node.index()) {
            return Ok(());
        }
        budget.charge(1, *visited)?;
        *visited += 1;
        if nfa.is_accepting(state) && matched.mark(node.index()) {
            matched_list.push(node);
        }
        queue.push((state, node));
        Ok(())
    };

    // Seed: consuming transitions reachable from the ε-closure of start.
    // `closure_steps_of(start)` is that closure's transitions precomputed in
    // ascending-state order — the same sequence the baseline's boolean-set
    // scan visits.
    for &(step, target) in nfa.closure_steps_of(nfa.start()) {
        match step {
            Step::Label(l) => {
                for &n in label_index.nodes_with(l) {
                    activate(
                        target,
                        n,
                        active,
                        matched,
                        matched_list,
                        queue,
                        &mut visited,
                        budget,
                    )?;
                }
            }
            Step::Any => {
                for n in label_index.all_nodes() {
                    activate(
                        target,
                        n,
                        active,
                        matched,
                        matched_list,
                        queue,
                        &mut visited,
                        budget,
                    )?;
                }
            }
        }
    }

    // Product BFS: from (q, n), extend the node path by one child. The
    // flattened closure-steps slice yields the same (step, target) sequence
    // as the nested closure × steps loop, so activation order — and with it
    // the visit count — is unchanged.
    let mut head = 0;
    while head < queue.len() {
        let (state, node) = queue[head];
        head += 1;
        let children = g.children_of(node);
        for &(step, target) in nfa.closure_steps_of(state) {
            for &child in children {
                if step.matches(g.label_of(child)) {
                    activate(
                        target,
                        child,
                        active,
                        matched,
                        matched_list,
                        queue,
                        &mut visited,
                        budget,
                    )?;
                }
            }
        }
    }

    telemetry::metrics::PATHEXPR_EVALUATIONS.incr();
    telemetry::metrics::PATHEXPR_ACTIVATIONS.add(visited);
    telemetry::metrics::PATHEXPR_VISITS_PER_EVAL.record(visited);

    let mut matches = std::mem::take(matched_list);
    matches.sort_unstable();
    Ok(EvalOutcome { matches, visited })
}

/// Does some node path ending at `node` match a word of `nfa`'s language?
/// Used by the validation process: `reversed` must be `nfa.reverse()`.
///
/// Walks backward along parent edges, consuming labels in reverse, and stops
/// at the first witness. Returns the verdict and the number of
/// `(state, node)` activations performed (charged as data-graph visits).
pub fn matches_ending_at<G: LabeledGraph>(g: &G, reversed: &Nfa, node: NodeId) -> (bool, u64) {
    let Ok(out) = matches_ending_at_with(g, reversed, node, &mut EvalArena::new(), &mut Unlimited);
    out
}

/// [`matches_ending_at`] with caller-owned scratch and a [`Budget`]:
/// identical verdicts and visit counts while the budget holds, no
/// steady-state allocation across a batch of candidates.
pub fn matches_ending_at_with<G: LabeledGraph, B: Budget>(
    g: &G,
    reversed: &Nfa,
    node: NodeId,
    arena: &mut EvalArena,
    budget: &mut B,
) -> Result<(bool, u64), B::Error> {
    // Aggregate recording at every completed exit; the walk itself is
    // untouched.
    fn finish<E>(hit: bool, visited: u64) -> Result<(bool, u64), E> {
        telemetry::metrics::PATHEXPR_VALIDATION_WALKS.incr();
        telemetry::metrics::PATHEXPR_VALIDATION_ACTIVATIONS.add(visited);
        Ok((hit, visited))
    }

    let states = reversed.state_count();
    let nodes = g.node_count();

    let EvalArena { active, queue, .. } = arena;
    active.reset(states * nodes);
    queue.clear();
    let mut visited: u64 = 0;

    // Seed: consume `node`'s own label from the reversed start, using the
    // precomputed start-closure transitions (same sequence the baseline's
    // boolean-set scan visits).
    let node_label = g.label_of(node);
    for &(step, target) in reversed.closure_steps_of(reversed.start()) {
        if step.matches(node_label) && active.mark(target.index() * nodes + node.index()) {
            budget.charge(1, visited)?;
            visited += 1;
            if reversed.is_accepting(target) {
                return finish(true, visited);
            }
            queue.push((target, node));
        }
    }

    let mut head = 0;
    while head < queue.len() {
        let (state, n) = queue[head];
        head += 1;
        let parents = g.parents_of(n);
        for &(step, target) in reversed.closure_steps_of(state) {
            for &parent in parents {
                if step.matches(g.label_of(parent))
                    && active.mark(target.index() * nodes + parent.index())
                {
                    budget.charge(1, visited)?;
                    visited += 1;
                    if reversed.is_accepting(target) {
                        return finish(true, visited);
                    }
                    queue.push((target, parent));
                }
            }
        }
    }
    finish(false, visited)
}

/// A cap on `(state, node)` activations, charged one activation at a time
/// by [`evaluate_with`] and [`matches_ending_at_with`].
///
/// Both walks are generic over the budget, so bounded and unbounded
/// evaluation share one body: [`VisitBudget`] aborts with
/// [`BudgetExhausted`], and [`Unlimited`] never fails — its error type is
/// [`Infallible`], so its charges compile to nothing and callers unwrap the
/// result with a plain `let Ok(out) = …;`.
pub trait Budget {
    /// What a charge the budget cannot cover reports.
    type Error;

    /// Charge `n` activations. `visited` is the charging walk's own count so
    /// far, reported in the error. A failed charge spends nothing.
    fn charge(&mut self, n: u64, visited: u64) -> Result<(), Self::Error>;
}

/// The budget that never runs out: the walks under it are the plain
/// unbounded evaluators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Unlimited;

impl Budget for Unlimited {
    type Error = Infallible;

    #[inline]
    fn charge(&mut self, _n: u64, _visited: u64) -> Result<(), Infallible> {
        Ok(())
    }
}

/// A cap on `(state, node)` activations shared across the phases of one
/// query execution — the robustness layer's defence against runaway queries
/// (adversarial star expressions over dense cyclic graphs).
///
/// One budget is threaded through the index-graph evaluation *and* every
/// validation walk of a query, so the cap bounds the query's total work, not
/// each phase separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VisitBudget {
    remaining: u64,
}

impl VisitBudget {
    /// A budget allowing `limit` activations.
    pub fn new(limit: u64) -> Self {
        VisitBudget { remaining: limit }
    }

    /// Activations still allowed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl Budget for VisitBudget {
    type Error = BudgetExhausted;

    #[inline]
    fn charge(&mut self, n: u64, visited: u64) -> Result<(), BudgetExhausted> {
        if self.remaining < n {
            return Err(BudgetExhausted { visited });
        }
        self.remaining -= n;
        Ok(())
    }
}

/// Typed abort: the visit budget ran out mid-evaluation.
///
/// Partial results are discarded by design — a truncated match set would be
/// silently wrong, which is exactly what the robustness layer exists to
/// prevent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Activations the aborted walk itself performed before the abort. A
    /// budget shared across walks may have been spent partly by earlier
    /// ones, so this is the whole budget only for the walk that started it.
    pub visited: u64,
}

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "visit budget exhausted after {} activations", self.visited)
    }
}

impl std::error::Error for BudgetExhausted {}

/// The pre-arena reference implementation of [`evaluate`]: allocates fresh
/// scratch per call. Kept for the equivalence property tests and the
/// before/after benchmark comparison; behaviour (matches *and* visit counts)
/// must stay byte-identical to [`evaluate_with`].
pub fn evaluate_baseline<G: LabeledGraph>(
    g: &G,
    nfa: &Nfa,
    label_index: &LabelIndex,
) -> EvalOutcome {
    let states = nfa.state_count();
    let nodes = g.node_count();
    let closures = nfa.closures();

    let mut active = vec![false; states * nodes];
    let mut matched = vec![false; nodes];
    let mut visited: u64 = 0;
    let mut queue: Vec<(StateId, NodeId)> = Vec::new();

    let accept = nfa.accept();
    let activate = |state: StateId,
                        node: NodeId,
                        active: &mut Vec<bool>,
                        matched: &mut Vec<bool>,
                        queue: &mut Vec<(StateId, NodeId)>,
                        visited: &mut u64| {
        let slot = state.index() * nodes + node.index();
        if active[slot] {
            return;
        }
        active[slot] = true;
        *visited += 1;
        if closures[state.index()].contains(&accept) {
            matched[node.index()] = true;
        }
        queue.push((state, node));
    };

    let mut start_set = vec![false; states];
    start_set[nfa.start().index()] = true;
    nfa.eps_close(&mut start_set);
    for (s, &on) in start_set.iter().enumerate() {
        if !on {
            continue;
        }
        for &(step, target) in nfa.steps_of(StateId::from_index(s)) {
            match step {
                Step::Label(l) => {
                    for &n in label_index.nodes_with(l) {
                        activate(target, n, &mut active, &mut matched, &mut queue, &mut visited);
                    }
                }
                Step::Any => {
                    for n in label_index.all_nodes() {
                        activate(target, n, &mut active, &mut matched, &mut queue, &mut visited);
                    }
                }
            }
        }
    }

    let mut head = 0;
    while head < queue.len() {
        let (state, node) = queue[head];
        head += 1;
        for &q in &closures[state.index()] {
            for &(step, target) in nfa.steps_of(q) {
                for &child in g.children_of(node) {
                    if step.matches(g.label_of(child)) {
                        activate(
                            target,
                            child,
                            &mut active,
                            &mut matched,
                            &mut queue,
                            &mut visited,
                        );
                    }
                }
            }
        }
    }

    let matches = matched
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(i, _)| NodeId::from_index(i))
        .collect();
    EvalOutcome { matches, visited }
}

/// The pre-arena reference implementation of [`matches_ending_at`]
/// (`HashSet`-based dedup, fresh allocations per call). Kept for equivalence
/// tests and the before/after benchmark comparison.
pub fn matches_ending_at_baseline<G: LabeledGraph>(
    g: &G,
    reversed: &Nfa,
    node: NodeId,
) -> (bool, u64) {
    let states = reversed.state_count();
    let closures = reversed.closures();
    let accept = reversed.accept();

    let mut active: std::collections::HashSet<(StateId, NodeId)> = std::collections::HashSet::new();
    let mut queue: Vec<(StateId, NodeId)> = Vec::new();
    let mut visited: u64 = 0;

    let mut start_set = vec![false; states];
    start_set[reversed.start().index()] = true;
    reversed.eps_close(&mut start_set);
    let node_label = g.label_of(node);
    for (s, &on) in start_set.iter().enumerate() {
        if !on {
            continue;
        }
        for &(step, target) in reversed.steps_of(StateId::from_index(s)) {
            if step.matches(node_label) && active.insert((target, node)) {
                visited += 1;
                if closures[target.index()].contains(&accept) {
                    return (true, visited);
                }
                queue.push((target, node));
            }
        }
    }

    let mut head = 0;
    while head < queue.len() {
        let (state, n) = queue[head];
        head += 1;
        for &q in &closures[state.index()] {
            for &(step, target) in reversed.steps_of(q) {
                for &parent in g.parents_of(n) {
                    if step.matches(g.label_of(parent)) && active.insert((target, parent)) {
                        visited += 1;
                        if closures[target.index()].contains(&accept) {
                            return (true, visited);
                        }
                        queue.push((target, parent));
                    }
                }
            }
        }
    }
    (false, visited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use dkindex_graph::{DataGraph, EdgeKind};

    /// ROOT -> director -> movie -> title
    ///      -> actor    -> movie(2) -> title(2)
    ///      director -ref-> movie(2)
    fn movie_graph() -> (DataGraph, Vec<NodeId>) {
        let mut g = DataGraph::new();
        let director = g.add_labeled_node("director");
        let m1 = g.add_labeled_node("movie");
        let t1 = g.add_labeled_node("title");
        let actor = g.add_labeled_node("actor");
        let m2 = g.add_labeled_node("movie");
        let t2 = g.add_labeled_node("title");
        let r = g.root();
        g.add_edge(r, director, EdgeKind::Tree);
        g.add_edge(director, m1, EdgeKind::Tree);
        g.add_edge(m1, t1, EdgeKind::Tree);
        g.add_edge(r, actor, EdgeKind::Tree);
        g.add_edge(actor, m2, EdgeKind::Tree);
        g.add_edge(m2, t2, EdgeKind::Tree);
        g.add_edge(director, m2, EdgeKind::Reference);
        (g, vec![director, m1, t1, actor, m2, t2])
    }

    fn eval(g: &DataGraph, expr: &str) -> EvalOutcome {
        let e = parse(expr).unwrap();
        let nfa = Nfa::compile(&e, g.labels());
        let idx = LabelIndex::build(g);
        evaluate(g, &nfa, &idx)
    }

    #[test]
    fn linear_query_finds_both_titles() {
        let (g, n) = movie_graph();
        let out = eval(&g, "movie.title");
        assert_eq!(out.matches, vec![n[2], n[5]]);
    }

    #[test]
    fn longer_query_distinguishes_provenance() {
        let (g, n) = movie_graph();
        // Both titles are reachable via director (m2 through the reference).
        let out = eval(&g, "director.movie.title");
        assert_eq!(out.matches, vec![n[2], n[5]]);
        let out = eval(&g, "actor.movie.title");
        assert_eq!(out.matches, vec![n[5]]);
    }

    #[test]
    fn wildcard_and_optional() {
        let (g, n) = movie_graph();
        let out = eval(&g, "ROOT._.movie");
        assert_eq!(out.matches, vec![n[1], n[4]]);
        // Optional hop: ROOT.(_)?.director finds director whether or not an
        // intermediate exists.
        let out = eval(&g, "ROOT.(_)?.director");
        assert_eq!(out.matches, vec![n[0]]);
    }

    #[test]
    fn star_query_over_cycle_terminates() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, b, EdgeKind::Tree);
        g.add_edge(b, a, EdgeKind::Reference);
        let out = eval(&g, "a.(b.a)*");
        // All `a` reachable (only one a node, matched at both lengths).
        assert_eq!(out.matches, vec![a]);
        let out2 = eval(&g, "a.b");
        assert_eq!(out2.matches, vec![b]);
    }

    #[test]
    fn no_match_costs_little() {
        let (g, _) = movie_graph();
        let out = eval(&g, "ghost.label");
        assert!(out.matches.is_empty());
        assert_eq!(out.visited, 0);
    }

    #[test]
    fn cost_counts_seeded_and_expanded_nodes() {
        let (g, _) = movie_graph();
        let out = eval(&g, "movie.title");
        // Seeds: 2 movie nodes. Expansion: 2 titles. No revisits.
        assert_eq!(out.visited, 4);
    }

    #[test]
    fn partial_match_seeds_anywhere() {
        let (g, n) = movie_graph();
        let out = eval(&g, "title");
        assert_eq!(out.matches, vec![n[2], n[5]]);
        assert_eq!(out.visited, 2);
    }

    #[test]
    fn matches_ending_at_agrees_with_forward_eval() {
        let (g, _) = movie_graph();
        for expr in [
            "movie.title",
            "director.movie.title",
            "actor.movie.title",
            "ROOT._.movie",
            "a.(b|c)",
            "director.movie",
            "_._.title",
        ] {
            let e = parse(expr).unwrap();
            let nfa = Nfa::compile(&e, g.labels());
            let rev = nfa.reverse();
            let idx = LabelIndex::build(&g);
            let forward = evaluate(&g, &nfa, &idx);
            for node in g.node_ids() {
                let (hit, _) = matches_ending_at(&g, &rev, node);
                assert_eq!(
                    hit,
                    forward.matches.contains(&node),
                    "expr {expr} node {node:?}"
                );
            }
        }
    }

    #[test]
    fn matches_ending_at_on_cycles_terminates() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, a, EdgeKind::Reference); // self loop
        let e = parse("a.a.a.a").unwrap();
        let nfa = Nfa::compile(&e, g.labels());
        let rev = nfa.reverse();
        let (hit, _) = matches_ending_at(&g, &rev, a);
        assert!(hit); // a -> a -> a -> a through the self loop
    }

    #[test]
    fn arena_reuse_is_byte_identical_to_baseline() {
        let (g, _) = movie_graph();
        let idx = LabelIndex::build(&g);
        let mut arena = EvalArena::new();
        // One arena across queries of very different state/node footprints.
        for expr in [
            "movie.title",
            "director.movie.title",
            "_._.title",
            "ghost.label",
            "ROOT.(_)?.director",
            "a.(b|c)",
            "movie.title", // repeat after the arena has been stretched
            "title",
        ] {
            let e = parse(expr).unwrap();
            let nfa = Nfa::compile(&e, g.labels());
            let base = evaluate_baseline(&g, &nfa, &idx);
            let Ok(fast) = evaluate_with(&g, &nfa, &idx, &mut arena, &mut Unlimited);
            assert_eq!(base, fast, "expr {expr}");

            let rev = nfa.reverse();
            for node in g.node_ids() {
                let Ok(fast) = matches_ending_at_with(&g, &rev, node, &mut arena, &mut Unlimited);
                assert_eq!(
                    matches_ending_at_baseline(&g, &rev, node),
                    fast,
                    "expr {expr} node {node:?}"
                );
            }
        }
    }

    #[test]
    fn bounded_eval_with_ample_budget_is_identical() {
        let (g, _) = movie_graph();
        let idx = LabelIndex::build(&g);
        let mut arena = EvalArena::new();
        for expr in ["movie.title", "director.movie.title", "_._.title", "title"] {
            let e = parse(expr).unwrap();
            let nfa = Nfa::compile(&e, g.labels());
            let Ok(free) = evaluate_with(&g, &nfa, &idx, &mut arena, &mut Unlimited);
            let mut budget = VisitBudget::new(u64::MAX);
            let bounded = evaluate_with(&g, &nfa, &idx, &mut arena, &mut budget)
                .expect("ample budget never aborts");
            assert_eq!(free, bounded, "expr {expr}");
            assert_eq!(budget.remaining(), u64::MAX - free.visited);

            let rev = nfa.reverse();
            for node in g.node_ids() {
                let Ok(plain) = matches_ending_at_with(&g, &rev, node, &mut arena, &mut Unlimited);
                let mut budget = VisitBudget::new(u64::MAX);
                let bounded = matches_ending_at_with(&g, &rev, node, &mut arena, &mut budget)
                    .expect("ample budget never aborts");
                assert_eq!(plain, bounded, "expr {expr} node {node:?}");
            }
        }
    }

    #[test]
    fn bounded_eval_aborts_at_every_budget_below_cost() {
        let (g, _) = movie_graph();
        let idx = LabelIndex::build(&g);
        let mut arena = EvalArena::new();
        let e = parse("director.movie.title").unwrap();
        let nfa = Nfa::compile(&e, g.labels());
        let full = evaluate(&g, &nfa, &idx);
        assert!(full.visited > 0);
        for limit in 0..full.visited {
            let mut budget = VisitBudget::new(limit);
            let err = evaluate_with(&g, &nfa, &idx, &mut arena, &mut budget)
                .expect_err("budget below the query's cost must abort");
            assert_eq!(err.visited, limit, "abort charges exactly the budget");
            assert_eq!(budget.remaining(), 0);
        }
        // Exactly the query's cost suffices.
        let mut budget = VisitBudget::new(full.visited);
        let out = evaluate_with(&g, &nfa, &idx, &mut arena, &mut budget).unwrap();
        assert_eq!(out, full);
        assert_eq!(budget.remaining(), 0);
    }

    #[test]
    fn bounded_backward_walk_aborts_with_tiny_budget() {
        let (g, n) = movie_graph();
        let e = parse("director.movie.title").unwrap();
        let nfa = Nfa::compile(&e, g.labels());
        let rev = nfa.reverse();
        let mut arena = EvalArena::new();
        let (hit, visited) = matches_ending_at(&g, &rev, n[2]);
        assert!(hit);
        assert!(visited > 0);
        let mut budget = VisitBudget::new(visited - 1);
        let err = matches_ending_at_with(&g, &rev, n[2], &mut arena, &mut budget)
            .expect_err("insufficient budget must abort");
        assert_eq!(err.visited, visited - 1, "the walk's own count at the abort");
    }

    #[test]
    fn label_index_lists_nodes_per_label() {
        let (g, _) = movie_graph();
        let idx = LabelIndex::build(&g);
        let movie = g.labels().get("movie").unwrap();
        assert_eq!(idx.nodes_with(movie).len(), 2);
        assert_eq!(idx.all_nodes().count(), g.node_count());
    }
}
