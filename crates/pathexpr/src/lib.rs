//! # dkindex-pathexpr
//!
//! Regular path expressions over labeled graphs (paper §3), the query side of
//! the D(k)-index reproduction:
//!
//! * [`PathExpr`] — AST for `R = label | _ | R.R | R|R | (R) | R? | R*`,
//!   with word-length analysis used by the soundness test and query-load
//!   mining.
//! * [`parse()`](crate::parse::parse) — text syntax, e.g. `movieDB.(_)?.movie.actor.name`.
//! * [`Nfa`] — Thompson compilation against a label interner, reversible for
//!   backward validation walks.
//! * [`evaluate`] / [`matches_ending_at`] — partial-match evaluation over any
//!   [`dkindex_graph::LabeledGraph`] with the paper's node-visit cost model.
//! * [`EvalArena`] + [`evaluate_with`] / [`matches_ending_at_with`] —
//!   allocation-free batch evaluation with reusable epoch-stamped scratch.
//!   Both walks are generic over a [`Budget`]: a [`VisitBudget`] caps the
//!   activations of a whole query and aborts with [`BudgetExhausted`], while
//!   [`Unlimited`] costs nothing and cannot fail. There is one forward and
//!   one backward walk; bounded and unbounded evaluation are the same code.
//!
//! ## Example
//!
//! ```
//! use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph};
//! use dkindex_pathexpr::{evaluate, parse, LabelIndex, Nfa};
//!
//! let mut g = DataGraph::new();
//! let movie = g.add_labeled_node("movie");
//! let title = g.add_labeled_node("title");
//! let root = g.root();
//! g.add_edge(root, movie, EdgeKind::Tree);
//! g.add_edge(movie, title, EdgeKind::Tree);
//!
//! let expr = parse("movie.title").unwrap();
//! let nfa = Nfa::compile(&expr, g.labels());
//! let idx = LabelIndex::build(&g);
//! let out = evaluate(&g, &nfa, &idx);
//! assert_eq!(out.matches, vec![title]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod nfa;
pub mod parse;
pub mod twig;

pub use ast::{LastLabels, PathExpr};
pub use eval::{
    evaluate, evaluate_baseline, evaluate_with, matches_ending_at, matches_ending_at_baseline,
    matches_ending_at_with, Budget, BudgetExhausted, EvalArena, EvalOutcome, LabelIndex,
    Unlimited, VisitBudget,
};
pub use nfa::{Nfa, StateId, Step};
pub use parse::{parse, ParseError};
pub use twig::{evaluate_twig, parse_twig, Twig, TwigStep};
