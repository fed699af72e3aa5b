//! CNF temporal queries over video feeds.
//!
//! This crate implements the Query Evaluation layer of the paper's
//! architecture (Figure 2, Section 5): queries are conjunctions of
//! disjunctions of conditions of the form `class θ n` with
//! `θ ∈ {≤, =, ≥}`, evaluated against the class-count aggregates of the
//! maximum co-occurrence object sets produced by MCOS generation.
//!
//! * [`condition`] / [`cnf`] — the query model, including the worked example
//!   `q2` of Section 5.2 in tests;
//! * [`parser`] — a small textual query language
//!   (`"car >= 2 AND (person >= 1 OR bus >= 1)"`);
//! * [`evaluator`] — the inverted-index evaluation of Whang et al. (CNFEval)
//!   extended with ordered `>=`/`<=` indexes (CNFEvalE), plus
//!   [`evaluate_result_set`] which applies
//!   the workload to a whole Result State Set;
//! * [`prune`] — the rule for when every query is `>=`-only, and the
//!   Proposition-1 pruner that then terminates hopeless states (the
//!   `MFS_O`/`SSG_O` variants);
//! * [`generator`] — deterministic random workloads reproducing the Figure 8
//!   and Figure 9 experiments.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cnf;
pub mod condition;
pub mod evaluator;
pub mod generator;
pub mod parser;
pub mod prune;

pub use cnf::{Clause, CnfQuery};
pub use condition::{CmpOp, Condition};
pub use evaluator::{evaluate_result_set, CnfEvaluator, QueryMatch};
pub use generator::{generate_workload, WorkloadConfig};
pub use parser::parse_query;
pub use prune::GeqOnlyPruner;
pub use tvq_common::ClassCounts;
