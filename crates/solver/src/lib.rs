//! # cqi-solver
//!
//! A decision procedure and model generator for the constraint language that
//! c-instance global conditions live in — the workspace's substitute for the
//! Z3 SMT solver the paper used (§4.2 "we used the Z3 SMT solver to support
//! complex constraints involving integers, real numbers, and strings").
//!
//! ## The fragment
//!
//! A [`Problem`] is a conjunction of [`Lit`]erals plus CNF [`Clause`]s of
//! literals, over *labeled nulls* ([`NullId`]) and constants:
//!
//! * comparisons `e₁ op e₂` with `op ∈ {<, ≤, >, ≥, =, ≠}` over integer,
//!   real, or text domains (text compares lexicographically);
//! * `LIKE` / `NOT LIKE` patterns (`%` and `_` wildcards) on text entities.
//!
//! Clauses arise from negated relational atoms `¬R(x⃗)` (one clause
//! `⋁ᵢ xᵢ ≠ tᵢ` per existing `R`-tuple `t`, Definition 5) and from key
//! constraints (EGD-style `key≠ ∨ attr=` clauses), both expanded by
//! `cqi-instance` before reaching the solver.
//!
//! ## Architecture (DPLL(T)-lite)
//!
//! [`dpll`] branches on unsatisfied clauses; each branch hands a pure
//! conjunction to [`theory`], which decides it with:
//!
//! * union-find over equalities ([`unionfind`]);
//! * a weighted longest-path analysis over numeric order constraints with
//!   exact integer tightening and symbolic-ε strictness for dense domains
//!   ([`order`]);
//! * lexicographic dense-order reachability for text ([`strings`]);
//! * `LIKE` conjunctions decided exactly by NFA product/complement automata
//!   ([`nfa`]).
//!
//! Satisfiable outcomes come with a concrete [`Model`] which is *verified*
//! against every literal before being returned ([`model`]), so a `Sat`
//! answer is always trustworthy; in the handful of genuinely NP-hard corners
//! (pigeonhole-style integer disequalities) the solver may answer `Unsat`
//! conservatively — never the reverse. Property tests compare against brute
//! force on small domains.
//!
//! [`solve`] and [`is_sat`] decide each problem from scratch. The chase
//! decides through [`ExactCache`] ([`cache`]), a per-worker memo that keys
//! each question by (φ, extra): a c-instance's global condition, built and
//! hashed once as a [`Phi`], and the few literals a check adds to it.
//! Answers are not invariant under renaming the nulls:
//! witness search assigns text classes in an order derived from the
//! numbering, so in rare corners two numberings of one problem get
//! different answers (the `Unsat` one is the conservative one).

#![deny(unsafe_code)]

pub mod cache;
pub mod cond;
pub mod dpll;
pub mod ent;
pub mod model;
pub mod nfa;
pub mod order;
pub mod strings;
pub mod theory;
pub mod unionfind;

pub use cache::{ExactCache, Phi};
pub use cond::{Clause, Lit, Problem, SolverOp};
pub use ent::{Ent, NullId};
pub use model::Model;

/// Satisfiability outcome.
#[derive(Clone, Debug)]
pub enum Outcome {
    Sat(Model),
    Unsat,
}

impl Outcome {
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }

    pub fn model(self) -> Option<Model> {
        match self {
            Outcome::Sat(m) => Some(m),
            Outcome::Unsat => None,
        }
    }
}

/// Decides `problem`, returning a verified model when satisfiable.
pub fn solve(problem: &Problem) -> Outcome {
    dpll::solve(problem)
}

/// Convenience: just the yes/no answer.
pub fn is_sat(problem: &Problem) -> bool {
    solve(problem).is_sat()
}
