//! # cqi-drc
//!
//! Domain Relational Calculus (DRC) queries as used throughout the paper
//! (Definition 1): abstract syntax, a hand-written text parser, negation
//! normalization (all `¬` pushed onto leaves, Definition 2), alpha-renaming
//! to unique quantified variables, query difference `Q1 − Q2`, syntax trees
//! with stable [`LeafId`]s (the unit of *coverage*), and the four query
//! complexity metrics of §5.1.
//!
//! ## Text syntax
//!
//! ```text
//! { (x1, b1) | exists d1 p1 . Serves(x1, b1, p1) and Likes(d1, b1)
//!              and d1 like 'Eve %'
//!              and forall x2 p2 . (not Serves(x2, b1, p2) or p1 >= p2) }
//! ```
//!
//! `*` inside a relational atom is a don't-care term (Table 5's `∗`).
//! Queries may nest at most [`MAX_NESTING_DEPTH`] levels deep (groups,
//! negations and quantified variables); deeper text is a parse error.

#![deny(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod metrics;
pub mod normalize;
pub mod parser;
pub mod pretty;
pub mod tree;

pub use ast::{Atom, CmpOp, Formula, Query, QueryError, Term, VarId, VarInfo};
pub use metrics::Metrics;
pub use normalize::combine;
pub use parser::{parse_query, MAX_NESTING_DEPTH};
pub use tree::{Coverage, LeafId, SyntaxTree};
