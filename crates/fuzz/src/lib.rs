//! # cqi-fuzz — differential fuzzing campaign
//!
//! Random schema/query sweeps cross-checked against ground-truth
//! evaluation, with shrinking. The pipeline, per case:
//!
//! 1. [`gen::gen_case`] draws a deterministic random schema + DRC query
//!    (conjunctive core plus knob-controlled negation, comparisons,
//!    constants, and `∀` depth) as a plain-data [`spec::CaseSpec`];
//! 2. [`oracle::run_case`] chases it through [`cqi_core::Session`] under
//!    one cell of the variant × `{threads, enforce_keys}` matrix, then
//!    re-derives every accepted c-instance's verdict through a disjoint
//!    pipeline: ground it ([`cqi_instance::ground_instance`]) and
//!    re-evaluate with [`cqi_eval::satisfies`] / coverage — plus
//!    Add-dominates-EO cross-variant checks and `cosette`/`ratest`
//!    baseline comparisons on query pairs;
//! 3. on divergence, [`shrink::shrink_case`] reduces the case to a minimal
//!    schema + query that still diverges, and [`report`] renders it as
//!    runnable Rust DDL + DRC text inside `FUZZ_report.json`.
//!
//! Two modes (see the `cqi-fuzz` binary): a bounded seed-pinned sweep for
//! CI, and an unbounded `--soak` loop for long-running campaigns. The
//! [`spec::Mutation`] fault-injection hook proves the harness catches and
//! shrinks real soundness bugs (`cargo run -p cqi-fuzz -- --mutate
//! negate-cmp`).

#![deny(unsafe_code)]

pub mod driver;
pub mod gen;
pub mod oracle;
pub mod report;
pub mod shrink;
pub mod spec;

pub use driver::{case_seed, sweep, CaseOutcome, CaseRecord, SweepOptions, SweepSummary};
pub use gen::{gen_case, GenKnobs};
pub use oracle::{check_solution, run_case, CaseConfig, Divergence, DivergenceKind, CONFIG_MATRIX};
pub use shrink::shrink_case;
pub use spec::{CaseSpec, Mutation, QuerySpec, SchemaSpec};
