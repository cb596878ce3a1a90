//! # cqi-baseline
//!
//! The comparison systems the paper evaluates against (§2, §5.2):
//!
//! * [`ratest`](mod@ratest) — a RATest-style \[41\] *instance-based*
//!   counterexample: given a correct and a wrong query plus a (generated)
//!   database, find a minimal sub-instance on which the two queries
//!   disagree. Unlike c-instances, the result is one fully ground example
//!   tied to a specific database.
//! * [`cosette`](mod@cosette) — a Cosette-style \[15\] single
//!   counterexample *without* any input database: take the first
//!   consistent c-instance of the difference query and ground it.
//! * [`generator`] — a schema-driven random database generator (the "randomly
//!   generated testing database instance" RATest is run on).

#![deny(unsafe_code)]

pub mod cosette;
pub mod generator;
pub mod ratest;

pub use cosette::cosette;
pub use generator::{generate_database, generate_database_with_stats, GenStats, RelGenStats};
pub use ratest::{minimal_counterexample, ratest, ratest_directed};
