//! # cqi-analysis
//!
//! Correctness tooling for the workspace, run as two blocking CI gates:
//!
//! - **Concurrency model checking** (`models`, behind the
//!   `model-check` feature; `cqi-mcheck` binary): the runtime's one
//!   hand-rolled protocol — `ResidentPool`'s ticketed injector (nested
//!   submission, the `BatchGuard` panic path, idle wakeups) — runs under
//!   the vendored bounded-exhaustive scheduler (`vendor/loom`) *as the
//!   production type*, via `cqi_runtime::sync`'s instrumented primitives.
//!   Clean models must exhaust their schedule space with zero violations;
//!   a seeded-fault twin must demonstrably catch the protocol's
//!   characteristic bug (a lost wakeup), proving the checker has teeth.
//! - **Project linting** ([`lint`] over the [`lex`] masking lexer;
//!   `cqi-lint` binary): dependency-free source rules clippy cannot
//!   express — the unsafe allowlist + `SAFETY:` discipline,
//!   `#[allow]` justifications, wall-clock and `Ordering::Relaxed`
//!   confinement, and the `println!`/`.unwrap()` policy with per-file
//!   ratchet budgets. [`lint::LintConfig::repo_policy`] is the
//!   checked-in source of truth.
//!
//! Both binaries merge machine-readable sections into
//! `ANALYSIS_report.json` ([`report`]) for the CI artifact.

#![deny(unsafe_code)]

pub mod lex;
pub mod lint;
pub mod report;

#[cfg(feature = "model-check")]
pub mod models;
