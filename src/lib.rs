//! # cqi — Understanding Queries by Conditional Instances
//!
//! Umbrella crate for the workspace reproducing *Understanding Queries by
//! Conditional Instances* (SIGMOD 2022). It re-exports every layer under a
//! stable module path, so downstream users depend on one crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`schema`] | `cqi-schema` | values, domains, relations, constraints |
//! | [`solver`] | `cqi-solver` | DPLL(T)-lite condition solver |
//! | [`obs`] | `cqi-obs` | metrics registry + span tracing (Perfetto export, text exposition) |
//! | [`runtime`] | `cqi-runtime` | work-stealing pool for root-job fan-out + bounded memos |
//! | [`instance`] | `cqi-instance` | c-instances, consistency, isomorphism, grounding |
//! | [`drc`] | `cqi-drc` | DRC parser, normalizer, pretty-printer, syntax trees |
//! | [`eval`] | `cqi-eval` | ground evaluation of DRC queries |
//! | [`core`] | `cqi-core` | the chase: six variants computing minimal c-solutions |
//! | [`datasets`] | `cqi-datasets` | Beers + TPC-H schemas and workloads |
//! | [`baseline`] | `cqi-baseline` | RATest/Cosette-style baselines |
//! | [`sql`] | `cqi-sql` | SQL→DRC front-end |
//! | [`bench`](mod@bench) | `cqi-bench` | experiment harness (`reproduce` binary) |
//! | [`fuzz`] | `cqi-fuzz` | differential fuzzing campaign (`cqi-fuzz` binary) |
//!
//! The repo-level integration tests (`tests/`) and runnable examples
//! (`examples/`) are hosted by this crate.
//!
//! ## Quickstart: the streaming explanation API
//!
//! A [`Session`](core::Session) bundles a schema, a tuned
//! [`ChaseConfig`](core::ChaseConfig), and warm solver caches, and is the
//! only way to run the chase; an [`ExplainRequest`](core::ExplainRequest)
//! takes a query in *any* front-end (DRC text, SQL, or a pre-parsed tree)
//! plus per-request `limit` and the run controls `deadline`/`cancel`/
//! `trace`, which live only on the request; `explain` streams
//! [`AcceptedInstance`](core::AcceptedInstance)s while the chase runs.
//!
//! ```
//! use std::sync::Arc;
//! use cqi::prelude::*;
//!
//! let schema = Arc::new(
//!     Schema::builder()
//!         .relation("Likes", &[("drinker", DomainType::Text), ("beer", DomainType::Text)])
//!         .build()
//!         .unwrap(),
//! );
//! let session = Session::new(schema);
//! // DRC and SQL front-ends land in the same pipeline:
//! let mut stream = session
//!     .explain(ExplainRequest::sql("SELECT l.beer FROM Likes l").limit(4))
//!     .unwrap();
//! for accepted in stream.by_ref() {
//!     // arrives while the chase is still driving; ship it to the user
//!     let _json = accepted.to_json();
//! }
//! let sol = stream.collect(); // the batch CSolution, status included
//! assert!(sol.interrupted.is_none() && !sol.instances.is_empty());
//! ```
//!
//! ### Migrating from `run_variant`
//!
//! `run_variant(&tree, variant, &cfg)` is gone; its session form is
//! `Session::new(schema).config(cfg).explain_collect(ExplainRequest::tree(&tree).variant(variant))`,
//! and a `ChaseConfig::timeout` becomes a `deadline` on each request. See
//! [`core::session`] for the full mapping table.

#![deny(unsafe_code)]

pub use cqi_baseline as baseline;
pub use cqi_bench as bench;
pub use cqi_core as core;
pub use cqi_datasets as datasets;
pub use cqi_drc as drc;
pub use cqi_eval as eval;
pub use cqi_fuzz as fuzz;
pub use cqi_instance as instance;
pub use cqi_obs as obs;
pub use cqi_runtime as runtime;
pub use cqi_schema as schema;
pub use cqi_solver as solver;
pub use cqi_sql as sql;

/// The names most programs start from, in one import — centered on the
/// streaming [`Session`](cqi_core::Session) API.
pub mod prelude {
    pub use cqi_core::{
        AcceptedInstance, CSolution, CancelToken, ChaseConfig, ExplainRequest, Interrupted,
        QueryInput, Session, SolutionStream, Variant,
    };
    pub use cqi_drc::{parse_query, Query, SyntaxTree};
    pub use cqi_instance::{CInstance, Cond};
    pub use cqi_schema::{DomainType, Schema, Value};
    pub use cqi_solver::{Lit, NullId, Problem, SolverOp};
    pub use cqi_sql::sql_to_drc;
}
