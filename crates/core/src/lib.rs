//! # cqi-core
//!
//! The paper's primary contribution: computing *minimal c-solutions* — sets
//! of minimal satisfying c-instances with pairwise-distinct coverage — for
//! Domain Relational Calculus queries, by a chase-style search over
//! c-instances (§4).
//!
//! ## Entry points
//!
//! * [`Session`] — the only way to run the chase: schema + tuned
//!   [`ChaseConfig`] + warm solver caches, reusable across queries.
//!   [`Session::explain`] accepts DRC text, SQL, or a pre-parsed tree
//!   ([`QueryInput`]) under one of the six algorithm variants of §5
//!   (`Disj/Conj × Naive/EO/Add`, [`Variant`]) and streams
//!   [`AcceptedInstance`]s as the chase finds them ([`SolutionStream`]);
//!   [`Session::explain_collect`] returns the batch [`CSolution`]. The run
//!   controls — deadline, cancellation, tracing — live only on the
//!   [`ExplainRequest`].
//! * [`cq_neg_universal_solution`] — the poly-time universal solution for
//!   CQ¬ queries (Proposition 3.1(1)).
//! * [`tree_sat`] — does a c-instance satisfy a query (Algorithm 7)?
//! * [`coverage_of_cinstance`] — which original syntax-tree leaves does a
//!   satisfying c-instance cover?
//!
//! ```
//! use std::sync::Arc;
//! use cqi_schema::{DomainType, Schema};
//! use cqi_core::{ExplainRequest, Session, Variant};
//!
//! let schema = Arc::new(
//!     Schema::builder()
//!         .relation("Likes", &[("drinker", DomainType::Text), ("beer", DomainType::Text)])
//!         .build()
//!         .unwrap(),
//! );
//! let session = Session::new(schema);
//! let req = ExplainRequest::drc("{ (b1) | exists d1 (Likes(d1, b1)) }")
//!     .variant(Variant::ConjAdd)
//!     .limit(6);
//! let sol = session.explain_collect(req).unwrap();
//! assert!(!sol.instances.is_empty());
//! ```

#![deny(unsafe_code)]

mod chase;
mod compiled;
pub mod config;
pub mod conjtree;
pub mod cover;
pub mod cqneg;
pub mod dnf;
mod scheduler;
pub mod session;
pub mod solution;
pub mod testgen;
pub mod treesat;
mod variants;

pub use chase::ChaseStats;
pub use config::{CancelToken, ChaseConfig, Variant};
pub use cover::coverage_of_cinstance;
pub use cqneg::cq_neg_universal_solution;
pub use session::{ExplainRequest, QueryInput, Session, SolutionStream};
pub use solution::{AcceptedInstance, CSolution, Interrupted, SatInstance};
pub use testgen::{generate_selective_instance, generate_test_matrix};
pub use treesat::tree_sat;
