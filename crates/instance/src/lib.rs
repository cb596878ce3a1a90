//! # cqi-instance
//!
//! Database instances, abstract and concrete:
//!
//! * [`CInstance`] — conditional instances (Definition 3): one v-table per
//!   relation whose cells hold labeled nulls or constants, plus a *global
//!   condition* (a conjunction of atomic conditions, including negated
//!   relational atoms), plus per-domain pools of entities that drive the
//!   chase's quantifier handling. Its four heap parts are shared
//!   copy-on-write: a clone costs a few reference counts, and each mutator
//!   copies only the part it changes, and only while that part is shared.
//!   The chase memoizes, revisits and returns many clones of each instance
//!   and extends only a few of them.
//! * [`GroundInstance`] — ordinary finite instances with constant tuples.
//! * Consistency (`PWD(I) ≠ ∅`, Definition 5) by reduction to
//!   [`cqi_solver`], including the clause expansion of negated relational
//!   atoms and optional key-constraint EGDs.
//! * Grounding: extracting one *possible world* from a consistent
//!   c-instance via the solver's model.
//! * Isomorphism modulo renaming of labeled nulls — the `visited` check of
//!   Algorithm 1 (line 10).
//! * Serde-free JSON rendering ([`CInstance::to_json`]) for service
//!   responses from the streaming explanation API.

#![deny(unsafe_code)]

pub mod cinstance;
pub mod consistency;
pub mod display;
pub mod ground;
pub mod grounding;
pub mod iso;
pub mod json;

pub use cinstance::{CInstance, Cond, NullInfo};
pub use ground::GroundInstance;
pub use grounding::ground_instance;
pub use iso::{digest_stats, exact_digest, is_isomorphic, signature};
pub use json::{json_escape, json_well_formed};
