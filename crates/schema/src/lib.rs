//! # cqi-schema
//!
//! Foundational database vocabulary for the `cqi` workspace: totally ordered
//! [`Value`]s, attribute [`DomainType`]s, relation schemas, and integrity
//! constraints (keys and foreign keys).
//!
//! Attributes that are linked by foreign keys (or explicitly declared to
//! share a domain) are unified into a single [`DomainId`] — this is what the
//! paper means by "two attributes may share the same domain (e.g., when they
//! share the same name or are related by foreign key constraints)" (§3.1).
//! The chase uses the `DomainId` of a query variable to decide which labeled
//! nulls it may be mapped to.

#![deny(unsafe_code)]

pub mod constraint;
pub mod domain;
pub mod relation;
pub mod schema;
pub mod value;

pub use constraint::{ForeignKey, Key};
pub use domain::{DomainId, DomainType};
pub use relation::{AttrId, Attribute, RelId, Relation};
pub use schema::{Schema, SchemaBuilder, SchemaError};
pub use value::{Value, R64};
