//! Ground (ordinary) database instances.

use std::collections::BTreeSet;
use std::sync::Arc;

use cqi_schema::{DomainId, RelId, Schema, Value};

/// A finite instance with constant tuples, set semantics.
#[derive(Clone, Debug)]
pub struct GroundInstance {
    pub schema: Arc<Schema>,
    tables: Vec<BTreeSet<Vec<Value>>>,
}

impl PartialEq for GroundInstance {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables
    }
}
impl Eq for GroundInstance {}

impl GroundInstance {
    pub fn new(schema: Arc<Schema>) -> GroundInstance {
        let n = schema.relations().len();
        GroundInstance {
            schema,
            tables: vec![BTreeSet::new(); n],
        }
    }

    pub fn insert(&mut self, rel: RelId, tuple: Vec<Value>) -> bool {
        debug_assert_eq!(tuple.len(), self.schema.relation(rel).arity());
        self.tables[rel.index()].insert(tuple)
    }

    /// Inserts a tuple by relation name (convenience for tests/fixtures).
    pub fn insert_named(&mut self, rel: &str, tuple: &[Value]) -> bool {
        let rid = self
            .schema
            .rel_id(rel)
            .unwrap_or_else(|| panic!("unknown relation `{rel}`"));
        self.insert(rid, tuple.to_vec())
    }

    pub fn contains(&self, rel: RelId, tuple: &[Value]) -> bool {
        self.tables[rel.index()].contains(tuple)
    }

    pub fn rows(&self, rel: RelId) -> impl Iterator<Item = &Vec<Value>> {
        self.tables[rel.index()].iter()
    }

    pub fn num_tuples(&self) -> usize {
        self.tables.iter().map(BTreeSet::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.num_tuples() == 0
    }

    pub fn remove(&mut self, rel: RelId, tuple: &[Value]) -> bool {
        self.tables[rel.index()].remove(tuple)
    }

    /// All tuples as `(rel, tuple)` pairs (deterministic order).
    pub fn all_tuples(&self) -> Vec<(RelId, Vec<Value>)> {
        let mut out = Vec::with_capacity(self.num_tuples());
        for (ri, rows) in self.tables.iter().enumerate() {
            for row in rows {
                out.push((RelId(ri as u32), row.clone()));
            }
        }
        out
    }

    /// Constants appearing anywhere in the instance (`Dom_K` of
    /// Definition 7), optionally restricted to one unified domain.
    pub fn active_domain(&self, domain: Option<DomainId>) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        for (ri, rows) in self.tables.iter().enumerate() {
            let rel = RelId(ri as u32);
            for row in rows {
                for (col, v) in row.iter().enumerate() {
                    if domain.is_none_or(|d| self.schema.attr_domain(rel, col) == d) {
                        out.insert(v.clone());
                    }
                }
            }
        }
        out
    }

    /// Checks the declared key constraints.
    pub fn satisfies_keys(&self) -> bool {
        for key in self.schema.keys() {
            let rows: Vec<&Vec<Value>> = self.rows(key.rel).collect();
            for (i, a) in rows.iter().enumerate() {
                for b in rows.iter().skip(i + 1) {
                    if key.attrs.iter().all(|k| a[*k] == b[*k]) && a != b {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Checks the declared foreign keys.
    pub fn satisfies_foreign_keys(&self) -> bool {
        for fk in self.schema.foreign_keys() {
            for child in self.rows(fk.child) {
                let ok = self.rows(fk.parent).any(|parent| {
                    fk.child_attrs
                        .iter()
                        .zip(&fk.parent_attrs)
                        .all(|(c, p)| child[*c] == parent[*p])
                });
                if !ok {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_schema::DomainType;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .relation(
                    "Bar",
                    &[("name", DomainType::Text), ("addr", DomainType::Text)],
                )
                .relation(
                    "Serves",
                    &[
                        ("bar", DomainType::Text),
                        ("beer", DomainType::Text),
                        ("price", DomainType::Real),
                    ],
                )
                .key("Bar", &["name"])
                .foreign_key("Serves", &["bar"], "Bar", &["name"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn insert_and_set_semantics() {
        let mut g = GroundInstance::new(schema());
        assert!(g.insert_named("Bar", &["Tadim".into(), "x".into()]));
        assert!(!g.insert_named("Bar", &["Tadim".into(), "x".into()]));
        assert_eq!(g.num_tuples(), 1);
    }

    #[test]
    fn active_domain_by_domain() {
        let s = schema();
        let mut g = GroundInstance::new(Arc::clone(&s));
        g.insert_named("Bar", &["Tadim".into(), "addr1".into()]);
        g.insert_named("Serves", &["Tadim".into(), "Ale".into(), Value::real(3.5)]);
        let serves = s.rel_id("Serves").unwrap();
        let price_d = s.attr_domain(serves, 2);
        let prices = g.active_domain(Some(price_d));
        assert_eq!(prices.len(), 1);
        assert!(prices.contains(&Value::real(3.5)));
        // bar name domain includes both Bar.name and Serves.bar values.
        let bar_d = s.attr_domain(serves, 0);
        assert!(g.active_domain(Some(bar_d)).contains(&Value::str("Tadim")));
        assert_eq!(g.active_domain(None).len(), 4);
    }

    #[test]
    fn key_violation_detected() {
        let mut g = GroundInstance::new(schema());
        g.insert_named("Bar", &["Tadim".into(), "a1".into()]);
        assert!(g.satisfies_keys());
        g.insert_named("Bar", &["Tadim".into(), "a2".into()]);
        assert!(!g.satisfies_keys());
    }

    #[test]
    fn fk_violation_detected() {
        let mut g = GroundInstance::new(schema());
        g.insert_named("Serves", &["Tadim".into(), "Ale".into(), Value::real(2.0)]);
        assert!(!g.satisfies_foreign_keys());
        g.insert_named("Bar", &["Tadim".into(), "a".into()]);
        assert!(g.satisfies_foreign_keys());
    }

    #[test]
    fn remove_tuple() {
        let mut g = GroundInstance::new(schema());
        g.insert_named("Bar", &["Tadim".into(), "a".into()]);
        assert!(g.remove(
            g.schema.rel_id("Bar").unwrap(),
            &["Tadim".into(), "a".into()]
        ));
        assert!(g.is_empty());
    }
}
