//! Schema-driven random database generation.
//!
//! Relations are filled in foreign-key topological order; child columns
//! sample existing parent keys, so generated databases always satisfy the
//! declared foreign keys, and key constraints are respected by retrying
//! colliding rows.

use std::sync::Arc;

use cqi_instance::GroundInstance;
use cqi_schema::{DomainType, RelId, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-relation accounting of what happened to each requested row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RelGenStats {
    /// Rows actually inserted (distinct tuples present in the instance).
    pub inserted: usize,
    /// Rows generated identical to an existing tuple (set semantics
    /// deduplicated them away).
    pub duplicates: usize,
    /// Rows abandoned: every retry either collided on a key with a
    /// different payload, or no parent row existed for a foreign key.
    pub abandoned: usize,
}

/// What [`generate_database_with_stats`] produced, per relation. The true
/// database size is `sum(inserted)`, which can be well below
/// `rows_per_relation × relations` on key-dense schemas — fuzz drivers use
/// this to know the actual size instead of assuming the request was met.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Rows requested per relation.
    pub requested_per_relation: usize,
    /// One entry per relation, indexed by `RelId`.
    pub per_relation: Vec<RelGenStats>,
}

impl GenStats {
    /// Total tuples actually inserted across all relations.
    pub fn inserted(&self) -> usize {
        self.per_relation.iter().map(|r| r.inserted).sum()
    }

    /// Total rows that never made it in (duplicates + abandoned).
    pub fn dropped(&self) -> usize {
        self.per_relation
            .iter()
            .map(|r| r.duplicates + r.abandoned)
            .sum()
    }
}

/// Generates `rows_per_relation` tuples per relation (fewer when key
/// collisions make a row impossible after a bounded number of retries).
/// Convenience wrapper over [`generate_database_with_stats`] for callers
/// that only need the instance.
pub fn generate_database(
    schema: &Arc<Schema>,
    rows_per_relation: usize,
    seed: u64,
) -> GroundInstance {
    generate_database_with_stats(schema, rows_per_relation, seed).0
}

/// Like [`generate_database`], but also reports per-relation counts of
/// inserted, duplicate, and abandoned rows, so callers see the true
/// database size rather than silently losing rows to key-collision retry
/// exhaustion or missing foreign-key parents.
pub fn generate_database_with_stats(
    schema: &Arc<Schema>,
    rows_per_relation: usize,
    seed: u64,
) -> (GroundInstance, GenStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = GroundInstance::new(Arc::clone(schema));
    let mut stats = GenStats {
        requested_per_relation: rows_per_relation,
        per_relation: vec![RelGenStats::default(); schema.relations().len()],
    };

    // Topological order: parents before children.
    let order = topo_order(schema);

    for rel in order {
        let relation = schema.relation(rel);
        let arity = relation.arity();
        let fks: Vec<_> = schema
            .foreign_keys()
            .iter()
            .filter(|fk| fk.child == rel)
            .collect();
        let tally = &mut stats.per_relation[rel.index()];
        'rows: for _ in 0..rows_per_relation {
            for _attempt in 0..16 {
                let mut tuple: Vec<Option<Value>> = vec![None; arity];
                // Foreign-key columns: sample a parent row.
                let mut fk_ok = true;
                for fk in &fks {
                    let parents: Vec<Vec<Value>> = db.rows(fk.parent).cloned().collect();
                    if parents.is_empty() {
                        fk_ok = false;
                        break;
                    }
                    let p = &parents[rng.gen_range(0..parents.len())];
                    for (c, pa) in fk.child_attrs.iter().zip(&fk.parent_attrs) {
                        tuple[*c] = Some(p[*pa].clone());
                    }
                }
                if !fk_ok {
                    // No parent rows can ever appear later in this loop
                    // (parents are filled before children), so the row is
                    // lost for good.
                    tally.abandoned += 1;
                    continue 'rows;
                }
                for (i, cell) in tuple.iter_mut().enumerate() {
                    if cell.is_none() {
                        *cell = Some(random_value(
                            &mut rng,
                            relation.attrs[i].domain_type,
                            relation.attrs[i].domain.0,
                        ));
                    }
                }
                let tuple: Vec<Value> = tuple.into_iter().map(Option::unwrap).collect();
                // Respect keys: skip rows that collide on a key with a
                // different payload.
                let collides = schema.keys_of(rel).any(|key| {
                    db.rows(rel).any(|existing| {
                        key.attrs.iter().all(|k| existing[*k] == tuple[*k]) && existing != &tuple
                    })
                });
                if collides {
                    continue;
                }
                if db.insert(rel, tuple) {
                    tally.inserted += 1;
                } else {
                    tally.duplicates += 1;
                }
                continue 'rows;
            }
            // All retries collided on a key with differing payloads.
            tally.abandoned += 1;
        }
    }
    (db, stats)
}

// The index is the relation id being placed; iterating `placed` by value
// would lose the id <-> position correspondence the two arrays share.
#[allow(clippy::needless_range_loop)]
fn topo_order(schema: &Arc<Schema>) -> Vec<RelId> {
    let n = schema.relations().len();
    let mut order: Vec<RelId> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // Simple Kahn-style loop; FK cycles (rare) fall back to declaration
    // order for the remainder.
    for _round in 0..n {
        for i in 0..n {
            if placed[i] {
                continue;
            }
            let rel = RelId(i as u32);
            let ready = schema
                .foreign_keys()
                .iter()
                .filter(|fk| fk.child == rel && fk.parent != rel)
                .all(|fk| placed[fk.parent.index()]);
            if ready {
                placed[i] = true;
                order.push(rel);
            }
        }
    }
    for i in 0..n {
        if !placed[i] {
            order.push(RelId(i as u32));
        }
    }
    order
}

fn random_value(rng: &mut StdRng, ty: DomainType, domain_tag: u32) -> Value {
    match ty {
        DomainType::Int => Value::Int(rng.gen_range(1..50)),
        DomainType::Real => Value::real((rng.gen_range(4..80) as f64) / 4.0),
        DomainType::Text => {
            // Small pools per domain make joins actually join.
            let pool = [
                "Eve Edwards",
                "Eve Mercer",
                "Bryan",
                "Richard",
                "The Edge",
                "Tadim",
                "Satisfaction",
                "Erdinger",
                "Amstel",
                "Corona",
            ];
            let pick = pool[rng.gen_range(0..pool.len())];
            Value::str(format!("{pick} {domain_tag}"))
        }
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
                    "Beer",
                    &[("name", DomainType::Text), ("brewer", DomainType::Text)],
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
                .key("Beer", &["name"])
                .key("Serves", &["bar", "beer"])
                .foreign_key("Serves", &["bar"], "Bar", &["name"])
                .foreign_key("Serves", &["beer"], "Beer", &["name"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn generated_database_satisfies_constraints() {
        let s = schema();
        for seed in 0..5 {
            let db = generate_database(&s, 8, seed);
            assert!(db.satisfies_foreign_keys(), "seed {seed}");
            assert!(db.satisfies_keys(), "seed {seed}");
            assert!(db.num_tuples() > 0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = schema();
        let a = generate_database(&s, 6, 42);
        let b = generate_database(&s, 6, 42);
        assert_eq!(a, b);
        let c = generate_database(&s, 6, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn parents_generated_before_children() {
        let s = schema();
        let db = generate_database(&s, 4, 7);
        let serves = s.rel_id("Serves").unwrap();
        // Some Serves rows must exist (parents were available).
        assert!(db.rows(serves).count() > 0);
    }

    #[test]
    fn stats_account_for_every_requested_row() {
        let s = schema();
        for seed in 0..8 {
            let (db, stats) = generate_database_with_stats(&s, 10, seed);
            assert_eq!(stats.requested_per_relation, 10);
            assert_eq!(stats.per_relation.len(), s.relations().len());
            // Every requested row is classified exactly once.
            for tally in &stats.per_relation {
                assert_eq!(
                    tally.inserted + tally.duplicates + tally.abandoned,
                    10,
                    "seed {seed}"
                );
            }
            // The reported size is the true size.
            assert_eq!(stats.inserted(), db.num_tuples(), "seed {seed}");
            for (i, tally) in stats.per_relation.iter().enumerate() {
                assert_eq!(
                    tally.inserted,
                    db.rows(RelId(i as u32)).count(),
                    "seed {seed} rel {i}"
                );
            }
        }
    }

    #[test]
    fn key_exhaustion_is_surfaced_not_silent() {
        // A single-attribute key over Int (values drawn from 1..50): asking
        // for 200 rows must exhaust the key space, and the generator has to
        // say so rather than silently returning a smaller database.
        let s = Arc::new(
            Schema::builder()
                .relation("K", &[("id", DomainType::Int), ("v", DomainType::Int)])
                .key("K", &["id"])
                .build()
                .unwrap(),
        );
        let (db, stats) = generate_database_with_stats(&s, 200, 1);
        let t = &stats.per_relation[0];
        assert!(t.abandoned > 0, "expected abandoned rows, got {t:?}");
        assert_eq!(t.inserted + t.duplicates + t.abandoned, 200);
        assert_eq!(stats.inserted(), db.num_tuples());
        assert!(db.num_tuples() < 200);
        assert!(db.satisfies_keys());
        // And the thin wrapper returns the identical instance.
        assert_eq!(generate_database(&s, 200, 1), db);
    }
}
