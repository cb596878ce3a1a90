//! Database schemas and the builder that performs domain unification.

use std::collections::HashMap;
use std::fmt;

use crate::constraint::{ForeignKey, Key};
use crate::domain::{DomainId, DomainType};
use crate::relation::{Attribute, RelId, Relation};

/// Errors raised while assembling a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    DuplicateRelation(String),
    UnknownRelation(String),
    UnknownAttribute { rel: String, attr: String },
    ArityMismatch { context: String },
    DomainTypeMismatch { context: String },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateRelation(n) => write!(f, "duplicate relation `{n}`"),
            SchemaError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            SchemaError::UnknownAttribute { rel, attr } => {
                write!(f, "unknown attribute `{rel}.{attr}`")
            }
            SchemaError::ArityMismatch { context } => write!(f, "arity mismatch: {context}"),
            SchemaError::DomainTypeMismatch { context } => {
                write!(f, "domain type mismatch: {context}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// A database schema `R = (R1, ..., Rr)` with constraints and unified
/// attribute domains.
#[derive(Clone, Debug)]
pub struct Schema {
    relations: Vec<Relation>,
    by_name: HashMap<String, RelId>,
    keys: Vec<Key>,
    foreign_keys: Vec<ForeignKey>,
    /// `domain_types[d.index()]` is the constant kind of domain `d`.
    domain_types: Vec<DomainType>,
}

impl Schema {
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    pub fn keys_of(&self, rel: RelId) -> impl Iterator<Item = &Key> {
        self.keys.iter().filter(move |k| k.rel == rel)
    }

    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    pub fn num_domains(&self) -> usize {
        self.domain_types.len()
    }

    pub fn domain_type(&self, d: DomainId) -> DomainType {
        self.domain_types[d.index()]
    }

    /// Domain of attribute `attr` of relation `rel`.
    pub fn attr_domain(&self, rel: RelId, attr: usize) -> DomainId {
        self.relation(rel).attrs[attr].domain
    }
}

#[derive(Default)]
pub struct SchemaBuilder {
    relations: Vec<(String, Vec<(String, DomainType)>)>,
    keys: Vec<(String, Vec<String>)>,
    fks: Vec<(String, Vec<String>, String, Vec<String>)>,
    same_domain: Vec<((String, String), (String, String))>,
}

impl SchemaBuilder {
    /// Declares a relation with `(attribute, type)` columns.
    pub fn relation(mut self, name: &str, attrs: &[(&str, DomainType)]) -> Self {
        self.relations.push((
            name.to_owned(),
            attrs.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
        ));
        self
    }

    /// Declares a key of `rel` over the named attributes.
    pub fn key(mut self, rel: &str, attrs: &[&str]) -> Self {
        self.keys.push((
            rel.to_owned(),
            attrs.iter().map(|a| (*a).to_owned()).collect(),
        ));
        self
    }

    /// Declares a foreign key `child(child_attrs) ⟶ parent(parent_attrs)`.
    pub fn foreign_key(
        mut self,
        child: &str,
        child_attrs: &[&str],
        parent: &str,
        parent_attrs: &[&str],
    ) -> Self {
        self.fks.push((
            child.to_owned(),
            child_attrs.iter().map(|a| (*a).to_owned()).collect(),
            parent.to_owned(),
            parent_attrs.iter().map(|a| (*a).to_owned()).collect(),
        ));
        self
    }

    /// Explicitly unifies two attribute domains without an FK (e.g. the two
    /// `Serves.price` occurrences compared across self-joins already share a
    /// domain, but `Likes.beer` vs `Serves.beer` may be declared directly).
    pub fn same_domain(mut self, a: (&str, &str), b: (&str, &str)) -> Self {
        self.same_domain.push((
            (a.0.to_owned(), a.1.to_owned()),
            (b.0.to_owned(), b.1.to_owned()),
        ));
        self
    }

    pub fn build(self) -> Result<Schema, SchemaError> {
        let mut by_name: HashMap<String, RelId> = HashMap::new();
        let mut relations: Vec<Relation> = Vec::with_capacity(self.relations.len());
        for (i, (name, attrs)) in self.relations.iter().enumerate() {
            let lower = name.to_ascii_lowercase();
            if by_name.insert(lower, RelId(i as u32)).is_some() {
                return Err(SchemaError::DuplicateRelation(name.clone()));
            }
            relations.push(Relation {
                name: name.clone(),
                attrs: attrs
                    .iter()
                    .map(|(n, t)| Attribute {
                        name: n.clone(),
                        domain_type: *t,
                        domain: DomainId(0), // assigned below
                    })
                    .collect(),
            });
        }

        // Union-find over all (rel, attr) slots for domain unification.
        let mut slot_of: HashMap<(RelId, usize), usize> = HashMap::new();
        let mut slots: Vec<(RelId, usize)> = Vec::new();
        for (ri, rel) in relations.iter().enumerate() {
            for ai in 0..rel.attrs.len() {
                slot_of.insert((RelId(ri as u32), ai), slots.len());
                slots.push((RelId(ri as u32), ai));
            }
        }
        let mut parent: Vec<usize> = (0..slots.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let union = |parent: &mut [usize], a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        };

        let resolve = |by_name: &HashMap<String, RelId>,
                       relations: &[Relation],
                       rel: &str,
                       attr: &str|
         -> Result<(RelId, usize), SchemaError> {
            let rid = by_name
                .get(&rel.to_ascii_lowercase())
                .copied()
                .ok_or_else(|| SchemaError::UnknownRelation(rel.to_owned()))?;
            let ai = relations[rid.index()].attr_index(attr).ok_or_else(|| {
                SchemaError::UnknownAttribute {
                    rel: rel.to_owned(),
                    attr: attr.to_owned(),
                }
            })?;
            Ok((rid, ai))
        };

        let mut foreign_keys = Vec::with_capacity(self.fks.len());
        for (child, cattrs, par, pattrs) in &self.fks {
            if cattrs.len() != pattrs.len() {
                return Err(SchemaError::ArityMismatch {
                    context: format!("foreign key {child} -> {par}"),
                });
            }
            let mut fk = ForeignKey {
                child: RelId(0),
                child_attrs: Vec::with_capacity(cattrs.len()),
                parent: RelId(0),
                parent_attrs: Vec::with_capacity(pattrs.len()),
            };
            for (ca, pa) in cattrs.iter().zip(pattrs) {
                let (crid, cai) = resolve(&by_name, &relations, child, ca)?;
                let (prid, pai) = resolve(&by_name, &relations, par, pa)?;
                let (ct, pt) = (
                    relations[crid.index()].attrs[cai].domain_type,
                    relations[prid.index()].attrs[pai].domain_type,
                );
                if ct != pt {
                    return Err(SchemaError::DomainTypeMismatch {
                        context: format!("{child}.{ca} ({ct}) vs {par}.{pa} ({pt})"),
                    });
                }
                union(&mut parent, slot_of[&(crid, cai)], slot_of[&(prid, pai)]);
                fk.child = crid;
                fk.parent = prid;
                fk.child_attrs.push(cai);
                fk.parent_attrs.push(pai);
            }
            foreign_keys.push(fk);
        }

        for ((ra, aa), (rb, ab)) in &self.same_domain {
            let (arid, aai) = resolve(&by_name, &relations, ra, aa)?;
            let (brid, bai) = resolve(&by_name, &relations, rb, ab)?;
            let (at, bt) = (
                relations[arid.index()].attrs[aai].domain_type,
                relations[brid.index()].attrs[bai].domain_type,
            );
            if at != bt {
                return Err(SchemaError::DomainTypeMismatch {
                    context: format!("{ra}.{aa} ({at}) vs {rb}.{ab} ({bt})"),
                });
            }
            union(&mut parent, slot_of[&(arid, aai)], slot_of[&(brid, bai)]);
        }

        // Assign dense DomainIds per union-find root.
        let mut root_to_domain: HashMap<usize, DomainId> = HashMap::new();
        let mut domain_types: Vec<DomainType> = Vec::new();
        for (si, (rid, ai)) in slots.iter().enumerate() {
            let root = find(&mut parent, si);
            let did = *root_to_domain.entry(root).or_insert_with(|| {
                let d = DomainId(domain_types.len() as u32);
                domain_types.push(relations[rid.index()].attrs[*ai].domain_type);
                d
            });
            relations[rid.index()].attrs[*ai].domain = did;
        }

        let mut keys = Vec::with_capacity(self.keys.len());
        for (rel, attrs) in &self.keys {
            let rid = by_name
                .get(&rel.to_ascii_lowercase())
                .copied()
                .ok_or_else(|| SchemaError::UnknownRelation(rel.clone()))?;
            let mut idxs = Vec::with_capacity(attrs.len());
            for a in attrs {
                let (_, ai) = resolve(&by_name, &relations, rel, a)?;
                idxs.push(ai);
            }
            keys.push(Key {
                rel: rid,
                attrs: idxs,
            });
        }

        Ok(Schema {
            relations,
            by_name,
            keys,
            foreign_keys,
            domain_types,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beers_like() -> Schema {
        Schema::builder()
            .relation(
                "Drinker",
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
            .relation(
                "Likes",
                &[("drinker", DomainType::Text), ("beer", DomainType::Text)],
            )
            .key("Drinker", &["name"])
            .foreign_key("Likes", &["drinker"], "Drinker", &["name"])
            .foreign_key("Likes", &["beer"], "Beer", &["name"])
            .foreign_key("Serves", &["beer"], "Beer", &["name"])
            .build()
            .unwrap()
    }

    #[test]
    fn fk_unifies_domains() {
        let s = beers_like();
        let likes = s.rel_id("likes").unwrap();
        let serves = s.rel_id("Serves").unwrap();
        let beer = s.rel_id("BEER").unwrap();
        // Likes.beer, Serves.beer, Beer.name all share a domain.
        let d1 = s.attr_domain(likes, 1);
        let d2 = s.attr_domain(serves, 1);
        let d3 = s.attr_domain(beer, 0);
        assert_eq!(d1, d2);
        assert_eq!(d2, d3);
        // price stays separate.
        assert_ne!(s.attr_domain(serves, 2), d1);
        assert_eq!(s.domain_type(s.attr_domain(serves, 2)), DomainType::Real);
    }

    #[test]
    fn unrelated_attrs_stay_distinct() {
        let s = beers_like();
        let drinker = s.rel_id("Drinker").unwrap();
        let beer = s.rel_id("Beer").unwrap();
        assert_ne!(s.attr_domain(drinker, 1), s.attr_domain(beer, 1));
    }

    #[test]
    fn duplicate_relation_rejected() {
        let err = Schema::builder()
            .relation("R", &[("a", DomainType::Int)])
            .relation("r", &[("b", DomainType::Int)])
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateRelation(_)));
    }

    #[test]
    fn fk_type_mismatch_rejected() {
        let err = Schema::builder()
            .relation("A", &[("x", DomainType::Int)])
            .relation("B", &[("y", DomainType::Text)])
            .foreign_key("A", &["x"], "B", &["y"])
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::DomainTypeMismatch { .. }));
    }

    #[test]
    fn key_lookup() {
        let s = beers_like();
        let drinker = s.rel_id("Drinker").unwrap();
        let keys: Vec<_> = s.keys_of(drinker).collect();
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].attrs, vec![0]);
    }

    #[test]
    fn same_domain_declaration() {
        let s = Schema::builder()
            .relation("A", &[("x", DomainType::Int)])
            .relation("B", &[("y", DomainType::Int)])
            .same_domain(("A", "x"), ("B", "y"))
            .build()
            .unwrap();
        assert_eq!(
            s.attr_domain(s.rel_id("A").unwrap(), 0),
            s.attr_domain(s.rel_id("B").unwrap(), 0)
        );
    }
}
