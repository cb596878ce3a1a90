//! Conditional instances (c-instances), Definition 3.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use cqi_schema::{DomainId, DomainType, RelId, Schema, Value};
use cqi_solver::{Ent, Lit, NullId};

/// Metadata for one labeled null of a c-instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NullInfo {
    /// Display name (usually inherited from the query variable that created
    /// it, e.g. `d1`); don't-care nulls render as `∗`.
    pub name: String,
    pub domain: DomainId,
    pub ty: DomainType,
    /// A "don't care" null (`∗` of Definition 3): it never participates in
    /// the global condition or joins, and is excluded from the quantifier
    /// domain pools.
    pub dont_care: bool,
}

/// One atomic condition of a global condition (§3.2): either a (possibly
/// negated) comparison/LIKE literal, or a negated relational atom
/// `¬R(e₁..e_k)`. The derived order is arbitrary but total, like
/// [`Lit`]'s: it sorts condition lists for multiset comparison.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cond {
    Lit(Lit),
    NotIn { rel: RelId, tuple: Vec<Ent> },
}

/// Incrementally maintained hash chains over the mutable parts of a
/// c-instance: one order-sensitive chain per relation (folded over rows in
/// insertion order) plus one chain over the global condition. Combining the
/// chains with the null count yields the instance's exact digest in
/// `O(#relations)` instead of re-hashing every cell — the mutators
/// ([`CInstance::add_tuple`], [`CInstance::add_cond`]) extend the chains as
/// they extend the instance.
#[derive(Clone, Debug)]
pub(crate) struct DigestChains {
    pub(crate) rels: Vec<u64>,
    pub(crate) conds: u64,
}

pub(crate) fn chain_hash<T: Hash>(chain: u64, t: &T) -> u64 {
    let mut s = DefaultHasher::new();
    chain.hash(&mut s);
    t.hash(&mut s);
    s.finish()
}

impl DigestChains {
    fn new(nrel: usize) -> DigestChains {
        DigestChains {
            rels: vec![0; nrel],
            conds: 0,
        }
    }

    /// The from-scratch chain computation the incremental updates must
    /// agree with (the debug cross-check in [`crate::iso::exact_digest`]).
    pub(crate) fn recompute(tables: &[Vec<Vec<Ent>>], global: &[Cond]) -> DigestChains {
        let mut chains = DigestChains::new(tables.len());
        for (ri, rows) in tables.iter().enumerate() {
            for row in rows {
                chains.rels[ri] = chain_hash(chains.rels[ri], row);
            }
        }
        for cond in global {
            chains.conds = chain_hash(chains.conds, cond);
        }
        chains
    }
}

/// A conditional instance: one v-table per relation plus the global
/// condition, plus bookkeeping the chase needs (null registry and per-domain
/// entity pools).
///
/// The four heap parts (`tables`, `global`, `nulls` and the domain pools)
/// sit behind [`Arc`], so a clone costs a few reference counts rather than
/// a deep copy. Each mutator copies only the part it changes, and only
/// while another instance still shares it (`Arc::make_mut`): a child the
/// chase derives from its parent by adding a tuple copies the tables, the
/// pools only if a new entity joins one, the null registry only if FK
/// repair pads a row, and never the global condition. Memoized, revisited
/// and returned instances therefore share storage with the instances they
/// were cloned from.
#[derive(Clone, Debug)]
pub struct CInstance {
    pub schema: Arc<Schema>,
    /// `tables[rel][row][col]`; rows are deduplicated, insertion-ordered.
    pub tables: Arc<Vec<Vec<Vec<Ent>>>>,
    /// Conjunction of atomic conditions.
    pub global: Arc<Vec<Cond>>,
    pub nulls: Arc<Vec<NullInfo>>,
    /// `domains[d]` — the entities "in the domain" of `d`, i.e. the pool a
    /// quantified variable of that domain may be mapped to (Algorithm 5/6).
    /// Don't-care nulls are excluded.
    domains: Arc<Vec<Vec<Ent>>>,
    /// Incremental digest state; see [`DigestChains`]. The chains only see
    /// mutations made through the methods of this type — the pub fields are
    /// read openly across the workspace but written nowhere else, and the
    /// debug cross-check in `iso::exact_digest` enforces that discipline.
    /// (`Arc::make_mut` is callable from outside, so the `Arc` alone does
    /// not keep other code from writing them.)
    chains: DigestChains,
    /// Combined exact digest, filled lazily by `iso::exact_digest` and
    /// cleared by every digest-affecting mutation. Cloning an instance
    /// carries the cached value along (it stays valid for the copy).
    pub(crate) digest_memo: OnceLock<u64>,
    /// Renaming-invariant signature, same lifecycle as `digest_memo`.
    pub(crate) sig_memo: OnceLock<u64>,
}

impl CInstance {
    pub fn new(schema: Arc<Schema>) -> CInstance {
        let nrel = schema.relations().len();
        let ndom = schema.num_domains();
        CInstance {
            schema,
            tables: Arc::new(vec![Vec::new(); nrel]),
            global: Arc::new(Vec::new()),
            nulls: Arc::new(Vec::new()),
            domains: Arc::new(vec![Vec::new(); ndom]),
            chains: DigestChains::new(nrel),
            digest_memo: OnceLock::new(),
            sig_memo: OnceLock::new(),
        }
    }

    pub(crate) fn chains(&self) -> &DigestChains {
        &self.chains
    }

    /// Clears the cached digest/signature after a digest-affecting mutation.
    fn invalidate_caches(&mut self) {
        self.digest_memo = OnceLock::new();
        self.sig_memo = OnceLock::new();
    }

    /// Total number of tuples plus atomic conditions — the paper's `|I|`
    /// (Definition 9; e.g. `|I0| = 12` in Fig. 4).
    pub fn size(&self) -> usize {
        self.num_tuples() + self.global.len()
    }

    pub fn num_tuples(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    pub fn num_nulls(&self) -> usize {
        self.nulls.len()
    }

    pub fn null_types(&self) -> Vec<DomainType> {
        self.nulls.iter().map(|n| n.ty).collect()
    }

    pub fn null_info(&self, n: NullId) -> &NullInfo {
        &self.nulls[n.index()]
    }

    /// Creates a fresh labeled null in domain `d` and adds it to the pool.
    /// Display names are made unique by priming (`p1`, `p1'`, `p1''`, ...).
    pub fn fresh_null(&mut self, name: impl Into<String>, d: DomainId) -> NullId {
        let mut name = name.into();
        while self.nulls.iter().any(|n| n.name == name) {
            name.push('\'');
        }
        let id = NullId(self.nulls.len() as u32);
        Arc::make_mut(&mut self.nulls).push(NullInfo {
            name,
            domain: d,
            ty: self.schema.domain_type(d),
            dont_care: false,
        });
        Arc::make_mut(&mut self.domains)[d.index()].push(Ent::Null(id));
        self.invalidate_caches();
        id
    }

    /// Creates a don't-care null (rendered `∗`, excluded from pools).
    pub fn fresh_dont_care(&mut self, d: DomainId) -> NullId {
        let id = NullId(self.nulls.len() as u32);
        Arc::make_mut(&mut self.nulls).push(NullInfo {
            name: "*".to_owned(),
            domain: d,
            ty: self.schema.domain_type(d),
            dont_care: true,
        });
        self.invalidate_caches();
        id
    }

    /// The entity pool of domain `d`.
    pub fn domain_pool(&self, d: DomainId) -> &[Ent] {
        &self.domains[d.index()]
    }

    /// Registers a constant as a member of domain `d`'s pool (constants
    /// mentioned by the query participate in quantifier iteration).
    pub fn add_const_to_domain(&mut self, d: DomainId, v: Value) {
        let e = Ent::Const(v);
        if !self.domains[d.index()].contains(&e) {
            Arc::make_mut(&mut self.domains)[d.index()].push(e);
        }
    }

    /// Adds a tuple to `rel` (deduplicated), then repairs foreign keys by
    /// inserting missing parent tuples with don't-care padding — this is
    /// how Fig. 4's `Drinker`/`Beer`/`Bar` rows arise. Returns whether the
    /// primary tuple was new.
    pub fn add_tuple(&mut self, rel: RelId, tuple: Vec<Ent>) -> bool {
        debug_assert_eq!(tuple.len(), self.schema.relation(rel).arity());
        if self.tables[rel.index()].contains(&tuple) {
            return false;
        }
        // Occurrence-close the domain pools: an entity sitting in a column
        // of domain `d` belongs to `d`'s active domain in every possible
        // world, so quantifiers over `d` must range over it. Without this a
        // null created under one domain but joined into a same-typed column
        // of *another* domain escapes that column's ∀/∃ pools, and Tree-SAT
        // can accept instances whose every grounding fails the query.
        for (col, cell) in tuple.iter().enumerate() {
            if self.is_dont_care(cell) {
                continue;
            }
            let d = self.schema.attr_domain(rel, col);
            if !self.domains[d.index()].contains(cell) {
                Arc::make_mut(&mut self.domains)[d.index()].push(cell.clone());
            }
        }
        self.chains.rels[rel.index()] = chain_hash(self.chains.rels[rel.index()], &tuple);
        Arc::make_mut(&mut self.tables)[rel.index()].push(tuple.clone());
        self.invalidate_caches();
        self.repair_foreign_keys(rel, &tuple);
        true
    }

    fn repair_foreign_keys(&mut self, rel: RelId, tuple: &[Ent]) {
        let fks: Vec<_> = self
            .schema
            .foreign_keys()
            .iter()
            .filter(|fk| fk.child == rel)
            .cloned()
            .collect();
        for fk in fks {
            let parent_rel = fk.parent;
            let arity = self.schema.relation(parent_rel).arity();
            // Does a parent row with the referenced entities already exist?
            let exists = self.tables[parent_rel.index()].iter().any(|row| {
                fk.child_attrs
                    .iter()
                    .zip(&fk.parent_attrs)
                    .all(|(ca, pa)| row[*pa] == tuple[*ca])
            });
            if exists {
                continue;
            }
            let mut parent_row: Vec<Option<Ent>> = vec![None; arity];
            for (ca, pa) in fk.child_attrs.iter().zip(&fk.parent_attrs) {
                parent_row[*pa] = Some(tuple[*ca].clone());
            }
            let row: Vec<Ent> = parent_row
                .into_iter()
                .enumerate()
                .map(|(col, cell)| match cell {
                    Some(e) => e,
                    None => {
                        let d = self.schema.attr_domain(parent_rel, col);
                        Ent::Null(self.fresh_dont_care(d))
                    }
                })
                .collect();
            // Recursive: the parent row may itself have FKs.
            self.add_tuple(parent_rel, row);
        }
    }

    /// Adds an atomic condition to the global condition. Deduplication
    /// treats don't-care nulls as interchangeable, so two `¬R(x, *, *)`
    /// conditions differing only in their padding nulls coincide.
    pub fn add_cond(&mut self, cond: Cond) -> bool {
        let duplicate = self.global.iter().any(|c| match (c, &cond) {
            (Cond::NotIn { rel: r1, tuple: t1 }, Cond::NotIn { rel: r2, tuple: t2 }) => {
                r1 == r2
                    && t1.len() == t2.len()
                    && t1
                        .iter()
                        .zip(t2)
                        .all(|(a, b)| a == b || (self.is_dont_care(a) && self.is_dont_care(b)))
            }
            (a, b) => a == b,
        });
        if duplicate {
            return false;
        }
        self.chains.conds = chain_hash(self.chains.conds, &cond);
        Arc::make_mut(&mut self.global).push(cond);
        self.invalidate_caches();
        true
    }

    /// Don't-care nulls occurring in columns of domain `d`. Definition 3
    /// keeps them out of the quantifier pools (nothing may constrain or
    /// join them) — but each still takes *some* value in every possible
    /// world, so a universal quantifier over `d` must range over them too
    /// (Tree-SAT soundness; see `treesat`).
    pub fn dont_cares_in_domain(&self, d: DomainId) -> Vec<Ent> {
        let mut out: Vec<Ent> = Vec::new();
        for (ri, rows) in self.tables.iter().enumerate() {
            let rel = RelId(ri as u32);
            for row in rows {
                for (col, cell) in row.iter().enumerate() {
                    if self.schema.attr_domain(rel, col) == d
                        && self.is_dont_care(cell)
                        && !out.contains(cell)
                    {
                        out.push(cell.clone());
                    }
                }
            }
        }
        out
    }

    /// Whether an entity is a don't-care labeled null.
    pub fn is_dont_care(&self, e: &Ent) -> bool {
        matches!(e, Ent::Null(n) if self.nulls[n.index()].dont_care)
    }

    /// Iterates all `(rel, row)` pairs.
    pub fn tuples(&self) -> impl Iterator<Item = (RelId, &Vec<Ent>)> {
        self.tables
            .iter()
            .enumerate()
            .flat_map(|(ri, rows)| rows.iter().map(move |r| (RelId(ri as u32), r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_schema::DomainType;
    use cqi_solver::SolverOp;

    pub(crate) fn beers_schema() -> Arc<Schema> {
        Arc::new(
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
                .relation(
                    "Likes",
                    &[("drinker", DomainType::Text), ("beer", DomainType::Text)],
                )
                .foreign_key("Serves", &["bar"], "Bar", &["name"])
                .foreign_key("Serves", &["beer"], "Beer", &["name"])
                .foreign_key("Likes", &["drinker"], "Drinker", &["name"])
                .foreign_key("Likes", &["beer"], "Beer", &["name"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn fk_repair_creates_parent_rows() {
        let s = beers_schema();
        let mut inst = CInstance::new(Arc::clone(&s));
        let serves = s.rel_id("Serves").unwrap();
        let bar_d = s.attr_domain(serves, 0);
        let beer_d = s.attr_domain(serves, 1);
        let price_d = s.attr_domain(serves, 2);
        let x1 = inst.fresh_null("x1", bar_d);
        let b1 = inst.fresh_null("b1", beer_d);
        let p1 = inst.fresh_null("p1", price_d);
        inst.add_tuple(serves, vec![x1.into(), b1.into(), p1.into()]);
        // Serves row + repaired Bar and Beer rows.
        assert_eq!(inst.num_tuples(), 3);
        let bar = s.rel_id("Bar").unwrap();
        assert_eq!(inst.tables[bar.index()].len(), 1);
        assert_eq!(inst.tables[bar.index()][0][0], Ent::Null(x1));
        // The padding is a don't-care null.
        let pad = inst.tables[bar.index()][0][1].as_null().unwrap();
        assert!(inst.null_info(pad).dont_care);
    }

    #[test]
    fn fk_repair_is_idempotent() {
        let s = beers_schema();
        let mut inst = CInstance::new(Arc::clone(&s));
        let serves = s.rel_id("Serves").unwrap();
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let x1 = inst.fresh_null("x1", bd);
        let b1 = inst.fresh_null("b1", ed);
        let p1 = inst.fresh_null("p1", pd);
        let p2 = inst.fresh_null("p2", pd);
        inst.add_tuple(serves, vec![x1.into(), b1.into(), p1.into()]);
        let n = inst.num_tuples();
        // Same bar/beer, new price: no new parents.
        inst.add_tuple(serves, vec![x1.into(), b1.into(), p2.into()]);
        assert_eq!(inst.num_tuples(), n + 1);
        // Exact duplicate: nothing.
        assert!(!inst.add_tuple(serves, vec![x1.into(), b1.into(), p2.into()]));
        assert_eq!(inst.num_tuples(), n + 1);
    }

    #[test]
    fn size_counts_tuples_and_conditions() {
        let s = beers_schema();
        let mut inst = CInstance::new(Arc::clone(&s));
        let likes = s.rel_id("Likes").unwrap();
        let d = inst.fresh_null("d1", s.attr_domain(likes, 0));
        let b = inst.fresh_null("b1", s.attr_domain(likes, 1));
        inst.add_tuple(likes, vec![d.into(), b.into()]);
        inst.add_cond(Cond::Lit(Lit::like(d, "Eve%")));
        // Likes + repaired Drinker + Beer = 3 tuples, 1 condition.
        assert_eq!(inst.size(), 4);
        // Duplicate condition not counted twice.
        assert!(!inst.add_cond(Cond::Lit(Lit::like(d, "Eve%"))));
        assert_eq!(inst.size(), 4);
    }

    #[test]
    fn domain_pools_exclude_dont_cares() {
        let s = beers_schema();
        let mut inst = CInstance::new(Arc::clone(&s));
        let serves = s.rel_id("Serves").unwrap();
        let pd = s.attr_domain(serves, 2);
        let p1 = inst.fresh_null("p1", pd);
        let _dc = inst.fresh_dont_care(pd);
        inst.add_const_to_domain(pd, Value::real(2.25));
        inst.add_const_to_domain(pd, Value::real(2.25));
        let pool = inst.domain_pool(pd);
        assert_eq!(pool.len(), 2);
        assert!(pool.contains(&Ent::Null(p1)));
        assert!(pool.contains(&Ent::Const(Value::real(2.25))));
    }

    #[test]
    fn pools_are_occurrence_closed_across_domains() {
        // Drinker.addr and Bar.addr are distinct (unrelated) Text domains.
        // A null created under one domain but placed into a column of the
        // other must join that column's pool too — quantifiers over the
        // column's domain range over every entity that can occur there.
        let s = beers_schema();
        let mut inst = CInstance::new(Arc::clone(&s));
        let drinker = s.rel_id("Drinker").unwrap();
        let bar = s.rel_id("Bar").unwrap();
        let daddr = s.attr_domain(drinker, 1);
        let baddr = s.attr_domain(bar, 1);
        assert_ne!(daddr, baddr, "test needs two unrelated Text domains");
        let n = inst.fresh_null("n1", daddr);
        let x = inst.fresh_null("x1", s.attr_domain(bar, 0));
        inst.add_tuple(bar, vec![x.into(), n.into()]);
        assert!(inst.domain_pool(daddr).contains(&Ent::Null(n)));
        assert!(inst.domain_pool(baddr).contains(&Ent::Null(n)));
        // Don't-cares stay out of the pools but are reported per domain.
        let dc = inst.fresh_dont_care(baddr);
        inst.add_tuple(bar, vec![x.into(), dc.into()]);
        assert!(!inst.domain_pool(baddr).contains(&Ent::Null(dc)));
        assert_eq!(inst.dont_cares_in_domain(baddr), vec![Ent::Null(dc)]);
        assert!(inst.dont_cares_in_domain(daddr).is_empty());
    }

    #[test]
    fn not_in_condition_dedup() {
        let s = beers_schema();
        let mut inst = CInstance::new(Arc::clone(&s));
        let likes = s.rel_id("Likes").unwrap();
        let d = inst.fresh_null("d2", s.attr_domain(likes, 0));
        let b = inst.fresh_null("b1", s.attr_domain(likes, 1));
        let c = Cond::NotIn {
            rel: likes,
            tuple: vec![d.into(), b.into()],
        };
        assert!(inst.add_cond(c.clone()));
        assert!(!inst.add_cond(c));
        assert_eq!(inst.global.len(), 1);
    }

    #[test]
    fn cmp_cond_with_op() {
        let s = beers_schema();
        let mut inst = CInstance::new(Arc::clone(&s));
        let serves = s.rel_id("Serves").unwrap();
        let pd = s.attr_domain(serves, 2);
        let p1 = inst.fresh_null("p1", pd);
        let p2 = inst.fresh_null("p2", pd);
        inst.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Gt, p2)));
        assert_eq!(inst.size(), 1);
    }

    /// A source for the copy-on-write tests: a `Serves` row whose FK repair
    /// pads a `Bar` and a `Beer` row, a `NotIn` condition, and a constant
    /// in the price pool.
    fn cow_source(s: &Arc<Schema>) -> CInstance {
        let serves = s.rel_id("Serves").unwrap();
        let likes = s.rel_id("Likes").unwrap();
        let mut inst = CInstance::new(Arc::clone(s));
        let x1 = inst.fresh_null("x1", s.attr_domain(serves, 0));
        let b1 = inst.fresh_null("b1", s.attr_domain(serves, 1));
        let p1 = inst.fresh_null("p1", s.attr_domain(serves, 2));
        let d1 = inst.fresh_null("d1", s.attr_domain(likes, 0));
        inst.add_tuple(serves, vec![x1.into(), b1.into(), p1.into()]);
        inst.add_cond(Cond::NotIn {
            rel: likes,
            tuple: vec![d1.into(), b1.into()],
        });
        inst.add_const_to_domain(s.attr_domain(serves, 2), Value::real(2.5));
        inst
    }

    type Step = Box<dyn Fn(&mut CInstance)>;

    /// The five mutators, in the order the isolation test applies them.
    /// Null ids are those `cow_source` hands out: x1, b1, p1, d1 = 0..4.
    fn cow_steps(s: &Arc<Schema>) -> Vec<Step> {
        let serves = s.rel_id("Serves").unwrap();
        let likes = s.rel_id("Likes").unwrap();
        let bar = s.rel_id("Bar").unwrap();
        let pd = s.attr_domain(serves, 2);
        let bar_addr = s.attr_domain(bar, 1);
        let (b1, p1, d1) = (NullId(1), NullId(2), NullId(3));
        vec![
            Box::new(move |i: &mut CInstance| {
                i.fresh_null("p1", pd);
            }),
            Box::new(move |i: &mut CInstance| {
                i.fresh_dont_care(bar_addr);
            }),
            Box::new(move |i: &mut CInstance| i.add_const_to_domain(pd, Value::real(3.0))),
            Box::new(move |i: &mut CInstance| {
                // Pads a `Drinker` row for d1.
                i.add_tuple(likes, vec![d1.into(), b1.into()]);
            }),
            Box::new(move |i: &mut CInstance| {
                i.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Gt, Value::real(2.5))));
            }),
        ]
    }

    /// Which of the four shared parts two instances still share:
    /// `[tables, global, nulls, pools]`.
    fn shared(a: &CInstance, b: &CInstance) -> [bool; 4] {
        [
            Arc::ptr_eq(&a.tables, &b.tables),
            Arc::ptr_eq(&a.global, &b.global),
            Arc::ptr_eq(&a.nulls, &b.nulls),
            Arc::ptr_eq(&a.domains, &b.domains),
        ]
    }

    #[test]
    fn mutating_a_clone_leaves_the_source_untouched() {
        let s = beers_schema();
        let render = |i: &CInstance| (crate::exact_digest(i), crate::signature(i), i.to_string());
        let contents = |i: &CInstance| {
            let parts = (
                (*i.tables).clone(),
                (*i.global).clone(),
                (*i.nulls).clone(),
                (*i.domains).clone(),
            );
            (parts, render(i))
        };
        let src = cow_source(&s);
        let before = contents(&src);
        let steps = cow_steps(&s);
        let mut copy = src.clone();
        for (i, step) in steps.iter().enumerate() {
            step(&mut copy);
            assert_eq!(contents(&src), before, "step {i} changed the source");
            let mut scratch = cow_source(&s);
            steps[..=i].iter().for_each(|st| st(&mut scratch));
            assert_eq!(render(&copy), render(&scratch), "step {i}");
        }
    }

    #[test]
    fn mutators_unshare_only_the_part_they_change() {
        let s = beers_schema();
        let serves = s.rel_id("Serves").unwrap();
        let likes = s.rel_id("Likes").unwrap();
        let pd = s.attr_domain(serves, 2);
        let (x1, b1, p1, d1) = (NullId(0), NullId(1), NullId(2), NullId(3));
        let src = cow_source(&s);
        assert_eq!(shared(&src, &src.clone()), [true; 4]);

        let mut c = src.clone();
        c.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Gt, Value::real(2.5))));
        assert_eq!(shared(&src, &c), [true, false, true, true]);
        // A duplicate condition copies nothing.
        let mut c = src.clone();
        assert!(!c.add_cond(Cond::NotIn {
            rel: likes,
            tuple: vec![d1.into(), b1.into()]
        }));
        assert_eq!(shared(&src, &c), [true; 4]);

        let mut c = src.clone();
        c.fresh_null("p2", pd);
        assert_eq!(shared(&src, &c), [true, true, false, false]);
        let mut c = src.clone();
        c.fresh_dont_care(pd);
        assert_eq!(shared(&src, &c), [true, true, false, true]);

        // The constant is already pooled.
        let mut c = src.clone();
        c.add_const_to_domain(pd, Value::real(2.5));
        assert_eq!(shared(&src, &c), [true; 4]);
        c.add_const_to_domain(pd, Value::real(4.0));
        assert_eq!(shared(&src, &c), [true, true, true, false]);

        // Every entity already pooled, both FK parents present: only the
        // tables are copied.
        let mut c = src.clone();
        assert!(c.add_tuple(serves, vec![x1.into(), b1.into(), Value::real(2.5).into()]));
        assert_eq!(shared(&src, &c), [false, true, true, true]);
        // A new entity joins the price pool.
        let mut c = src.clone();
        assert!(c.add_tuple(serves, vec![x1.into(), b1.into(), Value::real(9.0).into()]));
        assert_eq!(shared(&src, &c), [false, true, true, false]);
        // FK repair pads a `Drinker` row with a fresh don't-care null.
        let mut c = src.clone();
        assert!(c.add_tuple(likes, vec![d1.into(), b1.into()]));
        assert_eq!(shared(&src, &c), [false, true, false, true]);
        // A duplicate row copies nothing.
        let mut c = src.clone();
        assert!(!c.add_tuple(serves, vec![x1.into(), b1.into(), p1.into()]));
        assert_eq!(shared(&src, &c), [true; 4]);
    }
}
