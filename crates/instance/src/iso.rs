//! Isomorphism of c-instances modulo renaming of labeled nulls — the
//! `visited` check of Algorithm 1 ("takes into account renaming of
//! variables; it first compares certain properties of the c-instances ...
//! and then it checks all possible mappings").
//!
//! [`signature`] is a cheap renaming-invariant hash (color refinement) used
//! to bucket candidates; [`is_isomorphic`] is the exact backtracking check
//! run only within a bucket.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cqi_solver::{Ent, Lit, NullId};

use crate::cinstance::{CInstance, Cond};

fn h<T: Hash>(t: &T) -> u64 {
    let mut s = DefaultHasher::new();
    t.hash(&mut s);
    s.finish()
}

/// Renaming-invariant colors for the nulls of `inst` (a few rounds of color
/// refinement over table and condition occurrences).
fn null_colors(inst: &CInstance) -> Vec<u64> {
    let n = inst.num_nulls();
    let mut color: Vec<u64> = inst
        .nulls
        .iter()
        .map(|info| h(&(info.domain.0, info.dont_care)))
        .collect();
    for _round in 0..3 {
        // Occurrence descriptors per null.
        let mut occ: Vec<Vec<u64>> = vec![Vec::new(); n];
        let ent_desc = |e: &Ent, color: &[u64]| -> u64 {
            match e {
                Ent::Null(m) => h(&(1u8, color[m.index()])),
                Ent::Const(v) => h(&(2u8, v)),
            }
        };
        for (rel, row) in inst.tuples() {
            let row_sig: Vec<u64> = row.iter().map(|e| ent_desc(e, &color)).collect();
            for (col, e) in row.iter().enumerate() {
                if let Ent::Null(m) = e {
                    occ[m.index()].push(h(&(0u8, rel.0, col as u32, &row_sig)));
                }
            }
        }
        for cond in inst.global.iter() {
            match cond {
                Cond::Lit(Lit::Cmp { lhs, op, rhs }) => {
                    if let Ent::Null(m) = lhs {
                        occ[m.index()].push(h(&(3u8, format!("{op:?}"), ent_desc(rhs, &color))));
                    }
                    if let Ent::Null(m) = rhs {
                        occ[m.index()].push(h(&(4u8, format!("{op:?}"), ent_desc(lhs, &color))));
                    }
                }
                Cond::Lit(Lit::Like { negated, ent, pattern }) => {
                    if let Ent::Null(m) = ent {
                        occ[m.index()].push(h(&(5u8, negated, pattern)));
                    }
                }
                Cond::NotIn { rel, tuple } => {
                    let sig: Vec<u64> = tuple.iter().map(|e| ent_desc(e, &color)).collect();
                    for (pos, e) in tuple.iter().enumerate() {
                        if let Ent::Null(m) = e {
                            occ[m.index()].push(h(&(6u8, rel.0, pos as u32, &sig)));
                        }
                    }
                }
            }
        }
        for i in 0..n {
            occ[i].sort_unstable();
            color[i] = h(&(color[i], &occ[i]));
        }
    }
    color
}

/// Process-global hit/recompute counters for the cached digest and
/// signature (monotone, reporting-only — the chase snapshots deltas into
/// `ChaseStats`, mirroring how phase totals are attributed).
pub mod digest_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static HITS: AtomicU64 = AtomicU64::new(0);
    static RECOMPUTES: AtomicU64 = AtomicU64::new(0);

    pub(super) fn hit() {
        HITS.fetch_add(1, Ordering::SeqCst);
    }

    pub(super) fn recompute() {
        RECOMPUTES.fetch_add(1, Ordering::SeqCst);
    }

    /// `(hits, recomputes)` since process start.
    pub fn snapshot() -> (u64, u64) {
        (HITS.load(Ordering::SeqCst), RECOMPUTES.load(Ordering::SeqCst))
    }
}

/// An *exact* structural digest of a c-instance (null identities included,
/// no renaming invariance) — a cheap memoization key for chase-level
/// caching where instances are built deterministically.
///
/// The digest is combined in `O(#relations)` from hash chains the mutators
/// of [`CInstance`] maintain incrementally, and the combined value is
/// cached on the instance (cloning carries it along), so repeated digest
/// lookups across chase steps cost a single load. Debug builds cross-check
/// the chains against a from-scratch recomputation on every combine.
pub fn exact_digest(inst: &CInstance) -> u64 {
    if let Some(&d) = inst.digest_memo.get() {
        digest_stats::hit();
        return d;
    }
    digest_stats::recompute();
    let chains = inst.chains();
    debug_assert_eq!(
        chains.rels,
        crate::cinstance::DigestChains::recompute(&inst.tables, &inst.global).rels,
        "incremental relation chains diverged from from-scratch recomputation"
    );
    debug_assert_eq!(
        chains.conds,
        crate::cinstance::DigestChains::recompute(&inst.tables, &inst.global).conds,
        "incremental condition chain diverged from from-scratch recomputation"
    );
    let mut hh = DefaultHasher::new();
    chains.rels.hash(&mut hh);
    chains.conds.hash(&mut hh);
    (inst.num_nulls() as u64).hash(&mut hh);
    let d = hh.finish();
    let _ = inst.digest_memo.set(d);
    d
}

/// A renaming-invariant hash of the whole c-instance. Equal signatures are
/// necessary (not sufficient) for isomorphism. Cached on the instance like
/// [`exact_digest`] (color refinement is the expensive part).
pub fn signature(inst: &CInstance) -> u64 {
    if let Some(&s) = inst.sig_memo.get() {
        digest_stats::hit();
        return s;
    }
    digest_stats::recompute();
    let s = signature_uncached(inst);
    let _ = inst.sig_memo.set(s);
    s
}

fn signature_uncached(inst: &CInstance) -> u64 {
    let color = null_colors(inst);
    let ent_sig = |e: &Ent| -> u64 {
        match e {
            Ent::Null(m) => h(&(1u8, color[m.index()])),
            Ent::Const(v) => h(&(2u8, v)),
        }
    };
    let mut table_sigs: Vec<u64> = Vec::new();
    for (rel, row) in inst.tuples() {
        let cells: Vec<u64> = row.iter().map(&ent_sig).collect();
        table_sigs.push(h(&(rel.0, cells)));
    }
    table_sigs.sort_unstable();
    let mut cond_sigs: Vec<u64> = inst
        .global
        .iter()
        .map(|c| match c {
            Cond::Lit(Lit::Cmp { lhs, op, rhs }) => {
                h(&(10u8, format!("{op:?}"), ent_sig(lhs), ent_sig(rhs)))
            }
            Cond::Lit(Lit::Like { negated, ent, pattern }) => {
                h(&(11u8, negated, pattern, ent_sig(ent)))
            }
            Cond::NotIn { rel, tuple } => {
                let cells: Vec<u64> = tuple.iter().map(&ent_sig).collect();
                h(&(12u8, rel.0, cells))
            }
        })
        .collect();
    cond_sigs.sort_unstable();
    h(&(table_sigs, cond_sigs))
}

/// Exact isomorphism check: does a bijection between the labeled nulls of
/// `a` and `b` map tables to tables and conditions to conditions?
pub fn is_isomorphic(a: &CInstance, b: &CInstance) -> bool {
    if a.num_nulls() != b.num_nulls()
        || a.global.len() != b.global.len()
        || a.tables.iter().map(Vec::len).collect::<Vec<_>>()
            != b.tables.iter().map(Vec::len).collect::<Vec<_>>()
    {
        return false;
    }
    let ca = null_colors(a);
    let cb = null_colors(b);
    // Color multisets must agree.
    let mut ma = ca.clone();
    let mut mb = cb.clone();
    ma.sort_unstable();
    mb.sort_unstable();
    if ma != mb {
        return false;
    }
    let n = a.num_nulls();
    let mut map: Vec<Option<NullId>> = vec![None; n];
    let mut used = vec![false; n];
    backtrack(a, b, &ca, &cb, &mut map, &mut used, 0)
}

fn backtrack(
    a: &CInstance,
    b: &CInstance,
    ca: &[u64],
    cb: &[u64],
    map: &mut Vec<Option<NullId>>,
    used: &mut Vec<bool>,
    i: usize,
) -> bool {
    let n = map.len();
    if i == n {
        return check_mapping(a, b, map);
    }
    for j in 0..n {
        if used[j] || ca[i] != cb[j] {
            continue;
        }
        map[i] = Some(NullId(j as u32));
        used[j] = true;
        if backtrack(a, b, ca, cb, map, used, i + 1) {
            return true;
        }
        used[j] = false;
        map[i] = None;
    }
    false
}

fn apply(map: &[Option<NullId>], e: &Ent) -> Ent {
    match e {
        Ent::Null(m) => Ent::Null(map[m.index()].expect("total mapping")),
        Ent::Const(v) => Ent::Const(v.clone()),
    }
}

fn check_mapping(a: &CInstance, b: &CInstance, map: &[Option<NullId>]) -> bool {
    for (ri, rows) in a.tables.iter().enumerate() {
        let mut mapped: Vec<Vec<Ent>> = rows
            .iter()
            .map(|row| row.iter().map(|e| apply(map, e)).collect())
            .collect();
        let mut target = b.tables[ri].clone();
        mapped.sort();
        target.sort();
        if mapped != target {
            return false;
        }
    }
    let map_lit = |l: &Lit| -> Lit {
        match l {
            Lit::Cmp { lhs, op, rhs } => Lit::Cmp {
                lhs: apply(map, lhs),
                op: *op,
                rhs: apply(map, rhs),
            },
            Lit::Like { negated, ent, pattern } => Lit::Like {
                negated: *negated,
                ent: apply(map, ent),
                pattern: pattern.clone(),
            },
        }
    };
    let mut mapped: Vec<Cond> = a
        .global
        .iter()
        .map(|c| match c {
            Cond::Lit(l) => Cond::Lit(map_lit(l)),
            Cond::NotIn { rel, tuple } => Cond::NotIn {
                rel: *rel,
                tuple: tuple.iter().map(|e| apply(map, e)).collect(),
            },
        })
        .collect();
    let mut target = b.global.to_vec();
    let key = |c: &Cond| format!("{c:?}");
    mapped.sort_by_key(key);
    target.sort_by_key(key);
    mapped == target
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_schema::{DomainType, Schema};
    use cqi_solver::SolverOp;
    use std::sync::Arc;

    fn schema() -> Arc<cqi_schema::Schema> {
        Arc::new(
            Schema::builder()
                .relation(
                    "Serves",
                    &[
                        ("bar", DomainType::Text),
                        ("beer", DomainType::Text),
                        ("price", DomainType::Real),
                    ],
                )
                .build()
                .unwrap(),
        )
    }

    /// Two serves rows with a price order, built with nulls created in
    /// different orders.
    fn two_row_instance(s: &Arc<Schema>, swap: bool) -> CInstance {
        let mut inst = CInstance::new(Arc::clone(s));
        let serves = s.rel_id("Serves").unwrap();
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let b = inst.fresh_null("b", ed);
        let (x1, x2, p1, p2);
        if swap {
            x2 = inst.fresh_null("x2", bd);
            p2 = inst.fresh_null("p2", pd);
            x1 = inst.fresh_null("x1", bd);
            p1 = inst.fresh_null("p1", pd);
        } else {
            x1 = inst.fresh_null("x1", bd);
            p1 = inst.fresh_null("p1", pd);
            x2 = inst.fresh_null("x2", bd);
            p2 = inst.fresh_null("p2", pd);
        }
        inst.add_tuple(serves, vec![x1.into(), b.into(), p1.into()]);
        inst.add_tuple(serves, vec![x2.into(), b.into(), p2.into()]);
        inst.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Gt, p2)));
        inst
    }

    #[test]
    fn renamed_instances_are_isomorphic() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let b = two_row_instance(&s, true);
        assert_eq!(signature(&a), signature(&b));
        assert!(is_isomorphic(&a, &b));
    }

    #[test]
    fn direction_of_order_matters() {
        let s = schema();
        let a = two_row_instance(&s, false);
        // Same shape but p2 > p1 *and* an extra asymmetry: a LIKE condition
        // on x1 only — the bare flipped order is isomorphic by swapping
        // rows, so pin one side down.
        let mut b = two_row_instance(&s, false);
        let x1 = NullId(1);
        b.add_cond(Cond::Lit(Lit::like(x1, "T%")));
        assert!(!is_isomorphic(&a, &b));
    }

    #[test]
    fn flipped_symmetric_order_is_isomorphic() {
        // p1 > p2 vs p2 > p1 with otherwise symmetric rows: swapping the
        // two rows is an isomorphism.
        let s = schema();
        let a = two_row_instance(&s, false);
        let mut b = CInstance::new(Arc::clone(&s));
        let serves = s.rel_id("Serves").unwrap();
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let bb = b.fresh_null("b", ed);
        let y1 = b.fresh_null("y1", bd);
        let q1 = b.fresh_null("q1", pd);
        let y2 = b.fresh_null("y2", bd);
        let q2 = b.fresh_null("q2", pd);
        b.add_tuple(serves, vec![y1.into(), bb.into(), q1.into()]);
        b.add_tuple(serves, vec![y2.into(), bb.into(), q2.into()]);
        b.add_cond(Cond::Lit(Lit::cmp(q2, SolverOp::Gt, q1)));
        assert!(is_isomorphic(&a, &b));
    }

    #[test]
    fn different_constants_not_isomorphic() {
        let s = schema();
        let serves = s.rel_id("Serves").unwrap();
        let mk = |price: f64| {
            let mut inst = CInstance::new(Arc::clone(&s));
            let (bd, ed) = (s.attr_domain(serves, 0), s.attr_domain(serves, 1));
            let x = inst.fresh_null("x", bd);
            let b = inst.fresh_null("b", ed);
            inst.add_tuple(
                serves,
                vec![x.into(), b.into(), Ent::Const(cqi_schema::Value::real(price))],
            );
            inst
        };
        let a = mk(2.25);
        let b = mk(2.75);
        assert!(!is_isomorphic(&a, &b));
        assert_ne!(signature(&a), signature(&b));
    }

    #[test]
    fn isomorphism_is_reflexive_and_symmetric() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let b = two_row_instance(&s, true);
        assert!(is_isomorphic(&a, &a));
        assert_eq!(is_isomorphic(&a, &b), is_isomorphic(&b, &a));
    }

    #[test]
    fn extra_condition_breaks_isomorphism() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let mut b = two_row_instance(&s, false);
        b.add_cond(Cond::Lit(Lit::cmp(
            NullId(3),
            SolverOp::Ne,
            NullId(1),
        )));
        assert!(!is_isomorphic(&a, &b));
    }

    /// The incremental chains + cached combine must agree across mutation
    /// orders that build the same instance, stay stable across clones, and
    /// change on every digest-affecting mutation. (The debug-assert inside
    /// `exact_digest` cross-checks the chains against a from-scratch
    /// recomputation on every combine, so this test also exercises that.)
    #[test]
    fn digest_cache_tracks_mutations() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let b = two_row_instance(&s, false);
        assert_eq!(exact_digest(&a), exact_digest(&b), "same build, same digest");
        let cloned = a.clone();
        assert_eq!(exact_digest(&cloned), exact_digest(&a), "clone keeps digest");
        assert_eq!(signature(&cloned), signature(&a));

        let before = exact_digest(&a);
        let mut c = a.clone();
        c.add_cond(Cond::Lit(Lit::like(NullId(1), "T%")));
        assert_ne!(exact_digest(&c), before, "new condition changes digest");
        let mut d = a.clone();
        let serves = s.rel_id("Serves").unwrap();
        let pd = s.attr_domain(serves, 2);
        d.fresh_null("extra", pd);
        assert_ne!(exact_digest(&d), before, "new null changes digest");
        let mut e = a.clone();
        let x = e.fresh_null("x9", s.attr_domain(serves, 0));
        let bb = e.fresh_null("b9", s.attr_domain(serves, 1));
        let p = e.fresh_null("p9", pd);
        e.add_tuple(serves, vec![x.into(), bb.into(), p.into()]);
        assert_ne!(exact_digest(&e), before, "new tuple changes digest");
        // A duplicate insert is a no-op and must keep the digest.
        let frozen = exact_digest(&e);
        assert!(!e.add_tuple(serves, vec![x.into(), bb.into(), p.into()]));
        assert_eq!(exact_digest(&e), frozen);
    }

    #[test]
    fn digest_counters_record_hits_and_recomputes() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let (h0, r0) = digest_stats::snapshot();
        exact_digest(&a); // recompute (fills the cache)
        exact_digest(&a); // hit
        exact_digest(&a.clone()); // hit carried through the clone
        let (h1, r1) = digest_stats::snapshot();
        assert!(r1 > r0);
        assert!(h1 >= h0 + 2);
    }
}
