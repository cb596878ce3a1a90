//! Canonicalization of [`Problem`]s: null renaming by color refinement plus
//! literal sorting, yielding a stable key under which structurally
//! isomorphic subproblems coincide.
//!
//! The chase decides thousands of near-identical `IsConsistent` problems
//! whose only difference is the *names* of the labeled nulls (fresh nulls
//! are minted in whatever order the search visited branches). Canonical
//! form renames nulls into a structure-determined order and sorts the
//! literals, so a memo keyed on it ([`crate::cache::SolverCache`]) hits
//! across those renamings.
//!
//! Soundness does not rest on the color refinement being perfect: the cache
//! key is the *entire canonical problem* (types + sorted conjunction +
//! sorted clauses), not a hash of it, so two problems share a key only when
//! their canonical forms are literally identical — in which case they are
//! the same problem up to the recorded null bijection. Imperfect tie-breaks
//! can only cause cache *misses*, never wrong answers.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cqi_schema::DomainType;

use crate::cond::{Clause, Lit, Problem, SolverOp};
use crate::ent::{Ent, NullId};
use crate::model::Model;

fn h<T: Hash>(t: &T) -> u64 {
    let mut s = DefaultHasher::new();
    t.hash(&mut s);
    s.finish()
}

/// The canonical form of a problem — usable as an exact memo key. The
/// derived order picks the lexicographically smallest labeling when color
/// refinement leaves symmetric nulls tied.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonKey {
    pub types: Vec<DomainType>,
    pub conj: Vec<Lit>,
    pub clauses: Vec<Clause>,
}

/// A canonicalized problem: the key plus the null bijection that produced
/// it, so cached models (expressed over canonical nulls) can be mapped back
/// to the original naming.
///
/// Nulls mentioned by no literal are *excluded* from the canonical form:
/// they never affect satisfiability, and excluding them lets problems that
/// differ only in how many unconstrained nulls the instance happens to
/// carry share a cache entry. They map to [`UNMENTIONED`] and come back
/// unassigned in [`Canonical::model_to_orig`] (callers ground them with
/// `Model::complete`).
#[derive(Clone, Debug)]
pub struct Canonical {
    pub key: CanonKey,
    /// `to_canon[orig_null] = canonical_null`, or [`UNMENTIONED`].
    pub to_canon: Vec<usize>,
}

/// Sentinel in [`Canonical::to_canon`] for nulls absent from every literal.
pub const UNMENTIONED: usize = usize::MAX;

impl Canonical {
    /// Rebuilds the canonical form as a solvable [`Problem`].
    pub fn problem(&self) -> Problem {
        Problem {
            null_types: self.key.types.clone(),
            conj: self.key.conj.clone(),
            clauses: self.key.clauses.clone(),
        }
    }

    /// A 64-bit digest of the canonical form (for logging/stats; the cache
    /// keys on the full structure).
    pub fn digest(&self) -> u64 {
        h(&self.key)
    }

    /// Maps a model over canonical nulls back to the original null naming.
    /// Unmentioned nulls stay unassigned.
    pub fn model_to_orig(&self, canon_model: &Model) -> Model {
        let values = self
            .to_canon
            .iter()
            .map(|&c| {
                if c == UNMENTIONED {
                    None
                } else {
                    canon_model.get(NullId(c as u32)).cloned()
                }
            })
            .collect();
        Model::new(values)
    }
}

/// Orientation-normalized view of a comparison: `Gt`/`Ge` flip to `Lt`/`Le`
/// so a literal and its mirror color identically.
fn oriented<'a>(lhs: &'a Ent, op: SolverOp, rhs: &'a Ent) -> (&'a Ent, SolverOp, &'a Ent) {
    match op {
        SolverOp::Gt | SolverOp::Ge => (rhs, op.flip(), lhs),
        _ => (lhs, op, rhs),
    }
}

/// Fast 64-bit mixer (splitmix64 finalizer) — the refinement loop hashes
/// small fixed-size tuples millions of times per chase run, where SipHash
/// setup cost dominates; constants and patterns are pre-hashed once at
/// compile time so only `mix` runs per round.
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix(mix(a, b), c)
}

/// A literal operand, pre-resolved for refinement: a null index whose color
/// is looked up each round, or a fixed hash (constants, absent operands).
#[derive(Clone, Copy)]
enum Desc {
    Null(usize),
    Fixed(u64),
}

impl Desc {
    #[inline]
    fn eval(self, color: &[u64]) -> u64 {
        match self {
            Desc::Null(i) => mix(1, color[i]),
            Desc::Fixed(v) => v,
        }
    }
}

/// One literal compiled for refinement: orientation normalized, constants
/// and patterns pre-hashed.
#[derive(Clone, Copy)]
struct CLit {
    /// Comparison operator tag, or `LIKE_TAG` for (possibly negated) LIKE.
    op: u8,
    /// Symmetric operator (`=`/`≠`): both operands see one side tag.
    sym: bool,
    a: Desc,
    b: Desc,
}

const LIKE_TAG: u8 = 0x40;

fn compile_ent(e: &Ent) -> Desc {
    match e {
        Ent::Null(m) => Desc::Null(m.index()),
        Ent::Const(v) => Desc::Fixed(mix(2, h(v))),
    }
}

fn compile_lit(lit: &Lit) -> CLit {
    match lit {
        Lit::Cmp { lhs, op, rhs } => {
            let (a, op, b) = oriented(lhs, *op, rhs);
            CLit {
                op: op as u8,
                sym: matches!(op, SolverOp::Eq | SolverOp::Ne),
                a: compile_ent(a),
                b: compile_ent(b),
            }
        }
        Lit::Like { negated, ent, pattern } => CLit {
            op: LIKE_TAG | *negated as u8,
            sym: false,
            a: compile_ent(ent),
            b: Desc::Fixed(h(pattern)),
        },
    }
}

/// The problem pre-compiled for the refinement loop.
struct Compiled {
    conj: Vec<CLit>,
    clauses: Vec<Vec<CLit>>,
}

fn compile(p: &Problem) -> Compiled {
    Compiled {
        conj: p.conj.iter().map(compile_lit).collect(),
        clauses: p
            .clauses
            .iter()
            .map(|c| c.iter().map(compile_lit).collect())
            .collect(),
    }
}

/// Occurrence descriptors contributed by one literal to the nulls it
/// mentions, under the current coloring. `ctx` distinguishes conjunct
/// occurrences from clause occurrences (tagged with the clause signature).
#[inline]
fn push_occurrences(lit: &CLit, ctx: u64, color: &[u64], occ: &mut [Vec<u64>]) {
    // `=`/`≠` are symmetric: both operands see the same side tag.
    let (sa, sb) = if lit.sym { (2u64, 2u64) } else { (0u64, 1u64) };
    if let Desc::Null(i) = lit.a {
        occ[i].push(mix3(ctx, sa << 8 | lit.op as u64, lit.b.eval(color)));
    }
    if let Desc::Null(i) = lit.b {
        occ[i].push(mix3(ctx, sb << 8 | lit.op as u64, lit.a.eval(color)));
    }
}

/// Renaming-invariant shape of a literal (for clause signatures).
#[inline]
fn lit_shape(lit: &CLit, color: &[u64]) -> u64 {
    let (mut da, mut db) = (lit.a.eval(color), lit.b.eval(color));
    if lit.sym && da > db {
        std::mem::swap(&mut da, &mut db);
    }
    mix3(lit.op as u64, da, db)
}

fn distinct_count(color: &[u64]) -> usize {
    let mut sorted = color.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

fn rename_ent(e: &Ent, to_canon: &[usize]) -> Ent {
    match e {
        Ent::Null(m) => Ent::Null(NullId(to_canon[m.index()] as u32)),
        Ent::Const(v) => Ent::Const(v.clone()),
    }
}

fn rename_lit(lit: &Lit, to_canon: &[usize]) -> Lit {
    match lit {
        Lit::Cmp { lhs, op, rhs } => Lit::Cmp {
            lhs: rename_ent(lhs, to_canon),
            op: *op,
            rhs: rename_ent(rhs, to_canon),
        },
        Lit::Like { negated, ent, pattern } => Lit::Like {
            negated: *negated,
            ent: rename_ent(ent, to_canon),
            pattern: pattern.clone(),
        },
    }
    .canonical()
}

/// Refines `color` by literal occurrences until the partition stabilizes
/// (distinctions propagate one literal-hop per round, so long constraint
/// chains need as many rounds as their diameter; `n` rounds suffice).
fn refine(c: &Compiled, color: &mut [u64]) {
    let n = color.len();
    let mut distinct = distinct_count(color);
    let mut occ: Vec<Vec<u64>> = vec![Vec::new(); n];
    for _round in 0..n.max(1) {
        for o in &mut occ {
            o.clear();
        }
        for lit in &c.conj {
            push_occurrences(lit, 7, color, &mut occ);
        }
        for clause in &c.clauses {
            let mut sig: Vec<u64> = clause.iter().map(|l| lit_shape(l, color)).collect();
            sig.sort_unstable();
            let ctx = sig.iter().fold(13u64, |acc, &s| mix(acc, s));
            for lit in clause {
                push_occurrences(lit, ctx, color, &mut occ);
            }
        }
        for i in 0..n {
            occ[i].sort_unstable();
            color[i] = occ[i].iter().fold(color[i], |acc, &o| mix(acc, o));
        }
        let now = distinct_count(color);
        if now == distinct {
            break; // stable partition (refinement only ever splits classes)
        }
        distinct = now;
    }
}

/// Builds the canonical form for a (possibly still tied) coloring, breaking
/// remaining ties by original index.
fn build(p: &Problem, color: &[u64], mentioned: &[bool]) -> Canonical {
    let n = p.null_types.len();
    let mut order: Vec<usize> = (0..n).filter(|&i| mentioned[i]).collect();
    order.sort_by_key(|&i| (color[i], i));
    let mut to_canon = vec![UNMENTIONED; n];
    for (canon_id, &orig) in order.iter().enumerate() {
        to_canon[orig] = canon_id;
    }

    let types: Vec<DomainType> = order.iter().map(|&i| p.null_types[i]).collect();
    let mut conj: Vec<Lit> = p.conj.iter().map(|l| rename_lit(l, &to_canon)).collect();
    conj.sort_unstable();
    conj.dedup();
    let mut clauses: Vec<Clause> = p
        .clauses
        .iter()
        .map(|c| {
            let mut cl: Clause = c.iter().map(|l| rename_lit(l, &to_canon)).collect();
            cl.sort_unstable();
            cl.dedup();
            cl
        })
        .collect();
    clauses.sort_unstable();
    clauses.dedup();

    Canonical {
        key: CanonKey { types, conj, clauses },
        to_canon,
    }
}

/// Individualization-refinement search: while some color class holds
/// several (mentioned) nulls, individualize each member of the first such
/// class in turn, re-refine, and keep the lexicographically smallest
/// resulting form. The tied class is identified by color — a
/// renaming-invariant — so as long as the branch `budget` is not exhausted
/// the minimum is a true canonical form; once it runs out, only the first
/// candidate is explored (deterministic, possibly non-canonical: costs at
/// most a cache miss, never a wrong answer).
fn search(
    p: &Problem,
    c: &Compiled,
    color: &[u64],
    mentioned: &[bool],
    budget: &mut u32,
) -> Canonical {
    let n = color.len();
    // First tied class: smallest color value with ≥2 mentioned members.
    let mut tied: Option<Vec<usize>> = None;
    let mut sorted: Vec<usize> = (0..n).filter(|&i| mentioned[i]).collect();
    sorted.sort_by_key(|&i| (color[i], i));
    for group in sorted.chunk_by(|&a, &b| color[a] == color[b]) {
        if group.len() > 1 {
            tied = Some(group.to_vec());
            break;
        }
    }
    let Some(members) = tied else {
        return build(p, color, mentioned); // discrete partition
    };
    let mut best: Option<Canonical> = None;
    for (k, &cand) in members.iter().enumerate() {
        if k > 0 && *budget == 0 {
            break;
        }
        *budget = budget.saturating_sub(1);
        let mut c2 = color.to_vec();
        c2[cand] = mix(c2[cand], 0xfeed); // individualize
        refine(c, &mut c2);
        let out = search(p, c, &c2, mentioned, budget);
        if best.as_ref().is_none_or(|b| out.key < b.key) {
            best = Some(out);
        }
    }
    best.expect("at least one candidate explored")
}

/// Computes the canonical form of `p`.
pub fn canonicalize(p: &Problem) -> Canonical {
    let n = p.null_types.len();
    let mut color: Vec<u64> = p
        .null_types
        .iter()
        .map(|t| mix(3, *t as u64))
        .collect();

    // Only nulls that literals mention enter the canonical form.
    let mut mentioned = vec![false; n];
    for lit in p.conj.iter().chain(p.clauses.iter().flatten()) {
        for m in lit.nulls() {
            mentioned[m.index()] = true;
        }
    }

    let compiled = compile(p);
    refine(&compiled, &mut color);
    // Bounded individualization: plenty for the small symmetry groups the
    // chase produces (interchangeable tuples, reversal pairs) while keeping
    // adversarial problems linear.
    let mut budget = 32u32;
    search(p, &compiled, &color, &mentioned, &mut budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::SolverOp;
    use cqi_schema::Value;

    fn n(i: u32) -> NullId {
        NullId(i)
    }

    /// `x0 < x1 ∧ x1 ≤ 5` and the same problem with nulls swapped.
    fn chain(a: u32, b: u32) -> Problem {
        let mut p = Problem::new(vec![DomainType::Int, DomainType::Int]);
        p.assert(Lit::cmp(n(a), SolverOp::Lt, n(b)));
        p.assert(Lit::cmp(n(b), SolverOp::Le, Value::Int(5)));
        p
    }

    #[test]
    fn renamed_problems_share_canonical_key() {
        let c1 = canonicalize(&chain(0, 1));
        let c2 = canonicalize(&chain(1, 0));
        assert_eq!(c1.key, c2.key);
        assert_eq!(c1.digest(), c2.digest());
    }

    #[test]
    fn different_problems_differ() {
        let p1 = chain(0, 1);
        let mut p2 = chain(0, 1);
        p2.assert(Lit::cmp(n(0), SolverOp::Gt, Value::Int(0)));
        assert_ne!(canonicalize(&p1).key, canonicalize(&p2).key);
    }

    #[test]
    fn orientation_is_normalized() {
        let mut p1 = Problem::new(vec![DomainType::Int, DomainType::Int]);
        p1.assert(Lit::cmp(n(0), SolverOp::Lt, n(1)));
        let mut p2 = Problem::new(vec![DomainType::Int, DomainType::Int]);
        p2.assert(Lit::cmp(n(1), SolverOp::Gt, n(0)));
        assert_eq!(canonicalize(&p1).key, canonicalize(&p2).key);
    }

    #[test]
    fn clause_order_is_normalized() {
        let mk = |flip: bool| {
            let mut p = Problem::new(vec![DomainType::Int]);
            let c1 = vec![Lit::cmp(n(0), SolverOp::Eq, Value::Int(1))];
            let c2 = vec![Lit::cmp(n(0), SolverOp::Eq, Value::Int(2))];
            if flip {
                p.assert_clause(c2);
                p.assert_clause(c1);
            } else {
                p.assert_clause(c1);
                p.assert_clause(c2);
            }
            p
        };
        assert_eq!(canonicalize(&mk(false)).key, canonicalize(&mk(true)).key);
    }

    #[test]
    fn symmetric_chain_rotations_share_key() {
        // A disequality path with per-null domain clauses, rotated: the
        // abstract shape is identical, refinement leaves reversal pairs
        // tied, and individualization must still reach one canonical form.
        let mk = |shift: usize| {
            let nn = 6usize;
            let id = |i: usize| n(((i + shift) % nn) as u32);
            let mut p = Problem::new(vec![DomainType::Int; nn]);
            for i in 0..nn {
                p.assert_clause(vec![
                    Lit::cmp(id(i), SolverOp::Eq, Value::Int(1)),
                    Lit::cmp(id(i), SolverOp::Eq, Value::Int(2)),
                ]);
            }
            for i in 1..nn {
                p.assert(Lit::cmp(id(i - 1), SolverOp::Ne, id(i)));
            }
            p
        };
        let base = canonicalize(&mk(0));
        for shift in 1..6 {
            assert_eq!(canonicalize(&mk(shift)).key, base.key, "shift {shift}");
        }
    }

    #[test]
    fn unconstrained_nulls_do_not_affect_key() {
        let mut small = Problem::new(vec![DomainType::Int]);
        small.assert(Lit::cmp(n(0), SolverOp::Gt, Value::Int(3)));
        let mut padded = Problem::new(vec![DomainType::Int, DomainType::Text, DomainType::Int]);
        padded.assert(Lit::cmp(n(2), SolverOp::Gt, Value::Int(3)));
        assert_eq!(canonicalize(&small).key, canonicalize(&padded).key);
    }

    #[test]
    fn model_maps_back_through_renaming() {
        let p = chain(1, 0); // null 1 < null 0 ≤ 5
        let canon = canonicalize(&p);
        let out = crate::dpll::solve(&canon.problem());
        let m = canon.model_to_orig(&out.model().unwrap());
        let v1 = m.get(n(1)).unwrap().as_f64().unwrap();
        let v0 = m.get(n(0)).unwrap().as_f64().unwrap();
        assert!(v1 < v0 && v0 <= 5.0);
    }
}
