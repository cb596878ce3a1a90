//! Structural shrinking of failing cases.
//!
//! The vendored `proptest` stub deliberately does not shrink strategies;
//! [`proptest::shrink::minimize`] provides the generic greedy walk, and this
//! module supplies the domain knowledge: the candidate *reductions* of a
//! [`CaseSpec`]. Each candidate is plain `Vec` surgery followed by
//! [`CaseSpec::normalize`], so every candidate is again a valid, runnable
//! case. Reductions are ordered most-aggressive-first (drop the second
//! query, drop whole conjuncts, drop constraints, drop attributes, simplify
//! constants) so the greedy walk takes big steps early.

use cqi_schema::Value;
use proptest::shrink::{minimize, Minimized};

use crate::spec::{CaseSpec, ForallTerm, KeySpec, QuerySpec, TermSpec};

/// Shrink budget: more than enough for the small cases the generator emits
/// (a case has tens of candidate reductions, and each accepted reduction
/// strictly removes structure).
pub const SHRINK_MAX_TESTS: usize = 400;

/// Shrinks `case` while `still_fails` keeps returning `true`, using the
/// structural candidates from [`candidates`].
pub fn shrink_case<F: FnMut(&CaseSpec) -> bool>(
    case: CaseSpec,
    still_fails: F,
) -> Minimized<CaseSpec> {
    minimize(case, candidates, still_fails, SHRINK_MAX_TESTS)
}

/// All one-step reductions of `case`, each already normalized and distinct
/// from `case` itself.
pub fn candidates(case: &CaseSpec) -> Vec<CaseSpec> {
    let mut out: Vec<CaseSpec> = Vec::new();
    let push = |mut c: CaseSpec, out: &mut Vec<CaseSpec>| {
        if c.normalize() && &c != case {
            out.push(c);
        }
    };

    // Drop the whole second query.
    if case.second.is_some() {
        push(
            CaseSpec {
                second: None,
                ..case.clone()
            },
            &mut out,
        );
    }

    // Drop whole conjuncts, per query.
    for qi in 0..query_count(case) {
        let q = query_at(case, qi);
        for i in 0..q.foralls.len() {
            let mut c = case.clone();
            query_at_mut(&mut c, qi).foralls.remove(i);
            push(c, &mut out);
        }
        for i in 0..q.cmps.len() {
            let mut c = case.clone();
            query_at_mut(&mut c, qi).cmps.remove(i);
            push(c, &mut out);
        }
        let positives = q.atoms.iter().filter(|a| !a.negated).count();
        for i in 0..q.atoms.len() {
            if !q.atoms[i].negated && positives <= 1 {
                continue; // normalize would reject; don't bother cloning
            }
            let mut c = case.clone();
            query_at_mut(&mut c, qi).atoms.remove(i);
            push(c, &mut out);
        }
        if q.out_vars.len() > 1 {
            for i in 0..q.out_vars.len() {
                let mut c = case.clone();
                query_at_mut(&mut c, qi).out_vars.remove(i);
                push(c, &mut out);
            }
        }
    }

    // Drop schema constraints.
    for i in 0..case.schema.keys.len() {
        let mut c = case.clone();
        c.schema.keys.remove(i);
        push(c, &mut out);
    }
    for i in 0..case.schema.fks.len() {
        let mut c = case.clone();
        c.schema.fks.remove(i);
        push(c, &mut out);
    }

    // Drop relation attributes (narrowing relations shrinks both the DDL
    // and every atom over them).
    for rel in 0..case.schema.relations.len() {
        for ai in 0..case.schema.relations[rel].attrs.len() {
            if let Some(c) = drop_attr(case, rel, ai) {
                push(c, &mut out);
            }
        }
    }

    // Simplify constants in place, one site at a time.
    for qi in 0..query_count(case) {
        let q = query_at(case, qi);
        for (i, a) in q.atoms.iter().enumerate() {
            for (ti, t) in a.terms.iter().enumerate() {
                if let TermSpec::Const(v) = t {
                    if let Some(s) = simpler_value(v) {
                        let mut c = case.clone();
                        query_at_mut(&mut c, qi).atoms[i].terms[ti] = TermSpec::Const(s);
                        push(c, &mut out);
                    }
                }
            }
        }
        for (i, cmp) in q.cmps.iter().enumerate() {
            for side in 0..2 {
                let t = if side == 0 { &cmp.lhs } else { &cmp.rhs };
                if let TermSpec::Const(v) = t {
                    if let Some(s) = simpler_value(v) {
                        let mut c = case.clone();
                        let target = &mut query_at_mut(&mut c, qi).cmps[i];
                        *(if side == 0 {
                            &mut target.lhs
                        } else {
                            &mut target.rhs
                        }) = TermSpec::Const(s);
                        push(c, &mut out);
                    }
                }
            }
        }
        for (i, f) in q.foralls.iter().enumerate() {
            for (ti, t) in f.terms.iter().enumerate() {
                if let ForallTerm::Const(v) = t {
                    if let Some(s) = simpler_value(v) {
                        let mut c = case.clone();
                        query_at_mut(&mut c, qi).foralls[i].terms[ti] = ForallTerm::Const(s);
                        push(c, &mut out);
                    }
                }
            }
            if f.guard.is_some() {
                let mut c = case.clone();
                query_at_mut(&mut c, qi).foralls[i].guard = None;
                push(c, &mut out);
            }
        }
    }

    out
}

fn query_count(case: &CaseSpec) -> usize {
    1 + case.second.is_some() as usize
}

fn query_at(case: &CaseSpec, i: usize) -> &QuerySpec {
    if i == 0 {
        &case.query
    } else {
        case.second.as_ref().unwrap()
    }
}

fn query_at_mut(case: &mut CaseSpec, i: usize) -> &mut QuerySpec {
    if i == 0 {
        &mut case.query
    } else {
        case.second.as_mut().unwrap()
    }
}

/// A strictly simpler constant of the same type, or `None` when the value
/// is already minimal. Termination: each step decreases `|n|`, the real's
/// magnitude, or the string length.
fn simpler_value(v: &Value) -> Option<Value> {
    match v {
        Value::Int(0) => None,
        Value::Int(_) => Some(Value::Int(0)),
        Value::Real(r) if r.get() == 0.0 => None,
        Value::Real(_) => Some(Value::real(0.0)),
        Value::Str(s) if s.is_empty() => None,
        Value::Str(s) => Some(Value::str(&s[..s.len() - 1])),
    }
}

/// Removes attribute `ai` of relation `rel`, fixing every index that
/// referred past it: keys and FKs on the relation, atom/∀ term lists of
/// both queries. Returns `None` when the relation would end up empty.
fn drop_attr(case: &CaseSpec, rel: usize, ai: usize) -> Option<CaseSpec> {
    if case.schema.relations[rel].attrs.len() <= 1 {
        return None;
    }
    let mut c = case.clone();
    c.schema.relations[rel].attrs.remove(ai);

    c.schema.keys = c
        .schema
        .keys
        .iter()
        .filter_map(|k| {
            if k.rel != rel {
                return Some(k.clone());
            }
            let attrs: Vec<usize> = k
                .attrs
                .iter()
                .filter(|a| **a != ai)
                .map(|a| if *a > ai { *a - 1 } else { *a })
                .collect();
            if attrs.is_empty() {
                None
            } else {
                Some(KeySpec { rel: k.rel, attrs })
            }
        })
        .collect();
    // An FK whose column pairing touches the dropped attribute loses its
    // meaning — drop the whole constraint rather than guess a new pairing.
    c.schema.fks.retain(|fk| {
        !(fk.child == rel && fk.child_attrs.contains(&ai)
            || fk.parent == rel && fk.parent_attrs.contains(&ai))
    });
    for fk in &mut c.schema.fks {
        if fk.child == rel {
            for a in &mut fk.child_attrs {
                if *a > ai {
                    *a -= 1;
                }
            }
        }
        if fk.parent == rel {
            for a in &mut fk.parent_attrs {
                if *a > ai {
                    *a -= 1;
                }
            }
        }
    }

    for qi in 0..query_count(&c) {
        let q = query_at_mut(&mut c, qi);
        for a in &mut q.atoms {
            if a.rel == rel {
                a.terms.remove(ai);
            }
        }
        for f in &mut q.foralls {
            if f.rel != rel {
                continue;
            }
            f.terms.remove(ai);
            // Re-densify the block's bound-variable indices and rewrite (or
            // drop) the guard accordingly.
            let mut map: Vec<(usize, usize)> = Vec::new();
            for t in &mut f.terms {
                if let ForallTerm::Bound(b) = t {
                    let new = match map.iter().find(|(old, _)| old == b) {
                        Some((_, n)) => *n,
                        None => {
                            let n = map.len();
                            map.push((*b, n));
                            n
                        }
                    };
                    *b = new;
                }
            }
            if let Some((b, op, outer)) = f.guard {
                f.guard = map
                    .iter()
                    .find(|(old, _)| *old == b)
                    .map(|(_, new)| (*new, op, outer));
            }
        }
    }
    Some(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_case, GenKnobs};

    /// Every candidate of every generated case is itself a valid, buildable
    /// case — the invariant the whole shrinker rests on.
    #[test]
    fn all_candidates_of_generated_cases_build() {
        let knobs = GenKnobs::default();
        for seed in 0..60u64 {
            let case = gen_case(seed, &knobs);
            for (i, cand) in candidates(&case).iter().enumerate() {
                cand.build(None)
                    .unwrap_or_else(|e| panic!("seed {seed} candidate {i}: {e:?}\n{cand:?}"));
                if let Some(s) = &cand.second {
                    let schema = cand.schema.build().unwrap();
                    s.build(&schema, None)
                        .unwrap_or_else(|e| panic!("seed {seed} candidate {i} second: {e:?}"));
                }
            }
        }
    }

    /// Shrinking with a predicate that only needs one specific relation
    /// strips everything else.
    #[test]
    fn shrink_reduces_to_the_failing_core() {
        let knobs = GenKnobs::default();
        // Find a case with some optional structure to strip.
        let case = (0..200u64)
            .map(|s| gen_case(s, &knobs))
            .find(|c| c.query.num_atoms() >= 3 || c.second.is_some())
            .expect("generator produced no structured case in 200 seeds");
        let before = case.query.num_atoms();
        // "Fails" whenever the case still contains any positive atom — the
        // weakest possible predicate, so the minimum is a single atom.
        let min = shrink_case(case, |c| c.query.atoms.iter().any(|a| !a.negated));
        assert!(min.value.second.is_none());
        assert_eq!(
            min.value.query.num_atoms(),
            1,
            "from {before}: {:?}",
            min.value
        );
        assert!(min.value.schema.relations.len() <= 1 + min.value.schema.fks.len());
        min.value.build(None).unwrap();
    }

    #[test]
    fn drop_attr_keeps_forall_guards_consistent() {
        let knobs = GenKnobs::default();
        let case = (0..400u64)
            .map(|s| gen_case(s, &knobs))
            .find(|c| c.query.foralls.iter().any(|f| f.guard.is_some()))
            .expect("no guarded forall in 400 seeds");
        let f = case
            .query
            .foralls
            .iter()
            .find(|f| f.guard.is_some())
            .unwrap();
        let rel = f.rel;
        for ai in 0..case.schema.relations[rel].attrs.len() {
            if let Some(mut c) = drop_attr(&case, rel, ai) {
                if c.normalize() {
                    c.build(None)
                        .unwrap_or_else(|e| panic!("attr {ai}: {e:?}\n{c:?}"));
                }
            }
        }
    }
}
