//! Query normalization: NNF negation, alpha-renaming to unique quantified
//! variables, domain inference, safety checks, and query difference.

use std::collections::HashMap;
use std::sync::Arc;

use cqi_schema::{DomainId, DomainType, Schema};

use crate::ast::{Atom, CmpOp, Formula, Query, QueryError, Term, VarId, VarInfo};

/// Sentinel domain for variables that are allocated but never occur in the
/// formula (they can never be dereferenced by the chase).
pub const UNUSED_DOMAIN: DomainId = DomainId(u32::MAX);

/// Negation in negation normal form: quantifiers flip, De Morgan applies,
/// and leaf comparisons are rewritten to their dual operator where one
/// exists (`¬(p3 < p4)` becomes `p3 ≥ p4`, matching the paper's Fig. 17).
pub fn negate(f: Formula) -> Formula {
    match f {
        Formula::Atom(a) => Formula::Atom(negate_atom(a)),
        Formula::And(l, r) => Formula::or(negate(*l), negate(*r)),
        Formula::Or(l, r) => Formula::and(negate(*l), negate(*r)),
        Formula::Exists(v, b) => Formula::Forall(v, Box::new(negate(*b))),
        Formula::Forall(v, b) => Formula::Exists(v, Box::new(negate(*b))),
    }
}

fn negate_atom(a: Atom) -> Atom {
    match a {
        Atom::Rel {
            negated,
            rel,
            terms,
        } => Atom::Rel {
            negated: !negated,
            rel,
            terms,
        },
        Atom::Cmp {
            negated: true,
            lhs,
            op,
            rhs,
        } => Atom::Cmp {
            negated: false,
            lhs,
            op,
            rhs,
        },
        Atom::Cmp {
            negated: false,
            lhs,
            op,
            rhs,
        } => match op.negate() {
            Some(dual) => Atom::Cmp {
                negated: false,
                lhs,
                op: dual,
                rhs,
            },
            None => Atom::Cmp {
                negated: true,
                lhs,
                op,
                rhs,
            },
        },
    }
}

/// Alpha-renames so that every quantifier binds a distinct `VarId`
/// (assumption (3) of §3.1). New ids extend `names`.
fn rename_unique(f: &Formula, names: &mut Vec<String>, seen: &mut Vec<bool>) -> Formula {
    fn go(
        f: &Formula,
        stack: &mut Vec<(VarId, VarId)>,
        names: &mut Vec<String>,
        seen: &mut Vec<bool>,
    ) -> Formula {
        let map_term = |t: &Term, stack: &[(VarId, VarId)]| -> Term {
            match t {
                Term::Var(v) => {
                    let mapped = stack
                        .iter()
                        .rev()
                        .find(|(old, _)| old == v)
                        .map(|(_, new)| *new)
                        .unwrap_or(*v);
                    Term::Var(mapped)
                }
                other => other.clone(),
            }
        };
        match f {
            Formula::Atom(a) => Formula::Atom(match a {
                Atom::Rel {
                    negated,
                    rel,
                    terms,
                } => Atom::Rel {
                    negated: *negated,
                    rel: *rel,
                    terms: terms.iter().map(|t| map_term(t, stack)).collect(),
                },
                Atom::Cmp {
                    negated,
                    lhs,
                    op,
                    rhs,
                } => Atom::Cmp {
                    negated: *negated,
                    lhs: map_term(lhs, stack),
                    op: *op,
                    rhs: map_term(rhs, stack),
                },
            }),
            Formula::And(l, r) => {
                Formula::and(go(l, stack, names, seen), go(r, stack, names, seen))
            }
            Formula::Or(l, r) => Formula::or(go(l, stack, names, seen), go(r, stack, names, seen)),
            Formula::Exists(v, b) | Formula::Forall(v, b) => {
                let already = seen.get(v.index()).copied().unwrap_or(false);
                let new_v = if already {
                    let nv = VarId(names.len() as u32);
                    names.push(format!("{}'", names[v.index()]));
                    seen.push(true);
                    nv
                } else {
                    if v.index() >= seen.len() {
                        seen.resize(v.index() + 1, false);
                    }
                    seen[v.index()] = true;
                    *v
                };
                stack.push((*v, new_v));
                let body = go(b, stack, names, seen);
                stack.pop();
                if matches!(f, Formula::Exists(..)) {
                    Formula::Exists(new_v, Box::new(body))
                } else {
                    Formula::Forall(new_v, Box::new(body))
                }
            }
        }
    }
    go(f, &mut Vec::new(), names, seen)
}

/// Infers one [`DomainId`] per variable from relational-atom positions,
/// propagating through comparisons to variables that never touch a relation.
fn infer_domains(
    schema: &Schema,
    formula: &Formula,
    names: &[String],
) -> Result<Vec<Option<DomainId>>, QueryError> {
    let mut dom: Vec<Option<DomainId>> = vec![None; names.len()];
    let mut cmp_pairs: Vec<(VarId, VarId)> = Vec::new();
    let mut const_types: Vec<Option<DomainType>> = vec![None; names.len()];
    let mut err: Option<QueryError> = None;

    formula.for_each_atom(&mut |a| {
        if err.is_some() {
            return;
        }
        match a {
            Atom::Rel { rel, terms, .. } => {
                for (i, t) in terms.iter().enumerate() {
                    if let Term::Var(v) = t {
                        let d = schema.attr_domain(*rel, i);
                        match dom[v.index()] {
                            None => dom[v.index()] = Some(d),
                            Some(prev) if prev != d => {
                                // Same variable in two *unrelated* domains:
                                // legal only if the types agree (the chase
                                // will then treat it under its first domain).
                                let (tp, td) = (schema.domain_type(prev), schema.domain_type(d));
                                if tp != td {
                                    err = Some(QueryError::DomainConflict {
                                        var: names[v.index()].clone(),
                                        detail: format!("{tp} vs {td}"),
                                    });
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
            Atom::Cmp { lhs, op, rhs, .. } => match (lhs, rhs) {
                (Term::Var(a), Term::Var(b)) => cmp_pairs.push((*a, *b)),
                (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
                    let want = if *op == CmpOp::Like {
                        DomainType::Text
                    } else {
                        c.domain_type()
                    };
                    const_types[v.index()] = Some(want);
                }
                _ => {}
            },
        }
    });
    if let Some(e) = err {
        return Err(e);
    }

    // Propagate domains through var-var comparisons until fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        for (a, b) in &cmp_pairs {
            match (dom[a.index()], dom[b.index()]) {
                (Some(d), None) => {
                    dom[b.index()] = Some(d);
                    changed = true;
                }
                (None, Some(d)) => {
                    dom[a.index()] = Some(d);
                    changed = true;
                }
                _ => {}
            }
        }
    }

    // Type-check var-const comparisons.
    for (i, want) in const_types.iter().enumerate() {
        if let (Some(want), Some(d)) = (want, dom[i]) {
            let have = schema.domain_type(d);
            let compatible = have == *want
                || (matches!(have, DomainType::Int | DomainType::Real)
                    && matches!(want, DomainType::Int | DomainType::Real));
            if !compatible {
                return Err(QueryError::TypeError {
                    detail: format!(
                        "variable `{}` has domain type {have} but is compared to a {want} constant",
                        names[i]
                    ),
                });
            }
        }
    }
    Ok(dom)
}

/// Full validation pipeline shared by the parser and programmatic builders.
pub fn build_query(
    schema: Arc<Schema>,
    out_vars: Vec<VarId>,
    formula: Formula,
    mut var_names: Vec<String>,
    label: String,
) -> Result<Query, QueryError> {
    let mut seen = vec![false; var_names.len()];
    // Output variables are free; mark them so a quantifier reusing the id
    // gets renamed.
    for v in &out_vars {
        if v.index() >= seen.len() {
            return Err(QueryError::OutputVarMismatch {
                detail: format!("output variable id {v:?} has no name entry"),
            });
        }
        seen[v.index()] = true;
    }
    let formula = rename_unique(&formula, &mut var_names, &mut seen);

    // Free variables of the body must be exactly the output variables.
    let free = formula.free_vars();
    for v in &free {
        if !out_vars.contains(v) {
            return Err(QueryError::OutputVarMismatch {
                detail: format!(
                    "`{}` is free but not an output variable",
                    var_names[v.index()]
                ),
            });
        }
    }
    for v in &out_vars {
        if !free.contains(v) {
            return Err(QueryError::OutputVarMismatch {
                detail: format!(
                    "output variable `{}` does not occur in the formula",
                    var_names[v.index()]
                ),
            });
        }
    }

    let dom = infer_domains(&schema, &formula, &var_names)?;

    // Safety (assumption (2), applied to output variables): each must occur
    // in at least one positive relational atom.
    let mut positive: Vec<bool> = vec![false; var_names.len()];
    formula.for_each_atom(&mut |a| {
        if let Atom::Rel {
            negated: false,
            terms,
            ..
        } = a
        {
            for t in terms {
                if let Term::Var(v) = t {
                    positive[v.index()] = true;
                }
            }
        }
    });
    for v in &out_vars {
        if !positive[v.index()] {
            return Err(QueryError::NotSafe {
                detail: format!(
                    "output variable `{}` never occurs in a positive relational atom",
                    var_names[v.index()]
                ),
            });
        }
    }

    let vars: Vec<VarInfo> = var_names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let (domain, domain_type) = match dom[i] {
                Some(d) => (d, schema.domain_type(d)),
                None => (UNUSED_DOMAIN, DomainType::Text),
            };
            VarInfo {
                name: name.clone(),
                domain,
                domain_type,
            }
        })
        .collect();

    // Any *used* variable without an inferable domain is an error.
    let mut used: Vec<bool> = vec![false; var_names.len()];
    formula.for_each_atom(&mut |a| {
        for v in a.vars() {
            used[v.index()] = true;
        }
    });
    for (i, u) in used.iter().enumerate() {
        if *u && dom[i].is_none() {
            return Err(QueryError::UnknownDomain {
                var: var_names[i].clone(),
            });
        }
    }

    Ok(Query {
        schema,
        out_vars,
        formula,
        vars,
        label,
    })
}

/// Builds `q1 − q2` (Fig. 3): `P1 ∧ ¬P2` with `q2`'s output variables
/// identified with `q1`'s, then renormalized.
pub fn difference(q1: &Query, q2: &Query) -> Result<Query, QueryError> {
    if q1.out_vars.len() != q2.out_vars.len() {
        return Err(QueryError::OutputVarMismatch {
            detail: format!("arity {} vs {}", q1.out_vars.len(), q2.out_vars.len()),
        });
    }
    let mut names = q1.vars.iter().map(|v| v.name.clone()).collect::<Vec<_>>();
    // Map q2 variables into q1's id space.
    let mut map: HashMap<VarId, VarId> = HashMap::new();
    for (a, b) in q2.out_vars.iter().zip(&q1.out_vars) {
        map.insert(*a, *b);
    }
    for (i, info) in q2.vars.iter().enumerate() {
        let old = VarId(i as u32);
        map.entry(old).or_insert_with(|| {
            let id = VarId(names.len() as u32);
            let mut name = info.name.clone();
            if names.contains(&name) {
                name.push('\'');
            }
            names.push(name);
            id
        });
    }
    let remapped = remap_formula(&q2.formula, &map);
    let body = Formula::and(q1.formula.clone(), negate(remapped));
    let label = match (q1.label.is_empty(), q2.label.is_empty()) {
        (false, false) => format!("{} - {}", q1.label, q2.label),
        _ => String::new(),
    };
    build_query(
        Arc::clone(&q1.schema),
        q1.out_vars.clone(),
        body,
        names,
        label,
    )
}

/// Combines several queries into one *Boolean* query whose body is the
/// conjunction of each query's existentially closed body (or its negation,
/// when `positive[i]` is false). All inputs must share a schema. This is
/// the §1 use case "generate test instances where a given subset of queries
/// are satisfied but others are not".
pub fn combine(queries: &[&Query], positive: &[bool]) -> Result<Query, QueryError> {
    assert_eq!(queries.len(), positive.len());
    let first = queries.first().expect("at least one query");
    let mut names: Vec<String> = Vec::new();
    let mut parts: Vec<Formula> = Vec::new();
    for (q, pos) in queries.iter().zip(positive) {
        // Remap this query's variables into the combined space.
        let mut map: HashMap<VarId, VarId> = HashMap::new();
        for (i, info) in q.vars.iter().enumerate() {
            let id = VarId(names.len() as u32);
            let mut name = info.name.clone();
            while names.contains(&name) {
                name.push('\'');
            }
            names.push(name);
            map.insert(VarId(i as u32), id);
        }
        let body = remap_formula(&q.formula, &map);
        // Existentially close the (remapped) output variables.
        let outs: Vec<VarId> = q.out_vars.iter().map(|v| map[v]).collect();
        let closed = Formula::exists(&outs, body);
        parts.push(if *pos { closed } else { negate(closed) });
    }
    let body = Formula::and_all(parts);
    build_query(
        Arc::clone(&first.schema),
        Vec::new(),
        body,
        names,
        String::new(),
    )
}

fn remap_formula(f: &Formula, map: &HashMap<VarId, VarId>) -> Formula {
    let mt = |t: &Term| match t {
        Term::Var(v) => Term::Var(*map.get(v).expect("complete var map")),
        other => other.clone(),
    };
    match f {
        Formula::Atom(Atom::Rel {
            negated,
            rel,
            terms,
        }) => Formula::Atom(Atom::Rel {
            negated: *negated,
            rel: *rel,
            terms: terms.iter().map(mt).collect(),
        }),
        Formula::Atom(Atom::Cmp {
            negated,
            lhs,
            op,
            rhs,
        }) => Formula::Atom(Atom::Cmp {
            negated: *negated,
            lhs: mt(lhs),
            op: *op,
            rhs: mt(rhs),
        }),
        Formula::And(l, r) => Formula::and(remap_formula(l, map), remap_formula(r, map)),
        Formula::Or(l, r) => Formula::or(remap_formula(l, map), remap_formula(r, map)),
        Formula::Exists(v, b) => Formula::Exists(map[v], Box::new(remap_formula(b, map))),
        Formula::Forall(v, b) => Formula::Forall(map[v], Box::new(remap_formula(b, map))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use cqi_schema::DomainType;

    fn schema() -> Arc<Schema> {
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
                .relation(
                    "Likes",
                    &[("drinker", DomainType::Text), ("beer", DomainType::Text)],
                )
                .same_domain(("Serves", "beer"), ("Likes", "beer"))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn negate_is_involutive_on_leaves() {
        let a = Atom::Cmp {
            negated: false,
            lhs: Term::Var(VarId(0)),
            op: CmpOp::Lt,
            rhs: Term::Var(VarId(1)),
        };
        let n = negate_atom(a.clone());
        assert_eq!(
            n,
            Atom::Cmp {
                negated: false,
                lhs: Term::Var(VarId(0)),
                op: CmpOp::Ge,
                rhs: Term::Var(VarId(1)),
            }
        );
        assert_eq!(negate_atom(n), a);
    }

    #[test]
    fn negate_like_uses_flag() {
        let a = Atom::Cmp {
            negated: false,
            lhs: Term::Var(VarId(0)),
            op: CmpOp::Like,
            rhs: Term::Const("Eve%".into()),
        };
        let n = negate_atom(a.clone());
        assert!(n.is_negated());
        assert_eq!(negate_atom(n), a);
    }

    #[test]
    fn difference_of_parsed_queries() {
        let s = schema();
        let qa = parse_query(
            &s,
            "{ (x1, b1) | exists p1 (Serves(x1, b1, p1) and forall x2, p2 (not Serves(x2, b1, p2) or p2 <= p1)) }",
        )
        .unwrap()
        .with_label("QA");
        let qb = parse_query(
            &s,
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
        )
        .unwrap()
        .with_label("QB");
        let diff = qb.difference(&qa).unwrap();
        assert_eq!(diff.label, "QB - QA");
        assert_eq!(diff.out_vars.len(), 2);
        // ¬QA flips its forall to exists and vice versa: the difference must
        // contain at least one forall (from ¬∃p1) — check NNF: no internal
        // negation nodes exist by construction; count leaves.
        let mut leaves = 0;
        diff.formula.for_each_atom(&mut |_| leaves += 1);
        assert_eq!(leaves, 3 + 3);
    }

    #[test]
    fn duplicate_quantified_var_gets_renamed() {
        let s = schema();
        // Same name `p` bound twice — ids are distinct after parsing, and
        // normalization keeps them distinct.
        let q = parse_query(
            &s,
            "{ (b1) | exists x1 . (exists p (Serves(x1, b1, p))) and (exists p (Serves(x1, b1, p))) }",
        )
        .unwrap();
        let mut binders = Vec::new();
        fn collect(f: &Formula, out: &mut Vec<VarId>) {
            match f {
                Formula::Exists(v, b) | Formula::Forall(v, b) => {
                    out.push(*v);
                    collect(b, out);
                }
                Formula::And(l, r) | Formula::Or(l, r) => {
                    collect(l, out);
                    collect(r, out);
                }
                Formula::Atom(_) => {}
            }
        }
        collect(&q.formula, &mut binders);
        let mut sorted = binders.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), binders.len(), "binders must be unique");
    }

    #[test]
    fn unsafe_output_var_rejected() {
        let s = schema();
        let e = parse_query(&s, "{ (x1) | forall b1, p1 (not Serves(x1, b1, p1)) }").unwrap_err();
        assert!(matches!(e, QueryError::NotSafe { .. }));
    }

    #[test]
    fn domain_propagates_through_comparison() {
        let s = schema();
        // p2 only occurs in a comparison; its domain comes from p1.
        let q = parse_query(
            &s,
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1) and exists x2, p2 (Serves(x2, b1, p2) and p1 > p2)) }",
        )
        .unwrap();
        let p_doms: Vec<_> = q
            .vars
            .iter()
            .filter(|v| v.name.starts_with('p'))
            .map(|v| v.domain)
            .collect();
        assert!(p_doms.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cq_neg_detection() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists x1, p1, d1 . Serves(x1, b1, p1) and not Likes(d1, b1) and Likes(d1, b1) }",
        )
        .unwrap();
        assert!(q.is_cq_neg());
        let q2 = parse_query(
            &s,
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
        )
        .unwrap();
        assert!(!q2.is_cq_neg());
    }
}
