//! Plain-data case specifications.
//!
//! A fuzz case is kept as dumb, index-based data — relations, atoms, and
//! comparisons referring to each other by position — rather than as built
//! [`Schema`]/[`Query`] values. That buys three things at once:
//!
//! * **replayability** — a spec regenerates deterministically from a seed
//!   and serializes losslessly into the report;
//! * **shrinkability** — structural reductions (drop an atom, drop a
//!   relation, simplify a constant) are plain `Vec` surgery followed by
//!   [`CaseSpec::normalize`], which re-establishes the index invariants;
//! * **actionable repros** — a spec renders as runnable Rust schema DDL
//!   ([`SchemaSpec::to_ddl`]) plus DRC text ([`CaseSpec::drc`]), so a
//!   failure pastes directly into a regression test.

use std::sync::Arc;

use cqi_drc::{Atom, CmpOp, Formula, Query, QueryError, Term, VarId};
use cqi_schema::{DomainType, Schema, Value};

/// One relation: name plus attribute types. Attribute names are synthesized
/// as `a0, a1, …` — the fuzzer never needs meaningful names.
#[derive(Clone, Debug, PartialEq)]
pub struct RelSpec {
    pub name: String,
    pub attrs: Vec<DomainType>,
}

/// A key constraint, by relation/attribute index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeySpec {
    pub rel: usize,
    pub attrs: Vec<usize>,
}

/// A foreign key `child(child_attrs) → parent(parent_attrs)`, by index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FkSpec {
    pub child: usize,
    pub child_attrs: Vec<usize>,
    pub parent: usize,
    pub parent_attrs: Vec<usize>,
}

/// A whole schema as plain data.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SchemaSpec {
    pub relations: Vec<RelSpec>,
    pub keys: Vec<KeySpec>,
    pub fks: Vec<FkSpec>,
}

impl SchemaSpec {
    /// Builds the real [`Schema`]. Specs produced by the generator or the
    /// shrinker always build; `Err` here is itself a fuzzer bug.
    pub fn build(&self) -> Result<Arc<Schema>, cqi_schema::SchemaError> {
        let mut b = Schema::builder();
        for r in &self.relations {
            let attrs: Vec<(String, DomainType)> = r
                .attrs
                .iter()
                .enumerate()
                .map(|(i, t)| (format!("a{i}"), *t))
                .collect();
            let attr_refs: Vec<(&str, DomainType)> =
                attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            b = b.relation(&r.name, &attr_refs);
        }
        for k in &self.keys {
            let names: Vec<String> = k.attrs.iter().map(|a| format!("a{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            b = b.key(&self.relations[k.rel].name, &refs);
        }
        for fk in &self.fks {
            let c: Vec<String> = fk.child_attrs.iter().map(|a| format!("a{a}")).collect();
            let p: Vec<String> = fk.parent_attrs.iter().map(|a| format!("a{a}")).collect();
            let cr: Vec<&str> = c.iter().map(String::as_str).collect();
            let pr: Vec<&str> = p.iter().map(String::as_str).collect();
            b = b.foreign_key(
                &self.relations[fk.child].name,
                &cr,
                &self.relations[fk.parent].name,
                &pr,
            );
        }
        b.build().map(Arc::new)
    }

    /// Renders the schema as runnable Rust builder code (the DDL half of a
    /// pasteable repro).
    pub fn to_ddl(&self) -> String {
        let mut s = String::from("Schema::builder()\n");
        for r in &self.relations {
            s.push_str(&format!("    .relation(\"{}\", &[", r.name));
            for (i, t) in r.attrs.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("(\"a{i}\", DomainType::{t:?})"));
            }
            s.push_str("])\n");
        }
        for k in &self.keys {
            let attrs: Vec<String> = k.attrs.iter().map(|a| format!("\"a{a}\"")).collect();
            s.push_str(&format!(
                "    .key(\"{}\", &[{}])\n",
                self.relations[k.rel].name,
                attrs.join(", ")
            ));
        }
        for fk in &self.fks {
            let c: Vec<String> = fk.child_attrs.iter().map(|a| format!("\"a{a}\"")).collect();
            let p: Vec<String> = fk
                .parent_attrs
                .iter()
                .map(|a| format!("\"a{a}\""))
                .collect();
            s.push_str(&format!(
                "    .foreign_key(\"{}\", &[{}], \"{}\", &[{}])\n",
                self.relations[fk.child].name,
                c.join(", "),
                self.relations[fk.parent].name,
                p.join(", ")
            ));
        }
        s.push_str("    .build()\n    .unwrap()");
        s
    }
}

/// One slot of a relational atom.
#[derive(Clone, Debug, PartialEq)]
pub enum TermSpec {
    /// Outer query variable, by index into the case's variable space.
    Var(usize),
    Const(Value),
    Wildcard,
}

/// One relational atom (`negated` distinguishes the positive core from
/// `not R(…)` conjuncts).
#[derive(Clone, Debug, PartialEq)]
pub struct AtomSpec {
    pub negated: bool,
    pub rel: usize,
    pub terms: Vec<TermSpec>,
}

/// One comparison conjunct. `negated` is only meaningful for `Like` (every
/// other operator negates into its dual operator instead).
#[derive(Clone, Debug, PartialEq)]
pub struct CmpSpec {
    pub negated: bool,
    pub lhs: TermSpec,
    pub op: CmpOp,
    pub rhs: TermSpec,
}

/// One slot of the relational atom inside a `∀` block.
#[derive(Clone, Debug, PartialEq)]
pub enum ForallTerm {
    /// An outer query variable (free in the block).
    Outer(usize),
    /// The `i`-th variable bound by this block.
    Bound(usize),
    Const(Value),
    Wildcard,
}

/// A universally quantified block in the extremal-query shape the paper's
/// workloads use: `∀ f… (¬R(…) ∨ bound op outer)`. With `guard: None` the
/// block is pure non-existence (`∀ f… ¬R(…)`).
#[derive(Clone, Debug, PartialEq)]
pub struct ForallSpec {
    pub rel: usize,
    pub terms: Vec<ForallTerm>,
    /// `(bound index, op, outer var)` — e.g. `f0 <= x1`.
    pub guard: Option<(usize, CmpOp, usize)>,
}

impl ForallSpec {
    /// Number of variables this block binds (`Bound(i)` slots, deduplicated
    /// by the convention that indices are dense `0..n`).
    pub fn num_bound(&self) -> usize {
        self.terms
            .iter()
            .filter_map(|t| match t {
                ForallTerm::Bound(i) => Some(*i + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// A query as plain data over a [`SchemaSpec`]: a positive conjunctive core
/// (`atoms` with `negated: false` — at least one), optional negated atoms,
/// comparisons, `∀` blocks, and an output-variable subset. Variables are
/// `0..num_vars`; every variable occurs in at least one positive atom slot
/// (the generator and [`CaseSpec::normalize`] maintain this, which makes
/// every spec safe by construction).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct QuerySpec {
    pub num_vars: usize,
    pub atoms: Vec<AtomSpec>,
    pub cmps: Vec<CmpSpec>,
    pub foralls: Vec<ForallSpec>,
    pub out_vars: Vec<usize>,
}

/// A deliberately injected soundness bug, applied to the query handed to
/// the *chase* while the oracle keeps evaluating the original — the
/// self-test proving the harness actually catches divergence (acceptance
/// criterion: caught and shrunk to a tiny repro).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Silently drop the first comparison conjunct.
    DropFirstCmp,
    /// Replace the first comparison by its negation (`<` becomes `>=`).
    NegateFirstCmp,
}

impl QuerySpec {
    /// Total atom count (relational + comparisons + `∀` blocks) — the
    /// "atoms" measure of the shrink-size acceptance criterion.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len() + self.cmps.len() + self.foralls.len()
    }

    fn term(t: &TermSpec) -> Term {
        match t {
            TermSpec::Var(i) => Term::Var(VarId(*i as u32)),
            TermSpec::Const(c) => Term::Const(c.clone()),
            TermSpec::Wildcard => Term::Wildcard,
        }
    }

    /// Builds the validated [`Query`], optionally applying a [`Mutation`].
    pub fn build(
        &self,
        schema: &Arc<Schema>,
        mutation: Option<Mutation>,
    ) -> Result<Query, QueryError> {
        let mut cmps = self.cmps.clone();
        match mutation {
            Some(Mutation::DropFirstCmp) if !cmps.is_empty() => {
                cmps.remove(0);
            }
            Some(Mutation::NegateFirstCmp) if !cmps.is_empty() => {
                let c = &mut cmps[0];
                match c.op.negate() {
                    Some(dual) => c.op = dual,
                    None => c.negated = !c.negated,
                }
            }
            _ => {}
        }

        // Variable space: outer vars first, then one fresh id per ∀-bound
        // variable of each block.
        let mut names: Vec<String> = (0..self.num_vars).map(|i| format!("x{i}")).collect();
        let mut parts: Vec<Formula> = Vec::new();
        for a in &self.atoms {
            parts.push(Formula::Atom(Atom::Rel {
                negated: a.negated,
                rel: cqi_schema::RelId(a.rel as u32),
                terms: a.terms.iter().map(Self::term).collect(),
            }));
        }
        for c in &cmps {
            parts.push(Formula::Atom(Atom::Cmp {
                negated: c.negated,
                lhs: Self::term(&c.lhs),
                op: c.op,
                rhs: Self::term(&c.rhs),
            }));
        }
        for (bi, fa) in self.foralls.iter().enumerate() {
            let base = names.len();
            let bound: Vec<VarId> = (0..fa.num_bound())
                .map(|i| {
                    names.push(format!("f{bi}_{i}"));
                    VarId((base + i) as u32)
                })
                .collect();
            let atom = Atom::Rel {
                negated: true,
                rel: cqi_schema::RelId(fa.rel as u32),
                terms: fa
                    .terms
                    .iter()
                    .map(|t| match t {
                        ForallTerm::Outer(i) => Term::Var(VarId(*i as u32)),
                        ForallTerm::Bound(i) => Term::Var(bound[*i]),
                        ForallTerm::Const(c) => Term::Const(c.clone()),
                        ForallTerm::Wildcard => Term::Wildcard,
                    })
                    .collect(),
            };
            let body = match fa.guard {
                Some((b, op, outer)) => Formula::or(
                    Formula::Atom(atom),
                    Formula::Atom(Atom::Cmp {
                        negated: false,
                        lhs: Term::Var(bound[b]),
                        op,
                        rhs: Term::Var(VarId(outer as u32)),
                    }),
                ),
                None => Formula::Atom(atom),
            };
            parts.push(Formula::forall(&bound, body));
        }

        let body = Formula::and_all(parts);
        let inner: Vec<VarId> = (0..self.num_vars)
            .filter(|i| !self.out_vars.contains(i))
            .map(|i| VarId(i as u32))
            .collect();
        let formula = Formula::exists(&inner, body);
        let out: Vec<VarId> = self.out_vars.iter().map(|i| VarId(*i as u32)).collect();
        Query::new(Arc::clone(schema), out, formula, names)
    }
}

/// A complete fuzz case: schema, primary query, and (for the baseline
/// cross-checks) an optional second query of the same output arity.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct CaseSpec {
    pub schema: SchemaSpec,
    pub query: QuerySpec,
    pub second: Option<QuerySpec>,
}

impl CaseSpec {
    /// Builds the schema plus the primary query.
    pub fn build(&self, mutation: Option<Mutation>) -> Result<(Arc<Schema>, Query), BuildError> {
        let schema = self.schema.build().map_err(BuildError::Schema)?;
        let q = self
            .query
            .build(&schema, mutation)
            .map_err(BuildError::Query)?;
        Ok((schema, q))
    }

    /// DRC text of the primary query (round-trips through the parser).
    pub fn drc(&self) -> String {
        match self.build(None) {
            Ok((_, q)) => cqi_drc::pretty::query_to_string(&q),
            Err(e) => format!("<unbuildable: {e:?}>"),
        }
    }

    /// DRC text of the second query, when present.
    pub fn drc_second(&self) -> Option<String> {
        let schema = self.schema.build().ok()?;
        let q = self.second.as_ref()?.build(&schema, None).ok()?;
        Some(cqi_drc::pretty::query_to_string(&q))
    }

    /// Re-establishes the index invariants after structural surgery:
    /// 1. drops comparison/negated-atom/∀ conjuncts that reference
    ///    variables with no remaining positive occurrence;
    /// 2. compacts the variable space (and `out_vars`) to the variables
    ///    still used anywhere, keeping at least one output variable;
    /// 3. drops relations no atom references and remaps relation indices
    ///    (keys and foreign keys of dropped relations go with them).
    ///
    /// Returns `false` when the case has degenerated below a runnable
    /// query (no positive atom left) — shrink candidates that do this are
    /// discarded by the caller.
    pub fn normalize(&mut self) -> bool {
        for qs in [Some(&mut self.query), self.second.as_mut()]
            .into_iter()
            .flatten()
        {
            if !normalize_query(qs) {
                return false;
            }
        }

        // Relations referenced by any remaining atom of either query.
        let mut used_rel = vec![false; self.schema.relations.len()];
        for qs in [Some(&self.query), self.second.as_ref()]
            .into_iter()
            .flatten()
        {
            for a in &qs.atoms {
                used_rel[a.rel] = true;
            }
            for f in &qs.foralls {
                used_rel[f.rel] = true;
            }
        }
        // FK parents of used children stay too (the schema keeps meaning).
        loop {
            let mut grew = false;
            for fk in &self.schema.fks {
                if used_rel[fk.child] && !used_rel[fk.parent] {
                    used_rel[fk.parent] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let remap: Vec<Option<usize>> = {
            let mut next = 0usize;
            used_rel
                .iter()
                .map(|u| {
                    if *u {
                        next += 1;
                        Some(next - 1)
                    } else {
                        None
                    }
                })
                .collect()
        };
        if remap.iter().all(Option::is_none) {
            return false;
        }
        self.schema.relations = self
            .schema
            .relations
            .iter()
            .enumerate()
            .filter(|(i, _)| used_rel[*i])
            .map(|(_, r)| r.clone())
            .collect();
        self.schema.keys.retain(|k| used_rel[k.rel]);
        for k in &mut self.schema.keys {
            k.rel = remap[k.rel].unwrap();
        }
        self.schema
            .fks
            .retain(|fk| used_rel[fk.child] && used_rel[fk.parent]);
        for fk in &mut self.schema.fks {
            fk.child = remap[fk.child].unwrap();
            fk.parent = remap[fk.parent].unwrap();
        }
        for qs in [Some(&mut self.query), self.second.as_mut()]
            .into_iter()
            .flatten()
        {
            for a in &mut qs.atoms {
                a.rel = remap[a.rel].unwrap();
            }
            for f in &mut qs.foralls {
                f.rel = remap[f.rel].unwrap();
            }
        }
        true
    }
}

/// See [`CaseSpec::normalize`]; the per-query half.
fn normalize_query(qs: &mut QuerySpec) -> bool {
    if !qs.atoms.iter().any(|a| !a.negated) {
        return false;
    }
    // Variables with a positive relational occurrence (the safety anchor).
    let mut anchored = vec![false; qs.num_vars];
    for a in qs.atoms.iter().filter(|a| !a.negated) {
        for t in &a.terms {
            if let TermSpec::Var(v) = t {
                anchored[*v] = true;
            }
        }
    }
    // Conjuncts referencing unanchored variables go away entirely (their
    // variables would have lost their domain anchor / safety).
    let var_ok = |t: &TermSpec| match t {
        TermSpec::Var(v) => anchored[*v],
        _ => true,
    };
    qs.atoms
        .retain(|a| !a.negated || a.terms.iter().all(var_ok));
    qs.cmps.retain(|c| var_ok(&c.lhs) && var_ok(&c.rhs));
    qs.foralls.retain(|f| {
        f.terms.iter().all(|t| match t {
            ForallTerm::Outer(v) => anchored[*v],
            _ => true,
        }) && f.guard.is_none_or(|(_, _, outer)| anchored[outer])
    });
    qs.out_vars.retain(|v| anchored[*v]);

    // Compact the variable space to anchored variables.
    let remap: Vec<Option<usize>> = {
        let mut next = 0usize;
        anchored
            .iter()
            .map(|u| {
                if *u {
                    next += 1;
                    Some(next - 1)
                } else {
                    None
                }
            })
            .collect()
    };
    let map_term = |t: &mut TermSpec| {
        if let TermSpec::Var(v) = t {
            *v = remap[*v].unwrap();
        }
    };
    for a in &mut qs.atoms {
        a.terms.iter_mut().for_each(map_term);
    }
    for c in &mut qs.cmps {
        map_term(&mut c.lhs);
        map_term(&mut c.rhs);
    }
    for f in &mut qs.foralls {
        for t in &mut f.terms {
            if let ForallTerm::Outer(v) = t {
                *v = remap[*v].unwrap();
            }
        }
        if let Some((_, _, outer)) = &mut f.guard {
            *outer = remap[*outer].unwrap();
        }
    }
    for v in &mut qs.out_vars {
        *v = remap[*v].unwrap();
    }
    qs.num_vars = anchored.iter().filter(|a| **a).count();
    if qs.out_vars.is_empty() {
        // Keep the query non-Boolean: promote the first variable.
        if qs.num_vars == 0 {
            return false;
        }
        qs.out_vars.push(0);
    }
    true
}

/// Why a [`CaseSpec`] failed to build (always a fuzzer bug, never a target
/// bug — generated specs are valid by construction).
#[derive(Debug)]
pub enum BuildError {
    Schema(cqi_schema::SchemaError),
    Query(QueryError),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_case() -> CaseSpec {
        CaseSpec {
            schema: SchemaSpec {
                relations: vec![
                    RelSpec {
                        name: "R0".into(),
                        attrs: vec![DomainType::Int, DomainType::Text],
                    },
                    RelSpec {
                        name: "R1".into(),
                        attrs: vec![DomainType::Int],
                    },
                ],
                keys: vec![KeySpec {
                    rel: 0,
                    attrs: vec![0],
                }],
                fks: vec![],
            },
            query: QuerySpec {
                num_vars: 2,
                atoms: vec![
                    AtomSpec {
                        negated: false,
                        rel: 0,
                        terms: vec![TermSpec::Var(0), TermSpec::Var(1)],
                    },
                    AtomSpec {
                        negated: true,
                        rel: 1,
                        terms: vec![TermSpec::Var(0)],
                    },
                ],
                cmps: vec![CmpSpec {
                    negated: false,
                    lhs: TermSpec::Var(0),
                    op: CmpOp::Lt,
                    rhs: TermSpec::Const(Value::Int(7)),
                }],
                foralls: vec![ForallSpec {
                    rel: 0,
                    terms: vec![ForallTerm::Bound(0), ForallTerm::Outer(1)],
                    guard: Some((0, CmpOp::Ge, 0)),
                }],
                out_vars: vec![1],
            },
            second: None,
        }
    }

    #[test]
    fn spec_builds_and_round_trips_through_parser() {
        let case = tiny_case();
        let (schema, q) = case.build(None).unwrap();
        assert_eq!(q.out_vars.len(), 1);
        let printed = cqi_drc::pretty::query_to_string(&q);
        let q2 = cqi_drc::parse_query(&schema, &printed).unwrap();
        // The parser numbers VarIds by appearance order (out vars first),
        // the spec builder by generation order — compare modulo renaming by
        // re-printing (pretty output uses the preserved names).
        assert_eq!(printed, cqi_drc::pretty::query_to_string(&q2));
    }

    #[test]
    fn ddl_renders_every_constraint() {
        let ddl = tiny_case().schema.to_ddl();
        assert!(ddl.contains(".relation(\"R0\""), "{ddl}");
        assert!(ddl.contains("DomainType::Text"), "{ddl}");
        assert!(ddl.contains(".key(\"R0\", &[\"a0\"])"), "{ddl}");
        assert!(ddl.ends_with(".unwrap()"), "{ddl}");
    }

    #[test]
    fn mutations_change_the_built_query() {
        let case = tiny_case();
        let (schema, q) = case.build(None).unwrap();
        let dropped = case
            .query
            .build(&schema, Some(Mutation::DropFirstCmp))
            .unwrap();
        let negated = case
            .query
            .build(&schema, Some(Mutation::NegateFirstCmp))
            .unwrap();
        let count = |q: &Query| {
            let mut n = 0;
            q.formula.for_each_atom(&mut |_| n += 1);
            n
        };
        assert_eq!(count(&dropped), count(&q) - 1);
        let printed = cqi_drc::pretty::query_to_string(&negated);
        assert!(printed.contains("x0 >= 7"), "{printed}");
    }

    #[test]
    fn normalize_drops_dangling_references_after_atom_removal() {
        let mut case = tiny_case();
        // Remove the positive atom's var 0 anchor by replacing the atom
        // with one that only anchors var 1.
        case.query.atoms[0].terms[0] = TermSpec::Wildcard;
        assert!(case.normalize());
        // var 0 lost its positive anchor: the cmp, the negated atom on R1,
        // and the ∀ guard referencing it must be gone; vars compacted.
        assert_eq!(case.query.num_vars, 1);
        assert!(case.query.cmps.is_empty());
        assert_eq!(case.query.atoms.len(), 1);
        assert!(case.query.foralls.is_empty());
        assert_eq!(case.query.out_vars, vec![0]);
        // R1 is now unreferenced and must be dropped, R0 remapped to 0.
        assert_eq!(case.schema.relations.len(), 1);
        assert_eq!(case.schema.relations[0].name, "R0");
        // The shrunk case still builds and evaluates.
        case.build(None).unwrap();
    }

    #[test]
    fn normalize_rejects_queries_without_a_positive_core() {
        let mut case = tiny_case();
        case.query.atoms.retain(|a| a.negated);
        assert!(!case.normalize());
    }
}
