//! Seeded random generation of fuzz cases.
//!
//! `baseline::generator` fills *databases* for a fixed schema; this module
//! generates the other half of the search space — random schemas and random
//! DRC **queries** over them. Queries are valid by construction against the
//! normalizer's rules (every variable is anchored in a positive relational
//! atom, comparison operands are type-compatible, `LIKE` only applies to
//! text), so generation never wastes cases on rejected queries; a defensive
//! retry loop still guards the invariant.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cqi_drc::CmpOp;
use cqi_schema::{DomainType, Value};

use crate::spec::{
    AtomSpec, CaseSpec, CmpSpec, FkSpec, ForallSpec, ForallTerm, KeySpec, QuerySpec, RelSpec,
    SchemaSpec, TermSpec,
};

/// Generation knobs: the "conjunctive core plus …" dials. Defaults keep
/// cases small enough that a bounded chase finishes in milliseconds while
/// still exercising negation, comparisons, constants, and `∀` depth.
#[derive(Clone, Debug)]
pub struct GenKnobs {
    pub max_relations: usize,
    pub max_arity: usize,
    /// Positive (conjunctive-core) atoms: always at least 1.
    pub max_pos_atoms: usize,
    /// `not R(…)` conjuncts.
    pub max_neg_atoms: usize,
    /// Comparison conjuncts.
    pub max_cmps: usize,
    /// `∀` blocks (quantifier depth beyond the existential closure).
    pub max_foralls: usize,
    /// Hard cap on outer variables. The ground oracle enumerates the active
    /// domain per quantifier, so its worst case is `|adom|^vars` — keep this
    /// small enough that even a divergence (full enumeration, no early
    /// exit) evaluates in milliseconds.
    pub max_vars: usize,
    /// Allow constants in atom slots and comparisons.
    pub constants: bool,
    /// Generate key constraints.
    pub keys: bool,
    /// Generate foreign keys.
    pub foreign_keys: bool,
    /// Percentage of cases carrying a second query (baseline cross-checks).
    pub pair_pct: u32,
}

impl Default for GenKnobs {
    fn default() -> Self {
        GenKnobs {
            max_relations: 3,
            max_arity: 3,
            max_pos_atoms: 3,
            max_neg_atoms: 1,
            max_cmps: 2,
            max_foralls: 1,
            max_vars: 6,
            constants: true,
            keys: true,
            foreign_keys: true,
            pair_pct: 25,
        }
    }
}

const TEXT_POOL: [&str; 6] = ["ale", "stout", "porter", "lager", "bock", "mild"];
const LIKE_POOL: [&str; 5] = ["%a%", "s%", "%er", "_o%", "%l_"];

fn random_type(rng: &mut StdRng) -> DomainType {
    match rng.gen_range(0..5u32) {
        0 | 1 => DomainType::Int,
        2 => DomainType::Real,
        _ => DomainType::Text,
    }
}

fn random_const(rng: &mut StdRng, ty: DomainType) -> Value {
    match ty {
        DomainType::Int => Value::Int(rng.gen_range(0..20)),
        DomainType::Real => Value::real(rng.gen_range(2..40) as f64 / 4.0),
        DomainType::Text => Value::str(TEXT_POOL[rng.gen_range(0..TEXT_POOL.len())]),
    }
}

fn pct(rng: &mut StdRng, p: u32) -> bool {
    rng.gen_range(0..100u32) < p
}

/// Picks the index of a random variable of type `ty`, if any exists.
fn pick_var(rng: &mut StdRng, vars: &[DomainType], ty: DomainType) -> Option<usize> {
    let matching: Vec<usize> = vars
        .iter()
        .enumerate()
        .filter(|(_, t)| **t == ty)
        .map(|(i, _)| i)
        .collect();
    if matching.is_empty() {
        None
    } else {
        Some(matching[rng.gen_range(0..matching.len())])
    }
}

fn gen_schema(rng: &mut StdRng, knobs: &GenKnobs) -> SchemaSpec {
    let nrel = rng.gen_range(1..=knobs.max_relations);
    let relations: Vec<RelSpec> = (0..nrel)
        .map(|i| RelSpec {
            name: format!("R{i}"),
            attrs: (0..rng.gen_range(1..=knobs.max_arity))
                .map(|_| random_type(rng))
                .collect(),
        })
        .collect();
    let mut keys = Vec::new();
    if knobs.keys {
        for (i, r) in relations.iter().enumerate() {
            if pct(rng, 50) {
                keys.push(KeySpec {
                    rel: i,
                    attrs: vec![rng.gen_range(0..r.attrs.len())],
                });
            }
        }
    }
    let mut fks = Vec::new();
    if knobs.foreign_keys && nrel >= 2 && pct(rng, 30) {
        // One FK from a random child to a *keyed* single-attribute parent
        // of matching type (the only shape that makes referential sense).
        let child = rng.gen_range(0..nrel);
        let candidates: Vec<(usize, usize, usize)> = keys
            .iter()
            .filter(|k| k.rel != child && k.attrs.len() == 1)
            .flat_map(|k| {
                let pty = relations[k.rel].attrs[k.attrs[0]];
                relations[child]
                    .attrs
                    .iter()
                    .enumerate()
                    .filter(move |(_, t)| **t == pty)
                    .map(move |(ca, _)| (k.rel, k.attrs[0], ca))
                    .collect::<Vec<_>>()
            })
            .collect();
        if !candidates.is_empty() {
            let (parent, pa, ca) = candidates[rng.gen_range(0..candidates.len())];
            fks.push(FkSpec {
                child,
                child_attrs: vec![ca],
                parent,
                parent_attrs: vec![pa],
            });
        }
    }
    SchemaSpec {
        relations,
        keys,
        fks,
    }
}

/// Generates one query over `schema`. `forced_arity` pins the output arity
/// (for query pairs); returns `None` when the draw cannot honor it.
fn gen_query(
    rng: &mut StdRng,
    schema: &SchemaSpec,
    knobs: &GenKnobs,
    forced_arity: Option<usize>,
) -> Option<QuerySpec> {
    let nrel = schema.relations.len();
    let mut vars: Vec<DomainType> = Vec::new();
    let mut atoms: Vec<AtomSpec> = Vec::new();

    // Positive conjunctive core.
    let npos = rng.gen_range(1..=knobs.max_pos_atoms);
    for ai in 0..npos {
        let rel = rng.gen_range(0..nrel);
        let terms: Vec<TermSpec> = schema.relations[rel]
            .attrs
            .iter()
            .enumerate()
            .map(|(si, ty)| {
                // The very first slot is always a fresh variable so every
                // query has at least one.
                if ai == 0 && si == 0 {
                    vars.push(*ty);
                    return TermSpec::Var(vars.len() - 1);
                }
                let roll = rng.gen_range(0..100u32);
                if roll < 45 || vars.len() >= knobs.max_vars {
                    if let Some(v) = pick_var(rng, &vars, *ty) {
                        return TermSpec::Var(v);
                    }
                }
                if roll < 85 && vars.len() < knobs.max_vars {
                    vars.push(*ty);
                    TermSpec::Var(vars.len() - 1)
                } else if roll < 93 && knobs.constants {
                    TermSpec::Const(random_const(rng, *ty))
                } else {
                    TermSpec::Wildcard
                }
            })
            .collect();
        atoms.push(AtomSpec {
            negated: false,
            rel,
            terms,
        });
    }

    // Negated atoms reuse anchored variables (or stay free of them).
    for _ in 0..knobs.max_neg_atoms {
        if !pct(rng, 35) {
            continue;
        }
        let rel = rng.gen_range(0..nrel);
        let terms: Vec<TermSpec> = schema.relations[rel]
            .attrs
            .iter()
            .map(|ty| {
                let roll = rng.gen_range(0..100u32);
                if roll < 65 {
                    if let Some(v) = pick_var(rng, &vars, *ty) {
                        return TermSpec::Var(v);
                    }
                }
                if roll < 80 && knobs.constants {
                    TermSpec::Const(random_const(rng, *ty))
                } else {
                    TermSpec::Wildcard
                }
            })
            .collect();
        atoms.push(AtomSpec {
            negated: true,
            rel,
            terms,
        });
    }

    // Comparisons.
    let mut cmps: Vec<CmpSpec> = Vec::new();
    for _ in 0..knobs.max_cmps {
        if !pct(rng, 45) || vars.is_empty() {
            continue;
        }
        let v = rng.gen_range(0..vars.len());
        let ty = vars[v];
        let ord_ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let cmp = match ty {
            DomainType::Int | DomainType::Real => {
                let op = ord_ops[rng.gen_range(0..ord_ops.len())];
                let rhs = match pick_var(rng, &vars, ty) {
                    Some(w) if w != v && pct(rng, 40) => TermSpec::Var(w),
                    _ if knobs.constants => TermSpec::Const(random_const(rng, ty)),
                    _ => continue,
                };
                CmpSpec {
                    negated: false,
                    lhs: TermSpec::Var(v),
                    op,
                    rhs,
                }
            }
            DomainType::Text => {
                if knobs.constants && pct(rng, 50) {
                    CmpSpec {
                        negated: pct(rng, 25),
                        lhs: TermSpec::Var(v),
                        op: CmpOp::Like,
                        rhs: TermSpec::Const(Value::str(
                            LIKE_POOL[rng.gen_range(0..LIKE_POOL.len())],
                        )),
                    }
                } else {
                    let rhs = match pick_var(rng, &vars, ty) {
                        Some(w) if w != v => TermSpec::Var(w),
                        _ if knobs.constants => TermSpec::Const(random_const(rng, ty)),
                        _ => continue,
                    };
                    let op = if pct(rng, 50) { CmpOp::Eq } else { CmpOp::Ne };
                    CmpSpec {
                        negated: false,
                        lhs: TermSpec::Var(v),
                        op,
                        rhs,
                    }
                }
            }
        };
        cmps.push(cmp);
    }

    // ∀ blocks: `forall f… (not R(…) or f op x)`.
    let mut foralls: Vec<ForallSpec> = Vec::new();
    for _ in 0..knobs.max_foralls {
        if !pct(rng, 30) {
            continue;
        }
        let rel = rng.gen_range(0..nrel);
        let mut bound_types: Vec<DomainType> = Vec::new();
        let terms: Vec<ForallTerm> = schema.relations[rel]
            .attrs
            .iter()
            .map(|ty| {
                let roll = rng.gen_range(0..100u32);
                if roll < 40 {
                    if let Some(v) = pick_var(rng, &vars, *ty) {
                        return ForallTerm::Outer(v);
                    }
                }
                if roll < 90 {
                    bound_types.push(*ty);
                    ForallTerm::Bound(bound_types.len() - 1)
                } else {
                    ForallTerm::Wildcard
                }
            })
            .collect();
        let guard = bound_types.iter().enumerate().find_map(|(bi, bty)| {
            if !matches!(bty, DomainType::Int | DomainType::Real) || !pct(rng, 60) {
                return None;
            }
            let outer = pick_var(rng, &vars, *bty)?;
            let ops = [CmpOp::Le, CmpOp::Ge, CmpOp::Lt, CmpOp::Gt];
            Some((bi, ops[rng.gen_range(0..ops.len())], outer))
        });
        foralls.push(ForallSpec { rel, terms, guard });
    }

    // Output variables: a distinct subset (forced arity for pairs).
    let want = match forced_arity {
        Some(k) => {
            if vars.len() < k {
                return None;
            }
            k
        }
        None => rng.gen_range(1..=vars.len().min(3)),
    };
    let mut pool: Vec<usize> = (0..vars.len()).collect();
    let mut out_vars = Vec::with_capacity(want);
    for _ in 0..want {
        out_vars.push(pool.swap_remove(rng.gen_range(0..pool.len())));
    }

    Some(QuerySpec {
        num_vars: vars.len(),
        atoms,
        cmps,
        foralls,
        out_vars,
    })
}

/// Generates the deterministic case for `seed`: same seed, same case, on
/// any machine (the vendored `StdRng` is a portable fixed algorithm).
pub fn gen_case(seed: u64, knobs: &GenKnobs) -> CaseSpec {
    // Defensive retries: generated specs are valid by construction, but a
    // build failure must surface as a skipped draw, not a panic mid-sweep.
    for attempt in 0..64u64 {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_add(attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let schema = gen_schema(&mut rng, knobs);
        let Some(query) = gen_query(&mut rng, &schema, knobs, None) else {
            continue;
        };
        let second = if pct(&mut rng, knobs.pair_pct) {
            (0..4).find_map(|_| gen_query(&mut rng, &schema, knobs, Some(query.out_vars.len())))
        } else {
            None
        };
        let case = CaseSpec {
            schema,
            query,
            second,
        };
        match case.build(None) {
            Ok(_) => {
                if let Some(s) = &case.second {
                    let schema = case.schema.build().expect("schema just built");
                    if s.build(&schema, None).is_err() {
                        return CaseSpec {
                            second: None,
                            ..case
                        };
                    }
                }
                return case;
            }
            Err(_) => continue,
        }
    }
    panic!("gen_case: 64 consecutive invalid draws for seed {seed} — generator bug");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let knobs = GenKnobs::default();
        for seed in 0..50 {
            assert_eq!(
                gen_case(seed, &knobs),
                gen_case(seed, &knobs),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn every_generated_case_builds_and_pretty_round_trips() {
        let knobs = GenKnobs::default();
        for seed in 0..150 {
            let case = gen_case(seed, &knobs);
            let (schema, q) = case
                .build(None)
                .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            let printed = cqi_drc::pretty::query_to_string(&q);
            let back = cqi_drc::parse_query(&schema, &printed)
                .unwrap_or_else(|e| panic!("seed {seed}: {printed}\n{e:?}"));
            // Compare modulo VarId renaming: the parser numbers variables by
            // appearance order, the builder by generation order.
            assert_eq!(
                printed,
                cqi_drc::pretty::query_to_string(&back),
                "seed {seed}"
            );
            if let Some(s) = &case.second {
                assert_eq!(s.out_vars.len(), case.query.out_vars.len(), "seed {seed}");
                s.build(&schema, None)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            }
        }
    }

    #[test]
    fn knobs_actually_bite() {
        // With every optional feature disabled the sweep is pure
        // conjunctive: no negation, no cmps, no ∀, no constants.
        let knobs = GenKnobs {
            max_neg_atoms: 0,
            max_cmps: 0,
            max_foralls: 0,
            constants: false,
            pair_pct: 0,
            ..GenKnobs::default()
        };
        for seed in 0..80 {
            let case = gen_case(seed, &knobs);
            assert!(case.query.atoms.iter().all(|a| !a.negated), "seed {seed}");
            assert!(case.query.cmps.is_empty() && case.query.foralls.is_empty());
            assert!(case.second.is_none());
            assert!(case
                .query
                .atoms
                .iter()
                .all(|a| a.terms.iter().all(|t| !matches!(t, TermSpec::Const(_)))));
        }
        // And with the full default knobs the features do appear somewhere.
        let full = GenKnobs::default();
        let cases: Vec<CaseSpec> = (0..200).map(|s| gen_case(s, &full)).collect();
        assert!(cases
            .iter()
            .any(|c| c.query.atoms.iter().any(|a| a.negated)));
        assert!(cases.iter().any(|c| !c.query.cmps.is_empty()));
        assert!(cases.iter().any(|c| !c.query.foralls.is_empty()));
        assert!(cases.iter().any(|c| c.second.is_some()));
    }
}
