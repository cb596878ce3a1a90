//! Lowering SQL to DRC.
//!
//! Every `FROM` entry becomes a relational atom over fresh variables (one
//! per column); selected columns become the free output variables and all
//! others are existentially closed; `WHERE` predicates become comparison
//! leaves; `EXISTS`/`NOT EXISTS` subqueries lower recursively with the
//! outer scope visible (correlation); `EXCEPT` becomes
//! [`Query::difference`]. `DISTINCT` is a no-op under DRC's set semantics.

use std::sync::Arc;

use cqi_drc::normalize::negate;
use cqi_drc::{Atom, CmpOp, Formula, Query, QueryError, Term, VarId};
use cqi_schema::{RelId, Schema};

use crate::ast::{ColRef, SelectItem, SelectStmt, SqlCond, SqlOp, SqlTerm};
use crate::parser::parse_sql;

/// Compiles one SQL query over `schema` to a validated DRC [`Query`].
pub fn sql_to_drc(schema: &Arc<Schema>, src: &str) -> Result<Query, QueryError> {
    let sq = parse_sql(src)?;
    let left = lower_select(schema, &sq.left)?;
    match &sq.except {
        Some(right) => left.difference(&lower_select(schema, right)?),
        None => Ok(left),
    }
}

struct Frame {
    alias: String,
    rel: RelId,
    vars: Vec<VarId>,
}

struct Lowerer<'a> {
    schema: &'a Schema,
    names: Vec<String>,
    /// Equality-inlining substitution (`l.beer = s.beer` makes both columns
    /// share one variable, as a hand-written DRC query would) — find-style
    /// parent pointers.
    subst: std::collections::HashMap<VarId, VarId>,
}

impl<'a> Lowerer<'a> {
    fn fresh(&mut self, name: String) -> VarId {
        let id = VarId(self.names.len() as u32);
        self.names.push(name);
        id
    }

    fn find(&self, mut v: VarId) -> VarId {
        while let Some(p) = self.subst.get(&v) {
            if *p == v {
                break;
            }
            v = *p;
        }
        v
    }

    fn unify(&mut self, a: VarId, b: VarId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // The earlier-allocated variable wins: correlated subquery
            // equalities must keep the *outer* variable as representative,
            // or the outer formula's free variables would drift.
            let (keep, drop) = if ra.0 <= rb.0 { (ra, rb) } else { (rb, ra) };
            self.subst.insert(drop, keep);
        }
    }

    fn resolve(
        &self,
        scope: &[Frame],
        local_start: usize,
        col: &ColRef,
    ) -> Result<VarId, QueryError> {
        self.resolve_raw(scope, local_start, col)
            .map(|v| self.find(v))
    }

    fn resolve_raw(
        &self,
        scope: &[Frame],
        local_start: usize,
        col: &ColRef,
    ) -> Result<VarId, QueryError> {
        let find = |frames: &[Frame]| -> Option<VarId> {
            for f in frames.iter().rev() {
                if let Some(alias) = &col.alias {
                    if !f.alias.eq_ignore_ascii_case(alias) {
                        continue;
                    }
                }
                if let Some(i) = self.schema.relation(f.rel).attr_index(&col.attr) {
                    return Some(f.vars[i]);
                }
                if col.alias.is_some() {
                    return None; // alias matched but attribute missing
                }
            }
            None
        };
        // Local tables first, then the outer (correlated) scope.
        find(&scope[local_start..])
            .or_else(|| find(&scope[..local_start]))
            .ok_or_else(|| QueryError::Parse {
                pos: 0,
                msg: format!(
                    "cannot resolve column `{}{}`",
                    col.alias
                        .as_deref()
                        .map(|a| format!("{a}."))
                        .unwrap_or_default(),
                    col.attr
                ),
            })
    }

    /// Lowers one SELECT into `(formula, output vars)`; `scope` carries the
    /// outer frames for correlated subqueries.
    fn select(
        &mut self,
        stmt: &SelectStmt,
        scope: &mut Vec<Frame>,
        keep_outputs_free: bool,
    ) -> Result<(Formula, Vec<VarId>), QueryError> {
        let local_start = scope.len();
        let mut local_vars: Vec<VarId> = Vec::new();
        for item in &stmt.from {
            let rel = self
                .schema
                .rel_id(&item.relation)
                .ok_or_else(|| QueryError::UnknownRelation(item.relation.clone()))?;
            let mut vars = Vec::new();
            for attr in &self.schema.relation(rel).attrs {
                let v = self.fresh(format!("{}_{}", item.alias.to_lowercase(), attr.name));
                vars.push(v);
                local_vars.push(v);
            }
            scope.push(Frame {
                alias: item.alias.clone(),
                rel,
                vars,
            });
        }

        // Equality inlining: top-level conjunct `col = col` predicates
        // become shared variables instead of comparison leaves.
        let mut residual: Vec<&SqlCond> = Vec::new();
        if let Some(w) = &stmt.where_ {
            let mut conjuncts = Vec::new();
            flatten_and(w, &mut conjuncts);
            for c in conjuncts {
                if let SqlCond::Cmp {
                    lhs: SqlTerm::Col(a),
                    op: SqlOp::Eq,
                    rhs: SqlTerm::Col(b),
                } = c
                {
                    let va = self.resolve_raw(scope, local_start, a)?;
                    let vb = self.resolve_raw(scope, local_start, b)?;
                    self.unify(va, vb);
                    continue;
                }
                residual.push(c);
            }
        }

        // Relational atoms, with unified variables substituted in.
        let mut parts: Vec<Formula> = Vec::new();
        for frame in &scope[local_start..] {
            parts.push(Formula::Atom(Atom::Rel {
                negated: false,
                rel: frame.rel,
                terms: frame
                    .vars
                    .iter()
                    .map(|v| Term::Var(self.find(*v)))
                    .collect(),
            }));
        }
        for c in residual {
            let f = self.cond(c, scope, local_start)?;
            parts.push(f);
        }
        let body = Formula::and_all(parts);

        // Output variables (post-substitution representatives).
        let outs: Vec<VarId> = if keep_outputs_free {
            if stmt.cols.is_empty() {
                // Hand-built ASTs may leave cols empty for `SELECT *`.
                local_vars.iter().map(|v| self.find(*v)).collect()
            } else {
                let mut outs = Vec::new();
                for item in &stmt.cols {
                    match item {
                        SelectItem::Wildcard { alias: None } => {
                            outs.extend(local_vars.iter().map(|v| self.find(*v)));
                        }
                        SelectItem::Wildcard { alias: Some(a) } => {
                            let frame = scope[local_start..]
                                .iter()
                                .find(|f| f.alias.eq_ignore_ascii_case(a))
                                .ok_or_else(|| QueryError::Parse {
                                    pos: 0,
                                    msg: format!("cannot resolve table alias `{a}` in `{a}.*`"),
                                })?;
                            outs.extend(frame.vars.iter().map(|v| self.find(*v)));
                        }
                        SelectItem::Col(c) => outs.push(self.resolve(scope, local_start, c)?),
                    }
                }
                outs
            }
        } else {
            Vec::new()
        };

        // Existentially close local variables (post-substitution
        // representatives) that are not outputs.
        let mut bound: Vec<VarId> = local_vars
            .iter()
            .map(|v| self.find(*v))
            .filter(|v| !outs.contains(v))
            .collect();
        bound.sort();
        bound.dedup();
        // A representative may live in an outer scope (correlated equality)
        // — never re-bind those.
        let outer_vars: std::collections::BTreeSet<VarId> = scope[..local_start]
            .iter()
            .flat_map(|f| f.vars.iter().map(|v| self.find(*v)))
            .collect();
        bound.retain(|v| !outer_vars.contains(v));
        let formula = Formula::exists(&bound, body);
        scope.truncate(local_start);
        Ok((formula, outs))
    }

    #[allow(clippy::ptr_arg)] // scope is pushed/popped by nested selects
    fn cond(
        &mut self,
        c: &SqlCond,
        scope: &mut Vec<Frame>,
        local_start: usize,
    ) -> Result<Formula, QueryError> {
        Ok(match c {
            SqlCond::Cmp { lhs, op, rhs } => {
                let l = self.term(lhs, scope, local_start)?;
                let r = self.term(rhs, scope, local_start)?;
                let op = match op {
                    SqlOp::Lt => CmpOp::Lt,
                    SqlOp::Le => CmpOp::Le,
                    SqlOp::Gt => CmpOp::Gt,
                    SqlOp::Ge => CmpOp::Ge,
                    SqlOp::Eq => CmpOp::Eq,
                    SqlOp::Ne => CmpOp::Ne,
                };
                Formula::Atom(Atom::Cmp {
                    negated: false,
                    lhs: l,
                    op,
                    rhs: r,
                })
            }
            SqlCond::Like {
                negated,
                col,
                pattern,
            } => {
                let l = self.term(col, scope, local_start)?;
                Formula::Atom(Atom::Cmp {
                    negated: *negated,
                    lhs: l,
                    op: CmpOp::Like,
                    rhs: Term::Const(pattern.clone().into()),
                })
            }
            SqlCond::Exists { negated, subquery } => {
                let (f, _) = self.select(subquery, scope, false)?;
                if *negated {
                    negate(f)
                } else {
                    f
                }
            }
            SqlCond::And(l, r) => Formula::and(
                self.cond(l, scope, local_start)?,
                self.cond(r, scope, local_start)?,
            ),
            SqlCond::Or(l, r) => Formula::or(
                self.cond(l, scope, local_start)?,
                self.cond(r, scope, local_start)?,
            ),
            SqlCond::Not(inner) => negate(self.cond(inner, scope, local_start)?),
        })
    }

    #[allow(clippy::ptr_arg)] // signature mirrors `cond` (nested selects push frames)
    fn term(
        &mut self,
        t: &SqlTerm,
        scope: &mut Vec<Frame>,
        local_start: usize,
    ) -> Result<Term, QueryError> {
        Ok(match t {
            SqlTerm::Col(c) => Term::Var(self.resolve(scope, local_start, c)?),
            SqlTerm::Const(v) => Term::Const(v.clone()),
        })
    }
}

fn flatten_and<'a>(c: &'a SqlCond, out: &mut Vec<&'a SqlCond>) {
    match c {
        SqlCond::And(l, r) => {
            flatten_and(l, out);
            flatten_and(r, out);
        }
        other => out.push(other),
    }
}

fn lower_select(schema: &Arc<Schema>, stmt: &SelectStmt) -> Result<Query, QueryError> {
    let mut lw = Lowerer {
        schema,
        names: Vec::new(),
        subst: std::collections::HashMap::new(),
    };
    let mut scope = Vec::new();
    let (formula, outs) = lw.select(stmt, &mut scope, true)?;
    Query::new(Arc::clone(schema), outs, formula, lw.names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_schema::DomainType;

    fn schema() -> Arc<Schema> {
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
    fn lowers_fig9_qb() {
        // The paper's incorrect query QB (Fig. 9b).
        let q = sql_to_drc(
            &schema(),
            "SELECT S1.beer, S1.bar FROM Likes L, Serves S1, Serves S2 \
             WHERE L.drinker LIKE 'Eve%' AND L.beer = S1.beer AND L.beer = S2.beer \
             AND S1.price > S2.price",
        )
        .unwrap();
        assert_eq!(q.out_vars.len(), 2);
        // 3 relational atoms + LIKE + price comparison = 5 leaves: the two
        // join equalities are inlined as shared variables.
        let mut leaves = 0;
        q.formula.for_each_atom(&mut |_| leaves += 1);
        assert_eq!(leaves, 5);
        assert!(q.is_cq_neg());
    }

    #[test]
    fn lowers_fig9_qa_with_not_exists() {
        let q = sql_to_drc(
            &schema(),
            "SELECT l.beer, s.bar FROM Likes l, Serves s \
             WHERE l.drinker LIKE 'Eve %' AND l.beer = s.beer \
             AND NOT EXISTS (SELECT * FROM Serves WHERE beer = s.beer AND price > s.price)",
        )
        .unwrap();
        assert_eq!(q.out_vars.len(), 2);
        assert!(!q.is_cq_neg(), "NOT EXISTS lowers to a ∀");
        // NNF: some ∀ node must exist.
        fn has_forall(f: &Formula) -> bool {
            match f {
                Formula::Forall(..) => true,
                Formula::And(l, r) | Formula::Or(l, r) => has_forall(l) || has_forall(r),
                Formula::Exists(_, b) => has_forall(b),
                Formula::Atom(_) => false,
            }
        }
        assert!(has_forall(&q.formula));
    }

    #[test]
    fn correlated_subquery_sees_outer_alias() {
        let q = sql_to_drc(
            &schema(),
            "SELECT b.name FROM Beer b WHERE NOT EXISTS \
             (SELECT * FROM Likes l WHERE l.beer = b.name)",
        )
        .unwrap();
        assert_eq!(q.out_vars.len(), 1);
    }

    #[test]
    fn except_lowers_to_difference() {
        let q = sql_to_drc(
            &schema(),
            "SELECT b.name FROM Beer b EXCEPT SELECT l.beer FROM Likes l",
        )
        .unwrap();
        assert_eq!(q.out_vars.len(), 1);
        // Difference adds a negated side: not CQ¬? A negated ∃ becomes ∀.
        assert!(!q.is_cq_neg());
    }

    #[test]
    fn semantics_match_hand_written_drc() {
        // Evaluate SQL-lowered vs hand-written DRC on K0-like data.
        use cqi_instance::GroundInstance;
        let s = schema();
        let mut g = GroundInstance::new(Arc::clone(&s));
        g.insert_named("Drinker", &["Eve Edwards".into(), "a".into()]);
        g.insert_named("Beer", &["APA".into(), "SN".into()]);
        for bar in ["RM", "Tadim", "RR"] {
            g.insert_named("Bar", &[bar.into(), "x".into()]);
        }
        g.insert_named("Likes", &["Eve Edwards".into(), "APA".into()]);
        g.insert_named(
            "Serves",
            &["RM".into(), "APA".into(), cqi_schema::Value::real(2.25)],
        );
        g.insert_named(
            "Serves",
            &["RR".into(), "APA".into(), cqi_schema::Value::real(2.75)],
        );
        g.insert_named(
            "Serves",
            &["Tadim".into(), "APA".into(), cqi_schema::Value::real(3.5)],
        );

        let sql = sql_to_drc(
            &s,
            "SELECT S1.bar, S1.beer FROM Likes L, Serves S1, Serves S2 \
             WHERE L.drinker LIKE 'Eve%' AND L.beer = S1.beer AND L.beer = S2.beer \
             AND S1.price > S2.price",
        )
        .unwrap();
        let drc = cqi_drc::parse_query(
            &s,
            "{ (x1, b1) | exists d1, p1, x2, p2 . Serves(x1, b1, p1) and Likes(d1, b1) \
             and d1 like 'Eve%' and Serves(x2, b1, p2) and p1 > p2 }",
        )
        .unwrap();
        assert_eq!(cqi_eval::evaluate(&sql, &g), cqi_eval::evaluate(&drc, &g));
    }

    #[test]
    fn join_on_lowers_like_the_comma_form() {
        // `JOIN ... ON` must compile to the same DRC as the classic
        // comma-product + WHERE form: same shared-variable inlining, same
        // leaves, same answers.
        let s = schema();
        let joined = sql_to_drc(
            &s,
            "SELECT S1.beer, S1.bar FROM Likes L \
             JOIN Serves S1 ON L.beer = S1.beer \
             JOIN Serves S2 ON L.beer = S2.beer \
             WHERE L.drinker LIKE 'Eve%' AND S1.price > S2.price",
        )
        .unwrap();
        let comma = sql_to_drc(
            &s,
            "SELECT S1.beer, S1.bar FROM Likes L, Serves S1, Serves S2 \
             WHERE L.beer = S1.beer AND L.beer = S2.beer \
             AND L.drinker LIKE 'Eve%' AND S1.price > S2.price",
        )
        .unwrap();
        let leaves = |q: &cqi_drc::Query| {
            let mut n = 0;
            q.formula.for_each_atom(&mut |_| n += 1);
            n
        };
        assert_eq!(leaves(&joined), leaves(&comma));
        assert!(joined.is_cq_neg());
        // Same answers on ground data.
        use cqi_instance::GroundInstance;
        let mut g = GroundInstance::new(Arc::clone(&s));
        g.insert_named("Likes", &["Eve Edwards".into(), "APA".into()]);
        g.insert_named(
            "Serves",
            &["RM".into(), "APA".into(), cqi_schema::Value::real(2.25)],
        );
        g.insert_named(
            "Serves",
            &["RR".into(), "APA".into(), cqi_schema::Value::real(2.75)],
        );
        assert_eq!(
            cqi_eval::evaluate(&joined, &g),
            cqi_eval::evaluate(&comma, &g)
        );
        assert!(!cqi_eval::evaluate(&joined, &g).is_empty());
    }

    #[test]
    fn qualified_star_outputs_one_tables_columns() {
        let s = schema();
        let q = sql_to_drc(
            &s,
            "SELECT s.* FROM Serves s JOIN Likes l ON l.beer = s.beer",
        )
        .unwrap();
        // Serves has 3 columns; Likes' stay existentially closed.
        assert_eq!(q.out_vars.len(), 3);
        let all = sql_to_drc(&s, "SELECT * FROM Serves s JOIN Likes l ON l.beer = s.beer").unwrap();
        assert_eq!(all.out_vars.len(), 5);
        // The joined beer column is one shared variable, present in both
        // the s.* slice and the full * expansion.
        assert!(all.out_vars.contains(&q.out_vars[1]));
    }

    #[test]
    fn qualified_star_unknown_alias_errors() {
        assert!(sql_to_drc(&schema(), "SELECT x.* FROM Serves s").is_err());
    }

    #[test]
    fn unknown_relation_and_column_errors() {
        assert!(matches!(
            sql_to_drc(&schema(), "SELECT x.a FROM Nope x"),
            Err(QueryError::UnknownRelation(_))
        ));
        assert!(sql_to_drc(&schema(), "SELECT b.zzz FROM Beer b").is_err());
    }

    #[test]
    fn user_study_q2_wrong_query() {
        let q = sql_to_drc(
            &schema(),
            "SELECT DISTINCT S.beer FROM Serves S, Likes L \
             WHERE S.bar = 'Edge' AND S.beer = L.beer AND L.drinker <> 'Richard'",
        )
        .unwrap();
        assert_eq!(q.out_vars.len(), 1);
        assert!(q.is_cq_neg());
    }
}
