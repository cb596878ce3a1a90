//! Recursive-descent parser for the DRC text syntax.
//!
//! Grammar (precedence low→high: `or`, `and`, `not`/quantifier, primary):
//!
//! ```text
//! query    :=  '{' head '|' formula '}'
//! head     :=  '(' ident (',' ident)* ')'  |  '(' ')'  |  ε
//! formula  :=  and_expr ( 'or' and_expr )*
//! and_expr :=  unary ( 'and' unary )*
//! unary    :=  'not' unary
//!           |  ('exists'|'forall') ident (','? ident)* quant_body
//!           |  primary
//! quant_body := '.' formula          -- dot: body extends maximally
//!             | unary                -- no dot: body is the next group/atom
//! primary  :=  '(' formula ')'  |  rel_atom  |  comparison
//! rel_atom :=  RelName '(' term (',' term)* ')'
//! term     :=  ident | int | real | string | '*'
//! comparison := term cmp_op term  |  term ('not')? 'like' string
//! ```
//!
//! The no-dot quantifier form matches how the paper writes DRC
//! (`∃p1,t1 (...) ∧ Likes(d1,b1)` scopes the quantifier to the
//! parenthesized group only), so Tables 4 and 5 can be transcribed verbatim.
//!
//! Nesting is bounded by [`MAX_NESTING_DEPTH`], and so is the height of
//! the left-leaning tree an `and`/`or` chain folds into: deeper input is a
//! [`QueryError::Parse`], never a stack overflow.

use std::sync::Arc;

use cqi_schema::{Schema, Value};

use crate::ast::{Atom, CmpOp, Formula, Query, QueryError, Term, VarId};
use crate::lexer::{lex, Spanned, Tok};
use crate::normalize;

/// The deepest nesting the query front-ends accept. One level is a
/// parenthesized group, a negation prefix (`not` / SQL `NOT`), one
/// variable bound by a quantifier, a SQL `EXISTS` subquery, or one extra
/// operand of an `and`/`or` chain (the chain folds into a left-leaning
/// tree, one node per extra operand); levels add up along any path from
/// the root of the query to a leaf. Parsing,
/// normalization, `Tree-SAT` and the chase all recurse once per level, so
/// the bound keeps hostile query text from overflowing a thread's stack:
/// deeper input is rejected with a [`QueryError::Parse`]. Real queries
/// nest a few levels deep; the bound leaves ample headroom below the
/// depths at which an explain thread's default stack runs out.
pub const MAX_NESTING_DEPTH: usize = 128;

struct Parser<'a> {
    toks: Vec<Spanned>,
    i: usize,
    /// Nesting levels open at the current position (see
    /// [`MAX_NESTING_DEPTH`]).
    depth: usize,
    /// Deepest level any leaf of the innermost open `and`/`or` chain
    /// reaches (see [`Parser::chain`]).
    peak: usize,
    schema: &'a Schema,
    /// Innermost-last binding stack.
    scope: Vec<(String, VarId)>,
    /// Name of each allocated VarId.
    var_names: Vec<String>,
}

pub fn parse_query(schema: &Arc<Schema>, src: &str) -> Result<Query, QueryError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        i: 0,
        depth: 0,
        peak: 0,
        schema,
        scope: Vec::new(),
        var_names: Vec::new(),
    };
    let (out_vars, formula) = p.query()?;
    if p.i != p.toks.len() {
        return Err(p.err("trailing input after query"));
    }
    normalize::build_query(
        Arc::clone(schema),
        out_vars,
        formula,
        p.var_names,
        String::new(),
    )
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> QueryError {
        let pos = self.toks.get(self.i).map(|s| s.pos).unwrap_or(usize::MAX);
        QueryError::Parse {
            pos: if pos == usize::MAX { 0 } else { pos },
            msg: msg.to_owned(),
        }
    }

    /// Parses `inner` `levels` nesting levels deeper, or fails once the
    /// total would exceed [`MAX_NESTING_DEPTH`].
    fn nested<T>(
        &mut self,
        levels: usize,
        inner: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        if self.depth + levels > MAX_NESTING_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += levels;
        self.peak = self.peak.max(self.depth);
        let out = inner(self);
        self.depth -= levels;
        out
    }

    fn too_deep(&self) -> QueryError {
        self.err(&format!(
            "query nests deeper than {MAX_NESTING_DEPTH} levels"
        ))
    }

    /// Parses `operand (kw operand)*` and folds it left with `join`. Each
    /// extra operand puts a node on top of everything parsed so far, so
    /// the chain's deepest leaf sinks one level: it is charged against
    /// [`MAX_NESTING_DEPTH`] like any other nesting level, which bounds
    /// the height of the folded tree and not just the syntactic nesting.
    fn chain(
        &mut self,
        kw: &str,
        operand: fn(&mut Self) -> Result<Formula, QueryError>,
        join: fn(Formula, Formula) -> Formula,
    ) -> Result<Formula, QueryError> {
        let outer_peak = std::mem::replace(&mut self.peak, self.depth);
        let mut f = operand(self)?;
        while self.eat_kw(kw) {
            self.peak += 1;
            if self.peak > MAX_NESTING_DEPTH {
                return Err(self.too_deep());
            }
            let r = self.nested(1, operand)?;
            f = join(f, r);
        }
        self.peak = self.peak.max(outer_peak);
        Ok(f)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.i + 1).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).map(|s| s.tok.clone());
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), QueryError> {
        if self.peek() == Some(t) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn fresh_var(&mut self, name: &str) -> VarId {
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push(name.to_owned());
        id
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn query(&mut self) -> Result<(Vec<VarId>, Formula), QueryError> {
        self.expect(&Tok::LBrace, "`{`")?;
        let mut out = Vec::new();
        if self.peek() == Some(&Tok::LParen) {
            self.i += 1;
            while self.peek() != Some(&Tok::RParen) {
                match self.bump() {
                    Some(Tok::Ident(n)) => {
                        let v = self.fresh_var(&n);
                        self.scope.push((n, v));
                        out.push(v);
                    }
                    _ => return Err(self.err("expected output variable name")),
                }
                if self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                }
            }
            self.i += 1; // RParen
        }
        self.expect(&Tok::Pipe, "`|`")?;
        let f = self.formula()?;
        self.expect(&Tok::RBrace, "`}`")?;
        Ok((out, f))
    }

    fn formula(&mut self) -> Result<Formula, QueryError> {
        self.chain("or", Self::and_expr, Formula::or)
    }

    fn and_expr(&mut self) -> Result<Formula, QueryError> {
        self.chain("and", Self::unary, Formula::and)
    }

    fn unary(&mut self) -> Result<Formula, QueryError> {
        if self.eat_kw("not") {
            let inner = self.nested(1, Self::unary)?;
            return Ok(normalize::negate(inner));
        }
        let is_exists = self.is_kw("exists");
        let is_forall = self.is_kw("forall");
        if is_exists || is_forall {
            self.i += 1;
            // Quantified variable list (comma- or space-separated idents;
            // an ident followed by `(` is a relation atom, not a variable).
            let mut vars = Vec::new();
            loop {
                match self.peek() {
                    Some(Tok::Ident(n))
                        if !n.eq_ignore_ascii_case("not")
                            && !n.eq_ignore_ascii_case("exists")
                            && !n.eq_ignore_ascii_case("forall")
                            // An ident followed by `(` starts the body only
                            // if it is a relation name; otherwise it is a
                            // quantified variable (`exists p1 (body)`).
                            && (self.peek2() != Some(&Tok::LParen)
                                || self.schema.rel_id(n).is_none()) =>
                    {
                        let n = n.clone();
                        self.i += 1;
                        let v = self.fresh_var(&n);
                        vars.push((n, v));
                        if self.peek() == Some(&Tok::Comma) {
                            self.i += 1;
                        }
                    }
                    _ => break,
                }
            }
            if vars.is_empty() {
                return Err(self.err("quantifier with no variables"));
            }
            let depth = self.scope.len();
            for (n, v) in &vars {
                self.scope.push((n.clone(), *v));
            }
            let body = self.nested(vars.len(), |p| {
                if p.peek() == Some(&Tok::Dot) {
                    p.i += 1;
                    p.formula()
                } else {
                    p.unary()
                }
            })?;
            self.scope.truncate(depth);
            let ids: Vec<VarId> = vars.iter().map(|(_, v)| *v).collect();
            Ok(if is_exists {
                Formula::exists(&ids, body)
            } else {
                Formula::forall(&ids, body)
            })
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Formula, QueryError> {
        if self.peek() == Some(&Tok::LParen) {
            self.i += 1;
            let f = self.nested(1, Self::formula)?;
            self.expect(&Tok::RParen, "`)`")?;
            return Ok(f);
        }
        // Relation atom?
        if let (Some(Tok::Ident(name)), Some(Tok::LParen)) = (self.peek(), self.peek2()) {
            if let Some(rel) = self.schema.rel_id(name) {
                let rel_name = name.clone();
                self.i += 2;
                let mut terms = Vec::new();
                while self.peek() != Some(&Tok::RParen) {
                    terms.push(self.term()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.i += 1;
                    }
                }
                self.i += 1; // RParen
                let arity = self.schema.relation(rel).arity();
                if terms.len() != arity {
                    return Err(QueryError::ArityMismatch {
                        rel: rel_name,
                        expected: arity,
                        got: terms.len(),
                    });
                }
                return Ok(Formula::Atom(Atom::Rel {
                    negated: false,
                    rel,
                    terms,
                }));
            }
        }
        // Comparison.
        let lhs = self.term()?;
        if matches!(lhs, Term::Wildcard) {
            return Err(self.err("`*` is only allowed inside relational atoms"));
        }
        let negated_like = if self.is_kw("not") {
            // `x not like 'p'`
            self.i += 1;
            if !self.eat_kw("like") {
                return Err(self.err("expected `like` after `not`"));
            }
            true
        } else {
            false
        };
        let op = if negated_like || self.eat_kw("like") {
            CmpOp::Like
        } else {
            match self.bump() {
                Some(Tok::Lt) => CmpOp::Lt,
                Some(Tok::Le) => CmpOp::Le,
                Some(Tok::Gt) => CmpOp::Gt,
                Some(Tok::Ge) => CmpOp::Ge,
                Some(Tok::Eq) => CmpOp::Eq,
                Some(Tok::Ne) => CmpOp::Ne,
                _ => return Err(self.err("expected comparison operator")),
            }
        };
        let rhs = self.term()?;
        if matches!(rhs, Term::Wildcard) {
            return Err(self.err("`*` is only allowed inside relational atoms"));
        }
        if op == CmpOp::Like && !matches!(rhs, Term::Const(Value::Str(_))) {
            return Err(self.err("LIKE pattern must be a string constant"));
        }
        Ok(Formula::Atom(Atom::Cmp {
            negated: negated_like,
            lhs,
            op,
            rhs,
        }))
    }

    fn term(&mut self) -> Result<Term, QueryError> {
        match self.bump() {
            Some(Tok::Star) => Ok(Term::Wildcard),
            Some(Tok::Int(v)) => Ok(Term::Const(Value::Int(v))),
            Some(Tok::Real(v)) => Ok(Term::Const(Value::real(v))),
            Some(Tok::Str(s)) => Ok(Term::Const(Value::str(s))),
            Some(Tok::Ident(n)) => match self.lookup(&n) {
                Some(v) => Ok(Term::Var(v)),
                None => Err(QueryError::Parse {
                    pos: self.toks[self.i - 1].pos,
                    msg: format!("unbound variable `{n}` (did you forget a quantifier?)"),
                }),
            },
            _ => Err(self.err("expected a term")),
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
    fn parses_running_example_qb() {
        let q = parse_query(
            &schema(),
            "{ (x1, b1) | exists d1, p1, x2, p2 . Serves(x1, b1, p1) and Likes(d1, b1) \
             and d1 like 'Eve%' and Serves(x2, b1, p2) and p1 > p2 }",
        )
        .unwrap();
        assert_eq!(q.out_vars.len(), 2);
        let mut leaves = 0;
        q.formula.for_each_atom(&mut |_| leaves += 1);
        assert_eq!(leaves, 5);
    }

    #[test]
    fn quantifier_without_dot_scopes_to_group() {
        // exists t1 (...) and Likes(...) — quantifier covers only the group.
        let q = parse_query(
            &schema(),
            "{ (d1, b1) | exists x1 . (exists p1 (Serves(x1, b1, p1)) and Likes(d1, b1)) }",
        )
        .unwrap();
        // shape: exists x1 . And(Exists p1 Serves, Likes)
        match &q.formula {
            Formula::Exists(_, body) => match body.as_ref() {
                Formula::And(l, _) => assert!(matches!(l.as_ref(), Formula::Exists(..))),
                other => panic!("expected And, got {other:?}"),
            },
            other => panic!("expected Exists, got {other:?}"),
        }
    }

    #[test]
    fn not_pushes_to_leaves() {
        let q = parse_query(
            &schema(),
            "{ (b1) | exists x1, p1 . Serves(x1, b1, p1) and not exists d1 (Likes(d1, b1)) }",
        )
        .unwrap();
        // The `not exists` must become `forall d1 (not Likes)`.
        let mut saw_forall = false;
        fn walk(f: &Formula, saw: &mut bool) {
            match f {
                Formula::Forall(_, b) => {
                    *saw = true;
                    walk(b, saw);
                }
                Formula::And(l, r) | Formula::Or(l, r) => {
                    walk(l, saw);
                    walk(r, saw);
                }
                Formula::Exists(_, b) => walk(b, saw),
                Formula::Atom(_) => {}
            }
        }
        walk(&q.formula, &mut saw_forall);
        assert!(saw_forall);
    }

    #[test]
    fn boolean_query() {
        let q = parse_query(&schema(), "{ | exists d1 (exists a1 (Drinker(d1, a1))) }").unwrap();
        assert!(q.out_vars.is_empty());
    }

    #[test]
    fn wildcard_in_atom() {
        let q = parse_query(
            &schema(),
            "{ (d1) | exists a (Drinker(d1, a)) and exists b1 (Likes(d1, b1) and Beer(b1, *)) }",
        )
        .unwrap();
        let mut wild = 0;
        q.formula.for_each_atom(&mut |a| {
            if let Atom::Rel { terms, .. } = a {
                wild += terms.iter().filter(|t| matches!(t, Term::Wildcard)).count();
            }
        });
        assert_eq!(wild, 1);
    }

    #[test]
    fn unbound_variable_rejected() {
        let e = parse_query(&schema(), "{ (x) | Serves(x, y, p) }").unwrap_err();
        assert!(matches!(e, QueryError::Parse { .. }), "{e:?}");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = parse_query(&schema(), "{ (x) | exists b (Serves(x, b)) }").unwrap_err();
        assert!(matches!(e, QueryError::ArityMismatch { .. }));
    }

    #[test]
    fn not_like_form() {
        let q = parse_query(
            &schema(),
            "{ (d1) | exists a1 (Drinker(d1, a1)) and d1 not like 'Eve%' }",
        )
        .unwrap();
        let mut neg_like = false;
        q.formula.for_each_atom(&mut |a| {
            if let Atom::Cmp {
                negated: true,
                op: CmpOp::Like,
                ..
            } = a
            {
                neg_like = true;
            }
        });
        assert!(neg_like);
    }

    #[test]
    fn double_negation_cancels() {
        let q1 = parse_query(&schema(), "{ (d1) | exists a (Drinker(d1, a)) }").unwrap();
        let q2 = parse_query(&schema(), "{ (d1) | not not exists a (Drinker(d1, a)) }").unwrap();
        assert_eq!(format!("{:?}", q1.formula), format!("{:?}", q2.formula));
    }
}
