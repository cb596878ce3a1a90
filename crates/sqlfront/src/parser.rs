//! Recursive-descent SQL parser (reusing the DRC tokenizer).
//!
//! Parenthesized conditions, `NOT` prefixes, `EXISTS` subqueries and the
//! extra operands of `AND`/`OR` chains count against the DRC parser's
//! [`MAX_NESTING_DEPTH`]: deeper input is a [`QueryError::Parse`], never a
//! stack overflow.

use cqi_drc::lexer::{lex, Spanned, Tok};
use cqi_drc::{QueryError, MAX_NESTING_DEPTH};
use cqi_schema::Value;

use crate::ast::{ColRef, FromItem, SelectItem, SelectStmt, SqlCond, SqlOp, SqlQuery, SqlTerm};

/// Identifiers that terminate a `FROM` entry and therefore cannot be
/// implicit table aliases. The outer-join keywords are included so that
/// `LEFT JOIN` is *rejected* with a clear error instead of `LEFT` silently
/// becoming a table alias and the join degrading to inner semantics.
const CLAUSE_KEYWORDS: [&str; 12] = [
    "where", "except", "and", "or", "join", "inner", "cross", "on", "left", "right", "full",
    "outer",
];

pub fn parse_sql(src: &str) -> Result<SqlQuery, QueryError> {
    let toks = lex(src)?;
    let mut p = P {
        toks,
        i: 0,
        depth: 0,
        peak: 0,
    };
    let left = p.select()?;
    let except = if p.eat_kw("except") {
        Some(p.select()?)
    } else {
        None
    };
    // Allow a trailing semicolon.
    while p.peek() == Some(&Tok::Ident(";".into())) {
        p.i += 1;
    }
    if p.i != p.toks.len() {
        return Err(p.err("trailing input after SQL query"));
    }
    Ok(SqlQuery { left, except })
}

struct P {
    toks: Vec<Spanned>,
    i: usize,
    /// Nesting levels open at the current position.
    depth: usize,
    /// Deepest level any leaf of the innermost open `AND`/`OR` chain
    /// reaches (see [`P::chain`]).
    peak: usize,
}

impl P {
    fn err(&self, msg: &str) -> QueryError {
        QueryError::Parse {
            pos: self.toks.get(self.i).map(|s| s.pos).unwrap_or(0),
            msg: msg.to_owned(),
        }
    }

    /// Parses `inner` one nesting level deeper, or fails once that would
    /// exceed [`MAX_NESTING_DEPTH`].
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn too_deep(&self) -> QueryError {
        self.err(&format!(
            "query nests deeper than {MAX_NESTING_DEPTH} levels"
        ))
    }

    /// Parses `operand (kw operand)*` and folds it left with `join`. Each
    /// extra operand sinks the chain's deepest leaf one level and is
    /// charged against [`MAX_NESTING_DEPTH`], which bounds the height of
    /// the folded tree (the DRC parser's `chain`, over [`SqlCond`]).
    fn chain(
        &mut self,
        kw: &str,
        operand: fn(&mut Self) -> Result<SqlCond, QueryError>,
        join: fn(Box<SqlCond>, Box<SqlCond>) -> SqlCond,
    ) -> Result<SqlCond, QueryError> {
        let outer_peak = std::mem::replace(&mut self.peak, self.depth);
        let mut c = operand(self)?;
        while self.eat_kw(kw) {
            self.peak += 1;
            if self.peak > MAX_NESTING_DEPTH {
                return Err(self.too_deep());
            }
            let r = self.nested(operand)?;
            c = join(Box::new(c), Box::new(r));
        }
        self.peak = self.peak.max(outer_peak);
        Ok(c)
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

    fn expect_kw(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", kw.to_uppercase())))
        }
    }

    fn ident(&mut self) -> Result<String, QueryError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(self.err("expected identifier")),
        }
    }

    fn select(&mut self) -> Result<SelectStmt, QueryError> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut cols = Vec::new();
        loop {
            cols.push(self.select_item()?);
            if self.peek() == Some(&Tok::Comma) {
                self.i += 1;
            } else {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = vec![self.table_ref()?];
        // Comma-separated products and explicit `[INNER|CROSS] JOIN`s mix
        // freely; every ON condition is conjoined into the WHERE clause
        // (inner-join semantics), where the equality-inlining of the
        // lowerer picks it up like any hand-written join predicate.
        let mut join_conds: Vec<SqlCond> = Vec::new();
        loop {
            if self.peek() == Some(&Tok::Comma) {
                self.i += 1;
                from.push(self.table_ref()?);
                continue;
            }
            if self.is_kw("left")
                || self.is_kw("right")
                || self.is_kw("full")
                || self.is_kw("outer")
            {
                return Err(self.err(
                    "outer joins are not supported — only [INNER|CROSS] JOIN ... ON \
                     (inner semantics) lowers to DRC",
                ));
            }
            if self.is_kw("join") || self.is_kw("inner") || self.is_kw("cross") {
                let cross = self.eat_kw("cross");
                if !cross {
                    self.eat_kw("inner");
                }
                self.expect_kw("join")?;
                from.push(self.table_ref()?);
                if !cross {
                    self.expect_kw("on")?;
                    join_conds.push(self.cond()?);
                }
                continue;
            }
            break;
        }
        let mut where_ = if self.eat_kw("where") {
            Some(self.cond()?)
        } else {
            None
        };
        // ON conditions first, WHERE last — the order a reader sees them.
        for c in join_conds.into_iter().rev() {
            where_ = Some(match where_ {
                Some(w) => SqlCond::And(Box::new(c), Box::new(w)),
                None => c,
            });
        }
        Ok(SelectStmt {
            distinct,
            cols,
            from,
            where_,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, QueryError> {
        if self.peek() == Some(&Tok::Star) {
            self.i += 1;
            return Ok(SelectItem::Wildcard { alias: None });
        }
        // `t.*` — qualified wildcard.
        if matches!(self.peek(), Some(Tok::Ident(_)))
            && self.peek2() == Some(&Tok::Dot)
            && self.toks.get(self.i + 2).map(|s| &s.tok) == Some(&Tok::Star)
        {
            let alias = self.ident()?;
            self.i += 2; // consume `.` and `*`
            return Ok(SelectItem::Wildcard { alias: Some(alias) });
        }
        Ok(SelectItem::Col(self.col_ref()?))
    }

    fn table_ref(&mut self) -> Result<FromItem, QueryError> {
        let relation = self.ident()?;
        // Optional alias (an identifier that is not a clause keyword).
        let alias = match self.peek() {
            Some(Tok::Ident(s)) if !CLAUSE_KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k)) => {
                let a = s.clone();
                self.i += 1;
                a
            }
            _ => relation.clone(),
        };
        Ok(FromItem { relation, alias })
    }

    fn col_ref(&mut self) -> Result<ColRef, QueryError> {
        let first = self.ident()?;
        if self.peek() == Some(&Tok::Dot) {
            self.i += 1;
            let attr = self.ident()?;
            Ok(ColRef {
                alias: Some(first),
                attr,
            })
        } else {
            Ok(ColRef {
                alias: None,
                attr: first,
            })
        }
    }

    fn cond(&mut self) -> Result<SqlCond, QueryError> {
        self.chain("or", Self::and_cond, SqlCond::Or)
    }

    fn and_cond(&mut self) -> Result<SqlCond, QueryError> {
        self.chain("and", Self::unary_cond, SqlCond::And)
    }

    fn unary_cond(&mut self) -> Result<SqlCond, QueryError> {
        if self.is_kw("not")
            && self
                .peek2()
                .is_some_and(|t| matches!(t, Tok::Ident(s) if s.eq_ignore_ascii_case("exists")))
        {
            self.i += 2;
            return Ok(SqlCond::Exists {
                negated: true,
                subquery: Box::new(self.nested(Self::parenthesized_select)?),
            });
        }
        if self.eat_kw("exists") {
            return Ok(SqlCond::Exists {
                negated: false,
                subquery: Box::new(self.nested(Self::parenthesized_select)?),
            });
        }
        if self.eat_kw("not") {
            let inner = self.nested(Self::unary_cond)?;
            return Ok(SqlCond::Not(Box::new(inner)));
        }
        if self.peek() == Some(&Tok::LParen) {
            self.i += 1;
            let c = self.nested(Self::cond)?;
            if self.peek() != Some(&Tok::RParen) {
                return Err(self.err("expected `)`"));
            }
            self.i += 1;
            return Ok(c);
        }
        // A comparison / LIKE predicate.
        let lhs = self.term()?;
        if self.eat_kw("not") {
            self.expect_kw("like")?;
            let pattern = self.pattern()?;
            return Ok(SqlCond::Like {
                negated: true,
                col: lhs,
                pattern,
            });
        }
        if self.eat_kw("like") {
            let pattern = self.pattern()?;
            return Ok(SqlCond::Like {
                negated: false,
                col: lhs,
                pattern,
            });
        }
        let op = match self.bump() {
            Some(Tok::Lt) => SqlOp::Lt,
            Some(Tok::Le) => SqlOp::Le,
            Some(Tok::Gt) => SqlOp::Gt,
            Some(Tok::Ge) => SqlOp::Ge,
            Some(Tok::Eq) => SqlOp::Eq,
            Some(Tok::Ne) => SqlOp::Ne,
            _ => return Err(self.err("expected comparison operator")),
        };
        let rhs = self.term()?;
        Ok(SqlCond::Cmp { lhs, op, rhs })
    }

    fn parenthesized_select(&mut self) -> Result<SelectStmt, QueryError> {
        if self.peek() != Some(&Tok::LParen) {
            return Err(self.err("expected `(` after EXISTS"));
        }
        self.i += 1;
        let s = self.select()?;
        if self.peek() != Some(&Tok::RParen) {
            return Err(self.err("expected `)` closing the subquery"));
        }
        self.i += 1;
        Ok(s)
    }

    fn pattern(&mut self) -> Result<String, QueryError> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok(s),
            _ => Err(self.err("expected string pattern after LIKE")),
        }
    }

    fn term(&mut self) -> Result<SqlTerm, QueryError> {
        match self.peek() {
            Some(Tok::Int(v)) => {
                let v = *v;
                self.i += 1;
                Ok(SqlTerm::Const(Value::Int(v)))
            }
            Some(Tok::Real(v)) => {
                let v = *v;
                self.i += 1;
                Ok(SqlTerm::Const(Value::real(v)))
            }
            Some(Tok::Str(s)) => {
                let s = s.clone();
                self.i += 1;
                Ok(SqlTerm::Const(Value::str(s)))
            }
            Some(Tok::Ident(_)) => Ok(SqlTerm::Col(self.col_ref()?)),
            _ => Err(self.err("expected a term")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q =
            parse_sql("SELECT l.beer, s.bar FROM Likes l, Serves s WHERE l.beer = s.beer").unwrap();
        assert_eq!(q.left.cols.len(), 2);
        assert_eq!(q.left.from.len(), 2);
        assert!(q.except.is_none());
    }

    #[test]
    fn parses_fig9_qa() {
        let q = parse_sql(
            "SELECT l.beer, s.bar FROM Likes l, Serves s \
             WHERE l.drinker LIKE 'Eve %' AND l.beer = s.beer \
             AND NOT EXISTS (SELECT * FROM Serves WHERE beer = s.beer AND price > s.price)",
        )
        .unwrap();
        let w = q.left.where_.unwrap();
        fn has_not_exists(c: &SqlCond) -> bool {
            match c {
                SqlCond::Exists { negated, .. } => *negated,
                SqlCond::And(l, r) | SqlCond::Or(l, r) => has_not_exists(l) || has_not_exists(r),
                SqlCond::Not(i) => has_not_exists(i),
                _ => false,
            }
        }
        assert!(has_not_exists(&w));
    }

    #[test]
    fn parses_distinct_and_ne() {
        let q = parse_sql(
            "SELECT DISTINCT S.beer FROM Serves S, Likes L \
             WHERE S.bar = 'Edge' AND S.beer = L.beer AND L.drinker <> 'Richard'",
        )
        .unwrap();
        assert!(q.left.distinct);
    }

    #[test]
    fn parses_except() {
        let q = parse_sql("SELECT b.name FROM Beer b EXCEPT SELECT l.beer FROM Likes l").unwrap();
        assert!(q.except.is_some());
    }

    #[test]
    fn parses_explicit_join_on() {
        let q = parse_sql(
            "SELECT l.beer, s.bar FROM Likes l JOIN Serves s ON l.beer = s.beer \
             WHERE s.price > 2.5",
        )
        .unwrap();
        assert_eq!(q.left.from.len(), 2);
        // The ON condition is conjoined ahead of the WHERE clause.
        fn conjuncts(c: &SqlCond, out: &mut Vec<String>) {
            match c {
                SqlCond::And(l, r) => {
                    conjuncts(l, out);
                    conjuncts(r, out);
                }
                other => out.push(format!("{other:?}")),
            }
        }
        let mut cs = Vec::new();
        conjuncts(q.left.where_.as_ref().unwrap(), &mut cs);
        assert_eq!(cs.len(), 2);
        assert!(cs[0].contains("beer"), "{cs:?}");
        assert!(cs[1].contains("price"), "{cs:?}");
    }

    #[test]
    fn parses_inner_and_cross_join_chains() {
        let q = parse_sql(
            "SELECT d.name FROM Drinker d INNER JOIN Likes l ON l.drinker = d.name \
             CROSS JOIN Bar b \
             JOIN Serves s ON s.bar = b.name AND s.beer = l.beer",
        )
        .unwrap();
        assert_eq!(q.left.from.len(), 4);
        assert_eq!(q.left.from[2].alias, "b");
        assert!(q.left.where_.is_some());
    }

    #[test]
    fn join_without_on_is_rejected() {
        assert!(parse_sql("SELECT l.beer FROM Likes l JOIN Serves s WHERE 1 = 1").is_err());
    }

    #[test]
    fn outer_joins_are_rejected_not_silently_inner() {
        // Before explicit JOIN support, these inputs failed to parse; they
        // must keep failing (loudly) rather than degrade to inner joins
        // with `LEFT` eaten as a table alias.
        for src in [
            "SELECT beer FROM Likes LEFT JOIN Serves ON Likes.beer = Serves.beer",
            "SELECT beer FROM Likes l LEFT OUTER JOIN Serves s ON l.beer = s.beer",
            "SELECT beer FROM Likes RIGHT JOIN Serves ON Likes.beer = Serves.beer",
            "SELECT beer FROM Likes FULL JOIN Serves ON Likes.beer = Serves.beer",
        ] {
            let e = parse_sql(src);
            assert!(e.is_err(), "{src} must be rejected");
        }
    }

    #[test]
    fn parses_qualified_star() {
        let q = parse_sql("SELECT s.*, l.drinker FROM Serves s, Likes l").unwrap();
        assert_eq!(
            q.left.cols[0],
            SelectItem::Wildcard {
                alias: Some("s".into())
            }
        );
        assert!(matches!(q.left.cols[1], SelectItem::Col(_)));
        let bare = parse_sql("SELECT * FROM Serves").unwrap();
        assert_eq!(bare.left.cols, vec![SelectItem::Wildcard { alias: None }]);
    }

    #[test]
    fn alias_defaults_to_relation_name() {
        let q = parse_sql("SELECT beer FROM Serves WHERE price > 2.5").unwrap();
        assert_eq!(q.left.from[0].alias, "Serves");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_sql("SELECT FROM").is_err());
        assert!(parse_sql("SELECT x FROM t WHERE").is_err());
    }
}
