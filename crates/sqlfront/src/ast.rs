//! SQL abstract syntax (the subset the paper uses).

use cqi_schema::Value;

/// A column reference `alias.attr` or bare `attr`.
#[derive(Clone, Debug, PartialEq)]
pub struct ColRef {
    pub alias: Option<String>,
    pub attr: String,
}

/// A scalar term in a predicate.
#[derive(Clone, Debug, PartialEq)]
pub enum SqlTerm {
    Col(ColRef),
    Const(Value),
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SqlOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// WHERE-clause conditions.
#[derive(Clone, Debug, PartialEq)]
pub enum SqlCond {
    Cmp {
        lhs: SqlTerm,
        op: SqlOp,
        rhs: SqlTerm,
    },
    Like {
        negated: bool,
        col: SqlTerm,
        pattern: String,
    },
    Exists {
        negated: bool,
        subquery: Box<SelectStmt>,
    },
    And(Box<SqlCond>, Box<SqlCond>),
    Or(Box<SqlCond>, Box<SqlCond>),
    Not(Box<SqlCond>),
}

/// One output column of a `SELECT` list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*` (all columns of all tables, in FROM order) or qualified `t.*`
    /// (all columns of the table aliased `t`).
    Wildcard {
        alias: Option<String>,
    },
    Col(ColRef),
}

/// One `FROM` entry: `Relation [alias]`.
#[derive(Clone, Debug, PartialEq)]
pub struct FromItem {
    pub relation: String,
    pub alias: String,
}

/// A `SELECT` statement. `JOIN ... ON` in the FROM clause is parsed into
/// plain `from` entries with the ON conditions conjoined into `where_`
/// (inner-join semantics, which is all DRC needs).
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    /// Output items; empty means `SELECT *` in hand-built ASTs — the
    /// parser always emits explicit items ([`SelectItem::Wildcard`] for
    /// `*`) — or a Boolean query inside `EXISTS`.
    pub cols: Vec<SelectItem>,
    pub from: Vec<FromItem>,
    pub where_: Option<SqlCond>,
}

/// A top-level query: a select, optionally `EXCEPT` another.
#[derive(Clone, Debug, PartialEq)]
pub struct SqlQuery {
    pub left: SelectStmt,
    pub except: Option<SelectStmt>,
}
