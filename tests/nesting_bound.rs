//! Hostile nesting: query text nested deeper than `MAX_NESTING_DEPTH`
//! must come back as a `QueryError` from either front-end — never a stack
//! overflow that aborts the process — while a query exactly at the bound
//! still explains. Long `and`/`or` chains count too: they nest no deeper
//! than one level syntactically, but fold into a left-leaning tree one
//! node taller per extra operand.

use std::sync::Arc;

use cqi::drc::MAX_NESTING_DEPTH;
use cqi::prelude::*;

const HOSTILE: usize = 20_000;

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::builder()
            .relation(
                "Likes",
                &[("drinker", DomainType::Text), ("beer", DomainType::Text)],
            )
            .build()
            .unwrap(),
    )
}

/// `depth` parentheses around `inner`.
fn parens(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "(".repeat(depth), ")".repeat(depth))
}

/// A DRC query whose `exists d1` (one level) sits inside `depth - 1`
/// parenthesized groups: `depth` levels in all.
fn drc_nested(depth: usize) -> String {
    format!(
        "{{ (b1) | {} }}",
        parens(depth - 1, "exists d1 Likes(d1, b1)")
    )
}

/// A SQL query whose WHERE predicate sits inside `depth` parentheses.
fn sql_nested(depth: usize) -> String {
    format!(
        "SELECT l.beer FROM Likes l WHERE {}",
        parens(depth, "l.beer = 'x'")
    )
}

/// `operands` existentially quantified `Likes` atoms joined by `op`. Each
/// operand nests one level (its quantified variable) and each extra one
/// adds a level: `operands` levels in all.
fn drc_chain(op: &str, operands: usize) -> String {
    let body = (0..operands)
        .map(|i| format!("exists d{i} Likes(d{i}, b1)"))
        .collect::<Vec<_>>()
        .join(&format!(" {op} "));
    format!("{{ (b1) | {body} }}")
}

/// `operands` copies of one comparison joined by `op`: `operands - 1`
/// levels.
fn sql_chain(op: &str, operands: usize) -> String {
    let body = vec!["l.drinker = 'x'"; operands].join(&format!(" {op} "));
    format!("SELECT l.beer FROM Likes l WHERE {body}")
}

fn assert_nesting_error(r: Result<Query, cqi::drc::QueryError>, shape: &str) {
    match r {
        Err(e) => assert!(e.to_string().contains("nests deeper"), "{shape}: {e}"),
        Ok(_) => panic!("{shape}: {HOSTILE}-deep input must be rejected"),
    }
}

#[test]
fn hostile_drc_nesting_is_a_query_error() {
    let s = schema();
    assert_nesting_error(parse_query(&s, &drc_nested(HOSTILE)), "drc parentheses");
    let nots = format!(
        "{{ (b1) | {}exists d1 Likes(d1, b1) }}",
        "not ".repeat(HOSTILE)
    );
    assert_nesting_error(parse_query(&s, &nots), "drc not prefixes");
    let mut exists = String::from("{ (b1) | ");
    for i in 0..HOSTILE {
        exists += &format!("exists d{i} (Likes(d{i}, b1) and ");
    }
    exists += &format!("Likes(d0, b1){} }}", ")".repeat(HOSTILE));
    assert_nesting_error(parse_query(&s, &exists), "drc nested exists");
    let wide = (0..HOSTILE)
        .map(|i| format!("d{i}"))
        .collect::<Vec<_>>()
        .join(", ");
    let wide = format!("{{ (b1) | exists {wide} . Likes(d0, b1) }}");
    assert_nesting_error(parse_query(&s, &wide), "drc quantified variables");
}

#[test]
fn hostile_sql_nesting_is_a_query_error() {
    let s = schema();
    assert_nesting_error(sql_to_drc(&s, &sql_nested(HOSTILE)), "sql parentheses");
    let nots = format!(
        "SELECT l.beer FROM Likes l WHERE {}l.beer = 'x'",
        "NOT ".repeat(HOSTILE)
    );
    assert_nesting_error(sql_to_drc(&s, &nots), "sql NOT prefixes");
    let mut exists = String::from("SELECT l0.beer FROM Likes l0 WHERE ");
    for i in 1..HOSTILE {
        exists += &format!(
            "EXISTS (SELECT * FROM Likes l{i} WHERE l{i}.beer = l{}.beer AND ",
            i - 1
        );
    }
    exists += &format!("l0.drinker = 'x'{}", ")".repeat(HOSTILE - 1));
    assert_nesting_error(sql_to_drc(&s, &exists), "sql nested EXISTS");
}

#[test]
fn the_bound_is_exact_and_explains_at_the_limit() {
    let s = schema();
    let session = Session::new(Arc::clone(&s)).config(ChaseConfig::with_limit(4));
    for req in [
        ExplainRequest::drc(&drc_nested(MAX_NESTING_DEPTH)),
        ExplainRequest::sql(&sql_nested(MAX_NESTING_DEPTH)),
    ] {
        let sol = session
            .explain(req)
            .expect("a query at the bound compiles")
            .collect();
        assert!(sol.interrupted.is_none());
        assert!(
            !sol.instances.is_empty(),
            "a query at the bound must explain"
        );
    }
    assert!(session
        .explain(ExplainRequest::drc(&drc_nested(MAX_NESTING_DEPTH + 1)))
        .is_err());
    assert!(session
        .explain(ExplainRequest::sql(&sql_nested(MAX_NESTING_DEPTH + 1)))
        .is_err());
}

#[test]
fn hostile_and_or_chains_are_a_query_error() {
    let s = schema();
    let session = Session::new(Arc::clone(&s)).config(ChaseConfig::with_limit(4));
    for op in ["and", "or"] {
        let drc = drc_chain(op, HOSTILE);
        assert_nesting_error(parse_query(&s, &drc), &format!("drc {op} chain"));
        assert!(session.explain(ExplainRequest::drc(&drc)).is_err());
    }
    for op in ["AND", "OR"] {
        let sql = sql_chain(op, HOSTILE);
        assert_nesting_error(sql_to_drc(&s, &sql), &format!("sql {op} chain"));
        assert!(session.explain_collect(ExplainRequest::sql(&sql)).is_err());
    }
}

/// A chain exactly at the bound compiles and one level more does not.
/// Only `and` chains are explained: the chase expands every `or` node into
/// its three conjunctive cases, so a bound-long `or` chain is exponential
/// work however shallow its tree.
#[test]
fn chains_explain_at_the_bound() {
    let s = schema();
    for op in ["and", "or"] {
        assert!(parse_query(&s, &drc_chain(op, MAX_NESTING_DEPTH)).is_ok());
        assert_nesting_error(
            parse_query(&s, &drc_chain(op, MAX_NESTING_DEPTH + 1)),
            &format!("drc {op} chain past the bound"),
        );
    }
    for op in ["AND", "OR"] {
        assert!(sql_to_drc(&s, &sql_chain(op, MAX_NESTING_DEPTH + 1)).is_ok());
        assert_nesting_error(
            sql_to_drc(&s, &sql_chain(op, MAX_NESTING_DEPTH + 2)),
            &format!("sql {op} chain past the bound"),
        );
    }
    let session = Session::new(Arc::clone(&s)).config(ChaseConfig::with_limit(4));
    for req in [
        ExplainRequest::drc(&drc_chain("and", MAX_NESTING_DEPTH)),
        ExplainRequest::sql(&sql_chain("AND", MAX_NESTING_DEPTH + 1)),
    ] {
        let sol = session
            .explain(req)
            .expect("a chain at the bound compiles")
            .collect();
        assert!(sol.interrupted.is_none());
        assert!(
            !sol.instances.is_empty(),
            "a chain at the bound must explain"
        );
    }
}
