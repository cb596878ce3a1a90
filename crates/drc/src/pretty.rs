//! Pretty-printing of queries back to the text syntax (round-trippable
//! through the parser, used by the examples and the case-study output).

use std::fmt::Write;

use crate::ast::{Atom, Formula, Query, Term};

/// Renders a query in the `{ (out) | formula }` text syntax.
pub fn query_to_string(q: &Query) -> String {
    let mut s = String::from("{ (");
    for (i, v) in q.out_vars.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(q.var_name(*v));
    }
    s.push_str(") | ");
    write_formula(q, &q.formula, &mut s);
    s.push_str(" }");
    s
}

/// Renders one atom.
pub fn atom_to_string(q: &Query, a: &Atom) -> String {
    let mut s = String::new();
    write_atom(q, a, &mut s);
    s
}

fn write_term(q: &Query, t: &Term, out: &mut String) {
    match t {
        Term::Var(v) => out.push_str(q.var_name(*v)),
        Term::Const(c) => {
            let _ = write!(out, "{c}");
        }
        Term::Wildcard => out.push('*'),
    }
}

fn write_atom(q: &Query, a: &Atom, out: &mut String) {
    match a {
        Atom::Rel {
            negated,
            rel,
            terms,
        } => {
            if *negated {
                out.push_str("not ");
            }
            out.push_str(&q.schema.relation(*rel).name);
            out.push('(');
            for (i, t) in terms.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_term(q, t, out);
            }
            out.push(')');
        }
        Atom::Cmp {
            negated,
            lhs,
            op,
            rhs,
        } => {
            if *negated {
                out.push_str("not (");
            }
            write_term(q, lhs, out);
            let _ = write!(out, " {} ", op.symbol());
            write_term(q, rhs, out);
            if *negated {
                out.push(')');
            }
        }
    }
}

fn prec(f: &Formula) -> u8 {
    match f {
        Formula::Or(..) => 0,
        Formula::And(..) => 1,
        Formula::Exists(..) | Formula::Forall(..) => 2,
        Formula::Atom(_) => 3,
    }
}

fn write_child(q: &Query, child: &Formula, parent_prec: u8, out: &mut String) {
    if prec(child) < parent_prec {
        out.push('(');
        write_formula(q, child, out);
        out.push(')');
    } else {
        write_formula(q, child, out);
    }
}

fn write_formula(q: &Query, f: &Formula, out: &mut String) {
    match f {
        Formula::Atom(a) => write_atom(q, a, out),
        Formula::And(l, r) => {
            write_child(q, l, 1, out);
            out.push_str(" and ");
            write_child(q, r, 2, out);
        }
        Formula::Or(l, r) => {
            write_child(q, l, 0, out);
            out.push_str(" or ");
            write_child(q, r, 1, out);
        }
        Formula::Exists(v, b) => {
            let _ = write!(out, "exists {} (", q.var_name(*v));
            write_formula(q, b, out);
            out.push(')');
        }
        Formula::Forall(v, b) => {
            let _ = write!(out, "forall {} (", q.var_name(*v));
            write_formula(q, b, out);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use cqi_schema::{DomainType, Schema};
    use std::sync::Arc;

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
    fn round_trip_through_parser() {
        let src = "{ (x1, b1) | exists p1 (Serves(x1, b1, p1) and forall x2, p2 (not Serves(x2, b1, p2) or p2 <= p1)) }";
        let s = schema();
        let q1 = parse_query(&s, src).unwrap();
        let printed = query_to_string(&q1);
        let q2 = parse_query(&s, &printed).unwrap();
        assert_eq!(
            format!("{:?}", q1.formula),
            format!("{:?}", q2.formula),
            "printed form must re-parse to the same tree:\n{printed}"
        );
    }

    #[test]
    fn round_trip_with_like_and_wildcard() {
        let src = "{ (b1) | exists d1 (Likes(d1, b1) and d1 like 'Eve %' and exists x1 (Serves(x1, b1, *))) }";
        let s = schema();
        let q1 = parse_query(&s, src).unwrap();
        let printed = query_to_string(&q1);
        let q2 = parse_query(&s, &printed).unwrap();
        assert_eq!(format!("{:?}", q1.formula), format!("{:?}", q2.formula));
    }

    #[test]
    fn negated_like_prints_with_not() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists d1 (Likes(d1, b1) and not (d1 like 'Eve%')) }",
        )
        .unwrap();
        let printed = query_to_string(&q);
        assert!(printed.contains("not (d1 like 'Eve%')"), "{printed}");
        let q2 = parse_query(&s, &printed).unwrap();
        assert_eq!(format!("{:?}", q.formula), format!("{:?}", q2.formula));
    }
}
