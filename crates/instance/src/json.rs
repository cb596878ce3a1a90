//! Serde-free JSON rendering of instances for service responses.
//!
//! The streaming explanation API (`cqi::Session`) hands c-instances to
//! HTTP-ish consumers as they are accepted; this module renders one
//! instance as a self-contained JSON object without pulling a
//! serialization dependency into the workspace. Cells reuse the display
//! conventions of the paper's figures: labeled nulls by name, don't-care
//! nulls as `*`, constants via their `Display` form (strings quoted
//! SQL-style).

use std::fmt::Write as _;

use cqi_solver::Ent;

use crate::cinstance::CInstance;
use crate::ground::GroundInstance;

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

impl CInstance {
    /// Renders one JSON cell: `{"null": "p1"}`, `{"null": "*"}` for a
    /// don't-care, or `{"const": "2.25"}`.
    fn ent_json(&self, e: &Ent) -> String {
        match e {
            Ent::Null(n) => {
                let info = self.null_info(*n);
                if info.dont_care {
                    "{\"null\": \"*\"}".to_owned()
                } else {
                    format!("{{\"null\": {}}}", json_str(&info.name))
                }
            }
            Ent::Const(v) => format!("{{\"const\": {}}}", json_str(&v.to_string())),
        }
    }

    /// The whole c-instance as one JSON object:
    ///
    /// ```json
    /// {
    ///   "size": 3,
    ///   "nulls": ["x1", "b1", "p1"],
    ///   "tables": [{"relation": "Serves", "columns": ["bar","beer","price"],
    ///               "rows": [[{"null":"x1"}, {"null":"b1"}, {"null":"p1"}]]}],
    ///   "condition": ["p1 > 2.5"]
    /// }
    /// ```
    ///
    /// Empty tables are omitted; `condition` holds each atomic condition
    /// in its display rendering (see [`CInstance::cond_string`]).
    pub fn to_json(&self) -> String {
        let nulls: Vec<String> = self
            .nulls
            .iter()
            .filter(|n| !n.dont_care)
            .map(|n| json_str(&n.name))
            .collect();
        let mut tables: Vec<String> = Vec::new();
        for (ri, rows) in self.tables.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let rel = &self.schema.relations()[ri];
            let cols: Vec<String> = rel.attrs.iter().map(|a| json_str(&a.name)).collect();
            let body: Vec<String> = rows
                .iter()
                .map(|row| {
                    let cells: Vec<String> = row.iter().map(|e| self.ent_json(e)).collect();
                    format!("[{}]", cells.join(", "))
                })
                .collect();
            tables.push(format!(
                "{{\"relation\": {}, \"columns\": [{}], \"rows\": [{}]}}",
                json_str(&rel.name),
                cols.join(", "),
                body.join(", ")
            ));
        }
        let conds: Vec<String> = self
            .global
            .iter()
            .map(|c| json_str(&self.cond_string(c)))
            .collect();
        format!(
            "{{\"size\": {}, \"nulls\": [{}], \"tables\": [{}], \"condition\": [{}]}}",
            self.size(),
            nulls.join(", "),
            tables.join(", "),
            conds.join(", ")
        )
    }
}

impl GroundInstance {
    /// A ground instance as JSON: constants only, same table layout as
    /// [`CInstance::to_json`].
    pub fn to_json(&self) -> String {
        let mut tables: Vec<String> = Vec::new();
        for (ri, rel) in self.schema.relations().iter().enumerate() {
            let rid = cqi_schema::RelId(ri as u32);
            let rows: Vec<String> = self
                .rows(rid)
                .map(|row| {
                    let cells: Vec<String> = row.iter().map(|v| json_str(&v.to_string())).collect();
                    format!("[{}]", cells.join(", "))
                })
                .collect();
            if rows.is_empty() {
                continue;
            }
            let cols: Vec<String> = rel.attrs.iter().map(|a| json_str(&a.name)).collect();
            tables.push(format!(
                "{{\"relation\": {}, \"columns\": [{}], \"rows\": [{}]}}",
                json_str(&rel.name),
                cols.join(", "),
                rows.join(", ")
            ));
        }
        format!("{{\"tables\": [{}]}}", tables.join(", "))
    }
}

/// A minimal structural well-formedness check used by the test suites (no
/// serde in the workspace): balanced `{}`/`[]` outside string literals and
/// valid escape structure inside them.
pub fn json_well_formed(s: &str) -> bool {
    let mut depth: Vec<char> = Vec::new();
    let mut chars = s.chars();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' if chars.next().is_none() => return false,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth.push('}'),
            '[' => depth.push(']'),
            '}' | ']' if depth.pop() != Some(c) => return false,
            _ => {}
        }
    }
    depth.is_empty() && !in_str
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cinstance::Cond;
    use cqi_schema::{DomainType, Schema};
    use cqi_solver::{Lit, SolverOp};
    use std::sync::Arc;

    #[test]
    fn cinstance_json_contains_tables_and_conditions() {
        let s = Arc::new(
            Schema::builder()
                .relation(
                    "Serves",
                    &[
                        ("bar", DomainType::Text),
                        ("beer", DomainType::Text),
                        ("price", DomainType::Real),
                    ],
                )
                .build()
                .unwrap(),
        );
        let mut inst = CInstance::new(Arc::clone(&s));
        let serves = s.rel_id("Serves").unwrap();
        let x1 = inst.fresh_null("x1", s.attr_domain(serves, 0));
        let b1 = inst.fresh_null("b1", s.attr_domain(serves, 1));
        let p1 = inst.fresh_null("p1", s.attr_domain(serves, 2));
        let p2 = inst.fresh_null("p2", s.attr_domain(serves, 2));
        inst.add_tuple(serves, vec![x1.into(), b1.into(), p1.into()]);
        inst.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Gt, p2)));
        inst.add_cond(Cond::NotIn {
            rel: serves,
            tuple: vec![x1.into(), b1.into(), p2.into()],
        });
        let j = inst.to_json();
        assert!(json_well_formed(&j), "{j}");
        assert!(j.contains("\"relation\": \"Serves\""), "{j}");
        assert!(j.contains("{\"null\": \"p1\"}"), "{j}");
        assert!(j.contains("\"p1 > p2\""), "{j}");
        assert!(j.contains("not Serves(x1, b1, p2)"), "{j}");
        assert!(j.contains("\"size\": 3"), "{j}");
    }

    #[test]
    fn escaping_handles_quotes_and_newlines() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert!(json_well_formed("{\"k\": \"a\\\"}{[\"}"));
        assert!(!json_well_formed("{\"k\": ["));
        assert!(!json_well_formed("{]}"));
    }
}
