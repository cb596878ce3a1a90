//! Human-readable rendering of instances, mirroring the paper's figures:
//! one small table per relation plus the global condition.

use std::fmt;
use std::fmt::Write as _;

use cqi_solver::{Ent, Lit};

use crate::cinstance::{CInstance, Cond};
use crate::ground::GroundInstance;

impl CInstance {
    fn ent_name(&self, e: &Ent) -> String {
        match e {
            Ent::Null(n) => {
                let info = self.null_info(*n);
                if info.dont_care {
                    "*".to_owned()
                } else {
                    info.name.clone()
                }
            }
            Ent::Const(v) => v.to_string(),
        }
    }

    fn lit_string(&self, l: &Lit) -> String {
        match l {
            Lit::Cmp { lhs, op, rhs } => format!(
                "{} {} {}",
                self.ent_name(lhs),
                op.symbol(),
                self.ent_name(rhs)
            ),
            Lit::Like {
                negated,
                ent,
                pattern,
            } => {
                if *negated {
                    format!("not ({} like '{}')", self.ent_name(ent), pattern)
                } else {
                    format!("{} like '{}'", self.ent_name(ent), pattern)
                }
            }
        }
    }

    /// Renders one atomic condition.
    pub fn cond_string(&self, c: &Cond) -> String {
        match c {
            Cond::Lit(l) => self.lit_string(l),
            Cond::NotIn { rel, tuple } => {
                let cells: Vec<String> = tuple.iter().map(|e| self.ent_name(e)).collect();
                format!(
                    "not {}({})",
                    self.schema.relation(*rel).name,
                    cells.join(", ")
                )
            }
        }
    }

    /// The global condition as a single `∧`-joined string.
    pub fn global_string(&self) -> String {
        if self.global.is_empty() {
            return "true".to_owned();
        }
        self.global
            .iter()
            .map(|c| self.cond_string(c))
            .collect::<Vec<_>>()
            .join(" and ")
    }
}

impl fmt::Display for CInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (ri, rows) in self.tables.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let rel = &self.schema.relations()[ri];
            let header: Vec<&str> = rel.attrs.iter().map(|a| a.name.as_str()).collect();
            let body: Vec<Vec<String>> = rows
                .iter()
                .map(|row| row.iter().map(|e| self.ent_name(e)).collect())
                .collect();
            write_table(f, &rel.name, &header, &body)?;
        }
        writeln!(f, "  condition: {}", self.global_string())
    }
}

impl fmt::Display for GroundInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (ri, rel) in self.schema.relations().iter().enumerate() {
            let rid = cqi_schema::RelId(ri as u32);
            let rows: Vec<Vec<String>> = self
                .rows(rid)
                .map(|row| row.iter().map(|v| v.to_string()).collect())
                .collect();
            if rows.is_empty() {
                continue;
            }
            let header: Vec<&str> = rel.attrs.iter().map(|a| a.name.as_str()).collect();
            write_table(f, &rel.name, &header, &rows)?;
        }
        Ok(())
    }
}

fn write_table(
    f: &mut fmt::Formatter<'_>,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> fmt::Result {
    let cols = header.len();
    let mut width = vec![0usize; cols];
    for (i, hdr) in header.iter().enumerate() {
        width[i] = hdr.chars().count();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.chars().count());
        }
    }
    let mut line = String::new();
    let _ = write!(line, "  {name}:");
    writeln!(f, "{line}")?;
    let fmt_row = |cells: &[String]| -> String {
        let mut s = String::from("    | ");
        for (i, c) in cells.iter().enumerate() {
            let pad = width[i] - c.chars().count();
            s.push_str(c);
            s.push_str(&" ".repeat(pad));
            s.push_str(" | ");
        }
        s.trim_end().to_owned()
    };
    let hdr: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    writeln!(f, "{}", fmt_row(&hdr))?;
    for row in rows {
        writeln!(f, "{}", fmt_row(row))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_schema::{DomainType, Schema, Value};
    use cqi_solver::SolverOp;
    use std::sync::Arc;

    #[test]
    fn renders_tables_and_condition() {
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
        let out = inst.to_string();
        assert!(out.contains("Serves:"), "{out}");
        assert!(out.contains("p1 > p2"), "{out}");
        assert!(out.contains("not Serves(x1, b1, p2)"), "{out}");
    }

    #[test]
    fn dont_care_renders_star() {
        let s = Arc::new(
            Schema::builder()
                .relation(
                    "Bar",
                    &[("name", DomainType::Text), ("addr", DomainType::Text)],
                )
                .build()
                .unwrap(),
        );
        let mut inst = CInstance::new(Arc::clone(&s));
        let bar = s.rel_id("Bar").unwrap();
        let x = inst.fresh_null("x1", s.attr_domain(bar, 0));
        let dc = inst.fresh_dont_care(s.attr_domain(bar, 1));
        inst.add_tuple(bar, vec![x.into(), dc.into()]);
        let out = inst.to_string();
        assert!(out.contains("| x1   | *"), "{out}");
    }

    #[test]
    fn ground_instance_display() {
        let s = Arc::new(
            Schema::builder()
                .relation(
                    "Bar",
                    &[("name", DomainType::Text), ("addr", DomainType::Text)],
                )
                .build()
                .unwrap(),
        );
        let mut g = GroundInstance::new(Arc::clone(&s));
        g.insert_named("Bar", &[Value::str("Tadim"), Value::str("082 Julia")]);
        let out = g.to_string();
        assert!(out.contains("'Tadim'"), "{out}");
    }
}
