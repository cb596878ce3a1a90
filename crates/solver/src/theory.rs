//! The conjunction decider: equality saturation (union-find) feeding the
//! numeric [`crate::order`] and text [`crate::strings`] engines.
//!
//! [`check_conj`] *asserts* the literals one by one into a saturation
//! state (interning nodes, unioning equalities, accumulating
//! order/disequality/LIKE constraints), then runs the class-level analysis
//! over everything asserted, once and cold.

use std::collections::HashMap;

use cqi_schema::{DomainType, Value};

use crate::cond::{Lit, SolverOp};
use crate::ent::Ent;
use crate::model::Model;
use crate::order::{solve_order_untraced, OrderEdge, OrderProblem};
use crate::strings::{solve_text, TextProblem};
use crate::unionfind::UnionFind;

/// The coarse kind of a node/class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Num,
    Text,
}

fn kind_of_type(t: DomainType) -> Kind {
    match t {
        DomainType::Int | DomainType::Real => Kind::Num,
        DomainType::Text => Kind::Text,
    }
}

/// Saturated conjunction state: interned nodes (nulls and constants), a
/// union-find over asserted equalities, and the accumulated order edges,
/// disequalities, and LIKE constraints.
#[derive(Debug)]
struct Saturation {
    /// Domain type per labeled null; null `i` is node `i` (constants are
    /// appended after the nulls).
    types: Vec<DomainType>,
    /// Constant interning table. The first few constants live in a linear
    /// vector: typical chase conjunctions carry a handful of constants, and
    /// keeping them inline means a check never allocates a hash table.
    /// Beyond the inline capacity (instance-level workloads intern every
    /// table value) lookups spill to the map.
    const_small: Vec<(Value, usize)>,
    const_nodes: HashMap<Value, usize>,
    node_const: Vec<Option<Value>>,
    node_kind: Vec<Kind>,
    node_int: Vec<bool>,
    uf: UnionFind,
    /// `(a, b, strict)` meaning `a < b` (strict) or `a ≤ b`.
    lt_edges: Vec<(usize, usize, bool)>,
    neqs: Vec<(usize, usize)>,
    likes: Vec<(usize, bool, String)>,
}

impl Saturation {
    fn new(types: &[DomainType]) -> Saturation {
        let n = types.len();
        Saturation {
            types: types.to_vec(),
            const_small: Vec::new(),
            const_nodes: HashMap::new(),
            node_const: vec![None; n],
            node_kind: types.iter().map(|t| kind_of_type(*t)).collect(),
            node_int: types.iter().map(|t| *t == DomainType::Int).collect(),
            uf: UnionFind::new(n),
            lt_edges: Vec::new(),
            neqs: Vec::new(),
            likes: Vec::new(),
        }
    }

    fn intern(&mut self, e: &Ent) -> usize {
        match e {
            Ent::Null(id) => id.index(),
            Ent::Const(v) => {
                if let Some((_, idx)) = self.const_small.iter().find(|(c, _)| c == v) {
                    return *idx;
                }
                if let Some(idx) = self.const_nodes.get(v) {
                    return *idx;
                }
                let idx = self.uf.push();
                if self.const_small.len() < 8 {
                    self.const_small.push((v.clone(), idx));
                } else {
                    self.const_nodes.insert(v.clone(), idx);
                }
                self.node_const.push(Some(v.clone()));
                self.node_kind.push(kind_of_type(v.domain_type()));
                self.node_int.push(false); // a constant does not force integrality
                idx
            }
        }
    }

    /// Asserts one literal. Returns `false` when the literal (or its
    /// interaction with node kinds) is refuted outright — the state is then
    /// definitively unsatisfiable. Type-mismatched comparisons (number vs
    /// text) are unsatisfiable rather than errors: they can arise
    /// transiently inside DPLL branches.
    fn assert_lit(&mut self, lit: &Lit) -> bool {
        match lit {
            Lit::Cmp { lhs, op, rhs } => {
                // Constant folding.
                if let (Ent::Const(a), Ent::Const(b)) = (lhs, rhs) {
                    return matches!(op.eval(a, b), Some(true)); // false or incomparable types refute
                }
                let a = self.intern(lhs);
                let b = self.intern(rhs);
                if self.node_kind[a] != self.node_kind[b] {
                    return false; // comparing text with number
                }
                match op {
                    SolverOp::Eq => {
                        self.uf.union(a, b);
                    }
                    SolverOp::Ne => self.neqs.push((a, b)),
                    SolverOp::Lt => self.lt_edges.push((a, b, true)),
                    SolverOp::Le => self.lt_edges.push((a, b, false)),
                    SolverOp::Gt => self.lt_edges.push((b, a, true)),
                    SolverOp::Ge => self.lt_edges.push((b, a, false)),
                }
                true
            }
            Lit::Like {
                negated,
                ent,
                pattern,
            } => match ent {
                Ent::Const(v) => match v {
                    Value::Str(s) => crate::nfa::like_match(pattern, s) != *negated,
                    _ => false, // LIKE on a number
                },
                Ent::Null(_) => {
                    let a = self.intern(ent);
                    if self.node_kind[a] != Kind::Text {
                        return false;
                    }
                    self.likes.push((a, *negated, pattern.clone()));
                    true
                }
            },
        }
    }

    /// Runs the class-level analysis over everything asserted so far:
    /// equality classes, clash detection, numeric/text split, and the
    /// [`crate::order`]/[`crate::strings`] engines; assembles a per-null
    /// model on success.
    #[allow(clippy::needless_range_loop)] // node/class index arithmetic
    fn solve(&mut self) -> Option<Model> {
        let total = self.uf.len();
        let (class_of, num_classes) = self.uf.classes();

        // Per-class attributes; detect clashes.
        let mut class_pin: Vec<Option<Value>> = vec![None; num_classes];
        let mut class_kind: Vec<Option<Kind>> = vec![None; num_classes];
        let mut class_int: Vec<bool> = vec![false; num_classes];
        for node in 0..total {
            let c = class_of[node];
            match class_kind[c] {
                None => class_kind[c] = Some(self.node_kind[node]),
                Some(k) if k != self.node_kind[node] => return None, // text = number
                _ => {}
            }
            if self.node_int[node] {
                class_int[c] = true;
            }
            if let Some(v) = &self.node_const[node] {
                match &class_pin[c] {
                    None => class_pin[c] = Some(v.clone()),
                    Some(prev) => {
                        // Two constants merged: equal is fine (same node by
                        // interning), numerically-equal Int/Real also fine.
                        if prev.try_cmp(v) != Some(std::cmp::Ordering::Equal) {
                            return None;
                        }
                    }
                }
            }
        }

        // Disequalities inside one class are immediately unsatisfiable.
        for &(a, b) in &self.neqs {
            if class_of[a] == class_of[b] {
                return None;
            }
        }

        // Split classes into numeric and text subproblems.
        let mut num_idx: Vec<Option<usize>> = vec![None; num_classes];
        let mut text_idx: Vec<Option<usize>> = vec![None; num_classes];
        let mut num_classes_list: Vec<usize> = Vec::new();
        let mut text_classes_list: Vec<usize> = Vec::new();
        for c in 0..num_classes {
            match class_kind[c] {
                Some(Kind::Num) | None => {
                    num_idx[c] = Some(num_classes_list.len());
                    num_classes_list.push(c);
                }
                Some(Kind::Text) => {
                    text_idx[c] = Some(text_classes_list.len());
                    text_classes_list.push(c);
                }
            }
        }

        let mut op_num = OrderProblem::new(num_classes_list.len());
        for (i, &c) in num_classes_list.iter().enumerate() {
            op_num.int_class[i] = class_int[c];
            op_num.pinned[i] = class_pin[c].as_ref().and_then(|v| v.as_f64());
        }
        let mut op_text = TextProblem::new(text_classes_list.len());
        for (i, &c) in text_classes_list.iter().enumerate() {
            op_text.pinned[i] = class_pin[c].as_ref().and_then(|v| match v {
                Value::Str(s) => Some(s.to_string()),
                _ => None,
            });
        }

        for &(a, b, strict) in &self.lt_edges {
            let (ca, cb) = (class_of[a], class_of[b]);
            match (num_idx[ca], num_idx[cb]) {
                (Some(i), Some(j)) => {
                    if strict && i == j {
                        return None; // x < x
                    }
                    op_num.edges.push(OrderEdge {
                        from: i,
                        to: j,
                        strict,
                    });
                }
                _ => match (text_idx[ca], text_idx[cb]) {
                    (Some(i), Some(j)) => {
                        if strict && i == j {
                            return None;
                        }
                        op_text.edges.push(OrderEdge {
                            from: i,
                            to: j,
                            strict,
                        });
                    }
                    _ => return None, // mixed kinds (already guarded, defensive)
                },
            }
        }
        for &(a, b) in &self.neqs {
            let (ca, cb) = (class_of[a], class_of[b]);
            match (num_idx[ca], num_idx[cb]) {
                (Some(i), Some(j)) => op_num.neqs.push((i, j)),
                _ => {
                    if let (Some(i), Some(j)) = (text_idx[ca], text_idx[cb]) {
                        op_text.neqs.push((i, j));
                    }
                    // number ≠ text holds vacuously
                }
            }
        }
        for (a, neg, pat) in &self.likes {
            let c = class_of[*a];
            match text_idx[c] {
                Some(i) => op_text.likes[i].push((*neg, pat.clone())),
                None => return None,
            }
        }

        // Solve both sides.
        let num_vals = solve_order_untraced(&op_num)?;
        let text_vals = solve_text(&op_text)?;

        // Assemble the per-null model.
        let n = self.types.len();
        let mut values: Vec<Option<Value>> = vec![None; n];
        for null in 0..n {
            let c = class_of[null];
            let v = if let Some(i) = num_idx[c] {
                let x = num_vals[i];
                if self.types[null] == DomainType::Int {
                    Value::Int(x as i64)
                } else {
                    Value::real(x)
                }
            } else if let Some(i) = text_idx[c] {
                Value::str(&text_vals[i])
            } else {
                continue;
            };
            values[null] = Some(v);
        }

        Some(Model::new(values))
    }
}

/// Decides a pure conjunction of literals; returns a model on success.
///
/// `types[n]` gives each null's domain type. Type-mismatched comparisons
/// (number vs text) are unsatisfiable rather than errors: they can arise
/// transiently inside DPLL branches.
pub fn check_conj(types: &[DomainType], lits: &[Lit]) -> Option<Model> {
    let _s = cqi_obs::trace::span("check_conj", "solver");
    let mut sat = Saturation::new(types);
    for lit in lits {
        if !sat.assert_lit(lit) {
            return None;
        }
    }
    sat.solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ent::NullId;

    fn nulls(spec: &[DomainType]) -> Vec<DomainType> {
        spec.to_vec()
    }

    fn n(i: u32) -> NullId {
        NullId(i)
    }

    #[test]
    fn price_chain_sat_with_model() {
        // p1 > p2 ∧ p2 > p3 — the running example's I0 condition.
        let types = nulls(&[DomainType::Real; 3]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Gt, n(1)),
            Lit::cmp(n(1), SolverOp::Gt, n(2)),
        ];
        let m = check_conj(&types, &lits).unwrap();
        let (p1, p2, p3) = (
            m.get(n(0)).unwrap().as_f64().unwrap(),
            m.get(n(1)).unwrap().as_f64().unwrap(),
            m.get(n(2)).unwrap().as_f64().unwrap(),
        );
        assert!(p1 > p2 && p2 > p3);
    }

    #[test]
    fn contradiction_detected_through_equality() {
        let types = nulls(&[DomainType::Real; 3]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, n(1)),
            Lit::cmp(n(1), SolverOp::Eq, n(2)),
            Lit::cmp(n(0), SolverOp::Lt, n(2)),
        ];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn constants_pin_values() {
        let types = nulls(&[DomainType::Real]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Gt, Value::real(2.25)),
            Lit::cmp(n(0), SolverOp::Lt, Value::real(2.75)),
        ];
        let m = check_conj(&types, &lits).unwrap();
        let v = m.get(n(0)).unwrap().as_f64().unwrap();
        assert!(v > 2.25 && v < 2.75);
    }

    #[test]
    fn equal_to_two_different_constants_unsat() {
        let types = nulls(&[DomainType::Text]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, Value::str("a")),
            Lit::cmp(n(0), SolverOp::Eq, Value::str("b")),
        ];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn int_real_equal_constants_ok() {
        let types = nulls(&[DomainType::Real]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, Value::Int(3)),
            Lit::cmp(n(0), SolverOp::Eq, Value::real(3.0)),
        ];
        assert!(check_conj(&types, &lits).is_some());
    }

    #[test]
    fn text_number_comparison_unsat() {
        let types = nulls(&[DomainType::Text, DomainType::Int]);
        let lits = vec![Lit::cmp(n(0), SolverOp::Lt, n(1))];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn like_with_order_and_equality() {
        // d1 = d2, d1 LIKE 'Eve%', ¬(d2 LIKE 'Eve %') — satisfiable
        // ("EveX"), the heart of the paper's Q1 case study.
        let types = nulls(&[DomainType::Text, DomainType::Text]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, n(1)),
            Lit::like(n(0), "Eve%"),
            Lit::not_like(n(1), "Eve %"),
        ];
        let m = check_conj(&types, &lits).unwrap();
        let s = match m.get(n(0)).unwrap() {
            Value::Str(s) => s.clone(),
            other => panic!("expected string, got {other}"),
        };
        assert!(s.starts_with("Eve") && !s.starts_with("Eve "));
    }

    #[test]
    fn like_conflict_through_equality() {
        let types = nulls(&[DomainType::Text, DomainType::Text]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, n(1)),
            Lit::like(n(0), "Eve %"),
            Lit::not_like(n(1), "Eve%"),
        ];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn int_window_unsat() {
        let types = nulls(&[DomainType::Int]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Gt, Value::Int(2)),
            Lit::cmp(n(0), SolverOp::Lt, Value::Int(3)),
        ];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn constant_folding() {
        let types = nulls(&[]);
        assert!(check_conj(
            &types,
            &[Lit::cmp(Value::Int(1), SolverOp::Lt, Value::Int(2))]
        )
        .is_some());
        assert!(check_conj(
            &types,
            &[Lit::cmp(Value::Int(2), SolverOp::Lt, Value::Int(1))]
        )
        .is_none());
        assert!(check_conj(&types, &[Lit::like(Value::str("Eve E"), "Eve %")]).is_some());
        assert!(check_conj(&types, &[Lit::not_like(Value::str("Eve E"), "Eve%")]).is_none());
    }

    #[test]
    fn ne_to_constant() {
        let types = nulls(&[DomainType::Text]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, Value::str("Edge")),
            Lit::cmp(n(0), SolverOp::Ne, Value::str("Edge")),
        ];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn empty_conjunction_sat() {
        assert!(check_conj(&[], &[]).is_some());
    }

    #[test]
    fn date_integers() {
        // TPC-H style: 19930701 ≤ d < 19931001.
        let types = nulls(&[DomainType::Int]);
        let lits = vec![
            Lit::cmp(Value::Int(19930701), SolverOp::Le, n(0)),
            Lit::cmp(n(0), SolverOp::Lt, Value::Int(19931001)),
        ];
        let m = check_conj(&types, &lits).unwrap();
        match m.get(n(0)).unwrap() {
            Value::Int(d) => assert!((19930701..19931001).contains(d)),
            other => panic!("expected int, got {other}"),
        }
    }
}
