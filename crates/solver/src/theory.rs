//! The conjunction decider: equality saturation (union-find) feeding the
//! numeric [`crate::order`] and text [`crate::strings`] engines.
//!
//! [`check_conj`] *asserts* the literals one by one into a saturation
//! state (interning nodes, unioning equalities, accumulating
//! order/disequality/LIKE constraints), then runs the class-level analysis
//! over everything asserted, once and cold. Only the nulls the literals
//! mention become nodes. Every other null is a class no constraint
//! touches, and it gets the value the engines give such a class: the text
//! engine's first plain candidate, or the order engine's base floor, which
//! counts those classes ([`OrderProblem::untouched`]).

use std::collections::HashMap;
use std::sync::OnceLock;

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

/// The node-map entry of a null that is not a node.
const UNTOUCHED: u32 = u32::MAX;

/// What the text engine gives a class no constraint touches: its first
/// plain candidate, interned once.
fn untouched_text() -> Value {
    static FIRST: OnceLock<Value> = OnceLock::new();
    FIRST.get_or_init(|| Value::str("a")).clone()
}

/// Saturated conjunction state: interned nodes (nulls and constants), a
/// union-find over asserted equalities, and the accumulated order edges,
/// disequalities, and LIKE constraints.
#[derive(Debug)]
struct Saturation<'a> {
    /// Domain type per labeled null.
    types: &'a [DomainType],
    /// `node_of[n]` is null `n`'s node, or [`UNTOUCHED`]. Null nodes come
    /// first; constants are appended after them.
    node_of: &'a [u32],
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

impl<'a> Saturation<'a> {
    fn new(types: &'a [DomainType], node_of: &'a [u32]) -> Saturation<'a> {
        let n = node_of.iter().filter(|&&node| node != UNTOUCHED).count();
        let mut node_kind = vec![Kind::Num; n];
        let mut node_int = vec![false; n];
        for (t, &node) in types.iter().zip(node_of) {
            if node != UNTOUCHED {
                node_kind[node as usize] = kind_of_type(*t);
                node_int[node as usize] = *t == DomainType::Int;
            }
        }
        Saturation {
            types,
            node_of,
            const_small: Vec::new(),
            const_nodes: HashMap::new(),
            node_const: vec![None; n],
            node_kind,
            node_int,
            uf: UnionFind::new(n),
            lt_edges: Vec::new(),
            neqs: Vec::new(),
            likes: Vec::new(),
        }
    }

    fn intern(&mut self, e: &Ent) -> usize {
        match e {
            Ent::Null(id) => {
                let node = self.node_of[id.index()];
                debug_assert_ne!(node, UNTOUCHED, "{id:?} is mentioned but not a node");
                node as usize
            }
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
        op_num.untouched = self
            .types
            .iter()
            .zip(self.node_of)
            .filter(|&(t, &node)| node == UNTOUCHED && kind_of_type(*t) == Kind::Num)
            .count();
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

        // Assemble the per-null model; text values are interned once per
        // class.
        let base = op_num.base();
        let text_vals: Vec<Value> = text_vals.iter().map(Value::str).collect();
        let values = self
            .types
            .iter()
            .zip(self.node_of)
            .map(|(&t, &node)| {
                let num = |x: f64| {
                    if t == DomainType::Int {
                        Value::Int(x as i64)
                    } else {
                        Value::real(x)
                    }
                };
                if node == UNTOUCHED {
                    return Some(match kind_of_type(t) {
                        Kind::Num => num(base),
                        Kind::Text => untouched_text(),
                    });
                }
                let c = class_of[node as usize];
                match num_idx[c] {
                    Some(i) => Some(num(num_vals[i])),
                    None => text_idx[c].map(|i| text_vals[i].clone()),
                }
            })
            .collect();
        Some(Model::new(values))
    }
}

/// Decides a pure conjunction of literals; returns a model on success.
///
/// `types[n]` gives each null's domain type. Type-mismatched comparisons
/// (number vs text) are unsatisfiable rather than errors: they can arise
/// transiently inside DPLL branches. Only the nulls `lits` mention are
/// built into the analysis, numbered in null order; every null gets a
/// value, the ones no literal mentions included.
pub fn check_conj(types: &[DomainType], lits: &[Lit]) -> Option<Model> {
    let _s = cqi_obs::trace::span("check_conj", "solver");
    let mut node_of = vec![UNTOUCHED; types.len()];
    for null in lits.iter().flat_map(Lit::nulls) {
        node_of[null.index()] = 0;
    }
    for (next, node) in node_of
        .iter_mut()
        .filter(|node| **node != UNTOUCHED)
        .enumerate()
    {
        *node = next as u32;
    }
    check_conj_with(types, lits, &node_of)
}

/// [`check_conj`] over an explicit null→node map: `node_of[n]` is null
/// `n`'s node (nodes `0..k`, one per mapped null), or `u32::MAX` for a null
/// that is not a node. Every mentioned null must be mapped; mapping every
/// null to itself builds each one into the analysis.
pub(crate) fn check_conj_with(
    types: &[DomainType],
    lits: &[Lit],
    node_of: &[u32],
) -> Option<Model> {
    let mut sat = Saturation::new(types, node_of);
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
    use crate::cond::Problem;
    use crate::ent::NullId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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

    /// [`check_conj`] with every null a node, the reference the property
    /// compares against.
    fn every_null_a_node(types: &[DomainType], lits: &[Lit]) -> Option<Model> {
        let identity: Vec<u32> = (0..types.len() as u32).collect();
        check_conj_with(types, lits, &identity)
    }

    /// Equal models, compared by value (`Int(1)` is not `Real(1.0)`) and by
    /// text (`-0` is not `0`).
    fn same(a: &Option<Model>, b: &Option<Model>) -> bool {
        a == b && format!("{a:?}") == format!("{b:?}")
    }

    const TYPES: [DomainType; 3] = [DomainType::Int, DomainType::Real, DomainType::Text];

    fn random_ent(rng: &mut StdRng, types: &[DomainType], pool: &[u32], want: DomainType) -> Ent {
        let of_type: Vec<u32> = pool
            .iter()
            .copied()
            .filter(|&i| types[i as usize] == want)
            .collect();
        if !of_type.is_empty() && rng.gen_bool(0.7) {
            return Ent::Null(NullId(of_type[rng.gen_range(0..of_type.len())]));
        }
        Ent::Const(match want {
            DomainType::Int => Value::Int(rng.gen_range(-3..6)),
            DomainType::Real => Value::real(rng.gen_range(-3..6) as f64 / 2.0),
            DomainType::Text => Value::str(["a", "b", "aa", "Eve E", "s0"][rng.gen_range(0..5)]),
        })
    }

    /// A literal over the nulls of `pool` and constants; comparisons may
    /// mix `Int` and `Real`, and one in twenty compares text with a number.
    fn random_lit(rng: &mut StdRng, types: &[DomainType], pool: &[u32]) -> Lit {
        let want = TYPES[rng.gen_range(0..3)];
        if want == DomainType::Text && rng.gen_bool(0.3) {
            let ent = random_ent(rng, types, pool, want);
            let pattern = ["Eve%", "Eve %", "a%", "_"][rng.gen_range(0..4)];
            return if rng.gen() {
                Lit::like(ent, pattern)
            } else {
                Lit::not_like(ent, pattern)
            };
        }
        let other = match want {
            _ if rng.gen_bool(0.05) => TYPES[rng.gen_range(0..3)],
            DomainType::Text => DomainType::Text,
            _ if rng.gen() => DomainType::Int,
            _ => DomainType::Real,
        };
        let ops = [
            SolverOp::Lt,
            SolverOp::Le,
            SolverOp::Gt,
            SolverOp::Ge,
            SolverOp::Eq,
            SolverOp::Ne,
        ];
        Lit::Cmp {
            lhs: random_ent(rng, types, pool, want),
            op: ops[rng.gen_range(0..ops.len())],
            rhs: random_ent(rng, types, pool, other),
        }
    }

    /// A problem over 1–16 mixed-type nulls whose conjuncts and clauses
    /// draw their nulls from a random subset, the ids permuted so that
    /// mentioned and unmentioned nulls interleave.
    fn random_problem(seed: u64) -> Problem {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..17usize);
        let types: Vec<DomainType> = (0..n).map(|_| TYPES[rng.gen_range(0..3)]).collect();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.shuffle(&mut rng);
        let pool = &ids[..rng.gen_range(0..n + 1)];
        let mut p = Problem::new(types);
        for _ in 0..rng.gen_range(0..9usize) {
            p.assert(random_lit(&mut rng, &p.null_types, pool));
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let clause = (0..rng.gen_range(1..4usize))
                .map(|_| random_lit(&mut rng, &p.null_types, pool))
                .collect();
            p.assert_clause(clause);
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Building only the mentioned nulls changes no answer: the theory
        /// check and DPLL over it return the model they return with every
        /// null a node, value for value, the unmentioned nulls' included.
        #[test]
        fn mentioned_nulls_only_keeps_every_model(seed in any::<u64>()) {
            let p = random_problem(seed);
            let (conj, every) = (
                check_conj(&p.null_types, &p.conj),
                every_null_a_node(&p.null_types, &p.conj),
            );
            prop_assert!(same(&conj, &every), "{:?}: {:?} vs {:?}", p, conj, every);
            let (dpll, every) = (
                crate::dpll::solve(&p).model(),
                crate::dpll::solve_with(&p, every_null_a_node).model(),
            );
            prop_assert!(same(&dpll, &every), "{:?}: {:?} vs {:?}", p, dpll, every);
        }
    }

    #[test]
    fn unmentioned_nulls_get_the_engines_defaults() {
        // n1 and n3 are mentioned; n0 (text), n2 (int) and n4 (real) are
        // not. The pin at 2 puts the order engine's base floor at
        // 0 - (2 + 2) - 2 = -6: two numeric classes in the system, two
        // untouched.
        let types = nulls(&[
            DomainType::Text,
            DomainType::Int,
            DomainType::Int,
            DomainType::Text,
            DomainType::Real,
        ]);
        let lits = vec![
            Lit::cmp(n(1), SolverOp::Gt, Value::Int(2)),
            Lit::like(n(3), "Eve%"),
        ];
        let m = check_conj(&types, &lits).unwrap();
        assert_eq!(m.get(n(0)), Some(&Value::str("a")));
        assert_eq!(m.get(n(2)), Some(&Value::Int(-6)));
        assert_eq!(m.get(n(4)), Some(&Value::real(-6.0)));
        assert_eq!(m.get(n(1)), Some(&Value::Int(3)));
        assert!(same(&Some(m), &every_null_a_node(&types, &lits)));
    }
}
