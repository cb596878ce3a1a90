//! Unit tests of the solver's theory components through the public API:
//! `unionfind`, `order`, `strings`/LIKE, and `dpll`, each exercised on both
//! satisfiable and unsatisfiable inputs.

use cqi_schema::{DomainType, Value};
use cqi_solver::order::{solve_order, OrderEdge, OrderProblem};
use cqi_solver::strings::{solve_text, TextProblem};
use cqi_solver::unionfind::UnionFind;
use cqi_solver::{solve, Lit, NullId, Problem, SolverOp};

fn n(i: u32) -> NullId {
    NullId(i)
}

// ---------- unionfind ----------

#[test]
fn uf_transitive_chain_merges_into_one_class() {
    let mut uf = UnionFind::new(6);
    for i in 0..5 {
        uf.union(i, i + 1);
    }
    for i in 0..6 {
        assert!(uf.same(0, i));
    }
    let (_, k) = uf.classes();
    assert_eq!(k, 1);
}

#[test]
fn uf_separate_components_stay_distinct() {
    let mut uf = UnionFind::new(6);
    uf.union(0, 1);
    uf.union(2, 3);
    uf.union(4, 5);
    assert!(!uf.same(0, 2));
    assert!(!uf.same(2, 4));
    assert!(!uf.same(0, 4));
    let (classes, k) = uf.classes();
    assert_eq!(k, 3);
    assert_eq!(classes[0], classes[1]);
    assert_eq!(classes[4], classes[5]);
}

#[test]
fn uf_union_is_idempotent_and_roots_stable() {
    let mut uf = UnionFind::new(3);
    let r1 = uf.union(0, 1);
    let r2 = uf.union(0, 1);
    assert_eq!(r1, r2);
    assert_eq!(uf.find(0), uf.find(1));
    assert_eq!(uf.len(), 3);
    assert!(!uf.is_empty());
}

#[test]
fn uf_push_after_unions_gives_fresh_singleton() {
    let mut uf = UnionFind::new(2);
    uf.union(0, 1);
    let fresh = uf.push();
    assert_eq!(fresh, 2);
    assert!(!uf.same(0, fresh));
    let (classes, k) = uf.classes();
    assert_eq!(k, 2);
    assert_ne!(classes[0], classes[fresh]);
}

// ---------- order ----------

#[test]
fn order_diamond_le_sat_with_join_above() {
    // a ≤ b, a ≤ c, b ≤ d, c ≤ d is satisfiable.
    let mut p = OrderProblem::new(4);
    p.le(0, 1);
    p.le(0, 2);
    p.le(1, 3);
    p.le(2, 3);
    let v = solve_order(&p).unwrap();
    assert!(v[0] <= v[1] && v[0] <= v[2] && v[1] <= v[3] && v[2] <= v[3]);
}

#[test]
fn order_strict_edge_inside_le_cycle_unsat() {
    // a ≤ b, b ≤ c, c ≤ a forces equality; a < b contradicts it.
    let mut p = OrderProblem::new(3);
    p.le(0, 1);
    p.le(1, 2);
    p.le(2, 0);
    p.lt(0, 1);
    assert!(solve_order(&p).is_none());
}

#[test]
fn order_int_window_exactly_one_value() {
    // Integers with 4 < x < 6 admit only x = 5.
    let mut p = OrderProblem::new(3);
    p.int_class = vec![true; 3];
    p.pinned[0] = Some(4.0);
    p.pinned[2] = Some(6.0);
    p.lt(0, 1);
    p.lt(1, 2);
    assert_eq!(solve_order(&p).unwrap()[1], 5.0);
}

#[test]
fn order_three_distinct_ints_in_two_slots_unsat() {
    // x, y, z pairwise distinct integers, all in the closed window [7, 8]:
    // only two integers exist there.
    let mut p = OrderProblem::new(5);
    p.int_class = vec![true; 5];
    p.pinned[3] = Some(7.0);
    p.pinned[4] = Some(8.0);
    for i in 0..3 {
        p.edges.push(OrderEdge {
            from: 3,
            to: i,
            strict: false,
        });
        p.edges.push(OrderEdge {
            from: i,
            to: 4,
            strict: false,
        });
    }
    p.neqs.push((0, 1));
    p.neqs.push((1, 2));
    p.neqs.push((0, 2));
    assert!(solve_order(&p).is_none());
}

#[test]
fn order_dense_window_fits_many_distinct_reals() {
    // Same shape as above but over reals: satisfiable.
    let mut p = OrderProblem::new(5);
    p.pinned[3] = Some(7.0);
    p.pinned[4] = Some(8.0);
    for i in 0..3 {
        p.edges.push(OrderEdge {
            from: 3,
            to: i,
            strict: true,
        });
        p.edges.push(OrderEdge {
            from: i,
            to: 4,
            strict: true,
        });
    }
    p.neqs.push((0, 1));
    p.neqs.push((1, 2));
    p.neqs.push((0, 2));
    let v = solve_order(&p).unwrap();
    for x in v.iter().take(3) {
        assert!(7.0 < *x && *x < 8.0);
    }
    assert!(v[0] != v[1] && v[1] != v[2] && v[0] != v[2]);
}

// ---------- strings / LIKE ----------

#[test]
fn strings_underscore_fixes_length() {
    // LIKE 'a_' demands exactly two characters starting with 'a'.
    let mut p = TextProblem::new(1);
    p.likes[0] = vec![(false, "a_".into())];
    let v = solve_text(&p).unwrap();
    assert_eq!(v[0].chars().count(), 2);
    assert!(v[0].starts_with('a'));
}

#[test]
fn strings_incompatible_fixed_lengths_unsat() {
    // LIKE 'a_' (length 2) ∧ LIKE 'a__' (length 3) is unsatisfiable.
    let mut p = TextProblem::new(1);
    p.likes[0] = vec![(false, "a_".into()), (false, "a__".into())];
    assert!(solve_text(&p).is_none());
}

#[test]
fn strings_positive_and_negative_prefixes_sat() {
    // LIKE 'ab%' ∧ NOT LIKE 'abc%' has witnesses ("ab", "abd…", …).
    let mut p = TextProblem::new(1);
    p.likes[0] = vec![(false, "ab%".into()), (true, "abc%".into())];
    let v = solve_text(&p).unwrap();
    assert!(v[0].starts_with("ab"));
    assert!(!v[0].starts_with("abc"));
}

#[test]
fn strings_chain_between_pins_with_neq() {
    // "m" ≤ x ≤ "n", x ≠ "m", x ≠ "n": dense order has room strictly
    // between any two distinct strings.
    let mut p = TextProblem::new(3);
    p.pinned[0] = Some("m".into());
    p.pinned[2] = Some("n".into());
    p.edges.push(OrderEdge {
        from: 0,
        to: 1,
        strict: false,
    });
    p.edges.push(OrderEdge {
        from: 1,
        to: 2,
        strict: false,
    });
    p.neqs.push((0, 1));
    p.neqs.push((1, 2));
    let v = solve_text(&p).unwrap();
    assert!(v[1].as_str() > "m" && v[1].as_str() < "n");
}

#[test]
fn strings_universal_negative_pattern_unsat() {
    // NOT LIKE '%' excludes every string.
    let mut p = TextProblem::new(1);
    p.likes[0] = vec![(true, "%".into())];
    assert!(solve_text(&p).is_none());
}

// ---------- dpll (full solver) ----------

#[test]
fn dpll_clause_interacts_with_order_theory() {
    // x < 3 ∧ (x = 5 ∨ x = 1): only the x = 1 branch survives the theory.
    let mut p = Problem::new(vec![DomainType::Int]);
    p.assert(Lit::cmp(n(0), SolverOp::Lt, Value::Int(3)));
    p.assert_clause(vec![
        Lit::cmp(n(0), SolverOp::Eq, Value::Int(5)),
        Lit::cmp(n(0), SolverOp::Eq, Value::Int(1)),
    ]);
    let m = solve(&p).model().unwrap();
    assert_eq!(m.get(n(0)), Some(&Value::Int(1)));
}

#[test]
fn dpll_two_clauses_single_consistent_combination() {
    // (x=1 ∨ x=2) ∧ (x=2 ∨ x=3) ∧ x ≠ 2 forces x=1 from the first clause
    // and x=3 from the second — contradiction, so unsat.
    let mut p = Problem::new(vec![DomainType::Int]);
    p.assert_clause(vec![
        Lit::cmp(n(0), SolverOp::Eq, Value::Int(1)),
        Lit::cmp(n(0), SolverOp::Eq, Value::Int(2)),
    ]);
    p.assert_clause(vec![
        Lit::cmp(n(0), SolverOp::Eq, Value::Int(2)),
        Lit::cmp(n(0), SolverOp::Eq, Value::Int(3)),
    ]);
    p.assert(Lit::cmp(n(0), SolverOp::Ne, Value::Int(2)));
    assert!(!solve(&p).is_sat());
}

#[test]
fn dpll_mixed_like_and_order_clause_sat() {
    // d LIKE 'Eve%' ∧ (p > 4 ∨ d LIKE 'Bob%') — the p > 4 branch is the
    // consistent one; the model must verify both theories at once.
    let mut p = Problem::new(vec![DomainType::Text, DomainType::Real]);
    p.assert(Lit::like(n(0), "Eve%"));
    p.assert(Lit::not_like(n(0), "Bob%"));
    p.assert_clause(vec![
        Lit::cmp(n(1), SolverOp::Gt, Value::real(4.0)),
        Lit::like(n(0), "Bob%"),
    ]);
    let lits = [
        Lit::like(n(0), "Eve%"),
        Lit::not_like(n(0), "Bob%"),
        Lit::cmp(n(1), SolverOp::Gt, Value::real(4.0)),
    ];
    let m = solve(&p).model().unwrap();
    for l in &lits {
        assert_eq!(m.eval_lit(l), Some(true), "{l:?}");
    }
}

#[test]
fn dpll_empty_clause_unsat() {
    // An empty clause is an unconditional contradiction.
    let mut p = Problem::new(vec![DomainType::Int]);
    p.assert_clause(vec![]);
    assert!(!solve(&p).is_sat());
}

#[test]
fn dpll_equality_chain_across_text_nulls() {
    // a = b ∧ b = c ∧ a LIKE 'x%' ∧ c NOT LIKE 'x%' is unsat through the
    // union-find layer; dropping the last literal makes it sat.
    let mut p = Problem::new(vec![DomainType::Text; 3]);
    p.assert(Lit::cmp(n(0), SolverOp::Eq, n(1)));
    p.assert(Lit::cmp(n(1), SolverOp::Eq, n(2)));
    p.assert(Lit::like(n(0), "x%"));
    let mut q = p.clone();
    q.assert(Lit::not_like(n(2), "x%"));
    assert!(!solve(&q).is_sat());
    let m = solve(&p).model().unwrap();
    assert_eq!(m.get(n(0)), m.get(n(2)));
}
