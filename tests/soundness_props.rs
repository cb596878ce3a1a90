//! Property-based tests on the cross-crate invariants:
//! * solver models really satisfy the problems they answer (soundness);
//! * the order engine agrees with brute force on small integer systems;
//! * LIKE automata decisions agree with the direct matcher;
//! * NNF negation preserves ground semantics;
//! * grounded chase results satisfy their queries under ground evaluation.

use proptest::prelude::*;

use cqi_schema::{DomainType, Value};
use cqi_solver::{order, Lit, NullId, Problem, SolverOp};

// ---------- solver soundness ----------

fn arb_op() -> impl Strategy<Value = SolverOp> {
    prop_oneof![
        Just(SolverOp::Lt),
        Just(SolverOp::Le),
        Just(SolverOp::Gt),
        Just(SolverOp::Ge),
        Just(SolverOp::Eq),
        Just(SolverOp::Ne),
    ]
}

fn arb_lit(nulls: u32) -> impl Strategy<Value = Lit> {
    let ent = move |i: u32| NullId(i % nulls);
    (0..nulls, arb_op(), 0..nulls, 0i64..6).prop_map(move |(a, op, b, c)| {
        if c < 3 {
            Lit::cmp(ent(a), op, ent(b))
        } else {
            Lit::cmp(ent(a), op, Value::Int(c))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Whenever the solver answers SAT, the model it returns must satisfy
    /// every literal (the solver verifies internally; this re-checks from
    /// outside).
    #[test]
    fn solver_models_are_sound(lits in proptest::collection::vec(arb_lit(4), 1..8)) {
        let mut p = Problem::new(vec![DomainType::Int; 4]);
        for l in &lits {
            p.assert(l.clone());
        }
        if let cqi_solver::Outcome::Sat(m) = cqi_solver::solve(&p) {
            for l in &lits {
                prop_assert_eq!(m.eval_lit(l), Some(true), "lit {:?} fails", l);
            }
        }
    }

    /// The order engine agrees with brute force over a small integer box.
    #[test]
    fn order_engine_matches_bruteforce(
        edges in proptest::collection::vec((0usize..3, 0usize..3, any::<bool>()), 0..6),
        neqs in proptest::collection::vec((0usize..3, 0usize..3), 0..3),
    ) {
        let mut p = order::OrderProblem::new(3);
        p.int_class = vec![true; 3];
        // Pin the box: 0 ≤ x_i ≤ 3 via two pinned helper classes.
        for (a, b, strict) in &edges {
            p.edges.push(order::OrderEdge { from: *a, to: *b, strict: *strict });
        }
        for (a, b) in &neqs {
            if a != b {
                p.neqs.push((*a, *b));
            }
        }
        // Brute force over 0..=3 per class (solver range is unbounded, so
        // brute-force-SAT implies solver-SAT but not conversely; check that
        // direction only).
        let mut brute_sat = false;
        'outer: for x in 0..4i64 {
            for y in 0..4i64 {
                for z in 0..4i64 {
                    let v = [x as f64, y as f64, z as f64];
                    let ok_edges = edges.iter().all(|(a, b, s)| {
                        if *s { v[*a] < v[*b] } else { v[*a] <= v[*b] }
                    });
                    let ok_neqs = p.neqs.iter().all(|(a, b)| v[*a] != v[*b]);
                    if ok_edges && ok_neqs {
                        brute_sat = true;
                        break 'outer;
                    }
                }
            }
        }
        let solved = order::solve_order(&p);
        if brute_sat {
            prop_assert!(solved.is_some(), "brute force found a model but solver said unsat");
        }
        if let Some(vals) = solved {
            for (a, b, s) in &edges {
                if *s {
                    prop_assert!(vals[*a] < vals[*b]);
                } else {
                    prop_assert!(vals[*a] <= vals[*b]);
                }
            }
            for (a, b) in &p.neqs {
                prop_assert!(vals[*a] != vals[*b]);
            }
        }
    }

    /// The automata-based LIKE decision agrees with the direct matcher on
    /// random pattern/string pairs.
    #[test]
    fn like_automata_agree_with_matcher(
        pat in "[ab%_]{0,6}",
        s in "[ab]{0,6}",
    ) {
        use cqi_solver::nfa::{like_match, Alphabet, Dfa};
        let alpha = Alphabet::from_patterns([pat.as_str()]);
        let dfa = Dfa::from_pattern(&pat, &alpha);
        prop_assert_eq!(dfa.accepts(&s, &alpha), like_match(&pat, &s));
    }

    /// A satisfiable positive/negative LIKE set yields a witness that the
    /// direct matcher confirms.
    #[test]
    fn like_witnesses_verified(
        pos in proptest::collection::vec("[ab%_]{1,5}", 0..3),
        neg in proptest::collection::vec("[ab%_]{1,5}", 0..3),
    ) {
        use cqi_solver::nfa::{like_match, like_witness};
        let posr: Vec<&str> = pos.iter().map(String::as_str).collect();
        let negr: Vec<&str> = neg.iter().map(String::as_str).collect();
        if let Some(w) = like_witness(&posr, &negr) {
            for p in &posr {
                prop_assert!(like_match(p, &w));
            }
            for p in &negr {
                prop_assert!(!like_match(p, &w));
            }
        }
    }
}

// ---------- NNF semantics ----------

mod nnf {

    use cqi_datasets::{beers_k0, beers_schema};
    use cqi_drc::normalize::negate;
    use cqi_drc::parse_query;

    /// Double negation preserves ground evaluation on K0 for a pool of
    /// hand-picked formulas exercising ∃/∀/∧/∨ and both leaf kinds.
    #[test]
    fn double_negation_preserves_semantics() {
        let s = beers_schema();
        let k0 = beers_k0(&s);
        let sources = [
            "{ (b1) | exists d1 (Likes(d1, b1)) }",
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1) and p1 > 2.5) }",
            "{ (b1) | exists r1 (Beer(b1, r1)) and forall d1 (not Likes(d1, b1)) }",
            "{ (x1, b1) | exists p1 . Serves(x1, b1, p1) and forall x2, p2 (not Serves(x2, b1, p2) or p1 >= p2) }",
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 2.5)) }",
        ];
        for src in sources {
            let q = parse_query(&s, src).unwrap();
            let back = negate(negate(q.formula.clone()));
            let q2 = cqi_drc::Query::new(
                q.schema.clone(),
                q.out_vars.clone(),
                back,
                q.vars.iter().map(|v| v.name.clone()).collect(),
            )
            .unwrap();
            assert_eq!(
                cqi_eval::evaluate(&q, &k0),
                cqi_eval::evaluate(&q2, &k0),
                "{src}"
            );
        }
    }
}

// ---------- chase soundness by sampling ----------

mod chase_soundness {
    use std::time::Duration;

    use cqi_core::cover::coverage_of_cinstance_keys;
    use cqi_core::{CSolution, ChaseConfig, ExplainRequest, Session, Variant};
    use cqi_datasets::{beers_queries, beers_schema};
    use cqi_drc::SyntaxTree;
    use cqi_fuzz::check_solution;

    fn session() -> Session {
        Session::new(beers_schema()).config(ChaseConfig::with_limit(6).enforce_keys(true))
    }

    fn request(tree: &SyntaxTree, variant: Variant) -> ExplainRequest<'_> {
        ExplainRequest::tree(tree)
            .variant(variant)
            .deadline(Duration::from_secs(10))
    }

    /// Every c-instance every variant returns grounds into a world that
    /// satisfies the query under independent ground evaluation — the same
    /// oracle the `cqi-fuzz` differential campaign applies (grounding,
    /// key consistency, `eval::satisfies`, non-empty coverage), over *all*
    /// accepted instances of every base query of the Beers workload.
    #[test]
    fn grounded_results_satisfy_queries() {
        for dq in beers_queries()
            .into_iter()
            .filter(|q| q.kind != cqi_datasets::QueryKind::Difference)
        {
            let tree = SyntaxTree::new(dq.query.clone());
            for variant in Variant::ALL {
                let sol = session().explain_collect(request(&tree, variant)).unwrap();
                if let Err(d) = check_solution(&dq.query, &sol, true) {
                    panic!(
                        "{} [{variant:?}]: {}: {}",
                        dq.name,
                        d.kind.as_str(),
                        d.detail
                    );
                }
            }
        }
    }

    /// The difference queries of the workload go through the same oracle:
    /// their accepted instances are exactly the witnesses that one side
    /// returns and the other does not, so an unsound acceptance here is a
    /// bogus counterexample downstream (cf. the cosette regression test).
    /// All six variants, at limit 6: at limit 8, Q5A-Q5B under Disj-Add
    /// still accepts an unsound instance (ROADMAP item 2).
    #[test]
    fn grounded_difference_results_satisfy_queries() {
        for dq in beers_queries()
            .into_iter()
            .filter(|q| q.kind == cqi_datasets::QueryKind::Difference)
        {
            let tree = SyntaxTree::new(dq.query.clone());
            for variant in Variant::ALL {
                let sol = session().explain_collect(request(&tree, variant)).unwrap();
                if let Err(d) = check_solution(&dq.query, &sol, true) {
                    panic!(
                        "{} [{variant:?}]: {}: {}",
                        dq.name,
                        d.kind.as_str(),
                        d.detail
                    );
                }
            }
        }
    }

    /// The chase validates and covers each accepted instance once, on the
    /// worker that accepted it, through that worker's solver memo. Every
    /// instance a run streams or returns, batch and streaming paths alike,
    /// must carry exactly the coverage a cold recomputation gives. The
    /// warm session's memos share storage with the instances they return,
    /// so its batch answers must also equal a fresh session's, instance by
    /// instance.
    #[test]
    fn carried_coverage_matches_cold_recomputation() {
        let warm = session();
        let rendered = |sol: &CSolution| {
            let instances: Vec<_> = sol
                .instances
                .iter()
                .map(|si| (si.inst.to_string(), si.coverage.clone()))
                .collect();
            (instances, sol.raw_accepted)
        };
        for dq in beers_queries() {
            let tree = SyntaxTree::new(dq.query.clone());
            let cold = |inst: &_| coverage_of_cinstance_keys(&dq.query, inst, true);
            for variant in Variant::ALL {
                let req = || request(&tree, variant);
                let batch = warm.explain_collect(req()).unwrap();
                assert_eq!(
                    rendered(&batch),
                    rendered(&session().explain_collect(request(&tree, variant)).unwrap()),
                    "{} [{variant}] warm session against a fresh one",
                    dq.name
                );
                let mut streamed = 0;
                let stream = warm
                    .explain_with(req(), &mut |acc| {
                        assert_eq!(
                            acc.coverage,
                            cold(&acc.inst),
                            "{} [{variant}] streamed",
                            dq.name
                        );
                        streamed += 1;
                        true
                    })
                    .unwrap();
                assert!(streamed >= stream.instances.len());
                for si in batch.instances.iter().chain(&stream.instances) {
                    assert_eq!(si.coverage, cold(&si.inst), "{} [{variant}]", dq.name);
                }
            }
        }
    }
}
