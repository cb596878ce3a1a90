//! Property tests for the solver's memoized path and its order engine: the
//! exact memo must agree with the from-scratch decision procedure on random
//! problems, and satisfiable answers must come with verifying models.

use cqi_schema::{DomainType, Value};
use cqi_solver::{Ent, ExactCache, Lit, NullId, Phi, Problem, SolverOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: [SolverOp; 6] = [
    SolverOp::Lt,
    SolverOp::Le,
    SolverOp::Gt,
    SolverOp::Ge,
    SolverOp::Eq,
    SolverOp::Ne,
];

const PATTERNS: [&str; 4] = ["Eve%", "Eve %", "%er", "a_c%"];

fn random_types(rng: &mut StdRng) -> Vec<DomainType> {
    let n = rng.gen_range(2..7usize);
    (0..n)
        .map(|_| match rng.gen_range(0..3u8) {
            0 => DomainType::Int,
            1 => DomainType::Real,
            _ => DomainType::Text,
        })
        .collect()
}

fn random_ent(rng: &mut StdRng, types: &[DomainType], want: DomainType) -> Ent {
    // Prefer a null of the wanted type; fall back to a constant.
    let candidates: Vec<u32> = (0..types.len())
        .filter(|&i| types[i] == want)
        .map(|i| i as u32)
        .collect();
    if !candidates.is_empty() && rng.gen_bool(0.7) {
        return Ent::Null(NullId(candidates[rng.gen_range(0..candidates.len())]));
    }
    Ent::Const(match want {
        DomainType::Int => Value::Int(rng.gen_range(-3..6)),
        DomainType::Real => Value::real(rng.gen_range(-3..6) as f64 / 2.0),
        DomainType::Text => {
            Value::str(["a", "b", "Eve E", "Eve Edwards", "beer"][rng.gen_range(0..5)])
        }
    })
}

fn random_lit(rng: &mut StdRng, types: &[DomainType]) -> Lit {
    let want = match rng.gen_range(0..3u8) {
        0 => DomainType::Int,
        1 => DomainType::Real,
        _ => DomainType::Text,
    };
    if want == DomainType::Text && rng.gen_bool(0.3) {
        let ent = random_ent(rng, types, DomainType::Text);
        let pattern = PATTERNS[rng.gen_range(0..PATTERNS.len())];
        return if rng.gen() {
            Lit::like(ent, pattern)
        } else {
            Lit::not_like(ent, pattern)
        };
    }
    // Numeric comparisons may freely mix Int and Real.
    let other = if want == DomainType::Text {
        DomainType::Text
    } else if rng.gen() {
        DomainType::Int
    } else {
        DomainType::Real
    };
    Lit::Cmp {
        lhs: random_ent(rng, types, want),
        op: OPS[rng.gen_range(0..OPS.len())],
        rhs: random_ent(rng, types, other),
    }
}

fn random_conj(seed: u64) -> (Vec<DomainType>, Vec<Lit>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let types = random_types(&mut rng);
    let n_lits = rng.gen_range(1..10usize);
    let lits = (0..n_lits).map(|_| random_lit(&mut rng, &types)).collect();
    (types, lits)
}

fn random_problem(seed: u64) -> Problem {
    let (types, lits) = random_conj(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a5e5);
    let mut p = Problem::new(types);
    for l in lits {
        p.assert(l);
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let clause: Vec<Lit> = (0..rng.gen_range(1..3usize))
            .map(|_| random_lit(&mut rng, &p.null_types))
            .collect();
        p.assert_clause(clause);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exact memo agrees with the from-scratch solver on both the miss
    /// and the hit path, and Sat answers verify.
    #[test]
    fn memoized_agrees_with_scratch(seed in any::<u64>()) {
        let p = random_problem(seed);
        let scratch = cqi_solver::solve(&p);
        let mut cache = ExactCache::new(16);
        let miss = cache.is_sat(&Phi::new(p.clone()), &[]);
        let hit = cache.is_sat(&Phi::new(p.clone()), &[]);
        prop_assert_eq!(scratch.is_sat(), miss, "miss path");
        prop_assert_eq!(scratch.is_sat(), hit, "hit path");
        prop_assert_eq!((cache.misses, cache.hits), (1, 1));
        if let cqi_solver::Outcome::Sat(m) = scratch {
            prop_assert!(m.verify(&p.conj, &p.clauses), "model must verify");
        }
    }

    /// The memo's answer for (φ, extra) is the solver's answer for the
    /// whole problem φ ∧ extra, wherever the conjuncts are split between
    /// φ and extra, on the miss path and on the hit path of an equal φ in
    /// another allocation.
    #[test]
    fn split_question_agrees_with_whole_problem(seed in any::<u64>()) {
        let p = random_problem(seed);
        let cut = StdRng::seed_from_u64(seed ^ 0x5917).gen_range(0..p.conj.len() + 1);
        let mut phi = p.clone();
        let extra = phi.conj.split_off(cut);
        let whole = cqi_solver::is_sat(&p);
        let mut cache = ExactCache::new(16);
        prop_assert_eq!(cache.is_sat(&Phi::new(phi.clone()), &extra), whole, "miss path");
        prop_assert_eq!(cache.is_sat(&Phi::new(phi), &extra), whole, "hit path");
        prop_assert_eq!((cache.misses, cache.hits), (1, 1));
    }

    /// A conjunct of φ is entailed: φ ∧ ¬lit holds both lit and ¬lit, and
    /// the solver refutes it. Tree-SAT answers such leaves without asking.
    #[test]
    fn conjunct_of_phi_is_entailed(seed in any::<u64>()) {
        let p = random_problem(seed);
        let phi = Phi::new(p.clone());
        for lit in &p.conj {
            prop_assert!(!phi.is_sat_with(&[lit.negate()]), "{:?} in {:?}", lit, p);
        }
    }

    /// Equalities that contradict every literal of a `≠`-only clause of φ
    /// make φ ∧ equalities unsatisfiable. Tree-SAT answers such row
    /// questions without asking.
    #[test]
    fn equalities_falsifying_a_neq_clause_are_unsat(seed in any::<u64>()) {
        let mut p = random_problem(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0e9);
        let clause: Vec<Lit> = (0..rng.gen_range(1..4usize))
            .map(|_| {
                let want = [DomainType::Int, DomainType::Real, DomainType::Text][rng.gen_range(0..3)];
                let lhs = random_ent(&mut rng, &p.null_types, want);
                let rhs = random_ent(&mut rng, &p.null_types, want);
                Lit::Cmp { lhs, op: SolverOp::Ne, rhs }
            })
            .collect();
        let eqs: Vec<Lit> = clause
            .iter()
            .map(|l| match l {
                Lit::Cmp { lhs, rhs, .. } if rng.gen() => Lit::cmp(lhs.clone(), SolverOp::Eq, rhs.clone()),
                Lit::Cmp { lhs, rhs, .. } => Lit::cmp(rhs.clone(), SolverOp::Eq, lhs.clone()),
                Lit::Like { .. } => unreachable!("the clause holds comparisons only"),
            })
            .collect();
        p.assert_clause(clause);
        prop_assert!(!Phi::new(p).is_sat_with(&eqs));
    }

    /// The order solver on random systems with pins, integer classes and
    /// disequalities: every answer it returns satisfies each edge, pin,
    /// integrality flag and `≠`.
    #[test]
    fn order_solve_answers_satisfy_every_constraint(seed in any::<u64>()) {
        use cqi_solver::order::{solve_order, OrderProblem};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..8usize);
        let mut p = OrderProblem::new(n);
        for i in 0..n {
            if rng.gen_bool(0.3) {
                p.int_class[i] = true;
            }
            if rng.gen_bool(0.25) {
                p.pinned[i] = Some(rng.gen_range(-4..8) as f64 / 2.0);
            }
        }
        for _ in 0..rng.gen_range(0..2 * n + 1) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if rng.gen() { p.lt(a, b) } else { p.le(a, b) }
        }
        for _ in 0..rng.gen_range(0..n) {
            p.neqs.push((rng.gen_range(0..n), rng.gen_range(0..n)));
        }
        if let Some(v) = solve_order(&p) {
            for e in &p.edges {
                if e.strict {
                    prop_assert!(v[e.from] < v[e.to]);
                } else {
                    prop_assert!(v[e.from] <= v[e.to]);
                }
            }
            for (i, pin) in p.pinned.iter().enumerate() {
                if let Some(pin) = pin { prop_assert_eq!(v[i], *pin); }
            }
            for (i, int) in p.int_class.iter().enumerate() {
                if *int { prop_assert_eq!(v[i].fract(), 0.0); }
            }
            for (a, b) in &p.neqs {
                prop_assert!(v[*a] != v[*b]);
            }
        }
    }
}
