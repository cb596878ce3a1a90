//! Workload-level test generation (§1, third use case): given a set of
//! workload queries, generate test instances on which a *chosen subset* of
//! the queries is satisfied and the rest are not — automated, comprehensive
//! testing of query workloads.
//!
//! The combined requirement is itself a DRC query (conjunction of
//! existentially closed bodies and their negations), so the whole machinery
//! — chase, consistency, grounding — applies unchanged.

use std::collections::BTreeMap;
use std::time::Duration;

use cqi_drc::normalize::combine;
use cqi_drc::{Query, QueryError, SyntaxTree};
use cqi_instance::{ground_instance, GroundInstance};

use crate::config::{ChaseConfig, Variant};
use crate::session::{ExplainRequest, Session};

/// Finds one ground instance satisfying exactly the queries flagged in
/// `positive` (and violating the rest). Returns `Ok(None)` when the chase
/// finds no witness within the configured limit and the `deadline` —
/// which may mean the combination is unsatisfiable, or just out of reach
/// (undecidability, Proposition 3.1).
pub fn generate_selective_instance(
    queries: &[&Query],
    positive: &[bool],
    cfg: &ChaseConfig,
    deadline: Duration,
) -> Result<Option<GroundInstance>, QueryError> {
    let combined = combine(queries, positive)?;
    let tree = SyntaxTree::new(combined);
    let sol = Session::new(tree.query().schema.clone())
        .config(cfg.clone())
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::ConjAdd)
                .max_results(cfg.max_results.unwrap_or(1))
                .deadline(deadline),
        )?;
    for si in &sol.instances {
        if let Some(g) = ground_instance(&si.inst, cfg.enforce_keys) {
            return Ok(Some(g));
        }
    }
    Ok(None)
}

/// Generates one test database per achievable subset pattern of up to
/// `2^queries.len()` combinations, keyed by the pattern bits
/// (`pattern & (1 << i) != 0` ⇔ query `i` satisfied). Each pattern's chase
/// gets its own `deadline`.
pub fn generate_test_matrix(
    queries: &[&Query],
    cfg: &ChaseConfig,
    deadline: Duration,
) -> Result<BTreeMap<u32, GroundInstance>, QueryError> {
    assert!(queries.len() <= 16, "subset enumeration is exponential");
    let mut out = BTreeMap::new();
    for pattern in 0u32..(1 << queries.len()) {
        let positive: Vec<bool> = (0..queries.len())
            .map(|i| pattern & (1 << i) != 0)
            .collect();
        if let Some(g) = generate_selective_instance(queries, &positive, cfg, deadline)? {
            out.insert(pattern, g);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::parse_query;
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

    fn cfg() -> ChaseConfig {
        ChaseConfig::with_limit(8)
    }

    const DEADLINE: Duration = Duration::from_secs(15);

    #[test]
    fn satisfy_one_but_not_the_other() {
        let s = schema();
        let q_likes = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let q_served = parse_query(&s, "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) }").unwrap();
        // Likes satisfied, Serves not.
        let g =
            generate_selective_instance(&[&q_likes, &q_served], &[true, false], &cfg(), DEADLINE)
                .unwrap()
                .expect("achievable combination");
        assert!(cqi_eval::satisfies(&q_likes, &g));
        assert!(!cqi_eval::satisfies(&q_served, &g));
        // The mirror combination.
        let g2 =
            generate_selective_instance(&[&q_likes, &q_served], &[false, true], &cfg(), DEADLINE)
                .unwrap()
                .expect("achievable combination");
        assert!(!cqi_eval::satisfies(&q_likes, &g2));
        assert!(cqi_eval::satisfies(&q_served, &g2));
    }

    #[test]
    fn all_positive_selection_satisfies_every_query() {
        let s = schema();
        let q_likes = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let q_served = parse_query(&s, "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) }").unwrap();
        let q_cheap = parse_query(
            &s,
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1) and p1 < 2.0) }",
        )
        .unwrap();
        let g = generate_selective_instance(
            &[&q_likes, &q_served, &q_cheap],
            &[true, true, true],
            &cfg(),
            DEADLINE,
        )
        .unwrap()
        .expect("all-positive combination is achievable");
        assert!(cqi_eval::satisfies(&q_likes, &g));
        assert!(cqi_eval::satisfies(&q_served, &g));
        assert!(cqi_eval::satisfies(&q_cheap, &g));
    }

    #[test]
    fn all_negative_selection_violates_every_query() {
        let s = schema();
        let q_likes = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let q_served = parse_query(&s, "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) }").unwrap();
        let g =
            generate_selective_instance(&[&q_likes, &q_served], &[false, false], &cfg(), DEADLINE)
                .unwrap()
                .expect("all-negative combination is achievable");
        assert!(!cqi_eval::satisfies(&q_likes, &g));
        assert!(!cqi_eval::satisfies(&q_served, &g));
    }

    #[test]
    fn contradictory_subset_yields_none() {
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        // q satisfied AND q not satisfied.
        let got = generate_selective_instance(&[&q, &q], &[true, false], &cfg(), DEADLINE).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn test_matrix_omits_unsatisfiable_patterns() {
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        // The same query twice: only the agreeing patterns 00 and 11 are
        // achievable; the contradictory 01 and 10 must be absent.
        let matrix = generate_test_matrix(&[&q, &q], &cfg(), DEADLINE).unwrap();
        assert_eq!(
            matrix.keys().copied().collect::<Vec<_>>(),
            vec![0b00, 0b11],
            "{:?}",
            matrix.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn test_matrix_enumerates_achievable_patterns() {
        let s = schema();
        let q_likes = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let q_cheap = parse_query(
            &s,
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1) and p1 < 2.0) }",
        )
        .unwrap();
        let matrix = generate_test_matrix(&[&q_likes, &q_cheap], &cfg(), DEADLINE).unwrap();
        // All four patterns are achievable for these independent queries.
        assert_eq!(matrix.len(), 4, "{:?}", matrix.keys().collect::<Vec<_>>());
        for (pattern, g) in &matrix {
            assert_eq!(cqi_eval::satisfies(&q_likes, g), pattern & 1 != 0);
            assert_eq!(cqi_eval::satisfies(&q_cheap, g), pattern & 2 != 0);
        }
    }
}
