//! Cosette-style single counterexamples \[15\]: decide whether two queries
//! differ — and exhibit one ground witness — using only the queries and the
//! schema (no input database). We reuse the chase with `max_results = 1`
//! and ground the first consistent c-instance.

use std::time::Duration;

use cqi_core::{run_variant, ChaseConfig, Variant};
use cqi_drc::{Query, QueryError, SyntaxTree};
use cqi_instance::{ground_instance, GroundInstance};

/// Searches for a ground instance on which `q1` and `q2` differ (in either
/// direction). `None` means none was found within the limit/timeout — *not*
/// a proof of equivalence (the problem is undecidable, Proposition 3.1).
pub fn cosette(
    q1: &Query,
    q2: &Query,
    limit: usize,
    timeout: Duration,
) -> Result<Option<GroundInstance>, QueryError> {
    for (a, b) in [(q1, q2), (q2, q1)] {
        let diff = a.difference(b)?;
        let tree = SyntaxTree::new(diff);
        let cfg = ChaseConfig::with_limit(limit)
            .timeout(timeout)
            .enforce_keys(true)
            .max_results(1);
        let sol = run_variant(&tree, Variant::ConjAdd, &cfg);
        if let Some(si) = sol.instances.first() {
            if let Some(g) = ground_instance(&si.inst, true) {
                return Ok(Some(g));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::parse_query;
    use cqi_eval::evaluate;
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
                .key("Serves", &["bar", "beer"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn distinguishes_inequivalent_queries() {
        let s = schema();
        let q1 = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let q2 = parse_query(
            &s,
            "{ (b1) | exists d1 (Likes(d1, b1)) and exists x1, p1 (Serves(x1, b1, p1)) }",
        )
        .unwrap();
        let ce = cosette(&q1, &q2, 6, Duration::from_secs(20))
            .unwrap()
            .expect("q1 ⊋ q2");
        assert_ne!(evaluate(&q1, &ce), evaluate(&q2, &ce));
    }

    #[test]
    fn identical_queries_yield_nothing() {
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let ce = cosette(&q, &q, 5, Duration::from_secs(10)).unwrap();
        assert!(ce.is_none());
    }

    /// Found by the `cqi-fuzz` differential campaign: a projected wildcard
    /// and an explicit existential are the same query, so no counterexample
    /// may exist. The difference `q1 − q2` normalizes to
    /// `Likes(d1, *) ∧ ∀b ¬Likes(d1, b)` — before Tree-SAT's universal
    /// ranged over don't-care cells, the chase accepted its padding row and
    /// cosette produced a witness both queries agree on.
    #[test]
    fn wildcard_vs_exists_has_no_counterexample() {
        let s = schema();
        let q1 = parse_query(&s, "{ (d1) | Likes(d1, *) }").unwrap();
        let q2 = parse_query(&s, "{ (d1) | exists b1 (Likes(d1, b1)) }").unwrap();
        let ce = cosette(&q1, &q2, 4, Duration::from_secs(10)).unwrap();
        if let Some(ce) = &ce {
            assert_eq!(evaluate(&q1, ce), evaluate(&q2, ce), "{ce}");
            panic!("cosette produced a counterexample for equivalent queries:\n{ce}");
        }
    }
}
