//! The six algorithm variants of §5 and the shared finalization pipeline
//! (original-tree validation → coverage → minimality post-processing). The
//! chase validates and covers each accepted instance on the worker that
//! accepted it; finalization reads the carried coverage.

use std::time::Duration;

use cqi_drc::{Atom, Coverage, Formula, SyntaxTree, Term};
use cqi_instance::CInstance;
use cqi_solver::Ent;

use crate::chase::{materialize, Chase, ChaseCaches, RootJob};
use crate::config::{ChaseConfig, Variant};
use crate::conjtree::conjunctive_trees;
use crate::session::{ExplainRequest, Session};
use crate::solution::{minimize, AcceptedInstance, CSolution, Interrupted};
use crate::treesat::Hom;

/// Runs one variant on a query's syntax tree and returns its minimal
/// c-solution.
///
/// This is the original batch entry point, kept as a thin wrapper over a
/// one-shot [`Session`]: prefer [`Session::explain`] for streaming results,
/// deadlines-with-status, cancellation, and warm solver caches across
/// queries.
pub fn run_variant(tree: &SyntaxTree, variant: Variant, cfg: &ChaseConfig) -> CSolution {
    Session::new(tree.query().schema.clone())
        .config(cfg.clone())
        .explain_collect(ExplainRequest::tree(tree).variant(variant))
        .expect("pre-parsed trees compile unconditionally")
}

/// The engine behind every [`Session`] explain call: runs one variant,
/// calling `observer` (when there is one) with every accepted instance —
/// already validated against the *original* tree and annotated with
/// coverage — in the deterministic accepted order, as the drive produces it
/// (per step within one root, per job batch under root fan-out). `observer`
/// returning `false` halts the drive; the instances accepted so far still
/// make up the returned solution, flagged [`Interrupted::Cancelled`].
pub(crate) fn run_variant_observed(
    tree: &SyntaxTree,
    variant: Variant,
    cfg: &ChaseConfig,
    caches: &mut ChaseCaches,
    mut observer: Option<&mut dyn FnMut(AcceptedInstance) -> bool>,
) -> CSolution {
    let q = tree.query();
    let universal_fresh = variant.universal_fresh_nulls();
    // Span capture is per-request: the refcount turns recording on for the
    // duration of this run only, and the guard below becomes the trace's
    // root "explain" span. Untraced runs skip both (inert guards).
    if cfg.trace {
        cqi_obs::trace::begin_capture();
    }
    let explain_span = cqi_obs::trace::span("explain", "request");
    let mut chase = Chase::new_reusing(q, cfg, universal_fresh, caches);

    // Streaming: each validated instance goes to the consumer at
    // acceptance time, while the search is still running, as its own
    // (cheap, storage-sharing) clone.
    let mut ordinal = 0;
    drive_phases(&mut chase, tree, variant, &mut |inst, coverage, t| {
        let (Some(observer), Some(coverage)) = (observer.as_mut(), coverage) else {
            return true;
        };
        let acc = AcceptedInstance {
            ordinal,
            inst: inst.clone(),
            coverage: coverage.clone(),
            accepted_at: t,
        };
        ordinal += 1;
        observer(acc)
    });
    // The solution keeps the validated instances of the accepted log, in
    // log order: the same instances the observer saw.
    let accepted = std::mem::take(&mut chase.accepted);
    let raw_accepted = accepted.len();
    let entries = accepted
        .into_iter()
        .filter_map(|(inst, coverage, t)| Some((inst, coverage?, t)))
        .collect();

    let interrupted = if chase.cancelled || chase.halted {
        Some(Interrupted::Cancelled)
    } else if chase.timed_out {
        Some(Interrupted::Deadline)
    } else {
        None
    };
    let mut sol = CSolution {
        instances: minimize(entries),
        raw_accepted,
        interrupted,
        total_time: chase.start.elapsed(),
        stats: chase.stats(),
        trace: None,
    };
    chase.recycle_into(caches);
    // Close the root span before draining, so it lands in the export.
    drop(explain_span);
    if cfg.trace {
        sol.trace = Some(cqi_obs::trace::end_capture());
    }
    sol.stats.publish_metrics();
    sol
}

/// Both phases of one variant run — the per-tree roots and the `*-Add`
/// re-seeds — as batches of independent root searches routed through
/// [`Chase::run_roots_observed`]: with `cfg.threads != 1` whole roots fan
/// out across workers, each root's frontier driven sequentially by
/// [`cqi_runtime::drive`], with identical output either way.
fn drive_phases(
    chase: &mut Chase<'_>,
    tree: &SyntaxTree,
    variant: Variant,
    observer: &mut dyn FnMut(&CInstance, Option<&Coverage>, Duration) -> bool,
) {
    let q = tree.query();
    let formulas: Vec<Formula> = if variant.is_conjunctive() {
        conjunctive_trees(&q.formula)
    } else {
        vec![q.formula.clone()]
    };
    let empty_h: Hom = vec![None; q.vars.len()];
    chase.run_roots_observed(
        formulas
            .iter()
            .map(|f| RootJob {
                formula: f,
                seed: CInstance::new(q.schema.clone()),
                h: empty_h.clone(),
            })
            .collect(),
        observer,
    );

    if variant.is_add() && !chase.timed_out && !chase.cancelled && !chase.halted {
        // Which original leaves are still uncovered by any accepted
        // instance? (Snapshot semantics: every re-seed job below is judged
        // against this one coverage set, which is what makes the jobs
        // independent and the batch parallelizable.) An instance that
        // fails validation covers nothing.
        let covered: Coverage = chase
            .accepted
            .iter()
            .filter_map(|(_, coverage, _)| coverage.as_ref())
            .flatten()
            .copied()
            .collect();
        let mut jobs: Vec<RootJob<'_>> = Vec::new();
        for (leaf_id, atom) in tree.leaves() {
            if covered.contains(&leaf_id) {
                continue;
            }
            let Some((seed, h0)) = seed_for_leaf(q, atom) else {
                continue;
            };
            for f in &formulas {
                jobs.push(RootJob {
                    formula: f,
                    seed: seed.clone(),
                    h: h0.clone(),
                });
            }
        }
        chase.run_roots_observed(jobs, observer);
    }
}

/// Builds the initial c-instance for an `*-Add` re-seed: the uncovered leaf
/// atom is materialized over fresh labeled nulls, and output variables
/// occurring in it are pre-bound in the homomorphism.
fn seed_for_leaf(
    q: &cqi_drc::Query,
    atom: &Atom,
) -> Option<(CInstance, Hom)> {
    let mut inst = CInstance::new(q.schema.clone());
    let mut h: Hom = vec![None; q.vars.len()];
    // Fresh nulls for every variable of the atom.
    for v in atom.vars() {
        if h[v.index()].is_none() {
            let n = inst.fresh_null(q.var_name(v), q.var_domain(v));
            h[v.index()] = Some(Ent::Null(n));
        }
    }
    let seeded = materialize(q, &inst, std::slice::from_ref(atom), &h)?;
    // Keep bindings only for output variables; quantified variables are
    // re-bound by the chase (their nulls stay available in the pools).
    let mut h0: Hom = vec![None; q.vars.len()];
    for v in &q.out_vars {
        if let Term::Var(_) = Term::Var(*v) {
            if atom.vars().contains(v) {
                h0[v.index()] = h[v.index()].clone();
            }
        }
    }
    Some((seeded, h0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::parse_query;
    use cqi_instance::consistency::is_consistent;
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

    fn tree(src: &str) -> SyntaxTree {
        SyntaxTree::new(parse_query(&schema(), src).unwrap())
    }

    #[test]
    fn all_variants_solve_simple_query() {
        let t = tree("{ (b1) | exists d1 (Likes(d1, b1)) }");
        for v in Variant::ALL {
            let sol = run_variant(&t, v, &ChaseConfig::with_limit(4));
            assert!(!sol.instances.is_empty(), "{v} found nothing");
            for si in &sol.instances {
                assert!(is_consistent(&si.inst, false));
                assert!(crate::treesat::tree_sat(t.query(), &si.inst));
            }
        }
    }

    #[test]
    fn disjunction_yields_multiple_coverages() {
        let t = tree(
            "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
        );
        let sol = run_variant(&t, Variant::DisjEO, &ChaseConfig::with_limit(6));
        // At least the >3-only and <1-only coverages.
        assert!(sol.num_coverages() >= 2, "got {}", sol.num_coverages());
    }

    #[test]
    fn add_variant_reaches_vacuous_forall_leaves() {
        // ∀d1 (¬Likes(d1, b1)) is vacuously satisfied with an empty drinker
        // pool, so the plain chase never covers the ¬Likes leaf; the Add
        // seeding materializes it.
        let t = tree(
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
        );
        let cfg = ChaseConfig::with_limit(6);
        let eo = run_variant(&t, Variant::DisjEO, &cfg);
        let add = run_variant(&t, Variant::DisjAdd, &cfg);
        assert!(add.covered_union().len() > eo.covered_union().len());
        assert_eq!(add.covered_union().len(), 2, "both leaves covered by Add");
        assert!(add.instances.iter().any(|si| si
            .inst
            .global
            .iter()
            .any(|c| matches!(c, cqi_instance::Cond::NotIn { .. }))));
    }

    #[test]
    fn add_variant_covers_at_least_eo() {
        let t = tree(
            "{ (x1, b1) | exists p1 . Serves(x1, b1, p1) and forall p2, x2 (not Serves(x2, b1, p2) or p2 <= p1) }",
        );
        let cfg = ChaseConfig::with_limit(8);
        let eo = run_variant(&t, Variant::ConjEO, &cfg);
        let add = run_variant(&t, Variant::ConjAdd, &cfg);
        assert!(add.covered_union().len() >= eo.covered_union().len());
        assert!(!add.instances.is_empty());
    }

    #[test]
    fn minimality_within_coverage() {
        let t = tree("{ (b1) | exists d1 (Likes(d1, b1)) }");
        let sol = run_variant(&t, Variant::DisjNaive, &ChaseConfig::with_limit(4));
        // The single-coverage solution must be the 1-tuple instance.
        for si in &sol.instances {
            if si.coverage.len() == 1 {
                assert_eq!(si.size(), 1);
            }
        }
    }

    #[test]
    fn cache_and_incremental_knobs_do_not_change_results() {
        // The solver memo is a pure optimization: every variant must return
        // the same minimal instances, in order, with it on and off, keys on
        // and off. `solver_cache(false)` decides IsConsistent, every
        // Tree-SAT leaf and the validation of accepted instances cold.
        let queries = [
            "{ (b1) | exists d1 (Likes(d1, b1)) }",
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
            "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
        ];
        let render = |sol: &CSolution| -> Vec<String> {
            sol.instances
                .iter()
                .map(|si| format!("{} {:?}", si.inst, si.coverage))
                .collect()
        };
        for src in queries {
            let t = tree(src);
            for keys in [false, true] {
                for v in Variant::ALL {
                    let memo = ChaseConfig::with_limit(7).enforce_keys(keys);
                    let cold = memo.clone().solver_cache(false);
                    let a = run_variant(&t, v, &memo);
                    let b = run_variant(&t, v, &cold);
                    assert_eq!(
                        render(&a),
                        render(&b),
                        "query {src} variant {v} keys {keys}"
                    );
                    assert_eq!(a.raw_accepted, b.raw_accepted, "query {src} variant {v}");
                }
            }
        }
    }

    #[test]
    fn conj_and_disj_agree_on_or_free_query() {
        let t = tree(
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
        );
        let cfg = ChaseConfig::with_limit(6);
        let disj = run_variant(&t, Variant::DisjEO, &cfg);
        let conj = run_variant(&t, Variant::ConjEO, &cfg);
        let dc: std::collections::BTreeSet<_> = disj.coverages().cloned().collect();
        let cc: std::collections::BTreeSet<_> = conj.coverages().cloned().collect();
        assert_eq!(dc, cc, "∨-free trees make the variants identical");
    }
}
