//! The differential oracle: every c-instance a chase accepts must ground
//! into a world that independently satisfies the query.
//!
//! The chase validates internally (Tree-SAT + solver consistency), but both
//! checks share code and assumptions with the search itself. The oracle
//! re-derives the verdict through a disjoint pipeline —
//! [`ground_instance`] picks one concrete world from the c-instance's
//! condition, then [`cqi_eval::satisfies`] evaluates the query bottom-up
//! over the active domain — so a soundness bug in either side shows up as a
//! divergence instead of a silently wrong explanation. On top of the
//! per-instance check, [`run_case`] layers cross-variant coverage dominance
//! (`*-Add ⊇ *-EO`) and the `cosette`/`ratest` baseline cross-checks.

use std::time::Duration;

use cqi_baseline::{cosette, generate_database_with_stats, minimal_counterexample};
use cqi_core::{CSolution, ChaseConfig, ExplainRequest, Session, Variant};
use cqi_drc::{Query, SyntaxTree};
use cqi_eval::{coverage_of_ground, evaluate, satisfies};
use cqi_instance::ground_instance;

use crate::spec::{CaseSpec, Mutation};

/// The CI config matrix of the acceptance criteria:
/// `(threads, enforce_keys)`.
pub const CONFIG_MATRIX: [(usize, bool); 4] = [(1, true), (4, true), (1, false), (4, false)];

/// Effective per-case configuration: one cell of the config matrix plus a
/// chase variant and budget knobs.
#[derive(Clone, Debug)]
pub struct CaseConfig {
    pub variant: Variant,
    pub threads: usize,
    pub enforce_keys: bool,
    /// Chase instance-size limit (small: keeps even Naive variants fast).
    pub limit: usize,
    /// Accepted-instance cap per run.
    pub max_results: usize,
    /// Per-run wall-clock budget; expiry downgrades the case to a skip.
    pub deadline: Duration,
}

impl CaseConfig {
    /// Deterministic assignment of case `index` to a matrix cell and a
    /// variant: all 4 cells × all 6 variants cycle with period 24, so a
    /// ≥ 500-case sweep visits every combination ≥ 20 times.
    pub fn for_case(index: usize, deadline: Duration) -> CaseConfig {
        let (threads, enforce_keys) = CONFIG_MATRIX[index % CONFIG_MATRIX.len()];
        let variant = Variant::ALL[(index / CONFIG_MATRIX.len()) % Variant::ALL.len()];
        CaseConfig {
            variant,
            threads,
            enforce_keys,
            limit: 5,
            max_results: 4,
            deadline,
        }
    }

    pub fn chase_config(&self) -> ChaseConfig {
        ChaseConfig::with_limit(self.limit)
            .enforce_keys(self.enforce_keys)
            .threads(self.threads)
            .max_results(self.max_results)
            .timeout(self.deadline)
    }
}

/// What kind of disagreement the oracle observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The chase accepted a c-instance whose condition has no consistent
    /// model (grounding failed).
    InconsistentAccept,
    /// A grounded accepted instance does not satisfy the query under
    /// independent ground evaluation — the core soundness divergence.
    GroundUnsat,
    /// The grounded world satisfies the query but `eval::coverage` says no
    /// leaf is covered (eval-internal disagreement).
    EmptyCoverage,
    /// `*-EO` covered a leaf the corresponding `*-Add` run missed.
    CoverageRegression,
    /// `cosette` returned a "counterexample" both queries agree on.
    BaselineCosette,
    /// `ratest` minimized a "counterexample" both queries agree on.
    BaselineRatest,
    /// The database generator's stats disagree with the instance it built.
    GeneratorStats,
    /// A spec failed to build — a fuzzer bug, reported loudly rather than
    /// skipped silently.
    SpecBuild,
}

impl DivergenceKind {
    pub fn as_str(self) -> &'static str {
        match self {
            DivergenceKind::InconsistentAccept => "inconsistent-accept",
            DivergenceKind::GroundUnsat => "ground-unsat",
            DivergenceKind::EmptyCoverage => "empty-coverage",
            DivergenceKind::CoverageRegression => "coverage-regression",
            DivergenceKind::BaselineCosette => "baseline-cosette",
            DivergenceKind::BaselineRatest => "baseline-ratest",
            DivergenceKind::GeneratorStats => "generator-stats",
            DivergenceKind::SpecBuild => "spec-build",
        }
    }
}

/// One observed divergence.
#[derive(Clone, Debug)]
pub struct Divergence {
    pub kind: DivergenceKind,
    pub detail: String,
}

/// The outcome of one case under one configuration.
#[derive(Clone, Debug, Default)]
pub struct CaseReport {
    /// Accepted instances across the primary (and any EO-counterpart) run.
    pub accepted: usize,
    /// Instances that went through the full grounding oracle.
    pub checked: usize,
    /// `Some(reason)` when the chase hit its deadline — the case counts as
    /// skipped rather than passed, but instances found before the cutoff
    /// were still checked.
    pub skipped: Option<String>,
    /// Baseline cross-checks performed (0 for single-query cases).
    pub baseline_checks: usize,
    /// 1 when the Add-vs-EO dominance comparison ran.
    pub crossvariant_checks: usize,
    pub divergence: Option<Divergence>,
}

/// Runs every accepted instance of `sol` through the grounding +
/// `eval::satisfies` + `eval::coverage` oracle against `q` (which must be
/// the *original* query — under fault injection the chase ran a mutated
/// one). Returns the number of instances checked.
///
/// This is the exact oracle `tests/soundness_props.rs` reuses.
pub fn check_solution(
    q: &Query,
    sol: &CSolution,
    enforce_keys: bool,
) -> Result<usize, Divergence> {
    for (i, si) in sol.instances.iter().enumerate() {
        let Some(g) = ground_instance(&si.inst, enforce_keys) else {
            return Err(Divergence {
                kind: DivergenceKind::InconsistentAccept,
                detail: format!("instance #{i} has no consistent model:\n{}", si.inst),
            });
        };
        if enforce_keys && !g.satisfies_keys() {
            return Err(Divergence {
                kind: DivergenceKind::InconsistentAccept,
                detail: format!("instance #{i} grounded into a key-violating world:\n{g}"),
            });
        }
        if !satisfies(q, &g) {
            return Err(Divergence {
                kind: DivergenceKind::GroundUnsat,
                detail: format!(
                    "instance #{i} grounds into a world that fails the query\nc-instance:\n{}\nworld:\n{g}",
                    si.inst
                ),
            });
        }
        if coverage_of_ground(q, &g).is_empty() {
            return Err(Divergence {
                kind: DivergenceKind::EmptyCoverage,
                detail: format!(
                    "instance #{i}: world satisfies the query but covers no leaf:\n{g}"
                ),
            });
        }
    }
    Ok(sol.instances.len())
}

/// `*-Add` runs must cover (in union) at least what their `*-EO` base
/// covers — the invariant the Add phase exists to strengthen.
fn eo_counterpart(v: Variant) -> Option<Variant> {
    match v {
        Variant::DisjAdd => Some(Variant::DisjEO),
        Variant::ConjAdd => Some(Variant::ConjEO),
        _ => None,
    }
}

/// Variable budget above which the baseline cross-checks are skipped:
/// `evaluate` on a generated database is exponential in the variable
/// count, and pairs beyond this size stop being "shapes the baselines
/// support" in reasonable time.
const BASELINE_MAX_VARS: usize = 6;

/// Runs one case end to end: chase through [`Session`], oracle-check every
/// accepted instance, then the cross-variant and baseline comparisons.
/// `mutation` injects a soundness bug into the *chased* query only (the
/// oracle keeps the original) — the harness's self-test hook.
pub fn run_case(
    case: &CaseSpec,
    cfg: &CaseConfig,
    mutation: Option<Mutation>,
    case_seed: u64,
) -> CaseReport {
    let mut report = CaseReport::default();

    let (schema, chased) = match case.build(mutation) {
        Ok(ok) => ok,
        Err(e) => {
            report.divergence = Some(Divergence {
                kind: DivergenceKind::SpecBuild,
                detail: format!("{e:?}"),
            });
            return report;
        }
    };
    // The oracle's query: the original, never the mutated one.
    let oracle_q = match mutation {
        None => chased.clone(),
        Some(_) => match case.query.build(&schema, None) {
            Ok(q) => q,
            Err(e) => {
                report.divergence = Some(Divergence {
                    kind: DivergenceKind::SpecBuild,
                    detail: format!("oracle build: {e:?}"),
                });
                return report;
            }
        },
    };

    let session = Session::new(schema.clone()).config(cfg.chase_config());
    let tree = SyntaxTree::new(chased);
    let sol = match session.explain_collect(ExplainRequest::tree(&tree).variant(cfg.variant)) {
        Ok(sol) => sol,
        Err(e) => {
            report.divergence = Some(Divergence {
                kind: DivergenceKind::SpecBuild,
                detail: format!("explain: {e:?}"),
            });
            return report;
        }
    };
    report.accepted += sol.instances.len();
    match check_solution(&oracle_q, &sol, cfg.enforce_keys) {
        Ok(n) => report.checked += n,
        Err(d) => {
            report.divergence = Some(Divergence {
                detail: format!("[{} {}] {}", cfg.variant, matrix_tag(cfg), d.detail),
                ..d
            });
            return report;
        }
    }
    if sol.interrupted.is_some() {
        report.skipped = Some(format!("{}: deadline", cfg.variant));
        return report;
    }

    // Cross-variant agreement: Add dominates its EO base's coverage union.
    if mutation.is_none() {
        if let Some(eo) = eo_counterpart(cfg.variant) {
            let eo_sol =
                match session.explain_collect(ExplainRequest::tree(&tree).variant(eo)) {
                    Ok(sol) => sol,
                    Err(e) => {
                        report.divergence = Some(Divergence {
                            kind: DivergenceKind::SpecBuild,
                            detail: format!("explain eo: {e:?}"),
                        });
                        return report;
                    }
                };
            report.accepted += eo_sol.instances.len();
            match check_solution(&oracle_q, &eo_sol, cfg.enforce_keys) {
                Ok(n) => report.checked += n,
                Err(d) => {
                    report.divergence = Some(Divergence {
                        detail: format!("[{eo} {}] {}", matrix_tag(cfg), d.detail),
                        ..d
                    });
                    return report;
                }
            }
            if eo_sol.interrupted.is_none() {
                let eo_union = eo_sol.covered_union();
                let add_union = sol.covered_union();
                report.crossvariant_checks += 1;
                if !eo_union.is_subset(&add_union) {
                    report.divergence = Some(Divergence {
                        kind: DivergenceKind::CoverageRegression,
                        detail: format!(
                            "[{}] {eo} covers {eo_union:?} ⊄ {} {add_union:?}",
                            matrix_tag(cfg),
                            cfg.variant
                        ),
                    });
                    return report;
                }
            }
        }
    }

    // Baseline comparison on query pairs (the shapes cosette/ratest take).
    if let (Some(second), None) = (&case.second, mutation) {
        let total_vars = |q: &crate::spec::QuerySpec| {
            q.num_vars + q.foralls.iter().map(|f| f.num_bound()).sum::<usize>()
        };
        if total_vars(&case.query) <= BASELINE_MAX_VARS
            && total_vars(second) <= BASELINE_MAX_VARS
        {
            let q2 = match second.build(&schema, None) {
                Ok(q) => q,
                Err(e) => {
                    report.divergence = Some(Divergence {
                        kind: DivergenceKind::SpecBuild,
                        detail: format!("second build: {e:?}"),
                    });
                    return report;
                }
            };
            // Cosette: any counterexample must actually distinguish.
            report.baseline_checks += 1;
            if let Ok(Some(ce)) = cosette(&oracle_q, &q2, cfg.limit, cfg.deadline) {
                if evaluate(&oracle_q, &ce) == evaluate(&q2, &ce) {
                    report.divergence = Some(Divergence {
                        kind: DivergenceKind::BaselineCosette,
                        detail: format!(
                            "cosette counterexample does not distinguish the queries:\n{ce}"
                        ),
                    });
                    return report;
                }
            }
            // RATest over a generated database: stats must match the
            // instance, and any minimized counterexample must distinguish.
            report.baseline_checks += 1;
            let (db, stats) = generate_database_with_stats(&schema, 4, case_seed);
            if stats.inserted() != db.num_tuples()
                || !db.satisfies_keys()
                || !db.satisfies_foreign_keys()
            {
                report.divergence = Some(Divergence {
                    kind: DivergenceKind::GeneratorStats,
                    detail: format!(
                        "generator stats/instance disagree: stats say {} tuples, db has {} (keys ok: {}, fks ok: {})",
                        stats.inserted(),
                        db.num_tuples(),
                        db.satisfies_keys(),
                        db.satisfies_foreign_keys()
                    ),
                });
                return report;
            }
            if let Some(ce) = minimal_counterexample(&oracle_q, &q2, &db) {
                if evaluate(&oracle_q, &ce) == evaluate(&q2, &ce) {
                    report.divergence = Some(Divergence {
                        kind: DivergenceKind::BaselineRatest,
                        detail: format!(
                            "ratest counterexample does not distinguish the queries:\n{ce}"
                        ),
                    });
                    return report;
                }
            }
        }
    }

    report
}

fn matrix_tag(cfg: &CaseConfig) -> String {
    format!("t{} keys={}", cfg.threads, cfg.enforce_keys as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_case, GenKnobs};

    #[test]
    fn matrix_rotation_covers_all_cells_and_variants() {
        let mut cells = std::collections::BTreeSet::new();
        let mut variants = std::collections::BTreeSet::new();
        for i in 0..24 {
            let c = CaseConfig::for_case(i, Duration::from_secs(1));
            cells.insert((c.threads, c.enforce_keys));
            variants.insert(c.variant);
        }
        assert_eq!(cells.len(), 4);
        assert_eq!(variants.len(), 6);
    }

    /// A handful of real cases through the full oracle: no divergence.
    #[test]
    fn small_clean_sweep_has_no_divergence() {
        let knobs = GenKnobs::default();
        for i in 0..24usize {
            let seed = 1000 + i as u64;
            let case = gen_case(seed, &knobs);
            let cfg = CaseConfig::for_case(i, Duration::from_secs(5));
            let rep = run_case(&case, &cfg, None, seed);
            assert!(
                rep.divergence.is_none(),
                "case {i} seed {seed} diverged: {:?}\nddl:\n{}\ndrc: {}",
                rep.divergence,
                case.schema.to_ddl(),
                case.drc()
            );
        }
    }

    /// The self-test of the whole harness: an injected broken comparison
    /// must be caught as a ground-unsat divergence on some case.
    #[test]
    fn injected_comparison_bug_is_caught() {
        let knobs = GenKnobs::default();
        let mut caught = false;
        for i in 0..64usize {
            let seed = 5000 + i as u64;
            let case = gen_case(seed, &knobs);
            if case.query.cmps.is_empty() {
                continue; // mutation is a no-op without a comparison
            }
            let cfg = CaseConfig::for_case(i, Duration::from_secs(5));
            let rep = run_case(&case, &cfg, Some(Mutation::NegateFirstCmp), seed);
            if let Some(d) = rep.divergence {
                assert_eq!(d.kind, DivergenceKind::GroundUnsat, "{}", d.detail);
                caught = true;
                break;
            }
        }
        assert!(caught, "no case caught the injected comparison bug");
    }
}
