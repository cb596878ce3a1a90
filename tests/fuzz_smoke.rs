//! Repo-level smoke test of the differential fuzzing campaign: one full
//! rotation of the variant × config matrix stays clean, the fault-injection
//! self-test catches and shrinks an injected soundness bug, and the report
//! artifact is well-formed JSON.

use cqi::fuzz::driver::{sweep, CaseOutcome, SweepOptions};
use cqi::fuzz::report;
use cqi::fuzz::spec::Mutation;
use cqi::fuzz::GenKnobs;
use cqi::instance::json_well_formed;

/// 48 cases = all 4 config cells × all 6 chase variants, twice.
#[test]
fn one_matrix_rotation_is_clean() {
    let summary = sweep(&SweepOptions {
        cases: 48,
        master_seed: 0,
        knobs: GenKnobs::default(),
        mutation: None,
        deadline_ms: 5000,
    });
    assert_eq!(summary.divergences(), 0, "{}", report::render(&summary));
    assert_eq!(summary.passed() + summary.skipped(), 48);
    assert!(summary.checked() > 0, "sweep never exercised the oracle");
    let json = report::render(&summary);
    assert!(json_well_formed(&json), "{json}");
}

/// The acceptance-criterion self-test at the integration level: a
/// deliberately broken comparison is caught as a divergence and shrunk to a
/// ≤ 3-relation, ≤ 4-atom repro that renders as runnable DDL + DRC.
#[test]
fn injected_bug_caught_and_shrunk() {
    let summary = sweep(&SweepOptions {
        cases: 48,
        master_seed: 0,
        knobs: GenKnobs::default(),
        mutation: Some(Mutation::NegateFirstCmp),
        deadline_ms: 5000,
    });
    assert!(summary.divergences() > 0, "injected bug went unnoticed");
    let mut saw_repro = false;
    for c in &summary.cases {
        if let CaseOutcome::Diverged { shrunk, .. } = &c.outcome {
            assert!(shrunk.spec.schema.relations.len() <= 3);
            assert!(shrunk.spec.query.num_atoms() <= 4);
            let ddl = shrunk.spec.schema.to_ddl();
            assert!(ddl.starts_with("Schema::builder()") && ddl.ends_with(".unwrap()"));
            assert!(shrunk.spec.drc().starts_with('{'), "{}", shrunk.spec.drc());
            saw_repro = true;
        }
    }
    assert!(saw_repro);
}
