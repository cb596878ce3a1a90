//! The `FUZZ_report.json` artifact: hand-rolled JSON (the workspace has no
//! serde), well-formedness-checked by `cqi_instance::json_well_formed`
//! before it leaves the process.

use std::fmt::Write as _;

use cqi_instance::json_escape;

use crate::driver::{CaseOutcome, SweepSummary};
use crate::oracle::DivergenceKind;

/// Renders the sweep summary as a JSON document.
pub fn render(summary: &SweepSummary) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"master_seed\": {},", summary.master_seed);
    let _ = writeln!(s, "  \"cases\": {},", summary.cases.len());
    let _ = writeln!(s, "  \"passed\": {},", summary.passed());
    let _ = writeln!(s, "  \"skipped\": {},", summary.skipped());
    let _ = writeln!(s, "  \"divergences\": {},", summary.divergences());
    let _ = writeln!(s, "  \"instances_accepted\": {},", summary.accepted());
    let _ = writeln!(s, "  \"instances_checked\": {},", summary.checked());
    let _ = writeln!(s, "  \"baseline_checks\": {},", summary.baseline_checks());
    let _ = writeln!(s, "  \"crossvariant_checks\": {},", summary.crossvariant_checks());
    s.push_str("  \"kind_counts\": {");
    let counts = summary.kind_counts();
    for (i, (kind, n)) in counts.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\": {n}", kind.as_str());
    }
    s.push_str("},\n");
    s.push_str("  \"failures\": [");
    let mut first = true;
    for c in &summary.cases {
        let CaseOutcome::Diverged { kind, detail, shrunk } = &c.outcome else {
            continue;
        };
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str("\n    {\n");
        let _ = writeln!(s, "      \"index\": {},", c.index);
        let _ = writeln!(s, "      \"seed\": {},", c.seed);
        let _ = writeln!(s, "      \"variant\": \"{}\",", json_escape(&c.variant));
        let _ = writeln!(s, "      \"threads\": {},", c.threads);
        let _ = writeln!(s, "      \"enforce_keys\": {},", c.enforce_keys);
        let _ = writeln!(s, "      \"kind\": \"{}\",", kind.as_str());
        let _ = writeln!(s, "      \"detail\": \"{}\",", json_escape(detail));
        let _ = writeln!(
            s,
            "      \"shrunk_relations\": {},",
            shrunk.spec.schema.relations.len()
        );
        let _ = writeln!(s, "      \"shrunk_atoms\": {},", shrunk.spec.query.num_atoms());
        let _ = writeln!(s, "      \"shrink_steps\": {},", shrunk.steps);
        let _ = writeln!(s, "      \"ddl\": \"{}\",", json_escape(&shrunk.spec.schema.to_ddl()));
        let _ = writeln!(s, "      \"drc\": \"{}\"", json_escape(&shrunk.spec.drc()));
        s.push_str("    }");
    }
    if !first {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// A human-readable one-paragraph repro, printed to stderr on failure so a
/// divergence is actionable straight from the CI log.
pub fn render_repro(seed: u64, kind: DivergenceKind, detail: &str, case: &crate::spec::CaseSpec) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "=== divergence: {} (seed {seed}) ===", kind.as_str());
    let _ = writeln!(s, "{detail}");
    let _ = writeln!(s, "--- schema (runnable Rust) ---");
    let _ = writeln!(s, "{}", case.schema.to_ddl());
    let _ = writeln!(s, "--- query (DRC) ---");
    let _ = writeln!(s, "{}", case.drc());
    if let Some(second) = case.drc_second() {
        let _ = writeln!(s, "--- second query (DRC) ---");
        let _ = writeln!(s, "{second}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{sweep, SweepOptions};
    use crate::gen::GenKnobs;
    use crate::spec::Mutation;
    use cqi_instance::json_well_formed;

    #[test]
    fn clean_sweep_report_is_well_formed_json() {
        let summary = sweep(&SweepOptions {
            cases: 16,
            master_seed: 7,
            knobs: GenKnobs::default(),
            mutation: None,
            deadline_ms: 4000,
        });
        let j = render(&summary);
        assert!(json_well_formed(&j), "{j}");
        assert!(j.contains("\"divergences\": 0"), "{j}");
    }

    #[test]
    fn failing_sweep_report_carries_a_shrunk_repro() {
        let summary = sweep(&SweepOptions {
            cases: 48,
            master_seed: 7,
            knobs: GenKnobs::default(),
            mutation: Some(Mutation::NegateFirstCmp),
            deadline_ms: 4000,
        });
        assert!(summary.divergences() > 0, "injected bug not caught in 48 cases");
        let j = render(&summary);
        assert!(json_well_formed(&j), "{j}");
        assert!(j.contains("\"kind\": \"ground-unsat\""), "{j}");
        assert!(j.contains("Schema::builder()"), "{j}");
    }
}
