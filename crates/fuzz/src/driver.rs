//! The sweep driver: generate → run → (on divergence) shrink, over the
//! deterministic case/config matrix.

use std::time::Duration;

use crate::gen::{gen_case, GenKnobs};
use crate::oracle::{run_case, CaseConfig, DivergenceKind};
use crate::shrink::shrink_case;
use crate::spec::{CaseSpec, Mutation};

/// splitmix64: decorrelates per-case seeds from the master seed so
/// neighbouring cases don't share RNG prefixes.
pub fn case_seed(master_seed: u64, index: usize) -> u64 {
    let mut z = master_seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sweep parameters (both the bounded CI mode and each soak chunk).
#[derive(Clone, Debug)]
pub struct SweepOptions {
    pub cases: usize,
    pub master_seed: u64,
    pub knobs: GenKnobs,
    /// Fault injection for the harness self-test: the chase runs the
    /// mutated query while the oracle keeps the original.
    pub mutation: Option<Mutation>,
    /// Per-case chase deadline.
    pub deadline_ms: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            cases: 500,
            master_seed: 0,
            knobs: GenKnobs::default(),
            mutation: None,
            deadline_ms: 1500,
        }
    }
}

/// A failing case after shrinking.
#[derive(Clone, Debug)]
pub struct Shrunk {
    pub spec: CaseSpec,
    /// Accepted shrink steps (0 = the original case was already minimal).
    pub steps: usize,
}

#[derive(Clone, Debug)]
pub enum CaseOutcome {
    Passed,
    /// Chase deadline expired before exhausting the budget — the instances
    /// found in time were still oracle-checked.
    Skipped(String),
    Diverged {
        kind: DivergenceKind,
        detail: String,
        shrunk: Box<Shrunk>,
    },
}

/// One row of the sweep: the case's coordinates plus its outcome.
#[derive(Clone, Debug)]
pub struct CaseRecord {
    pub index: usize,
    pub seed: u64,
    pub variant: String,
    pub threads: usize,
    pub enforce_keys: bool,
    pub accepted: usize,
    pub checked: usize,
    pub outcome: CaseOutcome,
}

#[derive(Clone, Debug, Default)]
pub struct SweepSummary {
    pub master_seed: u64,
    pub cases: Vec<CaseRecord>,
    baseline_total: usize,
    crossvariant_total: usize,
}

impl SweepSummary {
    pub fn passed(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| matches!(c.outcome, CaseOutcome::Passed))
            .count()
    }
    pub fn skipped(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| matches!(c.outcome, CaseOutcome::Skipped(_)))
            .count()
    }
    pub fn divergences(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| matches!(c.outcome, CaseOutcome::Diverged { .. }))
            .count()
    }
    pub fn accepted(&self) -> usize {
        self.cases.iter().map(|c| c.accepted).sum()
    }
    pub fn checked(&self) -> usize {
        self.cases.iter().map(|c| c.checked).sum()
    }
    pub fn baseline_checks(&self) -> usize {
        self.baseline_total
    }
    pub fn crossvariant_checks(&self) -> usize {
        self.crossvariant_total
    }
    /// Divergence counts grouped by kind, in first-seen order.
    pub fn kind_counts(&self) -> Vec<(DivergenceKind, usize)> {
        let mut counts: Vec<(DivergenceKind, usize)> = Vec::new();
        for c in &self.cases {
            if let CaseOutcome::Diverged { kind, .. } = &c.outcome {
                match counts.iter_mut().find(|(k, _)| k == kind) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((*kind, 1)),
                }
            }
        }
        counts
    }
}

/// Runs one case end to end, shrinking on divergence.
pub fn run_one(index: usize, opts: &SweepOptions) -> (CaseRecord, usize, usize) {
    let seed = case_seed(opts.master_seed, index);
    let case = gen_case(seed, &opts.knobs);
    let cfg = CaseConfig::for_case(index, Duration::from_millis(opts.deadline_ms));
    let rep = run_case(&case, &cfg, opts.mutation, seed);
    let outcome = match (&rep.divergence, &rep.skipped) {
        (Some(d), _) => {
            let kind = d.kind;
            let min = shrink_case(case, |c| {
                run_case(c, &cfg, opts.mutation, seed).divergence.is_some()
            });
            CaseOutcome::Diverged {
                kind,
                detail: d.detail.clone(),
                shrunk: Box::new(Shrunk {
                    spec: min.value,
                    steps: min.steps,
                }),
            }
        }
        (None, Some(why)) => CaseOutcome::Skipped(why.clone()),
        (None, None) => CaseOutcome::Passed,
    };
    (
        CaseRecord {
            index,
            seed,
            variant: cfg.variant.to_string(),
            threads: cfg.threads,
            enforce_keys: cfg.enforce_keys,
            accepted: rep.accepted,
            checked: rep.checked,
            outcome,
        },
        rep.baseline_checks,
        rep.crossvariant_checks,
    )
}

/// The bounded, seed-pinned deterministic sweep (the CI mode).
pub fn sweep(opts: &SweepOptions) -> SweepSummary {
    let mut summary = SweepSummary {
        master_seed: opts.master_seed,
        ..Default::default()
    };
    for index in 0..opts.cases {
        let (record, baseline, crossvariant) = run_one(index, opts);
        summary.baseline_total += baseline;
        summary.crossvariant_total += crossvariant;
        summary.cases.push(record);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_decorrelated() {
        let a: Vec<u64> = (0..16).map(|i| case_seed(0, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| case_seed(1, i)).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
    }

    #[test]
    fn sweep_is_deterministic() {
        let opts = SweepOptions {
            cases: 12,
            deadline_ms: 4000,
            ..Default::default()
        };
        let a = sweep(&opts);
        let b = sweep(&opts);
        assert_eq!(a.passed(), b.passed());
        assert_eq!(a.accepted(), b.accepted());
        assert_eq!(a.checked(), b.checked());
        for (x, y) in a.cases.iter().zip(&b.cases) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.accepted, y.accepted);
        }
    }

    /// The acceptance-criterion self-test: an injected soundness bug is
    /// caught and shrinks to a ≤ 3-relation, ≤ 4-atom repro.
    #[test]
    fn injected_bug_is_caught_and_shrunk_small() {
        let opts = SweepOptions {
            cases: 48,
            deadline_ms: 4000,
            mutation: Some(Mutation::NegateFirstCmp),
            ..Default::default()
        };
        let summary = sweep(&opts);
        assert!(
            summary.divergences() > 0,
            "no divergence from injected bug in 48 cases"
        );
        for c in &summary.cases {
            if let CaseOutcome::Diverged { shrunk, .. } = &c.outcome {
                assert!(
                    shrunk.spec.schema.relations.len() <= 3,
                    "repro too large: {} relations\n{}",
                    shrunk.spec.schema.relations.len(),
                    shrunk.spec.schema.to_ddl()
                );
                assert!(
                    shrunk.spec.query.num_atoms() <= 4,
                    "repro too large: {} atoms\n{}",
                    shrunk.spec.query.num_atoms(),
                    shrunk.spec.drc()
                );
            }
        }
    }
}
