//! Minimal c-solutions (Definition 10) and the minimality post-processing
//! of §4.2 ("for each c-instance in the set, we get all other c-instances
//! with the same coverage and remove all but the minimal one").

use std::collections::HashMap;
use std::time::Duration;

use cqi_drc::Coverage;
use cqi_instance::{json_escape, CInstance};

use crate::chase::ChaseStats;

/// Why an explain/chase run stopped before exhausting the search space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupted {
    /// The request's wall-clock deadline
    /// ([`ExplainRequest::deadline`](crate::ExplainRequest::deadline))
    /// expired.
    Deadline,
    /// A [`crate::CancelToken`] fired mid-drive, or the streaming consumer
    /// stopped (an `explain_with` callback returned `false`, or a
    /// `SolutionStream` was dropped).
    Cancelled,
}

impl Interrupted {
    pub fn as_str(self) -> &'static str {
        match self {
            Interrupted::Deadline => "deadline",
            Interrupted::Cancelled => "cancelled",
        }
    }
}

/// One satisfying c-instance as it leaves the chase, already validated
/// against the original syntax tree and annotated with its coverage — the
/// item type of a streaming `SolutionStream` (§5.1 interactivity: instances
/// are useful *as they arrive*, before minimization).
#[derive(Clone, Debug)]
pub struct AcceptedInstance {
    /// Position in the deterministic *validated* accepted stream
    /// (0-based). Identical across thread budgets — the runtime's
    /// determinism guarantee. Note this indexes the stream, not the raw
    /// accepted log: under conjunctive variants an accept that fails the
    /// original-tree re-check is counted by `CSolution::raw_accepted` but
    /// never streamed.
    pub ordinal: usize,
    pub inst: CInstance,
    pub coverage: Coverage,
    /// Wall-clock offset from the start of the drive at the moment of
    /// acceptance.
    pub accepted_at: Duration,
}

impl AcceptedInstance {
    pub fn size(&self) -> usize {
        self.inst.size()
    }

    /// Serde-free JSON rendering for service responses: ordinal, timing,
    /// coverage, and the full instance (see [`CInstance::to_json`]).
    pub fn to_json(&self) -> String {
        instance_entry_json(
            &format!("\"ordinal\": {}", self.ordinal),
            &self.inst,
            &self.coverage,
            self.accepted_at,
        )
    }
}

/// The shared JSON shape of one rendered instance entry: a leading field,
/// then timing, coverage, and the full instance. Both
/// [`AcceptedInstance::to_json`] and [`CSolution::to_json`] emit it, so
/// service consumers parse a single schema.
fn instance_entry_json(
    lead: &str,
    inst: &CInstance,
    coverage: &Coverage,
    accepted_at: Duration,
) -> String {
    let cov: Vec<String> = coverage.iter().map(|l| l.0.to_string()).collect();
    format!(
        "{{{lead}, \"accepted_at_ms\": {:.3}, \"coverage\": [{}], \"instance\": {}}}",
        accepted_at.as_secs_f64() * 1e3,
        cov.join(", "),
        inst.to_json()
    )
}

/// One satisfying c-instance together with its coverage and the moment it
/// was accepted by the search.
#[derive(Clone, Debug)]
pub struct SatInstance {
    pub inst: CInstance,
    pub coverage: Coverage,
    pub accepted_at: Duration,
}

impl SatInstance {
    pub fn size(&self) -> usize {
        self.inst.size()
    }
}

/// The result of one chase run: a minimal c-solution plus run statistics.
#[derive(Clone, Debug)]
pub struct CSolution {
    /// Minimal c-instances, one per distinct coverage, in the order they
    /// appear in the deterministic accepted stream (identical under every
    /// thread budget; under root fan-out the `accepted_at` stamps of
    /// different root jobs may interleave).
    pub instances: Vec<SatInstance>,
    /// Satisfying instances accepted before minimization.
    pub raw_accepted: usize,
    /// `Some` when the run stopped early (deadline or cancellation); the
    /// instances found so far are still returned. A run that saw both a
    /// deadline and a cancellation reports `Cancelled`.
    pub interrupted: Option<Interrupted>,
    pub total_time: Duration,
    /// Engine counters for this run: root fan-outs, steals, memo tier hit
    /// rates, dedupe traffic (all zero when the producing path doesn't run a
    /// chase, e.g. the trivially-unsatisfiable short-circuit).
    pub stats: ChaseStats,
    /// Chrome trace-event JSON of the run's span tree (`cqi-obs`), captured
    /// when the request asked for it
    /// ([`ExplainRequest::trace`](crate::ExplainRequest::trace)). Load it in
    /// Perfetto or `chrome://tracing`.
    /// `None` on untraced runs.
    pub trace: Option<String>,
}

impl CSolution {
    /// Number of distinct coverages (the y-axis of Fig. 10 left / Fig. 11
    /// right).
    pub fn num_coverages(&self) -> usize {
        self.instances.len()
    }

    /// Mean instance size (the "Ins. Size of Joint Cov." axis of Fig. 10,
    /// computed over a caller-chosen subset of common coverages).
    pub fn mean_size(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances.iter().map(|i| i.size() as f64).sum::<f64>() / self.instances.len() as f64
    }

    pub fn coverages(&self) -> impl Iterator<Item = &Coverage> {
        self.instances.iter().map(|i| &i.coverage)
    }

    /// Union of all covered leaves.
    pub fn covered_union(&self) -> Coverage {
        let mut out = Coverage::new();
        for i in &self.instances {
            out.extend(i.coverage.iter().copied());
        }
        out
    }

    /// Time until the first instance was emitted (§5.1 interactivity).
    pub fn time_to_first(&self) -> Option<Duration> {
        self.instances.iter().map(|i| i.accepted_at).min()
    }

    /// Serde-free JSON rendering of the whole solution for service
    /// responses: run status/statistics plus every minimal instance with
    /// its coverage and rendered conditions.
    pub fn to_json(&self) -> String {
        let status = match self.interrupted {
            None => "complete",
            Some(i) => i.as_str(),
        };
        let instances: Vec<String> = self
            .instances
            .iter()
            .map(|si| {
                instance_entry_json(
                    &format!("\"size\": {}", si.size()),
                    &si.inst,
                    &si.coverage,
                    si.accepted_at,
                )
            })
            .collect();
        format!(
            "{{\"status\": \"{}\", \"raw_accepted\": {}, \"total_time_ms\": {:.3}, \"stats\": {}, \"instances\": [{}]}}",
            json_escape(status),
            self.raw_accepted,
            self.total_time.as_secs_f64() * 1e3,
            self.stats.to_json(),
            instances.join(", ")
        )
    }

    /// Mean delay between consecutive emissions of instances with distinct
    /// coverage (§5.1 interactivity).
    pub fn mean_gap(&self) -> Option<Duration> {
        let mut times: Vec<Duration> = self.instances.iter().map(|i| i.accepted_at).collect();
        times.sort();
        if times.len() < 2 {
            return None;
        }
        let total: Duration = times.windows(2).map(|w| w[1] - w[0]).sum();
        Some(total / (times.len() as u32 - 1))
    }
}

/// Keeps, for every distinct coverage, one instance of minimum size
/// (Definitions 9/10), breaking ties by acceptance order. The survivors
/// keep their order in `accepted` — the deterministic accepted stream —
/// so the result is the same under any thread budget, whatever the
/// wall-clock stamps say.
pub fn minimize(accepted: Vec<(CInstance, Coverage, Duration)>) -> Vec<SatInstance> {
    let mut best: HashMap<Coverage, (usize, SatInstance)> = HashMap::new();
    for (pos, (inst, coverage, accepted_at)) in accepted.into_iter().enumerate() {
        let cand = SatInstance {
            inst,
            coverage: coverage.clone(),
            accepted_at,
        };
        match best.get(&coverage) {
            Some((_, cur)) if cur.size() <= cand.size() => {}
            _ => {
                best.insert(coverage, (pos, cand));
            }
        }
    }
    let mut out: Vec<(usize, SatInstance)> = best.into_values().collect();
    out.sort_unstable_by_key(|(pos, _)| *pos);
    out.into_iter().map(|(_, si)| si).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::LeafId;
    use cqi_schema::{DomainType, Schema};
    use std::sync::Arc;

    fn inst_of_size(n: usize) -> CInstance {
        let s = Arc::new(
            Schema::builder()
                .relation("R", &[("a", DomainType::Int)])
                .build()
                .unwrap(),
        );
        let mut i = CInstance::new(Arc::clone(&s));
        let rel = s.rel_id("R").unwrap();
        for k in 0..n {
            let x = i.fresh_null(format!("x{k}"), s.attr_domain(rel, 0));
            i.add_tuple(rel, vec![x.into()]);
        }
        i
    }

    fn cov(ids: &[u32]) -> Coverage {
        ids.iter().map(|i| LeafId(*i)).collect()
    }

    #[test]
    fn minimize_keeps_smallest_per_coverage() {
        let accepted = vec![
            (inst_of_size(3), cov(&[0, 1]), Duration::from_millis(5)),
            (inst_of_size(2), cov(&[0, 1]), Duration::from_millis(9)),
            (inst_of_size(4), cov(&[0, 1, 2]), Duration::from_millis(7)),
        ];
        let out = minimize(accepted);
        assert_eq!(out.len(), 2);
        let small = out.iter().find(|i| i.coverage == cov(&[0, 1])).unwrap();
        assert_eq!(small.size(), 2);
    }

    #[test]
    fn solution_statistics() {
        let out = minimize(vec![
            (inst_of_size(1), cov(&[0]), Duration::from_millis(10)),
            (inst_of_size(3), cov(&[1]), Duration::from_millis(40)),
            (inst_of_size(2), cov(&[0, 1]), Duration::from_millis(70)),
        ]);
        let sol = CSolution {
            instances: out,
            raw_accepted: 3,
            interrupted: None,
            total_time: Duration::from_millis(80),
            stats: ChaseStats::default(),
            trace: None,
        };
        assert_eq!(sol.num_coverages(), 3);
        assert!((sol.mean_size() - 2.0).abs() < 1e-9);
        assert_eq!(sol.time_to_first(), Some(Duration::from_millis(10)));
        assert_eq!(sol.mean_gap(), Some(Duration::from_millis(30)));
        assert_eq!(sol.covered_union(), cov(&[0, 1]));
    }

    #[test]
    fn minimal_instances_keep_stream_order_not_timestamp_order() {
        // Under root fan-out the stream is in job order while the
        // wall-clock stamps of different jobs interleave.
        let out = minimize(vec![
            (inst_of_size(1), cov(&[0]), Duration::from_millis(9)),
            (inst_of_size(3), cov(&[1]), Duration::from_millis(2)),
            (inst_of_size(2), cov(&[1]), Duration::from_millis(5)),
            (inst_of_size(1), cov(&[2]), Duration::from_millis(1)),
        ]);
        let order: Vec<(Coverage, usize)> = out
            .iter()
            .map(|si| (si.coverage.clone(), si.size()))
            .collect();
        assert_eq!(order, vec![(cov(&[0]), 1), (cov(&[1]), 2), (cov(&[2]), 1)]);
    }

    #[test]
    fn tie_breaks_by_first_acceptance() {
        let out = minimize(vec![
            (inst_of_size(2), cov(&[0]), Duration::from_millis(1)),
            (inst_of_size(2), cov(&[0]), Duration::from_millis(2)),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].accepted_at, Duration::from_millis(1));
    }
}
