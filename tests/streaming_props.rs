//! Property tests for the streaming explanation API: the `SolutionStream`
//! must yield the same instances in the same order as the batch API, under
//! any thread budget, and deadline/cancellation must return partial
//! results with an `Interrupted` status instead of hanging or panicking.

use std::sync::Arc;
use std::time::Duration;

use cqi::prelude::*;
use proptest::prelude::*;

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

const QUERIES: [&str; 5] = [
    "{ (b1) | exists d1 (Likes(d1, b1)) }",
    "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
    "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
    "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
    "{ (d1) | exists b1 (Likes(d1, b1)) and d1 like 'Eve%' }",
];

fn pick<T: Copy>(xs: &[T], i: u64) -> T {
    xs[(i as usize) % xs.len()]
}

/// Streams one request through `Session::explain` and returns the rendered
/// item sequence plus the collected solution.
fn streamed(
    s: &Arc<Schema>,
    tree: &SyntaxTree,
    variant: Variant,
    limit: usize,
    threads: usize,
) -> (Vec<String>, CSolution) {
    let cfg = ChaseConfig::with_limit(limit).threads(threads);
    let session = Session::new(Arc::clone(s)).config(cfg);
    let mut stream = session
        .explain(ExplainRequest::tree(tree).variant(variant))
        .unwrap();
    let items: Vec<String> = stream
        .by_ref()
        .map(|a| format!("{}@{:?}", a.inst, a.coverage))
        .collect();
    (items, stream.collect())
}

/// The minimal instances in solution order.
fn render_sol(sol: &CSolution) -> Vec<(String, String)> {
    sol.instances
        .iter()
        .map(|si| (format!("{:?}", si.coverage), format!("{}", si.inst)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming order is byte-identical between `threads = 1` and
    /// `threads = 4`, the collected solution equals the batch
    /// `run_variant` result instance by instance, in order, and every
    /// minimal instance of the batch solution appeared on the stream.
    #[test]
    fn streaming_order_matches_batch_across_threads(
        qi in any::<u64>(),
        vi in any::<u64>(),
        li in any::<u64>(),
    ) {
        let s = schema();
        let src = QUERIES[(qi as usize) % QUERIES.len()];
        let variant = pick(&Variant::ALL, vi);
        let limit = 4 + (li as usize) % 3; // 4..=6
        let tree = SyntaxTree::new(parse_query(&s, src).unwrap());

        let (seq_items, seq_sol) = streamed(&s, &tree, variant, limit, 1);
        let (par_items, par_sol) = streamed(&s, &tree, variant, limit, 4);
        prop_assert_eq!(&seq_items, &par_items,
            "stream must be byte-identical across thread budgets: {} {}", src, variant);

        let batch = run_variant(&tree, variant, &ChaseConfig::with_limit(limit));
        prop_assert_eq!(render_sol(&seq_sol), render_sol(&batch),
            "collect() must recover the batch solution: {} {}", src, variant);
        prop_assert_eq!(render_sol(&par_sol), render_sol(&batch));
        prop_assert_eq!(seq_sol.raw_accepted, batch.raw_accepted);

        for si in &batch.instances {
            let rendered = format!("{}@{:?}", si.inst, si.coverage);
            prop_assert!(
                seq_items.contains(&rendered),
                "minimal instance missing from the stream: {} {} {}",
                src, variant, rendered
            );
        }
    }
}

#[test]
fn zero_deadline_interrupts_immediately_without_yielding() {
    let s = schema();
    let session = Session::new(Arc::clone(&s));
    let mut stream = session
        .explain(
            ExplainRequest::drc(QUERIES[1])
                .limit(12)
                .deadline(Duration::ZERO),
        )
        .unwrap();
    assert!(stream.next().is_none(), "deadline 0 must yield nothing");
    let sol = stream.collect();
    assert_eq!(sol.interrupted, Some(Interrupted::Deadline));
    assert!(sol.instances.is_empty());
}

#[test]
fn deadline_expiry_returns_partial_results_flagged() {
    // A deadline that can expire mid-drive: whatever instances were
    // streamed before the expiry must be exactly what collect() reports,
    // and an expired run is flagged Deadline.
    let s = schema();
    let session = Session::new(Arc::clone(&s)).config(ChaseConfig::with_limit(14));
    let mut stream = session
        .explain(ExplainRequest::drc(QUERIES[1]).deadline(Duration::from_millis(30)))
        .unwrap();
    let streamed: Vec<usize> = stream.by_ref().map(|a| a.ordinal).collect();
    let sol = stream.collect();
    // Contiguous ordinals, no loss on the channel.
    assert_eq!(streamed, (0..streamed.len()).collect::<Vec<_>>());
    if sol.interrupted.is_some() {
        assert_eq!(sol.interrupted, Some(Interrupted::Deadline));
    } else {
        // Finished inside 30 ms — fine, but then nothing may be missing.
        let batch = run_variant(
            &SyntaxTree::new(parse_query(&s, QUERIES[1]).unwrap()),
            Variant::ConjAdd,
            &ChaseConfig::with_limit(14),
        );
        assert_eq!(sol.raw_accepted, batch.raw_accepted);
    }
}

#[test]
fn cancellation_mid_drive_stops_after_the_inflight_instance() {
    // threads=1 makes this fully deterministic: the cancel fires inside
    // the acceptance callback, and the sequential scheduler polls the
    // token before expanding the next candidate — so exactly one instance
    // is accepted.
    let s = schema();
    let session = Session::new(Arc::clone(&s));
    let batch = session
        .explain_collect(ExplainRequest::drc(QUERIES[1]).limit(6))
        .unwrap();
    assert!(batch.raw_accepted > 1, "need a multi-instance workload");

    let token = CancelToken::new();
    let tok = token.clone();
    let mut streamed = 0usize;
    let sol = session
        .explain_with(
            ExplainRequest::drc(QUERIES[1]).limit(6).cancel(token),
            &mut |_| {
                streamed += 1;
                tok.cancel();
                true
            },
        )
        .unwrap();
    assert_eq!(streamed, 1);
    assert_eq!(sol.raw_accepted, 1);
    assert_eq!(sol.interrupted, Some(Interrupted::Cancelled));
    assert!(sol.raw_accepted < batch.raw_accepted);
}

#[test]
fn first_instance_arrives_before_the_drive_completes() {
    // The acceptance criterion in one assertion: stopping consumption at
    // the first instance stops the drive early, which is only possible if
    // that instance was delivered while the drive was still running.
    let s = schema();
    let session = Session::new(Arc::clone(&s));
    let batch = session
        .explain_collect(ExplainRequest::drc(QUERIES[1]).limit(6))
        .unwrap();
    let partial = session
        .explain_with(ExplainRequest::drc(QUERIES[1]).limit(6), &mut |_| false)
        .unwrap();
    assert!(
        partial.raw_accepted < batch.raw_accepted,
        "first instance must be observable before drive completion \
         ({} vs {})",
        partial.raw_accepted,
        batch.raw_accepted
    );
    // The truncated drive must not masquerade as a complete solution.
    assert_eq!(partial.interrupted, Some(Interrupted::Cancelled));
}

#[test]
fn accepted_instances_render_well_formed_json() {
    let s = schema();
    let session = Session::new(Arc::clone(&s));
    let mut n = 0;
    let sol = session
        .explain_with(ExplainRequest::drc(QUERIES[1]).limit(6), &mut |acc| {
            assert!(cqi::instance::json_well_formed(&acc.to_json()), "{}", acc.to_json());
            n += 1;
            true
        })
        .unwrap();
    assert!(n > 0);
    let j = sol.to_json();
    assert!(cqi::instance::json_well_formed(&j), "{j}");
    assert!(j.contains("\"status\": \"complete\""), "{j}");
}
