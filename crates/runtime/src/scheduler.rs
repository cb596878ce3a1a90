//! The frontier driver: Algorithm 1's breadth-first expansion loop over
//! one root search, as the single FIFO function [`drive`].
//!
//! A [`FrontierTask`] describes one BFS: how to admit an item (size
//! limit), how to key it for duplicate detection, how to confirm an exact
//! duplicate, and how to *expand* it into either an accepted result or a
//! list of children. Expansion must be a pure function of the item — the
//! context only carries memo/cache state that changes speed, never
//! answers — so a root drives identically on any worker of the chase's
//! root-job fan-out (see the module docs of [`crate`]).

use std::collections::VecDeque;

use crate::dedupe::{DedupeStats, SetKey, VisitedSet};

/// What expanding one frontier item produced: either an accepted result
/// (satisfying, consistent — not expanded further) or children to enqueue.
pub struct Expansion<T, A> {
    pub accepted: Option<A>,
    pub children: Vec<T>,
}

/// One breadth-first frontier exploration, as seen by [`drive`].
pub trait FrontierTask {
    /// Frontier item (a c-instance branch candidate, for the chase).
    type Item: Clone;
    /// Mutable context (solver caches, sub-BFS memos).
    type Ctx;
    /// Accepted result type.
    type Accept;

    /// Pre-dedupe admission (the chase's `|I| ≤ limit` bound).
    fn admit(&self, item: &Self::Item) -> bool;

    /// Duplicate-detection keys: renaming-invariant signature + exact
    /// digest.
    fn keys(&self, item: &Self::Item) -> SetKey;

    /// Exact duplicate confirmation (isomorphism), run on signature
    /// collisions.
    fn is_duplicate(&self, a: &Self::Item, b: &Self::Item) -> bool;

    /// Expands one admitted, deduplicated item. Must be deterministic in
    /// `item`; `ctx` is memo state only.
    fn expand(&self, ctx: &mut Self::Ctx, item: &Self::Item)
        -> Expansion<Self::Item, Self::Accept>;

    /// Polled before every item; return `true` to abort the drive (the
    /// chase's wall-clock deadline). May record the abort in `ctx`.
    fn stopped(&self, ctx: &mut Self::Ctx) -> bool;
}

/// Drives a [`FrontierTask`] from `seeds` to exhaustion on one context:
/// a plain FIFO queue, deduplicating through one [`VisitedSet`]. Children
/// enqueue behind every item already waiting, so items are visited in BFS
/// order.
///
/// `sink` receives accepted results in FIFO order; returning `false` halts
/// the drive (the chase's `max_results`, or a streaming consumer that
/// walked away).
///
/// **Streaming contract:** each accept is flushed to `sink` as soon as its
/// item expands, never batched to the end. The streaming explanation API
/// (`cqi::Session`) relies on this for its time-to-first-instance
/// guarantee; the `sink_flushes_per_wave_not_at_drive_end` test pins it
/// down.
pub fn drive<T: FrontierTask>(
    task: &T,
    ctx: &mut T::Ctx,
    seeds: Vec<T::Item>,
    sink: &mut dyn FnMut(T::Accept) -> bool,
) -> DedupeStats {
    let mut visited: VisitedSet<T::Item> = VisitedSet::default();
    let mut queue: VecDeque<T::Item> = seeds.into();
    while let Some(item) = queue.pop_front() {
        if task.stopped(ctx) {
            break;
        }
        if !task.admit(&item)
            || !visited.insert(task.keys(&item), &item, |a, b| task.is_duplicate(a, b))
        {
            continue;
        }
        let exp = task.expand(ctx, &item);
        match exp.accepted {
            Some(a) => {
                if !sink(a) {
                    break;
                }
            }
            None => queue.extend(exp.children),
        }
    }
    visited.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Exec, ResidentPool, RunCounters};

    /// A synthetic frontier: items are `(value, generation)`; expansion
    /// accepts odd values and spawns `fanout` children for even ones, up
    /// to a depth bound. Duplicate classes are `value % modulus`.
    struct TreeTask {
        fanout: u64,
        depth: u64,
        modulus: u64,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Node {
        value: u64,
        gen: u64,
    }

    /// Worker context counts expansions (memo-state stand-in).
    #[derive(Default)]
    struct Ctx {
        expansions: usize,
    }

    impl FrontierTask for TreeTask {
        type Item = Node;
        type Ctx = Ctx;
        type Accept = u64;

        fn admit(&self, item: &Node) -> bool {
            item.gen <= self.depth
        }

        fn keys(&self, item: &Node) -> SetKey {
            let class = item.value % self.modulus;
            SetKey {
                signature: class ^ 0xabcd,
                // Exact digest distinguishes members of one class.
                digest: item.value.wrapping_mul(0x9e3779b97f4a7c15) ^ item.gen,
            }
        }

        fn is_duplicate(&self, a: &Node, b: &Node) -> bool {
            a.value % self.modulus == b.value % self.modulus
        }

        fn expand(&self, ctx: &mut Ctx, item: &Node) -> Expansion<Node, u64> {
            ctx.expansions += 1;
            if item.value % 2 == 1 {
                return Expansion {
                    accepted: Some(item.value),
                    children: Vec::new(),
                };
            }
            let children = (1..=self.fanout)
                .map(|k| Node {
                    value: item.value * self.fanout + k,
                    gen: item.gen + 1,
                })
                .collect();
            Expansion {
                accepted: None,
                children,
            }
        }

        fn stopped(&self, _: &mut Ctx) -> bool {
            false
        }
    }

    fn seeds() -> Vec<Node> {
        vec![Node { value: 2, gen: 0 }, Node { value: 4, gen: 0 }]
    }

    /// One drive of `task` from `seeds`, stopping after `cap` accepts.
    fn run(task: &TreeTask, seeds: Vec<Node>, cap: Option<usize>) -> (Vec<u64>, Ctx, DedupeStats) {
        let mut ctx = Ctx::default();
        let mut got = Vec::new();
        let stats = drive(task, &mut ctx, seeds, &mut |a| {
            got.push(a);
            cap.is_none_or(|c| got.len() < c)
        });
        (got, ctx, stats)
    }

    fn task() -> TreeTask {
        TreeTask {
            fanout: 3,
            depth: 6,
            modulus: 1 << 40, // effectively no cross-value duplicates
        }
    }

    /// Independent roots (one seed each), fanned out over a resident pool
    /// of `workers` threads the way the chase fans out root jobs: one drive
    /// per root on the worker's own context, results in root order.
    fn fan_out(
        task: &TreeTask,
        roots: &[u64],
        workers: usize,
        counters: &RunCounters,
    ) -> Vec<Vec<u64>> {
        let pool = ResidentPool::new(workers);
        let mut ctxs: Vec<Ctx> = (0..=workers).map(|_| Ctx::default()).collect();
        Exec::resident(&pool)
            .with_counters(counters)
            .run(&mut ctxs, roots, |ctx, _, &value| {
                let mut got = Vec::new();
                drive(task, ctx, vec![Node { value, gen: 0 }], &mut |a| {
                    got.push(a);
                    true
                });
                got
            })
    }

    fn sequential(task: &TreeTask, roots: &[u64]) -> Vec<Vec<u64>> {
        roots
            .iter()
            .map(|&value| run(task, vec![Node { value, gen: 0 }], None).0)
            .collect()
    }

    const ROOTS: [u64; 6] = [2, 4, 6, 8, 10, 12];

    #[test]
    fn parallel_matches_sequential() {
        let t = task();
        let seq = sequential(&t, &ROOTS);
        assert!(seq.iter().all(|r| !r.is_empty()));
        for workers in [0, 1, 3] {
            let par = fan_out(&t, &ROOTS, workers, &RunCounters::default());
            assert_eq!(
                par, seq,
                "per-root streams must be identical ({workers} workers)"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_with_heavy_dedupe() {
        // Small modulus → many duplicates inside every root; each drive owns
        // its visited set, so concurrent roots never see each other's
        // representatives.
        let t = TreeTask {
            fanout: 4,
            depth: 5,
            modulus: 13,
        };
        let par = fan_out(&t, &ROOTS, 3, &RunCounters::default());
        assert_eq!(par, sequential(&t, &ROOTS));
    }

    #[test]
    fn resident_exec_matches_sequential() {
        // The fan-out really goes through the pool: one batch for the whole
        // root set, and its output is still the sequential one.
        let t = task();
        let counters = RunCounters::default();
        let par = fan_out(&t, &ROOTS, 3, &counters);
        assert_eq!(par, sequential(&t, &ROOTS));
        assert_eq!(
            counters.snapshot().resident_batches,
            1,
            "roots fan out in one batch"
        );
    }

    #[test]
    fn sink_false_truncates_identically() {
        let t = task();
        let (full, _, _) = run(&t, seeds(), None);
        let (cut, _, _) = run(&t, seeds(), Some(7));
        assert_eq!(cut.len(), 7);
        assert_eq!(
            cut,
            full[..7],
            "a max-results cut is a prefix of the full stream"
        );
    }

    #[test]
    fn each_survivor_expands_exactly_once() {
        // Every admitted, non-duplicate item expands once; duplicates and
        // over-depth items never expand.
        let t = TreeTask {
            fanout: 4,
            depth: 5,
            modulus: 13,
        };
        let (_, ctx, stats) = run(&t, seeds(), None);
        assert!(stats.duplicates > 0, "the workload must exercise dedupe");
        assert_eq!(ctx.expansions as u64, stats.offers - stats.duplicates);
    }

    /// [`TreeTask`] with an event log shared between expansion and the
    /// sink, to observe their interleaving.
    struct LoggingTask {
        inner: TreeTask,
        log: std::sync::Mutex<Vec<(&'static str, u64)>>,
    }

    impl FrontierTask for LoggingTask {
        type Item = Node;
        type Ctx = Ctx;
        type Accept = u64;

        fn admit(&self, item: &Node) -> bool {
            self.inner.admit(item)
        }

        fn keys(&self, item: &Node) -> SetKey {
            self.inner.keys(item)
        }

        fn is_duplicate(&self, a: &Node, b: &Node) -> bool {
            self.inner.is_duplicate(a, b)
        }

        fn expand(&self, ctx: &mut Ctx, item: &Node) -> Expansion<Node, u64> {
            self.log.lock().unwrap().push(("expand", item.gen));
            self.inner.expand(ctx, item)
        }

        fn stopped(&self, _: &mut Ctx) -> bool {
            false
        }
    }

    fn logged_drive() -> Vec<(&'static str, u64)> {
        let task = LoggingTask {
            inner: task(),
            log: std::sync::Mutex::new(Vec::new()),
        };
        drive(&task, &mut Ctx::default(), seeds(), &mut |a| {
            task.log.lock().unwrap().push(("accept", a));
            true
        });
        task.log.into_inner().unwrap()
    }

    /// The streaming contract: accepted results reach the sink during the
    /// drive, not in one batch at drive end. With a multi-wave tree, some
    /// accept event must precede the last expansion event.
    #[test]
    fn sink_flushes_per_wave_not_at_drive_end() {
        let log = logged_drive();
        let first_accept = log.iter().position(|(k, _)| *k == "accept");
        let last_expand = log.iter().rposition(|(k, _)| *k == "expand");
        assert!(
            first_accept.unwrap() < last_expand.unwrap(),
            "accepts must interleave with later-wave expansions: {log:?}"
        );
    }
}
