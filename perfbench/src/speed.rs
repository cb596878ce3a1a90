//! Host-speed probe. The shared 2-core hosts this benchmark runs on change
//! speed by up to a third over tens of seconds: a fixed CPU loop's time
//! moves that much between windows, in step with the engine's. So every
//! time the benchmark reports is measured next to probes of a fixed
//! workload that shares no code with the program under test, and is
//! scaled by `reference / probe`: the time at the host's reference speed.
//! On the reference host, normalizing cut the spread of ten-second
//! windows of a fixed request mix from 31% to 4% (IQR over median).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The benchmark's clock: every timing it takes starts here.
pub fn now() -> Instant {
    // lint:allow(wall-clock) timing requests is this benchmark's purpose
    Instant::now()
}

/// The probe's typical time (ms) on the reference host (2-core shared
/// container) on one thread and on two; normalized times are in that
/// host's milliseconds.
const REF_MS: [f64; 2] = [0.8, 1.0];

pub fn reference_ms(threads: usize) -> f64 {
    REF_MS[threads.clamp(1, REF_MS.len()) - 1]
}

/// Minimum time between probes while requests run.
const EVERY: Duration = Duration::from_millis(100);

/// Integer mixing, a sort, small allocations and a dependent walk through
/// a buffer larger than one core's L2 cache: the kinds of work the chase
/// does, in a fixed amount.
fn kernel() -> f64 {
    let ring = walk_ring();
    let t = now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v = Vec::with_capacity(4096);
    let mut m = BTreeMap::new();
    let mut at = 0u32;
    for i in 0..4096u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x);
        m.insert(x % 1024, i.to_string());
        at = ring[at as usize];
    }
    v.sort_unstable();
    black_box((&v, &m, at));
    t.elapsed().as_secs_f64() * 1e3
}

/// A single random cycle over 6 MiB of `u32` successors (Sattolo's
/// shuffle), built once.
fn walk_ring() -> &'static [u32] {
    static RING: OnceLock<Vec<u32>> = OnceLock::new();
    RING.get_or_init(|| {
        let n = 3 << 19;
        let mut ring: Vec<u32> = (0..n as u32).collect();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ring.swap(i, (x % i as u64) as usize);
        }
        ring
    })
}

/// One probe (ms): the median of three kernel runs on each of `threads`
/// threads at once, the slowest thread counting, since a multi-threaded
/// request waits for its slowest worker.
pub fn probe(threads: usize) -> f64 {
    let run = || {
        let mut k = [kernel(), kernel(), kernel()];
        k.sort_by(f64::total_cmp);
        k[1]
    };
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(run)).collect();
        let mine = run();
        others
            .into_iter()
            .map(|h| h.join().expect("probe threads do not panic"))
            .fold(mine, f64::max)
    })
}

/// Probes taken while requests run; the timings between probe `j` and
/// probe `j + 1` form segment `j`.
pub struct Timeline {
    threads: usize,
    probes: Vec<f64>,
    last: Option<Instant>,
}

impl Timeline {
    /// A timeline probing on `threads` threads (the engine's budget).
    pub fn new(threads: usize) -> Timeline {
        Timeline {
            threads,
            probes: Vec::new(),
            last: None,
        }
    }

    /// Probes if `EVERY` has passed since the last probe, and returns the
    /// segment the next timing belongs to.
    pub fn tick(&mut self) -> usize {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.probes.push(probe(self.threads));
            self.last = Some(now());
        }
        self.probes.len() - 1
    }

    /// Closes the last segment with a probe after it.
    pub fn finish(&mut self) {
        self.probes.push(probe(self.threads));
    }

    /// Scale factor of segment `j`: the reference time over the median of
    /// the ten probes around it (about a second of requests).
    pub fn factor(&self, j: usize) -> f64 {
        let hi = (j + 5).min(self.probes.len() - 1);
        reference_ms(self.threads) / median(&self.probes[j.saturating_sub(4)..=hi])
    }

    /// Median probe of the run (ms), for the record.
    pub fn median_probe(&self) -> f64 {
        median(&self.probes)
    }
}
