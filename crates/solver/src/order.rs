//! Order reasoning over numeric equivalence classes.
//!
//! After equality saturation, the theory solver reduces every numeric
//! comparison to a system of *order edges* `from (< | ≤) to` between
//! equivalence classes, some of which are *pinned* to constant values, plus
//! disequalities. This module decides such systems and produces concrete
//! assignments:
//!
//! * **Dense strictness** (reals, or mixed real/int comparisons) uses a
//!   symbolic-ε weight: `x < y` contributes `(0, 1ε)`.
//! * **Integer strictness** uses exact unit weights: `x < y` contributes
//!   `+1` when both endpoints are integer classes, and fractional lower
//!   bounds are iteratively tightened to the next integer
//!   (difference-logic style).
//! * Infeasibility manifests as a **positive-weight cycle** under the
//!   longest-path semantics `val(to) ≥ val(from) + w`, or as a pinned
//!   class whose longest-path distance exceeds its pin.
//! * Disequalities are resolved by splitting (`x ≠ y ⇒ x < y ∨ y < x`),
//!   which keeps the procedure complete for order constraints.
//!
//! ## Relaxation strategy
//!
//! Pins are *not* encoded as source/back edges (the classic
//! difference-constraint gadget); they seed the distance vector exactly and
//! are re-checked for equality after the fixpoint. That leaves only
//! constraint edges with non-negative weights, so a solve runs
//! direction-partitioned label-correcting (Yen's ordering): one ascending
//! sweep over forward edges plus one descending sweep over backward edges
//! per pass, Gauss-Seidel style. Monotone chains converge in one or two
//! passes instead of the O(V) rounds of textbook Bellman-Ford; a system
//! still relaxing after `n + 2` passes has a positive cycle (Yen's bound is
//! ⌈n/2⌉ + 1). Every solve is cold: it starts from the pins and the base
//! floor alone.

/// Symbolic weight `sum + eps·ε` for an infinitesimal `ε > 0`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct W {
    sum: f64,
    eps: u32,
}

impl W {
    const ZERO: W = W { sum: 0.0, eps: 0 };

    fn new(sum: f64, eps: u32) -> W {
        W { sum, eps }
    }

    fn add(self, o: W) -> W {
        W {
            sum: self.sum + o.sum,
            eps: self.eps + o.eps,
        }
    }

    /// Lexicographic comparison (valid for sufficiently small ε).
    fn gt(self, o: W) -> bool {
        self.sum > o.sum || (self.sum == o.sum && self.eps > o.eps)
    }
}

/// One order constraint between classes: `from < to` (strict) or
/// `from ≤ to`.
#[derive(Clone, Copy, Debug)]
pub struct OrderEdge {
    pub from: usize,
    pub to: usize,
    pub strict: bool,
}

/// An order system over `n` numeric classes.
#[derive(Clone, Debug)]
pub struct OrderProblem {
    pub n: usize,
    /// Classes whose values must be integers.
    pub int_class: Vec<bool>,
    /// Classes pinned to a constant.
    pub pinned: Vec<Option<f64>>,
    pub edges: Vec<OrderEdge>,
    /// Pairs that must receive different values.
    pub neqs: Vec<(usize, usize)>,
}

impl OrderProblem {
    pub fn new(n: usize) -> OrderProblem {
        OrderProblem {
            n,
            int_class: vec![false; n],
            pinned: vec![None; n],
            edges: Vec::new(),
            neqs: Vec::new(),
        }
    }

    pub fn le(&mut self, from: usize, to: usize) {
        self.edges.push(OrderEdge {
            from,
            to,
            strict: false,
        });
    }

    pub fn lt(&mut self, from: usize, to: usize) {
        self.edges.push(OrderEdge {
            from,
            to,
            strict: true,
        });
    }
}

/// Decides the system; on success returns one concrete value per class
/// (integral for integer classes, exact for pinned classes).
pub fn solve_order(p: &OrderProblem) -> Option<Vec<f64>> {
    let _s = cqi_obs::trace::span("solve_order", "solver");
    solve_order_untraced(p)
}

/// [`solve_order`] without its trace span, for the theory solver, whose
/// `check_conj` span already covers the call.
pub(crate) fn solve_order_untraced(p: &OrderProblem) -> Option<Vec<f64>> {
    for (i, v) in p.pinned.iter().enumerate() {
        if let Some(v) = v {
            if p.int_class[i] && v.fract() != 0.0 {
                return None; // integer class pinned to a fractional value
            }
        }
    }
    if p.neqs.iter().any(|(a, b)| a == b) {
        return None; // x ≠ x
    }
    solve_rec(p, 0, &OrderCsr::build(p))
}

fn solve_rec(p: &OrderProblem, depth: usize, csr: &OrderCsr) -> Option<Vec<f64>> {
    let vals = candidate(p, csr)?;
    // Resolve disequality collisions by splitting on the order.
    if let Some(&(a, b)) = p.neqs.iter().find(|(a, b)| vals[*a] == vals[*b]) {
        if depth > 2 * p.neqs.len() + 2 {
            return None;
        }
        for (from, to) in [(a, b), (b, a)] {
            // `q` grows append-only from `p`, so the CSR stays valid (the
            // split edge rides in the overlay).
            let mut q = p.clone();
            q.lt(from, to);
            if let Some(v) = solve_rec(&q, depth + 1, csr) {
                return Some(v);
            }
        }
        return None;
    }
    verify(p, &vals).then_some(vals)
}

/// Weight of one constraint edge under the longest-path semantics.
#[inline]
fn edge_weight(p: &OrderProblem, e: &OrderEdge) -> W {
    if !e.strict {
        W::ZERO
    } else if p.int_class[e.from] && p.int_class[e.to] {
        W::new(1.0, 0)
    } else {
        W::new(0.0, 1)
    }
}

/// The difference-constraint graph in relaxation form: non-negative
/// constraint edges only (pins live in the seed vector), stored as a flat
/// CSR adjacency (one offsets array, one edge array — no per-node
/// `Vec`s). Covers an edge *prefix* of the problem that built it, so the
/// disequality splits of [`solve_rec`] reuse it with their split edges as
/// an overlay (see [`RelaxGraph`]).
#[derive(Clone, Debug)]
struct OrderCsr {
    /// Edge prefix `p.edges[..edges_done]` folded in.
    edges_done: usize,
    /// `adj[off[v]..off[v + 1]]` are `v`'s out-edges.
    off: Vec<u32>,
    /// `(to, w)` grouped by `from`, insertion-ordered within a node.
    adj: Vec<(u32, W)>,
}

impl OrderCsr {
    fn build(p: &OrderProblem) -> OrderCsr {
        let mut off = vec![0u32; p.n + 1];
        for e in &p.edges {
            off[e.from + 1] += 1;
        }
        for i in 0..p.n {
            off[i + 1] += off[i];
        }
        let mut cursor: Vec<u32> = off[..p.n].to_vec();
        let mut adj = vec![(0u32, W::ZERO); p.edges.len()];
        for e in &p.edges {
            adj[cursor[e.from] as usize] = (e.to as u32, edge_weight(p, e));
            cursor[e.from] += 1;
        }
        OrderCsr {
            edges_done: p.edges.len(),
            off,
            adj,
        }
    }

    #[inline]
    fn out(&self, v: usize) -> &[(u32, W)] {
        &self.adj[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

/// The relaxation view a solve actually runs over: a CSR prefix plus the
/// weighted overlay of edges appended since the CSR was built. Within-pass
/// edge order differs from a freshly built full CSR, but the least
/// fixpoint (and hence every output) is order-independent.
struct RelaxGraph<'a> {
    n: usize,
    csr: &'a OrderCsr,
    /// `(from, to, w)` for `p.edges[csr.edges_done..]`.
    extras: Vec<(u32, u32, W)>,
}

impl<'a> RelaxGraph<'a> {
    fn new(p: &OrderProblem, csr: &'a OrderCsr) -> RelaxGraph<'a> {
        let extras = p.edges[csr.edges_done..]
            .iter()
            .map(|e| (e.from as u32, e.to as u32, edge_weight(p, e)))
            .collect();
        RelaxGraph {
            n: p.n,
            csr,
            extras,
        }
    }

    #[inline]
    fn out(&self, v: usize) -> &[(u32, W)] {
        self.csr.out(v)
    }

    /// The fixpoint: alternating ascending/descending Gauss-Seidel sweeps
    /// (Yen's ordering). Converges within `n + 2` passes for any
    /// positive-cycle-free system (Yen's bound is ⌈n/2⌉ + 1); still
    /// changing after the cap ⇒ positive cycle ⇒ `None` (exact: all edge
    /// weights are non-negative).
    fn relax(&self, dist: &mut [W]) -> Option<()> {
        for _pass in 0..self.n + 2 {
            let mut changed = false;
            for from in 0..self.n {
                let df = dist[from];
                for &(to, w) in self.out(from) {
                    let cand = df.add(w);
                    if cand.gt(dist[to as usize]) {
                        dist[to as usize] = cand;
                        changed = true;
                    }
                }
            }
            for &(from, to, w) in &self.extras {
                let cand = dist[from as usize].add(w);
                if cand.gt(dist[to as usize]) {
                    dist[to as usize] = cand;
                    changed = true;
                }
            }
            for from in (0..self.n).rev() {
                let df = dist[from];
                for &(to, w) in self.out(from) {
                    let cand = df.add(w);
                    if cand.gt(dist[to as usize]) {
                        dist[to as usize] = cand;
                        changed = true;
                    }
                }
            }
            for &(from, to, w) in self.extras.iter().rev() {
                let cand = dist[from as usize].add(w);
                if cand.gt(dist[to as usize]) {
                    dist[to as usize] = cand;
                    changed = true;
                }
            }
            if !changed {
                return Some(());
            }
        }
        None
    }
}

/// Longest-path candidate assignment followed by integer tightening.
fn candidate(p: &OrderProblem, csr: &OrderCsr) -> Option<Vec<f64>> {
    let n = p.n;
    // With pinned constants the base must sit safely below every feasible
    // value; without them any base works, and a positive one makes
    // grounded examples friendlier to read.
    let base = if p.pinned.iter().all(Option::is_none) {
        1.0
    } else {
        let min_pinned = p.pinned.iter().flatten().fold(0.0f64, |acc, v| acc.min(*v));
        min_pinned.floor() - (n as f64) - 2.0
    };

    let g = RelaxGraph::new(p, csr);

    // Every class starts at the base floor; pins seed exactly (and are
    // re-checked for equality after the fixpoint — feasibility's upper
    // bounds all come from pins, so no back-edges are needed and every
    // graph edge has non-negative weight).
    let mut dist: Vec<W> = vec![W::ZERO; n];
    for (i, pin) in p.pinned.iter().enumerate() {
        if let Some(v) = pin {
            dist[i] = W::new(v - base, 0);
        }
    }
    g.relax(&mut dist)?;

    // Iteratively raised integer lower bounds (absolute values); without
    // integer classes the tightening scan never indexes this.
    let any_int = p.int_class.iter().any(|b| *b);
    let mut int_lb: Vec<Option<f64>> = vec![None; if any_int { n } else { 0 }];
    let cap = 100 + 10 * n;
    for _round in 0..cap {
        // Integer tightening: raise any integer class whose lower bound is
        // not attainable by an integer.
        let mut changed = false;
        for i in 0..n {
            if !p.int_class[i] {
                continue;
            }
            let d = dist[i];
            let val_sum = base + d.sum;
            let required = if val_sum.fract() != 0.0 {
                val_sum.ceil()
            } else if d.eps > 0 {
                val_sum + 1.0
            } else {
                continue;
            };
            if int_lb[i].is_none_or(|lb| required > lb) {
                int_lb[i] = Some(required);
                let cand = W::new(required - base, 0);
                if cand.gt(dist[i]) {
                    dist[i] = cand;
                }
                changed = true;
            }
        }
        if !changed {
            // Pins are seeds, not edges: a pinned class pushed above its
            // pin means the system demands more than the pin allows.
            for (i, pin) in p.pinned.iter().enumerate() {
                if let Some(v) = pin {
                    if dist[i] != W::new(v - base, 0) {
                        return None;
                    }
                }
            }
            return Some(realize(p, base, &dist));
        }
        // Re-relax (relaxation is monotone, so continuing from the current
        // vector reaches the same least fixpoint as restarting).
        g.relax(&mut dist)?;
    }
    None // tightening did not converge (conservative unsat)
}

/// Converts symbolic distances to concrete floats with a sufficiently small
/// ε.
fn realize(p: &OrderProblem, base: f64, dist: &[W]) -> Vec<f64> {
    let sums: Vec<f64> = (0..p.n).map(|i| base + dist[i].sum).collect();
    let mut distinct: Vec<f64> = sums.clone();
    distinct.extend(p.pinned.iter().flatten().copied());
    distinct.sort_unstable_by(f64::total_cmp);
    distinct.dedup();
    let mut gap = 1.0f64;
    for w in distinct.windows(2) {
        let g = w[1] - w[0];
        if g > 0.0 {
            gap = gap.min(g);
        }
    }
    let max_eps = dist.iter().take(p.n).map(|d| d.eps).max().unwrap_or(0);
    let delta = gap / (2.0 * (max_eps as f64 + 2.0));
    (0..p.n)
        .map(|i| {
            let v = sums[i] + dist[i].eps as f64 * delta;
            if p.int_class[i] {
                // Tightening guarantees integrality; round defensively.
                v.round()
            } else {
                v
            }
        })
        .collect()
}

#[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-safe: !(a < b) is deliberate
fn verify(p: &OrderProblem, vals: &[f64]) -> bool {
    for e in &p.edges {
        let (a, b) = (vals[e.from], vals[e.to]);
        if e.strict && !(a < b) {
            return false;
        }
        if !e.strict && !(a <= b) {
            return false;
        }
    }
    for (i, pin) in p.pinned.iter().enumerate() {
        if let Some(v) = pin {
            if vals[i] != *v {
                return false;
            }
        }
    }
    for (i, int) in p.int_class.iter().enumerate() {
        if *int && vals[i].fract() != 0.0 {
            return false;
        }
    }
    for (a, b) in &p.neqs {
        if vals[*a] == vals[*b] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chain() {
        // p1 > p2 > p3 (the running example's price order).
        let mut p = OrderProblem::new(3);
        p.lt(2, 1);
        p.lt(1, 0);
        let v = solve_order(&p).unwrap();
        assert!(v[2] < v[1] && v[1] < v[0]);
    }

    #[test]
    fn cycle_is_unsat() {
        let mut p = OrderProblem::new(2);
        p.lt(0, 1);
        p.lt(1, 0);
        assert!(solve_order(&p).is_none());
        // ≤-cycle alone is fine (forces equality).
        let mut q = OrderProblem::new(2);
        q.le(0, 1);
        q.le(1, 0);
        let v = solve_order(&q).unwrap();
        assert_eq!(v[0], v[1]);
    }

    #[test]
    fn le_cycle_with_neq_unsat() {
        let mut p = OrderProblem::new(2);
        p.le(0, 1);
        p.le(1, 0);
        p.neqs.push((0, 1));
        assert!(solve_order(&p).is_none());
    }

    #[test]
    fn pinned_window_dense() {
        // 2.25 < x < 2.75 over reals: satisfiable.
        let mut p = OrderProblem::new(3);
        p.pinned[0] = Some(2.25);
        p.pinned[2] = Some(2.75);
        p.lt(0, 1);
        p.lt(1, 2);
        let v = solve_order(&p).unwrap();
        assert!(2.25 < v[1] && v[1] < 2.75);
    }

    #[test]
    fn pinned_window_int_tightness() {
        // 2 < x < 3 over integers: unsatisfiable.
        let mut p = OrderProblem::new(3);
        p.int_class = vec![true; 3];
        p.pinned[0] = Some(2.0);
        p.pinned[2] = Some(3.0);
        p.lt(0, 1);
        p.lt(1, 2);
        assert!(solve_order(&p).is_none());
        // 2 < x < 4: x = 3.
        let mut q = OrderProblem::new(3);
        q.int_class = vec![true; 3];
        q.pinned[0] = Some(2.0);
        q.pinned[2] = Some(4.0);
        q.lt(0, 1);
        q.lt(1, 2);
        assert_eq!(solve_order(&q).unwrap()[1], 3.0);
    }

    #[test]
    fn int_above_fractional_constant() {
        // x integer, x > 2.25 ⇒ x ≥ 3.
        let mut p = OrderProblem::new(2);
        p.int_class[0] = true;
        p.pinned[1] = Some(2.25);
        p.lt(1, 0);
        let v = solve_order(&p).unwrap();
        assert!(v[0] >= 3.0 && v[0].fract() == 0.0);
    }

    #[test]
    fn int_in_fractional_window_unsat() {
        // 2.25 < x ≤ 2.9 has no integer.
        let mut p = OrderProblem::new(3);
        p.int_class[1] = true;
        p.pinned[0] = Some(2.25);
        p.pinned[2] = Some(2.9);
        p.lt(0, 1);
        p.le(1, 2);
        assert!(solve_order(&p).is_none());
    }

    #[test]
    fn neq_splitting() {
        let mut p = OrderProblem::new(2);
        p.neqs.push((0, 1));
        let v = solve_order(&p).unwrap();
        assert_ne!(v[0], v[1]);
    }

    #[test]
    fn neq_vs_pin_forced() {
        // x = 5 (pinned) and x ≤ y ≤ 5 and x ≠ y: y is forced to 5 ⇒ unsat.
        let mut p = OrderProblem::new(2);
        p.pinned[0] = Some(5.0);
        p.le(0, 1);
        p.pinned[1] = Some(5.0);
        p.neqs.push((0, 1));
        assert!(solve_order(&p).is_none());
    }

    #[test]
    fn pinned_contradiction() {
        let mut p = OrderProblem::new(2);
        p.pinned[0] = Some(5.0);
        p.pinned[1] = Some(3.0);
        p.lt(0, 1); // 5 < 3
        assert!(solve_order(&p).is_none());
    }

    #[test]
    fn int_pinned_fractional_unsat() {
        let mut p = OrderProblem::new(1);
        p.int_class[0] = true;
        p.pinned[0] = Some(2.5);
        assert!(solve_order(&p).is_none());
    }

    #[test]
    fn long_strict_int_chain_between_pins() {
        // 0 < a < b < c < 3 over integers: needs 3 distinct ints in (0,3):
        // a=1, b=2, c=? c < 3 and c > b=2 ⇒ unsat.
        let mut p = OrderProblem::new(5);
        p.int_class = vec![true; 5];
        p.pinned[0] = Some(0.0);
        p.pinned[4] = Some(3.0);
        p.lt(0, 1);
        p.lt(1, 2);
        p.lt(2, 3);
        p.lt(3, 4);
        assert!(solve_order(&p).is_none());
        // Same with bound 4 works: 1,2,3.
        let mut q = OrderProblem::new(5);
        q.int_class = vec![true; 5];
        q.pinned[0] = Some(0.0);
        q.pinned[4] = Some(4.0);
        q.lt(0, 1);
        q.lt(1, 2);
        q.lt(2, 3);
        q.lt(3, 4);
        let v = solve_order(&q).unwrap();
        assert_eq!((v[1], v[2], v[3]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn three_distinct_ints_below_pin() {
        // a,b,c pairwise ≠, all < 2, all > -2, integer: -1, 0, 1 fits.
        let mut p = OrderProblem::new(5);
        p.int_class = vec![true; 5];
        p.pinned[3] = Some(2.0);
        p.pinned[4] = Some(-2.0);
        for i in 0..3 {
            p.lt(i, 3);
            p.lt(4, i);
        }
        p.neqs.push((0, 1));
        p.neqs.push((1, 2));
        p.neqs.push((0, 2));
        let v = solve_order(&p).unwrap();
        let mut got = vec![v[0], v[1], v[2]];
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn mixed_int_real_strictness() {
        // int x < real r < int y allows y = x + 1.
        let mut p = OrderProblem::new(3);
        p.int_class[0] = true;
        p.int_class[2] = true;
        p.lt(0, 1);
        p.lt(1, 2);
        let v = solve_order(&p).unwrap();
        assert!(v[0] < v[1] && v[1] < v[2]);
        assert_eq!(v[0].fract(), 0.0);
        assert_eq!(v[2].fract(), 0.0);
    }
}
