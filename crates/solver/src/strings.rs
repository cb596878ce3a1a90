//! String (text-domain) reasoning: lexicographic order constraints, `LIKE`
//! pattern sets, pinned constants, and disequalities over text equivalence
//! classes, with concrete witness generation.
//!
//! Order over strings is treated as a dense order (between any two distinct
//! realistic strings a third exists); `LIKE` satisfiability per class is
//! decided exactly by the automata in [`crate::nfa`]. Witness generation is
//! search-based and *verified*: a returned assignment always satisfies every
//! constraint, and pathological corners (e.g. bounds right at the bottom of
//! the lexicographic order) conservatively report unsatisfiability.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::nfa::{like_match, Alphabet, Dfa};
use crate::order::OrderEdge;

/// Witness candidates per LIKE pattern set, cached for the lifetime of the
/// process: the chase asks about the same handful of pattern combinations
/// thousands of times, and automata construction + enumeration dominated
/// profiles before this cache. `None` records an unsatisfiable set.
type LikeKey = Vec<(bool, String)>;
type LikeCache = HashMap<LikeKey, Option<Arc<Vec<String>>>>;
static LIKE_CACHE: OnceLock<Mutex<LikeCache>> = OnceLock::new();

/// Returns up to 64 strings satisfying the pattern set (shortest first), or
/// `None` when the set is unsatisfiable.
fn like_candidates(likes: &[(bool, String)]) -> Option<Arc<Vec<String>>> {
    let mut key: LikeKey = likes.to_vec();
    key.sort();
    key.dedup();
    let cache = LIKE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return hit.clone();
    }
    let alpha = Alphabet::from_patterns(key.iter().map(|(_, s)| s.as_str()));
    let mut prod = Dfa::universal(&alpha);
    for (neg, pat) in &key {
        let d = Dfa::from_pattern(pat, &alpha);
        prod = prod.intersect(&if *neg { d.complement() } else { d });
    }
    let out = if prod.is_nonempty() {
        Some(Arc::new(prod.enumerate_accepted(&alpha, 64)))
    } else {
        None
    };
    cache.lock().unwrap().insert(key, out.clone());
    out
}

/// Constraints over `n` text classes.
#[derive(Clone, Debug)]
pub struct TextProblem {
    pub n: usize,
    pub pinned: Vec<Option<String>>,
    pub edges: Vec<OrderEdge>,
    pub neqs: Vec<(usize, usize)>,
    /// Per class: `(negated, pattern)` LIKE constraints.
    pub likes: Vec<Vec<(bool, String)>>,
}

impl TextProblem {
    pub fn new(n: usize) -> TextProblem {
        TextProblem {
            n,
            pinned: vec![None; n],
            edges: Vec::new(),
            neqs: Vec::new(),
            likes: vec![Vec::new(); n],
        }
    }
}

/// Decides the system and returns a witness string per class.
#[allow(clippy::needless_range_loop)] // triangular/i≠j index patterns
pub fn solve_text(p: &TextProblem) -> Option<Vec<String>> {
    if p.neqs.iter().any(|(a, b)| a == b) {
        return None;
    }
    // Reachability closure: le[i][j] = path i→j, lt[i][j] = path with ≥1
    // strict edge.
    let n = p.n;
    let mut le = vec![vec![false; n]; n];
    let mut lt = vec![vec![false; n]; n];
    for i in 0..n {
        le[i][i] = true;
    }
    for e in &p.edges {
        le[e.from][e.to] = true;
        if e.strict {
            lt[e.from][e.to] = true;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if !le[i][k] && !lt[i][k] {
                continue;
            }
            for j in 0..n {
                if le[k][j] || lt[k][j] {
                    let strict = lt[i][k] || lt[k][j];
                    if strict && !lt[i][j] {
                        lt[i][j] = true;
                    }
                    if !le[i][j] {
                        le[i][j] = true;
                    }
                }
            }
        }
    }
    // lt implies le for downstream checks.
    for i in 0..n {
        for j in 0..n {
            if lt[i][j] {
                le[i][j] = true;
            }
        }
    }

    // Strict cycle ⇒ unsat.
    for (i, row) in lt.iter().enumerate() {
        if row[i] {
            return None;
        }
    }
    // Forced equality (mutual ≤): disequality conflicts and pinned clashes.
    for i in 0..n {
        for j in i + 1..n {
            if le[i][j] && le[j][i] {
                if p.neqs
                    .iter()
                    .any(|&(a, b)| (a, b) == (i, j) || (a, b) == (j, i))
                {
                    return None;
                }
                if let (Some(a), Some(b)) = (&p.pinned[i], &p.pinned[j]) {
                    if a != b {
                        return None;
                    }
                }
            }
        }
    }
    // Pinned-vs-pinned order checks.
    for i in 0..n {
        for j in 0..n {
            if let (Some(a), Some(b)) = (&p.pinned[i], &p.pinned[j]) {
                if lt[i][j] && a >= b {
                    return None;
                }
                if le[i][j] && a > b {
                    return None;
                }
            }
        }
    }
    // Pinned values must satisfy their LIKE sets; and every class's LIKE set
    // must be satisfiable at all (cached per pattern set).
    let mut like_cands: Vec<Option<Arc<Vec<String>>>> = Vec::with_capacity(n);
    for i in 0..n {
        if let Some(v) = &p.pinned[i] {
            for (neg, pat) in &p.likes[i] {
                if like_match(pat, v) == *neg {
                    return None;
                }
            }
            like_cands.push(None);
            continue;
        }
        if p.likes[i].is_empty() {
            like_cands.push(None);
            continue;
        }
        match like_candidates(&p.likes[i]) {
            Some(cands) => like_cands.push(Some(cands)),
            None => return None,
        }
    }

    // Assignment in topological order of ≤-reachability (classes forced
    // equal share a position; handled by equal bounds).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (0..n).filter(|&j| j != i && le[j][i]).count());

    let mut vals: Vec<Option<String>> = p.pinned.clone();
    for &i in &order {
        if vals[i].is_some() {
            continue;
        }
        // Forced-equal partner already assigned?
        if let Some(j) = (0..n).find(|&j| j != i && le[i][j] && le[j][i] && vals[j].is_some()) {
            let v = vals[j].clone().unwrap();
            // Must still satisfy i's LIKE constraints.
            if p.likes[i]
                .iter()
                .any(|(neg, pat)| like_match(pat, &v) == *neg)
            {
                return None;
            }
            vals[i] = Some(v);
            continue;
        }
        // Bounds from assigned neighbours and pinned classes.
        let mut lo: Option<(String, bool)> = None; // (value, strict)
        let mut hi: Option<(String, bool)> = None;
        for j in 0..n {
            if j == i {
                continue;
            }
            if let Some(v) = &vals[j] {
                if le[j][i] {
                    let strict = lt[j][i];
                    if lo
                        .as_ref()
                        .is_none_or(|(cur, cs)| v > cur || (v == cur && strict && !cs))
                    {
                        lo = Some((v.clone(), strict));
                    }
                }
                if le[i][j] {
                    let strict = lt[i][j];
                    if hi
                        .as_ref()
                        .is_none_or(|(cur, cs)| v < cur || (v == cur && strict && !cs))
                    {
                        hi = Some((v.clone(), strict));
                    }
                }
            }
        }
        let taboo: Vec<&String> = p
            .neqs
            .iter()
            .filter_map(|&(a, b)| {
                if a == i {
                    vals[b].as_ref()
                } else if b == i {
                    vals[a].as_ref()
                } else {
                    None
                }
            })
            .collect();
        let ok = |s: &String| -> bool {
            if let Some((l, strict)) = &lo {
                if *strict && s <= l {
                    return false;
                }
                if !strict && s < l {
                    return false;
                }
            }
            if let Some((h, strict)) = &hi {
                if *strict && s >= h {
                    return false;
                }
                if !strict && s > h {
                    return false;
                }
            }
            if taboo.contains(&s) {
                return false;
            }
            p.likes[i]
                .iter()
                .all(|(neg, pat)| like_match(pat, s) != *neg)
        };
        let candidate = match &like_cands[i] {
            Some(cands) => cands.iter().find(|s| ok(s)).cloned(),
            None => plain_candidates(&lo, &hi).find(|s| ok(s)),
        };
        match candidate {
            Some(v) => vals[i] = Some(v),
            None => return None,
        }
    }

    let out: Vec<String> = vals.into_iter().map(|v| v.expect("all assigned")).collect();
    debug_assert!(verify(p, &out), "text model failed self-check: {out:?}");
    if verify(p, &out) {
        Some(out)
    } else {
        None
    }
}

/// A generic pool of short distinct strings: `a`..`z`, `aa`..`zz`,
/// `s0`..`s63`.
fn pool() -> impl Iterator<Item = String> {
    ('a'..='z')
        .map(|c| c.to_string())
        .chain(('a'..='z').map(|c| format!("{c}{c}")))
        .chain((0..64).map(|i| format!("s{i}")))
}

/// Candidate strings for an order-constrained class without LIKE patterns,
/// built one at a time: the caller keeps the first that fits, so the order
/// is part of the answer.
fn plain_candidates<'a>(
    lo: &'a Option<(String, bool)>,
    hi: &'a Option<(String, bool)>,
) -> Box<dyn Iterator<Item = String> + 'a> {
    // The bound itself, when it is not strict.
    let inclusive = |b: &'a Option<(String, bool)>| {
        b.iter()
            .filter(|(_, strict)| !strict)
            .map(|(v, _)| v.clone())
    };
    match (lo, hi) {
        (None, None) => Box::new(pool()),
        (Some((l, _)), None) => Box::new(
            inclusive(lo)
                // Extensions of `l` are strictly greater.
                .chain(
                    ['0', 'a', 'm', 'z']
                        .into_iter()
                        .map(move |c| format!("{l}{c}")),
                )
                .chain((0..32).map(move |i| format!("{l}x{i}")))
                .chain(pool().filter(move |s| s > l)),
        ),
        (None, Some((h, _))) => Box::new(
            inclusive(hi)
                .chain(std::iter::once(String::new())) // "" is ≤ everything
                .chain(pool().filter(move |s| s < h))
                // Prefixes of h are strictly smaller.
                .chain(h.char_indices().map(move |(i, _)| h[..i].to_string())),
        ),
        (Some((l, _)), Some((h, _))) => Box::new(
            inclusive(lo)
                .chain(inclusive(hi))
                // Extensions of l with successively smaller characters.
                .chain(
                    ['0', '!', '\u{1}', 'a', 'm']
                        .into_iter()
                        .map(move |c| format!("{l}{c}")),
                )
                .chain((0..32).map(move |i| format!("{l}x{i}")))
                .chain(pool().filter(move |s| s > l && s < h)),
        ),
    }
}

fn verify(p: &TextProblem, vals: &[String]) -> bool {
    for e in &p.edges {
        let (a, b) = (&vals[e.from], &vals[e.to]);
        if e.strict && (a >= b) {
            return false;
        }
        if !e.strict && (a > b) {
            return false;
        }
    }
    for (i, pin) in p.pinned.iter().enumerate() {
        if let Some(v) = pin {
            if &vals[i] != v {
                return false;
            }
        }
    }
    for (a, b) in &p.neqs {
        if vals[*a] == vals[*b] {
            return false;
        }
    }
    for (i, likes) in p.likes.iter().enumerate() {
        for (neg, pat) in likes {
            if like_match(pat, &vals[i]) == *neg {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The eager candidate builder that [`plain_candidates`] replaced, kept
    /// as the reference for its order.
    fn eager_plain_candidates(
        lo: &Option<(String, bool)>,
        hi: &Option<(String, bool)>,
    ) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let pool = || {
            let mut v: Vec<String> = Vec::new();
            for c in 'a'..='z' {
                v.push(c.to_string());
            }
            for c in 'a'..='z' {
                v.push(format!("{c}{c}"));
            }
            for i in 0..64 {
                v.push(format!("s{i}"));
            }
            v
        };
        match (lo, hi) {
            (None, None) => out = pool(),
            (Some((l, strict)), None) => {
                if !strict {
                    out.push(l.clone());
                }
                for c in ['0', 'a', 'm', 'z'] {
                    out.push(format!("{l}{c}"));
                }
                for i in 0..32 {
                    out.push(format!("{l}x{i}"));
                }
                out.extend(pool().into_iter().filter(|s| s > l));
            }
            (None, Some((h, strict))) => {
                if !strict {
                    out.push(h.clone());
                }
                out.push(String::new());
                out.extend(pool().into_iter().filter(|s| s < h));
                let chars: Vec<char> = h.chars().collect();
                for k in 0..chars.len() {
                    out.push(chars[..k].iter().collect());
                }
            }
            (Some((l, ls)), Some((h, hs))) => {
                if !ls {
                    out.push(l.clone());
                }
                if !hs {
                    out.push(h.clone());
                }
                for c in ['0', '!', '\u{1}', 'a', 'm'] {
                    out.push(format!("{l}{c}"));
                }
                for i in 0..32 {
                    out.push(format!("{l}x{i}"));
                }
                out.extend(pool().into_iter().filter(|s| s > l && s < h));
            }
        }
        out
    }

    #[test]
    fn lazy_candidates_keep_the_eager_order() {
        let values = ["", "a", "m", "s7", "zz", "éñ日"];
        let mut bounds: Vec<Option<(String, bool)>> = vec![None];
        for v in values {
            for strict in [false, true] {
                bounds.push(Some((v.to_string(), strict)));
            }
        }
        for lo in &bounds {
            for hi in &bounds {
                let lazy: Vec<String> = plain_candidates(lo, hi).collect();
                assert_eq!(lazy, eager_plain_candidates(lo, hi), "lo={lo:?} hi={hi:?}");
            }
        }
        // The no-bound pool and a multi-byte upper bound's char prefixes.
        assert_eq!(plain_candidates(&None, &None).count(), 116);
        let hi = Some(("éñ日".to_string(), true));
        let tail: Vec<String> = plain_candidates(&None, &hi).skip(1 + 116).collect();
        assert_eq!(tail, ["", "é", "éñ"]);
    }

    #[test]
    fn unconstrained_classes_get_distinct_defaults() {
        let mut p = TextProblem::new(3);
        p.neqs = vec![(0, 1), (1, 2), (0, 2)];
        let v = solve_text(&p).unwrap();
        assert_ne!(v[0], v[1]);
        assert_ne!(v[1], v[2]);
    }

    #[test]
    fn like_and_not_like() {
        let mut p = TextProblem::new(1);
        p.likes[0] = vec![(false, "Eve%".into()), (true, "Eve %".into())];
        let v = solve_text(&p).unwrap();
        assert!(like_match("Eve%", &v[0]));
        assert!(!like_match("Eve %", &v[0]));
    }

    #[test]
    fn contradictory_likes_unsat() {
        let mut p = TextProblem::new(1);
        p.likes[0] = vec![(false, "a%".into()), (true, "a%".into())];
        assert!(solve_text(&p).is_none());
    }

    #[test]
    fn pinned_must_match_likes() {
        let mut p = TextProblem::new(1);
        p.pinned[0] = Some("Bob".into());
        p.likes[0] = vec![(false, "Eve%".into())];
        assert!(solve_text(&p).is_none());
        let mut q = TextProblem::new(1);
        q.pinned[0] = Some("Eve Edwards".into());
        q.likes[0] = vec![(false, "Eve%".into())];
        assert!(solve_text(&q).is_some());
    }

    #[test]
    fn order_between_pinned() {
        let mut p = TextProblem::new(3);
        p.pinned[0] = Some("apple".into());
        p.pinned[2] = Some("banana".into());
        p.edges.push(OrderEdge {
            from: 0,
            to: 1,
            strict: true,
        });
        p.edges.push(OrderEdge {
            from: 1,
            to: 2,
            strict: true,
        });
        let v = solve_text(&p).unwrap();
        assert!(v[1].as_str() > "apple" && v[1].as_str() < "banana");
    }

    #[test]
    fn strict_cycle_unsat() {
        let mut p = TextProblem::new(2);
        p.edges.push(OrderEdge {
            from: 0,
            to: 1,
            strict: true,
        });
        p.edges.push(OrderEdge {
            from: 1,
            to: 0,
            strict: false,
        });
        assert!(solve_text(&p).is_none());
    }

    #[test]
    fn forced_equal_with_neq_unsat() {
        let mut p = TextProblem::new(2);
        p.edges.push(OrderEdge {
            from: 0,
            to: 1,
            strict: false,
        });
        p.edges.push(OrderEdge {
            from: 1,
            to: 0,
            strict: false,
        });
        p.neqs.push((0, 1));
        assert!(solve_text(&p).is_none());
    }

    #[test]
    fn pinned_order_violation() {
        let mut p = TextProblem::new(2);
        p.pinned[0] = Some("b".into());
        p.pinned[1] = Some("a".into());
        p.edges.push(OrderEdge {
            from: 0,
            to: 1,
            strict: false,
        });
        assert!(solve_text(&p).is_none());
    }

    #[test]
    fn two_likes_with_neq_get_distinct_witnesses() {
        let mut p = TextProblem::new(2);
        p.likes[0] = vec![(false, "Eve%".into())];
        p.likes[1] = vec![(false, "Eve%".into())];
        p.neqs.push((0, 1));
        let v = solve_text(&p).unwrap();
        assert!(v[0].starts_with("Eve") && v[1].starts_with("Eve"));
        assert_ne!(v[0], v[1]);
    }

    #[test]
    fn like_exact_singleton_conflict() {
        // Both classes must equal "abc" but must differ: unsat.
        let mut p = TextProblem::new(2);
        p.likes[0] = vec![(false, "abc".into())];
        p.likes[1] = vec![(false, "abc".into())];
        p.neqs.push((0, 1));
        assert!(solve_text(&p).is_none());
    }

    #[test]
    fn tight_string_bound_with_extension() {
        // "a" < x < "a0": needs a character below '0' appended to "a".
        let mut p = TextProblem::new(3);
        p.pinned[0] = Some("a".into());
        p.pinned[2] = Some("a0".into());
        p.edges.push(OrderEdge {
            from: 0,
            to: 1,
            strict: true,
        });
        p.edges.push(OrderEdge {
            from: 1,
            to: 2,
            strict: true,
        });
        let v = solve_text(&p).unwrap();
        assert!(v[1].as_str() > "a" && v[1].as_str() < "a0");
    }
}
