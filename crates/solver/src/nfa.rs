//! Finite automata over a symbolic alphabet, deciding conjunctions of
//! (negated) SQL `LIKE` patterns exactly.
//!
//! A set of patterns induces a finite [`Alphabet`]: the literal characters
//! occurring in any pattern, plus one symbolic `Other` standing for every
//! remaining character. Each pattern compiles to a small DFA over that
//! alphabet; positive patterns are intersected, negative ones complemented
//! and intersected, and non-emptiness of the product decides satisfiability.
//! Accepted strings are enumerable in length order for model generation.

use std::collections::{HashMap, VecDeque};

/// Parsed `LIKE` pattern item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Item {
    /// A literal character.
    Ch(char),
    /// `_` — any single character.
    AnyOne,
    /// `%` — any (possibly empty) sequence.
    AnyStr,
}

fn parse_pattern(p: &str) -> Vec<Item> {
    p.chars()
        .map(|c| match c {
            '%' => Item::AnyStr,
            '_' => Item::AnyOne,
            c => Item::Ch(c),
        })
        .collect()
}

/// Direct `LIKE` matcher (two-pointer glob algorithm); the ground-truth
/// oracle used for evaluation and for verifying automata decisions.
pub fn like_match(pattern: &str, s: &str) -> bool {
    let p: Vec<Item> = parse_pattern(pattern);
    let t: Vec<char> = s.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)
    while ti < t.len() {
        if pi < p.len()
            && match p[pi] {
                Item::Ch(c) => c == t[ti],
                Item::AnyOne => true,
                Item::AnyStr => false,
            }
        {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == Item::AnyStr {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == Item::AnyStr {
        pi += 1;
    }
    pi == p.len()
}

/// The shared symbolic alphabet of a pattern set: `syms[0..n]` are the
/// literal characters, and symbol index `n` is `Other` (any character not in
/// the set).
#[derive(Clone, Debug)]
pub struct Alphabet {
    chars: Vec<char>,
}

impl Alphabet {
    /// Alphabet induced by `patterns` (literal characters only).
    pub fn from_patterns<'a>(patterns: impl IntoIterator<Item = &'a str>) -> Alphabet {
        let mut chars: Vec<char> = patterns
            .into_iter()
            .flat_map(|p| p.chars())
            .filter(|c| *c != '%' && *c != '_')
            .collect();
        chars.sort_unstable();
        chars.dedup();
        Alphabet { chars }
    }

    /// Number of symbols including `Other`.
    pub fn num_syms(&self) -> usize {
        self.chars.len() + 1
    }

    fn other_sym(&self) -> usize {
        self.chars.len()
    }

    fn sym_of(&self, c: char) -> usize {
        self.chars.binary_search(&c).unwrap_or(self.chars.len())
    }

    /// A concrete character rendering symbol `s`; `Other` becomes some
    /// character outside the alphabet.
    pub fn char_of(&self, s: usize) -> char {
        if s < self.chars.len() {
            return self.chars[s];
        }
        // Pick a printable character not in the alphabet.
        for cand in ('a'..='z').chain('0'..='9').chain(['~', '#', '@', '+']) {
            if self.chars.binary_search(&cand).is_err() {
                return cand;
            }
        }
        // Alphabet covers all candidates: walk unicode.
        let mut c = 0x21u32;
        loop {
            if let Some(ch) = char::from_u32(c) {
                if self.chars.binary_search(&ch).is_err() {
                    return ch;
                }
            }
            c += 1;
        }
    }
}

/// A total DFA over an [`Alphabet`].
#[derive(Clone, Debug)]
pub struct Dfa {
    /// `trans[state][sym]` — always defined (a dead state makes it total).
    trans: Vec<Vec<usize>>,
    accept: Vec<bool>,
    start: usize,
}

impl Dfa {
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// Compiles a `LIKE` pattern to a DFA over `alpha` via NFA subset
    /// construction (the NFA's states are pattern positions; `%` permits
    /// staying in place on any symbol).
    pub fn from_pattern(pattern: &str, alpha: &Alphabet) -> Dfa {
        let items = parse_pattern(pattern);
        let n = items.len();
        let nsyms = alpha.num_syms();
        // NFA state = number of pattern items consumed (0..=n).
        // ε-closure: from state i, all `%` items may be skipped.
        let closure = |mut set: Vec<bool>| -> Vec<bool> {
            loop {
                let mut changed = false;
                for i in 0..n {
                    if set[i] && items[i] == Item::AnyStr && !set[i + 1] {
                        set[i + 1] = true;
                        changed = true;
                    }
                }
                if !changed {
                    return set;
                }
            }
        };
        let step = |set: &[bool], sym: usize| -> Vec<bool> {
            let mut out = vec![false; n + 1];
            for i in 0..n {
                if !set[i] {
                    continue;
                }
                match items[i] {
                    Item::Ch(c) => {
                        if alpha.sym_of(c) == sym && sym != alpha.other_sym() {
                            out[i + 1] = true;
                        }
                    }
                    Item::AnyOne => out[i + 1] = true,
                    Item::AnyStr => out[i] = true, // consume a char, stay
                }
            }
            closure(out)
        };

        let mut start = vec![false; n + 1];
        start[0] = true;
        let start = closure(start);

        let mut ids: HashMap<Vec<bool>, usize> = HashMap::new();
        let mut states: Vec<Vec<bool>> = vec![start.clone()];
        ids.insert(start, 0);
        let mut trans: Vec<Vec<usize>> = Vec::new();
        let mut qi = 0;
        while qi < states.len() {
            let cur = states[qi].clone();
            let mut row = Vec::with_capacity(nsyms);
            for sym in 0..nsyms {
                let nxt = step(&cur, sym);
                let id = *ids.entry(nxt.clone()).or_insert_with(|| {
                    states.push(nxt);
                    states.len() - 1
                });
                row.push(id);
            }
            trans.push(row);
            qi += 1;
        }
        let accept = states.iter().map(|s| s[n]).collect();
        Dfa {
            trans,
            accept,
            start: 0,
        }
    }

    /// A DFA accepting every string.
    pub fn universal(alpha: &Alphabet) -> Dfa {
        Dfa {
            trans: vec![vec![0; alpha.num_syms()]],
            accept: vec![true],
            start: 0,
        }
    }

    /// A DFA accepting exactly one string.
    pub fn singleton(s: &str, alpha: &Alphabet) -> Dfa {
        let syms: Vec<usize> = s.chars().map(|c| alpha.sym_of(c)).collect();
        let n = syms.len();
        let nsyms = alpha.num_syms();
        let dead = n + 1;
        let mut trans = vec![vec![dead; nsyms]; n + 2];
        for (i, sym) in syms.iter().enumerate() {
            trans[i][*sym] = i + 1;
        }
        let mut accept = vec![false; n + 2];
        accept[n] = true;
        Dfa {
            trans,
            accept,
            start: 0,
        }
    }

    pub fn complement(&self) -> Dfa {
        Dfa {
            trans: self.trans.clone(),
            accept: self.accept.iter().map(|a| !a).collect(),
            start: self.start,
        }
    }

    /// Product automaton accepting the intersection language.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        let nsyms = self.trans[0].len();
        assert_eq!(nsyms, other.trans[0].len(), "alphabet mismatch");
        let mut ids: HashMap<(usize, usize), usize> = HashMap::new();
        let mut queue = VecDeque::new();
        let start = (self.start, other.start);
        ids.insert(start, 0);
        queue.push_back(start);
        let mut trans: Vec<Vec<usize>> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();
        while let Some((a, b)) = queue.pop_front() {
            accept.push(self.accept[a] && other.accept[b]);
            let mut row = Vec::with_capacity(nsyms);
            for sym in 0..nsyms {
                let nxt = (self.trans[a][sym], other.trans[b][sym]);
                let next_id = ids.len();
                let id = *ids.entry(nxt).or_insert_with(|| {
                    queue.push_back(nxt);
                    next_id
                });
                row.push(id);
            }
            trans.push(row);
        }
        Dfa {
            trans,
            accept,
            start: 0,
        }
    }

    pub fn accepts(&self, s: &str, alpha: &Alphabet) -> bool {
        let mut st = self.start;
        for c in s.chars() {
            st = self.trans[st][alpha.sym_of(c)];
        }
        self.accept[st]
    }

    /// Is the accepted language non-empty?
    pub fn is_nonempty(&self) -> bool {
        self.shortest_word().is_some()
    }

    /// Shortest accepted symbol string (BFS).
    fn shortest_word(&self) -> Option<Vec<usize>> {
        let n = self.num_states();
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut q = VecDeque::new();
        seen[self.start] = true;
        q.push_back(self.start);
        let mut hit = if self.accept[self.start] {
            Some(self.start)
        } else {
            None
        };
        while hit.is_none() {
            let Some(st) = q.pop_front() else { break };
            for (sym, &nxt) in self.trans[st].iter().enumerate() {
                if !seen[nxt] {
                    seen[nxt] = true;
                    prev[nxt] = Some((st, sym));
                    if self.accept[nxt] {
                        hit = Some(nxt);
                        break;
                    }
                    q.push_back(nxt);
                }
            }
        }
        let mut cur = hit?;
        let mut word = Vec::new();
        while let Some((p, sym)) = prev[cur] {
            word.push(sym);
            cur = p;
        }
        word.reverse();
        Some(word)
    }

    /// Shortest accepted string rendered through `alpha`.
    pub fn shortest_accepted(&self, alpha: &Alphabet) -> Option<String> {
        self.shortest_word()
            .map(|w| w.into_iter().map(|s| alpha.char_of(s)).collect())
    }

    /// Enumerates up to `limit` accepted strings in length-lexicographic
    /// order (bounded search; used to dodge disequalities during model
    /// generation).
    pub fn enumerate_accepted(&self, alpha: &Alphabet, limit: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut layer: Vec<(usize, String)> = vec![(self.start, String::new())];
        let max_len = self.num_states() + limit + 2;
        for _ in 0..=max_len {
            for (st, s) in &layer {
                if self.accept[*st] {
                    out.push(s.clone());
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
            let mut next = Vec::new();
            for (st, s) in &layer {
                for (sym, &nxt) in self.trans[*st].iter().enumerate() {
                    // No pruning: successors that cannot reach an accepting
                    // state stay in the layer, and the cap below keeps the
                    // first 4096 in order. A non-empty DFA can therefore
                    // yield no word at all (ROADMAP.md, "LIKE witnesses get
                    // lost").
                    let mut s2 = s.clone();
                    s2.push(alpha.char_of(sym));
                    next.push((nxt, s2));
                }
            }
            // Cap frontier growth; keep deterministic order.
            next.truncate(4096);
            layer = next;
            if layer.is_empty() {
                break;
            }
        }
        out
    }
}

/// Decides whether some string matches all `positive` and none of the
/// `negative` patterns; returns a witness if so.
pub fn like_witness(positive: &[&str], negative: &[&str]) -> Option<String> {
    let alpha = Alphabet::from_patterns(positive.iter().chain(negative).copied());
    let mut prod = Dfa::universal(&alpha);
    for p in positive {
        prod = prod.intersect(&Dfa::from_pattern(p, &alpha));
    }
    for p in negative {
        prod = prod.intersect(&Dfa::from_pattern(p, &alpha).complement());
    }
    let w = prod.shortest_accepted(&alpha)?;
    debug_assert!(
        positive.iter().all(|p| like_match(p, &w)) && negative.iter().all(|p| !like_match(p, &w)),
        "automata witness {w:?} disagrees with direct matcher"
    );
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_matcher() {
        assert!(like_match("Eve%", "Eve Edwards"));
        assert!(like_match("Eve %", "Eve Edwards"));
        assert!(!like_match("Eve %", "EveEdwards"));
        assert!(like_match("%complain%", "no complaints here"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "ac"));
        assert!(like_match("%", ""));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(like_match("%%", "anything"));
        assert!(like_match("a%b%c", "a-xx-b-yy-c"));
        assert!(!like_match("a%b%c", "acb"));
    }

    #[test]
    fn dfa_agrees_with_direct_matcher() {
        let cases = [
            ("Eve%", &["Eve", "Eve Edwards", "Ev", "eve"][..]),
            ("%a_b%", &["aXb", "ab", "zzaXbzz", "ba"][..]),
            ("a%", &["a", "", "ba"][..]),
        ];
        for (pat, strings) in cases {
            let alpha = Alphabet::from_patterns([pat]);
            let dfa = Dfa::from_pattern(pat, &alpha);
            for s in strings {
                assert_eq!(
                    dfa.accepts(s, &alpha),
                    like_match(pat, s),
                    "pattern {pat} on {s:?}"
                );
            }
        }
    }

    #[test]
    fn witness_positive_only() {
        let w = like_witness(&["Eve%"], &[]).unwrap();
        assert!(like_match("Eve%", &w));
    }

    #[test]
    fn witness_positive_and_negative() {
        // The paper's key case: LIKE 'Eve%' AND NOT LIKE 'Eve %'.
        let w = like_witness(&["Eve%"], &["Eve %"]).unwrap();
        assert!(like_match("Eve%", &w));
        assert!(!like_match("Eve %", &w));
    }

    #[test]
    fn witness_both_prefixes() {
        // LIKE 'Eve%' AND LIKE 'Eve %' — needs the space.
        let w = like_witness(&["Eve%", "Eve %"], &[]).unwrap();
        assert!(w.starts_with("Eve "));
    }

    #[test]
    fn unsatisfiable_combination() {
        assert_eq!(like_witness(&["a%"], &["a%"]), None);
        assert_eq!(like_witness(&["abc"], &["%b%"]), None);
        // x LIKE 'a' and x LIKE 'b' — two distinct exact strings.
        assert_eq!(like_witness(&["a", "b"], &[]), None);
    }

    #[test]
    fn negative_only() {
        let w = like_witness(&[], &["%"]);
        assert_eq!(w, None, "NOT LIKE '%' rejects everything");
        let w = like_witness(&[], &["a%"]).unwrap();
        assert!(!like_match("a%", &w));
    }

    #[test]
    fn enumerate_distinct_strings() {
        let alpha = Alphabet::from_patterns(["Eve%"]);
        let dfa = Dfa::from_pattern("Eve%", &alpha);
        let ws = dfa.enumerate_accepted(&alpha, 5);
        assert!(ws.len() >= 3);
        let mut uniq = ws.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ws.len());
        for w in &ws {
            assert!(like_match("Eve%", w), "{w:?}");
        }
    }

    #[test]
    fn singleton_dfa() {
        let alpha = Alphabet::from_patterns(["abc"]);
        let d = Dfa::singleton("abc", &alpha);
        assert!(d.accepts("abc", &alpha));
        assert!(!d.accepts("ab", &alpha));
        assert!(!d.accepts("abcd", &alpha));
    }

    #[test]
    fn underscore_needs_exactly_one() {
        let w = like_witness(&["_"], &[]).unwrap();
        assert_eq!(w.chars().count(), 1);
        assert_eq!(like_witness(&["_", "__"], &[]), None);
    }
}
