//! `tree-to-conj` (Algorithm 2 line 3): converting a quantifier-free syntax
//! tree into a list of conjunctions of atoms (a DNF), each of which
//! `Add-to-Ins` then materializes into a candidate c-instance.

use cqi_drc::{Atom, Formula};

/// DNF of a quantifier-free formula: a list of conjunctions (atom lists).
///
/// Panics on quantifier nodes — `Tree-Chase` only calls this when the
/// subtree has no quantifiers.
pub fn tree_to_conj(f: &Formula) -> Vec<Vec<Atom>> {
    match f {
        Formula::Atom(a) => vec![vec![a.clone()]],
        Formula::And(l, r) => {
            let ls = tree_to_conj(l);
            let rs = tree_to_conj(r);
            let mut out = Vec::with_capacity(ls.len() * rs.len());
            for lc in &ls {
                for rc in &rs {
                    let mut conj = lc.clone();
                    conj.extend(rc.iter().cloned());
                    out.push(conj);
                }
            }
            out
        }
        Formula::Or(l, r) => {
            let mut out = tree_to_conj(l);
            out.extend(tree_to_conj(r));
            out
        }
        Formula::Exists(..) | Formula::Forall(..) => {
            panic!("tree_to_conj on a quantified subtree")
        }
    }
}

/// Does the formula contain any quantifier? The chase reads this from its
/// node table ([`crate::compiled`]); this is the reference the table's
/// flags are tested against.
#[cfg(test)]
pub(crate) fn has_quantifier(f: &Formula) -> bool {
    match f {
        Formula::Atom(_) => false,
        Formula::And(l, r) | Formula::Or(l, r) => has_quantifier(l) || has_quantifier(r),
        Formula::Exists(..) | Formula::Forall(..) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::{CmpOp, Term, VarId};

    fn atom(i: u32) -> Formula {
        Formula::Atom(Atom::Cmp {
            negated: false,
            lhs: Term::Var(VarId(i)),
            op: CmpOp::Eq,
            rhs: Term::Var(VarId(i)),
        })
    }

    #[test]
    fn single_atom() {
        assert_eq!(tree_to_conj(&atom(0)).len(), 1);
    }

    #[test]
    fn and_of_ors_cross_product() {
        // (a ∨ b) ∧ (c ∨ d) → 4 conjunctions of 2 atoms each.
        let f = Formula::and(Formula::or(atom(0), atom(1)), Formula::or(atom(2), atom(3)));
        let dnf = tree_to_conj(&f);
        assert_eq!(dnf.len(), 4);
        assert!(dnf.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn nested_or() {
        // a ∨ (b ∧ (c ∨ d)) → [a], [b,c], [b,d].
        let f = Formula::or(
            atom(0),
            Formula::and(atom(1), Formula::or(atom(2), atom(3))),
        );
        let dnf = tree_to_conj(&f);
        assert_eq!(dnf.len(), 3);
        assert_eq!(dnf[0].len(), 1);
        assert_eq!(dnf[1].len(), 2);
    }

    #[test]
    fn has_quantifier_detection() {
        assert!(!has_quantifier(&atom(0)));
        assert!(has_quantifier(&Formula::Exists(
            VarId(0),
            Box::new(atom(0))
        )));
    }
}
