//! The case study of §5.2 / Table 2: universal solutions for the two most
//! complex assignment queries, side by side with the RATest-style ground
//! counterexample.

use std::time::Duration;

use cqi_baseline::ratest;
use cqi_core::{CSolution, ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::{beers_schema, user_study_queries};
use cqi_drc::{parse_query, Query, SyntaxTree};

/// One case-study entry.
pub struct CaseStudy {
    pub name: String,
    pub correct: Query,
    pub wrong: Query,
}

/// The two case-study query pairs of Table 2.
///
/// Q1 is the running example (Fig. 2); Q2 is "find names of all drinkers
/// who frequent only bars that serve some beer they like" with the wrong
/// submission that joins `Frequents` with `Serves` instead of `Likes` with
/// `Serves`.
pub fn case_studies() -> Vec<CaseStudy> {
    let s = beers_schema();
    let us = user_study_queries();
    let q1 = CaseStudy {
        name: "Q1 (running example)".to_owned(),
        correct: us[0].1.clone(),
        wrong: us[0].2.clone(),
    };
    let q2a = parse_query(
        &s,
        "{ (d1) | exists a1 (Drinker(d1, a1) and forall x1 (forall t1 (not Frequents(d1, x1, t1) \
         or exists b1, p1 (Serves(x1, b1, p1) and Likes(d1, b1))))) }",
    )
    .unwrap()
    .with_label("Q2A-case");
    let q2b = parse_query(
        &s,
        "{ (d1) | exists a1 (Drinker(d1, a1) and forall b1 ((forall t1, x1, p1 (not Frequents(d1, x1, t1) \
         or not Serves(x1, b1, p1))) or Likes(d1, b1))) }",
    )
    .unwrap()
    .with_label("Q2B-case");
    let q2 = CaseStudy {
        name: "Q2 (frequents only bars serving a liked beer)".to_owned(),
        correct: q2a,
        wrong: q2b,
    };
    vec![q1, q2]
}

/// Runs `Disj-Add` on `wrong − correct` (Table 2's configuration).
pub fn universal_solution_for(cs: &CaseStudy, limit: usize, timeout: Duration) -> CSolution {
    let diff = cs
        .wrong
        .difference(&cs.correct)
        .expect("compatible queries");
    let tree = SyntaxTree::new(diff);
    let cfg = ChaseConfig::with_limit(limit).enforce_keys(true);
    Session::new(tree.query().schema.clone())
        .config(cfg)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjAdd)
                .deadline(timeout),
        )
        .expect("pre-parsed trees compile unconditionally")
}

/// Prints the full Table 2 reproduction.
pub fn print_case_study(limit: usize, timeout: Duration) {
    let schema = beers_schema();
    for cs in case_studies() {
        println!("\n==== Case study {} ====", cs.name);
        println!("correct: {}", cqi_drc::pretty::query_to_string(&cs.correct));
        println!("wrong:   {}", cqi_drc::pretty::query_to_string(&cs.wrong));
        let sol = universal_solution_for(&cs, limit, timeout);
        println!(
            "minimal c-solution (Disj-Add, limit {limit}): {} instance(s){}",
            sol.num_coverages(),
            if sol.interrupted.is_some() {
                " [stopped early]"
            } else {
                ""
            }
        );
        for (i, si) in sol.instances.iter().enumerate() {
            println!("-- c-instance #{} (size {}):", i + 1, si.size());
            print!("{}", si.inst);
        }
        println!("-- RATest-style ground counterexample for comparison:");
        match ratest(&schema, &cs.correct, &cs.wrong, 50) {
            Some(ce) => print!("{ce}"),
            None => println!("   (no counterexample found in the seeded databases)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_eval::evaluate;

    #[test]
    fn case_study_queries_differ_semantically() {
        // RATest must find a disagreement for both case studies.
        let s = beers_schema();
        for cs in case_studies() {
            let ce = ratest(&s, &cs.correct, &cs.wrong, 60)
                .unwrap_or_else(|| panic!("{}: no counterexample", cs.name));
            assert_ne!(
                evaluate(&cs.correct, &ce),
                evaluate(&cs.wrong, &ce),
                "{}",
                cs.name
            );
        }
    }

    #[test]
    fn universal_solution_nonempty_for_q2() {
        let css = case_studies();
        let sol = universal_solution_for(&css[1], 8, Duration::from_secs(30));
        assert!(
            !sol.instances.is_empty(),
            "Q2 universal solution should contain instances"
        );
    }
}
