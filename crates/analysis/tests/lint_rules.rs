//! Per-rule fixture tests for `cqi_analysis::lint`: every rule has a
//! positive fixture (must fire, at the right line) and a negative fixture
//! (must stay silent). Fixtures live under `tests/fixtures/` — a directory
//! the workspace walker deliberately skips, since the positive ones are
//! violations on purpose.

use cqi_analysis::lint::{lint_source, LintConfig};

/// A library-code path: no test/bench/bin exemption applies.
const LIB: &str = "crates/x/src/lib.rs";

fn rules(findings: &[cqi_analysis::lint::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unsafe_without_safety_fires_both_unsafe_rules() {
    let src = include_str!("fixtures/unsafe_bad.rs");
    let out = lint_source(LIB, src, &LintConfig::strict());
    assert_eq!(
        rules(&out),
        ["unsafe-allowlist", "unsafe-safety"],
        "{out:?}"
    );
    assert!(out.iter().all(|f| f.line == 6), "{out:?}");
}

#[test]
fn safety_block_above_allowlisted_unsafe_is_clean() {
    let src = include_str!("fixtures/unsafe_good.rs");
    let mut cfg = LintConfig::strict();
    cfg.unsafe_files.push(LIB.into());
    let out = lint_source(LIB, src, &cfg);
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn safety_comment_must_be_contiguous_with_the_unsafe_line() {
    // A blank (comment-free) line between the SAFETY block and the unsafe
    // breaks the association: stale comments must not license new code.
    let src = "// SAFETY: stale justification for code that moved away\n\
               \n\
               pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let mut cfg = LintConfig::strict();
    cfg.unsafe_files.push(LIB.into());
    let out = lint_source(LIB, src, &cfg);
    assert_eq!(rules(&out), ["unsafe-safety"], "{out:?}");
}

#[test]
fn unjustified_allow_fires_and_justified_allow_is_clean() {
    let bad = include_str!("fixtures/allow_bad.rs");
    let out = lint_source(LIB, bad, &LintConfig::strict());
    assert_eq!(rules(&out), ["allow-justify"], "{out:?}");
    assert_eq!(out[0].line, 5);

    let good = include_str!("fixtures/allow_good.rs");
    let out = lint_source(LIB, good, &LintConfig::strict());
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn wall_clock_fires_in_library_code_and_waiver_silences_it() {
    let bad = include_str!("fixtures/wall_clock_bad.rs");
    let out = lint_source(LIB, bad, &LintConfig::strict());
    assert_eq!(rules(&out), ["wall-clock"], "{out:?}");
    assert_eq!(out[0].line, 4);

    let good = include_str!("fixtures/wall_clock_good.rs");
    let out = lint_source(LIB, good, &LintConfig::strict());
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn wall_clock_is_allowed_under_configured_prefixes() {
    let bad = include_str!("fixtures/wall_clock_bad.rs");
    let mut cfg = LintConfig::strict();
    cfg.wall_clock_prefixes.push("crates/obs/".into());
    let out = lint_source("crates/obs/src/timer.rs", bad, &cfg);
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn println_fires_in_library_code_only() {
    let bad = include_str!("fixtures/println_bad.rs");
    let out = lint_source(LIB, bad, &LintConfig::strict());
    assert_eq!(rules(&out), ["println"], "{out:?}");
    assert_eq!(out[0].line, 2);

    // The same source is fine in a binary, a bench, or a test tree.
    for path in [
        "crates/x/src/bin/tool.rs",
        "benches/bench_x.rs",
        "crates/x/tests/integration.rs",
    ] {
        let out = lint_source(path, bad, &LintConfig::strict());
        assert!(out.is_empty(), "{path}: {out:?}");
    }
}

#[test]
fn eprintln_and_masked_println_do_not_fire() {
    let good = include_str!("fixtures/println_good.rs");
    let out = lint_source(LIB, good, &LintConfig::strict());
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn unwrap_over_zero_budget_fires_with_the_count() {
    let bad = include_str!("fixtures/unwrap_bad.rs");
    let out = lint_source(LIB, bad, &LintConfig::strict());
    assert_eq!(rules(&out), ["unwrap"], "{out:?}");
    assert!(out[0].message.contains("1 non-poisoning"), "{out:?}");

    // The ratchet: a budget matching the count silences it …
    let mut cfg = LintConfig::strict();
    cfg.unwrap_budgets.insert(LIB.into(), 1);
    assert!(lint_source(LIB, bad, &cfg).is_empty());
}

#[test]
fn poison_idiom_unwraps_are_never_counted() {
    let good = include_str!("fixtures/unwrap_good.rs");
    let out = lint_source(LIB, good, &LintConfig::strict());
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn relaxed_fires_outside_designated_files_only() {
    let bad = include_str!("fixtures/relaxed_bad.rs");
    let out = lint_source(LIB, bad, &LintConfig::strict());
    assert_eq!(rules(&out), ["relaxed"], "{out:?}");
    assert_eq!(out[0].line, 4);

    let mut cfg = LintConfig::strict();
    cfg.relaxed_files.push(LIB.into());
    assert!(lint_source(LIB, bad, &cfg).is_empty());

    let good = include_str!("fixtures/relaxed_good.rs");
    let out = lint_source(LIB, good, &LintConfig::strict());
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn findings_render_as_path_line_rule() {
    let bad = include_str!("fixtures/println_bad.rs");
    let out = lint_source(LIB, bad, &LintConfig::strict());
    let rendered = out[0].to_string();
    assert!(
        rendered.starts_with("crates/x/src/lib.rs:2: [println]"),
        "{rendered}"
    );
}
