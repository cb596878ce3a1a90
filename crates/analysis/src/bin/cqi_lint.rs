//! `cqi-lint`: runs the project lint rules (see `cqi_analysis::lint`)
//! over the repository and fails if any finding survives.
//!
//! Usage: `cqi-lint [--root PATH] [--report PATH]`
//!
//! `--root` defaults to the workspace root (located from this binary's
//! manifest at build time, falling back to the current directory).
//! `--report` merges a `lint` section into the given
//! `ANALYSIS_report.json`.

use cqi_analysis::lint::{lint_workspace, LintConfig};
use cqi_analysis::report::{json_arr, json_obj, json_str, merge_section};

fn default_root() -> std::path::PathBuf {
    // crates/analysis/ -> workspace root is two levels up.
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(|p| p.parent()) {
        Some(root) if root.join("Cargo.toml").exists() => root.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    }
}

fn run() -> i32 {
    let mut root = default_root();
    let mut report_path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = p.into(),
                None => {
                    eprintln!("--root needs a path");
                    return 2;
                }
            },
            "--report" => match args.next() {
                Some(p) => report_path = Some(p.into()),
                None => {
                    eprintln!("--report needs a path");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                return 2;
            }
        }
    }

    let cfg = LintConfig::repo_policy();
    let (files, findings) = match lint_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cqi-lint: cannot scan {}: {e}", root.display());
            return 2;
        }
    };
    for f in &findings {
        println!("{f}");
    }
    println!("cqi-lint: {} findings across {files} files", findings.len());

    if let Some(path) = report_path {
        let section = json_obj([
            ("passed", findings.is_empty().to_string()),
            ("files_scanned", files.to_string()),
            (
                "findings",
                json_arr(findings.iter().map(|f| {
                    json_obj([
                        ("rule", json_str(f.rule)),
                        ("path", json_str(&f.path)),
                        ("line", f.line.to_string()),
                        ("message", json_str(&f.message)),
                    ])
                })),
            ),
        ]);
        if let Err(e) = merge_section(&path, "lint", section) {
            eprintln!("failed to write {}: {e}", path.display());
            return 2;
        }
        println!("wrote lint section to {}", path.display());
    }

    if findings.is_empty() {
        0
    } else {
        1
    }
}

fn main() {
    std::process::exit(run());
}
