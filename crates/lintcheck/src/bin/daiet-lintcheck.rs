//! CLI for the workspace invariant linter.
//!
//! ```text
//! daiet-lintcheck [--root PATH] [--json] [--list-rules] [--self-test]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error. Findings print one
//! per line as `file:line: [rule-id] message; suggestion: …` (or JSON
//! lines with `--json`) — stable output CI renders into the job summary.
//!
//! `--self-test` seeds one violation per file-scoped rule into a
//! temporary source tree and verifies the scan over that tree catches
//! every one of them. CI runs it next to the real scan: a linter that
//! silently scans zero files (bad glob, bad root) reports "clean", and
//! the self-test is what turns that failure mode loud.

use daiet_lintcheck::{run_workspace, rules, scan_source};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--list-rules" => {
                for r in rules::RULES {
                    println!("{:18} {}", r.id, r.summary);
                    println!("{:18} motivated by: {}", "", r.motivation);
                }
                return ExitCode::SUCCESS;
            }
            "--self-test" => return self_test(),
            "--help" | "-h" => {
                println!(
                    "usage: daiet-lintcheck [--root PATH] [--json] [--list-rules] [--self-test]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
        eprintln!(
            "lintcheck: {} finding(s) across {} files, {} manifests; {} allowlist entr(ies) in use",
            report.findings.len(),
            report.files_scanned,
            report.manifests_checked,
            report.allows_used.len()
        );
    }
    if report.files_scanned == 0 {
        eprintln!("lintcheck: scanned zero files — wrong --root?");
        return ExitCode::from(2);
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One known-bad snippet per file-scoped rule; each must produce exactly
/// its rule at the expected line, both in-memory and via a scan of a
/// real temp tree on disk (exercising the same directory walk CI runs).
fn self_test() -> ExitCode {
    let cases: &[(&str, &str, &str, u32)] = &[
        (
            "det-collections",
            "crates/core/src/seeded.rs",
            "use std::collections::HashMap;\n",
            1,
        ),
        (
            "det-clock",
            "crates/netsim/src/seeded.rs",
            "fn t() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
            2,
        ),
        (
            "det-rng",
            "crates/mlsim/src/seeded.rs",
            "fn r() {\n    let _ = rand::rng().thread_rng();\n}\n",
            2,
        ),
        (
            "layer-netsim",
            "crates/querysim/src/seeded.rs",
            "use daiet_netsim::Simulator;\n",
            1,
        ),
        (
            "panic-hotpath",
            "crates/dataplane/src/seeded.rs",
            "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
            2,
        ),
    ];

    // In-memory pass: exact rule at exact line.
    for (rule, path, src, line) in cases {
        let findings = scan_source(path, src);
        let hit = findings.iter().any(|f| f.rule == *rule && f.line == *line);
        if !hit {
            eprintln!("self-test FAILED: {rule} not caught at {path}:{line} — got {findings:?}");
            return ExitCode::FAILURE;
        }
    }

    // On-disk pass: build a temp mini-workspace and run the real
    // directory walk over it.
    let dir = std::env::temp_dir().join(format!("lintcheck-selftest-{}", std::process::id()));
    let run = (|| -> std::io::Result<bool> {
        for (_, path, src, _) in cases {
            let full = dir.join(path);
            std::fs::create_dir_all(full.parent().expect("case paths have parents"))?;
            std::fs::write(&full, src)?;
            // The walk only enters crate dirs that carry a manifest.
            let crate_dir = full.parent().and_then(|p| p.parent()).expect("crates/<name>/src");
            let name = crate_dir.file_name().expect("crate dir name").to_string_lossy();
            std::fs::write(
                crate_dir.join("Cargo.toml"),
                format!("[package]\nname = \"seeded-{name}\"\n"),
            )?;
        }
        let report = run_workspace(&dir)?;
        let all_caught = cases.iter().all(|(rule, path, _, line)| {
            report
                .findings
                .iter()
                .any(|f| f.rule == *rule && f.file == *path && f.line == *line)
        });
        if !all_caught {
            eprintln!("self-test FAILED on-disk: {}", report.render_text());
        }
        if report.files_scanned != cases.len() {
            eprintln!(
                "self-test FAILED: scanned {} files, seeded {}",
                report.files_scanned,
                cases.len()
            );
            return Ok(false);
        }
        Ok(all_caught)
    })();
    let _ = std::fs::remove_dir_all(&dir);

    match run {
        Ok(true) => {
            println!("self-test OK: {} seeded violations all caught", cases.len());
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("self-test IO error: {e}");
            ExitCode::FAILURE
        }
    }
}
