//! `daiet-lintcheck` — the workspace invariant linter.
//!
//! Every hard bug this reproduction has hit was an invariant that only
//! lived in reviewers' heads: the shared-`SmallRng` fault stream and the
//! heap-insertion-order ties that broke same-seed determinism (PR 6),
//! sequence-space wraparound compared without RFC 1982 rules (PR 3).
//! The paper's argument rests on the switch aggregate being bit-exact
//! with the host computation, and our proof strategy — bit-identical
//! results at the same seed, under chaos, across backends — collapses
//! silently if one `HashMap` iteration or `Instant::now()` sneaks into a
//! sim path. This crate machine-checks those rules.
//!
//! Three entry points:
//! - [`run_workspace`] — scan a repo root; the tier-1 integration test
//!   (`tests/invariant_lints.rs`) calls this, so plain `cargo test`
//!   gates every rule.
//! - [`scan_source`] — lint one in-memory file; fixture tests and the
//!   seeded-violation self-test use this.
//! - the `daiet-lintcheck` binary — machine-readable findings for CI.
//!
//! Rules are documented for humans in `docs/LINTS.md`; the registry with
//! machine-facing metadata is [`rules::RULES`]. Exceptions live in the
//! source they excuse as `lint:allow(<rule>): <justification>` /
//! `lint:allow-file(<rule>): <justification>` comments ([`allow`]).

pub mod allow;
pub mod graph;
pub mod lexer;
pub mod rules;

use allow::{parse_allows, Allow, AllowScope, MIN_JUSTIFICATION};
use lexer::Lexed;
use rules::{check_file, rule, Finding};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The result of a workspace (or single-file) scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived the allowlist, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned. The integration test asserts this
    /// is well above zero — a linter that silently scans nothing is
    /// worse than no linter.
    pub files_scanned: usize,
    /// Number of crate manifests checked against the dependency pin.
    pub manifests_checked: usize,
    /// Allowlist entries that suppressed at least one finding, as
    /// `(file, line, rule, justification)` — surfaced so CI can render
    /// the active exception list next to the findings.
    pub allows_used: Vec<(String, u32, String, String)>,
}

impl Report {
    /// True when the scan found nothing.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders findings one per line: `file:line: [rule] message;
    /// suggestion: …` — stable, grep-able, and exactly what the fixture
    /// tests assert on.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let hint = rule(f.rule).map_or("", |r| r.suggestion);
            out.push_str(&format!(
                "{}:{}: [{}] {}; suggestion: {}\n",
                f.file, f.line, f.rule, f.message, hint
            ));
        }
        out
    }

    /// Renders findings as JSON lines (one object per finding) for
    /// machine consumption. Hand-rolled on purpose: the linter has no
    /// dependencies, and the fields are all simple strings/numbers.
    pub fn render_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}\n",
                esc(&f.file),
                f.line,
                f.rule,
                esc(&f.message)
            ));
        }
        out
    }
}

/// Lints one in-memory source file. `path` is the repo-relative path the
/// file claims to be at (rule scoping is string-based, so fixtures can
/// place a snippet "inside" any crate). Allow markers inside the source
/// are honored exactly as on disk.
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    let lexed = Lexed::lex(src);
    let allows = parse_allows(&lexed.comments);
    let raw = check_file(path, &lexed);
    let (findings, _used) = apply_allows(path, raw, &allows);
    findings
}

/// Applies a file's allow markers to its raw findings. Returns the
/// surviving findings (plus any allow-hygiene findings the markers
/// themselves earn) and the used entries `(line, rule, justification)`.
fn apply_allows(
    path: &str,
    raw: Vec<Finding>,
    allows: &[Allow],
) -> (Vec<Finding>, Vec<(u32, String, String)>) {
    let mut used = vec![false; allows.len()];
    let mut out = Vec::new();

    for f in raw {
        let matched = allows.iter().enumerate().find(|(_, a)| {
            a.rule == f.rule
                && match a.scope {
                    AllowScope::File => true,
                    AllowScope::Line => f.line >= a.line && f.line <= a.end,
                }
        });
        match matched {
            Some((idx, _)) => used[idx] = true,
            None => out.push(f),
        }
    }

    // Hygiene: every marker must name a real rule, carry a genuine
    // justification, and actually suppress something.
    for (idx, a) in allows.iter().enumerate() {
        if rule(&a.rule).is_none() {
            out.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: "allow-hygiene",
                message: format!("lint:allow names unknown rule `{}`", a.rule),
            });
            continue;
        }
        if a.rule == "allow-hygiene" {
            out.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: "allow-hygiene",
                message: "allow-hygiene findings cannot themselves be allowlisted".to_string(),
            });
            continue;
        }
        if a.justification.chars().count() < MIN_JUSTIFICATION {
            out.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: "allow-hygiene",
                message: format!(
                    "lint:allow({}) needs a written justification (>= {MIN_JUSTIFICATION} chars)",
                    a.rule
                ),
            });
        }
        if !used[idx] {
            out.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: "allow-hygiene",
                message: format!(
                    "lint:allow({}) suppresses nothing — stale entries must be deleted",
                    a.rule
                ),
            });
        }
    }

    let used_entries = allows
        .iter()
        .zip(&used)
        .filter(|(_, u)| **u)
        .map(|(a, _)| (a.line, a.rule.clone(), a.justification.clone()))
        .collect();
    (out, used_entries)
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Scans a workspace rooted at `root`: every `.rs` file under
/// `crates/*/src/` and the root package's `src/`, plus the dependency
/// DAG over every `crates/*/Cargo.toml` and the root manifest.
///
/// Deliberately out of scope (documented in `docs/LINTS.md`): `vendor/`
/// (API-compatible stand-ins for external crates, held to external
/// standards), `tests/`, `examples/`, and `benches/` dirs (test-tier
/// code, the same exemption `#[cfg(test)]` spans get in-file).
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut edges: BTreeMap<String, Vec<String>> = BTreeMap::new();

    // Crate source dirs: crates/*/src plus the root facade's src/.
    let mut src_roots: Vec<(String, PathBuf)> = vec![(".".to_string(), root.join("src"))];
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            if d.join("Cargo.toml").is_file() {
                let name = d.file_name().map(|n| n.to_string_lossy().into_owned());
                if let Some(name) = name {
                    src_roots.push((name, d.join("src")));
                }
            }
        }
    }

    for (krate, src_dir) in &src_roots {
        // Manifest / DAG check.
        let manifest_path = if krate == "." {
            root.join("Cargo.toml")
        } else {
            crates_dir.join(krate).join("Cargo.toml")
        };
        if let Ok(toml) = std::fs::read_to_string(&manifest_path) {
            let deps = graph::parse_dependencies(&toml);
            let rel = manifest_rel(krate);
            report.findings.extend(graph::check_crate_deps(krate, &rel, &deps));
            edges.insert(krate.clone(), deps);
            report.manifests_checked += 1;
        }

        // Source scan.
        let mut files = Vec::new();
        rs_files(src_dir, &mut files);
        for file in files {
            let Ok(src) = std::fs::read_to_string(&file) else { continue };
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let lexed = Lexed::lex(&src);
            let allows = parse_allows(&lexed.comments);
            let raw = check_file(&rel, &lexed);
            let (findings, used) = apply_allows(&rel, raw, &allows);
            report.findings.extend(findings);
            report
                .allows_used
                .extend(used.into_iter().map(|(l, r, j)| (rel.clone(), l, r, j)));
            report.files_scanned += 1;
        }
    }

    report.findings.extend(graph::check_acyclic(&edges));
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

fn manifest_rel(krate: &str) -> String {
    if krate == "." {
        "Cargo.toml".to_string()
    } else {
        format!("crates/{krate}/Cargo.toml")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_violation_is_caught_and_allow_suppresses_it() {
        let bad = "use std::collections::HashMap;\n";
        let findings = scan_source("crates/core/src/x.rs", bad);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "det-collections");
        assert_eq!(findings[0].line, 1);

        let allowed = "// lint:allow(det-collections): exercised by the engine's own unit test, \
                       never a sim path.\nuse std::collections::HashMap;\n";
        let findings = scan_source("crates/core/src/x.rs", allowed);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn stale_and_unjustified_allows_are_findings() {
        let stale = "// lint:allow(det-clock): a perfectly written justification sentence here.\n\
                     fn nothing_wrong() {}\n";
        let findings = scan_source("crates/core/src/x.rs", stale);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "allow-hygiene");
        assert!(findings[0].message.contains("suppresses nothing"));

        let short = "// lint:allow(det-collections): ok\nuse std::collections::HashMap;\n";
        let findings = scan_source("crates/core/src/x.rs", short);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("justification"));

        let unknown = "// lint:allow(no-such-rule): a perfectly written justification here.\n\
                       fn f() {}\n";
        let findings = scan_source("crates/core/src/x.rs", unknown);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unknown rule"));
    }
}
