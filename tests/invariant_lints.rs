//! Tier-1 gate: the workspace passes its own invariant linter.
//!
//! This is the test that makes `cargo test -q` fail the moment someone
//! introduces a `std::collections::HashMap` on a sim path, an
//! `Instant::now()` outside the wall-clock fabric backend, a
//! non-`#[cfg(test)]` `daiet_netsim` import in a fabric-only crate, or an
//! unpinned Cargo dependency edge — the invariants PRs 3/6/8 were built
//! on, checked by machine instead of by reviewer memory. Rule docs live
//! in `docs/LINTS.md`.

use daiet_lintcheck::{run_workspace, scan_source};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let report = run_workspace(repo_root()).expect("scan repo");
    assert!(
        report.clean(),
        "invariant violations (fix them or add a justified lint:allow — see docs/LINTS.md):\n{}",
        report.render_text()
    );
}

/// A linter that scans nothing reports "clean" for the wrong reason.
/// The workspace has ~90 source files and 13 manifests; these floors are
/// far below reality but far above zero.
#[test]
fn scan_actually_covers_the_workspace() {
    let report = run_workspace(repo_root()).expect("scan repo");
    assert!(
        report.files_scanned >= 60,
        "only {} files scanned — did the crate layout move?",
        report.files_scanned
    );
    assert!(
        report.manifests_checked >= 10,
        "only {} manifests checked",
        report.manifests_checked
    );
}

/// Every allowlist entry in the repo suppresses a real finding (stale
/// ones are findings themselves, so `workspace_is_lint_clean` covers
/// that); this asserts the active exception list hasn't silently grown.
/// The bound is the count in use: raise it only in the change that adds
/// a marker and its written justification, and lower it in the change
/// that deletes one.
#[test]
fn allowlist_stays_small() {
    let report = run_workspace(repo_root()).expect("scan repo");
    assert!(
        report.allows_used.len() <= 13,
        "allowlist grew to {} entries:\n{:#?}",
        report.allows_used.len(),
        report.allows_used
    );
}

/// The gate actually fires: seed each headline violation into an
/// in-memory file "inside" a guarded crate and check the exact rule
/// triggers. If a rule regresses to never-fires, this fails even though
/// the (clean) workspace scan still passes.
#[test]
fn seeded_violations_are_caught() {
    let cases: &[(&str, &str, &str)] = &[
        ("crates/core/src/x.rs", "use std::collections::HashMap;\n", "det-collections"),
        ("crates/core/src/x.rs", "use std::collections::HashSet;\n", "det-collections"),
        (
            "crates/netsim/src/x.rs",
            "fn t() -> std::time::Instant { std::time::Instant::now() }\n",
            "det-clock",
        ),
        ("crates/mlsim/src/x.rs", "fn r() { let _ = rand::rng().thread_rng(); }\n", "det-rng"),
        ("crates/querysim/src/x.rs", "use daiet_netsim::Simulator;\n", "layer-netsim"),
        ("crates/core/src/x.rs", "use daiet_netsim::{NodeId, Simulator};\n", "layer-netsim"),
        ("crates/dataplane/src/x.rs", "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n", "panic-hotpath"),
    ];
    for (path, src, rule) in cases {
        let findings = scan_source(path, src);
        assert!(
            findings.iter().any(|f| f.rule == *rule),
            "{rule} not caught for {src:?} at {path}: {findings:?}"
        );
    }

    // And the test-code exemption holds: the same import inside
    // #[cfg(test)] is fine.
    let in_test =
        "#[cfg(test)]\nmod tests {\n    use daiet_netsim::Simulator;\n    use std::collections::HashMap;\n}\n";
    let findings = scan_source("crates/core/src/x.rs", in_test);
    assert!(findings.is_empty(), "{findings:?}");
}
