//! The `layer-dag` rule: the workspace crate dependency graph is pinned.
//!
//! PR 8 split the codebase into layers — `wire`/`fabric` at the bottom,
//! `netsim` and `dataplane` as the two backends' engines, `core` as the
//! protocol, workloads on top — and the backend-equivalence proofs rely
//! on that separation staying true. Cargo would happily accept a new
//! `daiet-dataplane -> daiet-netsim` edge; this rule would not. Every
//! crate's `[dependencies]` section must match [`EXPECTED_DEPS`]
//! exactly, and the graph must stay acyclic (belt and braces: the exact
//! pin already forbids cycles, but the cycle check survives a sloppy
//! table edit).
//!
//! `[dev-dependencies]` are deliberately not pinned: tests may reach up
//! the stack (dataplane's tests drive the switch under the simulator),
//! which is the same exemption `#[cfg(test)]` gets in `layer-netsim`.

use crate::rules::Finding;
use std::collections::BTreeMap;

/// The pinned dependency DAG: `(crate dir, [package names])`, normal
/// `[dependencies]` only, sorted. `"."` is the root facade package.
/// Editing this table is the only way to add an edge — do it in the same
/// change that adds the dependency, and say why in the commit.
pub const EXPECTED_DEPS: &[(&str, &[&str])] = &[
    (".", &[
        "daiet",
        "daiet-dataplane",
        "daiet-fabric",
        "daiet-graphsim",
        "daiet-mapreduce",
        "daiet-mlsim",
        "daiet-netsim",
        "daiet-querysim",
        "daiet-transport",
        "daiet-wire",
    ]),
    ("bench", &[
        "daiet",
        "daiet-dataplane",
        "daiet-fabric",
        "daiet-graphsim",
        "daiet-mapreduce",
        "daiet-mlsim",
        "daiet-netsim",
        "daiet-querysim",
        "daiet-wire",
    ]),
    ("core", &["daiet-dataplane", "daiet-fabric", "daiet-netsim", "daiet-wire"]),
    ("dataplane", &["daiet-fabric", "daiet-wire"]),
    ("fabric", &["rand"]),
    ("graphsim", &["daiet", "daiet-wire", "rand"]),
    ("lintcheck", &[]),
    ("mapreduce", &[
        "daiet",
        "daiet-dataplane",
        "daiet-fabric",
        "daiet-netsim",
        "daiet-transport",
        "daiet-wire",
        "rand",
    ]),
    ("mlsim", &["daiet", "daiet-netsim", "daiet-wire", "rand"]),
    ("netsim", &["daiet-fabric", "rand"]),
    ("querysim", &[
        "daiet",
        "daiet-dataplane",
        "daiet-fabric",
        "daiet-netsim",
        "daiet-transport",
        "daiet-wire",
        "rand",
    ]),
    ("transport", &["daiet-netsim", "daiet-wire"]),
    ("wire", &[]),
];

/// Extracts the normal `[dependencies]` package names from a Cargo.toml.
/// This is a section-aware line scanner, not a TOML parser — exactly the
/// shapes this workspace uses (`name.workspace = true`,
/// `name = { path = "…" }`, `name = "1.0"`), which is all it needs.
pub fn parse_dependencies(cargo_toml: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for raw in cargo_toml.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(key) = line.split('=').next() else { continue };
        // `daiet.workspace = true` -> `daiet`; quoted keys unquoted.
        let name = key.trim().trim_matches('"').split('.').next().unwrap_or("").trim();
        if !name.is_empty() {
            deps.push(name.to_string());
        }
    }
    deps.sort();
    deps.dedup();
    deps
}

/// Checks one crate's parsed dependencies against the pin. `krate` is
/// the crate dir name (`"core"`) or `"."` for the root package;
/// `manifest` is the repo-relative Cargo.toml path used in findings.
pub fn check_crate_deps(krate: &str, manifest: &str, deps: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some((_, expected)) = EXPECTED_DEPS.iter().find(|(c, _)| *c == krate) else {
        out.push(Finding {
            file: manifest.to_string(),
            line: 1,
            rule: "layer-dag",
            message: format!(
                "crate `{krate}` is not in the pinned dependency DAG — add it to \
                 EXPECTED_DEPS in lintcheck's graph.rs with its intended layer"
            ),
        });
        return out;
    };
    for dep in deps {
        if !expected.contains(&dep.as_str()) {
            out.push(Finding {
                file: manifest.to_string(),
                line: 1,
                rule: "layer-dag",
                message: format!("unpinned dependency edge `{krate}` -> `{dep}`"),
            });
        }
    }
    for want in *expected {
        if !deps.iter().any(|d| d == want) {
            out.push(Finding {
                file: manifest.to_string(),
                line: 1,
                rule: "layer-dag",
                message: format!(
                    "pinned dependency edge `{krate}` -> `{want}` is gone — remove it from \
                     EXPECTED_DEPS if that is intentional"
                ),
            });
        }
    }
    out
}

/// Cycle check over the collected `crate -> [deps]` edges (package
/// names are mapped back to crate dirs where they are workspace members;
/// external names like `rand` are leaves).
pub fn check_acyclic(edges: &BTreeMap<String, Vec<String>>) -> Vec<Finding> {
    // Package name -> crate dir for workspace members.
    let dir_of = |pkg: &str| -> Option<String> {
        match pkg {
            "daiet" => Some("core".to_string()),
            "daiet-repro" => Some(".".to_string()),
            p => {
                let dir = p.strip_prefix("daiet-")?;
                edges.contains_key(dir).then(|| dir.to_string())
            }
        }
    };
    // Recursive three-color DFS; the graph has ~a dozen nodes, so the
    // stack depth is trivially bounded.
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    fn dfs(
        node: &str,
        edges: &BTreeMap<String, Vec<String>>,
        dir_of: &dyn Fn(&str) -> Option<String>,
        marks: &mut BTreeMap<String, u8>,
        path: &mut Vec<String>,
        out: &mut Vec<Finding>,
    ) {
        marks.insert(node.to_string(), GREY);
        path.push(node.to_string());
        for dep in edges.get(node).map(Vec::as_slice).unwrap_or_default() {
            let Some(child) = dir_of(dep) else { continue };
            match marks.get(&child).copied() {
                None => dfs(&child, edges, dir_of, marks, path, out),
                Some(GREY) => out.push(Finding {
                    file: "Cargo.toml".to_string(),
                    line: 1,
                    rule: "layer-dag",
                    message: format!(
                        "dependency cycle through `{child}` (path: {})",
                        path.join(" -> ")
                    ),
                }),
                _ => {}
            }
        }
        marks.insert(node.to_string(), BLACK);
        path.pop();
    }

    let mut marks: BTreeMap<String, u8> = BTreeMap::new();
    let mut out = Vec::new();
    for start in edges.keys() {
        if !marks.contains_key(start) {
            dfs(start, edges, &dir_of, &mut marks, &mut Vec::new(), &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workspace_style_dependencies() {
        let toml = "\
[package]\nname = \"x\"\n\n[dependencies]\ndaiet.workspace = true\n\
rand = { path = \"../rand\" }\n# comment\n\n[dev-dependencies]\nproptest.workspace = true\n";
        assert_eq!(parse_dependencies(toml), vec!["daiet".to_string(), "rand".to_string()]);
    }

    #[test]
    fn unpinned_edge_is_a_finding() {
        let deps = vec!["daiet-fabric".to_string(), "daiet-netsim".to_string()];
        let findings = check_crate_deps("dataplane", "crates/dataplane/Cargo.toml", &deps);
        assert_eq!(findings.len(), 2, "{findings:?}"); // netsim extra, wire missing
        assert!(findings[0].message.contains("`dataplane` -> `daiet-netsim`"));
    }

    #[test]
    fn cycle_is_reported() {
        let mut edges = BTreeMap::new();
        edges.insert("core".to_string(), vec!["daiet-mlsim".to_string()]);
        edges.insert("mlsim".to_string(), vec!["daiet".to_string()]);
        let findings = check_acyclic(&edges);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("cycle"));
    }
}
