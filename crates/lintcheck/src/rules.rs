//! The project-invariant rules.
//!
//! Each rule pins a bug class this reproduction has actually hit (the
//! PR that fixed it is cited in the rule's `motivation`, and at length
//! in `docs/LINTS.md`). Rules scan the lexed token stream of one file
//! at a time — string/comment content never matches, `#[cfg(test)]`
//! spans are exempt — except the workspace-level dependency-DAG rule,
//! which lives in [`crate::graph`].

use crate::lexer::{Lexed, TokKind, Token};

/// Static description of one rule, for `--list-rules`, docs, and the
/// allowlist validator.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id, used in findings and `lint:allow(...)` markers.
    pub id: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// The historical bug class the rule pins.
    pub motivation: &'static str,
    /// What to do instead.
    pub suggestion: &'static str,
}

/// Every rule the engine knows, including the allow-hygiene meta rule.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "det-collections",
        summary: "no std::collections::HashMap/HashSet (RandomState iteration order) in sim-path code",
        motivation: "PR 6: the determinism proofs collapse if any sim-path iteration order \
                     varies run to run; SipHash's random seed makes HashMap order nondeterministic",
        suggestion: "use daiet_wire::fnv::{FnvHashMap, FnvHashSet} (fixed hasher) or BTreeMap/BTreeSet",
    },
    RuleInfo {
        id: "det-clock",
        summary: "no Instant::now()/SystemTime::now() outside crates/fabric's WallClock",
        motivation: "PR 6/PR 8: sim time is integer nanoseconds from the event loop; one wall-clock \
                     read in a sim path makes same-seed runs diverge",
        suggestion: "take time from the Fabric (ctx.now()) or a fabric::Clock implementation",
    },
    RuleInfo {
        id: "det-rng",
        summary: "no thread_rng/from_entropy/from_os_rng/rand::random (OS-seeded RNG) anywhere",
        motivation: "PR 6: the shared-SmallRng fault stream let unrelated traffic shift every fault \
                     draw; every RNG must be a per-stream SmallRng seeded via stream_seed from the \
                     run seed",
        suggestion: "derive a seed with daiet_netsim's stream_seed (or plumb one in) and use \
                     SmallRng::seed_from_u64",
    },
    RuleInfo {
        id: "layer-netsim",
        summary: "protocol/workload crates must not name daiet_netsim outside #[cfg(test)] \
                  (topology planning types exempt)",
        motivation: "PR 8: the fabric contract — nodes written once against daiet_fabric run on \
                     both the simulator and real UDP sockets; a netsim type in protocol code \
                     silently re-couples it to one backend",
        suggestion: "use daiet_fabric traits/types; simulator-harness modules carry a \
                     lint:allow-file(layer-netsim) with justification",
    },
    RuleInfo {
        id: "layer-dag",
        summary: "the crate dependency DAG is pinned; new edges are deliberate",
        motivation: "PR 8: the backend split relies on fabric < {netsim, dataplane} < core < \
                     workloads; an accidental edge (e.g. dataplane -> netsim) would re-entangle \
                     the layers the fabric abstraction separated",
        suggestion: "if the new edge is intended, update EXPECTED_DEPS in lintcheck's graph.rs in \
                     the same change, with a commit message explaining the layering impact",
    },
    RuleInfo {
        id: "panic-hotpath",
        summary: "no .unwrap()/.expect(\"...\") in dataplane hot-path files",
        motivation: "PR 4/PR 7: the switch dataplane must degrade deterministically (drop, count, \
                     NACK) — a panic in per-packet code takes down the simulation (or the node's \
                     driver thread) and every tenant on it",
        suggestion: "return the error/Option to the caller, count-and-drop like the bounded \
                     parser, or justify the invariant with a lint:allow",
    },
    RuleInfo {
        id: "allow-hygiene",
        summary: "every allowlist entry names a real rule, carries a written justification, and \
                  suppresses at least one finding",
        motivation: "an allowlist that can rot silently is how machine-checked invariants turn \
                     back into tribal knowledge",
        suggestion: "fix the marker's rule id, write a real justification (>= 20 chars), or \
                     delete the stale marker",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One raw finding (before allowlist filtering).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path, unix separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// Human-readable message naming the offending construct.
    pub message: String,
}

/// True when `path` (repo-relative, unix separators) is inside
/// `crates/<name>/src/`.
fn in_crate_src(path: &str, name: &str) -> bool {
    path.starts_with(&format!("crates/{name}/src/"))
}

/// Matches `segs[0] :: segs[1] :: …` starting at token `i`.
fn path_at(toks: &[Token], i: usize, segs: &[&str]) -> bool {
    let mut k = i;
    for (n, seg) in segs.iter().enumerate() {
        if n > 0 {
            if !(matches!(toks.get(k).map(|t| t.kind), Some(TokKind::Punct(':')))
                && matches!(toks.get(k + 1).map(|t| t.kind), Some(TokKind::Punct(':'))))
            {
                return false;
            }
            k += 2;
        }
        match toks.get(k) {
            Some(t) if t.kind == TokKind::Ident && t.text == *seg => k += 1,
            _ => return false,
        }
    }
    true
}

/// Runs every file-scoped rule over one lexed file. `path` must be
/// repo-relative with unix separators (fixtures may pass synthetic
/// paths — scoping is purely string-based).
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let mut out = Vec::new();
    det_collections(path, lexed, &mut out);
    det_clock(path, lexed, &mut out);
    det_rng(path, lexed, &mut out);
    layer_netsim(path, lexed, &mut out);
    panic_hotpath(path, lexed, &mut out);
    out
}

fn det_collections(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    // The one sanctioned site: the module that *defines* the
    // deterministic replacement as a type alias over std's table with a
    // fixed hasher.
    if path == "crates/wire/src/fnv.rs" {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.is_test(i) {
            continue;
        }
        for bad in ["HashMap", "HashSet"] {
            if path_at(toks, i, &["std", "collections", bad]) {
                out.push(Finding {
                    file: path.to_string(),
                    line: toks[i].line,
                    rule: "det-collections",
                    message: format!("std::collections::{bad} in sim-path code"),
                });
            }
        }
        // Grouped import: `use std::collections::{HashMap, …}`.
        // `std(i) ::(i+1,i+2) collections(i+3) ::(i+4,i+5) {(i+6)`.
        if path_at(toks, i, &["std", "collections"])
            && matches!(toks.get(i + 4).map(|t| t.kind), Some(TokKind::Punct(':')))
            && matches!(toks.get(i + 5).map(|t| t.kind), Some(TokKind::Punct(':')))
            && matches!(toks.get(i + 6).map(|t| t.kind), Some(TokKind::Punct('{')))
        {
            let mut k = i + 7;
            let mut depth = 1usize;
            while k < toks.len() && depth > 0 {
                match toks[k].kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => depth -= 1,
                    TokKind::Ident if toks[k].text == "HashMap" || toks[k].text == "HashSet" => {
                        out.push(Finding {
                            file: path.to_string(),
                            line: toks[k].line,
                            rule: "det-collections",
                            message: format!(
                                "std::collections::{} in sim-path code (grouped import)",
                                toks[k].text
                            ),
                        });
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        // The randomized hasher by name, and the hash_map/hash_set
        // submodules (Entry imports etc. — use the fnv aliases instead).
        if toks[i].kind == TokKind::Ident && toks[i].text == "RandomState" {
            out.push(Finding {
                file: path.to_string(),
                line: toks[i].line,
                rule: "det-collections",
                message: "RandomState (randomized hasher) in sim-path code".to_string(),
            });
        }
        for sub in ["hash_map", "hash_set"] {
            if path_at(toks, i, &["collections", sub]) {
                out.push(Finding {
                    file: path.to_string(),
                    line: toks[i].line,
                    rule: "det-collections",
                    message: format!("std::collections::{sub} path in sim-path code"),
                });
            }
        }
    }
}

fn det_clock(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    // The one sanctioned site: the WallClock definition itself.
    if path == "crates/fabric/src/clock.rs" {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.is_test(i) {
            continue;
        }
        for clock in ["Instant", "SystemTime"] {
            if path_at(toks, i, &[clock, "now"]) {
                out.push(Finding {
                    file: path.to_string(),
                    line: toks[i].line,
                    rule: "det-clock",
                    message: format!("{clock}::now() outside fabric::WallClock"),
                });
            }
        }
    }
}

fn det_rng(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.is_test(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "thread_rng" | "from_entropy" | "from_os_rng")
        {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: "det-rng",
                message: format!("{}: OS-entropy RNG construction", t.text),
            });
        }
        if path_at(toks, i, &["rand", "random"]) {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: "det-rng",
                message: "rand::random: OS-entropy RNG draw".to_string(),
            });
        }
    }
}

/// Crates bound by the fabric contract: protocol/workload code that must
/// compile against `daiet_fabric` only, so it runs on either backend.
const FABRIC_ONLY_CRATES: &[&str] =
    &["core", "mapreduce", "querysim", "mlsim", "graphsim", "dataplane", "fabric"];

fn layer_netsim(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    if !FABRIC_ONLY_CRATES.iter().any(|c| in_crate_src(path, c)) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.is_test(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.text != "daiet_netsim" {
            continue;
        }
        // Topology planning types are the deliberate shared contract
        // (controllers plan over a TopologyPlan regardless of backend).
        if path_at(toks, i, &["daiet_netsim", "topology"]) {
            continue;
        }
        out.push(Finding {
            file: path.to_string(),
            line: t.line,
            rule: "layer-netsim",
            message: "daiet_netsim named outside #[cfg(test)] in a fabric-only crate".to_string(),
        });
    }
}

/// Per-packet files where a panic means the simulation or the node's
/// driver thread (and every tenant on it) dies: the whole switch
/// dataplane crate, the wire parsers/builders it calls per packet, and
/// the simulator's link-level frame machinery.
fn is_hotpath_file(path: &str) -> bool {
    in_crate_src(path, "dataplane")
        || in_crate_src(path, "wire")
        || path == "crates/netsim/src/link.rs"
        || path == "crates/netsim/src/frame.rs"
}

fn panic_hotpath(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    if !is_hotpath_file(path) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.is_test(i) {
            continue;
        }
        if toks[i].kind != TokKind::Punct('.') {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else { continue };
        if !matches!(toks.get(i + 2).map(|t| t.kind), Some(TokKind::Punct('('))) {
            continue;
        }
        let flagged = match name.text.as_str() {
            "unwrap" => true,
            // Only Option/Result::expect — i.e. `.expect("…")` with a
            // string-literal message. Domain methods that happen to be
            // called `expect` (NackTracker::expect(tree, child)) take
            // non-string arguments and are not panics.
            "expect" => matches!(
                toks.get(i + 3),
                Some(t) if t.kind == TokKind::Literal && t.text.starts_with('"')
            ),
            _ => false,
        };
        if flagged {
            out.push(Finding {
                file: path.to_string(),
                line: name.line,
                rule: "panic-hotpath",
                message: format!(".{}() in a dataplane hot-path file", name.text),
            });
        }
    }
}
