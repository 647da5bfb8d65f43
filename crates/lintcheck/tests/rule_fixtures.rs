//! One known-bad fixture per rule, asserting the *exact* file:line the
//! engine reports — plus the near-miss twins that must NOT fire. The
//! in-crate unit tests cover the lexer and the engine plumbing; these
//! pin the user-visible contract: where the squiggle lands.

use daiet_lintcheck::scan_source;

/// Asserts `src` at `path` produces exactly one finding, of `rule`, at
/// `line`.
fn assert_one(path: &str, src: &str, rule: &str, line: u32) {
    let findings = scan_source(path, src);
    assert_eq!(findings.len(), 1, "{path}: expected one finding, got {findings:?}");
    assert_eq!(findings[0].rule, rule, "{findings:?}");
    assert_eq!(findings[0].line, line, "{findings:?}");
    assert_eq!(findings[0].file, path);
}

fn assert_clean(path: &str, src: &str) {
    let findings = scan_source(path, src);
    assert!(findings.is_empty(), "{path}: expected clean, got {findings:?}");
}

#[test]
fn det_collections_fixture() {
    assert_one(
        "crates/core/src/f.rs",
        "fn f() {\n    let m: std::collections::HashMap<u8, u8> = Default::default();\n    drop(m);\n}\n",
        "det-collections",
        2,
    );
    // Grouped import form.
    assert_one(
        "crates/transport/src/f.rs",
        "use std::collections::{BTreeMap, HashMap};\n",
        "det-collections",
        1,
    );
    // The sanctioned wrapper is exactly where HashMap is allowed.
    assert_clean("crates/wire/src/fnv.rs", "use std::collections::{HashMap, HashSet};\n");
    // BTreeMap is always fine — deterministic iteration.
    assert_clean("crates/core/src/f.rs", "use std::collections::BTreeMap;\n");
}

#[test]
fn det_clock_fixture() {
    assert_one(
        "crates/mapreduce/src/f.rs",
        "fn f() -> u64 {\n    let t = std::time::Instant::now();\n    t.elapsed().as_nanos() as u64\n}\n",
        "det-clock",
        2,
    );
    assert_one(
        "crates/core/src/f.rs",
        "use std::time::SystemTime;\nfn f() {\n    let _ = SystemTime::now();\n}\n",
        "det-clock",
        3,
    );
    // The wall-clock backend is the sanctioned site.
    assert_clean(
        "crates/fabric/src/clock.rs",
        "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    );
    // `Instant` as a type (no .now() call) is fine anywhere.
    assert_clean("crates/core/src/f.rs", "fn f(t: std::time::Instant) -> std::time::Instant { t }\n");
}

#[test]
fn det_rng_fixture() {
    assert_one(
        "crates/graphsim/src/f.rs",
        "fn f() -> u32 {\n    let mut r = rand::thread_rng();\n    r.random()\n}\n",
        "det-rng",
        2,
    );
    assert_one(
        "crates/netsim/src/f.rs",
        "fn f() {\n    let _ = SmallRng::from_entropy();\n}\n",
        "det-rng",
        2,
    );
    // Seeded per-stream RNG is the sanctioned pattern.
    assert_clean(
        "crates/netsim/src/f.rs",
        "fn f(seed: u64) {\n    let _ = SmallRng::seed_from_u64(stream_seed(seed, 3));\n}\n",
    );
}

#[test]
fn layer_netsim_fixture() {
    assert_one(
        "crates/mlsim/src/f.rs",
        "use daiet_fabric::Time;\nuse daiet_netsim::Simulator;\n",
        "layer-netsim",
        2,
    );
    // Topology planning types are the shared contract — exempt.
    assert_clean(
        "crates/core/src/f.rs",
        "use daiet_netsim::topology::{Role, TopologyPlan};\n",
    );
    // Test modules may drive the simulator.
    assert_clean(
        "crates/core/src/f.rs",
        "#[cfg(test)]\nmod tests {\n    use daiet_netsim::Simulator;\n}\n",
    );
    // netsim itself (and the bench/lintcheck tooling) is out of scope.
    assert_clean("crates/netsim/src/f.rs", "use daiet_netsim::topology::Role;\n");
    assert_clean("crates/bench/src/f.rs", "use daiet_netsim::Simulator;\n");
}

#[test]
fn panic_hotpath_fixture() {
    assert_one(
        "crates/dataplane/src/f.rs",
        "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        "panic-hotpath",
        2,
    );
    assert_one(
        "crates/wire/src/f.rs",
        "fn f(x: Option<u8>) -> u8 {\n    x.expect(\"always set\")\n}\n",
        "panic-hotpath",
        2,
    );
    // `link.rs` and `frame.rs` are the netsim hot-path files...
    assert_one(
        "crates/netsim/src/link.rs",
        "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        "panic-hotpath",
        2,
    );
    // ...but the rest of netsim (control path, setup) is not in scope.
    assert_clean("crates/netsim/src/sim.rs", "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n");
    // A domain method *named* expect takes non-literal args — not a panic.
    assert_clean(
        "crates/dataplane/src/f.rs",
        "fn f(t: &mut NackTracker, tree: u16, child: u16) {\n    t.expect(tree, child);\n}\n",
    );
    // unwrap_or / unwrap_or_default never panic.
    assert_clean(
        "crates/wire/src/f.rs",
        "fn f(x: Option<u8>) -> u8 {\n    x.unwrap_or(0) + Option::<u8>::None.unwrap_or_default()\n}\n",
    );
    // Test code in a hot-path file may unwrap.
    assert_clean(
        "crates/dataplane/src/f.rs",
        "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n",
    );
}

#[test]
fn allow_hygiene_fixture() {
    // Unknown rule id: the marker itself is the finding, at its line.
    assert_one(
        "crates/core/src/f.rs",
        "// lint:allow(not-a-rule): justification long enough to pass the bar.\nfn f() {}\n",
        "allow-hygiene",
        1,
    );
    // Stale allow (suppresses nothing).
    assert_one(
        "crates/core/src/f.rs",
        "fn f() {}\n// lint:allow(det-clock): justification long enough to pass the bar.\nfn g() {}\n",
        "allow-hygiene",
        2,
    );
    // Too-short justification — the suppression works (no det-collections
    // finding) but the marker earns its own.
    assert_one(
        "crates/core/src/f.rs",
        "// lint:allow(det-collections): short\nuse std::collections::HashMap;\n",
        "allow-hygiene",
        1,
    );
}
