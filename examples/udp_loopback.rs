//! Multi-process WordCount over real UDP sockets on `127.0.0.1`.
//!
//! The other examples run everything inside one discrete-event simulator;
//! this one proves the fabric abstraction carries the *same* protocol
//! nodes onto real sockets across real process boundaries. The parent
//! process spawns six children of this very binary — four mapper workers,
//! one software switch running Algorithm 1, one reducer coordinator —
//! each owning a kernel UDP socket and a [`NodeDriver`] loop. Addresses
//! are exchanged over stdout/stdin, the switch's egress is run through a
//! seeded 2% loss shim, and the parent checks the reducer's output
//! **bit-identical** against the in-memory ground truth: the drops are
//! repaired by NACK recovery over the genuinely lossy transport.
//!
//! Run with: `cargo run --example udp_loopback`
//!
//! [`NodeDriver`]: daiet_repro::fabric::NodeDriver

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, UdpSocket};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use daiet_repro::daiet::agg::AggFn;
use daiet_repro::daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet_repro::daiet::loopback::{wall_clock_config, LoopbackJob, ReducerReport};
use daiet_repro::daiet::DaietConfig;
use daiet_repro::dataplane::Resources;
use daiet_repro::fabric::{Duration, FaultShim, NodeDriver, NodeSpec};
use daiet_repro::mapreduce::wordcount::{Corpus, CorpusSpec};
use daiet_repro::netsim::topology::TopologyPlan;
use daiet_repro::netsim::LinkSpec;

/// Mapper process count (plan slots `0..WORKERS`).
const WORKERS: usize = 4;
/// The coordinator's plan slot.
const COORD: usize = WORKERS;
/// The switch's plan slot.
const SWITCH: usize = WORKERS + 1;
/// Corpus and loss-shim seed.
const SEED: u64 = 71;
/// Switch-egress drop probability — every result-bearing flush frame
/// runs this gauntlet.
const LOSS: f64 = 0.02;
/// Per-process wall-clock budget.
const DEADLINE: std::time::Duration = std::time::Duration::from_secs(60);

/// The shared job description. Every process derives it independently
/// from the same constants — deployment is a pure function, so all six
/// arrive at the identical trees, flow tables and sequence spaces.
fn job() -> (LoopbackJob, Corpus) {
    let config = wall_clock_config(
        DaietConfig {
            register_cells: 1024,
            nack_recovery: true,
            ..DaietConfig::default()
        }
        .with_rtx_sized_for_flush(),
    );
    // Star: hosts 0..=WORKERS (mappers + coordinator), switch last.
    let plan = TopologyPlan::star(WORKERS + 1, LinkSpec::fast());
    let placement = JobPlacement { mappers: (0..WORKERS).collect(), reducers: vec![COORD] };
    let corpus = Corpus::generate(&CorpusSpec {
        n_mappers: WORKERS,
        n_reducers: 1,
        distinct_words: 80,
        mean_multiplicity: 2.5,
        sd_multiplicity: 0.8,
        min_len: 3,
        max_len: 10,
        register_cells: config.register_cells,
        seed: SEED,
    });
    let job = LoopbackJob::deploy(
        Controller::new(config, AggFn::Sum),
        plan,
        placement,
        Resources::tofino_like(),
        AggregationMode::InNetwork,
    )
    .expect("deployment fits the chip");
    (job, corpus)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        None => parent(),
        Some(role) => child(role),
    }
}

// ---------------------------------------------------------------- parent

fn parent() {
    let exe = std::env::current_exe().expect("own path");
    let (_job, corpus) = job();
    let expected = corpus.expected_reduction(0);

    let mut roles: Vec<String> = (0..WORKERS).map(|w| format!("worker:{w}")).collect();
    roles.push("coord".into());
    roles.push("switch".into());
    let mut children = Vec::new();
    let mut readers = Vec::new();
    for role in &roles {
        let mut child = Command::new(&exe)
            .arg(role)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawning {role}: {e}"));
        readers.push(BufReader::new(child.stdout.take().expect("piped stdout")));
        children.push(child);
    }

    // Collect the six advertised addresses (roles bind immediately, so
    // this cannot deadlock), then broadcast the full table. The table is
    // indexed by plan slot: roles[0..WORKERS] are slots 0..WORKERS, then
    // the coordinator (slot COORD) and the switch (slot SWITCH).
    let mut addrs = Vec::new();
    for (role, reader) in roles.iter().zip(&mut readers) {
        let mut line = String::new();
        reader.read_line(&mut line).expect("child stdout");
        let addr = line
            .strip_prefix("ADDR ")
            .unwrap_or_else(|| panic!("{role} spoke out of turn: {line:?}"))
            .trim()
            .to_string();
        addrs.push(addr);
    }
    let table = format!("PEERS {}\n", addrs.join(" "));
    for child in &mut children {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        stdin.write_all(table.as_bytes()).expect("child stdin");
        stdin.flush().expect("child stdin");
    }

    // The coordinator runs to completion and reports; everyone else is
    // open-ended until we close their stdin.
    let mut got: Vec<(String, u32)> = Vec::new();
    let mut stats_line = String::new();
    let coord_reader = &mut readers[WORKERS];
    loop {
        let mut line = String::new();
        if coord_reader.read_line(&mut line).expect("coordinator stdout") == 0 {
            panic!("coordinator exited without DONE");
        }
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("PAIR ") {
            let (word, count) = rest.rsplit_once(' ').expect("PAIR word count");
            got.push((word.to_string(), count.parse().expect("count")));
        } else if line.starts_with("STATS ") {
            stats_line = line.to_string();
        } else if line == "DONE" {
            break;
        }
    }
    let complete = stats_line.contains("complete=true");
    let recovered = stats_line.contains("recovered=true");

    // Tear down: closing stdin raises each child's stop flag.
    let mut shim_dropped = 0u64;
    for (i, child) in children.iter_mut().enumerate() {
        drop(child.stdin.take());
        if roles[i] == "switch" {
            let mut line = String::new();
            readers[i].read_line(&mut line).expect("switch stdout");
            if let Some(n) = line.trim().strip_prefix("SHIM dropped=") {
                shim_dropped = n.parse().expect("drop count");
            }
        }
        let status = child.wait().expect("child exit");
        assert!(status.success(), "{} exited with {status:?}", roles[i]);
    }

    let identical = got == expected;
    println!(
        "WordCount over 127.0.0.1: {WORKERS} worker processes + 1 switch + 1 coordinator, \
         {:.0}% switch-egress loss",
        LOSS * 100.0
    );
    println!("switch shim dropped {shim_dropped} frames; coordinator {stats_line}");
    println!(
        "reducer complete={complete} recovered={recovered} pairs={} expected={}",
        got.len(),
        expected.len()
    );
    println!("bit-identical to in-memory reference: {identical}");
    if !(identical && complete && recovered && shim_dropped > 0) {
        std::process::exit(1);
    }
}

// -------------------------------------------------------------- children

/// Binds this process's socket, advertises it, and reads the full
/// address table back. Returns `(socket, slot-indexed addresses)`.
fn handshake() -> (UdpSocket, Vec<SocketAddr>) {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
    println!("ADDR {}", socket.local_addr().expect("local addr"));
    std::io::stdout().flush().expect("stdout");
    let mut line = String::new();
    std::io::stdin().read_line(&mut line).expect("address table on stdin");
    let addrs = line
        .strip_prefix("PEERS ")
        .expect("PEERS line")
        .split_whitespace()
        .map(|a| a.parse().expect("socket address"))
        .collect();
    (socket, addrs)
}

/// Raises `stop` when the parent closes our stdin — how open-ended roles
/// (workers, the switch) learn the job is over.
fn stop_on_stdin_eof(stop: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        let mut sink = String::new();
        while std::io::stdin().read_line(&mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
        stop.store(true, Ordering::Relaxed);
    });
}

fn child(role: &str) {
    let (socket, addrs) = handshake();
    let (job, corpus) = job();

    if let Some(w) = role.strip_prefix("worker:") {
        let w: usize = w.parse().expect("worker index");
        let shards = vec![Arc::clone(&corpus.partitions[w][0])];
        let spec = job.sender_spec(w, shards, Duration::from_micros(50), FaultShim::none());
        let mut driver = NodeDriver::from_socket((spec.build)(), socket).expect("driver");
        driver.set_peers(vec![addrs[SWITCH]]);
        let stop = Arc::new(AtomicBool::new(false));
        driver.set_stop_flag(stop.clone());
        stop_on_stdin_eof(stop);
        driver.run(DEADLINE, |_| false);
    } else if role == "switch" {
        let egress_loss = FaultShim::seeded(SEED, LOSS, 0.0).with_scripted_drops([0]);
        let NodeSpec { build, shim, .. } = job.switch_spec(SWITCH, egress_loss);
        let mut driver = NodeDriver::from_socket(build(), socket).expect("driver");
        // Switch port p faces host p: star links are inserted host-order.
        driver.set_peers(addrs[..SWITCH].to_vec());
        driver.set_fault_shim(shim);
        let stop = Arc::new(AtomicBool::new(false));
        driver.set_stop_flag(stop.clone());
        stop_on_stdin_eof(stop);
        driver.run(DEADLINE, |_| false);
        println!("SHIM dropped={}", driver.stats().shim_dropped);
    } else if role == "coord" {
        let NodeSpec { build, done, finish, .. } = job.reducer_spec(0, FaultShim::none());
        let mut driver = NodeDriver::from_socket(build(), socket).expect("driver");
        driver.set_peers(vec![addrs[SWITCH]]);
        let mut done = done.expect("a reducer ends the run");
        driver.run(DEADLINE, |n| done(n));
        let report = finish(driver.into_node())
            .downcast::<ReducerReport>()
            .expect("a reducer reports");
        println!(
            "STATS complete={} recovered={} nacks={} dups={}",
            report.complete,
            report.recovery_satisfied,
            report.nacks_emitted,
            report.duplicates_suppressed
        );
        for (key, count) in report.pairs {
            println!("PAIR {} {count}", key.display_lossy());
        }
        println!("DONE");
    } else {
        panic!("unknown role {role:?}");
    }
}
