//! An in-process loopback cluster: one [`NodeDriver`] per thread.
//!
//! The multi-process demo (`examples/udp_loopback.rs`) is the headline
//! act, but tests and the load generator want the same topology-over-UDP
//! plumbing without forking processes. This harness runs each node's
//! driver on its own thread, all talking through real `127.0.0.1` sockets
//! — the kernel genuinely routes every datagram, so loss injection, NACK
//! recovery and wall-clock timers are exercised exactly as they are
//! across processes.
//!
//! [`Frame`](crate::Frame)s are `Rc`-backed and must never cross threads,
//! so a caller cannot hand the harness ready-made nodes. Instead each
//! [`NodeSpec`] carries a `Send` *constructor* closure that builds the
//! node inside its own thread (from plain `Send` data: configs, corpora,
//! plans), and a `Send` *finish* closure that runs after the loop exits
//! and distills the node into a `Send` result (sorted pairs, counters).
//!
//! Run coordination: every spec may have a `done` predicate. When all
//! predicated nodes finish, a shared stop flag tears the rest down
//! (switches and senders have no natural end). If any driver's deadline
//! fires first, the stop flag is raised too, so a wedged run fails in
//! bounded time instead of hanging the suite.

use crate::node::Node;
use crate::shim::FaultShim;
use crate::udp::{DriverStats, ExitReason, NodeDriver};
use std::any::Any;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Builds one node inside its driver thread.
pub type NodeCtor = Box<dyn FnOnce() -> Box<dyn Node> + Send>;
/// Decides when a node's driver may stop (checked every loop iteration).
pub type DonePred = Box<dyn FnMut(&dyn Node) -> bool + Send>;
/// Extracts a `Send` result from the node after its driver stopped.
pub type Finish = Box<dyn FnOnce(Box<dyn Node>) -> Box<dyn Any + Send> + Send>;

/// One member of a [`run_cluster`] run.
pub struct NodeSpec {
    /// Builds the node (runs on the driver thread).
    pub build: NodeCtor,
    /// Egress fault injection for this node (default: transparent).
    pub shim: FaultShim,
    /// `Some` for nodes whose completion ends the run (reducers,
    /// coordinators); `None` for open-ended nodes (switches, senders).
    pub done: Option<DonePred>,
    /// Distills the finished node into the per-slot result.
    pub finish: Finish,
}

impl NodeSpec {
    /// An open-ended node that returns no result.
    pub fn plain(build: NodeCtor) -> NodeSpec {
        NodeSpec {
            build,
            shim: FaultShim::none(),
            done: None,
            finish: Box::new(|_| Box::new(())),
        }
    }
}

/// Per-slot outcome of a cluster run.
pub struct SlotOutcome {
    /// What the slot's finish closure produced.
    pub result: Box<dyn Any + Send>,
    /// Why the slot's driver exited.
    pub exit: ExitReason,
    /// The slot's socket-edge counters.
    pub stats: DriverStats,
}

/// Runs one driver per spec, fully meshed over loopback UDP according to
/// `links` (each `(a, b)` attaches the next port on `a` to the next port
/// on `b`, mirroring the simulator's `connect` numbering). Returns one
/// [`SlotOutcome`] per spec, in slot order.
///
/// Panics if any driver thread panics (a node assertion failing on a
/// worker thread must fail the test, not vanish).
pub fn run_cluster(
    specs: Vec<NodeSpec>,
    links: &[(usize, usize)],
    deadline: std::time::Duration,
) -> Vec<SlotOutcome> {
    let n = specs.len();
    // Port tables in link-attach order: ports[slot][p] = peer slot.
    let mut ports: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in links {
        assert!(a < n && b < n, "link ({a},{b}) names a missing slot");
        ports[a].push(b);
        ports[b].push(a);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let pending = Arc::new(AtomicUsize::new(
        specs.iter().filter(|s| s.done.is_some()).count(),
    ));
    // Address exchange: every thread binds, reports its address, then
    // waits for the full table before entering its run loop.
    let (addr_tx, addr_rx) = mpsc::channel::<(usize, SocketAddr)>();
    let mut table_txs = Vec::with_capacity(n);

    let mut handles = Vec::with_capacity(n);
    for (slot, spec) in specs.into_iter().enumerate() {
        let my_ports = ports[slot].clone();
        let addr_tx = addr_tx.clone();
        let (table_tx, table_rx) = mpsc::channel::<Vec<SocketAddr>>();
        table_txs.push(table_tx);
        let stop = stop.clone();
        let pending = pending.clone();
        handles.push(std::thread::spawn(move || {
            let NodeSpec { build, shim, mut done, finish } = spec;
            let mut driver =
                NodeDriver::bind(build(), "127.0.0.1:0").expect("bind loopback socket");
            driver.set_fault_shim(shim);
            driver.set_stop_flag(stop.clone());
            addr_tx
                .send((slot, driver.local_addr().expect("local addr")))
                .expect("report address");
            let table = table_rx.recv().expect("receive address table");
            driver.set_peers(my_ports.iter().map(|&peer| table[peer]).collect());

            let exit = match done.as_mut() {
                Some(pred) => driver.run(deadline, |n| pred(n)),
                None => driver.run(deadline, |_| false),
            };
            match exit {
                ExitReason::Done => {
                    if pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                        stop.store(true, Ordering::SeqCst);
                    }
                }
                // A deadline anywhere wedges the run: release everyone.
                ExitReason::Deadline => stop.store(true, Ordering::SeqCst),
                ExitReason::Stopped => {}
            }
            let stats = driver.stats();
            SlotOutcome { result: finish(driver.into_node()), exit, stats }
        }));
    }
    drop(addr_tx);

    let mut table = vec![None; n];
    for _ in 0..n {
        let (slot, addr) = addr_rx.recv().expect("collect addresses");
        table[slot] = Some(addr);
    }
    let table: Vec<SocketAddr> = table.into_iter().map(Option::unwrap).collect();
    for tx in &table_txs {
        tx.send(table.clone()).expect("distribute address table");
    }

    handles
        .into_iter()
        .map(|h| h.join().expect("driver thread panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::node::{Fabric, PortId};
    use crate::time::Duration;

    /// Sends `count` numbered datagrams to port 0, 1 per ms.
    struct Source {
        next: u8,
        count: u8,
    }
    impl Node for Source {
        fn on_packet(&mut self, _ctx: &mut dyn Fabric, _p: PortId, _f: Frame) {}
        fn on_start(&mut self, ctx: &mut dyn Fabric) {
            ctx.schedule(Duration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut dyn Fabric, _t: u64) {
            if self.next < self.count {
                ctx.send(PortId(0), Frame::from_slice(&[self.next]));
                self.next += 1;
                ctx.schedule(Duration::from_millis(1), 0);
            }
        }
    }

    /// Forwards everything from port 0 to port 1.
    struct Hub;
    impl Node for Hub {
        fn on_packet(&mut self, ctx: &mut dyn Fabric, _p: PortId, f: Frame) {
            ctx.send(PortId(1), f);
        }
    }

    /// Collects distinct bytes until it has `want` of them.
    struct Sink {
        got: std::collections::BTreeSet<u8>,
        want: usize,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut dyn Fabric, _p: PortId, f: Frame) {
            if let Some(&b) = f.first() {
                self.got.insert(b);
            }
        }
    }

    #[test]
    fn three_stage_relay_completes_over_loopback_threads() {
        let specs = vec![
            NodeSpec::plain(Box::new(|| Box::new(Source { next: 0, count: 5 }))),
            NodeSpec::plain(Box::new(|| Box::new(Hub))),
            NodeSpec {
                build: Box::new(|| {
                    Box::new(Sink { got: std::collections::BTreeSet::new(), want: 5 })
                }),
                shim: FaultShim::none(),
                done: Some(Box::new(|n: &dyn Node| {
                    let s = (n as &dyn std::any::Any).downcast_ref::<Sink>().unwrap();
                    s.got.len() >= s.want
                })),
                finish: Box::new(|n| {
                    let s = (n as Box<dyn std::any::Any>).downcast::<Sink>().unwrap();
                    Box::new(s.got.iter().copied().collect::<Vec<u8>>())
                }),
            },
        ];
        // source(p0)—(p0)hub(p1)—(p0)sink
        let out = run_cluster(
            specs,
            &[(0, 1), (1, 2)],
            std::time::Duration::from_secs(20),
        );
        assert_eq!(out[2].exit, ExitReason::Done);
        let bytes = out[2].result.downcast_ref::<Vec<u8>>().unwrap();
        assert_eq!(bytes, &[0, 1, 2, 3, 4]);
        assert!(out[1].stats.frames_in >= 5);
        assert!(out.iter().all(|slot| slot.stats.recv_errors == 0));
    }
}
