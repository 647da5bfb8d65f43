//! The switch device: parser + pipeline + externs behind a
//! [`daiet_fabric::Node`] interface, with per-switch statistics.
//!
//! # Ordered output
//!
//! An extern may answer a packet with a [`Drain`]: frames it sends one
//! per pass, each when the port has finished sending the one before
//! (DAIET's register flush). Under a fabric, each port keeps an ordered
//! output while a drain is in progress on it: every other frame the
//! switch sends there (forwarded packets, other drains, NACKs and their
//! replays) waits behind the drain, exactly where a burst would have
//! queued it, so each frame keeps the position and the departure time
//! the burst gave it while the switch holds one frame, not a whole
//! flush. [`Switch::process_into`], which has no fabric to wait on, runs
//! every pass of a drain before it returns.

use crate::parser::{parse, ParseError, ParserConfig};
use crate::pipeline::{Drain, Egress, ExternId, PacketCtx, Pipeline, SwitchExtern};
use daiet_fabric::{Fabric, Frame, FramePool, Node, PortId, Time};
use std::collections::VecDeque;

/// Counters a switch maintains about its own processing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets handed to the parser.
    pub packets_in: u64,
    /// Packets the parser rejected (malformed).
    pub parse_errors: u64,
    /// Packets dropped for checksum failures.
    pub checksum_drops: u64,
    /// Packets dropped by pipeline decision (or lack of one).
    pub pipeline_drops: u64,
    /// Packets forwarded (including floods, counted once).
    pub forwarded: u64,
    /// Packets absorbed by externs.
    pub consumed: u64,
    /// Frames emitted by externs.
    pub extern_emissions: u64,
    /// Total recirculation passes.
    pub recirculations: u64,
    /// Packets that exceeded the per-packet operation budget (should be
    /// zero for any program that would fit real hardware).
    pub ops_violations: u64,
    /// Highest operation count observed on one packet.
    pub max_ops_seen: usize,
    /// Drain passes run (each charged like a packet of its own in
    /// `ops_violations` and `max_ops_seen`).
    pub drain_passes: u64,
}

/// Timer tokens from here up wake a port's drain (the port is the rest
/// of the token); tokens below it are extern indices.
const PORT_WAKE: u64 = 1 << 32;

/// A frame or a drain waiting for its turn on one port.
#[derive(Debug)]
enum Held {
    Frame(Frame),
    Drain(ExternId, Drain),
}

/// One port's ordered output: empty, or headed by the drain in progress
/// with everything the switch has sent there since waiting behind it.
#[derive(Debug, Default)]
struct PortOut {
    held: VecDeque<Held>,
    /// Whether a wake for the head drain's next pass is scheduled.
    wake_armed: bool,
}

/// A programmable switch.
///
/// Build it, install tables and externs, wire it into a simulator. The
/// pipeline's forwarding decisions use simulator port numbers directly
/// (the controller knows the topology, so it installs rules in those
/// terms — exactly how an SDN controller addresses OpenFlow/P4Runtime
/// ports).
pub struct Switch {
    name: String,
    parser_cfg: ParserConfig,
    pipeline: Pipeline,
    externs: Vec<Box<dyn SwitchExtern>>,
    stats: SwitchStats,
    /// Ports attached (filled lazily from the context at packet time;
    /// needed to expand floods).
    port_count: usize,
    /// Reused output staging buffer for [`Node::on_packet`].
    scratch: Vec<(PortId, Frame)>,
    /// Whether extern `i`'s tick timer is currently armed (timer tokens
    /// are extern indices).
    tick_armed: Vec<bool>,
    /// Ordered output per port, indexed by port (grown on first use).
    ports: Vec<PortOut>,
}

impl Switch {
    /// Creates a switch over the given pipeline.
    pub fn new(name: impl Into<String>, pipeline: Pipeline) -> Switch {
        let parser_cfg = ParserConfig {
            max_parse_bytes: pipeline.resources().max_parse_bytes,
            verify_checksums: true,
        };
        Switch {
            name: name.into(),
            parser_cfg,
            pipeline,
            externs: Vec::new(),
            stats: SwitchStats::default(),
            port_count: 0,
            scratch: Vec::new(),
            tick_armed: Vec::new(),
            ports: Vec::new(),
        }
    }

    /// Registers an extern, returning its id for `ActionSpec::Invoke`.
    pub fn register_extern(&mut self, ext: Box<dyn SwitchExtern>) -> ExternId {
        self.externs.push(ext);
        self.tick_armed.push(false);
        ExternId(self.externs.len() - 1)
    }

    /// Arms the tick timer of any extern that asks for one and is not
    /// already armed. Called after starts, packets and ticks — the timer
    /// therefore lapses exactly when the extern reports quiescence, so a
    /// finished simulation's event queue still drains.
    fn arm_ticks(&mut self, ctx: &mut dyn Fabric) {
        for (i, ext) in self.externs.iter().enumerate() {
            if !self.tick_armed[i] && ext.wants_tick() {
                if let Some(interval) = ext.tick_interval() {
                    self.tick_armed[i] = true;
                    ctx.schedule(interval, i as u64);
                }
            }
        }
    }

    /// The pipeline (controller-plane access for installing rules).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// Read-only pipeline access.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Borrows a registered extern downcast to its concrete type.
    pub fn extern_ref<T: 'static>(&self, id: ExternId) -> Option<&T> {
        let e = self.externs.get(id.0)?;
        (e.as_ref() as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Mutably borrows a registered extern downcast to its concrete type.
    pub fn extern_mut<T: 'static>(&mut self, id: ExternId) -> Option<&mut T> {
        let e = self.externs.get_mut(id.0)?;
        (e.as_mut() as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    /// Processing statistics.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Processes one frame, returning the frames to transmit as
    /// `(port, frame)` pairs. Convenience wrapper over
    /// [`Switch::process_into`] for unit tests and the quickstart example.
    pub fn process(
        &mut self,
        in_port: PortId,
        frame: Frame,
        port_count: usize,
        pool: &FramePool,
    ) -> Vec<(PortId, Frame)> {
        let mut outputs = Vec::new();
        self.process_into(in_port, frame, port_count, pool, Time::ZERO, &mut outputs);
        outputs
    }

    /// Processes one frame, appending the frames to transmit to `out`.
    /// `now` stamps the packet context for time-aware externs. Every pass
    /// of a drain the packet starts runs before this returns, so `out`
    /// holds the whole flush in order; [`Node::on_packet`] paces the same
    /// passes by its ports instead.
    pub fn process_into(
        &mut self,
        in_port: PortId,
        frame: Frame,
        port_count: usize,
        pool: &FramePool,
        now: Time,
        out: &mut Vec<(PortId, Frame)>,
    ) {
        let mut drains = Vec::new();
        self.process_packet(in_port, frame, port_count, pool, now, out, &mut drains);
        for (ext, drain) in drains {
            loop {
                let (frame, more) = self.run_pass(ext, drain, pool);
                out.extend(frame.map(|f| (drain.port, f)));
                if !more {
                    break;
                }
            }
        }
    }

    /// Runs one pass of `drain`, charging it against the per-packet
    /// budget. Returns the frame to send and whether more follow.
    fn run_pass(&mut self, ext: ExternId, drain: Drain, pool: &FramePool) -> (Option<Frame>, bool) {
        let pass = self.externs[ext.0].drain_pass(drain.token, pool);
        self.stats.drain_passes += 1;
        self.stats.max_ops_seen = self.stats.max_ops_seen.max(pass.ops);
        if pass.ops > self.pipeline.resources().ops_per_packet {
            self.stats.ops_violations += 1;
        }
        self.stats.extern_emissions += u64::from(pass.frame.is_some());
        // A pass that sends nothing ends the drain, whatever it claims.
        let more = pass.more && pass.frame.is_some();
        (pass.frame, more)
    }

    /// Sends `item` out of `port` in order: at once when nothing is held
    /// there, otherwise behind the drain in progress.
    fn send_ordered(&mut self, ctx: &mut dyn Fabric, port: PortId, item: Held) {
        let idle = self.ports.get(port.0).is_none_or(|o| o.held.is_empty());
        match item {
            Held::Frame(frame) if idle => ctx.send(port, frame),
            item => {
                if self.ports.len() <= port.0 {
                    self.ports.resize_with(port.0 + 1, PortOut::default);
                }
                self.ports[port.0].held.push_back(item);
                if idle {
                    self.pump(ctx, port);
                }
            }
        }
    }

    /// Sends what `port` holds until a drain has to wait for the port:
    /// frames leave at once, a drain runs one pass whenever the port is
    /// free and otherwise schedules a wake for when it will be.
    fn pump(&mut self, ctx: &mut dyn Fabric, port: PortId) {
        loop {
            let Some(out) = self.ports.get_mut(port.0) else {
                return;
            };
            let Some(head) = out.held.pop_front() else {
                return;
            };
            let (ext, drain) = match head {
                Held::Frame(frame) => {
                    ctx.send(port, frame);
                    continue;
                }
                Held::Drain(ext, drain) => (ext, drain),
            };
            let now = ctx.now();
            let free_at = ctx.port_free_at(port);
            if free_at > now {
                out.held.push_front(Held::Drain(ext, drain));
                if !out.wake_armed {
                    out.wake_armed = true;
                    ctx.schedule(free_at - now, PORT_WAKE | port.0 as u64);
                }
                return;
            }
            let (frame, more) = self.run_pass(ext, drain, ctx.pool());
            if more {
                self.ports[port.0].held.push_front(Held::Drain(ext, drain));
            }
            if let Some(frame) = frame {
                ctx.send(port, frame);
            }
        }
    }

    /// Parses and runs one packet through the pipeline: frames to send
    /// go to `out` (the extern emissions, then the packet itself), and
    /// the drains the packet started to `drains`.
    #[allow(clippy::too_many_arguments)]
    fn process_packet(
        &mut self,
        in_port: PortId,
        frame: Frame,
        port_count: usize,
        pool: &FramePool,
        now: Time,
        out: &mut Vec<(PortId, Frame)>,
        drains: &mut Vec<(ExternId, Drain)>,
    ) {
        self.stats.packets_in += 1;
        self.port_count = port_count.max(self.port_count);

        let parsed = match parse(frame, &self.parser_cfg) {
            Ok(p) => p,
            Err(ParseError::Checksum) => {
                self.stats.checksum_drops += 1;
                return;
            }
            Err(_) => {
                self.stats.parse_errors += 1;
                return;
            }
        };

        let mut pkt = PacketCtx::at(in_port, parsed, now);
        let max_recirc = self.pipeline.resources().max_recirculations;

        loop {
            let verdict = self.pipeline.execute(&mut pkt, &mut self.externs, pool);
            self.stats.extern_emissions += verdict.emissions.len() as u64;
            out.extend(verdict.emissions);
            drains.extend(verdict.drains);

            if verdict.recirculate && pkt.recircs < max_recirc {
                pkt.recircs += 1;
                self.stats.recirculations += 1;
                pkt.egress = Egress::Unset;
                continue;
            }
            break;
        }

        let budget = self.pipeline.resources().ops_per_packet
            * (1 + pkt.recircs as usize);
        self.stats.max_ops_seen = self.stats.max_ops_seen.max(pkt.ops);
        if pkt.ops > budget {
            self.stats.ops_violations += 1;
        }

        match pkt.egress {
            Egress::Port(port) => {
                self.stats.forwarded += 1;
                out.push((port, pkt.parsed.frame));
            }
            Egress::Flood => {
                self.stats.forwarded += 1;
                for p in 0..self.port_count {
                    if PortId(p) != in_port {
                        out.push((PortId(p), pkt.parsed.frame.clone()));
                    }
                }
            }
            Egress::Consumed => self.stats.consumed += 1,
            Egress::Drop | Egress::Unset => self.stats.pipeline_drops += 1,
        }
    }
}

impl core::fmt::Debug for Switch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Switch")
            .field("name", &self.name)
            .field("externs", &self.externs.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Node for Switch {
    fn on_packet(&mut self, ctx: &mut dyn Fabric, port: PortId, frame: Frame) {
        let port_count = ctx.port_count();
        let now = ctx.now();
        let mut out = std::mem::take(&mut self.scratch);
        let mut drains = Vec::new();
        self.process_packet(
            port,
            frame,
            port_count,
            ctx.pool(),
            now,
            &mut out,
            &mut drains,
        );
        for (out_port, out_frame) in out.drain(..) {
            self.send_ordered(ctx, out_port, Held::Frame(out_frame));
        }
        for (ext, drain) in drains {
            self.send_ordered(ctx, drain.port, Held::Drain(ext, drain));
        }
        self.scratch = out;
        // A packet may have created time-based work (a new flow to watch).
        self.arm_ticks(ctx);
    }

    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        self.arm_ticks(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, token: u64) {
        if token >= PORT_WAKE {
            let port = PortId((token - PORT_WAKE) as usize);
            if let Some(out) = self.ports.get_mut(port.0) {
                out.wake_armed = false;
            }
            self.pump(ctx, port);
            return;
        }
        let i = token as usize;
        let Some(ext) = self.externs.get_mut(i) else {
            return;
        };
        self.tick_armed[i] = false;
        let emissions = ext.on_tick(ctx.now(), ctx.pool());
        self.stats.extern_emissions += emissions.len() as u64;
        for (port, frame) in emissions {
            self.send_ordered(ctx, port, Held::Frame(frame));
        }
        self.arm_ticks(ctx);
    }

    fn on_fail(&mut self) {
        // Power cycle: every extern's volatile state (registers, rings,
        // trackers) is lost. Match-action tables survive in this model —
        // the controller re-installs rules or re-plans around the node
        // either way, and table state without extern state still forwards
        // (unknown trees fall through to L2).
        for ext in &mut self.externs {
            ext.on_node_fail();
        }
        // The armed flags must be cleared by hand: the pending tick
        // timers are discarded by the simulator while the node is down,
        // so a stale `true` here would keep ticks from ever re-arming
        // after revival.
        for armed in &mut self.tick_armed {
            *armed = false;
        }
        // Held frames and drains sit in the switch's buffers, which a
        // power cycle empties too; their wakes die with the node.
        self.ports.clear();
    }

    fn on_revive(&mut self, ctx: &mut dyn Fabric) {
        self.arm_ticks(ctx);
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ActionSpec;
    use crate::resources::Resources;
    use crate::table::{Field, Table};
    use daiet_wire::stack::{build_udp, Endpoints};

    fn l2_switch(entries: &[(u32, usize)]) -> Switch {
        let mut pipeline = Pipeline::new(Resources::tofino_like());
        let h = pipeline.add_table(0, Table::new("l2", Field::EthDst, 256, ActionSpec::Flood)).unwrap();
        for &(host, port) in entries {
            pipeline
                .table_mut(h)
                .insert(&daiet_wire::EthernetAddress::from_id(host).0, ActionSpec::Forward(PortId(port)))
                .unwrap();
        }
        Switch::new("sw0", pipeline)
    }

    fn frame(src: u32, dst: u32) -> Frame {
        Frame::from(build_udp(&Endpoints::from_ids(src, dst), 1, 2, b"test"))
    }

    #[test]
    fn known_destination_forwards_on_one_port() {
        let mut sw = l2_switch(&[(2, 1)]);
        let out = sw.process(PortId(0), frame(1, 2), 4, &FramePool::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortId(1));
        assert_eq!(sw.stats().forwarded, 1);
    }

    #[test]
    fn unknown_destination_floods_all_but_ingress() {
        let mut sw = l2_switch(&[]);
        let out = sw.process(PortId(2), frame(1, 9), 4, &FramePool::new());
        let ports: Vec<usize> = out.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ports, vec![0, 1, 3]);
    }

    #[test]
    fn corrupt_frame_is_dropped_and_counted() {
        let mut sw = l2_switch(&[(2, 1)]);
        let mut f = frame(1, 2).to_vec();
        let n = f.len() - 1;
        f[n] ^= 0xff;
        let out = sw.process(PortId(0), Frame::from(f), 4, &FramePool::new());
        assert!(out.is_empty());
        assert_eq!(sw.stats().checksum_drops, 1);
    }

    #[test]
    fn runt_frame_counts_parse_error() {
        let mut sw = l2_switch(&[]);
        let out = sw.process(PortId(0), Frame::from_slice(&[1, 2, 3]), 4, &FramePool::new());
        assert!(out.is_empty());
        assert_eq!(sw.stats().parse_errors, 1);
    }

    #[test]
    fn switch_works_inside_simulator() {
        use daiet_netsim::{LinkSpec, Simulator};

        // Echo hosts at plan ports; host 1 sends to host 2 through the switch.
        struct Sender {
            sent: bool,
        }
        impl Node for Sender {
            fn on_packet(&mut self, _: &mut dyn Fabric, _: PortId, _: Frame) {}
            fn on_start(&mut self, ctx: &mut dyn Fabric) {
                if !self.sent {
                    self.sent = true;
                    ctx.send(PortId(0), frame(1, 2));
                }
            }
        }
        #[derive(Default)]
        struct Receiver {
            got: usize,
        }
        impl Node for Receiver {
            fn on_packet(&mut self, _: &mut dyn Fabric, _: PortId, _: Frame) {
                self.got += 1;
            }
        }

        let mut sim = Simulator::new(3);
        let sender = sim.add_node(Box::new(Sender { sent: false }));
        let receiver = sim.add_node(Box::new(Receiver::default()));
        // Switch learns: host 2 lives on port 1.
        let sw = sim.add_node(Box::new(l2_switch(&[(2, 1)])));
        sim.connect(sender, sw, LinkSpec::fast()); // switch port 0
        sim.connect(sw, receiver, LinkSpec::fast()); // switch port 1
        sim.run();
        assert_eq!(sim.node_ref::<Receiver>(receiver).unwrap().got, 1);
        let stats = sim.node_ref::<Switch>(sw).unwrap().stats();
        assert_eq!(stats.packets_in, 1);
        assert_eq!(stats.forwarded, 1);
    }

    #[test]
    fn extern_ticks_run_until_quiescent() {
        use crate::pipeline::{ExternOutput, PacketCtx, SwitchExtern};
        use daiet_fabric::Duration;
        use daiet_netsim::{FramePool, LinkSpec, Simulator};

        /// Emits one probe frame per tick until it has emitted `budget`.
        struct Ticker {
            budget: u32,
            ticks: u32,
        }
        impl SwitchExtern for Ticker {
            fn invoke(&mut self, _: &mut PacketCtx, _: u32, _: &FramePool) -> ExternOutput {
                ExternOutput::default()
            }
            fn tick_interval(&self) -> Option<Duration> {
                Some(Duration::from_micros(10))
            }
            fn wants_tick(&self) -> bool {
                self.ticks < self.budget
            }
            fn on_tick(&mut self, _now: Time, pool: &FramePool) -> Vec<(PortId, Frame)> {
                self.ticks += 1;
                vec![(PortId(0), pool.copy_from_slice(b"tick"))]
            }
        }

        #[derive(Default)]
        struct Sink(usize);
        impl Node for Sink {
            fn on_packet(&mut self, _: &mut dyn Fabric, _: PortId, _: Frame) {
                self.0 += 1;
            }
        }

        let mut sw = Switch::new("ticker", Pipeline::new(Resources::tiny()));
        sw.register_extern(Box::new(Ticker { budget: 3, ticks: 0 }));
        let mut sim = Simulator::new(1);
        let sw_id = sim.add_node(Box::new(sw));
        let sink = sim.add_node(Box::new(Sink::default()));
        sim.connect(sw_id, sink, LinkSpec::fast());
        // The run terminates (the extern goes quiescent after 3 ticks) and
        // every tick's emission reached the sink.
        sim.run();
        assert_eq!(sim.node_ref::<Sink>(sink).unwrap().0, 3);
    }

    /// Frames per drain in the ordered-output tests.
    const DRAIN_FRAMES: u8 = 6;

    /// An extern that answers each steered packet with a drain of
    /// `DRAIN_FRAMES` 400-byte frames out of port 1, tagged with the
    /// steering argument (its "tree") and the frame's index.
    #[derive(Default)]
    struct Flusher {
        /// Frames left per tree.
        left: std::collections::HashMap<u64, u8>,
    }

    impl Flusher {
        fn frame(&mut self, tree: u64, pool: &FramePool) -> (Frame, bool) {
            let left = self.left.get_mut(&tree).expect("drain started");
            let mut bytes = vec![DRAIN_FRAMES - *left; 400];
            bytes[0] = tree as u8;
            *left -= 1;
            (pool.copy_from_slice(&bytes), *left > 0)
        }
    }

    impl crate::pipeline::SwitchExtern for Flusher {
        fn invoke(
            &mut self,
            _: &mut crate::pipeline::PacketCtx,
            arg: u32,
            pool: &FramePool,
        ) -> crate::pipeline::ExternOutput {
            let tree = u64::from(arg);
            self.left.insert(tree, DRAIN_FRAMES);
            let (first, more) = self.frame(tree, pool);
            crate::pipeline::ExternOutput {
                emit: vec![(PortId(1), first)],
                consume: true,
                ops: 1,
                drain: more.then_some(Drain {
                    port: PortId(1),
                    token: tree,
                }),
            }
        }

        fn drain_pass(&mut self, token: u64, pool: &FramePool) -> crate::pipeline::DrainPass {
            let (frame, more) = self.frame(token, pool);
            crate::pipeline::DrainPass {
                frame: Some(frame),
                ops: 1,
                more,
            }
        }
    }

    /// The same switch with the burst behaviour: every pass of a drain
    /// runs inside the packet that started it and all of its frames are
    /// handed to the port at once.
    struct Burst(Switch);

    impl Node for Burst {
        fn on_packet(&mut self, ctx: &mut dyn Fabric, port: PortId, frame: Frame) {
            let mut out = Vec::new();
            let port_count = ctx.port_count();
            self.0
                .process_into(port, frame, port_count, ctx.pool(), ctx.now(), &mut out);
            for (p, f) in out {
                ctx.send(p, f);
            }
        }
    }

    /// Sends one frame to each `(time, dst host)` of its script.
    struct Script(Vec<(u64, u32)>);

    impl Node for Script {
        fn on_packet(&mut self, _: &mut dyn Fabric, _: PortId, _: Frame) {}
        fn on_start(&mut self, ctx: &mut dyn Fabric) {
            for (i, &(at, _)) in self.0.iter().enumerate() {
                ctx.schedule(daiet_fabric::Duration::from_nanos(at), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut dyn Fabric, token: u64) {
            ctx.send(PortId(0), frame(1, self.0[token as usize].1));
        }
    }

    /// Records every arrival as `(time, first byte, second byte)`.
    #[derive(Default)]
    struct Log(Vec<(Time, u8, u8)>);

    impl Node for Log {
        fn on_packet(&mut self, ctx: &mut dyn Fabric, _: PortId, frame: Frame) {
            self.0.push((ctx.now(), frame[0], frame[1]));
        }
    }

    /// Two drains (hosts 8 and 9 steer to trees 8 and 9) start on port 1
    /// while a frame for host 2 arrives mid-drain, over `link`. Returns
    /// what the receiver logged and the switch's stats.
    fn run_drains(burst: bool, link: daiet_netsim::LinkSpec) -> (Vec<(Time, u8, u8)>, SwitchStats) {
        use crate::pipeline::ActionSpec;
        let mut pipeline = Pipeline::new(Resources::tofino_like());
        let h = pipeline
            .add_table(0, Table::new("steer", Field::EthDst, 16, ActionSpec::Drop))
            .unwrap();
        let mac = |id: u32| daiet_wire::EthernetAddress::from_id(id).0;
        let table = pipeline.table_mut(h);
        table
            .insert(&mac(2), ActionSpec::Forward(PortId(1)))
            .unwrap();
        for tree in [8, 9] {
            table
                .insert(
                    &mac(tree),
                    ActionSpec::Invoke {
                        ext: ExternId(0),
                        arg: tree,
                    },
                )
                .unwrap();
        }
        let mut sw = Switch::new("drainer", pipeline);
        sw.register_extern(Box::new(Flusher::default()));

        let mut sim = daiet_netsim::Simulator::new(5);
        let src = sim.add_node(Box::new(Script(vec![(0, 8), (500, 9), (1_000, 2)])));
        let dst = sim.add_node(Box::new(Log::default()));
        let sw_id = if burst {
            sim.add_node(Box::new(Burst(sw)))
        } else {
            sim.add_node(Box::new(sw))
        };
        sim.connect(src, sw_id, link);
        sim.connect(sw_id, dst, link);
        sim.run();
        let stats = if burst {
            sim.node_ref::<Burst>(sw_id).unwrap().0.stats()
        } else {
            sim.node_ref::<Switch>(sw_id).unwrap().stats()
        };
        (
            std::mem::take(&mut sim.node_mut::<Log>(dst).unwrap().0),
            stats,
        )
    }

    /// Paced passes keep every frame where the burst put it: two drains
    /// onto one port and a frame forwarded mid-drain arrive in the
    /// burst's order at the burst's instants, with one pass per frame
    /// after each drain's first.
    #[test]
    fn paced_drains_deliver_exactly_as_the_burst() {
        let link = daiet_netsim::LinkSpec::fast();
        let (burst, _) = run_drains(true, link);
        let (paced, stats) = run_drains(false, link);
        let order: Vec<(u8, u8)> = paced.iter().map(|&(_, a, b)| (a, b)).collect();
        let mut expect: Vec<(u8, u8)> = Vec::new();
        for tree in [8, 9] {
            expect.extend((0..DRAIN_FRAMES).map(|i| (tree, i)));
        }
        // The forwarded frame queued behind both drains (its first byte
        // is host 2's MAC).
        let fwd = frame(1, 2);
        expect.push((fwd[0], fwd[1]));
        assert_eq!(order, expect);
        assert_eq!(paced, burst, "a delivery moved");
        assert_eq!(stats.drain_passes, 2 * u64::from(DRAIN_FRAMES - 1));
        assert_eq!(stats.extern_emissions, 2 * u64::from(DRAIN_FRAMES));
        assert_eq!(stats.ops_violations, 0);
    }

    /// The point of pacing: the port's queue never holds a drain. On a
    /// queue that fits two frames the burst loses most of its drains;
    /// the paced switch delivers every frame.
    #[test]
    fn paced_drains_fit_a_shallow_queue() {
        let link = daiet_netsim::LinkSpec::fast().with_queue_bytes(1_000);
        let (burst, _) = run_drains(true, link);
        let (paced, _) = run_drains(false, link);
        assert_eq!(paced.len(), 2 * usize::from(DRAIN_FRAMES) + 1);
        assert!(burst.len() < paced.len(), "the burst overflowed no queue");
    }

    #[test]
    fn ops_budget_tracks_maximum() {
        let mut sw = l2_switch(&[(2, 1)]);
        sw.process(PortId(0), frame(1, 2), 4, &FramePool::new());
        assert!(sw.stats().max_ops_seen >= 2);
        assert_eq!(sw.stats().ops_violations, 0);
    }
}
