//! The switch device: parser + pipeline + externs behind a
//! [`daiet_fabric::Node`] interface, with per-switch statistics.

use crate::parser::{parse, ParseError, ParserConfig};
use crate::pipeline::{Egress, ExternId, PacketCtx, Pipeline, SwitchExtern};
use daiet_fabric::{Fabric, Frame, FramePool, Node, PortId, Time};

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

    /// Processes one frame, appending the frames to transmit to `out` —
    /// the allocation-free core [`Node::on_packet`] drives with a reused
    /// staging buffer. `now` stamps the packet context for time-aware
    /// externs.
    pub fn process_into(
        &mut self,
        in_port: PortId,
        frame: Frame,
        port_count: usize,
        pool: &FramePool,
        now: Time,
        out: &mut Vec<(PortId, Frame)>,
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
        self.process_into(port, frame, port_count, ctx.pool(), now, &mut out);
        for (out_port, out_frame) in out.drain(..) {
            ctx.send(out_port, out_frame);
        }
        self.scratch = out;
        // A packet may have created time-based work (a new flow to watch).
        self.arm_ticks(ctx);
    }

    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        self.arm_ticks(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, token: u64) {
        let i = token as usize;
        let Some(ext) = self.externs.get_mut(i) else {
            return;
        };
        self.tick_armed[i] = false;
        let emissions = ext.on_tick(ctx.now(), ctx.pool());
        self.stats.extern_emissions += emissions.len() as u64;
        for (port, frame) in emissions {
            ctx.send(port, frame);
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

    #[test]
    fn ops_budget_tracks_maximum() {
        let mut sw = l2_switch(&[(2, 1)]);
        sw.process(PortId(0), frame(1, 2), 4, &FramePool::new());
        assert!(sw.stats().max_ops_seen >= 2);
        assert_eq!(sw.stats().ops_violations, 0);
    }
}
