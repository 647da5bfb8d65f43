//! The staged match-action pipeline and the extern hook for bounded
//! stateful programs.
//!
//! A packet traverses the stages in order; in each stage every table is
//! applied once ("a table can be applied at most once per packet" is the
//! P4 constraint the paper calls out, which forces loop unrolling). Table
//! hits bind [`ActionSpec`]s; the only way to run stateful multi-step
//! logic (like DAIET's Algorithm 1) is through a registered
//! [`SwitchExtern`], which must declare the operation count it spent so the
//! per-packet budget can be audited.

use crate::parser::ParsedPacket;
use crate::resources::{ResourceError, Resources, SramTracker};
use crate::table::Table;
use daiet_fabric::{Duration, Frame, FramePool, PortId, Time};

/// Identifies a registered extern within one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExternId(pub usize);

/// Per-packet execution state threaded through the pipeline.
#[derive(Debug)]
pub struct PacketCtx {
    /// Ingress port.
    pub in_port: PortId,
    /// Parsed headers plus the original frame.
    pub parsed: ParsedPacket,
    /// Where the (possibly consumed) packet is headed.
    pub egress: Egress,
    /// Operations spent so far on this packet.
    pub ops: usize,
    /// Times this packet has been recirculated.
    pub recircs: u32,
    /// Simulated arrival time ([`Time::ZERO`] outside a simulator run,
    /// e.g. in unit tests that drive the pipeline directly). Externs with
    /// time-based state (NACK timeouts) read this.
    pub now: Time,
}

/// Forwarding decision for the original packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Egress {
    /// No decision yet (ends as a drop, like a miss in a real pipeline).
    #[default]
    Unset,
    /// Send out one port.
    Port(PortId),
    /// Send out every port except the ingress.
    Flood,
    /// Drop explicitly.
    Drop,
    /// Absorbed by an extern (e.g. aggregated into switch state).
    Consumed,
}

impl PacketCtx {
    /// Wraps a parsed packet arriving on `in_port`.
    pub fn new(in_port: PortId, parsed: ParsedPacket) -> PacketCtx {
        PacketCtx {
            in_port,
            parsed,
            egress: Egress::Unset,
            ops: 0,
            recircs: 0,
            now: Time::ZERO,
        }
    }

    /// Like [`PacketCtx::new`], stamped with the simulated arrival time.
    pub fn at(in_port: PortId, parsed: ParsedPacket, now: Time) -> PacketCtx {
        PacketCtx { now, ..PacketCtx::new(in_port, parsed) }
    }
}

/// An action bound to a flow rule.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionSpec {
    /// Do nothing (continue to later stages).
    NoOp,
    /// Drop the packet.
    Drop,
    /// Forward out a port.
    Forward(PortId),
    /// Forward out all ports except the ingress.
    Flood,
    /// Invoke a registered extern with an argument.
    Invoke {
        /// Which extern.
        ext: ExternId,
        /// Opaque argument (DAIET passes the tree id).
        arg: u32,
    },
    /// Re-inject the packet at the top of the pipeline (bounded by
    /// [`Resources::max_recirculations`]).
    Recirculate,
}

/// Frames an extern wants to transmit, tagged with their egress port.
pub type ExternEmission = (PortId, Frame);

/// Result of one extern invocation.
#[derive(Debug, Default)]
pub struct ExternOutput {
    /// Frames to emit (already fully serialized).
    pub emit: Vec<ExternEmission>,
    /// True when the original packet was absorbed into switch state and
    /// must not be forwarded.
    pub consume: bool,
    /// Primitive operations the extern spent (register accesses, hashes,
    /// ALU ops) — charged to the packet's budget.
    pub ops: usize,
}

/// A bounded stateful program attached to the pipeline (the DAIET
/// aggregation engine implements this). The `Any` supertrait lets the
/// control plane recover the concrete type for inspection after a run.
pub trait SwitchExtern: std::any::Any {
    /// Handles a packet directed to this extern by an
    /// [`ActionSpec::Invoke`]. Frames the extern emits should be built in
    /// buffers taken from `pool` so their storage recycles.
    fn invoke(&mut self, pkt: &mut PacketCtx, arg: u32, pool: &FramePool) -> ExternOutput;

    /// How often [`SwitchExtern::on_tick`] should run, or `None` for a
    /// purely packet-driven extern (the default). A switch only arms the
    /// timer while [`SwitchExtern::wants_tick`] holds, so a quiescent
    /// extern costs no events.
    fn tick_interval(&self) -> Option<Duration> {
        None
    }

    /// True while the extern has pending time-based work (e.g. flows with
    /// outstanding NACK timeouts). The switch re-arms the tick timer after
    /// any packet or tick that leaves this true, and lets it lapse
    /// otherwise — which is what allows the event queue to drain.
    fn wants_tick(&self) -> bool {
        false
    }

    /// Runs one timer tick at simulated time `now`, returning frames to
    /// transmit (e.g. NACKs toward children whose flows timed out).
    fn on_tick(&mut self, _now: Time, _pool: &FramePool) -> Vec<ExternEmission> {
        Vec::new()
    }

    /// The switch hosting this extern lost power (a scripted node
    /// failure — see the simulator’s `NodeScript`): every piece of
    /// volatile state (registers, rings, trackers) must be dropped, as
    /// SRAM contents do not survive a power cycle. Default: stateless,
    /// nothing to drop.
    fn on_node_fail(&mut self) {}

    /// Diagnostic name.
    fn name(&self) -> String {
        "extern".into()
    }
}

/// One pipeline stage: an ordered list of tables applied sequentially.
#[derive(Debug, Default)]
pub struct Stage {
    tables: Vec<Table>,
}

/// Outcome of a full pipeline traversal.
#[derive(Debug)]
pub struct PipelineVerdict {
    /// Final forwarding decision for the original frame.
    pub egress: Egress,
    /// Extern emissions gathered along the way.
    pub emissions: Vec<ExternEmission>,
    /// Whether the packet requested recirculation.
    pub recirculate: bool,
    /// Operations spent during this traversal.
    pub ops: usize,
}

/// The match-action pipeline: stages, SRAM accounting, op budget.
pub struct Pipeline {
    stages: Vec<Stage>,
    tracker: SramTracker,
}

impl Pipeline {
    /// An empty pipeline over `resources`.
    pub fn new(resources: Resources) -> Pipeline {
        Pipeline {
            stages: (0..resources.stages).map(|_| Stage::default()).collect(),
            tracker: SramTracker::new(resources),
        }
    }

    /// The chip budget.
    pub fn resources(&self) -> &Resources {
        self.tracker.resources()
    }

    /// The SRAM tracker (externs reserve their register memory here).
    pub fn tracker_mut(&mut self) -> &mut SramTracker {
        &mut self.tracker
    }

    /// Read-only SRAM tracker access.
    pub fn tracker(&self) -> &SramTracker {
        &self.tracker
    }

    /// Installs `table` into `stage`, reserving its SRAM. Returns a handle
    /// `(stage, index)` for later rule updates via [`Pipeline::table_mut`].
    pub fn add_table(&mut self, stage: usize, table: Table) -> Result<(usize, usize), ResourceError> {
        self.tracker.allocate(table.name(), stage, table.sram_bytes())?;
        let s = &mut self.stages[stage];
        s.tables.push(table);
        Ok((stage, s.tables.len() - 1))
    }

    /// Mutable access to an installed table (flow-rule updates).
    pub fn table_mut(&mut self, handle: (usize, usize)) -> &mut Table {
        &mut self.stages[handle.0].tables[handle.1]
    }

    /// Iterates all tables (for statistics reporting).
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.stages.iter().flat_map(|s| s.tables.iter())
    }

    /// Runs one traversal (no recirculation handling — the switch loops on
    /// `verdict.recirculate` itself, charging each pass).
    pub fn execute(
        &mut self,
        pkt: &mut PacketCtx,
        externs: &mut [Box<dyn SwitchExtern>],
        pool: &FramePool,
    ) -> PipelineVerdict {
        let mut emissions = Vec::new();
        let mut recirculate = false;
        let mut ops = 0usize;

        'stages: for stage in &mut self.stages {
            for table in &mut stage.tables {
                ops += 1; // one lookup per table application
                let action = table.lookup(pkt);
                match action {
                    ActionSpec::NoOp => {}
                    ActionSpec::Drop => {
                        pkt.egress = Egress::Drop;
                        break 'stages;
                    }
                    ActionSpec::Forward(port) => {
                        ops += 1;
                        pkt.egress = Egress::Port(port);
                    }
                    ActionSpec::Flood => {
                        ops += 1;
                        pkt.egress = Egress::Flood;
                    }
                    ActionSpec::Invoke { ext, arg } => {
                        let e = externs
                            .get_mut(ext.0)
                            .unwrap_or_else(|| panic!("extern {} not registered", ext.0));
                        let out = e.invoke(pkt, arg, pool);
                        ops += out.ops;
                        emissions.extend(out.emit);
                        if out.consume {
                            // The packet was absorbed into switch state;
                            // later stages must not resurrect it.
                            pkt.egress = Egress::Consumed;
                            break 'stages;
                        }
                    }
                    ActionSpec::Recirculate => {
                        ops += 1;
                        recirculate = true;
                    }
                }
            }
        }

        pkt.ops += ops;
        PipelineVerdict { egress: pkt.egress, emissions, recirculate, ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, ParserConfig};
    use crate::table::Field;
    use daiet_wire::stack::{build_udp, Endpoints};

    fn udp_pkt(dst: u32) -> PacketCtx {
        let frame = Frame::from(build_udp(&Endpoints::from_ids(1, dst), 999, 50, b"pp"));
        PacketCtx::new(PortId(0), parse(frame, &ParserConfig::default()).unwrap())
    }

    fn mac_key(id: u32) -> Vec<u8> {
        daiet_wire::EthernetAddress::from_id(id).0.to_vec()
    }

    fn l2_table(capacity: usize) -> Table {
        Table::new("l2", Field::EthDst, capacity, ActionSpec::Flood)
    }

    struct CountingExtern {
        invocations: u32,
        last_arg: Option<u32>,
        consume: bool,
    }

    impl SwitchExtern for CountingExtern {
        fn invoke(&mut self, _: &mut PacketCtx, arg: u32, pool: &FramePool) -> ExternOutput {
            self.invocations += 1;
            self.last_arg = Some(arg);
            ExternOutput {
                emit: vec![(PortId(5), pool.copy_from_slice(b"emitted"))],
                consume: self.consume,
                ops: 3,
            }
        }
    }

    #[test]
    fn forward_action_sets_egress() {
        let mut p = Pipeline::new(Resources::tiny());
        let h = p.add_table(0, l2_table(8)).unwrap();
        p.table_mut(h).insert(&mac_key(2), ActionSpec::Forward(PortId(4))).unwrap();
        let mut pkt = udp_pkt(2);
        let v = p.execute(&mut pkt, &mut [], &FramePool::new());
        assert_eq!(v.egress, Egress::Port(PortId(4)));
        assert!(v.ops >= 2);
    }

    #[test]
    fn default_action_floods() {
        let mut p = Pipeline::new(Resources::tiny());
        p.add_table(0, l2_table(8)).unwrap();
        let mut pkt = udp_pkt(9);
        let v = p.execute(&mut pkt, &mut [], &FramePool::new());
        assert_eq!(v.egress, Egress::Flood);
    }

    #[test]
    fn drop_short_circuits_later_stages() {
        let mut p = Pipeline::new(Resources::tiny());
        let h0 = p.add_table(0, Table::new("acl", Field::EthDst, 4, ActionSpec::NoOp)).unwrap();
        p.table_mut(h0).insert(&mac_key(2), ActionSpec::Drop).unwrap();
        let h1 = p.add_table(1, l2_table(8)).unwrap();
        let mut pkt = udp_pkt(2);
        let v = p.execute(&mut pkt, &mut [], &FramePool::new());
        assert_eq!(v.egress, Egress::Drop);
        // The stage-1 table never ran.
        assert_eq!(p.table_mut(h1).stats(), (0, 0));
    }

    #[test]
    fn extern_invocation_emits_and_consumes() {
        let mut p = Pipeline::new(Resources::tiny());
        let h = p.add_table(0, Table::new("steer", Field::EthDst, 4, ActionSpec::NoOp)).unwrap();
        p.table_mut(h)
            .insert(&mac_key(2), ActionSpec::Invoke { ext: ExternId(0), arg: 1234 })
            .unwrap();
        let mut externs: Vec<Box<dyn SwitchExtern>> =
            vec![Box::new(CountingExtern { invocations: 0, last_arg: None, consume: true })];
        let mut pkt = udp_pkt(2);
        let v = p.execute(&mut pkt, &mut externs, &FramePool::new());
        assert_eq!(v.egress, Egress::Consumed);
        assert_eq!(v.emissions.len(), 1);
        assert_eq!(v.emissions[0].0, PortId(5));
        let ext = (externs[0].as_ref() as &dyn std::any::Any)
            .downcast_ref::<CountingExtern>()
            .unwrap();
        assert_eq!((ext.invocations, ext.last_arg), (1, Some(1234)));
        // 1 lookup + 3 extern ops.
        assert_eq!(v.ops, 4);
    }

    #[test]
    fn recirculate_is_reported_not_looped() {
        let mut p = Pipeline::new(Resources::tiny());
        p.add_table(0, Table::new("recirc", Field::EthDst, 4, ActionSpec::Recirculate)).unwrap();
        let mut pkt = udp_pkt(2);
        let v = p.execute(&mut pkt, &mut [], &FramePool::new());
        assert!(v.recirculate);
        assert_eq!(v.egress, Egress::Unset);
    }

    #[test]
    fn table_sram_is_charged() {
        let mut p = Pipeline::new(Resources::tiny());
        p.add_table(0, l2_table(1000)).unwrap();
        assert_eq!(p.tracker().used_in_stage(0), 1000 * 14);
        // A table too large for the remaining slice is refused.
        let err = p.add_table(0, l2_table(10_000)).unwrap_err();
        assert!(matches!(err, ResourceError::SramExhausted { .. }));
    }

    #[test]
    fn ops_accumulate_on_packet() {
        let mut p = Pipeline::new(Resources::tiny());
        p.add_table(0, l2_table(4)).unwrap();
        p.add_table(1, l2_table(4)).unwrap();
        let mut pkt = udp_pkt(2);
        p.execute(&mut pkt, &mut [], &FramePool::new());
        // Two lookups, two flood decisions (default action each stage).
        assert_eq!(pkt.ops, 4);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn missing_extern_panics() {
        let mut p = Pipeline::new(Resources::tiny());
        let invoke = ActionSpec::Invoke { ext: ExternId(3), arg: 0 };
        p.add_table(0, Table::new("bad", Field::EthDst, 4, invoke)).unwrap();
        let mut pkt = udp_pkt(2);
        p.execute(&mut pkt, &mut [], &FramePool::new());
    }
}
