//! A simplified TCP: enough protocol to make the Figure-3 baseline's
//! packet and byte counts faithful.
//!
//! Supported: three-way handshake, MSS segmentation, fixed-size sliding
//! window, cumulative ACKs with delayed ACK (every second segment or a
//! timer), out-of-order reassembly, go-back-N retransmission on RTO with
//! exponential backoff capped at 64 initial timeouts, FIN teardown.
//! Unsupported (documented, like smoltcp's feature list): congestion
//! control beyond the fixed window, SACK, window scaling, timestamps, RST
//! handling beyond teardown, simultaneous open.

use daiet_netsim::{Fabric, Frame, FramePool, Node, PortId, SimDuration, SimTime};
use daiet_wire::stack::{build_tcp_into, Endpoints, Parsed, Transport};
use daiet_wire::tcpseg::{Flags, Repr};
use daiet_wire::fnv::FnvHashMap;
use std::collections::{BTreeMap, VecDeque};

/// Maximum segment size (payload bytes per data segment). 1448 models a
/// 1500-byte MTU minus IP/TCP headers and a timestamp option's worth of
/// slack.
const MSS: usize = 1448;
/// Sliding window (bytes in flight).
const WINDOW: usize = 64 * 1024;
/// Initial retransmission timeout.
const RTO: SimDuration = SimDuration::from_millis(1);
/// Ceiling of the exponential backoff: 64 initial timeouts. Uncapped, the
/// 17th timeout of one connection would fall 131 s after its first.
const RTO_MAX: SimDuration = SimDuration::from_millis(64);
/// Delayed-ACK timer.
const ACK_DELAY: SimDuration = SimDuration::from_micros(200);

/// Identifies a connection within one stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnKey {
    /// Local port.
    pub local_port: u16,
    /// Remote host id.
    pub remote_host: u32,
    /// Remote port.
    pub remote_port: u16,
}

/// Events surfaced to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketEvent {
    /// Active open completed.
    Connected(ConnKey),
    /// Passive open completed.
    Accepted(ConnKey),
    /// New bytes are readable.
    Readable(ConnKey),
    /// The peer finished sending (FIN received and all data delivered).
    PeerFin(ConnKey),
    /// The connection is fully closed.
    Closed(ConnKey),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    SynSent,
    SynReceived,
    Established,
    /// We sent FIN, awaiting its ACK.
    FinWait,
    /// Peer sent FIN; we may still send.
    CloseWait,
    /// Both FINs exchanged; ours awaits ACK.
    LastAck,
    Closed,
}

#[derive(Debug)]
struct Connection {
    state: State,
    /// Oldest unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Bytes accepted from the app, not yet acknowledged; front byte has
    /// sequence number `buf_base`.
    send_buf: VecDeque<u8>,
    buf_base: u32,
    /// App called close: emit FIN once the buffer drains.
    fin_queued: bool,
    fin_sent: bool,
    /// Next expected receive sequence number.
    rcv_nxt: u32,
    /// Out-of-order segments keyed by sequence number.
    ooo: BTreeMap<u32, Vec<u8>>,
    /// In-order bytes awaiting the application.
    recv_buf: VecDeque<u8>,
    peer_fin_at: Option<u32>,
    peer_fin_delivered: bool,
    /// Retransmission state.
    rto_current: SimDuration,
    rto_deadline: Option<SimTime>,
    /// Delayed-ACK state.
    ack_deadline: Option<SimTime>,
    segs_since_ack: u32,
    /// Statistics.
    retransmit_segments: u64,
    timeouts: u64,
}

impl Connection {
    fn new(state: State) -> Connection {
        Connection {
            state,
            snd_una: 0,
            snd_nxt: 0,
            send_buf: VecDeque::new(),
            buf_base: 1, // first data byte follows the SYN
            fin_queued: false,
            fin_sent: false,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            recv_buf: VecDeque::new(),
            peer_fin_at: None,
            peer_fin_delivered: false,
            rto_current: SimDuration::ZERO,
            rto_deadline: None,
            ack_deadline: None,
            segs_since_ack: 0,
            retransmit_segments: 0,
            timeouts: 0,
        }
    }

    fn bytes_in_flight(&self) -> usize {
        self.snd_nxt.wrapping_sub(self.snd_una) as usize
    }

    /// Payload bytes not yet sent (buffered beyond snd_nxt).
    fn unsent_bytes(&self) -> usize {
        let sent_from_buf = self.snd_nxt.wrapping_sub(self.buf_base) as usize;
        self.send_buf.len().saturating_sub(sent_from_buf.min(self.send_buf.len()))
    }
}

/// Aggregate statistics across a stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Data segments transmitted (including retransmissions).
    pub data_segments_out: u64,
    /// Pure ACK/control segments transmitted.
    pub control_segments_out: u64,
    /// Segments received and accepted.
    pub segments_in: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Application payload bytes delivered in order.
    pub bytes_delivered: u64,
}

/// The TCP state machine for one host: multiple connections, listeners,
/// deterministic timers.
#[derive(Debug)]
pub struct TcpStack {
    host: u32,
    conns: FnvHashMap<ConnKey, Connection>,
    listeners: Vec<u16>,
    events: VecDeque<SocketEvent>,
    /// Frames ready to transmit.
    out: VecDeque<Frame>,
    stats: TcpStats,
    next_ephemeral: u16,
    /// Buffer pool for outgoing frames (each stack recycles its own).
    pool: FramePool,
    /// Reused payload staging buffer for segment transmission.
    seg_buf: Vec<u8>,
}

impl TcpStack {
    /// A stack for the host with id `host` (addresses derive from it).
    pub fn new(host: u32) -> TcpStack {
        TcpStack {
            host,
            conns: FnvHashMap::default(),
            listeners: Vec::new(),
            events: VecDeque::new(),
            out: VecDeque::new(),
            stats: TcpStats::default(),
            next_ephemeral: 40_000,
            pool: FramePool::new(),
            seg_buf: Vec::new(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// Replaces the stack's frame pool. The node adapters call this with
    /// the simulator's pool at start-up so a pool-disabled simulation
    /// (the pooled-vs-unpooled determinism cross-check) covers TCP
    /// frames too.
    pub fn set_pool(&mut self, pool: FramePool) {
        self.pool = pool;
    }

    /// Starts listening on `port`.
    pub fn listen(&mut self, port: u16) {
        if !self.listeners.contains(&port) {
            self.listeners.push(port);
        }
    }

    /// Opens a connection to `remote_host:remote_port`; returns its key.
    pub fn connect(&mut self, now: SimTime, remote_host: u32, remote_port: u16) -> ConnKey {
        let local_port = self.next_ephemeral;
        self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(40_000);
        let key = ConnKey { local_port, remote_host, remote_port };
        let mut conn = Connection::new(State::SynSent);
        conn.rto_current = RTO;
        self.emit(&key, &mut conn, Flags::SYN, 0, 0, &[]);
        conn.snd_nxt = 1;
        conn.rto_deadline = Some(now + RTO);
        self.conns.insert(key, conn);
        key
    }

    /// Queues application data on an established connection.
    pub fn send(&mut self, key: ConnKey, data: &[u8]) {
        let conn = self.conns.get_mut(&key).expect("send on unknown connection");
        assert!(
            matches!(conn.state, State::Established | State::CloseWait | State::SynSent | State::SynReceived),
            "send after close"
        );
        conn.send_buf.extend(data);
    }

    /// Half-closes: a FIN follows the last queued byte.
    pub fn close(&mut self, key: ConnKey) {
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.fin_queued = true;
        }
    }

    /// Reads up to `max` in-order bytes.
    pub fn recv(&mut self, key: ConnKey, max: usize) -> Vec<u8> {
        let Some(conn) = self.conns.get_mut(&key) else { return Vec::new() };
        let n = max.min(conn.recv_buf.len());
        conn.recv_buf.drain(..n).collect()
    }

    /// Readable bytes pending on `key`.
    pub fn readable(&self, key: ConnKey) -> usize {
        self.conns.get(&key).map_or(0, |c| c.recv_buf.len())
    }

    /// Pops the next application event.
    pub fn poll_event(&mut self) -> Option<SocketEvent> {
        self.events.pop_front()
    }

    /// Drains frames ready for the wire.
    pub fn poll_transmit(&mut self) -> Vec<Frame> {
        self.out.drain(..).collect()
    }

    /// The earliest timer deadline across connections, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.conns
            .values()
            .flat_map(|c| [c.rto_deadline, c.ack_deadline])
            .flatten()
            .min()
    }

    /// True when every connection is fully closed and nothing is pending.
    pub fn is_idle(&self) -> bool {
        self.out.is_empty()
            && self.conns.values().all(|c| c.state == State::Closed)
    }

    fn emit(&mut self, key: &ConnKey, conn: &mut Connection, flags: Flags, seq: u32, ack: u32, payload: &[u8]) {
        let repr = Repr {
            src_port: key.local_port,
            dst_port: key.remote_port,
            seq,
            ack,
            flags,
            window: WINDOW.min(u16::MAX as usize) as u16,
            payload_len: payload.len(),
        };
        let ep = Endpoints::from_ids(self.host, key.remote_host);
        let mut buf = self.pool.buffer();
        build_tcp_into(&mut buf, &ep, &repr, payload);
        self.out.push_back(self.pool.frame(buf));
        if payload.is_empty() {
            self.stats.control_segments_out += 1;
        } else {
            self.stats.data_segments_out += 1;
        }
        conn.segs_since_ack = 0; // every segment carries the latest ack
    }

    /// Advances the send side of one connection: transmit while window
    /// and buffer allow, then the FIN.
    fn pump_connection(&mut self, key: ConnKey, now: SimTime) {
        let Some(mut conn) = self.conns.remove(&key) else { return };
        if matches!(conn.state, State::Established | State::CloseWait | State::FinWait | State::LastAck) {
            // Data segments. The payload is staged in a reusable scratch
            // buffer (`VecDeque` storage may wrap, so a contiguous copy is
            // needed for checksumming either way).
            while conn.unsent_bytes() > 0 && conn.bytes_in_flight() < WINDOW {
                let offset = conn.snd_nxt.wrapping_sub(conn.buf_base) as usize;
                let len = conn
                    .unsent_bytes()
                    .min(MSS)
                    .min(WINDOW - conn.bytes_in_flight());
                let mut payload = std::mem::take(&mut self.seg_buf);
                payload.clear();
                payload.extend(conn.send_buf.iter().skip(offset).take(len));
                let seq = conn.snd_nxt;
                let ack = conn.rcv_nxt;
                self.emit(&key, &mut conn, Flags::ACK | Flags::PSH, seq, ack, &payload);
                self.seg_buf = payload;
                conn.snd_nxt = conn.snd_nxt.wrapping_add(len as u32);
                if conn.rto_deadline.is_none() {
                    conn.rto_deadline = Some(now + conn.rto_current);
                }
            }
            // FIN once the buffer is drained.
            if conn.fin_queued
                && !conn.fin_sent
                && conn.unsent_bytes() == 0
                && conn.bytes_in_flight() < WINDOW
            {
                let seq = conn.snd_nxt;
                let ack = conn.rcv_nxt;
                self.emit(&key, &mut conn, Flags::FIN | Flags::ACK, seq, ack, &[]);
                conn.snd_nxt = conn.snd_nxt.wrapping_add(1);
                conn.fin_sent = true;
                conn.state = match conn.state {
                    State::CloseWait | State::LastAck => State::LastAck,
                    _ => State::FinWait,
                };
                if conn.rto_deadline.is_none() {
                    conn.rto_deadline = Some(now + conn.rto_current);
                }
            }
        }
        self.conns.insert(key, conn);
    }

    /// Feeds one received frame (already checksum-verified by dissection).
    /// Returns `true` if the frame was TCP for this host.
    pub fn on_frame(&mut self, now: SimTime, frame: &[u8]) -> bool {
        let Ok(parsed) = Parsed::dissect(frame) else { return false };
        let Transport::Tcp { tcp, payload } = parsed.transport else { return false };
        // Identify the connection.
        let remote_host = {
            // Host ids encode into the low bytes of 10.x.y.z addresses.
            let b = parsed.ip.src_addr.0;
            u32::from_be_bytes([0, b[1], b[2], b[3]])
        };
        let key = ConnKey {
            local_port: tcp.dst_port,
            remote_host,
            remote_port: tcp.src_port,
        };
        self.stats.segments_in += 1;

        if !self.conns.contains_key(&key) {
            // Passive open?
            if tcp.flags.contains(Flags::SYN) && !tcp.flags.contains(Flags::ACK) {
                if self.listeners.contains(&tcp.dst_port) {
                    let mut conn = Connection::new(State::SynReceived);
                    conn.rto_current = RTO;
                    conn.rcv_nxt = tcp.seq.wrapping_add(1);
                    let ack = conn.rcv_nxt;
                    self.emit(&key, &mut conn, Flags::SYN | Flags::ACK, 0, ack, &[]);
                    conn.snd_nxt = 1;
                    conn.rto_deadline = Some(now + RTO);
                    self.conns.insert(key, conn);
                }
                return true;
            }
            return true; // stray segment for a dead connection
        }

        let mut conn = self.conns.remove(&key).expect("checked above");
        let mut need_ack = false;
        let mut advanced = false;

        // SYN-ACK completes an active open.
        if conn.state == State::SynSent && tcp.flags.contains(Flags::SYN | Flags::ACK) {
            conn.rcv_nxt = tcp.seq.wrapping_add(1);
            conn.snd_una = tcp.ack;
            conn.state = State::Established;
            conn.rto_deadline = None;
            let (seq, ack) = (conn.snd_nxt, conn.rcv_nxt);
            self.emit(&key, &mut conn, Flags::ACK, seq, ack, &[]);
            self.events.push_back(SocketEvent::Connected(key));
            self.conns.insert(key, conn);
            self.pump_connection(key, now);
            return true;
        }

        // ACK processing (cumulative).
        if tcp.flags.contains(Flags::ACK) {
            if conn.state == State::SynReceived && tcp.ack >= 1 {
                conn.state = State::Established;
                conn.snd_una = conn.snd_una.max(1);
                conn.rto_deadline = None;
                self.events.push_back(SocketEvent::Accepted(key));
            }
            if tcp.ack.wrapping_sub(conn.snd_una) as i32 > 0 && tcp.ack <= conn.snd_nxt {
                // Drop acknowledged bytes from the buffer.
                let acked_data_end = tcp.ack.min(conn.buf_base.wrapping_add(conn.send_buf.len() as u32));
                if acked_data_end.wrapping_sub(conn.buf_base) as i32 > 0 {
                    let n = acked_data_end.wrapping_sub(conn.buf_base) as usize;
                    conn.send_buf.drain(..n.min(conn.send_buf.len()));
                    conn.buf_base = acked_data_end;
                }
                conn.snd_una = tcp.ack;
                conn.rto_current = RTO; // fresh progress resets backoff
                conn.rto_deadline = if conn.bytes_in_flight() > 0 {
                    Some(now + conn.rto_current)
                } else {
                    None
                };
                // FIN acknowledged?
                if conn.fin_sent && conn.snd_una == conn.snd_nxt {
                    match conn.state {
                        State::FinWait
                            // Wait for the peer's FIN (or it already came).
                            if conn.peer_fin_delivered => {
                                conn.state = State::Closed;
                                self.events.push_back(SocketEvent::Closed(key));
                            }
                        State::LastAck => {
                            conn.state = State::Closed;
                            self.events.push_back(SocketEvent::Closed(key));
                        }
                        _ => {}
                    }
                }
            }
        }

        // In-order / out-of-order payload.
        if !payload.is_empty() {
            let seg_seq = tcp.seq;
            if seg_seq == conn.rcv_nxt {
                conn.recv_buf.extend(payload.iter().copied());
                conn.rcv_nxt = conn.rcv_nxt.wrapping_add(payload.len() as u32);
                self.stats.bytes_delivered += payload.len() as u64;
                advanced = true;
                // Drain any contiguous out-of-order segments.
                while let Some((&s, _)) = conn.ooo.first_key_value() {
                    if s != conn.rcv_nxt {
                        if s.wrapping_sub(conn.rcv_nxt) as i32 <= 0 {
                            conn.ooo.pop_first(); // stale overlap
                            continue;
                        }
                        break;
                    }
                    let (_, data) = conn.ooo.pop_first().expect("checked");
                    conn.rcv_nxt = conn.rcv_nxt.wrapping_add(data.len() as u32);
                    self.stats.bytes_delivered += data.len() as u64;
                    conn.recv_buf.extend(data);
                }
            } else if seg_seq.wrapping_sub(conn.rcv_nxt) as i32 > 0 {
                // Out-of-order: copy out of the frame (rare path).
                conn.ooo.entry(seg_seq).or_insert_with(|| payload.to_vec());
                need_ack = true; // duplicate ACK hints the gap
            } else {
                need_ack = true; // old segment: re-ACK
            }
            conn.segs_since_ack += 1;
        }

        // Peer FIN.
        if tcp.flags.contains(Flags::FIN) {
            let fin_seq = tcp.seq.wrapping_add(payload_len_of(&tcp));
            if conn.peer_fin_at.is_none() {
                conn.peer_fin_at = Some(fin_seq);
            }
            // A FIN delivered before came again: our ACK of it was lost.
            // ACK it again, closed or not, or the peer retransmits it
            // until its run ends.
            if conn.peer_fin_delivered {
                need_ack = true;
            }
        }
        if let Some(fin_seq) = conn.peer_fin_at {
            if !conn.peer_fin_delivered && conn.rcv_nxt == fin_seq {
                conn.rcv_nxt = conn.rcv_nxt.wrapping_add(1);
                conn.peer_fin_delivered = true;
                need_ack = true;
                self.events.push_back(SocketEvent::PeerFin(key));
                match conn.state {
                    State::Established => conn.state = State::CloseWait,
                    State::FinWait if conn.fin_sent && conn.snd_una == conn.snd_nxt => {
                        conn.state = State::Closed;
                        self.events.push_back(SocketEvent::Closed(key));
                    }
                    _ => {}
                }
            }
        }

        if advanced {
            self.events.push_back(SocketEvent::Readable(key));
        }

        // ACK policy: immediate on every 2nd segment, gaps, FIN; else
        // delayed.
        if need_ack || conn.segs_since_ack >= 2 {
            let (seq, ack) = (conn.snd_nxt, conn.rcv_nxt);
            self.emit(&key, &mut conn, Flags::ACK, seq, ack, &[]);
            conn.ack_deadline = None;
        } else if advanced && conn.ack_deadline.is_none() {
            conn.ack_deadline = Some(now + ACK_DELAY);
        }

        self.conns.insert(key, conn);
        self.pump_connection(key, now);
        true
    }

    /// Fires expired timers: RTO retransmission and delayed ACKs.
    pub fn on_tick(&mut self, now: SimTime) {
        let keys: Vec<ConnKey> = self.conns.keys().copied().collect();
        for key in keys {
            let mut conn = self.conns.remove(&key).expect("key from map");
            if let Some(dl) = conn.ack_deadline {
                if dl <= now {
                    conn.ack_deadline = None;
                    let (seq, ack) = (conn.snd_nxt, conn.rcv_nxt);
                    self.emit(&key, &mut conn, Flags::ACK, seq, ack, &[]);
                }
            }
            if let Some(dl) = conn.rto_deadline {
                if dl <= now {
                    conn.timeouts += 1;
                    self.stats.timeouts += 1;
                    conn.rto_current = conn.rto_current.saturating_mul(2).min(RTO_MAX);
                    conn.rto_deadline = Some(now + conn.rto_current);
                    match conn.state {
                        State::SynSent => {
                            self.stats.retransmits += 1;
                            let ack = 0;
                            self.emit(&key, &mut conn, Flags::SYN, 0, ack, &[]);
                        }
                        State::SynReceived => {
                            self.stats.retransmits += 1;
                            let ack = conn.rcv_nxt;
                            self.emit(&key, &mut conn, Flags::SYN | Flags::ACK, 0, ack, &[]);
                        }
                        State::Closed => {
                            conn.rto_deadline = None;
                        }
                        _ => {
                            // Go-back-N: rewind and let the pump resend.
                            conn.retransmit_segments += 1;
                            self.stats.retransmits += 1;
                            conn.snd_nxt = conn.snd_una.max(conn.buf_base);
                            if conn.fin_sent {
                                conn.fin_sent = false; // FIN will be resent after data
                            }
                        }
                    }
                }
            }
            self.conns.insert(key, conn);
            self.pump_connection(key, now);
        }
    }
}

/// Payload length from a parsed repr (helper: the repr carries it).
fn payload_len_of(tcp: &Repr) -> u32 {
    tcp.payload_len as u32
}

// ---------------------------------------------------------------------
// Node adapters
// ---------------------------------------------------------------------

const TICK_TOKEN: u64 = u64::MAX;

/// A host that connects and streams a byte blob, then closes — one
/// connection per `(peer, payload)` entry (the mapper side of the TCP
/// shuffle baseline).
pub struct BulkSenderNode {
    stack: TcpStack,
    jobs: Vec<(u32, u16, Vec<u8>)>,
    started: bool,
}

impl BulkSenderNode {
    /// A sender on host `host` delivering each `(peer, port, bytes)` job.
    pub fn new(host: u32, jobs: Vec<(u32, u16, Vec<u8>)>) -> BulkSenderNode {
        BulkSenderNode { stack: TcpStack::new(host), jobs, started: false }
    }

    /// The underlying stack (statistics).
    pub fn stack(&self) -> &TcpStack {
        &self.stack
    }

    fn flush(&mut self, ctx: &mut dyn Fabric) {
        for frame in self.stack.poll_transmit() {
            ctx.send(PortId(0), frame);
        }
        while self.stack.poll_event().is_some() {}
        if let Some(deadline) = self.stack.next_deadline() {
            let now = ctx.now();
            let delay = if deadline > now { deadline - now } else { SimDuration::from_nanos(1) };
            ctx.schedule(delay, TICK_TOKEN);
        }
    }
}

impl Node for BulkSenderNode {
    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        if !self.started {
            self.started = true;
            self.stack.set_pool(ctx.pool().clone());
            for (peer, port, data) in std::mem::take(&mut self.jobs) {
                let key = self.stack.connect(ctx.now(), peer, port);
                self.stack.send(key, &data);
                self.stack.close(key);
            }
            self.flush(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, frame: Frame) {
        self.stack.on_frame(ctx.now(), &frame);
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
        self.stack.on_tick(ctx.now());
        self.flush(ctx);
    }

    fn name(&self) -> String {
        "tcp-bulk-sender".into()
    }
}

/// A host that accepts connections on a port and accumulates everything
/// received, per peer (the reducer side of the TCP shuffle baseline).
pub struct SinkReceiverNode {
    stack: TcpStack,
    /// Bytes received per connection, completed when the peer FINs.
    pub received: FnvHashMap<ConnKey, Vec<u8>>,
    /// Connections whose peer has finished sending.
    pub finished: Vec<ConnKey>,
    /// Time the last expected stream finished, if tracked.
    pub last_fin_at: Option<SimTime>,
}

impl SinkReceiverNode {
    /// A receiver on host `host` listening on `port`.
    pub fn new(host: u32, port: u16) -> SinkReceiverNode {
        let mut stack = TcpStack::new(host);
        stack.listen(port);
        SinkReceiverNode {
            stack,
            received: FnvHashMap::default(),
            finished: Vec::new(),
            last_fin_at: None,
        }
    }

    /// The underlying stack (statistics).
    pub fn stack(&self) -> &TcpStack {
        &self.stack
    }

    fn drain(&mut self, ctx: &mut dyn Fabric) {
        while let Some(ev) = self.stack.poll_event() {
            match ev {
                SocketEvent::Readable(key) => {
                    let data = self.stack.recv(key, usize::MAX);
                    self.received.entry(key).or_default().extend(data);
                }
                SocketEvent::PeerFin(key) => {
                    let data = self.stack.recv(key, usize::MAX);
                    self.received.entry(key).or_default().extend(data);
                    self.finished.push(key);
                    self.last_fin_at = Some(ctx.now());
                    self.stack.close(key); // close our side too
                }
                _ => {}
            }
        }
        for frame in self.stack.poll_transmit() {
            ctx.send(PortId(0), frame);
        }
        if let Some(deadline) = self.stack.next_deadline() {
            let now = ctx.now();
            let delay = if deadline > now { deadline - now } else { SimDuration::from_nanos(1) };
            ctx.schedule(delay, TICK_TOKEN);
        }
    }
}

impl Node for SinkReceiverNode {
    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        self.stack.set_pool(ctx.pool().clone());
    }

    fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, frame: Frame) {
        self.stack.on_frame(ctx.now(), &frame);
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
        self.stack.on_tick(ctx.now());
        self.drain(ctx);
    }

    fn name(&self) -> String {
        "tcp-sink".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daiet_netsim::{FaultProfile, LinkSpec, Simulator};
    use daiet_wire::stack::{Parsed, Transport};

    fn run_transfer(
        bytes: usize,
        spec: LinkSpec,
        seed: u64,
    ) -> (Vec<u8>, TcpStats, TcpStats, daiet_netsim::NodeStats, Option<SimTime>) {
        let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
        let mut sim = Simulator::new(seed);
        let sender = sim.add_node(Box::new(BulkSenderNode::new(1, vec![(2, 9000, data.clone())])));
        let receiver = sim.add_node(Box::new(SinkReceiverNode::new(2, 9000)));
        sim.connect(sender, receiver, spec);
        sim.run_until(daiet_netsim::SimTime(SimDuration::from_secs(30).as_nanos()));
        let rx_stats = sim.node_stats(receiver);
        let r = sim.node_ref::<SinkReceiverNode>(receiver).unwrap();
        let got = r.received.values().next().cloned().unwrap_or_default();
        let (s_stats, r_stats) = (
            sim.node_ref::<BulkSenderNode>(sender).unwrap().stack().stats(),
            r.stack().stats(),
        );
        (got, s_stats, r_stats, rx_stats, r.last_fin_at)
    }

    #[test]
    fn fixed_window_bursts_into_a_gigabit_bottleneck_without_loss() {
        // The 64 KiB window bursts into a gigabit link and queues there,
        // but the 256 KiB drop-tail never fills. Segment counts and the
        // finish instant are pinned, so any change to how the window
        // paces the sender shows here.
        let (got, s, _r, _, last_fin_at) = run_transfer(200_000, LinkSpec::gigabit(), 12);
        assert_eq!(got.len(), 200_000);
        assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
        assert_eq!(s.data_segments_out, 141);
        assert_eq!(s.control_segments_out, 4);
        assert_eq!(s.retransmits, 0);
        assert_eq!(last_fin_at, Some(SimTime(1_677_640)));
    }

    #[test]
    fn clean_link_transfers_byte_exact() {
        let (got, s, _r, _, _) = run_transfer(100_000, LinkSpec::fast(), 1);
        assert_eq!(got.len(), 100_000);
        assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
        assert_eq!(s.retransmits, 0);
        // Segment count ≈ ceil(100000/1448) = 70 data segments.
        assert_eq!(s.data_segments_out, 70);
    }

    #[test]
    fn delayed_acks_halve_ack_count() {
        let (_, _s, r, _, _) = run_transfer(100_000, LinkSpec::fast(), 2);
        // 70 data segments → about 35 immediate ACKs (every 2nd), plus
        // handshake/FIN control and stragglers. Well under 70.
        assert!(r.control_segments_out < 45, "ACKs: {}", r.control_segments_out);
        assert!(r.control_segments_out >= 35);
    }

    #[test]
    fn lossy_link_still_transfers_byte_exact() {
        let spec = LinkSpec::fast().with_faults(FaultProfile::loss(0.05));
        let (got, s, _r, _, _) = run_transfer(50_000, spec, 3);
        assert_eq!(got.len(), 50_000);
        assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
        assert!(s.retransmits > 0, "5% loss must trigger retransmission");
    }

    #[test]
    fn corrupting_link_still_transfers_byte_exact() {
        let spec = LinkSpec::fast().with_faults(FaultProfile { corrupt: 0.05, ..FaultProfile::NONE });
        let (got, _s, _r, _, _) = run_transfer(30_000, spec, 4);
        assert_eq!(got.len(), 30_000);
        assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
    }

    #[test]
    fn duplicating_link_still_transfers_byte_exact() {
        let spec = LinkSpec::fast().with_faults(FaultProfile { duplicate: 0.2, ..FaultProfile::NONE });
        let (got, _s, _r, _, _) = run_transfer(30_000, spec, 5);
        assert_eq!(got.len(), 30_000);
        assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
    }

    #[test]
    fn many_senders_one_receiver() {
        let mut sim = Simulator::new(7);
        let mut senders = Vec::new();
        let receiver = sim.add_node(Box::new(SinkReceiverNode::new(0, 7777)));

        // A tiny star: everyone connected through a hub that floods; we
        // emulate a switch with direct links instead — each sender has its
        // own link to the receiver? SinkReceiver only has port 0. Use a
        // simple L2 switch from the dataplane crate... to keep this crate
        // decoupled, chain: sender -> receiver via dedicated receiver
        // ports is not possible (single port). So: single sender per test
        // is covered above; here run three transfers sequentially through
        // three distinct receivers.
        for i in 1..=3u32 {
            let data = vec![i as u8; 10_000];
            let rx = sim.add_node(Box::new(SinkReceiverNode::new(100 + i, 7777)));
            let tx = sim.add_node(Box::new(BulkSenderNode::new(i, vec![(100 + i, 7777, data)])));
            sim.connect(tx, rx, LinkSpec::fast());
            senders.push((tx, rx, i));
        }
        let _ = receiver;
        sim.run_until(daiet_netsim::SimTime(SimDuration::from_secs(10).as_nanos()));
        for (_tx, rx, i) in senders {
            let r = sim.node_ref::<SinkReceiverNode>(rx).unwrap();
            let got = r.received.values().next().cloned().unwrap_or_default();
            assert_eq!(got, vec![i as u8; 10_000]);
            assert_eq!(r.finished.len(), 1);
        }
    }

    #[test]
    fn small_message_counts_control_overhead() {
        let (got, s, r, rx_nic, _) = run_transfer(100, LinkSpec::fast(), 8);
        assert_eq!(got.len(), 100);
        // 1 data segment; handshake = SYN + ACK from sender; FIN.
        assert_eq!(s.data_segments_out, 1);
        assert!(s.control_segments_out >= 3); // SYN, ACK-of-SYNACK, FIN(+acks)
        assert!(r.control_segments_out >= 2); // SYN-ACK, ACKs/FIN
        // NIC-level frames observed at receiver = in + out.
        assert!(rx_nic.frames_observed() >= 7);
    }

    /// The TCP flags of a frame a stack emitted.
    fn flags_of(frame: &[u8]) -> Flags {
        match Parsed::dissect(frame).map(|p| p.transport) {
            Ok(Transport::Tcp { tcp, .. }) => tcp.flags,
            _ => panic!("a stack emitted a frame that is not TCP"),
        }
    }

    /// The FIN exchange loses its last segment: the sender ACKs the
    /// receiver's FIN, closes, and that ACK never arrives. The receiver
    /// retransmits its FIN one RTO later, and the closed sender must ACK
    /// it again — without that ACK the receiver retransmits until the
    /// run's horizon. Frames cross with no delay, so every instant below
    /// is a timer's.
    #[test]
    fn a_lost_ack_of_the_last_fin_costs_one_retransmission() {
        let (mut tx, mut rx) = (TcpStack::new(1), TcpStack::new(2));
        rx.listen(9000);
        let mut now = SimTime::ZERO;
        let key = tx.connect(now, 2, 9000);
        tx.send(key, &[7u8; 3000]);
        tx.close(key);
        let (mut rx_fin_at, mut dropped) = (None, 0);
        while !(tx.is_idle() && rx.is_idle()) {
            assert!(now < SimTime(SimDuration::from_secs(1).as_nanos()), "teardown wedged");
            let mut moved = false;
            for frame in tx.poll_transmit() {
                moved = true;
                if rx_fin_at.is_some() && dropped == 0 {
                    dropped += 1; // the ACK of the receiver's FIN
                    continue;
                }
                rx.on_frame(now, &frame);
            }
            while let Some(event) = rx.poll_event() {
                if let SocketEvent::PeerFin(k) = event {
                    // What `SinkReceiverNode` does; the FIN goes out on
                    // the stack's next pump.
                    rx.close(k);
                    rx.on_tick(now);
                }
            }
            for frame in rx.poll_transmit() {
                moved = true;
                if flags_of(&frame).contains(Flags::FIN) {
                    rx_fin_at.get_or_insert(now);
                }
                tx.on_frame(now, &frame);
            }
            while tx.poll_event().is_some() {}
            if !moved {
                now = [tx.next_deadline(), rx.next_deadline()]
                    .into_iter()
                    .flatten()
                    .min()
                    .expect("a stack that is not idle has a timer armed");
                tx.on_tick(now);
                rx.on_tick(now);
            }
        }
        let rx_fin_at = rx_fin_at.expect("the receiver sent its FIN");
        assert_eq!(dropped, 1);
        assert_eq!(now, rx_fin_at + RTO, "closed one RTO after the FIN");
        assert_eq!((rx.stats().timeouts, rx.stats().retransmits), (1, 1));
        assert_eq!(tx.stats().retransmits, 0);
    }

    /// An unanswered SYN is retransmitted at doubling gaps until a gap
    /// reaches `RTO_MAX`, and every `RTO_MAX` after that.
    #[test]
    fn retransmission_backoff_is_capped() {
        let mut tx = TcpStack::new(1);
        let mut now = SimTime::ZERO;
        tx.connect(now, 2, 9000);
        assert_eq!(tx.poll_transmit().len(), 1);
        let mut sent_at = vec![now];
        while sent_at.len() < 12 {
            now = tx.next_deadline().expect("the SYN's timer is armed");
            tx.on_tick(now);
            if !tx.poll_transmit().is_empty() {
                sent_at.push(now);
            }
        }
        let gaps_ms: Vec<u64> =
            sent_at.windows(2).map(|w| (w[1] - w[0]).as_nanos() / 1_000_000).collect();
        assert_eq!(gaps_ms, [1, 2, 4, 8, 16, 32, 64, 64, 64, 64, 64]);
        assert_eq!(RTO_MAX, SimDuration::from_millis(64));
    }

    #[test]
    fn stack_reports_idle_after_full_close() {
        let mut sim = Simulator::new(9);
        let sender = sim.add_node(Box::new(BulkSenderNode::new(1, vec![(2, 9000, vec![7u8; 5000])])));
        let receiver = sim.add_node(Box::new(SinkReceiverNode::new(2, 9000)));
        sim.connect(sender, receiver, LinkSpec::fast());
        sim.run_until(daiet_netsim::SimTime(SimDuration::from_secs(5).as_nanos()));
        let s = sim.node_ref::<BulkSenderNode>(sender).unwrap();
        assert!(s.stack().is_idle(), "sender not idle after close");
    }
}
