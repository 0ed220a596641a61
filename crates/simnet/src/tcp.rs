//! Simplified TCP: connection and endpoint state.
//!
//! The transport is a go-back-N reliable byte stream with a fixed
//! in-flight window, cumulative acks, coarse retransmission timeouts, and
//! the connection-lifecycle states that matter to the paper's benchmark:
//! the three-way handshake (with listener backlog and SYN drop under
//! overload), FIN teardown, abortive RST, and a 60-second TIME_WAIT that
//! pins the closing side's port.
//!
//! What is deliberately *not* modelled: congestion control dynamics
//! (the window is fixed), selective acknowledgement, and receiver-side
//! flow control (server applications in the benchmark always drain their
//! buffers; inactive connections never send). None of these influence the
//! event-notification costs the paper measures.

use simcore::time::{SimDuration, SimTime};

use crate::addr::{HostId, ListenerId, Port, Side};
use crate::bytes::ByteQueue;

/// Upper bound on the (exponentially backed-off) RTO.
pub const RTO_MAX: SimDuration = SimDuration::from_secs(30);
/// Retransmission timeout for SYN.
pub const SYN_RTO: SimDuration = SimDuration::from_secs(3);
/// SYN retransmissions before the connect fails.
pub const SYN_RETRIES: u32 = 4;

/// Transport configuration shared by every connection.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum unacknowledged bytes in flight, in segments of
    /// [`DEFAULT_MSS`](crate::seg::DEFAULT_MSS).
    pub window_segments: u32,
    /// Application send-buffer size in bytes.
    pub send_buf: usize,
    /// Initial retransmission timeout for data and FIN.
    pub rto_initial: SimDuration,
    /// Data/FIN retransmissions before the connection is reset.
    pub data_retries: u32,
    /// TIME_WAIT duration (60 s on the paper's Linux 2.2.14).
    pub time_wait: SimDuration,
    /// If `true`, a listener with a full backlog answers SYN with RST
    /// ("connection refused"); if `false` it drops the SYN silently and
    /// the client retries (stock Linux 2.2 behaviour).
    pub rst_on_backlog_full: bool,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            window_segments: 8,
            send_buf: 16 * 1024,
            rto_initial: SimDuration::from_millis(200),
            data_retries: 8,
            time_wait: SimDuration::from_secs(60),
            rst_on_backlog_full: false,
        }
    }
}

/// Why a `connect` attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    /// The client host has no free ephemeral ports (all in use or in
    /// TIME_WAIT) — the paper's 60000-socket limitation.
    PortsExhausted,
    /// SYN (re)transmissions were exhausted without an answer.
    Timeout,
    /// The server answered with RST.
    Refused,
}

/// Overall connection lifecycle phase.
///
/// Handshake progress on the server side is tracked separately (whether
/// the SYN was seen, whether the connection was promoted to the accept
/// queue); `state` flips to `Established` when the *client* completes the
/// handshake, which gates data flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Client sent SYN, awaiting SYN-ACK.
    SynSent,
    /// Both directions open (possibly half-closed during teardown).
    Established,
    /// Fully closed (both FINs delivered and acknowledged).
    Closed,
    /// Torn down by RST or retry exhaustion.
    Reset,
}

/// Sentinel for "no FIN sequence recorded" in the packed
/// [`Endpoint::fin_at`]/[`Endpoint::peer_fin`] fields. Stream sequence
/// numbers never reach 2^64, so the sentinel is unambiguous.
const NO_SEQ: u64 = u64::MAX;

/// One directional half of a connection's state.
///
/// Per-connection memory is the scaling bottleneck at 10^6 inactive
/// connections, so this struct is bit-packed: the four lifecycle
/// booleans share one flags byte, retransmission counts are a byte
/// (retry limits are single digits), and the optional FIN sequences use
/// a `u64::MAX` sentinel instead of `Option<u64>`'s padded 16 bytes.
// #[hot_struct]: two per connection, a million connections deep
#[derive(Debug, Clone)]
pub struct Endpoint {
    /// Outgoing stream bytes not yet trimmed; front is at `out_base`.
    pub(crate) out: ByteQueue,
    /// Incoming stream delivered in order and not yet read.
    pub(crate) inbox: ByteQueue,
    /// Sequence number of `out.front()`.
    pub(crate) out_base: u64,
    /// Total bytes accepted from the application.
    pub(crate) wrote: u64,
    /// Next sequence number to transmit.
    pub(crate) snd_nxt: u64,
    /// Oldest unacknowledged sequence number.
    pub(crate) snd_una: u64,
    /// Next sequence number expected from the peer.
    pub(crate) rcv_nxt: u64,
    /// Sequence of our FIN once `close` was called (== `wrote` at
    /// close); [`NO_SEQ`] until then.
    fin_at_raw: u64,
    /// Sequence of the peer's FIN once received in order; [`NO_SEQ`]
    /// until then.
    peer_fin_raw: u64,
    /// Timestamp of the last forward progress (for RTO age checks).
    pub(crate) last_progress: SimTime,
    /// Consecutive retransmissions without progress (bounded by
    /// [`TcpConfig::data_retries`], single digits).
    pub(crate) retries: u8,
    /// Packed lifecycle booleans (`EP_*` bits).
    flags: u8,
}

/// [`Endpoint::flags`]: the FIN has been transmitted at least once.
const EP_FIN_SENT: u8 = 1 << 0;
/// [`Endpoint::flags`]: the FIN has been acknowledged.
const EP_FIN_ACKED: u8 = 1 << 1;
/// [`Endpoint::flags`]: an RTO timer event is outstanding.
const EP_RTO_ARMED: u8 = 1 << 2;
/// [`Endpoint::flags`]: the last `send` could not accept all bytes (so
/// a `Writable` notification fires when space frees).
const EP_BLOCKED_WRITER: u8 = 1 << 3;

impl Endpoint {
    pub(crate) fn new(now: SimTime) -> Endpoint {
        Endpoint {
            out: ByteQueue::new(),
            inbox: ByteQueue::new(),
            out_base: 0,
            wrote: 0,
            snd_nxt: 0,
            snd_una: 0,
            rcv_nxt: 0,
            fin_at_raw: NO_SEQ,
            peer_fin_raw: NO_SEQ,
            last_progress: now,
            retries: 0,
            flags: 0,
        }
    }

    pub(crate) fn fin_at(&self) -> Option<u64> {
        (self.fin_at_raw != NO_SEQ).then_some(self.fin_at_raw)
    }

    pub(crate) fn set_fin_at(&mut self, seq: u64) {
        debug_assert_ne!(seq, NO_SEQ);
        self.fin_at_raw = seq;
    }

    pub(crate) fn peer_fin(&self) -> Option<u64> {
        (self.peer_fin_raw != NO_SEQ).then_some(self.peer_fin_raw)
    }

    pub(crate) fn set_peer_fin(&mut self, seq: u64) {
        debug_assert_ne!(seq, NO_SEQ);
        self.peer_fin_raw = seq;
    }

    pub(crate) fn fin_sent(&self) -> bool {
        self.flags & EP_FIN_SENT != 0
    }

    pub(crate) fn fin_acked(&self) -> bool {
        self.flags & EP_FIN_ACKED != 0
    }

    pub(crate) fn rto_armed(&self) -> bool {
        self.flags & EP_RTO_ARMED != 0
    }

    pub(crate) fn blocked_writer(&self) -> bool {
        self.flags & EP_BLOCKED_WRITER != 0
    }

    pub(crate) fn set_fin_sent(&mut self, v: bool) {
        self.set_flag(EP_FIN_SENT, v);
    }

    pub(crate) fn set_fin_acked(&mut self, v: bool) {
        self.set_flag(EP_FIN_ACKED, v);
    }

    pub(crate) fn set_rto_armed(&mut self, v: bool) {
        self.set_flag(EP_RTO_ARMED, v);
    }

    pub(crate) fn set_blocked_writer(&mut self, v: bool) {
        self.set_flag(EP_BLOCKED_WRITER, v);
    }

    fn set_flag(&mut self, bit: u8, v: bool) {
        if v {
            self.flags |= bit;
        } else {
            self.flags &= !bit;
        }
    }

    /// Bytes in flight (sent, not yet acknowledged), including a FIN.
    pub(crate) fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Bytes the application may still write before the buffer is full.
    pub(crate) fn send_space(&self, cfg: &TcpConfig) -> usize {
        cfg.send_buf.saturating_sub(self.out_len())
    }

    /// Bytes in `out`: those written and not yet trimmed, known without
    /// walking its chunks.
    pub(crate) fn out_len(&self) -> usize {
        let n = (self.wrote - self.out_base) as usize;
        debug_assert_eq!(n, self.out.len(), "out holds [out_base, wrote)");
        n
    }

    /// Whether this half has finished sending (FIN acknowledged).
    pub(crate) fn send_done(&self) -> bool {
        self.fin_acked()
    }

    /// Whether this half has seen the peer's FIN.
    pub(crate) fn recv_done(&self) -> bool {
        self.peer_fin_raw != NO_SEQ
    }
}

/// A full connection: both halves plus routing metadata.
///
/// Lifecycle booleans are packed into one flags byte (`CONN_*` bits)
/// and the SYN counter is a byte; with the endpoint packing above, a
/// million-connection world carries connections, not padding.
// #[hot_struct]: one per connection
#[derive(Debug, Clone)]
pub struct Conn {
    /// Lifecycle phase.
    pub(crate) state: ConnState,
    /// SYN (re)transmissions so far (bounded by
    /// [`SYN_RETRIES`], single digits).
    pub(crate) syn_sent: u8,
    /// Packed lifecycle booleans (`CONN_*` bits).
    flags: u8,
    /// `[client port, server port]`.
    pub(crate) ports: [Port; 2],
    /// `[client host, server host]`.
    pub(crate) hosts: [HostId; 2],
    /// `[client endpoint, server endpoint]`.
    pub(crate) eps: [Endpoint; 2],
    /// Extra one-way latency for this connection's path (high-latency
    /// client simulation).
    pub(crate) extra_delay: SimDuration,
    /// The listener that spawned the server half.
    pub(crate) listener: Option<ListenerId>,
    /// When the server half entered the accept queue (meaningful only
    /// once `accept_queued` is set; feeds the accept-wait latency span).
    pub(crate) accept_queued_at: SimTime,
}

/// [`Conn::flags`]: the server half was pushed to the accept queue.
const CONN_ACCEPT_QUEUED: u8 = 1 << 0;
/// [`Conn::flags`]: the server half was accepted by the application.
const CONN_ACCEPTED: u8 = 1 << 1;
/// [`Conn::flags`]: ports already returned to their allocators (guards
/// double-free when an abort tombstone is later reaped by its own RST
/// delivery).
const CONN_PORTS_FREED: u8 = 1 << 2;
/// [`Conn::flags`]: some side has closed first (owns the TIME_WAIT).
const CONN_CLOSED_FIRST: u8 = 1 << 3;
/// [`Conn::flags`]: the first closer was the server side (meaningful
/// only with [`CONN_CLOSED_FIRST`]).
const CONN_CLOSED_FIRST_SERVER: u8 = 1 << 4;
/// [`Conn::flags`]: counted in its listener's half-open handshakes
/// (SYN answered, not yet on the accept queue or detached).
const CONN_SYN_RCVD: u8 = 1 << 5;

impl Conn {
    /// Creates a fresh `SynSent` connection (`[client, server]` order
    /// for `hosts` and `ports`).
    pub(crate) fn new(
        hosts: [HostId; 2],
        ports: [Port; 2],
        extra_delay: SimDuration,
        now: SimTime,
    ) -> Conn {
        Conn {
            state: ConnState::SynSent,
            syn_sent: 0,
            flags: 0,
            ports,
            hosts,
            eps: [Endpoint::new(now), Endpoint::new(now)],
            extra_delay,
            listener: None,
            accept_queued_at: SimTime::ZERO,
        }
    }

    pub(crate) fn accept_queued(&self) -> bool {
        self.flags & CONN_ACCEPT_QUEUED != 0
    }

    pub(crate) fn set_accept_queued(&mut self, v: bool) {
        self.set_flag(CONN_ACCEPT_QUEUED, v);
    }

    pub(crate) fn accepted(&self) -> bool {
        self.flags & CONN_ACCEPTED != 0
    }

    pub(crate) fn set_accepted(&mut self, v: bool) {
        self.set_flag(CONN_ACCEPTED, v);
    }

    pub(crate) fn syn_rcvd(&self) -> bool {
        self.flags & CONN_SYN_RCVD != 0
    }

    pub(crate) fn set_syn_rcvd(&mut self, v: bool) {
        self.set_flag(CONN_SYN_RCVD, v);
    }

    pub(crate) fn ports_freed(&self) -> bool {
        self.flags & CONN_PORTS_FREED != 0
    }

    pub(crate) fn set_ports_freed(&mut self, v: bool) {
        self.set_flag(CONN_PORTS_FREED, v);
    }

    /// Which side closed first (owns the TIME_WAIT), if any yet.
    pub(crate) fn closed_first(&self) -> Option<Side> {
        if self.flags & CONN_CLOSED_FIRST == 0 {
            None
        } else if self.flags & CONN_CLOSED_FIRST_SERVER != 0 {
            Some(Side::Server)
        } else {
            Some(Side::Client)
        }
    }

    pub(crate) fn set_closed_first(&mut self, side: Side) {
        self.flags |= CONN_CLOSED_FIRST;
        self.set_flag(CONN_CLOSED_FIRST_SERVER, side == Side::Server);
    }

    fn set_flag(&mut self, bit: u8, v: bool) {
        if v {
            self.flags |= bit;
        } else {
            self.flags &= !bit;
        }
    }

    pub(crate) fn ep(&self, side: Side) -> &Endpoint {
        &self.eps[side.index()]
    }

    pub(crate) fn ep_mut(&mut self, side: Side) -> &mut Endpoint {
        &mut self.eps[side.index()]
    }

    pub(crate) fn host(&self, side: Side) -> HostId {
        self.hosts[side.index()]
    }

    pub(crate) fn port(&self, side: Side) -> Port {
        self.ports[side.index()]
    }

    /// Both directions fully shut down?
    pub(crate) fn fully_closed(&self) -> bool {
        self.eps.iter().all(|e| e.send_done() && e.recv_done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_send_space_tracks_buffer() {
        let cfg = TcpConfig {
            send_buf: 10,
            ..TcpConfig::default()
        };
        let mut ep = Endpoint::new(SimTime::ZERO);
        let bytes = std::rc::Rc::new(vec![0u8; 10]);
        assert_eq!(ep.send_space(&cfg), 10);
        ep.out.extend_shared(&bytes, 0..4);
        ep.wrote += 4;
        assert_eq!(ep.send_space(&cfg), 6);
        ep.out.extend_shared(&bytes, 0..10);
        ep.wrote += 10;
        assert_eq!(ep.send_space(&cfg), 0);
    }

    #[test]
    fn connection_record_size_is_pinned() {
        // `Network::conn_mem_bytes` prices one `Option<Conn>` per arena
        // slot into the million lane's `mem.client_bytes` gauge, and that
        // gauge feeds the probe digests: a wider stream buffer or a new
        // field moves every million-lane figure.
        assert_eq!(std::mem::size_of::<Option<Conn>>(), 320);
    }

    #[test]
    fn endpoint_in_flight() {
        let mut ep = Endpoint::new(SimTime::ZERO);
        ep.snd_nxt = 100;
        ep.snd_una = 40;
        assert_eq!(ep.in_flight(), 60);
    }

    #[test]
    fn default_config_matches_paper_environment() {
        let cfg = TcpConfig::default();
        assert_eq!(cfg.time_wait, SimDuration::from_secs(60));
        assert_eq!(crate::seg::DEFAULT_MSS, 1460);
        assert!(!cfg.rst_on_backlog_full, "Linux 2.2 drops SYNs");
    }
}
