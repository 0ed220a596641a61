//! The network: hosts, links, listeners and connections, driven by an
//! internal lane timer queue.
//!
//! # Driving the network
//!
//! [`Network`] is a passive state machine. The orchestrator (the test
//! harness or the benchmark driver) repeatedly asks for
//! [`Network::next_deadline`], advances its global clock, and calls
//! [`Network::advance`], which fires due timers and returns the batch of
//! [`NetNotify`] notifications produced since the last call. Mutating
//! calls (connect/send/close/…) only arm timers, and TIME_WAIT ends are
//! timers too, so every notification comes out of `advance` and, once it
//! returns, all pending work is in the timer queue that `next_deadline`
//! reads.

use std::collections::VecDeque;
use std::rc::Rc;

use simcore::paged::PagedSlots;
use simcore::probe::Metric;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use simcore::timer::{Lane, TimerQueue};

use crate::addr::{ConnId, EndpointId, HostId, ListenerId, Port, Side, SockAddr};
use crate::link::{LinkConfig, Tx, TxOutcome};
use crate::ports::PortAllocator;
use crate::seg::{SegKind, Segment, DEFAULT_MSS};
use crate::tcp::{Conn, ConnState, ConnectError, TcpConfig, RTO_MAX, SYN_RETRIES, SYN_RTO};

/// Notifications surfaced to the layer above (socket layers, clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetNotify {
    /// A segment arrived at `host` — interrupt/softirq load accounting.
    SegmentArrived {
        /// Receiving host.
        host: HostId,
        /// Size on the wire, headers included.
        wire_bytes: u32,
    },
    /// A `connect` completed; the client endpoint is usable.
    ConnectDone {
        /// The client half.
        ep: EndpointId,
    },
    /// A `connect` failed.
    ConnectFailed {
        /// The connection that failed.
        conn: ConnId,
        /// The connecting host.
        host: HostId,
        /// Why.
        reason: ConnectError,
    },
    /// A listener's accept queue went non-empty (or grew).
    AcceptReady {
        /// The listener.
        listener: ListenerId,
    },
    /// In-order data arrived; `recv` will return more bytes.
    Readable {
        /// The receiving endpoint.
        ep: EndpointId,
    },
    /// Send-buffer space became available after being exhausted.
    Writable {
        /// The sending endpoint.
        ep: EndpointId,
    },
    /// The peer's FIN arrived in order (read side is at EOF after
    /// draining).
    PeerClosed {
        /// The endpoint observing EOF.
        ep: EndpointId,
    },
    /// The connection was reset (RST received or retries exhausted).
    ConnReset {
        /// The endpoint observing the reset.
        ep: EndpointId,
    },
    /// The connection closed cleanly in both directions.
    ConnClosed {
        /// The endpoint observing the close.
        ep: EndpointId,
    },
    /// A SYN was dropped (or refused) because the backlog was full.
    SynDropped {
        /// The overloaded listener.
        listener: ListenerId,
    },
}

/// Errors from endpoint I/O calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// Unknown or already-freed connection/endpoint.
    Gone,
    /// The operation conflicts with the endpoint state (e.g. `send` after
    /// `close`).
    BadState,
    /// The address is already bound.
    AddrInUse,
}

/// The extra one-way delay of a modem-class connection, the one
/// non-zero extra delay whose deliveries get FIFO lanes of their own.
pub const MODEM_DELAY: SimDuration = SimDuration::from_millis(150);

/// FIFO lane of SYN RTOs, all armed at `now + SYN_RTO`.
const SYN_RTO_LANE: usize = 0;
/// FIFO lane of first data RTOs, all armed at `now + rto_initial`.
const DATA_RTO_LANE: usize = 1;
/// FIFO lane of TIME_WAIT ends, all armed at `now + time_wait`.
const TIME_WAIT_LANE: usize = 2;
/// Lanes below this are RTO and TIME_WAIT lanes; host `h`'s deliveries
/// use `DELIVERY_LANES + 2h` (no extra delay) and the lane after it
/// ([`MODEM_DELAY`]).
const DELIVERY_LANES: usize = 3;

/// What a network timer does when it fires; `TimeWaitEnd` frees a
/// client port whose TIME_WAIT is over. The timer queue's lane entries
/// hold it inline.
#[derive(Debug, Clone)]
enum Timer {
    Deliver(Segment),
    Rto { conn: ConnId, side: Side },
    TimeWaitEnd { host: HostId, port: Port },
}

// Every armed timer carries one inline.
const _: () = assert!(std::mem::size_of::<Timer>() == 24);

/// A live connection resolved to its arena slot: the one `id → slot`
/// lookup a delivered segment, a fired timer or an API call makes.
/// Not `Copy`: the handlers that may free the slot (`conn_remove`) take
/// it by value, so no code can reach the slot after freeing it.
#[derive(Debug)]
struct Resolved {
    id: ConnId,
    slot: u32,
}

#[derive(Debug, Clone)]
struct Host {
    tx: Tx,
    ports: PortAllocator,
}

#[derive(Debug, Clone)]
struct Listener {
    /// The bound address (listeners are few, so lookup is a scan).
    addr: SockAddr,
    backlog: usize,
    /// Handshakes in progress: connections whose `syn_rcvd` flag is
    /// set (the fingerprint checks the count against them).
    syn_rcvd: usize,
    /// Established, waiting for `accept`.
    accept_q: VecDeque<ConnId>,
    /// SYNs dropped or refused for backlog overflow.
    refused: u64,
}

/// Aggregate statistics, mostly for tests and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections created (SYN sent).
    pub conns_started: u64,
    /// Connections that completed the handshake.
    pub conns_established: u64,
    /// Connections that ended in RST or retry exhaustion.
    pub conns_reset: u64,
    /// Connections that closed cleanly.
    pub conns_closed: u64,
    /// Data segments retransmitted.
    pub retransmits: u64,
    /// SYNs dropped at a full backlog.
    pub syn_drops: u64,
    /// Segments dropped by injected random loss.
    pub injected_losses: u64,
    /// `connect` attempts refused locally because the client host had no
    /// free ephemeral port (the paper's 60000-socket limitation, modeled
    /// as a first-class failure mode).
    pub ports_exhausted: u64,
}

impl NetStats {
    /// Folds these counters into a probe registry under `tcp.*` names
    /// (called once at report time).
    pub fn fold_into(&self, probe: &mut simcore::probe::MetricRegistry) {
        probe.add(Metric::TcpConnsStarted, self.conns_started);
        probe.add(Metric::TcpConnsEstablished, self.conns_established);
        probe.add(Metric::TcpConnsReset, self.conns_reset);
        probe.add(Metric::TcpConnsClosed, self.conns_closed);
        probe.add(Metric::TcpRetransmits, self.retransmits);
        probe.add(Metric::TcpSynDrops, self.syn_drops);
        probe.add(Metric::TcpInjectedLosses, self.injected_losses);
        // Gated: absent from runs that never hit the port ceiling, so the
        // probe snapshot of pre-existing configurations is unchanged.
        if self.ports_exhausted > 0 {
            probe.add(Metric::TcpPortsExhausted, self.ports_exhausted);
        }
    }
}

/// The simulated network fabric connecting all hosts through one switch.
#[derive(Clone)]
pub struct Network {
    cfg: TcpConfig,
    base_delay: SimDuration,
    loss_prob: f64,
    rng: SimRng,
    hosts: Vec<Host>,
    /// Connection storage: ids stay unique forever (they participate in
    /// deterministic orderings), but the heavyweight state lives in a
    /// slab arena whose slots are recycled as connections die. The
    /// id → slot map is paged (sparse): long runs whose live window of
    /// ids marches upward only pay for the pages that window touches,
    /// not for every id ever issued.
    conn_slot: PagedSlots<u32>,
    conn_arena: Vec<Option<Conn>>,
    conn_free: Vec<u32>,
    next_conn: u32,
    /// Dense, id-indexed (listeners are never removed).
    listeners: Vec<Listener>,
    /// Armed timers in firing order, each carrying what it does (a
    /// segment in flight is a lane entry, not a separate allocation).
    /// Every timer class armed in firing order has a FIFO lane: the
    /// deliveries of each (source host, extra delay 0 or
    /// [`MODEM_DELAY`]) pair, the SYN RTO and the first data RTO.
    /// Backoffs, rearms, RSTs and other extra delays wait in the
    /// fallback heap. The lane decides only what a push and a pop
    /// cost: the firing order is `(at, arming order)` whatever the lane.
    timers: TimerQueue<Timer>,
    out: Vec<NetNotify>,
    /// Scratch for `pump` (reused, no per-call allocation).
    pump_scratch: Vec<SegKind>,
    stats: NetStats,
}

impl Network {
    /// Creates a network of `n_hosts` hosts, all sharing the same link
    /// configuration, attached to one switch.
    pub fn new(cfg: TcpConfig, link: LinkConfig, n_hosts: usize) -> Network {
        Network {
            cfg,
            base_delay: link.base_delay,
            loss_prob: link.loss_prob.clamp(0.0, 1.0),
            rng: SimRng::new(0x5EED_1055),
            hosts: (0..n_hosts)
                .map(|_| Host {
                    tx: Tx::new(link),
                    ports: PortAllocator::ephemeral(),
                })
                .collect(),
            conn_slot: PagedSlots::new(),
            conn_arena: Vec::new(),
            conn_free: Vec::new(),
            next_conn: 0,
            listeners: Vec::new(),
            timers: TimerQueue::new(),
            out: Vec::new(),
            pump_scratch: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// Returns the transport configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Returns aggregate statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Folds the network's full semantic state into one FNV digest for
    /// world deduplication in `simcheck explore`.
    ///
    /// Included: per-host transmitters and port allocators, every live
    /// connection (lifecycle state, both endpoint halves including
    /// buffered bytes and FIN/ack positions), listeners, armed timers,
    /// and undelivered notifications. Excluded: aggregate counters
    /// ([`NetStats`]) and the loss RNG (never
    /// advanced at `loss_prob == 0`, the only configuration explored),
    /// so semantically equal worlds that differ only in diagnostics
    /// hash alike. Inbox bytes are hashed as one stream: where the
    /// chunk boundaries fall does not change the digest.
    pub fn state_fingerprint(&self) -> u64 {
        use simcore::fingerprint::Fnv;
        let mut h = Fnv::new();
        let seg_into = |h: &mut Fnv, s: &Segment| {
            h.write_u64(u64::from(s.conn.0));
            h.write_bool(s.from == Side::Server);
            match s.kind {
                SegKind::Syn => h.write_u8(0),
                SegKind::SynAck => h.write_u8(1),
                SegKind::Ack { ack } => {
                    h.write_u8(2);
                    h.write_u64(ack);
                }
                SegKind::Data { seq, len } => {
                    h.write_u8(3);
                    h.write_u64(seq);
                    h.write_u64(u64::from(len));
                }
                SegKind::Fin { seq } => {
                    h.write_u8(4);
                    h.write_u64(seq);
                }
                SegKind::Rst => h.write_u8(5),
            }
        };
        h.write_len(self.hosts.len());
        for host in &self.hosts {
            host.tx.fingerprint_into(&mut h);
            host.ports.fingerprint_into(&mut h);
        }
        h.write_u64(u64::from(self.next_conn));
        h.write_len(self.conn_arena.iter().filter(|s| s.is_some()).count());
        for (slot, conn) in self.conn_arena.iter().enumerate() {
            let Some(c) = conn else { continue };
            h.write_usize(slot);
            h.write_u8(match c.state {
                ConnState::SynSent => 0,
                ConnState::Established => 1,
                ConnState::Closed => 2,
                ConnState::Reset => 3,
            });
            for side in [Side::Client, Side::Server] {
                h.write_usize(c.host(side).0);
                h.write_u64(u64::from(c.port(side)));
                let ep = c.ep(side);
                h.write_len(ep.out.len());
                h.write_u64(ep.out_base);
                h.write_u64(ep.wrote);
                h.write_u64(ep.snd_nxt);
                h.write_u64(ep.snd_una);
                h.write_u64(ep.fin_at().map_or(u64::MAX, |s| s));
                h.write_bool(ep.fin_sent());
                h.write_bool(ep.fin_acked());
                h.write_len(ep.inbox.len());
                for bytes in ep.inbox.chunks() {
                    h.write_bytes(bytes);
                }
                h.write_u64(ep.rcv_nxt);
                h.write_u64(ep.peer_fin().map_or(u64::MAX, |s| s));
                h.write_u32(u32::from(ep.retries));
                h.write_bool(ep.rto_armed());
                h.write_bool(ep.blocked_writer());
            }
            h.write_u64(c.listener.map_or(u64::MAX, |l| u64::from(l.0)));
            h.write_u32(u32::from(c.syn_sent));
            h.write_u8(match c.closed_first() {
                None => 0,
                Some(Side::Client) => 1,
                Some(Side::Server) => 2,
            });
            h.write_bool(c.accept_queued());
            h.write_bool(c.syn_rcvd());
            h.write_bool(c.accepted());
            h.write_bool(c.ports_freed());
        }
        h.write_len(self.listeners.len());
        for (ix, l) in self.listeners.iter().enumerate() {
            debug_assert_eq!(
                l.syn_rcvd,
                self.conn_arena
                    .iter()
                    .flatten()
                    .filter(|c| c.syn_rcvd() && c.listener == Some(ListenerId(ix as u32)))
                    .count(),
                "listener {ix}: half-open count disagrees with its connections"
            );
            h.write_usize(l.backlog);
            h.write_len(l.syn_rcvd);
            h.write_len(l.accept_q.len());
            for c in &l.accept_q {
                h.write_u64(u64::from(c.0));
            }
        }
        h.write_len(self.timers.len());
        for (at, seq, timer) in self.timers.in_order() {
            h.write_u64(at.as_nanos());
            h.write_u64(seq);
            match timer {
                Timer::Deliver(s) => {
                    h.write_u8(1);
                    seg_into(&mut h, s);
                }
                Timer::Rto { conn, side } => {
                    h.write_u8(2);
                    h.write_u64(u64::from(conn.0));
                    h.write_bool(*side == Side::Server);
                }
                Timer::TimeWaitEnd { host, port } => {
                    h.write_u8(3);
                    h.write_usize(host.0);
                    h.write_u64(u64::from(*port));
                }
            }
        }
        h.write_len(self.out.len());
        h.finish()
    }

    /// Segments dropped on `host`'s egress queue.
    pub fn host_tx_drops(&self, host: HostId) -> u64 {
        self.hosts[host.0].tx.drops()
    }

    /// Ports currently in TIME_WAIT on `host`.
    pub fn time_wait_count(&self, host: HostId) -> usize {
        self.hosts[host.0].ports.in_time_wait()
    }

    // ------------------------------------------------------------------
    // Connection storage.
    // ------------------------------------------------------------------

    /// Looks `id` up in the id → slot map: `None` once the connection
    /// is gone.
    fn resolve(&self, id: ConnId) -> Option<Resolved> {
        let &slot = self.conn_slot.get(id.0 as usize)?;
        Some(Resolved { id, slot })
    }

    fn conn(&self, id: ConnId) -> Option<&Conn> {
        let c = self.resolve(id)?;
        Some(self.conn_at(&c))
    }

    fn conn_mut(&mut self, id: ConnId) -> Option<&mut Conn> {
        let c = self.resolve(id)?;
        Some(self.conn_at_mut(&c))
    }

    /// The connection in a resolved slot.
    fn conn_at(&self, c: &Resolved) -> &Conn {
        self.debug_check_slot(c);
        self.conn_arena[c.slot as usize]
            .as_ref()
            .expect("invariant: a resolved slot holds its connection")
    }

    fn conn_at_mut(&mut self, c: &Resolved) -> &mut Conn {
        self.debug_check_slot(c);
        self.conn_arena[c.slot as usize]
            .as_mut()
            .expect("invariant: a resolved slot holds its connection")
    }

    /// Debug builds: the slot still holds the connection its caller
    /// resolved (it was not freed and handed to another).
    fn debug_check_slot(&self, c: &Resolved) {
        debug_assert_eq!(
            self.conn_slot.get(c.id.0 as usize),
            Some(&c.slot),
            "connection {:?} no longer in slot {}",
            c.id,
            c.slot
        );
    }

    fn conn_insert(&mut self, id: ConnId, conn: Conn) -> Resolved {
        let slot = match self.conn_free.pop() {
            Some(s) => {
                self.conn_arena[s as usize] = Some(conn);
                s
            }
            None => {
                self.conn_arena.push(Some(conn));
                (self.conn_arena.len() - 1) as u32
            }
        };
        self.conn_slot.insert(id.0 as usize, slot);
        Resolved { id, slot }
    }

    /// Frees the connection's slot, dropping its stream buffers'
    /// references.
    fn conn_remove(&mut self, c: Resolved) {
        let freed = self.conn_slot.take(c.id.0 as usize);
        debug_assert_eq!(freed, Some(c.slot), "connection {:?} freed twice", c.id);
        self.conn_arena[c.slot as usize] = None;
        self.conn_free.push(c.slot);
    }

    /// Heap bytes held by the connection machinery (id map pages, the
    /// slab arena, free lists) — the network side of the
    /// bytes-per-connection lane. Stream buffers are excluded: inactive
    /// connections hold none, and active ones hold references to bytes
    /// their writers own.
    pub fn conn_mem_bytes(&self) -> usize {
        self.conn_slot.heap_bytes()
            + self.conn_arena.capacity() * std::mem::size_of::<Option<Conn>>()
            + self.conn_free.capacity() * std::mem::size_of::<u32>()
    }

    // ------------------------------------------------------------------
    // Timers.
    // ------------------------------------------------------------------

    /// The lane of a delivery that left `host`'s transmitter: the
    /// transmitter finishes segments in strictly increasing order, so
    /// with one extra delay their arrivals are armed in firing order.
    fn delivery_lane(host: HostId, extra: SimDuration) -> Lane {
        let first = DELIVERY_LANES + 2 * host.0;
        if extra == SimDuration::ZERO {
            Lane::Fifo(first)
        } else if extra == MODEM_DELAY {
            Lane::Fifo(first + 1)
        } else {
            Lane::Fallback
        }
    }

    /// How many timers named a FIFO lane but were armed earlier than
    /// its tail and waited in the fallback heap (0 while every lane
    /// class is armed in firing order).
    #[doc(hidden)]
    pub fn timer_lane_misses(&self) -> u64 {
        self.timers.lane_misses()
    }

    /// Earliest pending work, if any: the head of the timer queue,
    /// TIME_WAIT ends included.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.next_at()
    }

    /// O(1): whether `advance_into(now, …)` would do anything, that is,
    /// whether a timer is due (notifications are made only while timers
    /// fire). Lets the driving loop skip an empty advance pass.
    pub fn has_work_at(&self, now: SimTime) -> bool {
        self.timers.next_at().is_some_and(|t| t <= now)
    }

    /// Fires all timers due at or before `now` and returns the
    /// notifications accumulated since the previous call.
    ///
    /// Convenience wrapper over [`Network::advance_into`] that allocates
    /// a fresh vector per call; hot callers should hold a scratch buffer
    /// and use `advance_into` directly.
    pub fn advance(&mut self, now: SimTime) -> Vec<NetNotify> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Fires all timers due at or before `now` and appends the
    /// notifications accumulated since the previous call to `out` (which
    /// is *not* cleared — the caller owns the buffer).
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetNotify>) {
        while let Some((t, timer)) = self.timers.pop(now) {
            match timer {
                Timer::Deliver(seg) => self.deliver(t, seg),
                Timer::Rto { conn, side } => {
                    // A connection already gone has nothing to time out.
                    if let Some(c) = self.resolve(conn) {
                        self.rto_fire(t, c, side);
                    }
                }
                Timer::TimeWaitEnd { host, port } => self.hosts[host.0].ports.end_time_wait(port),
            }
        }
        // An empty caller buffer takes the staged batch whole (the
        // vectors trade storage), so no element is copied.
        if out.is_empty() {
            std::mem::swap(out, &mut self.out);
        } else {
            out.append(&mut self.out);
        }
    }

    // ------------------------------------------------------------------
    // Listener API.
    // ------------------------------------------------------------------

    /// Opens a listening socket on `host:port` with the given backlog.
    pub fn listen(
        &mut self,
        host: HostId,
        port: Port,
        backlog: usize,
    ) -> Result<ListenerId, NetError> {
        // A listener's port stays bound in its host's allocator for
        // good, so this also refuses a second listener on `addr`.
        if !self.hosts[host.0].ports.bind(port) {
            return Err(NetError::AddrInUse);
        }
        let id = ListenerId(self.listeners.len() as u32);
        self.listeners.push(Listener {
            addr: SockAddr::new(host, port),
            backlog,
            syn_rcvd: 0,
            accept_q: VecDeque::new(),
            refused: 0,
        });
        Ok(id)
    }

    /// The listener bound to `addr`, if any.
    fn listener_at(&self, addr: SockAddr) -> Option<ListenerId> {
        let ix = self.listeners.iter().position(|l| l.addr == addr)?;
        Some(ListenerId(ix as u32))
    }

    /// Pops one established connection off the accept queue.
    pub fn accept(&mut self, listener: ListenerId) -> Option<EndpointId> {
        let l = self.listeners.get_mut(listener.0 as usize)?;
        let conn = l.accept_q.pop_front()?;
        if let Some(c) = self.conn_mut(conn) {
            c.set_accepted(true);
        }
        Some(EndpointId::new(conn, Side::Server))
    }

    /// When this endpoint's connection entered the accept queue
    /// (`None` until the three-way handshake queued it). Still valid
    /// after [`Network::accept`] pops it — the accept-wait latency span
    /// reads it from the just-accepted endpoint.
    pub fn accept_queued_at(&self, ep: EndpointId) -> Option<SimTime> {
        let c = self.conn(ep.conn)?;
        if c.accept_queued() {
            Some(c.accept_queued_at)
        } else {
            None
        }
    }

    /// Number of connections waiting in the accept queue.
    pub fn accept_queue_len(&self, listener: ListenerId) -> usize {
        self.listeners
            .get(listener.0 as usize)
            .map_or(0, |l| l.accept_q.len())
    }

    /// SYNs this listener refused because its backlog was full.
    pub fn refused_count(&self, listener: ListenerId) -> u64 {
        self.listeners
            .get(listener.0 as usize)
            .map_or(0, |l| l.refused)
    }

    // ------------------------------------------------------------------
    // Connection API.
    // ------------------------------------------------------------------

    /// Starts a connection from `host` to `remote`.
    ///
    /// `extra_delay` is added one-way to every segment of this
    /// connection, modelling a high-latency (modem-class) client.
    pub fn connect(
        &mut self,
        now: SimTime,
        host: HostId,
        remote: SockAddr,
        extra_delay: SimDuration,
    ) -> Result<ConnId, ConnectError> {
        let Some(port) = self.hosts[host.0].ports.alloc() else {
            self.stats.ports_exhausted += 1;
            return Err(ConnectError::PortsExhausted);
        };
        let id = ConnId(self.next_conn);
        // Checked: id exhaustion is a loud failure, never a silent wrap
        // onto a live handle.
        self.next_conn = self
            .next_conn
            .checked_add(1)
            .expect("invariant: connection id space (2^32) never exhausted in one run");
        let conn = Conn::new([host, remote.host], [port, remote.port], extra_delay, now);
        let c = self.conn_insert(id, conn);
        self.stats.conns_started += 1;
        self.transmit(now, &c, Side::Client, SegKind::Syn);
        let conn = self.conn_at_mut(&c);
        conn.syn_sent = 1;
        // The SYN timer doubles as the client's data-RTO timer once the
        // handshake completes, so mark it armed to avoid a duplicate
        // from `pump`.
        conn.ep_mut(Side::Client).set_rto_armed(true);
        self.timers.push(
            Lane::Fifo(SYN_RTO_LANE),
            now + SYN_RTO,
            Timer::Rto {
                conn: id,
                side: Side::Client,
            },
        );
        Ok(id)
    }

    /// Test hook: repositions the connection-id counter (e.g. near
    /// `u32::MAX`) so tests can exercise high-id handle paths — the
    /// paged id → slot map must serve sparse, huge indices without
    /// densifying.
    #[doc(hidden)]
    pub fn set_next_conn_id(&mut self, next: u32) {
        self.next_conn = next;
    }

    /// Test hook: narrows `host`'s ephemeral range to `[lo, hi)` before
    /// it binds anything, so a short run wraps the range and reuses
    /// ports that have left TIME_WAIT.
    #[doc(hidden)]
    pub fn set_ephemeral_range(&mut self, host: HostId, lo: Port, hi: Port) {
        self.hosts[host.0].ports = PortAllocator::new(lo, hi);
    }

    /// Writes a copy of `data` into the endpoint's send buffer: the
    /// convenience form of [`Network::send_shared`] for callers whose
    /// bytes are not shared already.
    pub fn send(&mut self, now: SimTime, ep: EndpointId, data: &[u8]) -> Result<usize, NetError> {
        self.send_shared(now, ep, &Rc::new(data.to_vec()), 0)
    }

    /// Writes `data[from..]` into the endpoint's send buffer by
    /// reference: the buffer holds a share of `data`, not a copy, until
    /// the peer acknowledges the bytes. `data` must not change while
    /// shared (an `Rc` owner never mutates it in place), and `from`
    /// must not exceed its length.
    ///
    /// Returns how many bytes were accepted (may be less than offered when
    /// the buffer fills; a [`NetNotify::Writable`] will follow once space
    /// frees).
    pub fn send_shared(
        &mut self,
        now: SimTime,
        ep: EndpointId,
        data: &Rc<Vec<u8>>,
        from: usize,
    ) -> Result<usize, NetError> {
        let offered = data.len().saturating_sub(from);
        let c = self.resolve(ep.conn).ok_or(NetError::Gone)?;
        let accepted = {
            let cfg = self.cfg;
            let conn = self.conn_at_mut(&c);
            if conn.state == ConnState::Reset || conn.state == ConnState::Closed {
                return Err(NetError::BadState);
            }
            let e = conn.ep_mut(ep.side);
            if e.fin_at().is_some() {
                return Err(NetError::BadState);
            }
            let n = e.send_space(&cfg).min(offered);
            e.out.extend_shared(data, from..from + n);
            e.wrote += n as u64;
            if n < offered {
                e.set_blocked_writer(true);
            }
            n
        };
        if accepted > 0 {
            self.pump(now, &c, ep.side);
        }
        Ok(accepted)
    }

    /// Reads up to `max` bytes of in-order data.
    pub fn recv(&mut self, ep: EndpointId, max: usize) -> Result<Vec<u8>, NetError> {
        let mut buf = Vec::new();
        self.recv_into(ep, max, &mut buf)?;
        Ok(buf)
    }

    /// Reads up to `max` bytes of in-order data, appending them to `buf`.
    ///
    /// The allocation-free sibling of [`Network::recv`]: servers read
    /// straight into their per-connection request buffers instead of
    /// routing every chunk through a fresh `Vec`.
    pub fn recv_into(
        &mut self,
        ep: EndpointId,
        max: usize,
        buf: &mut Vec<u8>,
    ) -> Result<usize, NetError> {
        let conn = self.conn_mut(ep.conn).ok_or(NetError::Gone)?;
        let e = conn.ep_mut(ep.side);
        let n = e.inbox.len().min(max);
        e.inbox.copy_into(n, buf);
        e.inbox.consume(n);
        Ok(n)
    }

    /// Reads and discards up to `max` bytes of in-order data, returning
    /// only a summary — the byte count and the first bytes of the chunk.
    /// This is the hot-path sibling of [`Network::recv`] for callers
    /// (e.g. load generators) that never look past a response prefix;
    /// counting, copying the prefix and dropping are one walk.
    pub fn recv_discard(&mut self, ep: EndpointId, max: usize) -> Result<RecvSummary, NetError> {
        let conn = self.conn_mut(ep.conn).ok_or(NetError::Gone)?;
        let mut prefix = [0u8; RECV_PREFIX];
        let (n, prefix_len) = conn.ep_mut(ep.side).inbox.drain_front(max, &mut prefix);
        Ok(RecvSummary {
            len: n,
            prefix,
            prefix_len,
        })
    }

    /// Everything a socket's readiness is computed from, read with one
    /// lookup of the connection: readable bytes, the peer's close, send
    /// space, and whether the connection exists (as
    /// [`Network::exists`]).
    pub fn endpoint_state(&self, ep: EndpointId) -> EndpointState {
        let Some(c) = self.conn(ep.conn) else {
            return EndpointState::default();
        };
        let e = c.ep(ep.side);
        EndpointState {
            readable_bytes: e.inbox.len(),
            peer_closed: e.recv_done(),
            send_space: e.send_space(&self.cfg),
            exists: c.state != ConnState::Reset,
        }
    }

    /// Whether the connection is established and not reset.
    pub fn is_established(&self, conn: ConnId) -> bool {
        self.conn(conn)
            .is_some_and(|c| c.state == ConnState::Established)
    }

    /// Whether the connection still exists (reset tombstones awaiting
    /// their RST delivery do not count).
    pub fn exists(&self, conn: ConnId) -> bool {
        self.conn(conn).is_some_and(|c| c.state != ConnState::Reset)
    }

    /// Half-closes the endpoint: all buffered data is sent, then a FIN.
    pub fn close(&mut self, now: SimTime, ep: EndpointId) -> Result<(), NetError> {
        let c = self.resolve(ep.conn).ok_or(NetError::Gone)?;
        {
            let conn = self.conn_at_mut(&c);
            if conn.state == ConnState::Reset || conn.state == ConnState::Closed {
                return Err(NetError::BadState);
            }
            let e = conn.ep_mut(ep.side);
            if e.fin_at().is_some() {
                return Err(NetError::BadState);
            }
            e.set_fin_at(e.wrote);
            if conn.closed_first().is_none() {
                conn.set_closed_first(ep.side);
            }
        }
        self.pump(now, &c, ep.side);
        Ok(())
    }

    /// Aborts the connection: RST to the peer, local resources freed
    /// immediately, no TIME_WAIT.
    pub fn abort(&mut self, now: SimTime, ep: EndpointId) -> Result<(), NetError> {
        let c = self.resolve(ep.conn).ok_or(NetError::Gone)?;
        let conn = self.conn_at_mut(&c);
        if conn.state == ConnState::Closed || conn.state == ConnState::Reset {
            return Err(NetError::BadState);
        }
        conn.state = ConnState::Reset;
        let (from_host, extra) = (conn.host(ep.side), conn.extra_delay);
        self.stats.conns_reset += 1;
        let seg = Segment {
            conn: ep.conn,
            from: ep.side,
            kind: SegKind::Rst,
        };
        // RSTs bypass the drop-tail queue: modelling their loss would only
        // leak tombstones without adding any behaviour the paper measures.
        let delay = self.hosts[from_host.0].tx.tx_time(seg.wire_bytes());
        self.timers.push(
            Lane::Fallback,
            now + delay + self.base_delay + extra,
            Timer::Deliver(seg),
        );
        self.free_conn_ports(&c, None);
        self.detach_listener(&c);
        // The tombstone is reaped when the RST delivers (`on_rst`).
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals: transmission and delivery.
    // ------------------------------------------------------------------

    /// Sends a segment of connection `c` from its `from` side.
    fn transmit(&mut self, now: SimTime, c: &Resolved, from: Side, kind: SegKind) {
        let conn = self.conn_at(c);
        let (from_host, extra) = (conn.host(from), conn.extra_delay);
        // Injected random loss (never applied to RSTs, which bypass the
        // queue in `abort` for tombstone-reaping reasons).
        if self.loss_prob > 0.0 && self.rng.gen_bool(self.loss_prob) {
            self.stats.injected_losses += 1;
            return;
        }
        let seg = Segment {
            conn: c.id,
            from,
            kind,
        };
        match self.hosts[from_host.0].tx.offer(now, &seg, extra) {
            TxOutcome::Deliver(at) => {
                self.timers.push(
                    Self::delivery_lane(from_host, extra),
                    at,
                    Timer::Deliver(seg),
                );
            }
            TxOutcome::Dropped => {
                // Loss: the retransmission machinery recovers.
            }
        }
    }

    /// Delivers `seg`: its connection's one `id → slot` lookup, shared
    /// by every handler it runs.
    fn deliver(&mut self, now: SimTime, seg: Segment) {
        let Some(c) = self.resolve(seg.conn) else {
            return; // Connection vanished (aborted); stale segment.
        };
        let to_side = seg.from.other();
        let host = self.conn_at(&c).host(to_side);
        self.out.push(NetNotify::SegmentArrived {
            host,
            wire_bytes: seg.wire_bytes(),
        });
        match seg.kind {
            SegKind::Syn => self.on_syn(now, &c),
            SegKind::SynAck => self.on_synack(now, &c),
            SegKind::Ack { ack } => self.on_ack(now, c, to_side, ack),
            SegKind::Data { seq, len } => self.on_data(now, &c, to_side, seq, len),
            SegKind::Fin { seq } => self.on_fin(now, c, to_side, seq),
            SegKind::Rst => self.on_rst(c, to_side),
        }
    }

    fn on_syn(&mut self, now: SimTime, c: &Resolved) {
        let conn = self.conn_at(c);
        if conn.listener.is_some() {
            if !conn.accept_queued() {
                // Duplicate SYN (client retransmission): re-answer.
                self.transmit(now, c, Side::Server, SegKind::SynAck);
            }
            return;
        }
        let addr = SockAddr::new(conn.host(Side::Server), conn.port(Side::Server));
        let Some(lid) = self.listener_at(addr) else {
            // No listener: refuse.
            self.transmit(now, c, Side::Server, SegKind::Rst);
            return;
        };
        let l = self
            .listeners
            .get_mut(lid.0 as usize)
            .expect("invariant: accepting connections keep their listener");
        if l.syn_rcvd + l.accept_q.len() >= l.backlog {
            l.refused += 1;
            self.stats.syn_drops += 1;
            self.out.push(NetNotify::SynDropped { listener: lid });
            if self.cfg.rst_on_backlog_full {
                self.transmit(now, c, Side::Server, SegKind::Rst);
            }
            return;
        }
        l.syn_rcvd += 1;
        let conn = self.conn_at_mut(c);
        conn.listener = Some(lid);
        conn.set_syn_rcvd(true);
        self.transmit(now, c, Side::Server, SegKind::SynAck);
    }

    fn on_synack(&mut self, now: SimTime, c: &Resolved) {
        let conn = self.conn_at_mut(c);
        match conn.state {
            ConnState::SynSent => {
                conn.state = ConnState::Established;
                conn.ep_mut(Side::Client).last_progress = now;
                self.stats.conns_established += 1;
                self.out.push(NetNotify::ConnectDone {
                    ep: EndpointId::new(c.id, Side::Client),
                });
                self.transmit(now, c, Side::Client, SegKind::Ack { ack: 0 });
                // Data may already be buffered (connect-then-write).
                self.pump(now, c, Side::Client);
            }
            ConnState::Established => {
                // Duplicate SYN-ACK: re-ack the handshake.
                self.transmit(now, c, Side::Client, SegKind::Ack { ack: 0 });
            }
            _ => {}
        }
    }

    /// Promotes a server-side connection onto the accept queue (on the
    /// handshake ack, or on first data/FIN doing double duty when the ack
    /// was lost).
    fn promote_server(&mut self, now: SimTime, c: &Resolved) {
        let conn = self.conn_at_mut(c);
        let Some(lid) = conn.listener else {
            return; // No SYN seen yet (cannot happen in a FIFO network).
        };
        if conn.accept_queued() {
            return;
        }
        conn.ep_mut(Side::Server).last_progress = now;
        conn.set_accept_queued(true);
        conn.accept_queued_at = now;
        let counted = conn.syn_rcvd();
        conn.set_syn_rcvd(false);
        let l = self
            .listeners
            .get_mut(lid.0 as usize)
            .expect("invariant: accepting connections keep their listener");
        l.syn_rcvd -= usize::from(counted);
        l.accept_q.push_back(c.id);
        self.out.push(NetNotify::AcceptReady { listener: lid });
    }

    fn on_ack(&mut self, now: SimTime, c: Resolved, to_side: Side, ack: u64) {
        if to_side == Side::Server {
            self.promote_server(now, &c);
        }
        let cfg = self.cfg;
        let mut became_writable = false;
        let mut fin_now_acked = false;
        {
            let e = self.conn_at_mut(&c).ep_mut(to_side);
            if ack > e.snd_una {
                e.snd_una = ack.min(e.snd_nxt);
                e.last_progress = now;
                e.retries = 0;
                // Trim acknowledged bytes (the FIN occupies one virtual
                // sequence slot past `wrote`, so clamp).
                let trim_to = e.snd_una.min(e.wrote);
                if e.out_base < trim_to {
                    e.out.consume((trim_to - e.out_base) as usize);
                    e.out_base = trim_to;
                }
                if let Some(fin) = e.fin_at() {
                    if e.snd_una > fin {
                        if !e.fin_acked() {
                            fin_now_acked = true;
                        }
                        e.set_fin_acked(true);
                    }
                }
                if e.blocked_writer() && e.send_space(&cfg) > 0 {
                    e.set_blocked_writer(false);
                    became_writable = true;
                }
            }
        }
        if became_writable {
            self.out.push(NetNotify::Writable {
                ep: EndpointId::new(c.id, to_side),
            });
        }
        // More window may be open now.
        self.pump(now, &c, to_side);
        if fin_now_acked {
            self.check_full_close(now, c);
        }
    }

    // #[hot_path] — one call per data segment delivered
    fn on_data(&mut self, now: SimTime, c: &Resolved, to_side: Side, seq: u64, len: u32) {
        if to_side == Side::Server {
            self.promote_server(now, c);
        }
        let mut readable = false;
        let ack;
        {
            let conn = self.conn_at_mut(c);
            if conn.state != ConnState::Established {
                return;
            }
            // Move the in-order payload's range from the peer's stream
            // buffer into the inbox by reference (split borrow of the
            // endpoint pair).
            if seq == conn.ep(to_side).rcv_nxt {
                let (a, b) = conn.eps.split_at_mut(1);
                let (rx, tx) = match to_side.index() {
                    0 => (&mut a[0], &b[0]),
                    _ => (&mut b[0], &a[0]),
                };
                let start = (seq - tx.out_base) as usize;
                rx.inbox.extend_from_queue(&tx.out, start, len as usize);
                rx.rcv_nxt = seq + len as u64;
                readable = true;
            }
            ack = conn.ep(to_side).rcv_nxt;
        }
        if readable {
            self.out.push(NetNotify::Readable {
                ep: EndpointId::new(c.id, to_side),
            });
        }
        self.transmit(now, c, to_side, SegKind::Ack { ack });
    }

    fn on_fin(&mut self, now: SimTime, c: Resolved, to_side: Side, seq: u64) {
        if to_side == Side::Server {
            self.promote_server(now, &c);
        }
        let mut saw_fin = false;
        let ack;
        {
            let e = self.conn_at_mut(&c).ep_mut(to_side);
            if seq == e.rcv_nxt && e.peer_fin().is_none() {
                e.set_peer_fin(seq);
                e.rcv_nxt = seq + 1;
                saw_fin = true;
            }
            ack = e.rcv_nxt;
        }
        if saw_fin {
            self.out.push(NetNotify::PeerClosed {
                ep: EndpointId::new(c.id, to_side),
            });
        }
        self.transmit(now, &c, to_side, SegKind::Ack { ack });
        if saw_fin {
            self.check_full_close(now, c);
        }
    }

    fn on_rst(&mut self, c: Resolved, to_side: Side) {
        let conn = self.conn_at_mut(&c);
        let was_syn_sent = conn.state == ConnState::SynSent;
        let newly_reset = conn.state != ConnState::Reset;
        conn.state = ConnState::Reset;
        let host = conn.host(Side::Client);
        if newly_reset {
            self.stats.conns_reset += 1;
        }
        if was_syn_sent {
            self.out.push(NetNotify::ConnectFailed {
                conn: c.id,
                host,
                reason: ConnectError::Refused,
            });
        } else {
            self.out.push(NetNotify::ConnReset {
                ep: EndpointId::new(c.id, to_side),
            });
        }
        self.free_conn_ports(&c, None);
        self.detach_listener(&c);
        self.conn_remove(c);
    }

    /// Sends whatever the window allows: data first, then the FIN.
    fn pump(&mut self, now: SimTime, c: &Resolved, side: Side) {
        let mut to_send = std::mem::take(&mut self.pump_scratch);
        to_send.clear();
        let mut arm_rto = false;
        {
            let cfg = self.cfg;
            let conn = self.conn_at_mut(c);
            if conn.state != ConnState::Established {
                self.pump_scratch = to_send;
                return; // Data flows only once established.
            }
            let window = cfg.window_segments as u64 * DEFAULT_MSS as u64;
            let e = conn.ep_mut(side);
            while e.snd_nxt < e.wrote && e.in_flight() < window {
                let len = (e.wrote - e.snd_nxt).min(DEFAULT_MSS as u64) as u32;
                to_send.push(SegKind::Data {
                    seq: e.snd_nxt,
                    len,
                });
                e.snd_nxt += len as u64;
            }
            if let Some(fin) = e.fin_at() {
                if e.snd_nxt == fin && !e.fin_sent() && e.in_flight() < window + 1 {
                    to_send.push(SegKind::Fin { seq: fin });
                    e.set_fin_sent(true);
                    e.snd_nxt = fin + 1;
                }
            }
            if e.in_flight() > 0 && !e.rto_armed() {
                e.set_rto_armed(true);
                arm_rto = true;
            }
        }
        for &kind in &to_send {
            self.transmit(now, c, side, kind);
        }
        self.pump_scratch = to_send;
        if arm_rto {
            self.timers.push(
                Lane::Fifo(DATA_RTO_LANE),
                now + self.cfg.rto_initial,
                Timer::Rto { conn: c.id, side },
            );
        }
    }

    fn rto_fire(&mut self, now: SimTime, c: Resolved, side: Side) {
        enum Action {
            None,
            ConnectTimeout,
            ResendSyn { rearm: SimDuration },
            ResetBoth,
            Retransmit { rearm: SimDuration },
            Rearm { at: SimTime },
        }
        let action;
        {
            let cfg = self.cfg;
            let conn = self.conn_at_mut(&c);
            match conn.state {
                ConnState::SynSent if side == Side::Client => {
                    if u32::from(conn.syn_sent) > SYN_RETRIES {
                        action = Action::ConnectTimeout;
                    } else {
                        conn.syn_sent += 1;
                        let backoff = SYN_RTO * (1 << (conn.syn_sent - 1).min(4)) as u64;
                        action = Action::ResendSyn {
                            rearm: backoff.min(RTO_MAX),
                        };
                    }
                }
                ConnState::Established => {
                    let e = conn.ep_mut(side);
                    if e.in_flight() == 0 {
                        e.set_rto_armed(false);
                        action = Action::None;
                    } else {
                        let rto = cfg
                            .rto_initial
                            .mul_f64((1u64 << e.retries.min(6)) as f64)
                            .min(RTO_MAX);
                        let age = now.saturating_duration_since(e.last_progress);
                        if age >= rto {
                            if u32::from(e.retries) >= cfg.data_retries {
                                action = Action::ResetBoth;
                            } else {
                                e.retries += 1;
                                e.snd_nxt = e.snd_una; // Go-back-N.
                                if let Some(fin) = e.fin_at() {
                                    if e.snd_una <= fin {
                                        e.set_fin_sent(false);
                                    }
                                }
                                let next = cfg
                                    .rto_initial
                                    .mul_f64((1u64 << e.retries.min(6)) as f64)
                                    .min(RTO_MAX);
                                action = Action::Retransmit { rearm: next };
                            }
                        } else {
                            action = Action::Rearm {
                                at: e.last_progress + rto,
                            };
                        }
                    }
                }
                _ => {
                    // Handshake completed or connection tearing down:
                    // disarm quietly.
                    let e = conn.ep_mut(side);
                    e.set_rto_armed(false);
                    action = Action::None;
                }
            }
        }
        let rto = Timer::Rto { conn: c.id, side };
        match action {
            Action::None => {}
            Action::ConnectTimeout => {
                let host = self.conn_at(&c).host(Side::Client);
                self.out.push(NetNotify::ConnectFailed {
                    conn: c.id,
                    host,
                    reason: ConnectError::Timeout,
                });
                self.free_conn_ports(&c, None);
                self.detach_listener(&c);
                self.conn_remove(c);
            }
            Action::ResendSyn { rearm } => {
                self.transmit(now, &c, Side::Client, SegKind::Syn);
                self.timers.push(Lane::Fallback, now + rearm, rto);
            }
            Action::ResetBoth => {
                self.conn_at_mut(&c).state = ConnState::Reset;
                self.stats.conns_reset += 1;
                self.out.push(NetNotify::ConnReset {
                    ep: EndpointId::new(c.id, side),
                });
                self.out.push(NetNotify::ConnReset {
                    ep: EndpointId::new(c.id, side.other()),
                });
                self.free_conn_ports(&c, None);
                self.detach_listener(&c);
                self.conn_remove(c);
            }
            Action::Retransmit { rearm } => {
                self.stats.retransmits += 1;
                // Go-back-N: `pump` resends from the rewound `snd_nxt`.
                self.pump(now, &c, side);
                self.timers.push(Lane::Fallback, now + rearm, rto);
            }
            Action::Rearm { at } => {
                self.timers.push(Lane::Fallback, at, rto);
            }
        }
    }

    fn check_full_close(&mut self, now: SimTime, c: Resolved) {
        if !self.conn_at(&c).fully_closed() {
            return;
        }
        self.stats.conns_closed += 1;
        self.out.push(NetNotify::ConnClosed {
            ep: EndpointId::new(c.id, Side::Client),
        });
        self.out.push(NetNotify::ConnClosed {
            ep: EndpointId::new(c.id, Side::Server),
        });
        // TIME_WAIT is per connection tuple; whichever side closed first,
        // the tuple — and hence the client's ephemeral port — cannot be
        // reused for `time_wait`. Parking the client port models that.
        self.free_conn_ports(&c, Some((Side::Client, now + self.cfg.time_wait)));
        self.detach_listener(&c);
        self.conn_at_mut(&c).state = ConnState::Closed;
        self.conn_remove(c);
    }

    /// Releases both ports; the side in `time_wait` (if any) holds its
    /// port until the given expiry.
    fn free_conn_ports(&mut self, c: &Resolved, time_wait: Option<(Side, SimTime)>) {
        let conn = self.conn_at_mut(c);
        if conn.ports_freed() {
            return;
        }
        conn.set_ports_freed(true);
        let sides = [
            (conn.host(Side::Client), conn.port(Side::Client)),
            (conn.host(Side::Server), conn.port(Side::Server)),
        ];
        for (side, (host, port)) in [Side::Client, Side::Server].into_iter().zip(sides) {
            // A listener's well-known port is shared by many connections;
            // only ephemeral (client-allocated) ports are released.
            if self.listener_at(SockAddr::new(host, port)).is_some() {
                continue;
            }
            match time_wait {
                Some((tw_side, until)) if tw_side == side => {
                    // Armed at a constant delay from a clock that only
                    // moves forward, so the lane stays in firing order.
                    if self.hosts[host.0].ports.release_time_wait(port) {
                        self.timers.push(
                            Lane::Fifo(TIME_WAIT_LANE),
                            until,
                            Timer::TimeWaitEnd { host, port },
                        );
                    }
                }
                _ => self.hosts[host.0].ports.release(port),
            }
        }
    }

    fn detach_listener(&mut self, c: &Resolved) {
        let conn = self.conn_at_mut(c);
        let (listener, accepted, counted) = (conn.listener, conn.accepted(), conn.syn_rcvd());
        conn.set_syn_rcvd(false);
        if let Some(lid) = listener {
            if let Some(l) = self.listeners.get_mut(lid.0 as usize) {
                l.syn_rcvd -= usize::from(counted);
                if !accepted {
                    l.accept_q.retain(|id| *id != c.id);
                }
            }
        }
    }
}

/// How many response-prefix bytes [`Network::recv_discard`] captures.
pub const RECV_PREFIX: usize = 12;

/// One endpoint's readiness inputs (see [`Network::endpoint_state`]);
/// all zero and `false` once the connection is gone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointState {
    /// Bytes available for `recv` right now.
    pub readable_bytes: usize,
    /// The peer has closed its sending direction.
    pub peer_closed: bool,
    /// Free space in the send buffer.
    pub send_space: usize,
    /// The connection exists and is not reset.
    pub exists: bool,
}

/// Summary of a drained-and-discarded read: the byte count plus the
/// first bytes of the chunk (enough for an HTTP status-line check)
/// without materialising the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvSummary {
    /// Bytes drained from the inbox.
    pub len: usize,
    /// The first `prefix_len` bytes of the drained chunk.
    pub prefix: [u8; RECV_PREFIX],
    /// How many bytes of `prefix` are valid.
    pub prefix_len: usize,
}

impl RecvSummary {
    /// The valid prefix bytes.
    pub fn prefix(&self) -> &[u8] {
        &self.prefix[..self.prefix_len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `net` to its next event; returns the time and what it
    /// notified.
    fn step(net: &mut Network) -> (SimTime, Vec<NetNotify>) {
        let at = net.next_deadline().expect("work pending");
        (at, net.advance(at))
    }

    #[test]
    fn connect_timeout_releases_its_half_open_slot() {
        let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
        let (client, server) = (HostId(0), HostId(1));
        let lid = net.listen(server, 80, 1).unwrap();
        let addr = SockAddr::new(server, 80);
        net.connect(SimTime::ZERO, client, addr, SimDuration::ZERO)
            .unwrap();
        // The SYN is already on the wire; everything sent after it is
        // lost, so the server counts a handshake whose SYN-ACKs never
        // arrive and the client gives up on it.
        net.loss_prob = 1.0;
        let mut counted = false;
        let now = loop {
            let (at, notes) = step(&mut net);
            counted |= net.listeners[0].syn_rcvd == 1;
            let timed_out = notes.iter().any(|n| {
                matches!(
                    n,
                    NetNotify::ConnectFailed {
                        reason: ConnectError::Timeout,
                        ..
                    }
                )
            });
            if timed_out {
                break at;
            }
        };
        assert!(counted, "the server saw the SYN");
        assert_eq!(net.listeners[0].syn_rcvd, 0, "half-open slot released");
        // In debug builds the fingerprint checks the count against the
        // connections' flags.
        net.state_fingerprint();
        // The backlog of one is free again for the next handshake.
        net.loss_prob = 0.0;
        net.connect(now, client, addr, SimDuration::ZERO).unwrap();
        while net.accept_queue_len(lid) == 0 {
            step(&mut net);
        }
        assert_eq!(net.refused_count(lid), 0);
    }

    /// Every field of `endpoint_state` follows each endpoint through a
    /// connection's life, one expected state after another: two
    /// connections each carry a request, then `a` closes from both ends
    /// while `b`'s client resets it, and both are reaped.
    #[test]
    fn endpoint_state_reads_what_the_single_getters_read() {
        let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
        let lid = net.listen(HostId(1), 80, 8).unwrap();
        let addr = SockAddr::new(HostId(1), 80);
        let ids = [0, 1].map(|_| {
            net.connect(SimTime::ZERO, HostId(0), addr, SimDuration::ZERO)
                .unwrap()
        });
        let [a, b] = ids.map(|id| [Side::Client, Side::Server].map(|s| EndpointId::new(id, s)));
        let open = EndpointState {
            readable_bytes: 0,
            peer_closed: false,
            send_space: TcpConfig::default().send_buf,
            exists: true,
        };
        let sent = EndpointState {
            send_space: open.send_space - 5,
            ..open
        };
        let request = EndpointState {
            readable_bytes: 5,
            ..open
        };
        let gone = EndpointState::default();
        let expected = [
            // a's client: its request is in flight, then acked; then
            // the server's FIN arrives.
            vec![
                open,
                sent,
                open,
                EndpointState {
                    peer_closed: true,
                    ..open
                },
                gone,
            ],
            // a's server: the request arrives, unread; then the
            // client's FIN.
            vec![
                open,
                request,
                EndpointState {
                    peer_closed: true,
                    ..request
                },
                gone,
            ],
            // b's client resets with its request still unacked; the
            // reset connection keeps its buffers until it is reaped.
            vec![
                open,
                sent,
                EndpointState {
                    exists: false,
                    ..sent
                },
                gone,
            ],
            // b's server: the request arrives, then the reset.
            vec![
                open,
                request,
                EndpointState {
                    exists: false,
                    ..request
                },
                gone,
            ],
        ];
        let mut step = [0; 4];
        let mut check = |net: &Network| {
            for (i, ep) in a.iter().chain(&b).enumerate() {
                let state = net.endpoint_state(*ep);
                if state != expected[i][step[i]] {
                    step[i] += 1;
                    let want = expected[i].get(step[i]);
                    assert_eq!(Some(&state), want, "{ep:?}, state {}", step[i]);
                }
            }
        };
        let mut phase = 0;
        while let Some(at) = net.next_deadline() {
            net.advance(at);
            check(&net);
            if phase == 0 && net.accept_queue_len(lid) == 2 {
                net.accept(lid).unwrap();
                net.accept(lid).unwrap();
                net.send(at, a[0], b"GET /").unwrap();
                net.send(at, b[0], b"GET /").unwrap();
                phase = 1;
            } else if phase == 1
                && net.endpoint_state(a[1]).readable_bytes == 5
                && net.endpoint_state(b[1]).readable_bytes == 5
            {
                net.close(at, a[1]).unwrap();
                net.close(at, a[0]).unwrap();
                net.abort(at, b[0]).unwrap();
                phase = 2;
            }
            check(&net);
        }
        assert_eq!(phase, 2, "the exchange ran");
        assert_eq!(
            step,
            expected.map(|states| states.len() - 1),
            "every state seen"
        );
    }

    /// One request/response exchange on a new connection from host 0
    /// to the listener on host 1, port 80, starting at `now`: returns
    /// the connection, every notification the network raised until the
    /// connection closed, and the reply bytes the client read.
    /// `at_connected` runs once the client is connected.
    fn exchange(
        net: &mut Network,
        start: SimTime,
        reply: &[u8],
        at_connected: impl FnOnce(&Network),
    ) -> (ConnId, Vec<NetNotify>, Vec<u8>) {
        let (lid, mut notes, mut now) = (ListenerId(0), Vec::new(), start);
        let id = net
            .connect(
                start,
                HostId(0),
                SockAddr::new(HostId(1), 80),
                SimDuration::ZERO,
            )
            .unwrap();
        let mut run_until = |net: &mut Network, done: &dyn Fn(&Network, &[NetNotify]) -> bool| {
            while !done(net, &notes) {
                let (at, n) = step(net);
                now = at;
                notes.extend(n);
            }
            now
        };
        let client = EndpointId::new(id, Side::Client);
        run_until(net, &|_, n| {
            n.contains(&NetNotify::ConnectDone { ep: client })
        });
        at_connected(net);
        let now = run_until(net, &|net, _| net.accept_queue_len(lid) > 0);
        let server = net.accept(lid).unwrap();
        net.send(now, client, b"GET /").unwrap();
        let now = run_until(net, &|net, _| {
            net.endpoint_state(server).readable_bytes == 5
        });
        assert_eq!(net.recv(server, usize::MAX).unwrap(), b"GET /");
        net.send(now, server, reply).unwrap();
        net.close(now, server).unwrap();
        let now = run_until(net, &|net, _| net.endpoint_state(client).peer_closed);
        let got = net.recv(client, usize::MAX).unwrap();
        net.close(now, client).unwrap();
        run_until(net, &|_, n| {
            n.contains(&NetNotify::ConnClosed { ep: client })
        });
        (id, notes, got)
    }

    #[test]
    fn a_stale_segment_never_reaches_the_connection_in_its_reused_slot() {
        let new_network = || {
            let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
            net.listen(HostId(1), 80, 8).unwrap();
            net
        };
        let in_flight = |net: &Network, id: ConnId| {
            net.timers
                .in_order()
                .iter()
                .filter(|(_, _, t)| matches!(t, Timer::Deliver(s) if s.conn == id))
                .count()
        };
        let mut net = new_network();
        let lid = ListenerId(0);

        // A, a modem-class connection, is accepted, and the server
        // writes a reply of a full window.
        let a = net
            .connect(
                SimTime::ZERO,
                HostId(0),
                SockAddr::new(HostId(1), 80),
                MODEM_DELAY,
            )
            .unwrap();
        let mut now = SimTime::ZERO;
        while net.accept_queue_len(lid) == 0 {
            now = step(&mut net).0;
        }
        let a_server = net.accept(lid).unwrap();
        let a_slot = net.conn_slot.get(a.0 as usize).copied();
        let window = TcpConfig::default().window_segments as usize * DEFAULT_MSS as usize;
        net.send(now, a_server, &vec![0xAA; window]).unwrap();
        // The client aborts at once: its RST reaps A at the server while
        // the whole reply is still on the wire.
        net.abort(now, EndpointId::new(a, Side::Client)).unwrap();
        loop {
            let (at, n) = step(&mut net);
            now = at;
            if n.contains(&NetNotify::ConnReset { ep: a_server }) {
                break;
            }
        }
        let stale = in_flight(&net, a);
        assert_eq!(stale, TcpConfig::default().window_segments as usize);

        // B takes A's freed slot and is connected before most of A's
        // segments land.
        let reply: Vec<u8> = (0..3 * DEFAULT_MSS).map(|i| (i % 251) as u8).collect();
        let (b, notes, got) = exchange(&mut net, now, &reply, |net| {
            let b = ConnId(a.0 + 1);
            assert_eq!(net.conn_slot.get(b.0 as usize).copied(), a_slot);
            assert!(
                in_flight(net, a) > stale / 2,
                "stale segments meet a live B"
            );
        });
        assert_eq!(in_flight(&net, a), 0, "every stale segment has landed");

        // B's exchange is byte-exact, and A's late segments raised no
        // notify: B's notifications are those of the same exchange in a
        // network that never saw A.
        assert_eq!(got, reply);
        let mut fresh = new_network();
        fresh.set_next_conn_id(b.0);
        let (_, alone, _) = exchange(&mut fresh, now, &reply, |_| {});
        assert_eq!(notes, alone);
    }
}
