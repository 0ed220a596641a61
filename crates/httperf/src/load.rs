//! The load generator: an httperf-style open-loop request stream plus
//! the paper's constant population of inactive (high-latency,
//! never-completing) connections.
//!
//! "We add client programs that do not complete an http request. To keep
//! the number of high-latency clients constant, these clients reopen
//! their connection if the server times them out." (§5)

use std::rc::Rc;

use simcore::paged::PagedSlots;
use simcore::rng::SimRng;
use simcore::stats::{Quantiles, RateSampler};
use simcore::time::{SimDuration, SimTime};
use simnet::{ConnId, ConnectError, EndpointId, HostId, NetNotify, Network, Side, SockAddr};

use crate::report::ErrorCounts;

/// The arrival process shape.
///
/// The paper notes (§5, citing Banga & Druschel) that real WAN clients
/// "induce a bursty and unpredictable interrupt load on the server";
/// [`LoadShape::Bursty`] models that by alternating between an elevated
/// rate and silence while preserving the same average rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadShape {
    /// Evenly spaced arrivals (httperf's fixed --rate).
    Constant,
    /// On/off bursts: arrivals at `rate / duty` during a fraction `duty`
    /// of each `period`, silence otherwise. Average rate is preserved.
    Bursty {
        /// Burst cycle length.
        period: SimDuration,
        /// Fraction of the period spent bursting, in (0, 1].
        duty: f64,
    },
}

/// Client-side timeout for a full response.
pub const CLIENT_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Extra one-way latency on inactive (modem-class) connections: the
/// network's modem delay, whose deliveries have FIFO timer lanes.
pub const INACTIVE_EXTRA_DELAY: SimDuration = simnet::MODEM_DELAY;
/// Extra one-way latency on active (LAN) connections.
pub const ACTIVE_EXTRA_DELAY: SimDuration = SimDuration::ZERO;

/// Load parameters for one benchmark run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Targeted request rate, requests per second.
    pub rate: f64,
    /// Stop after this many active connection attempts.
    pub total_conns: u64,
    /// Constant inactive-connection population.
    pub inactive: usize,
    /// Uniform jitter fraction applied to inter-arrival gaps.
    pub jitter: f64,
    /// Maximum simultaneously open client sockets (fd limit).
    pub client_fd_limit: usize,
    /// RNG seed.
    pub seed: u64,
    /// Document requested.
    pub doc_path: String,
    /// Reply-rate sampling window.
    pub window: SimDuration,
    /// Time reserved to establish the inactive population before the
    /// first request is launched; measurement starts here too.
    pub warmup: SimDuration,
    /// Client user-space turnaround between `connect` completing and the
    /// request hitting the wire (process wakeup + `write()` on the
    /// 4-way Xeon client).
    pub client_think: SimDuration,
    /// Arrival process shape.
    pub shape: LoadShape,
    /// Client machines driving the inactive population. One host offers
    /// ~60k ephemeral ports, so populations beyond that need more
    /// machines — the paper's multi-client testbed. Inactive connections
    /// round-robin across the hosts; active requests stay on the first.
    pub client_hosts: usize,
    /// Fold end-of-run memory gauges (`mem.*`) and the `kernel.emfile`
    /// count of descriptor allocations refused at the fd limit into the
    /// probe snapshot. Off by default: both would change the snapshot of
    /// existing figure configs (points that hit the fd limit record
    /// EMFILE refusals).
    pub mem_probes: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            rate: 500.0,
            total_conns: 35_000,
            inactive: 0,
            jitter: 0.05,
            client_fd_limit: 60_000,
            seed: 1,
            doc_path: "/index.html".to_string(),
            window: SimDuration::from_secs(1),
            warmup: SimDuration::from_millis(2_500),
            client_think: SimDuration::from_micros(500),
            shape: LoadShape::Constant,
            client_hosts: 1,
            mem_probes: false,
        }
    }
}

/// Where one tracked client socket is in its exchange. Active
/// connections walk `Connecting → Turnaround → AwaitingReply` and leave
/// the table through [`LoadGen::resolve`]; inactive ones stay `Held`
/// until the server closes them, then reopen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Active: SYN sent, handshake not yet complete.
    Connecting,
    /// Active: connected; the request goes out after the client's think
    /// time.
    Turnaround,
    /// Active: request sent; reply bytes are counted as they arrive.
    AwaitingReply {
        /// Bytes of response received so far.
        got: usize,
        /// Whether the first full read looked like a 200 response.
        ok_prefix: Option<bool>,
    },
    /// Inactive: held open (connecting or established), never requests.
    Held,
}

// #[hot_struct]: one per client socket, a million strong
#[derive(Debug)]
struct ClientConn {
    started: SimTime,
    state: State,
}

/// How one active connection attempt ended: its single entry in the
/// ledger (a reply or one Fig. 10 error class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Reply,
    Timeout,
    Refused,
    PortsExhausted,
    FdShortage,
    Reset,
}

impl From<ConnectError> for Outcome {
    fn from(e: ConnectError) -> Outcome {
        match e {
            ConnectError::Refused => Outcome::Refused,
            ConnectError::Timeout => Outcome::Timeout,
            ConnectError::PortsExhausted => Outcome::PortsExhausted,
        }
    }
}

/// Delay before replacing an inactive connection that failed or was
/// reset.
const RETRY_DELAY: SimDuration = SimDuration::from_millis(100);
/// Delay before replacing an inactive connection the server closed.
const REOPEN_DELAY: SimDuration = SimDuration::from_millis(50);

/// Timer kinds the load generator schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LoadTimer {
    /// Launch the next active connection.
    NextArrival,
    /// Give up on an active connection that has not resolved.
    Timeout(ConnId),
    /// Re-open one inactive connection.
    ReopenInactive,
    /// Send the request on an established connection (after the client's
    /// turnaround time).
    SendRequest(ConnId),
}

/// The follow-up timers of one load-generator event: at most two (an
/// active launch schedules the next arrival and the attempt's timeout),
/// held inline so the per-event path never allocates.
#[derive(Debug, Default)]
pub struct FollowUps([Option<(SimTime, LoadTimer)>; 2]);

impl FollowUps {
    fn one(at: SimTime, timer: LoadTimer) -> FollowUps {
        FollowUps([Some((at, timer)), None])
    }

    fn push(&mut self, at: SimTime, timer: LoadTimer) {
        let slot = self.0.iter_mut().find(|s| s.is_none());
        *slot.expect("invariant: a load event schedules at most two timers") = Some((at, timer));
    }
}

impl IntoIterator for FollowUps {
    type Item = (SimTime, LoadTimer);
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<(SimTime, LoadTimer)>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().flatten()
    }
}

/// The load generator state machine.
pub struct LoadGen {
    cfg: LoadConfig,
    host: HostId,
    server: SockAddr,
    rng: SimRng,
    /// The `GET` for `cfg.doc_path`, rendered once; every request
    /// socket queues a share of it.
    request: Rc<Vec<u8>>,
    /// Paged per-connection table indexed by `ConnId`: sequential ids
    /// keep pages dense, and a million-connection population costs only
    /// the pages its live id range touches. Ids are never reused, so a
    /// tracked id is always the same attempt.
    conns: PagedSlots<ClientConn>,
    /// Round-robin cursor over the client hosts for inactive connects.
    inactive_rr: usize,
    launched: u64,
    /// Successful replies.
    pub replies: u64,
    /// Error tallies.
    pub errors: ErrorCounts,
    /// Reply completion sampler.
    pub sampler: RateSampler,
    /// Connection times in milliseconds.
    pub latencies_ms: Quantiles,
    /// `Held` connections in `conns`.
    inactive_open: usize,
    /// When the last active connection resolved.
    pub last_resolution: SimTime,
    /// When the last active connection was launched (measurement end).
    pub last_arrival: SimTime,
    finished_arrivals: bool,
}

impl LoadGen {
    /// Creates the generator; call [`LoadGen::bootstrap`] to get the
    /// initial timers.
    pub fn new(cfg: LoadConfig, host: HostId, server: SockAddr) -> LoadGen {
        let rng = SimRng::new(cfg.seed);
        let sampler = RateSampler::new(SimTime::ZERO + cfg.warmup, cfg.window);
        let request = Rc::new(
            format!(
                "GET {} HTTP/1.0\r\nUser-Agent: simhttperf\r\n\r\n",
                cfg.doc_path
            )
            .into_bytes(),
        );
        LoadGen {
            cfg,
            host,
            server,
            rng,
            request,
            conns: PagedSlots::new(),
            inactive_rr: 0,
            launched: 0,
            replies: 0,
            errors: ErrorCounts::default(),
            sampler,
            latencies_ms: Quantiles::new(),
            inactive_open: 0,
            last_resolution: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            finished_arrivals: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LoadConfig {
        &self.cfg
    }

    /// Connections attempted so far.
    pub fn attempted(&self) -> u64 {
        self.launched
    }

    /// Active connections launched but not yet resolved. Every attempt
    /// is in exactly one place: `attempted = replies + errors + in_flight`.
    pub fn in_flight(&self) -> u64 {
        (self.conns.len() - self.inactive_open) as u64
    }

    /// Whether every active connection has resolved.
    pub fn done(&self) -> bool {
        self.finished_arrivals && self.in_flight() == 0
    }

    /// Timers to schedule at startup: the first arrival plus one reopen
    /// per inactive slot (they all connect at staggered times).
    pub fn bootstrap(&mut self, now: SimTime) -> Vec<(SimTime, LoadTimer)> {
        // Inactive population first (staggered over 2 s), then requests
        // after the warmup — the paper fixes the inactive load, then
        // drives request rates against it (§5.1).
        let first = self.next_arrival_at(now + self.cfg.warmup);
        let mut timers = vec![(first, LoadTimer::NextArrival)];
        // Large populations (the million lane) spread across the whole
        // warmup so the connect burst doesn't pile onto one instant;
        // the classic loads keep the original 2 s stagger bit for bit.
        let stagger = if self.cfg.inactive > 10_000 {
            self.cfg.warmup
        } else {
            SimDuration::from_secs(2).min(self.cfg.warmup)
        };
        for i in 0..self.cfg.inactive {
            let at = now
                + SimDuration::from_nanos(
                    stagger.as_nanos() * i as u64 / self.cfg.inactive.max(1) as u64,
                );
            timers.push((at, LoadTimer::ReopenInactive));
        }
        timers
    }

    fn gap(&mut self) -> SimDuration {
        let base = 1.0 / self.cfg.rate.max(1e-9);
        let j = self.cfg.jitter;
        let f = 1.0 + j * (2.0 * self.rng.next_f64() - 1.0);
        SimDuration::from_secs_f64(base * f)
    }

    /// The next arrival instant after `now`, honouring the load shape.
    fn next_arrival_at(&mut self, now: SimTime) -> SimTime {
        match self.cfg.shape {
            LoadShape::Constant => now + self.gap(),
            LoadShape::Bursty { period, duty } => {
                let duty = duty.clamp(1e-3, 1.0);
                // Within a burst, arrivals come `duty` times as fast so
                // the average over the period matches `rate`.
                let fast_gap = self.gap().mul_f64(duty);
                let mut at = now + fast_gap;
                // If that lands in the silent part of the cycle, push to
                // the start of the next burst.
                let period_ns = period.as_nanos().max(1);
                let burst_ns = (period_ns as f64 * duty) as u64;
                let phase = at.as_nanos() % period_ns;
                if phase >= burst_ns {
                    let next_burst = at.as_nanos() - phase + period_ns;
                    at = SimTime::from_nanos(next_burst);
                }
                at
            }
        }
    }

    fn open_sockets(&self) -> usize {
        self.conns.len()
    }

    /// Heap bytes held by the client-side connection table.
    pub fn mem_bytes(&self) -> usize {
        self.conns.heap_bytes()
    }

    /// The host the next inactive connection originates from. With one
    /// client host this is always `self.host` (the pre-multi-client
    /// behaviour, bit for bit); with more, the population round-robins
    /// so no single host exhausts its ephemeral port range.
    fn next_inactive_host(&mut self) -> HostId {
        if self.cfg.client_hosts <= 1 {
            return self.host;
        }
        let i = self.inactive_rr % self.cfg.client_hosts;
        self.inactive_rr += 1;
        if i == 0 {
            self.host
        } else {
            // Extra client machines are numbered past the server host.
            HostId(self.host.0.max(self.server.host.0) + i)
        }
    }

    fn conn_get(&self, conn: ConnId) -> Option<&ClientConn> {
        self.conns.get(conn.0 as usize)
    }

    fn conn_get_mut(&mut self, conn: ConnId) -> Option<&mut ClientConn> {
        self.conns.get_mut(conn.0 as usize)
    }

    fn conn_insert(&mut self, conn: ConnId, c: ClientConn) {
        self.conns.insert(conn.0 as usize, c);
    }

    fn conn_remove(&mut self, conn: ConnId) -> Option<ClientConn> {
        self.conns.take(conn.0 as usize)
    }

    /// Fires one timer; returns follow-up timers to schedule.
    pub fn on_timer(&mut self, net: &mut Network, now: SimTime, timer: LoadTimer) -> FollowUps {
        match timer {
            LoadTimer::NextArrival => return self.launch_active(net, now),
            LoadTimer::ReopenInactive => return self.launch_inactive(net, now),
            LoadTimer::Timeout(conn) => {
                // Still tracked and active means still unresolved.
                if self.conn_get(conn).is_some_and(|c| c.state != State::Held) {
                    let _ = net.abort(now, EndpointId::new(conn, Side::Client));
                    self.resolve(now, Some(conn), Outcome::Timeout);
                }
            }
            LoadTimer::SendRequest(conn) => {
                let Some(c) = self.conn_get_mut(conn) else {
                    return FollowUps::default();
                };
                if c.state == State::Turnaround {
                    c.state = State::AwaitingReply {
                        got: 0,
                        ok_prefix: None,
                    };
                    let ep = EndpointId::new(conn, Side::Client);
                    let _ = net.send_shared(now, ep, &self.request, 0);
                }
            }
        }
        FollowUps::default()
    }

    fn launch_active(&mut self, net: &mut Network, now: SimTime) -> FollowUps {
        let mut timers = FollowUps::default();
        if self.launched >= self.cfg.total_conns {
            return timers;
        }
        self.launched += 1;
        self.last_arrival = now;
        if self.launched == self.cfg.total_conns {
            self.finished_arrivals = true;
        } else {
            let at = self.next_arrival_at(now);
            timers.push(at, LoadTimer::NextArrival);
        }
        if self.open_sockets() >= self.cfg.client_fd_limit {
            self.resolve(now, None, Outcome::FdShortage);
            return timers;
        }
        match net.connect(now, self.host, self.server, ACTIVE_EXTRA_DELAY) {
            Ok(conn) => {
                let c = ClientConn {
                    started: now,
                    state: State::Connecting,
                };
                self.conn_insert(conn, c);
                timers.push(now + CLIENT_TIMEOUT, LoadTimer::Timeout(conn));
            }
            Err(e) => self.resolve(now, None, e.into()),
        }
        timers
    }

    fn launch_inactive(&mut self, net: &mut Network, now: SimTime) -> FollowUps {
        if self.inactive_open >= self.cfg.inactive {
            return FollowUps::default();
        }
        let host = self.next_inactive_host();
        match net.connect(now, host, self.server, INACTIVE_EXTRA_DELAY) {
            Ok(conn) => {
                self.inactive_open += 1;
                let c = ClientConn {
                    started: now,
                    state: State::Held,
                };
                self.conn_insert(conn, c);
                FollowUps::default()
            }
            // Retry shortly; the population must stay constant.
            Err(_) => FollowUps::one(now + RETRY_DELAY, LoadTimer::ReopenInactive),
        }
    }

    /// Settles one active attempt: the only place `replies`, `errors`
    /// and `last_resolution` move. `conn` is the tracked connection, if
    /// the attempt got one; it leaves the table here, so no later event
    /// can resolve the same attempt again.
    fn resolve(&mut self, now: SimTime, conn: Option<ConnId>, outcome: Outcome) {
        let removed = conn.and_then(|id| self.conn_remove(id));
        match outcome {
            Outcome::Reply => {
                let c = removed.expect("invariant: a reply arrives on a tracked connection");
                self.replies += 1;
                self.sampler.record(now);
                let ms = now.saturating_duration_since(c.started).as_nanos() as f64 / 1e6;
                self.latencies_ms.add(ms);
            }
            Outcome::Timeout => self.errors.timeouts += 1,
            Outcome::Refused => self.errors.refused += 1,
            Outcome::PortsExhausted => self.errors.ports_exhausted += 1,
            Outcome::FdShortage => self.errors.fd_shortage += 1,
            Outcome::Reset => self.errors.resets += 1,
        }
        self.last_resolution = now;
    }

    /// Drops a `Held` connection and schedules its replacement at `at`,
    /// keeping the inactive population constant (§5). Resolves
    /// nothing: inactive connections are not attempts.
    fn reopen(&mut self, conn: ConnId, at: SimTime) -> FollowUps {
        self.conn_remove(conn);
        self.inactive_open -= 1;
        FollowUps::one(at, LoadTimer::ReopenInactive)
    }

    /// Routes a network notification; returns follow-up timers.
    pub fn on_net(&mut self, net: &mut Network, now: SimTime, notify: &NetNotify) -> FollowUps {
        match *notify {
            NetNotify::ConnectDone { ep } if ep.side == Side::Client => self.on_connected(now, ep),
            NetNotify::ConnectFailed { conn, reason, .. } => self.on_lost(now, conn, reason.into()),
            NetNotify::Readable { ep } if ep.side == Side::Client => {
                self.drain(net, ep);
                FollowUps::default()
            }
            NetNotify::ConnReset { ep } if ep.side == Side::Client => {
                self.on_lost(now, ep.conn, Outcome::Reset)
            }
            // A full close of a still-tracked connection (e.g. an
            // inactive one closed cleanly) is handled like a peer close.
            NetNotify::PeerClosed { ep } | NetNotify::ConnClosed { ep }
                if ep.side == Side::Client =>
            {
                self.on_peer_closed(net, now, ep)
            }
            _ => FollowUps::default(),
        }
    }

    fn on_connected(&mut self, now: SimTime, ep: EndpointId) -> FollowUps {
        let Some(c) = self.conn_get_mut(ep.conn) else {
            return FollowUps::default();
        };
        if c.state != State::Connecting {
            return FollowUps::default();
        }
        // Real clients take a scheduling quantum to issue the write.
        c.state = State::Turnaround;
        FollowUps::one(now + self.cfg.client_think, LoadTimer::SendRequest(ep.conn))
    }

    /// The connection failed or was reset under us: an active attempt
    /// resolves as `outcome`, a held one is replaced.
    fn on_lost(&mut self, now: SimTime, conn: ConnId, outcome: Outcome) -> FollowUps {
        match self.conn_get(conn).map(|c| c.state) {
            Some(State::Held) => return self.reopen(conn, now + RETRY_DELAY),
            Some(_) => self.resolve(now, Some(conn), outcome),
            None => {}
        }
        FollowUps::default()
    }

    fn drain(&mut self, net: &mut Network, ep: EndpointId) {
        let Some(c) = self.conn_get_mut(ep.conn) else {
            return;
        };
        // Discarding read: the client only ever inspects the status-line
        // prefix, so the payload is never materialised. Every tracked
        // socket is drained, whatever its state: the receive queues are
        // network state, and network state feeds every probe digest.
        let Ok(sum) = net.recv_discard(ep, usize::MAX) else {
            return;
        };
        if let State::AwaitingReply { got, ok_prefix } = &mut c.state {
            if ok_prefix.is_none() && sum.len >= 12 {
                *ok_prefix = Some(sum.prefix() == b"HTTP/1.0 200");
            }
            *got += sum.len;
        }
    }

    fn on_peer_closed(&mut self, net: &mut Network, now: SimTime, ep: EndpointId) -> FollowUps {
        // Drain whatever arrived with the FIN.
        self.drain(net, ep);
        let Some(state) = self.conn_get(ep.conn).map(|c| c.state) else {
            return FollowUps::default();
        };
        let _ = net.close(now, ep);
        let outcome = match state {
            // Server timed us out: reopen to keep the population
            // constant (§5).
            State::Held => return self.reopen(ep.conn, now + REOPEN_DELAY),
            State::AwaitingReply {
                got,
                ok_prefix: Some(true),
            } if got > 0 => Outcome::Reply,
            // Closed without a usable response (e.g. idle-closed by an
            // overloaded server): a timeout-class error.
            _ => Outcome::Timeout,
        };
        self.resolve(now, Some(ep.conn), outcome);
        FollowUps::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generator on host 0 against port 80 on host 1, driven by hand:
    /// the test plays the server through the network API directly.
    struct World {
        net: Network,
        lg: LoadGen,
        timers: Vec<(SimTime, LoadTimer)>,
    }

    impl World {
        fn new(cfg: LoadConfig, listen: bool) -> World {
            let mut net = Network::new(
                simnet::TcpConfig::default(),
                simnet::LinkConfig::default(),
                2,
            );
            if listen {
                net.listen(HostId(1), 80, 8).unwrap();
            }
            let mut lg = LoadGen::new(cfg, HostId(0), SockAddr::new(HostId(1), 80));
            let timers = lg.bootstrap(SimTime::ZERO);
            World { net, lg, timers }
        }

        /// One active attempt, no inactive load, requests from t = 0.
        fn one_request(listen: bool) -> World {
            let cfg = LoadConfig {
                total_conns: 1,
                rate: 1000.0,
                warmup: SimDuration::ZERO,
                ..LoadConfig::default()
            };
            World::new(cfg, listen)
        }

        /// Delivers segments and fires timers, in time order, up to `until`.
        fn run_until(&mut self, until: SimTime) {
            loop {
                let timer = self.timers.iter().map(|&(at, _)| at).min();
                let next = match (self.net.next_deadline(), timer) {
                    (Some(a), Some(b)) => a.min(b),
                    (a, b) => match a.or(b) {
                        Some(t) => t,
                        None => return,
                    },
                };
                if next > until {
                    return;
                }
                for n in self.net.advance(next) {
                    let follow = self.lg.on_net(&mut self.net, next, &n);
                    self.timers.extend(follow);
                }
                while let Some(i) = self.timers.iter().position(|&(at, _)| at <= next) {
                    let (_, t) = self.timers.remove(i);
                    let follow = self.lg.on_timer(&mut self.net, next, t);
                    self.timers.extend(follow);
                }
            }
        }

        fn server(conn: ConnId) -> EndpointId {
            EndpointId::new(conn, Side::Server)
        }

        /// `(replies, errors, in_flight)`, after checking that they
        /// account for every attempt.
        fn ledger(&self) -> (u64, u64, u64) {
            let lg = &self.lg;
            let row = (lg.replies, lg.errors.total(), lg.in_flight());
            assert_eq!(lg.attempted(), row.0 + row.1 + row.2, "ledger: {row:?}");
            row
        }
    }

    /// The first connection a fresh network hands out.
    const FIRST: ConnId = ConnId(0);

    #[test]
    fn client_conn_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Option<ClientConn>>(), 24);
    }

    #[test]
    fn refused_connect_resolves_once_as_refused() {
        let mut w = World::one_request(false);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.ledger(), (0, 1, 0));
        assert_eq!(w.lg.errors.refused, 1);
        assert!(w.lg.done());
    }

    #[test]
    fn silent_server_resolves_once_as_timeout() {
        let mut w = World::one_request(true);
        w.run_until(SimTime::from_millis(100));
        assert_eq!(w.ledger(), (0, 0, 1), "request sent, reply pending");
        assert!(!w.lg.done(), "arrivals finished, one attempt unresolved");
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.ledger(), (0, 1, 0));
        assert_eq!(w.lg.errors.timeouts, 1);
        assert!(w.lg.done());
    }

    #[test]
    fn request_waits_for_the_think_time() {
        let cfg = LoadConfig {
            total_conns: 1,
            rate: 1000.0,
            warmup: SimDuration::ZERO,
            client_think: SimDuration::from_millis(500),
            ..LoadConfig::default()
        };
        let mut w = World::new(cfg, true);
        let state = |w: &World| w.lg.conn_get(FIRST).map(|c| c.state);
        w.run_until(SimTime::from_millis(400));
        assert_eq!(state(&w), Some(State::Turnaround));
        assert_eq!(w.net.endpoint_state(World::server(FIRST)).readable_bytes, 0);
        w.run_until(SimTime::from_millis(600));
        assert!(matches!(
            state(&w),
            Some(State::AwaitingReply { got: 0, .. })
        ));
        assert!(
            w.net.endpoint_state(World::server(FIRST)).readable_bytes > 0,
            "request arrived"
        );
    }

    #[test]
    fn fd_limit_counts_as_fd_shortage() {
        let cfg = LoadConfig {
            total_conns: 3,
            rate: 1000.0,
            client_fd_limit: 1,
            warmup: SimDuration::ZERO,
            ..LoadConfig::default()
        };
        // The first launch occupies the single fd; the next two fail.
        let mut w = World::new(cfg, true);
        w.run_until(SimTime::from_millis(10));
        assert_eq!(w.ledger(), (0, 2, 1));
        assert_eq!(w.lg.errors.fd_shortage, 2);
    }

    #[test]
    fn reset_mid_transfer_resolves_once_as_reset() {
        let mut w = World::one_request(true);
        w.run_until(SimTime::from_millis(100));
        let now = SimTime::from_millis(100);
        w.net
            .send(now, World::server(FIRST), b"HTTP/1.0 200 OK\r\n")
            .unwrap();
        w.run_until(SimTime::from_millis(150));
        w.net
            .abort(SimTime::from_millis(150), World::server(FIRST))
            .unwrap();
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.ledger(), (0, 1, 0));
        assert_eq!(w.lg.errors.resets, 1);
    }

    #[test]
    fn close_before_reply_resolves_once_as_timeout() {
        let mut w = World::one_request(true);
        w.run_until(SimTime::from_millis(100));
        w.net
            .close(SimTime::from_millis(100), World::server(FIRST))
            .unwrap();
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.ledger(), (0, 1, 0));
        assert_eq!(w.lg.errors.timeouts, 1);
    }

    #[test]
    fn events_after_resolution_change_nothing() {
        let mut w = World::one_request(true);
        w.run_until(SimTime::from_millis(100));
        let now = SimTime::from_millis(100);
        let reply = b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi";
        w.net.send(now, World::server(FIRST), reply).unwrap();
        w.net.close(now, World::server(FIRST)).unwrap();
        w.run_until(SimTime::from_millis(500));
        assert_eq!(w.ledger(), (1, 0, 0));
        let resolved_at = w.lg.last_resolution;
        // A second close, a late reset and the pending timeout all find
        // the connection gone.
        let later = SimTime::from_secs(3);
        let ep = EndpointId::new(FIRST, Side::Client);
        for n in [NetNotify::PeerClosed { ep }, NetNotify::ConnReset { ep }] {
            assert_eq!(w.lg.on_net(&mut w.net, later, &n).into_iter().count(), 0);
        }
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.ledger(), (1, 0, 0));
        assert_eq!(w.lg.errors, ErrorCounts::default());
        assert_eq!(w.lg.last_resolution, resolved_at);
    }

    #[test]
    fn inactive_close_reopens_without_resolving() {
        let cfg = LoadConfig {
            total_conns: 0,
            inactive: 3,
            warmup: SimDuration::ZERO,
            ..LoadConfig::default()
        };
        let mut w = World::new(cfg, true);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.lg.conns.len(), 3);
        // The server idles one of them out.
        w.net
            .close(SimTime::from_secs(1), World::server(FIRST))
            .unwrap();
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.ledger(), (0, 0, 0));
        assert_eq!(w.lg.conns.len(), 3, "population restored");
        assert!(
            w.lg.conn_get(FIRST).is_none(),
            "replaced by a new connection"
        );
    }

    #[test]
    fn bootstrap_schedules_arrival_and_inactive() {
        let cfg = LoadConfig {
            inactive: 10,
            ..LoadConfig::default()
        };
        let mut lg = LoadGen::new(cfg, HostId(0), SockAddr::new(HostId(1), 80));
        let timers = lg.bootstrap(SimTime::ZERO);
        let arrivals = timers
            .iter()
            .filter(|(_, t)| *t == LoadTimer::NextArrival)
            .count();
        let reopens = timers
            .iter()
            .filter(|(_, t)| *t == LoadTimer::ReopenInactive)
            .count();
        assert_eq!(arrivals, 1);
        assert_eq!(reopens, 10);
    }

    #[test]
    fn gap_tracks_rate_with_jitter_bounds() {
        let cfg = LoadConfig {
            rate: 1000.0,
            jitter: 0.05,
            ..LoadConfig::default()
        };
        let mut lg = LoadGen::new(cfg, HostId(0), SockAddr::new(HostId(1), 80));
        for _ in 0..1000 {
            let g = lg.gap();
            let ns = g.as_nanos();
            assert!(
                (950_000..=1_050_000).contains(&ns),
                "gap {ns}ns out of bounds"
            );
        }
    }

    #[test]
    fn bursty_gap_lands_inside_bursts() {
        let cfg = LoadConfig {
            rate: 1000.0,
            jitter: 0.0,
            shape: LoadShape::Bursty {
                period: SimDuration::from_millis(100),
                duty: 0.5,
            },
            warmup: SimDuration::ZERO,
            ..LoadConfig::default()
        };
        let mut lg = LoadGen::new(cfg, HostId(0), SockAddr::new(HostId(1), 80));
        let mut at = SimTime::ZERO;
        let mut in_burst = 0;
        let n = 500;
        for _ in 0..n {
            at = lg.next_arrival_at(at);
            let phase = at.as_nanos() % 100_000_000;
            if phase < 50_000_000 {
                in_burst += 1;
            }
        }
        assert_eq!(in_burst, n, "every arrival falls inside the duty window");
    }
}
