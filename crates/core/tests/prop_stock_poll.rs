//! Property test: stock `poll()`'s incremental wait returns, charges
//! and registers what a full `sys_poll` does.
//!
//! `StockPollBackend::wait` evaluates only the entries whose readiness
//! may have changed (set or changed interest, kernel hints, entries
//! ready at the last wait) and stops at `max` ready; when it would
//! block, it unparks the wait-queue registrations the kernel kept from
//! its last sleep, edited as its array changed since. Every step is
//! applied to two worlds: one whose
//! waits go through the backend, and a twin whose waits are the
//! reference `sys_poll` over the same array. After every wait the
//! backend must return exactly the first `max` ready entries the twin
//! finds, for several values of `max`, and be charged what the twin is
//! charged; after every step the two kernels must have equal state
//! fingerprints, watcher counts, table sizes and charged CPU.
//!
//! The world is one server process with a listener, real connections
//! and real traffic: interest add, modify and remove (on open, closed
//! and never-opened fds), data arrival and partial or full read drains,
//! send-buffer fills that flip writability, peer close and reset, close
//! and abort of fds still in the set, and accepts that reuse their
//! numbers. One step delivers a full-close notification to the kernel
//! alone: the network always sends the peer-close notification first,
//! and the kernel's hints must not depend on that order. Each step's
//! last wait may block (`timeout_ms = -1`), so the next step's closes
//! can meet a live registration. Other steps call `sys_poll` on the
//! backend's own process over a different array, which must invalidate
//! the registrations the kernel keeps for the backend, or flood the
//! kernel's hint list past its capacity between two waits.
//!
//! The registry is unchecked, so the comparison here is this test's
//! own, not the debug-build auditor's.

use std::collections::BTreeMap;
use std::rc::Rc;

use devpoll::{
    settle, sys_poll, DevPollRegistry, EventBackend, PollFd, PollOutcome, StockPollBackend,
};
use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};
use simkernel::{CostModel, Fd, FileKind, Kernel, Pid, PollBits};
use simnet::{EndpointId, HostId, LinkConfig, NetNotify, Network, Side, SockAddr, TcpConfig};

const CLIENT: HostId = HostId(0);
const SERVER: HostId = HostId(1);

/// Interest targets: the listener, accepted connections, and numbers
/// past every open descriptor (`POLLNVAL` until an accept reuses them).
const FDS: i32 = 10;

const EVENTS: [PollBits; 4] = [
    PollBits::POLLIN,
    PollBits::POLLOUT,
    PollBits(PollBits::POLLIN.0 | PollBits::POLLOUT.0),
    PollBits::EMPTY,
];

/// The `max` values every step waits with, in this order: the early
/// stops leave candidates unevaluated for the waits after them. Only
/// the last wait may block.
const MAXES: [usize; 4] = [1, 2, 0, usize::MAX];

/// More hints than the kernel's list holds, so that a flood between
/// two waits overflows it.
const FLOOD: usize = 4097;

#[derive(Debug, Clone, Copy)]
enum Op {
    Connect,
    Accept,
    SetInterest(Fd, usize),
    RemoveInterest(Fd),
    ClientSend(usize, usize),
    Read(usize, usize),
    /// A write larger than the send buffer: writability falls, then
    /// returns as the client acknowledges.
    FillSendBuffer(usize),
    ClientClose(usize),
    ClientAbort(usize),
    Close(usize),
    Abort(usize),
    FullCloseNotice(usize),
    Advance(u64),
    /// `sys_poll` on the server process over the open connections a
    /// bit mask picks (`POLLIN` each), blocking or not: in the
    /// backend's world, a registration the backend did not make.
    SysPoll(u8, bool),
    /// [`FLOOD`] descriptors opened and closed, one close hint each.
    HintFlood,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..1).prop_map(|_| Op::Connect),
        (0u8..1).prop_map(|_| Op::Accept),
        (0..FDS, 0..EVENTS.len()).prop_map(|(fd, ev)| Op::SetInterest(fd, ev)),
        (0..FDS).prop_map(Op::RemoveInterest),
        (0usize..8, 1usize..600).prop_map(|(c, n)| Op::ClientSend(c, n)),
        (0usize..8, 0usize..2).prop_map(|(c, big)| Op::Read(c, big)),
        (0usize..8).prop_map(Op::FillSendBuffer),
        (0usize..8).prop_map(Op::ClientClose),
        (0usize..8).prop_map(Op::ClientAbort),
        (0usize..8).prop_map(Op::Close),
        (0usize..8).prop_map(Op::Abort),
        (0usize..8).prop_map(Op::FullCloseNotice),
        (1u64..30).prop_map(Op::Advance),
        (0u16..256, 0u8..2).prop_map(|(mask, block)| Op::SysPoll(mask as u8, block == 1)),
        // A flood is slow to run: this arm gives one a quarter of the time.
        (0u64..4).prop_map(|k| if k == 0 {
            Op::HintFlood
        } else {
            Op::Advance(k * 7)
        }),
    ]
}

/// One step: an operation, then the waits, the last of them blocking
/// when the flag is set.
fn step() -> impl Strategy<Value = (Op, bool)> {
    (op(), 0u8..2).prop_map(|(op, block)| (op, block == 1))
}

/// One accepted connection.
struct Conn {
    /// The server's descriptor; `None` once closed or aborted.
    fd: Option<Fd>,
    server: EndpointId,
    client: EndpointId,
}

/// One simulated host pair with a server process: every operation
/// except a wait is applied to each world of a [`Twins`] alike.
struct World {
    net: Network,
    kernel: Kernel,
    registry: DevPollRegistry,
    pid: Pid,
    lfd: Fd,
    now: SimTime,
    conns: Vec<Conn>,
    reply: Rc<Vec<u8>>,
}

impl World {
    fn new() -> World {
        let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
        let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
        let pid = kernel.spawn_default();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        World {
            net,
            kernel,
            registry: DevPollRegistry::with_audit(false),
            pid,
            lfd,
            now: SimTime::ZERO,
            conns: Vec::new(),
            reply: Rc::new(vec![b'x'; 200_000]),
        }
    }

    fn advance(&mut self, ms: u64) {
        let until = self.now + SimDuration::from_millis(ms);
        settle(
            &mut self.net,
            &mut self.kernel,
            &mut self.registry,
            self.now,
            until,
            |_, _, _, _, _| {},
        );
        self.now = until;
    }

    /// Runs `f` inside one batch of the server process.
    fn batch<T>(&mut self, f: impl FnOnce(&mut World) -> T) -> T {
        self.kernel.begin_batch(self.now, self.pid);
        let out = f(self);
        self.kernel.end_batch(self.now, self.pid);
        out
    }

    fn conn(&self, i: usize) -> Option<&Conn> {
        if self.conns.is_empty() {
            return None;
        }
        self.conns.get(i % self.conns.len())
    }

    /// CPU charged so far, process and softirq.
    fn charged(&self) -> SimDuration {
        self.kernel.cpu().process_total() + self.kernel.cpu().softirq_total()
    }

    /// Applies every operation but the interest ones, which only the
    /// backend's world has. Returns what a `SysPoll` returned.
    fn apply(&mut self, op: Op) -> Option<PollOutcome> {
        match op {
            Op::Connect => {
                let _ = self.net.connect(
                    self.now,
                    CLIENT,
                    SockAddr::new(SERVER, 80),
                    SimDuration::ZERO,
                );
            }
            Op::Accept => {
                let (now, pid, lfd) = (self.now, self.pid, self.lfd);
                let accepted = self.batch(|w| w.kernel.sys_accept(&mut w.net, now, pid, lfd));
                if let Ok(fd) = accepted {
                    let server = self.kernel.endpoint_of(pid, fd).unwrap();
                    self.conns.push(Conn {
                        fd: Some(fd),
                        server,
                        client: EndpointId::new(server.conn, Side::Client),
                    });
                }
            }
            Op::SetInterest(..) | Op::RemoveInterest(_) => {}
            Op::ClientSend(i, n) => {
                if let Some(c) = self.conn(i) {
                    let client = c.client;
                    let _ = self.net.send(self.now, client, &vec![b'r'; n]);
                }
            }
            Op::Read(i, big) => {
                if let Some(fd) = self.conn(i).and_then(|c| c.fd) {
                    let max = if big == 1 { 1 << 16 } else { 7 };
                    let pid = self.pid;
                    self.batch(|w| {
                        let mut buf = Vec::new();
                        let _ = w.kernel.sys_read_into(&mut w.net, pid, fd, max, &mut buf);
                    });
                }
            }
            Op::FillSendBuffer(i) => {
                if let Some(fd) = self.conn(i).and_then(|c| c.fd) {
                    let (now, pid, reply) = (self.now, self.pid, Rc::clone(&self.reply));
                    self.batch(|w| {
                        let _ = w.kernel.sys_write(&mut w.net, now, pid, fd, &reply, 0);
                    });
                }
            }
            Op::ClientClose(i) => {
                if let Some(c) = self.conn(i) {
                    let client = c.client;
                    let _ = self.net.close(self.now, client);
                }
            }
            Op::ClientAbort(i) => {
                if let Some(c) = self.conn(i) {
                    let client = c.client;
                    let _ = self.net.abort(self.now, client);
                }
            }
            Op::Close(i) | Op::Abort(i) => {
                let ix = self.conn(i).map(|_| i % self.conns.len())?;
                let fd = self.conns[ix].fd.take()?;
                let (now, pid) = (self.now, self.pid);
                self.batch(|w| {
                    if matches!(op, Op::Close(_)) {
                        w.kernel.sys_close(&mut w.net, now, pid, fd).unwrap();
                    } else {
                        w.kernel.sys_abort(&mut w.net, now, pid, fd).unwrap();
                    }
                });
            }
            Op::FullCloseNotice(i) => {
                if let Some(c) = self.conn(i) {
                    let ep = c.server;
                    self.kernel.on_net(self.now, &NetNotify::ConnClosed { ep });
                }
            }
            Op::Advance(ms) => self.advance(ms),
            Op::SysPoll(mask, block) => {
                let mut fds: Vec<PollFd> = (0..8)
                    .filter(|i| mask >> i & 1 == 1)
                    .filter_map(|i| self.conn(i).and_then(|c| c.fd))
                    .map(|fd| PollFd::new(fd, PollBits::POLLIN))
                    .collect();
                let (pid, timeout) = (self.pid, if block { -1 } else { 0 });
                return Some(self.batch(|w| sys_poll(&mut w.kernel, pid, &mut fds, timeout)));
            }
            Op::HintFlood => {
                let pid = self.pid;
                for _ in 0..FLOOD {
                    let fd = self.kernel.alloc_fd(pid, FileKind::DevPoll(0)).unwrap();
                    self.kernel.close_fd_raw(pid, fd).unwrap();
                }
            }
        }
        None
    }
}

/// The backend's world and its `sys_poll` twin, under one interest set.
struct Twins {
    a: World,
    b: World,
    backend: StockPollBackend,
    /// The reference pollfd array's interest, by fd.
    interest: BTreeMap<Fd, PollBits>,
}

impl Twins {
    fn new() -> Twins {
        let (a, b) = (World::new(), World::new());
        let mut t = Twins {
            backend: StockPollBackend::new(),
            interest: BTreeMap::new(),
            a,
            b,
        };
        let lfd = t.a.lfd;
        t.set_interest(lfd, PollBits::POLLIN);
        t
    }

    fn set_interest(&mut self, fd: Fd, events: PollBits) {
        let a = &mut self.a;
        self.backend
            .set_interest(&mut a.kernel, &mut a.registry, a.pid, fd, events)
            .unwrap();
        self.interest.insert(fd, events);
    }

    /// Applies `op` to both worlds; returns what a `SysPoll` returned.
    fn apply(&mut self, op: Op) -> Option<PollOutcome> {
        match op {
            Op::SetInterest(fd, ev) => self.set_interest(fd, EVENTS[ev]),
            Op::RemoveInterest(fd) => {
                let a = &mut self.a;
                self.backend
                    .remove_interest(&mut a.kernel, &mut a.registry, a.pid, fd)
                    .unwrap();
                self.interest.remove(&fd);
            }
            _ => {}
        }
        let got = self.a.apply(op);
        assert_eq!(self.b.apply(op), got, "{op:?}: the twins diverged");
        got
    }

    /// Waits once per value of `max`, the backend in one world and
    /// `sys_poll` in the other; the last wait blocks if `block`.
    /// Returns whether it blocked.
    fn check(&mut self, step: usize, op: Op, block: bool) -> bool {
        let mut blocked = false;
        for (i, max) in MAXES.into_iter().enumerate() {
            let timeout = if block && i + 1 == MAXES.len() { -1 } else { 0 };
            let mut reference: Vec<PollFd> = self
                .interest
                .iter()
                .map(|(&fd, &ev)| PollFd::new(fd, ev))
                .collect();
            let backend = &mut self.backend;
            let (got, cost) = self.a.batch(|w| {
                let t0 = w.kernel.batch_acc(w.pid);
                let mut got = Vec::new();
                backend
                    .wait(
                        &mut w.kernel,
                        &mut w.registry,
                        w.pid,
                        max,
                        timeout,
                        &mut got,
                    )
                    .unwrap();
                (got, w.kernel.batch_acc(w.pid) - t0)
            });
            let (outcome, ref_cost) = self.b.batch(|w| {
                let t0 = w.kernel.batch_acc(w.pid);
                let outcome = sys_poll(&mut w.kernel, w.pid, &mut reference, timeout);
                (outcome, w.kernel.batch_acc(w.pid) - t0)
            });
            let want: Vec<PollFd> = reference
                .iter()
                .filter(|f| !f.revents.is_empty())
                .take(max)
                .copied()
                .collect();
            assert_eq!(
                got, want,
                "step {step} ({op:?}), max {max}: the incremental wait disagrees with sys_poll"
            );
            assert_eq!(
                cost, ref_cost,
                "step {step} ({op:?}), max {max}: the wait is charged unlike sys_poll"
            );
            blocked = outcome == PollOutcome::WouldBlock;
        }
        self.check_twins(step, op);
        blocked
    }

    /// The two kernels are in the same state, registrations included,
    /// hold tables of the same size and have charged the same CPU.
    fn check_twins(&self, step: usize, op: Op) {
        let (a, b) = (&self.a, &self.b);
        assert_eq!(
            a.kernel.watch_count(a.pid),
            b.kernel.watch_count(b.pid),
            "step {step} ({op:?}): the backend's registrations differ from sys_poll's"
        );
        assert_eq!(
            a.kernel.state_fingerprint(),
            b.kernel.state_fingerprint(),
            "step {step} ({op:?}): the backend's kernel state differs from sys_poll's"
        );
        assert_eq!(
            a.kernel.mem_bytes(),
            b.kernel.mem_bytes(),
            "step {step} ({op:?}): the backend's kernel tables differ in size from sys_poll's"
        );
        assert_eq!(
            a.charged(),
            b.charged(),
            "step {step} ({op:?}): the backend's world charged unlike sys_poll's"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_wait_matches_the_full_scan(steps in prop::collection::vec(step(), 1..120)) {
        let mut t = Twins::new();
        t.check(0, Op::Advance(0), false);
        for (i, (op, block)) in steps.into_iter().enumerate() {
            t.apply(op);
            t.check_twins(i + 1, op);
            t.check(i + 1, op, block);
        }
    }
}

/// The generated worlds reach the states the property is about: closed
/// fds still in the set, reused fd numbers, hangups and resets, full
/// send buffers, more entries ready than the early stops take, waits
/// that block, closes that meet a blocked wait's registrations,
/// `sys_poll` registrations over the backend's, and overflowed hints.
#[test]
fn generated_worlds_cover_the_interesting_states() {
    let mut seen_counts = BTreeMap::<&str, usize>::new();
    let mut count = |what: &'static str, n: usize| *seen_counts.entry(what).or_default() += n;
    for case in 0..128u32 {
        let mut rng = proptest::Rng::for_case("coverage", case);
        let steps = Strategy::generate(&prop::collection::vec(step(), 1..120), &mut rng);
        let mut t = Twins::new();
        let mut blocked = t.check(0, Op::Advance(0), false);
        let mut registered = false;
        let mut seen = std::collections::BTreeSet::new();
        for (i, (op, block)) in steps.into_iter().enumerate() {
            let accepted = t.a.conns.len();
            let closing = match op {
                Op::Close(c) | Op::Abort(c) => t.a.conn(c).and_then(|c| c.fd),
                _ => None,
            }
            .filter(|fd| t.interest.contains_key(fd));
            let outcome = t.apply(op);
            if let Some(fd) = t.a.conns.get(accepted).and_then(|c| c.fd) {
                if !seen.insert(fd) {
                    count("accepts reusing an fd", 1);
                }
            }
            if closing.is_some() {
                count("closes and aborts of fds in the set", 1);
                if blocked {
                    count("closes meeting a blocked wait's registrations", 1);
                }
            }
            if registered
                && outcome == Some(PollOutcome::WouldBlock)
                && t.a.kernel.watch_count(t.a.pid) > 0
            {
                count("sys_poll registrations over the backend's", 1);
            }
            if matches!(op, Op::HintFlood) {
                count("overflowed hint lists", 1);
            }
            blocked = t.check(i + 1, op, block);
            registered |= blocked;
            count("blocked waits", usize::from(blocked));

            let w = &t.a;
            let ready: Vec<PollBits> = t
                .interest
                .iter()
                .map(|(&fd, &ev)| {
                    w.kernel.readiness(w.pid, fd) & (ev | PollBits::always_reported())
                })
                .filter(|r| !r.is_empty())
                .collect();
            for (what, bit) in [
                ("POLLNVAL results", PollBits::POLLNVAL),
                ("POLLHUP results", PollBits::POLLHUP),
                ("POLLERR results", PollBits::POLLERR),
            ] {
                count(what, ready.iter().filter(|r| r.contains(bit)).count());
            }
            if ready.len() > 2 {
                count("scans with more than two ready", 1);
            }
            // An open connection that asks for POLLOUT and gets nothing:
            // its send buffer is full.
            let full = w
                .conns
                .iter()
                .filter_map(|c| c.fd)
                .filter(|fd| {
                    t.interest
                        .get(fd)
                        .is_some_and(|ev| ev.contains(PollBits::POLLOUT))
                        && w.kernel.readiness(w.pid, *fd).is_empty()
                })
                .count();
            count("full send buffers", full);
        }
    }
    for what in [
        "accepts reusing an fd",
        "POLLNVAL results",
        "POLLHUP results",
        "POLLERR results",
        "scans with more than two ready",
        "full send buffers",
        "blocked waits",
        "closes and aborts of fds in the set",
        "closes meeting a blocked wait's registrations",
        "sys_poll registrations over the backend's",
        "overflowed hint lists",
    ] {
        let n = seen_counts.get(what).copied().unwrap_or(0);
        assert!(n > 0, "no {what} in 128 generated worlds");
    }
}
