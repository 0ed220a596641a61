//! Property test: stock `poll()`'s incremental wait returns what a full
//! scan returns.
//!
//! `StockPollBackend::wait` evaluates only the entries whose readiness
//! may have changed (set or changed interest, kernel hints, entries
//! ready at the last wait) and stops at `max` ready. After every step
//! of a random world, it must return exactly the first `max` ready
//! entries that the reference `sys_poll` finds over the same array, for
//! several values of `max`, and be charged exactly what the reference
//! is charged.
//!
//! The world is one server process with a listener, real connections
//! and real traffic: interest add, modify and remove (on open, closed
//! and never-opened fds), data arrival and partial or full read drains,
//! send-buffer fills that flip writability, peer close and reset, close
//! and abort of fds still in the set, and accepts that reuse their
//! numbers. One step also delivers a full-close notification to the
//! kernel alone: the network always sends the peer-close notification
//! first, and the kernel's hints must not depend on that order.
//!
//! The registry is unchecked, so the comparison here is this test's
//! own, not the debug-build auditor's.

use std::collections::BTreeMap;
use std::rc::Rc;

use devpoll::{settle, sys_poll, DevPollRegistry, EventBackend, PollFd, StockPollBackend};
use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};
use simkernel::{CostModel, Fd, Kernel, Pid, PollBits};
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
/// stops leave candidates unevaluated for the waits after them.
const MAXES: [usize; 4] = [1, 2, 0, usize::MAX];

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
        (1u64..30).prop_map(Op::Advance),
    ]
}

/// One accepted connection.
struct Conn {
    /// The server's descriptor; `None` once closed or aborted.
    fd: Option<Fd>,
    server: EndpointId,
    client: EndpointId,
}

struct World {
    net: Network,
    kernel: Kernel,
    registry: DevPollRegistry,
    pid: Pid,
    lfd: Fd,
    now: SimTime,
    conns: Vec<Conn>,
    backend: StockPollBackend,
    /// The reference pollfd array's interest, by fd.
    interest: BTreeMap<Fd, PollBits>,
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
        let mut w = World {
            net,
            kernel,
            registry: DevPollRegistry::with_audit(false),
            pid,
            lfd,
            now: SimTime::ZERO,
            conns: Vec::new(),
            backend: StockPollBackend::new(),
            interest: BTreeMap::new(),
            reply: Rc::new(vec![b'x'; 200_000]),
        };
        w.set_interest(lfd, PollBits::POLLIN);
        w
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

    fn set_interest(&mut self, fd: Fd, events: PollBits) {
        self.backend
            .set_interest(&mut self.kernel, &mut self.registry, self.pid, fd, events)
            .unwrap();
        self.interest.insert(fd, events);
    }

    fn conn(&self, i: usize) -> Option<&Conn> {
        if self.conns.is_empty() {
            return None;
        }
        self.conns.get(i % self.conns.len())
    }

    fn apply(&mut self, op: Op) {
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
            Op::SetInterest(fd, ev) => self.set_interest(fd, EVENTS[ev]),
            Op::RemoveInterest(fd) => {
                self.backend
                    .remove_interest(&mut self.kernel, &mut self.registry, self.pid, fd)
                    .unwrap();
                self.interest.remove(&fd);
            }
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
                let Some(ix) = self.conn(i).map(|_| i % self.conns.len()) else {
                    return;
                };
                let Some(fd) = self.conns[ix].fd.take() else {
                    return;
                };
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
        }
    }

    /// Waits once per value of `max`, each against the reference scan
    /// of the same array at the same instant.
    fn check(&mut self, step: usize, op: Op) {
        for max in MAXES {
            let mut reference: Vec<PollFd> = self
                .interest
                .iter()
                .map(|(&fd, &ev)| PollFd::new(fd, ev))
                .collect();
            let pid = self.pid;
            let (got, want, cost, ref_cost) = self.batch(|w| {
                let t0 = w.kernel.batch_acc(pid);
                let mut got = Vec::new();
                w.backend
                    .wait(&mut w.kernel, &mut w.registry, pid, max, 0, &mut got)
                    .unwrap();
                let t1 = w.kernel.batch_acc(pid);
                sys_poll(&mut w.kernel, pid, &mut reference, 0);
                let t2 = w.kernel.batch_acc(pid);
                let want: Vec<PollFd> = reference
                    .iter()
                    .filter(|f| !f.revents.is_empty())
                    .take(max)
                    .copied()
                    .collect();
                (got, want, t1 - t0, t2 - t1)
            });
            assert_eq!(
                got, want,
                "step {step} ({op:?}), max {max}: the incremental wait disagrees with sys_poll"
            );
            assert_eq!(
                cost, ref_cost,
                "step {step} ({op:?}), max {max}: the wait is charged unlike sys_poll"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_wait_matches_the_full_scan(ops in prop::collection::vec(op(), 1..120)) {
        let mut w = World::new();
        w.check(0, Op::Advance(0));
        for (step, op) in ops.into_iter().enumerate() {
            w.apply(op);
            w.check(step + 1, op);
        }
    }
}

/// The generated worlds reach the states the property is about: closed
/// fds still in the set, reused fd numbers, hangups and resets, full
/// send buffers, and more entries ready than the early stops take.
#[test]
fn generated_worlds_cover_the_interesting_states() {
    let (mut reused, mut nval, mut hup, mut err, mut early, mut full) = (0, 0, 0, 0, 0, 0);
    for case in 0..128u32 {
        let mut rng = proptest::Rng::for_case("coverage", case);
        let ops = Strategy::generate(&prop::collection::vec(op(), 1..120), &mut rng);
        let mut w = World::new();
        let mut seen = std::collections::BTreeSet::new();
        for op in ops {
            let accepted = w.conns.len();
            w.apply(op);
            if let Some(fd) = w.conns.get(accepted).and_then(|c| c.fd) {
                if !seen.insert(fd) {
                    reused += 1;
                }
            }
            let mut fds: Vec<PollFd> = w
                .interest
                .iter()
                .map(|(&fd, &ev)| PollFd::new(fd, ev))
                .collect();
            let pid = w.pid;
            w.batch(|w| sys_poll(&mut w.kernel, pid, &mut fds, 0));
            let ready: Vec<PollBits> = fds
                .iter()
                .map(|f| f.revents)
                .filter(|r| !r.is_empty())
                .collect();
            nval += ready
                .iter()
                .filter(|r| r.contains(PollBits::POLLNVAL))
                .count();
            hup += ready
                .iter()
                .filter(|r| r.contains(PollBits::POLLHUP))
                .count();
            err += ready
                .iter()
                .filter(|r| r.contains(PollBits::POLLERR))
                .count();
            if ready.len() > 2 {
                early += 1;
            }
            // An open connection that asks for POLLOUT and gets nothing:
            // its send buffer is full.
            full += w
                .conns
                .iter()
                .filter_map(|c| c.fd)
                .filter(|fd| {
                    fds.iter().any(|f| {
                        f.fd == *fd && f.events.contains(PollBits::POLLOUT) && f.revents.is_empty()
                    })
                })
                .count();
        }
    }
    for (what, n) in [
        ("accepts reusing an fd", reused),
        ("POLLNVAL results", nval),
        ("POLLHUP results", hup),
        ("POLLERR results", err),
        ("scans with more than two ready", early),
        ("full send buffers", full),
    ] {
        assert!(n > 0, "no {what} in 128 generated worlds");
    }
}
