//! The paper's per-call cost ablations, pinned exactly: what one
//! event-collection call charges the simulated 400 MHz K6-2, per
//! mechanism and interest-set size.
//!
//! * §3.2 — stock `poll()` against `DP_POLL` with driver hints, without
//!   them, and with one hint marked;
//! * §3.3 — result delivery by copy-out against the shared `mmap` area;
//! * §6 — a separate `write()` + `DP_POLL` against the combined
//!   operation.
//!
//! Charged costs are integer nanoseconds from `CostModel`, so they are
//! the same on every host and in debug and release builds. A change to
//! the cost model or the scan paths fails the pinned tables, naming
//! each row that moved; the shape tests say whether the paper's
//! argument still holds. EXPERIMENTS.md "Microbenchmarks" quotes these
//! tables.

use std::sync::OnceLock;

use scalable_net_io::devpoll::{self, sys_poll, DevPollConfig, DevPollRegistry, DvPoll, PollFd};
use scalable_net_io::simcore::time::{SimDuration, SimTime};
use scalable_net_io::simkernel::{CostModel, Fd, Kernel, Pid, PollBits};
use scalable_net_io::simnet::{HostId, LinkConfig, Network, SockAddr, TcpConfig};

/// The scan table's columns, in order.
const COLUMNS: [&str; 4] = [
    "stock poll()",
    "DP_POLL (hints)",
    "DP_POLL (none)",
    "DP_POLL 1-hint",
];

/// Charged nanoseconds per call at each interest-set size, one entry
/// per column of [`COLUMNS`].
const SCAN: [(usize, [u64; 4]); 5] = [
    (16, [170_600, 7_340, 166_000, 17_340]),
    (64, [667_400, 11_180, 646_000, 21_180]),
    (256, [2_654_600, 26_540, 2_566_000, 36_540]),
    (501, [5_190_350, 46_140, 5_016_000, 56_140]),
    (1024, [10_603_400, 87_980, 10_246_000, 97_980]),
];

/// `DP_POLL` over 256 interests with 64 ready: copy-out, then `mmap`.
const DELIVERY: [(&str, u64); 2] = [
    ("user-buffer copy-out", 2_595_756),
    ("shared mmap area", 668_460),
];

/// One interest update plus `DP_POLL` on a device with no other
/// interests: separate `write()` + ioctl, then the combined operation.
const UPDATE: [(&str, u64); 2] = [
    ("separate write+ioctl", 21_564),
    ("combined write+ioctl", 16_564),
];

struct World {
    net: Network,
    kernel: Kernel,
    registry: DevPollRegistry,
    pid: Pid,
    fds: Vec<Fd>,
}

/// When every measured call runs: long after the connections settled.
const NOW: SimTime = SimTime::from_secs(100);

/// A server process holding `n` accepted, idle connections.
fn world_with_conns(n: usize) -> World {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let mut kernel = Kernel::new(HostId(1), CostModel::k6_2_400mhz());
    let pid = kernel.spawn(n + 16, 1024);
    kernel.begin_batch(SimTime::ZERO, pid);
    let lfd = kernel.sys_listen(&mut net, pid, 80, 8192).unwrap();
    kernel.end_batch(SimTime::ZERO, pid);
    let registry = DevPollRegistry::new();
    let mut w = World {
        net,
        kernel,
        registry,
        pid,
        fds: Vec::with_capacity(n),
    };
    let mut now = SimTime::ZERO;
    for i in 0..n {
        let at = SimTime::from_micros(i as u64 * 50).max(now);
        let server = SockAddr::new(HostId(1), 80);
        w.net
            .connect(at, HostId(0), server, SimDuration::ZERO)
            .unwrap();
        now = w.settle(now);
        w.kernel.begin_batch(now, pid);
        w.fds
            .push(w.kernel.sys_accept(&mut w.net, now, pid, lfd).unwrap());
        w.kernel.end_batch(now, pid);
    }
    w
}

impl World {
    /// Runs every pending network and kernel deadline, routing readiness
    /// to the `/dev/poll` hint path; returns the last instant processed,
    /// or `now`.
    fn settle(&mut self, now: SimTime) -> SimTime {
        let (net, kernel, registry) = (&mut self.net, &mut self.kernel, &mut self.registry);
        devpoll::settle(net, kernel, registry, now, SimTime::MAX, |_, _, _, _, _| {})
    }

    /// Runs `f` inside one batch and returns the nanoseconds it charged.
    fn charged(&mut self, f: impl FnOnce(&mut World)) -> u64 {
        self.kernel.begin_batch(NOW, self.pid);
        f(self);
        let cost = self
            .kernel
            .process(self.pid)
            .batch_acc
            .expect("batch in progress");
        self.kernel.end_batch(NOW, self.pid);
        cost.as_nanos()
    }

    /// Opens a `/dev/poll` device with POLLIN interest in the first
    /// `interests` connections; the setup's own cost is not measured.
    fn open_devpoll(&mut self, hints: bool, interests: usize) -> Fd {
        self.kernel.begin_batch(NOW, self.pid);
        let config = DevPollConfig {
            hints,
            ..DevPollConfig::default()
        };
        let dpfd = self
            .registry
            .open(&mut self.kernel, self.pid, config)
            .unwrap();
        let entries = pollin(&self.fds[..interests]);
        self.registry
            .write(&mut self.kernel, self.pid, dpfd, &entries)
            .unwrap();
        self.kernel.end_batch(NOW, self.pid);
        dpfd
    }

    fn dp_poll(&mut self, dpfd: Fd, arg: DvPoll) {
        let _ = self.registry.dp_poll(&mut self.kernel, self.pid, dpfd, arg);
    }
}

fn pollin(fds: &[Fd]) -> Vec<PollFd> {
    fds.iter()
        .map(|&fd| PollFd::new(fd, PollBits::POLLIN))
        .collect()
}

/// Measures one row of the scan table at `n` interests.
fn scan_row(n: usize) -> [u64; 4] {
    let mut w = world_with_conns(n);
    let mut pollfds = pollin(&w.fds);
    let stock = w.charged(|w| {
        let _ = sys_poll(&mut w.kernel, w.pid, &mut pollfds, 0);
    });
    let dp_hints = w.open_devpoll(true, n);
    let dp_none = w.open_devpoll(false, n);
    // Settle the fresh-interest hints: the steady state has none marked.
    w.charged(|w| w.dp_poll(dp_hints, DvPoll::into_user_buffer(64, 0)));
    let hints = w.charged(|w| w.dp_poll(dp_hints, DvPoll::into_user_buffer(64, 0)));
    let none = w.charged(|w| w.dp_poll(dp_none, DvPoll::into_user_buffer(64, 0)));
    // One hint marked: the incremental revalidation cost.
    let fd0 = w.fds[0];
    let one = w.charged(|w| {
        w.registry.on_fd_event(&mut w.kernel, NOW, w.pid, fd0);
        w.dp_poll(dp_hints, DvPoll::into_user_buffer(64, 0));
    });
    [stock, hints, none, one]
}

/// The scan table, measured once per test binary.
fn measured_scan() -> &'static [(usize, [u64; 4])] {
    static TABLE: OnceLock<Vec<(usize, [u64; 4])>> = OnceLock::new();
    TABLE.get_or_init(|| SCAN.iter().map(|&(n, _)| (n, scan_row(n))).collect())
}

/// Copy-out then `mmap` delivery of 64 ready results over 256 interests.
fn measured_delivery() -> [u64; 2] {
    let mut w = world_with_conns(256);
    let dpfd = w.open_devpoll(true, 256);
    w.kernel.begin_batch(NOW, w.pid);
    w.registry
        .dp_alloc_mmap(&mut w.kernel, w.pid, dpfd, 512)
        .unwrap();
    w.kernel.end_batch(NOW, w.pid);
    // Make the first 64 connections readable.
    for &fd in &w.fds[..64] {
        let peer = w.kernel.endpoint_of(w.pid, fd).unwrap().peer();
        let _ = w.net.send(NOW, peer, b"x");
    }
    w.settle(NOW);
    let copyout = w.charged(|w| w.dp_poll(dpfd, DvPoll::into_user_buffer(64, 0)));
    // All 64 are cached-ready now, so this scan revalidates them too.
    let mmap = w.charged(|w| w.dp_poll(dpfd, DvPoll::into_mmap(64, 0)));
    [copyout, mmap]
}

/// One interest update plus a poll: separate, then combined.
fn measured_update() -> [u64; 2] {
    let mut w = world_with_conns(64);
    let dpfd = w.open_devpoll(true, 0);
    let upd = pollin(&w.fds[..1]);
    let separate = w.charged(|w| {
        let _ = w.registry.write(&mut w.kernel, w.pid, dpfd, &upd);
        w.dp_poll(dpfd, DvPoll::into_user_buffer(8, 0));
    });
    let combined = w.charged(|w| {
        let _ = w.registry.write_combined(&mut w.kernel, w.pid, dpfd, &upd);
        w.dp_poll(dpfd, DvPoll::into_user_buffer(8, 0));
    });
    [separate, combined]
}

/// Panics with every row whose charged cost differs from its pin;
/// `rows` yields (row, charged, pinned).
fn assert_pinned(table: &str, rows: impl IntoIterator<Item = (String, u64, u64)>) {
    let moved: Vec<String> = rows
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(row, got, want)| format!("  {row}: charged {got} ns, pinned {want} ns"))
        .collect();
    assert!(
        moved.is_empty(),
        "{table}: {} row(s) moved\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// Pairs each named pin with its measured cost.
fn rows(pins: [(&str, u64); 2], got: [u64; 2]) -> impl Iterator<Item = (String, u64, u64)> + '_ {
    pins.into_iter()
        .zip(got)
        .map(|((row, want), g)| (row.to_string(), g, want))
}

#[test]
fn scan_costs_match_the_pinned_table() {
    let scan = measured_scan()
        .iter()
        .zip(&SCAN)
        .flat_map(|(&(n, got), &(_, want))| {
            let cells = COLUMNS.iter().zip(got.into_iter().zip(want));
            cells.map(move |(col, (g, w))| (format!("{col} at {n} interests"), g, w))
        });
    assert_pinned("§3.2 scan costs", scan);
}

#[test]
fn delivery_and_update_costs_match_the_pinned_tables() {
    let (delivery, update) = (measured_delivery(), measured_update());
    assert_pinned("§3.3 result delivery", rows(DELIVERY, delivery));
    assert_pinned("§6 interest update", rows(UPDATE, update));
    assert!(
        delivery[1] < delivery[0],
        "mmap delivery ({} ns) must undercut copy-out ({} ns)",
        delivery[1],
        delivery[0]
    );
    assert!(
        update[1] < update[0],
        "combined write+ioctl ({} ns) must undercut separate calls ({} ns)",
        update[1],
        update[0]
    );
}

/// Per-interest cost step of column `col` from row `a` to row `b`, ns.
fn slope((n0, a): (usize, [u64; 4]), (n1, b): (usize, [u64; 4]), col: usize) -> f64 {
    (b[col] - a[col]) as f64 / (n1 - n0) as f64
}

#[test]
fn scan_costs_have_the_papers_shape() {
    let table = measured_scan();
    let driver_poll = CostModel::k6_2_400mhz().driver_poll;
    // Stock poll() and hint-less DP_POLL ask every driver on every call:
    // cost is linear in the interest set, one step per interest.
    let (first, last) = (table[0], table[table.len() - 1]);
    for col in [0, 2] {
        let s = slope(first, last, col);
        for pair in table.windows(2) {
            let step = slope(pair[0], pair[1], col);
            assert!(
                (step - s).abs() <= 0.01 * s,
                "{}: {step:.1} ns per interest from {} to {}, {s:.1} overall — not linear",
                COLUMNS[col],
                pair[0].0,
                pair[1].0
            );
        }
    }
    // Hints leave only the hash walk per interest: a slope over 100x
    // smaller than the hint-less scan's.
    let (hinted, hintless) = (slope(first, last, 1), slope(first, last, 2));
    assert!(
        hintless > 100.0 * hinted,
        "hint-less slope {hintless:.1} ns/interest is not 100x the hinted {hinted:.2}"
    );
    // One marked hint costs one driver poll on top of the hinted scan,
    // whatever the interest-set size.
    for &(n, [_, hints, _, one]) in table {
        assert_eq!(
            one - hints,
            driver_poll,
            "DP_POLL 1-hint at {n} interests sits {} ns above the hinted scan, not one driver_poll",
            one - hints
        );
    }
}
