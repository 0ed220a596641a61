//! A traced copy of `httperf::Testbed`'s run loop.
//!
//! The loop makes the same layer calls in the same order as
//! `Testbed::drain_at`, so a traced replay must reproduce the untraced
//! run exactly (the caller checks the outcome and the event count). On a
//! random sample of the simulated instants it reads the clock after every
//! layer call and charges the interval to that call's phase; on the other
//! instants it only counts calls. Sampling keeps the clock reads from
//! dominating the cheap phases while every phase still collects thousands
//! of timed calls per run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use httperf::{LoadTimer, RunReport, Testbed};
use servers::{Server, ServerCtx};
use simcore::time::SimTime;
use simkernel::KernelEvent;
use simnet::NetNotify;

/// The layer calls of one drain pass, in loop order.
pub const PHASES: [&str; 7] = [
    "net_advance",
    "kernel_on_net",
    "load_on_net",
    "kernel_advance",
    "devpoll_fd_event",
    "server_batch",
    "load_timer",
];
const NET_ADVANCE: usize = 0;
const KERNEL_ON_NET: usize = 1;
const LOAD_ON_NET: usize = 2;
const KERNEL_ADVANCE: usize = 3;
const DEVPOLL_FD_EVENT: usize = 4;
const SERVER_BATCH: usize = 5;
const LOAD_TIMER: usize = 6;

/// One simulated instant in this many has its layer calls timed.
const SAMPLE_ONE_IN: u64 = 8;

/// What one lap's clock read adds to the interval it closes, in
/// nanoseconds: the mean of a batch of back-to-back reads. Subtracted
/// from every timed call.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 256;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    (last - t0).as_nanos() as f64 / f64::from(READS)
}

/// Calls into one phase, and the timed subset.
#[derive(Default)]
pub struct PhaseStats {
    pub calls: u64,
    pub sampled_calls: u64,
    pub sampled_ns: u64,
}

/// What one traced replay recorded.
#[derive(Default)]
pub struct Stats {
    pub phases: [PhaseStats; PHASES.len()],
    /// Events dispatched, counted as `Testbed` counts them.
    pub events: u64,
}

/// A `Testbed` whose layers this loop drives instead of its own.
pub struct TracedBed {
    bed: Testbed,
    timers: BinaryHeap<Reverse<(SimTime, u64, LoadTimer)>>,
    timer_seq: u64,
    now: SimTime,
    rng: u64,
    stats: Stats,
    notify_scratch: Vec<NetNotify>,
    kevent_scratch: Vec<KernelEvent>,
    new_timer_scratch: Vec<(SimTime, LoadTimer)>,
}

impl TracedBed {
    /// Wraps a freshly built testbed; `seed` picks the sampled instants.
    pub fn new(bed: Testbed, seed: u64) -> TracedBed {
        TracedBed {
            bed,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            now: SimTime::ZERO,
            rng: seed | 1,
            stats: Stats::default(),
            notify_scratch: Vec::new(),
            kevent_scratch: Vec::new(),
            new_timer_scratch: Vec::new(),
        }
    }

    fn schedule(&mut self, at: SimTime, t: LoadTimer) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse((at, seq, t)));
    }

    /// Counts one call of `phase`. On a sampled instant (`mark` set) also
    /// charges it the time since `mark`, and moves `mark` to now.
    fn lap(&mut self, phase: usize, mark: &mut Option<Instant>) {
        let s = &mut self.stats.phases[phase];
        s.calls += 1;
        if let Some(m) = mark {
            let now = Instant::now();
            s.sampled_calls += 1;
            s.sampled_ns += (now - *m).as_nanos() as u64;
            *m = now;
        }
    }

    /// Restarts the interval without charging it: the loop's own
    /// bookkeeping belongs to no layer.
    fn skip(mark: &mut Option<Instant>) {
        if let Some(m) = mark {
            *m = Instant::now();
        }
    }

    /// xorshift64: picks the sampled instants.
    fn sample(&mut self) -> bool {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng.is_multiple_of(SAMPLE_ONE_IN)
    }

    /// `Testbed::start`.
    pub fn start(&mut self, server: &mut dyn Server) {
        let mut ctx = ServerCtx {
            kernel: &mut self.bed.kernel,
            net: &mut self.bed.net,
            registry: &mut self.bed.registry,
            now: self.now,
        };
        server
            .start(&mut ctx)
            .expect("server start on a fresh testbed cannot fail");
        for (at, t) in self.bed.load.bootstrap(self.now) {
            self.schedule(at, t);
        }
        self.drain_at(self.now, server);
    }

    /// `Testbed::drain_at`, with a lap after every layer call.
    fn drain_at(&mut self, now: SimTime, server: &mut dyn Server) {
        let mut mark = self.sample().then(Instant::now);
        loop {
            let mut notifies = std::mem::take(&mut self.notify_scratch);
            notifies.clear();
            Self::skip(&mut mark);
            self.bed.net.advance_into(now, &mut notifies);
            self.lap(NET_ADVANCE, &mut mark);
            self.stats.events += notifies.len() as u64;
            let mut new_timers = std::mem::take(&mut self.new_timer_scratch);
            for n in &notifies {
                self.bed.kernel.on_net(now, n);
                self.lap(KERNEL_ON_NET, &mut mark);
                new_timers.extend(self.bed.load.on_net(&mut self.bed.net, now, n));
                self.lap(LOAD_ON_NET, &mut mark);
            }
            self.notify_scratch = notifies;
            for (at, t) in new_timers.drain(..) {
                self.schedule(at, t);
            }
            self.new_timer_scratch = new_timers;

            let mut kevents = std::mem::take(&mut self.kevent_scratch);
            kevents.clear();
            Self::skip(&mut mark);
            self.bed.kernel.advance_into(now, &mut kevents);
            self.lap(KERNEL_ADVANCE, &mut mark);
            self.stats.events += kevents.len() as u64;
            for &e in &kevents {
                match e {
                    KernelEvent::FdEvent { pid, fd, .. } => {
                        self.bed
                            .registry
                            .on_fd_event(&mut self.bed.kernel, now, pid, fd);
                        self.lap(DEVPOLL_FD_EVENT, &mut mark);
                    }
                    KernelEvent::ProcRunnable { pid } => {
                        if server.handles(pid) {
                            let mut ctx = ServerCtx {
                                kernel: &mut self.bed.kernel,
                                net: &mut self.bed.net,
                                registry: &mut self.bed.registry,
                                now,
                            };
                            server.run_batch_for(&mut ctx, pid);
                            self.lap(SERVER_BATCH, &mut mark);
                        }
                    }
                }
            }
            self.kevent_scratch = kevents;

            Self::skip(&mut mark);
            while let Some(&Reverse((at, _, _))) = self.timers.peek() {
                if at > now {
                    break;
                }
                let Reverse((_, _, t)) = self.timers.pop().expect("peeked timer still queued");
                self.stats.events += 1;
                let follow = self.bed.load.on_timer(&mut self.bed.net, now, t);
                self.lap(LOAD_TIMER, &mut mark);
                for (at, t) in follow {
                    self.schedule(at, t);
                }
                Self::skip(&mut mark);
            }

            let more = self.bed.net.has_work_at(now)
                || self.bed.kernel.has_work_at(now)
                || self
                    .timers
                    .peek()
                    .is_some_and(|&Reverse((at, _, _))| at <= now);
            if !more {
                break;
            }
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        [
            self.bed.net.next_deadline(),
            self.bed.kernel.next_deadline(),
            self.timers.peek().map(|&Reverse((t, _, _))| t),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// `Testbed::run`.
    pub fn run(&mut self, server: &mut dyn Server, horizon: SimTime) {
        while !self.bed.load.done() {
            let Some(next) = self.next_deadline() else {
                break;
            };
            if next > horizon {
                break;
            }
            self.now = next;
            self.drain_at(next, server);
        }
    }

    /// The run report (the testbed's own event counter and clock stay
    /// unused, so take `events` from the stats) and the trace.
    pub fn finish(self, server: &dyn Server) -> (RunReport, Stats) {
        (self.bed.report(server), self.stats)
    }
}
