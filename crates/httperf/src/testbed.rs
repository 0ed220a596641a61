//! The testbed orchestrator: two hosts on a switch, a server process on
//! one, the load generator on the other — the paper's experimental
//! set-up (§5) as one deterministic co-simulation loop.

use devpoll::dispatch::{kernel_phase, net_phase};
use devpoll::DevPollRegistry;
use simcore::probe::Metric;
use simcore::stats::RateSummary;
use simcore::time::SimTime;
use simcore::timer::{Lane, TimerQueue};
use simkernel::{CostModel, Kernel, KernelEvent};
use simnet::{HostId, LinkConfig, NetNotify, Network, SockAddr, TcpConfig};

use servers::{Server, ServerCtx};

use crate::load::{LoadConfig, LoadGen, LoadTimer};
use crate::report::RunReport;

/// The client (load-driving) host — the paper's 4-way Xeon.
pub const CLIENT_HOST: HostId = HostId(0);
/// The server host — the paper's 400 MHz K6-2.
pub const SERVER_HOST: HostId = HostId(1);

/// The assembled world.
pub struct Testbed {
    /// The network fabric.
    pub net: Network,
    /// The server host's kernel.
    pub kernel: Kernel,
    /// `/dev/poll` instances.
    pub registry: DevPollRegistry,
    /// The load generator.
    pub load: LoadGen,
    /// Load-generator timers, one FIFO lane per [`LoadTimer`] kind.
    /// Each kind is armed at a fixed delay from the clock (client
    /// timeouts at `now + 2 s`, requests a think time after connecting)
    /// or in a rising stagger, so its lane stays sorted; a reopen
    /// scheduled inside the start-up stagger waits in the fallback heap.
    timers: TimerQueue<LoadTimer>,
    /// `kernel.next_deadline()` as of the last kernel phase. Only the
    /// kernel phase moves it: `Kernel::on_net` changes a process's
    /// deadline only by waking it, which queues an event and so runs
    /// the kernel phase in the same pass.
    kernel_next: Option<SimTime>,
    now: SimTime,
    /// Simulation events dispatched so far: network notifies, kernel
    /// events and load-generator timer firings. Each sweep's `events`
    /// in `BENCH.json`, which the benchmark gate compares exactly.
    events: u64,
    /// Reused across `drain_at` calls so the hot loop never
    /// allocates per tick.
    notify_scratch: Vec<NetNotify>,
    kevent_scratch: Vec<KernelEvent>,
}

impl Testbed {
    /// Builds a testbed with the given stacks and load.
    pub fn new(cost: CostModel, tcp: TcpConfig, link: LinkConfig, load_cfg: LoadConfig) -> Testbed {
        // Hosts: the client, the server, plus any extra client machines
        // the inactive population round-robins over (numbered from 2).
        let hosts = 2 + load_cfg.client_hosts.saturating_sub(1);
        let net = Network::new(tcp, link, hosts);
        let kernel = Kernel::new(SERVER_HOST, cost);
        let load = LoadGen::new(load_cfg, CLIENT_HOST, SockAddr::new(SERVER_HOST, 80));
        Testbed {
            net,
            kernel,
            registry: DevPollRegistry::new(),
            load,
            timers: TimerQueue::new(),
            kernel_next: None,
            now: SimTime::ZERO,
            events: 0,
            notify_scratch: Vec::new(),
            kevent_scratch: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Simulation events dispatched so far (see the `events` field).
    pub fn events(&self) -> u64 {
        self.events
    }

    fn schedule(timers: &mut TimerQueue<LoadTimer>, at: SimTime, t: LoadTimer) {
        let lane = match t {
            LoadTimer::NextArrival => 0,
            LoadTimer::Timeout(_) => 1,
            LoadTimer::ReopenInactive => 2,
            LoadTimer::SendRequest(_) => 3,
        };
        timers.push(Lane::Fifo(lane), at, t);
    }

    /// Starts the server and arms the load generator.
    pub fn start(&mut self, server: &mut dyn Server) {
        let mut ctx = ServerCtx {
            kernel: &mut self.kernel,
            net: &mut self.net,
            registry: &mut self.registry,
            now: self.now,
        };
        server
            .start(&mut ctx)
            .expect("invariant: server start on a fresh testbed cannot fail");
        let timers = self.load.bootstrap(self.now);
        for (at, t) in timers {
            Self::schedule(&mut self.timers, at, t);
        }
        self.kernel_next = self.kernel.next_deadline();
        self.drain_at(self.now, server);
    }

    /// The cached kernel deadline, checked against the kernel in debug
    /// builds.
    fn kernel_next(&self) -> Option<SimTime> {
        debug_assert_eq!(
            self.kernel_next,
            self.kernel.next_deadline(),
            "stale cached kernel deadline"
        );
        self.kernel_next
    }

    /// Processes everything due at exactly `now` in one pass: the
    /// network phase, then the kernel phase (see [`devpoll::dispatch`]),
    /// then the load timers, each only if it has work due. Every action
    /// that arms more work at `now` leaves it where `next_deadline` sees
    /// it, so `run` re-enters this instant instead of this pass looping.
    // #[hot_path] — simcheck bans per-call allocation in this function
    fn drain_at(&mut self, now: SimTime, server: &mut dyn Server) {
        // Only the kernel phase writes the cache, so it reads the same
        // before the network phase as after it.
        let kernel_due = self.kernel_next().is_some_and(|t| t <= now);
        let Testbed {
            net,
            kernel,
            registry,
            load,
            timers,
            kernel_next,
            events,
            notify_scratch,
            kevent_scratch,
            ..
        } = self;

        if net.has_work_at(now) {
            let n = net_phase(net, kernel, now, notify_scratch, |net, n| {
                // Nothing else arms load timers during the fan-out, so
                // arming each follow-up as it returns keeps the order.
                for (at, t) in load.on_net(net, now, n) {
                    Self::schedule(timers, at, t);
                }
            });
            *events += n as u64;
        }

        // Runs if the network phase queued events (a wakeup may also
        // move a deadline) or a process deadline is due.
        if kernel.has_queued_events() || kernel_due {
            let n = kernel_phase(
                net,
                kernel,
                registry,
                now,
                kevent_scratch,
                |net, kernel, registry, now, pid| {
                    if server.handles(pid) {
                        let mut ctx = ServerCtx {
                            kernel,
                            net,
                            registry,
                            now,
                        };
                        server.run_batch_for(&mut ctx, pid);
                    }
                },
            );
            *events += n as u64;
            *kernel_next = kernel.next_deadline();
        }

        // Load-generator timers due now.
        while let Some((_, t)) = timers.pop(now) {
            *events += 1;
            for (at, t) in load.on_timer(net, now, t) {
                Self::schedule(timers, at, t);
            }
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        let mut next = self.net.next_deadline();
        if let Some(k) = self.kernel_next() {
            next = Some(next.map_or(k, |n| n.min(k)));
        }
        if let Some(t) = self.timers.next_at() {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        next
    }

    /// Runs until the load completes or `horizon` passes. Returns the
    /// end-of-run time.
    pub fn run(&mut self, server: &mut dyn Server, horizon: SimTime) -> SimTime {
        while !self.load.done() {
            let Some(next) = self.next_deadline() else {
                break; // Stalled: nothing left to do.
            };
            if next > horizon {
                break;
            }
            debug_assert!(next >= self.now, "time went backwards");
            self.now = next;
            self.drain_at(next, server);
        }
        self.now
    }

    /// Produces the run report.
    pub fn report(self, server: &dyn Server) -> RunReport {
        let Testbed {
            load,
            now,
            mut kernel,
            net,
            registry,
            events,
            ..
        } = self;
        // Fold the subsystem counters that live outside the kernel into
        // its registry so one snapshot carries the whole run.
        server.metrics().fold_into(kernel.probe_mut());
        net.stats().fold_into(kernel.probe_mut());
        kernel
            .probe_mut()
            .gauge_set(Metric::TcpTimeWait, net.time_wait_count(SERVER_HOST) as u64);
        // Memory lane: server-side heap high-water (paged stores never
        // free pages) over the peak endpoint population.
        let mem_server_bytes = (kernel.mem_bytes() + registry.mem_bytes()) as u64;
        let mem_eps_peak = kernel.eps_peak() as u64;
        if load.config().mem_probes {
            // EMFILE is kept outside the registry and joins it only
            // here; `Kernel::emfile` says why.
            let emfile = kernel.emfile();
            let probe = kernel.probe_mut();
            probe.gauge_set(Metric::MemServerBytes, mem_server_bytes);
            probe.gauge_set(Metric::MemServerEpsPeak, mem_eps_peak);
            probe.gauge_set(Metric::MemServerDevpollBytes, registry.mem_bytes() as u64);
            probe.gauge_set(
                Metric::MemClientBytes,
                (load.mem_bytes() + net.conn_mem_bytes()) as u64,
            );
            if emfile > 0 {
                probe.add(Metric::KernelEmfile, emfile);
            }
        }
        let probe = kernel.probe().snapshot();
        let (span_chrome, span_folded) = if kernel.spans().is_empty() {
            (String::new(), String::new())
        } else {
            (kernel.spans().chrome_trace(), kernel.spans().folded())
        };
        // The measured interval is the arrival period: stragglers resolve
        // (as errors) up to a client-timeout later, but windows after the
        // last launched request would only dilute the rate statistics.
        let end = load.last_arrival.max(SimTime::ZERO + load.config().warmup);
        let sim_end = load.last_resolution.max(now);
        let attempted = load.attempted();
        let in_flight = load.in_flight();
        let target_rate = load.config().rate;
        let inactive = load.config().inactive;
        let LoadGen {
            sampler,
            latencies_ms,
            errors,
            replies,
            ..
        } = load;
        let rates = sampler.finish(end);
        RunReport {
            server: server.name(),
            target_rate,
            inactive,
            attempted,
            replies,
            errors,
            in_flight,
            rate: RateSummary::of(&rates),
            latencies_ms,
            sim_secs: sim_end.as_secs_f64(),
            events,
            server_metrics: server.metrics(),
            probe,
            span_chrome,
            span_folded,
            mem_server_bytes,
            mem_eps_peak,
        }
    }
}

/// Convenience: builds a default testbed for `load`.
pub fn default_testbed(load: LoadConfig) -> Testbed {
    Testbed::new(
        CostModel::k6_2_400mhz(),
        TcpConfig::default(),
        LinkConfig::default(),
        load,
    )
}
