//! `phhttpd` — the experimental RT-signal web server (§2, §5.2).
//!
//! Faithful to the architecture the paper describes, including its
//! pathologies:
//!
//! * one `sigwaitinfo()` syscall per event;
//! * per-event bookkeeping that costs time linear in the number of open
//!   connections (the implementation weakness behind Figs. 12–13);
//! * stale events for already-closed descriptors that must be skipped;
//! * on queue overflow, connections are handed to the "poll sibling" one
//!   at a time over a UNIX domain socket and a `pollfd` array is rebuilt
//!   from scratch — and the server *never switches back* to signal mode
//!   ("Brown never implemented this logic", §6).

use devpoll::{EventBackend, RtEvent, RtSignalApi, StockPollBackend};
use simcore::span::Phase;
use simkernel::{Errno, Fd, PollBits};

use crate::conn::ConnPhase;
use crate::content::ContentStore;
use crate::metrics::ServerMetrics;
use crate::server::{Server, ServerConfig, ServerCtx, MAX_EVENTS};
use crate::table::ConnTable;

/// Which event engine the server is currently running on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhMode {
    /// Normal operation: events picked up one at a time from the RT
    /// signal queue.
    Signals,
    /// After an overflow: everything was handed to the poll sibling,
    /// which rebuilds its `pollfd` array every scan. Permanent.
    Polling,
}

/// phhttpd-specific tunables.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhConfig {
    /// Use the proposed `sigtimedwait4()` to dequeue events in batches
    /// of this size instead of one `sigwaitinfo()` per event (§6).
    pub batch_dequeue: Option<usize>,
}

/// The RT-signal server.
pub struct Phhttpd {
    table: ConnTable,
    rtapi: RtSignalApi,
    mode: PhMode,
    poll_backend: StockPollBackend,
    ph: PhConfig,
    /// `sigtimedwait4()` pickup buffer, reused across batches.
    rt_batch: Vec<RtEvent>,
}

impl Phhttpd {
    /// Creates the server (spawning its process).
    pub fn new(ctx: &mut ServerCtx<'_>, config: ServerConfig, ph: PhConfig) -> Phhttpd {
        Phhttpd {
            table: ConnTable::new(ctx, config),
            rtapi: RtSignalApi::default(),
            mode: PhMode::Signals,
            poll_backend: StockPollBackend::new(),
            ph,
            rt_batch: Vec::new(),
        }
    }

    /// The current event mode.
    pub fn mode(&self) -> PhMode {
        self.mode
    }

    /// The interest set the table must keep up: the poll sibling's once
    /// polling, none while the RT queue carries the events.
    fn interest(mode: PhMode, poll: &mut StockPollBackend) -> Option<&mut StockPollBackend> {
        (mode == PhMode::Polling).then_some(poll)
    }

    /// The experimental server's connection lookup walks a linear
    /// structure: its cost grows with the open-connection count.
    fn charge_lookup(&self, ctx: &mut ServerCtx<'_>) {
        let cost = *ctx.kernel.cost_model();
        ctx.kernel.charge_app(
            self.table.pid,
            cost.app_event_lookup * self.table.conns.len() as u64,
        );
    }

    fn accept_all(&mut self, ctx: &mut ServerCtx<'_>) {
        let pid = self.table.pid;
        while let Ok(fd) = ctx.kernel.sys_accept(ctx.net, ctx.now, pid, self.table.lfd) {
            // Inserting into (and probing) the linear connection table
            // costs the same as the per-event lookup.
            self.charge_lookup(ctx);
            self.table.admit(ctx, fd);
            match self.mode {
                PhMode::Signals => {
                    // O_NONBLOCK + F_SETSIG + F_SETOWN: the
                    // per-connection syscall tax of the RT model.
                    let _ = self.rtapi.register(ctx.kernel, pid, fd);
                }
                PhMode::Polling => {
                    let _ = ctx.kernel.sys_set_nonblock(pid, fd);
                    let _ = self.poll_backend.set_interest(
                        ctx.kernel,
                        ctx.registry,
                        pid,
                        fd,
                        PollBits::POLLIN,
                    );
                }
            }
            // Data may have arrived before registration; a fresh read
            // avoids a lost-edge deadlock.
            let interest = Self::interest(self.mode, &mut self.poll_backend);
            self.table.serve(ctx, interest, fd, PollBits::POLLIN);
        }
    }

    fn dispatch(&mut self, ctx: &mut ServerCtx<'_>, fd: Fd, bits: PollBits) {
        let signals = self.mode == PhMode::Signals;
        if signals {
            self.charge_lookup(ctx);
        }
        if fd == self.table.lfd {
            self.accept_all(ctx);
            return;
        }
        let interest = Self::interest(self.mode, &mut self.poll_backend);
        // A signal for a closed fd is a stale event (§2); a poll result
        // for one was closed earlier in this batch.
        if !self.table.serve(ctx, interest, fd, bits) && signals {
            self.table.metrics.stale_events += 1;
        }
    }

    /// RT queue overflow (§2, §6): flush the queue, hand every
    /// connection to the poll sibling one at a time over a UNIX domain
    /// socket, and rebuild the `pollfd` array from scratch. The server
    /// stays in polling mode for good.
    fn handle_overflow(&mut self, ctx: &mut ServerCtx<'_>) {
        let pid = self.table.pid;
        self.table.metrics.overflows += 1;
        self.table.metrics.mode_switches += 1;
        let _ = self.rtapi.flush(ctx.kernel, pid);
        let cost = *ctx.kernel.cost_model();
        // Transfer: sendmsg + recvmsg per descriptor (including the
        // listener), plus re-registration bookkeeping.
        let per_conn = cost.syscall * 2 + cost.app_conn_setup;
        ctx.kernel
            .charge_app(pid, per_conn * (self.table.conns.len() as u64 + 1));
        self.mode = PhMode::Polling;
        // Rebuild the interest set from scratch.
        let _ = self.poll_backend.set_interest(
            ctx.kernel,
            ctx.registry,
            pid,
            self.table.lfd,
            PollBits::POLLIN,
        );
        for (fd, c) in self.table.conns.iter() {
            let ev = if c.phase == ConnPhase::Writing {
                PollBits::POLLOUT
            } else {
                PollBits::POLLIN
            };
            let _ = self
                .poll_backend
                .set_interest(ctx.kernel, ctx.registry, pid, fd, ev);
        }
    }

    /// Serves one picked-up RT event. Returns `false` on the overflow
    /// notice, after which the batch is closed and the server polls.
    fn on_signal(&mut self, ctx: &mut ServerCtx<'_>, ev: RtEvent) -> bool {
        let pid = self.table.pid;
        match ev {
            RtEvent::Io { fd, band } => {
                let span = ctx.kernel.span_open(pid, Phase::Dispatch);
                self.dispatch(ctx, fd, band);
                ctx.kernel.span_close(pid, span);
                true
            }
            RtEvent::Overflow => {
                self.handle_overflow(ctx);
                // Close the batch out without counting it.
                ctx.kernel.end_batch(ctx.now, pid);
                false
            }
        }
    }

    fn run_signals_batch(&mut self, ctx: &mut ServerCtx<'_>) {
        let pid = self.table.pid;
        let mut processed = 0usize;
        while processed < MAX_EVENTS {
            match self.ph.batch_dequeue {
                Some(batch) => {
                    let want = batch.min(MAX_EVENTS - processed);
                    let mut events = std::mem::take(&mut self.rt_batch);
                    // An empty queue (`EAGAIN`) leaves `events` empty.
                    let picked = self.rtapi.next_events(ctx.kernel, pid, want, &mut events);
                    processed += events.len();
                    let open = events.iter().all(|&ev| self.on_signal(ctx, ev));
                    self.rt_batch = events;
                    if picked.is_err() {
                        break;
                    }
                    if !open {
                        return;
                    }
                }
                None => {
                    let Ok(ev) = self.rtapi.next_event(ctx.kernel, pid) else {
                        break;
                    };
                    processed += 1;
                    if !self.on_signal(ctx, ev) {
                        return;
                    }
                }
            }
        }
        self.table.end_batch(ctx, processed);
    }

    fn run_polling_batch(&mut self, ctx: &mut ServerCtx<'_>) {
        let pid = self.table.pid;
        let events = self.table.wait(ctx, &mut self.poll_backend);
        for ev in &events {
            let span = ctx.kernel.span_open(pid, Phase::Dispatch);
            self.dispatch(ctx, ev.fd, ev.revents);
            ctx.kernel.span_close(pid, span);
        }
        self.table.end_wait_batch(ctx, events);
    }
}

impl Server for Phhttpd {
    fn pid(&self) -> simkernel::Pid {
        self.table.pid
    }

    fn name(&self) -> String {
        match self.ph.batch_dequeue {
            Some(n) => format!("phhttpd/rtsig+batch{n}"),
            None => "phhttpd/rtsig".to_string(),
        }
    }

    fn start(&mut self, ctx: &mut ServerCtx<'_>) -> Result<(), Errno> {
        let pid = self.table.pid;
        ctx.kernel.begin_batch(ctx.now, pid);
        let lfd = self.table.listen(ctx, None)?;
        self.rtapi.register(ctx.kernel, pid, lfd)?;
        ctx.kernel.end_batch(ctx.now, pid);
        Ok(())
    }

    fn run_batch(&mut self, ctx: &mut ServerCtx<'_>) {
        let interest = Self::interest(self.mode, &mut self.poll_backend);
        self.table.begin_batch(ctx, interest);
        match self.mode {
            PhMode::Signals => self.run_signals_batch(ctx),
            PhMode::Polling => self.run_polling_batch(ctx),
        }
    }

    fn set_content(&mut self, content: ContentStore) {
        self.table.content = content;
    }

    fn metrics(&self) -> ServerMetrics {
        self.table.metrics
    }

    fn open_conns(&self) -> usize {
        self.table.conns.len()
    }
}
