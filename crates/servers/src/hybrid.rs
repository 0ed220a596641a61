//! The hybrid server the paper *imagines* but could not build (§4, §6):
//! RT signals for low latency under light load, `/dev/poll` for
//! throughput under heavy load, switching at an RT-queue-length
//! threshold — with the interest set maintained in the kernel
//! *concurrently* with RT signal activity, so switching costs almost
//! nothing ("RT signal queue processing should maintain its pollfd array
//! (or corresponding kernel state) concurrently with RT signal queue
//! activity. This would allow switching between polling and signal queue
//! mode with very little overhead.").

use devpoll::{DevPollBackend, EventBackend, RtEvent, RtSignalApi};
use simcore::span::Phase;
use simkernel::{Errno, Fd, PollBits};

use crate::content::ContentStore;
use crate::metrics::ServerMetrics;
use crate::server::{Server, ServerConfig, ServerCtx, MAX_EVENTS};
use crate::table::ConnTable;

/// Switch to polling when the RT queue length exceeds this fraction of
/// its maximum.
const UP_FRACTION: f64 = 0.5;

/// Switch back to signals when a poll scan returns fewer events than
/// this.
const DOWN_EVENTS: usize = 4;

/// Current event engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridMode {
    /// Low-latency signal pickup.
    Signals,
    /// High-throughput batch polling.
    Polling,
}

/// The hybrid server.
pub struct HybridServer {
    table: ConnTable,
    rtapi: RtSignalApi,
    backend: DevPollBackend,
    mode: HybridMode,
}

impl HybridServer {
    /// Creates the server (spawning its process).
    pub fn new(ctx: &mut ServerCtx<'_>, config: ServerConfig) -> HybridServer {
        HybridServer {
            table: ConnTable::new(ctx, config),
            rtapi: RtSignalApi::default(),
            backend: DevPollBackend::new(),
            mode: HybridMode::Signals,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> HybridMode {
        self.mode
    }

    fn accept_all(&mut self, ctx: &mut ServerCtx<'_>) {
        let pid = self.table.pid;
        while let Ok(fd) = ctx.kernel.sys_accept(ctx.net, ctx.now, pid, self.table.lfd) {
            self.table.admit(ctx, fd);
            // Register BOTH engines up front: the §6 proposal.
            let _ = self.rtapi.register(ctx.kernel, pid, fd);
            let _ = self
                .backend
                .set_interest(ctx.kernel, ctx.registry, pid, fd, PollBits::POLLIN);
            self.table
                .serve(ctx, Some(&mut self.backend), fd, PollBits::POLLIN);
        }
    }

    fn dispatch(&mut self, ctx: &mut ServerCtx<'_>, fd: Fd, bits: PollBits) {
        if fd == self.table.lfd {
            self.accept_all(ctx);
        } else if !self.table.serve(ctx, Some(&mut self.backend), fd, bits) {
            self.table.metrics.stale_events += 1;
        }
    }

    fn queue_pressure(&self, ctx: &ServerCtx<'_>) -> f64 {
        let p = ctx.kernel.process(self.table.pid);
        p.signals.queue_len() as f64 / p.signals.queue_max() as f64
    }

    fn run_signals(&mut self, ctx: &mut ServerCtx<'_>) {
        let pid = self.table.pid;
        let mut processed = 0usize;
        while processed < MAX_EVENTS {
            match self.rtapi.next_event(ctx.kernel, pid) {
                Ok(RtEvent::Io { fd, band }) => {
                    processed += 1;
                    let span = ctx.kernel.span_open(pid, Phase::Dispatch);
                    self.dispatch(ctx, fd, band);
                    ctx.kernel.span_close(pid, span);
                }
                Ok(RtEvent::Overflow) => {
                    // Threshold logic should prevent this, but handle it:
                    // flush and switch; the devpoll interest set has the
                    // full state, so nothing is lost.
                    self.table.metrics.overflows += 1;
                    let _ = self.rtapi.flush(ctx.kernel, pid);
                    self.switch_to(HybridMode::Polling);
                    ctx.kernel.end_batch(ctx.now, pid);
                    return;
                }
                Err(_) => break,
            }
        }
        // Load-triggered switch: the paper's crossover signal is the RT
        // queue length (§4).
        if self.queue_pressure(ctx) > UP_FRACTION {
            let _ = self.rtapi.flush(ctx.kernel, pid);
            self.switch_to(HybridMode::Polling);
            ctx.kernel.end_batch(ctx.now, pid);
            return;
        }
        self.table.end_batch(ctx, processed);
    }

    fn run_polling(&mut self, ctx: &mut ServerCtx<'_>) {
        let pid = self.table.pid;
        // Signals keep arriving while polling; discard them — the
        // devpoll hints carry the same information.
        let _ = self.rtapi.flush(ctx.kernel, pid);
        let events = self.table.wait(ctx, &mut self.backend);
        for ev in &events {
            let span = ctx.kernel.span_open(pid, Phase::Dispatch);
            self.dispatch(ctx, ev.fd, ev.revents);
            ctx.kernel.span_close(pid, span);
        }
        if events.len() < DOWN_EVENTS {
            self.switch_to(HybridMode::Signals);
        }
        self.table.end_wait_batch(ctx, events);
    }

    fn switch_to(&mut self, mode: HybridMode) {
        if self.mode != mode {
            self.mode = mode;
            self.table.metrics.mode_switches += 1;
        }
    }
}

impl Server for HybridServer {
    fn pid(&self) -> simkernel::Pid {
        self.table.pid
    }

    fn name(&self) -> String {
        "hybrid/rtsig+devpoll".to_string()
    }

    fn start(&mut self, ctx: &mut ServerCtx<'_>) -> Result<(), Errno> {
        let pid = self.table.pid;
        ctx.kernel.begin_batch(ctx.now, pid);
        let lfd = self.table.listen(ctx, None)?;
        self.backend.init(ctx.kernel, ctx.registry, pid)?;
        self.backend
            .set_interest(ctx.kernel, ctx.registry, pid, lfd, PollBits::POLLIN)?;
        self.rtapi.register(ctx.kernel, pid, lfd)?;
        ctx.kernel.end_batch(ctx.now, pid);
        Ok(())
    }

    fn run_batch(&mut self, ctx: &mut ServerCtx<'_>) {
        self.table.begin_batch(ctx, Some(&mut self.backend));
        match self.mode {
            HybridMode::Signals => self.run_signals(ctx),
            HybridMode::Polling => self.run_polling(ctx),
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
