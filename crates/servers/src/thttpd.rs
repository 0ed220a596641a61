//! `thttpd` — a single-process event-driven web server, generic over its
//! event backend so the same code runs on stock `poll()` and on
//! `/dev/poll`, like the paper's stock vs. modified thttpd pair (§5.1).

use devpoll::EventBackend;
use simcore::span::Phase;
use simkernel::{Errno, Fd, PollBits};
use simnet::ListenerId;

use crate::content::ContentStore;
use crate::metrics::ServerMetrics;
use crate::server::{Server, ServerConfig, ServerCtx};
use crate::table::ConnTable;

/// The thttpd-style server.
pub struct Thttpd<B: EventBackend> {
    table: ConnTable,
    backend: B,
    started: bool,
}

impl<B: EventBackend> Thttpd<B> {
    /// Creates the server (spawning its process) with the given backend.
    pub fn new(ctx: &mut ServerCtx<'_>, backend: B, config: ServerConfig) -> Thttpd<B> {
        Thttpd {
            table: ConnTable::new(ctx, config),
            backend,
            started: false,
        }
    }

    /// The listener id once started (for prefork sharing).
    pub fn listener(&self, ctx: &ServerCtx<'_>) -> Option<ListenerId> {
        ctx.kernel.listener_of(self.table.pid, self.table.lfd).ok()
    }

    /// Starts this instance as a prefork *worker*: instead of listening
    /// itself it attaches to an existing shared listener.
    pub fn start_attached(
        &mut self,
        ctx: &mut ServerCtx<'_>,
        listener: ListenerId,
    ) -> Result<(), Errno> {
        self.open(ctx, Some(listener))
    }

    fn open(&mut self, ctx: &mut ServerCtx<'_>, shared: Option<ListenerId>) -> Result<(), Errno> {
        assert!(!self.started, "start called twice");
        let pid = self.table.pid;
        ctx.kernel.begin_batch(ctx.now, pid);
        let lfd = self.table.listen(ctx, shared)?;
        self.backend.init(ctx.kernel, ctx.registry, pid)?;
        self.backend
            .set_interest(ctx.kernel, ctx.registry, pid, lfd, PollBits::POLLIN)?;
        ctx.kernel.end_batch(ctx.now, pid);
        self.started = true;
        Ok(())
    }

    fn accept_all(&mut self, ctx: &mut ServerCtx<'_>) {
        let pid = self.table.pid;
        // EAGAIN, EMFILE and friends: stop accepting.
        while let Ok(fd) = ctx.kernel.sys_accept(ctx.net, ctx.now, pid, self.table.lfd) {
            let _ = ctx.kernel.sys_set_nonblock(pid, fd);
            self.table.admit(ctx, fd);
            let _ = self
                .backend
                .set_interest(ctx.kernel, ctx.registry, pid, fd, PollBits::POLLIN);
        }
    }

    fn dispatch(&mut self, ctx: &mut ServerCtx<'_>, fd: Fd, revents: PollBits) {
        if fd == self.table.lfd {
            self.accept_all(ctx);
        } else {
            // A miss was closed earlier in this batch.
            self.table.serve(ctx, Some(&mut self.backend), fd, revents);
        }
    }
}

impl<B: EventBackend> Server for Thttpd<B> {
    fn pid(&self) -> simkernel::Pid {
        self.table.pid
    }

    fn name(&self) -> String {
        format!("thttpd/{}", self.backend.name())
    }

    fn start(&mut self, ctx: &mut ServerCtx<'_>) -> Result<(), Errno> {
        self.open(ctx, None)
    }

    fn run_batch(&mut self, ctx: &mut ServerCtx<'_>) {
        let pid = self.table.pid;
        self.table.begin_batch(ctx, Some(&mut self.backend));
        let events = self.table.wait(ctx, &mut self.backend);
        for ev in &events {
            let span = ctx.kernel.span_open(pid, Phase::Dispatch);
            self.dispatch(ctx, ev.fd, ev.revents);
            ctx.kernel.span_close(pid, span);
        }
        self.table.end_wait_batch(ctx, events);
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
