//! The connection table every server shares: one copy of the HTTP
//! connection lifecycle — admit, serve a readiness event, finish, the
//! idle sweep and batch close-out — so thttpd, phhttpd and the hybrid
//! differ only in their event engines, as the paper's comparison
//! requires (§5.1).
//!
//! Each method that touches interest takes the server's interest set as
//! `Option<&mut B>`; `None` is phhttpd in signal mode, where the RT
//! queue needs no interest upkeep.

use devpoll::{EventBackend, PollFd};
use simcore::probe::Metric;
use simcore::time::SimTime;
use simkernel::{Errno, Fd, FdMap, Pid, PollBits};
use simnet::ListenerId;

use crate::conn::{ConnPhase, ConnStatus, FinishKind, HttpConn};
use crate::content::ContentStore;
use crate::metrics::ServerMetrics;
use crate::server::{ServerConfig, ServerCtx, MAX_EVENTS, SCAN_INTERVAL};

/// One server process's connections and the state their lifecycle needs.
pub(crate) struct ConnTable {
    pub(crate) pid: Pid,
    pub(crate) lfd: Fd,
    pub(crate) conns: FdMap<HttpConn>,
    pub(crate) content: ContentStore,
    pub(crate) metrics: ServerMetrics,
    pub(crate) config: ServerConfig,
    last_scan: SimTime,
    /// Reused idle-sweep scratch (no per-scan allocation).
    idle_scratch: Vec<Fd>,
    /// Reused ready-event buffer of the poll-shaped engines (no per-wait
    /// allocation); lent out by [`Self::wait`], returned by
    /// [`Self::end_wait_batch`].
    ready: Vec<PollFd>,
    /// Request buffers of closed connections, emptied, for the next
    /// admitted ones (no per-connection allocation once warm).
    spare_bufs: Vec<Vec<u8>>,
}

impl ConnTable {
    /// Spawns the server's process with an empty table.
    pub(crate) fn new(ctx: &mut ServerCtx<'_>, config: ServerConfig) -> ConnTable {
        ConnTable {
            pid: ctx.kernel.spawn(config.fd_limit, config.rt_queue_max),
            lfd: -1,
            conns: FdMap::new(),
            content: ContentStore::citi_6k(),
            metrics: ServerMetrics::default(),
            config,
            last_scan: SimTime::ZERO,
            idle_scratch: Vec::new(),
            ready: Vec::new(),
            spare_bufs: Vec::new(),
        }
    }

    /// Opens the listening socket — or attaches to a `shared` one, for a
    /// prefork worker — and starts the idle-scan clock.
    pub(crate) fn listen(
        &mut self,
        ctx: &mut ServerCtx<'_>,
        shared: Option<ListenerId>,
    ) -> Result<Fd, Errno> {
        self.lfd = match shared {
            Some(listener) => ctx.kernel.sys_share_listener(self.pid, listener)?,
            None => {
                ctx.kernel
                    .sys_listen(ctx.net, self.pid, self.config.port, self.config.backlog)?
            }
        };
        self.last_scan = ctx.now;
        Ok(self.lfd)
    }

    /// Takes an accepted descriptor into the table.
    pub(crate) fn admit(&mut self, ctx: &mut ServerCtx<'_>, fd: Fd) {
        let cost = *ctx.kernel.cost_model();
        ctx.kernel.charge_app(self.pid, cost.app_conn_setup);
        self.metrics.accepted += 1;
        let mut conn = HttpConn::new(fd, ctx.now);
        conn.in_buf = self.spare_bufs.pop().unwrap_or_default();
        self.conns.insert(fd, conn);
    }

    /// Serves one readiness event on a connection: reads or writes, then
    /// waits for writability or finishes the connection. Returns `false`
    /// when `fd` is not in the table (closed earlier); whether that is a
    /// stale event is the caller's rule.
    pub(crate) fn serve<B: EventBackend>(
        &mut self,
        ctx: &mut ServerCtx<'_>,
        interest: Option<&mut B>,
        fd: Fd,
        revents: PollBits,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(fd) else {
            return false;
        };
        let status = if revents.intersects(PollBits::POLLERR | PollBits::POLLNVAL) {
            ConnStatus::Finished(FinishKind::Error)
        } else if conn.phase == ConnPhase::Writing && revents.contains(PollBits::POLLOUT) {
            conn.on_writable(
                ctx.kernel,
                ctx.net,
                ctx.now,
                self.pid,
                self.config.use_sendfile,
            )
        } else if revents.intersects(PollBits::POLLIN | PollBits::POLLHUP) {
            conn.on_readable(
                ctx.kernel,
                ctx.net,
                ctx.now,
                self.pid,
                &self.content,
                self.config.use_sendfile,
                &mut self.metrics.not_found,
            )
        } else {
            return true;
        };
        match status {
            // Interest is already POLLIN while a connection reads.
            ConnStatus::WantRead => {}
            ConnStatus::WantWrite => {
                if let Some(backend) = interest {
                    let _ = backend.set_interest(
                        ctx.kernel,
                        ctx.registry,
                        self.pid,
                        fd,
                        PollBits::POLLOUT,
                    );
                }
            }
            ConnStatus::Finished(kind) => {
                self.close(ctx, interest, fd, kind == FinishKind::Error);
                *match kind {
                    FinishKind::Replied => &mut self.metrics.replies,
                    FinishKind::ClientClosedEarly => &mut self.metrics.client_closed_early,
                    FinishKind::Error => &mut self.metrics.read_errors,
                } += 1;
            }
        }
        true
    }

    /// Drops a connection's interest, closes its descriptor (a reset
    /// after an error) and forgets it, keeping its request buffer for a
    /// later admit. Events already queued for it on an RT queue surface
    /// later as stale events (§2).
    fn close<B: EventBackend>(
        &mut self,
        ctx: &mut ServerCtx<'_>,
        interest: Option<&mut B>,
        fd: Fd,
        abort: bool,
    ) {
        if let Some(backend) = interest {
            let _ = backend.remove_interest(ctx.kernel, ctx.registry, self.pid, fd);
        }
        let _ = if abort {
            ctx.kernel.sys_abort(ctx.net, ctx.now, self.pid, fd)
        } else {
            ctx.kernel.sys_close(ctx.net, ctx.now, self.pid, fd)
        };
        if let Some(mut conn) = self.conns.remove(fd) {
            if conn.in_buf.capacity() > 0 {
                conn.in_buf.clear();
                self.spare_bufs.push(conn.in_buf);
            }
        }
    }

    /// Opens a server batch and, once per scan interval, runs the idle
    /// sweep: its cost is linear in the open connections, and every
    /// connection idle past the timeout is closed.
    pub(crate) fn begin_batch<B: EventBackend>(
        &mut self,
        ctx: &mut ServerCtx<'_>,
        mut interest: Option<&mut B>,
    ) {
        ctx.kernel.begin_batch(ctx.now, self.pid);
        if ctx.now.saturating_duration_since(self.last_scan) < SCAN_INTERVAL {
            return;
        }
        self.last_scan = ctx.now;
        let cost = *ctx.kernel.cost_model();
        ctx.kernel
            .charge_app(self.pid, cost.app_timer_scan * self.conns.len() as u64);
        if ctx.now.as_nanos() < self.config.idle_timeout.as_nanos() {
            return; // Nothing can be idle-expired yet.
        }
        let cutoff = SimTime::from_nanos(ctx.now.as_nanos() - self.config.idle_timeout.as_nanos());
        let mut idle = std::mem::take(&mut self.idle_scratch);
        idle.clear();
        idle.extend(
            self.conns
                .iter()
                .filter(|(_, c)| c.idle_since(cutoff))
                .map(|(fd, _)| fd),
        );
        for &fd in &idle {
            self.close(ctx, interest.as_deref_mut(), fd, false);
            self.metrics.idle_closed += 1;
        }
        self.idle_scratch = idle;
    }

    /// Blocks on `backend` for up to [`MAX_EVENTS`] ready descriptors,
    /// collected in the table's reused buffer. A failed wait reads as
    /// nothing ready.
    pub(crate) fn wait<B: EventBackend>(
        &mut self,
        ctx: &mut ServerCtx<'_>,
        backend: &mut B,
    ) -> Vec<PollFd> {
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        let max = MAX_EVENTS;
        let _ = backend.wait(ctx.kernel, ctx.registry, self.pid, max, -1, &mut ready);
        ready
    }

    /// Closes a batch that handled the `ready` events [`Self::wait`]
    /// returned, and takes the buffer back for the next wait.
    pub(crate) fn end_wait_batch(&mut self, ctx: &mut ServerCtx<'_>, ready: Vec<PollFd>) {
        self.end_batch(ctx, ready.len());
        self.ready = ready;
    }

    /// Closes a batch that handled `events` events: with none the process
    /// sleeps until the next idle scan is due; otherwise the batch counts
    /// as busy and its size goes into `server.batch_events`.
    pub(crate) fn end_batch(&mut self, ctx: &mut ServerCtx<'_>, events: usize) {
        if events == 0 {
            ctx.kernel
                .end_batch_sleep(ctx.now, self.pid, Some(SCAN_INTERVAL));
        } else {
            self.metrics.busy_batches += 1;
            ctx.kernel
                .probe_mut()
                .observe(Metric::ServerBatchEvents, events as u64);
            ctx.kernel.end_batch(ctx.now, self.pid);
        }
    }
}
