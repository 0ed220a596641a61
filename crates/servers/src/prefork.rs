//! A prefork server: N single-threaded workers sharing one listening
//! socket, each running the thttpd event loop on its own `/dev/poll`
//! (or `poll()`) instance.
//!
//! This exists to study the paper's last §6 suggestion: "It may also
//! help to provide the option of waking only one thread, instead of all
//! of them." With [`simkernel::AcceptWake::Herd`] (stock Linux 2.2
//! behaviour) every worker sleeping on the shared listener wakes for
//! every incoming connection, scans its interest set, and all but one
//! find nothing — the *thundering herd*. With
//! [`simkernel::AcceptWake::Exclusive`] exactly one worker wakes.

use devpoll::EventBackend;
use simkernel::{Errno, Pid};

use crate::content::ContentStore;
use crate::metrics::ServerMetrics;
use crate::server::{Server, ServerConfig, ServerCtx};
use crate::thttpd::Thttpd;

/// N thttpd workers behind one listener.
pub struct Prefork<B: EventBackend> {
    workers: Vec<Thttpd<B>>,
}

impl<B: EventBackend> Prefork<B> {
    /// Creates `n` workers, each with its own process and backend.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(
        ctx: &mut ServerCtx<'_>,
        mut make_backend: impl FnMut() -> B,
        config: ServerConfig,
        n: usize,
    ) -> Prefork<B> {
        assert!(n > 0, "need at least one worker");
        let workers = (0..n)
            .map(|_| Thttpd::new(ctx, make_backend(), config))
            .collect();
        Prefork { workers }
    }

    /// Per-worker metrics (diagnostics: how evenly did accepts spread?).
    pub fn worker_metrics(&self) -> Vec<ServerMetrics> {
        self.workers.iter().map(|w| w.metrics()).collect()
    }
}

impl<B: EventBackend> Server for Prefork<B> {
    fn pid(&self) -> Pid {
        self.workers[0].pid()
    }

    fn name(&self) -> String {
        format!(
            "prefork{}/{}",
            self.workers.len(),
            self.workers[0].name().split('/').nth(1).unwrap_or("?")
        )
    }

    fn start(&mut self, ctx: &mut ServerCtx<'_>) -> Result<(), Errno> {
        // Worker 0 listens; the rest attach to the shared socket.
        self.workers[0].start(ctx)?;
        let listener = self.workers[0]
            .listener(ctx)
            .expect("invariant: worker 0 listened successfully");
        for w in &mut self.workers[1..] {
            w.start_attached(ctx, listener)?;
        }
        Ok(())
    }

    fn run_batch(&mut self, ctx: &mut ServerCtx<'_>) {
        // Only meaningful via run_batch_for; default to worker 0.
        let pid = self.workers[0].pid();
        self.run_batch_for(ctx, pid);
    }

    fn set_content(&mut self, content: ContentStore) {
        for w in &mut self.workers {
            w.set_content(content.clone());
        }
    }

    fn metrics(&self) -> ServerMetrics {
        self.workers.iter().map(|w| w.metrics()).sum()
    }

    fn open_conns(&self) -> usize {
        self.workers.iter().map(|w| w.open_conns()).sum()
    }

    fn handles(&self, pid: Pid) -> bool {
        self.workers.iter().any(|w| w.pid() == pid)
    }

    fn run_batch_for(&mut self, ctx: &mut ServerCtx<'_>, pid: Pid) {
        if let Some(w) = self.workers.iter_mut().find(|w| w.pid() == pid) {
            w.run_batch(ctx);
        }
    }
}
