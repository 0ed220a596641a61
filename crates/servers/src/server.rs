//! The common server interface the orchestrator drives.

use devpoll::DevPollRegistry;
use simcore::time::{SimDuration, SimTime};
use simkernel::{Errno, Kernel, Pid};
use simnet::{Network, Port};

use crate::content::ContentStore;
use crate::metrics::ServerMetrics;

/// Everything a server batch may touch, borrowed for one step.
pub struct ServerCtx<'a> {
    /// The server host's kernel.
    pub kernel: &'a mut Kernel,
    /// The network fabric.
    pub net: &'a mut Network,
    /// The `/dev/poll` device registry.
    pub registry: &'a mut DevPollRegistry,
    /// Current simulated time.
    pub now: SimTime,
}

/// Events processed per wait call.
pub const MAX_EVENTS: usize = 8;
/// Cadence of the idle scan.
pub const SCAN_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Tunables shared by all server architectures.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Listening port.
    pub port: Port,
    /// Listen backlog.
    pub backlog: usize,
    /// Connections idle longer than this are closed.
    pub idle_timeout: SimDuration,
    /// `RLIMIT_NOFILE` for the server process.
    pub fd_limit: usize,
    /// RT signal queue bound (paper default 1024).
    pub rt_queue_max: usize,
    /// Serve response bodies through `sendfile()` (§6 future work).
    pub use_sendfile: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            port: 80,
            backlog: 128,
            idle_timeout: SimDuration::from_secs(60),
            fd_limit: 1024,
            rt_queue_max: simkernel::DEFAULT_RT_QUEUE_MAX,
            use_sendfile: false,
        }
    }
}

/// A web server under test.
pub trait Server {
    /// The server's process.
    fn pid(&self) -> Pid;

    /// Architecture name for reports ("thttpd/poll", "phhttpd", …).
    fn name(&self) -> String;

    /// One-time setup: listen, init the event backend. Runs inside its
    /// own batch.
    fn start(&mut self, ctx: &mut ServerCtx<'_>) -> Result<(), Errno>;

    /// Runs one batch (called whenever the kernel reports the process
    /// runnable). The implementation brackets itself with
    /// `begin_batch`/`end_batch*`.
    fn run_batch(&mut self, ctx: &mut ServerCtx<'_>);

    /// Replaces the documents the server serves (every process of a
    /// multi-process server gets its own handle on the same store).
    fn set_content(&mut self, content: ContentStore);

    /// Counters so far.
    fn metrics(&self) -> ServerMetrics;

    /// Open HTTP connections right now.
    fn open_conns(&self) -> usize;

    /// Whether this server owns the given process (multi-process servers
    /// own several).
    fn handles(&self, pid: Pid) -> bool {
        pid == self.pid()
    }

    /// Runs one batch for a specific process. Single-process servers
    /// ignore `pid`.
    fn run_batch_for(&mut self, ctx: &mut ServerCtx<'_>, pid: Pid) {
        debug_assert!(self.handles(pid));
        self.run_batch(ctx);
    }
}
