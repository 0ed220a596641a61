//! High-level run controller: picks a server architecture, drives one
//! benchmark run, returns the report. The figure harness and the
//! integration tests are thin loops over [`run_one`].

use devpoll::{DevPollBackend, DevPollConfig, SelectBackend, StockPollBackend};
use simcore::time::SimTime;
use simkernel::AcceptWake;
use simkernel::CostModel;
use simnet::{LinkConfig, TcpConfig};

use servers::{
    ContentStore, HybridServer, PhConfig, Phhttpd, Prefork, Server, ServerConfig, ServerCtx, Thttpd,
};

use crate::load::LoadConfig;
use crate::report::RunReport;
use crate::testbed::Testbed;

/// Which server architecture to benchmark.
///
/// `Ord`/`Hash` follow declaration order so the kind can key sweep
/// caches (`BTreeMap<(ServerKind, usize), …>`) and hash job identities
/// without going through the string label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServerKind {
    /// Stock thttpd: `poll()`.
    ThttpdPoll,
    /// thttpd on `select()` — the pre-poll baseline with bitmap copies,
    /// the O(maxfd) slot walk and the `FD_SETSIZE` wall.
    ThttpdSelect,
    /// Modified thttpd: `/dev/poll` with hints and mmap (the paper's
    /// full configuration).
    ThttpdDevPoll,
    /// `/dev/poll` with explicit feature switches (ablations).
    ThttpdDevPollWith {
        /// Device configuration.
        config: DevPollConfig,
        /// Shared mmap result area on/off.
        mmap: bool,
        /// Combined write+ioctl updates (§6 future work).
        combined: bool,
    },
    /// phhttpd: RT signals, one `sigwaitinfo` per event.
    Phhttpd,
    /// phhttpd using the proposed `sigtimedwait4()` batch pickup.
    PhhttpdBatch(usize),
    /// The paper's imagined hybrid (§4/§6).
    Hybrid,
    /// `/dev/poll` thttpd responding via `sendfile()` (§6 future work).
    ThttpdDevPollSendfile,
    /// N prefork workers sharing the listener over `/dev/poll`, with the
    /// given accept wakeup policy (thundering herd study, §6).
    PreforkDevPoll {
        /// Worker processes.
        workers: usize,
        /// Wake one worker or all of them on accept-ready.
        wake: AcceptWake,
    },
}

impl ServerKind {
    /// Short label for file names and tables.
    pub fn label(&self) -> String {
        match self {
            ServerKind::ThttpdPoll => "poll".into(),
            ServerKind::ThttpdSelect => "select".into(),
            ServerKind::ThttpdDevPoll => "devpoll".into(),
            ServerKind::ThttpdDevPollWith {
                config,
                mmap,
                combined,
            } => format!(
                "devpoll(h={},m={},c={})",
                config.hints as u8, *mmap as u8, *combined as u8
            ),
            ServerKind::Phhttpd => "phhttpd".into(),
            ServerKind::PhhttpdBatch(n) => format!("phhttpd-batch{n}"),
            ServerKind::Hybrid => "hybrid".into(),
            ServerKind::ThttpdDevPollSendfile => "devpoll+sendfile".into(),
            ServerKind::PreforkDevPoll { workers, wake } => {
                let w = match wake {
                    AcceptWake::Herd => "herd",
                    AcceptWake::Exclusive => "excl",
                };
                format!("prefork{workers}-{w}")
            }
        }
    }
}

/// All parameters of one run.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Server architecture.
    pub kind: ServerKind,
    /// Load shape.
    pub load: LoadConfig,
    /// CPU cost model.
    pub cost: CostModel,
    /// Transport configuration.
    pub tcp: TcpConfig,
    /// Link configuration.
    pub link: LinkConfig,
    /// Server tunables.
    pub server: ServerConfig,
    /// Hard wall on simulated time.
    pub horizon: SimTime,
    /// Override the served document size (bytes); `None` keeps the
    /// paper's 6 KB CITI index.
    pub doc_bytes: Option<usize>,
    /// Enable latency span tracing on the server kernel. Per-phase
    /// `span_ns.*` histograms land in [`RunReport::probe`]; retained
    /// span records render into [`RunReport::span_chrome`] /
    /// [`RunReport::span_folded`].
    pub spans: bool,
    /// Span-record retention cap; `None` keeps
    /// [`simcore::span::DEFAULT_RETAIN`]. Use `Some(0)` for
    /// histogram-only runs (sweeps) that do not need exports.
    pub span_retain: Option<usize>,
}

impl RunParams {
    /// Defaults matching the paper's environment, with the given kind,
    /// rate and inactive load.
    pub fn paper(kind: ServerKind, rate: f64, inactive: usize) -> RunParams {
        RunParams {
            kind,
            load: LoadConfig {
                rate,
                inactive,
                ..LoadConfig::default()
            },
            cost: CostModel::k6_2_400mhz(),
            tcp: TcpConfig::default(),
            link: LinkConfig::default(),
            server: ServerConfig::default(),
            horizon: SimTime::from_secs(600),
            doc_bytes: None,
            spans: false,
            span_retain: None,
        }
    }

    /// Scales the run down to `n` connections (fast tests and smoke
    /// benches).
    pub fn with_conns(mut self, n: u64) -> RunParams {
        self.load.total_conns = n;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> RunParams {
        self.load.seed = seed;
        self
    }

    /// Serves a document of `bytes` instead of the 6 KB default (the §5
    /// document-size remark).
    pub fn with_doc_bytes(mut self, bytes: usize) -> RunParams {
        self.doc_bytes = Some(bytes);
        self.load.doc_path = format!("/doc-{bytes}.html");
        self
    }

    /// Injects random per-segment loss (fault injection; WAN-like
    /// conditions the paper's LAN testbed could not produce).
    pub fn with_loss(mut self, prob: f64) -> RunParams {
        self.link.loss_prob = prob;
        self
    }

    /// Enables end-of-run memory probes (`mem.*` gauges plus the
    /// `kernel.emfile` count, see [`crate::LoadConfig::mem_probes`]) —
    /// the million-lane measurement surface.
    pub fn with_mem_probes(mut self) -> RunParams {
        self.load.mem_probes = true;
        self
    }

    /// Drives the inactive population from `n` client machines, lifting
    /// the ~60k-ephemeral-ports-per-host ceiling.
    pub fn with_client_hosts(mut self, n: usize) -> RunParams {
        self.load.client_hosts = n.max(1);
        self
    }

    /// Raises the server's descriptor limit (the million lane needs a
    /// descriptor per held-open connection).
    pub fn with_server_fd_limit(mut self, limit: usize) -> RunParams {
        self.server.fd_limit = limit;
        self
    }

    /// Raises the client-side socket limit (counts active and inactive
    /// connections alike).
    pub fn with_client_fd_limit(mut self, limit: usize) -> RunParams {
        self.load.client_fd_limit = limit;
        self
    }

    /// Enables latency span tracing for this run.
    pub fn with_spans(mut self) -> RunParams {
        self.spans = true;
        self
    }

    /// Enables span tracing with an explicit record-retention cap
    /// (`0` = histograms only, no exports).
    pub fn with_span_retain(mut self, retain: usize) -> RunParams {
        self.spans = true;
        self.span_retain = Some(retain);
        self
    }
}

/// Executes one benchmark run and returns its report.
pub fn run_one(params: RunParams) -> RunReport {
    let horizon = params.horizon;
    let (mut bed, mut server) = build_world(params);
    bed.start(server.as_mut());
    bed.run(server.as_mut(), horizon);
    bed.report(server.as_ref())
}

/// Builds the testbed and the server that [`run_one`] starts and runs
/// (`params.horizon` is the caller's to apply).
pub fn build_world(params: RunParams) -> (Testbed, Box<dyn Server>) {
    let mut bed = Testbed::new(params.cost, params.tcp, params.link, params.load);
    if params.spans {
        bed.kernel.spans_mut().set_enabled(true);
        if let Some(retain) = params.span_retain {
            bed.kernel.spans_mut().set_retain(retain);
        }
    }
    let mut server_cfg = params.server;
    if params.kind == ServerKind::ThttpdDevPollSendfile {
        server_cfg.use_sendfile = true;
    }
    if let ServerKind::PreforkDevPoll { wake, .. } = params.kind {
        bed.kernel.set_accept_wake(wake);
    }
    let content = params
        .doc_bytes
        .map(|n| ContentStore::size_sweep(&[n]))
        .unwrap_or_default();
    let mut server: Box<dyn Server> = {
        let mut ctx = ServerCtx {
            kernel: &mut bed.kernel,
            net: &mut bed.net,
            registry: &mut bed.registry,
            now: SimTime::ZERO,
        };
        match params.kind {
            ServerKind::ThttpdPoll => {
                Box::new(Thttpd::new(&mut ctx, StockPollBackend::new(), server_cfg))
            }
            ServerKind::ThttpdSelect => {
                Box::new(Thttpd::new(&mut ctx, SelectBackend::new(), server_cfg))
            }
            ServerKind::ThttpdDevPoll | ServerKind::ThttpdDevPollSendfile => {
                Box::new(Thttpd::new(&mut ctx, DevPollBackend::new(), server_cfg))
            }
            ServerKind::ThttpdDevPollWith {
                config,
                mmap,
                combined,
            } => Box::new(Thttpd::new(
                &mut ctx,
                DevPollBackend::with_config(config, mmap, combined),
                server_cfg,
            )),
            ServerKind::Phhttpd => {
                Box::new(Phhttpd::new(&mut ctx, server_cfg, PhConfig::default()))
            }
            ServerKind::PhhttpdBatch(n) => Box::new(Phhttpd::new(
                &mut ctx,
                server_cfg,
                PhConfig {
                    batch_dequeue: Some(n),
                },
            )),
            ServerKind::Hybrid => Box::new(HybridServer::new(&mut ctx, server_cfg)),
            ServerKind::PreforkDevPoll { workers, .. } => Box::new(Prefork::new(
                &mut ctx,
                DevPollBackend::new,
                server_cfg,
                workers,
            )),
        }
    };
    server.set_content(content);
    (bed, server)
}
