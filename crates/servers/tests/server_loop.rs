//! Behavioural tests of the server event loops with hand-rolled
//! clients. The world settles through `devpoll::settle`, the dispatch
//! phases every figure's testbed runs.

use devpoll::{DevPollBackend, DevPollRegistry, SelectBackend, StockPollBackend};
use servers::{
    HybridServer, PhConfig, PhMode, Phhttpd, Prefork, Server, ServerConfig, ServerCtx,
    ServerMetrics, Thttpd,
};
use simcore::time::{SimDuration, SimTime};
use simkernel::{AcceptWake, CostModel, Kernel};
use simnet::{ConnId, EndpointId, HostId, LinkConfig, Network, Side, SockAddr, TcpConfig};

const CLIENT: HostId = HostId(0);
const SERVER: HostId = HostId(1);

struct Rig {
    net: Network,
    kernel: Kernel,
    registry: DevPollRegistry,
    now: SimTime,
}

impl Rig {
    fn new() -> Rig {
        Rig {
            net: Network::new(TcpConfig::default(), LinkConfig::default(), 2),
            kernel: Kernel::new(SERVER, CostModel::k6_2_400mhz()),
            registry: DevPollRegistry::new(),
            now: SimTime::ZERO,
        }
    }

    fn ctx(&mut self) -> ServerCtx<'_> {
        ServerCtx {
            kernel: &mut self.kernel,
            net: &mut self.net,
            registry: &mut self.registry,
            now: self.now,
        }
    }

    /// Advances the whole world until `until`, running server batches.
    fn run(&mut self, server: &mut dyn Server, until: SimTime) {
        let last = devpoll::settle(
            &mut self.net,
            &mut self.kernel,
            &mut self.registry,
            self.now,
            until,
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
        self.now = until.max(last);
    }

    fn connect(&mut self, extra_ms: u64) -> ConnId {
        self.net
            .connect(
                self.now,
                CLIENT,
                SockAddr::new(SERVER, 80),
                SimDuration::from_millis(extra_ms),
            )
            .expect("connect")
    }

    fn client_send(&mut self, conn: ConnId, data: &[u8]) {
        let ep = EndpointId::new(conn, Side::Client);
        let _ = self.net.send(self.now, ep, data);
    }

    fn client_recv(&mut self, conn: ConnId) -> Vec<u8> {
        let ep = EndpointId::new(conn, Side::Client);
        self.net.recv(ep, usize::MAX).unwrap_or_default()
    }
}

fn request_response(rig: &mut Rig, server: &mut dyn Server, path: &str) -> (ConnId, Vec<u8>) {
    exchange(
        rig,
        server,
        format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes(),
    )
}

fn exchange(rig: &mut Rig, server: &mut dyn Server, request: &[u8]) -> (ConnId, Vec<u8>) {
    let conn = rig.connect(0);
    let t0 = rig.now;
    rig.run(server, t0 + SimDuration::from_millis(10));
    rig.client_send(conn, request);
    rig.run(server, t0 + SimDuration::from_millis(150));
    let body = rig.client_recv(conn);
    (conn, body)
}

#[test]
fn thttpd_devpoll_serves_and_closes() {
    let mut rig = Rig::new();
    let mut server = {
        let mut ctx = rig.ctx();
        Thttpd::new(&mut ctx, DevPollBackend::new(), ServerConfig::default())
    };
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    let (conn, body) = request_response(&mut rig, &mut server, "/index.html");
    let text = String::from_utf8_lossy(&body);
    assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
    assert!(
        rig.net
            .endpoint_state(EndpointId::new(conn, Side::Client))
            .peer_closed
    );
    assert_eq!(server.metrics().replies, 1);
    assert_eq!(server.open_conns(), 0, "connection table cleaned");
}

#[test]
fn thttpd_stock_serves_the_same() {
    let mut rig = Rig::new();
    let mut server = {
        let mut ctx = rig.ctx();
        Thttpd::new(&mut ctx, StockPollBackend::new(), ServerConfig::default())
    };
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    let (_conn, body) = request_response(&mut rig, &mut server, "/");
    assert!(body.starts_with(b"HTTP/1.0 200 OK"));
}

#[test]
fn missing_document_is_404_and_counted() {
    let mut rig = Rig::new();
    let mut server = {
        let mut ctx = rig.ctx();
        Thttpd::new(&mut ctx, DevPollBackend::new(), ServerConfig::default())
    };
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    let (_conn, body) = request_response(&mut rig, &mut server, "/nope.html");
    assert!(body.starts_with(b"HTTP/1.0 404"));
    assert_eq!(server.metrics().not_found, 1);
    assert_eq!(server.metrics().replies, 1, "404 still counts as a reply");
}

#[test]
fn malformed_request_gets_400() {
    let mut rig = Rig::new();
    let mut server = {
        let mut ctx = rig.ctx();
        Thttpd::new(&mut ctx, DevPollBackend::new(), ServerConfig::default())
    };
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    let conn = rig.connect(0);
    rig.run(&mut server, SimTime::from_millis(10));
    rig.client_send(conn, b"BOGUS nonsense\r\n\r\n");
    rig.run(&mut server, SimTime::from_millis(120));
    let body = rig.client_recv(conn);
    assert!(String::from_utf8_lossy(&body).starts_with("HTTP/1.0 400"));
}

#[test]
fn idle_connections_are_closed_after_timeout() {
    let mut rig = Rig::new();
    let config = ServerConfig {
        idle_timeout: SimDuration::from_secs(2),
        ..ServerConfig::default()
    };
    let mut server = {
        let mut ctx = rig.ctx();
        Thttpd::new(&mut ctx, DevPollBackend::new(), config)
    };
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    // A client that never sends anything.
    let conn = rig.connect(0);
    rig.run(&mut server, SimTime::from_millis(100));
    assert_eq!(server.open_conns(), 1);
    // After the idle timeout plus a scan interval, it's gone.
    rig.run(&mut server, SimTime::from_secs(4));
    assert_eq!(server.open_conns(), 0);
    assert_eq!(server.metrics().idle_closed, 1);
    // The client saw the server's FIN.
    assert!(
        rig.net
            .endpoint_state(EndpointId::new(conn, Side::Client))
            .peer_closed
            || !rig.net.exists(conn)
    );
}

#[test]
fn client_abort_is_counted_as_error() {
    let mut rig = Rig::new();
    let mut server = {
        let mut ctx = rig.ctx();
        Thttpd::new(&mut ctx, DevPollBackend::new(), ServerConfig::default())
    };
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    let conn = rig.connect(0);
    rig.run(&mut server, SimTime::from_millis(10));
    // Client resets without sending a request.
    let ep = EndpointId::new(conn, Side::Client);
    let now = rig.now;
    let _ = rig.net.abort(now, ep);
    rig.run(&mut server, SimTime::from_millis(100));
    assert_eq!(server.open_conns(), 0);
    assert_eq!(server.metrics().read_errors, 1);
}

#[test]
fn large_response_exercises_pollout_path() {
    // A 64 KB document exceeds the 16 KB send buffer: the server must
    // switch interest to POLLOUT and finish over several writes.
    let mut rig = Rig::new();
    let mut server = {
        let mut ctx = rig.ctx();
        Thttpd::new(&mut ctx, DevPollBackend::new(), ServerConfig::default())
    };
    server.set_content(servers::ContentStore::size_sweep(&[64 * 1024]));
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    let conn = rig.connect(0);
    rig.run(&mut server, SimTime::from_millis(10));
    rig.client_send(conn, b"GET /doc-65536.html HTTP/1.0\r\n\r\n");
    // Drain the response incrementally (the client must read for acks to
    // free the server's buffer).
    let mut got = Vec::new();
    for step in 1..200u64 {
        rig.run(&mut server, SimTime::from_millis(10 + step * 5));
        got.extend(rig.client_recv(conn));
        if got.len() >= 64 * 1024 {
            break;
        }
    }
    assert!(
        got.len() > 64 * 1024,
        "full document plus headers, got {}",
        got.len()
    );
    assert_eq!(server.metrics().replies, 1);
}

#[test]
fn phhttpd_counts_stale_events() {
    // Queue a signal for a connection, then have the connection die
    // before the server picks the signal up: the pickup must be counted
    // stale, not crash.
    let mut rig = Rig::new();
    let mut server = {
        let mut ctx = rig.ctx();
        Phhttpd::new(&mut ctx, ServerConfig::default(), PhConfig::default())
    };
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    let (_, body) = request_response(&mut rig, &mut server, "/index.html");
    assert!(body.starts_with(b"HTTP/1.0 200 OK"));
    assert_eq!(server.mode(), PhMode::Signals);
}

#[test]
fn phhttpd_overflow_switches_to_polling_forever() {
    let mut rig = Rig::new();
    let config = ServerConfig {
        rt_queue_max: 4, // Tiny queue: easy overflow.
        ..ServerConfig::default()
    };
    let mut server = {
        let mut ctx = rig.ctx();
        Phhttpd::new(&mut ctx, config, PhConfig::default())
    };
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    // Ten concurrent clients: accept-ready events alone overflow the
    // 4-slot queue while the server's first batch is still in flight.
    let mut conns = Vec::new();
    for _ in 0..10 {
        conns.push(rig.connect(0));
    }
    for &c in &conns {
        rig.client_send(c, b"GET / HTTP/1.0\r\n\r\n");
    }
    rig.run(&mut server, SimTime::from_millis(300));
    assert_eq!(server.mode(), PhMode::Polling, "{:?}", server.metrics());
    assert!(server.metrics().overflows >= 1);
    // It still serves (via the poll sibling).
    let (_, body) = request_response(&mut rig, &mut server, "/index.html");
    assert!(body.starts_with(b"HTTP/1.0 200 OK"));
    assert_eq!(server.mode(), PhMode::Polling, "never switches back (§6)");
}

#[test]
fn prefork_workers_share_accepts() {
    let mut rig = Rig::new();
    rig.kernel.set_accept_wake(AcceptWake::Exclusive);
    let mut server = {
        let mut ctx = rig.ctx();
        Prefork::new(&mut ctx, DevPollBackend::new, ServerConfig::default(), 3)
    };
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    let mut conns = Vec::new();
    for i in 0..12 {
        let c = rig.connect(0);
        rig.client_send(c, b"GET / HTTP/1.0\r\n\r\n");
        conns.push(c);
        // Spread arrivals so each accept is a separate event.
        rig.run(&mut server, rig.now + SimDuration::from_millis(5 + i));
    }
    rig.run(&mut server, rig.now + SimDuration::from_millis(300));
    let total = server.metrics();
    assert_eq!(total.replies, 12, "{total:?}");
    let per_worker = server.worker_metrics();
    let busy_workers = per_worker.iter().filter(|m| m.accepted > 0).count();
    assert!(
        busy_workers >= 2,
        "round-robin exclusive wakeups should spread accepts: {per_worker:?}"
    );
}

#[test]
fn sendfile_server_serves_identically() {
    let mut rig = Rig::new();
    let config = ServerConfig {
        use_sendfile: true,
        ..ServerConfig::default()
    };
    let mut server = {
        let mut ctx = rig.ctx();
        Thttpd::new(&mut ctx, DevPollBackend::new(), config)
    };
    {
        let mut ctx = rig.ctx();
        server.start(&mut ctx).unwrap();
    }
    let (_conn, body) = request_response(&mut rig, &mut server, "/index.html");
    let text = String::from_utf8_lossy(&body);
    assert!(text.starts_with("HTTP/1.0 200 OK"));
    assert!(text.contains("Content-Length: 6144"));
}

type MakeServer = fn(&mut ServerCtx<'_>, ServerConfig) -> Box<dyn Server>;

/// Every server architecture, built the way the run harness builds it.
const EVERY_SERVER: [(&str, MakeServer); 7] = [
    ("thttpd/poll", |ctx, c| {
        Box::new(Thttpd::new(ctx, StockPollBackend::new(), c))
    }),
    ("thttpd/select", |ctx, c| {
        Box::new(Thttpd::new(ctx, SelectBackend::new(), c))
    }),
    ("thttpd/devpoll", |ctx, c| {
        Box::new(Thttpd::new(ctx, DevPollBackend::new(), c))
    }),
    ("phhttpd", |ctx, c| {
        Box::new(Phhttpd::new(ctx, c, PhConfig::default()))
    }),
    ("phhttpd/batch4", |ctx, c| {
        Box::new(Phhttpd::new(
            ctx,
            c,
            PhConfig {
                batch_dequeue: Some(4),
            },
        ))
    }),
    ("hybrid", |ctx, c| Box::new(HybridServer::new(ctx, c))),
    ("prefork2/devpoll", |ctx, c| {
        Box::new(Prefork::new(ctx, DevPollBackend::new, c, 2))
    }),
];

#[test]
fn every_server_accounts_for_every_accepted_connection() {
    // One connection of each fate: a 200, a 404, a 400, a client abort,
    // one left idle past the timeout, and one still open at the end.
    // Every accepted fd must be closed exactly once under the right
    // counter, or still held.
    for (name, make) in EVERY_SERVER {
        let mut rig = Rig::new();
        let config = ServerConfig {
            idle_timeout: SimDuration::from_secs(2),
            ..ServerConfig::default()
        };
        let mut server = make(&mut rig.ctx(), config);
        server.start(&mut rig.ctx()).unwrap();
        let server = server.as_mut();

        let idle = rig.connect(0);
        let (_, ok) = request_response(&mut rig, server, "/index.html");
        let (_, missing) = request_response(&mut rig, server, "/nope.html");
        let (_, bad) = exchange(&mut rig, server, b"BOGUS nonsense\r\n\r\n");
        let aborted = rig.connect(0);
        rig.run(server, rig.now + SimDuration::from_millis(10));
        let now = rig.now;
        let _ = rig.net.abort(now, EndpointId::new(aborted, Side::Client));
        rig.run(server, SimTime::from_secs(4));
        let _open = rig.connect(0);
        rig.run(server, rig.now + SimDuration::from_millis(100));

        assert!(ok.starts_with(b"HTTP/1.0 200"), "{name}");
        assert!(missing.starts_with(b"HTTP/1.0 404"), "{name}");
        assert!(bad.starts_with(b"HTTP/1.0 400"), "{name}");
        assert!(
            rig.net
                .endpoint_state(EndpointId::new(idle, Side::Client))
                .peer_closed
                || !rig.net.exists(idle),
            "{name}: the idle connection was not closed"
        );
        let m = server.metrics();
        assert_eq!(
            m.accepted,
            m.closed_total() + server.open_conns() as u64,
            "{name}: an accepted fd was neither closed nor held: {m:?}"
        );
        let expected = ServerMetrics {
            accepted: 6,
            replies: 3,
            read_errors: 1,
            idle_closed: 1,
            not_found: 1,
            ..m
        };
        assert_eq!(m, expected, "{name}");
        assert_eq!(m.client_closed_early, 0, "{name}: {m:?}");
        assert_eq!(server.open_conns(), 1, "{name}: {m:?}");
    }
}
