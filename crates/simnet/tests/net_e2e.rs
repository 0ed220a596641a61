//! End-to-end tests of the network: full connection lifecycles driven the
//! way the orchestrator drives it (`next_deadline` + `advance`).

use simcore::time::{SimDuration, SimTime};
use simnet::{
    ConnectError, EndpointId, HostId, LinkConfig, NetError, NetNotify, Network, Side, SockAddr,
    TcpConfig,
};

const CLIENT: HostId = HostId(0);
const SERVER: HostId = HostId(1);

fn network() -> Network {
    Network::new(TcpConfig::default(), LinkConfig::default(), 2)
}

/// Runs the network until it has no work left or `horizon` passes,
/// collecting every notification.
fn run(net: &mut Network, horizon: SimTime) -> (Vec<NetNotify>, SimTime) {
    let mut all = Vec::new();
    let mut now = SimTime::ZERO;
    loop {
        match net.next_deadline() {
            Some(t) if t <= horizon => {
                now = t;
                all.extend(net.advance(now));
            }
            _ => break,
        }
    }
    all.extend(net.advance(horizon));
    (all, now)
}

#[test]
fn handshake_establishes_and_accepts() {
    let mut net = network();
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let (events, _) = run(&mut net, SimTime::from_secs(1));

    let client_ep = EndpointId::new(conn, Side::Client);
    assert!(events.contains(&NetNotify::ConnectDone { ep: client_ep }));
    assert!(events.contains(&NetNotify::AcceptReady { listener }));
    let server_ep = net.accept(listener).expect("accept queue non-empty");
    assert_eq!(server_ep.conn, conn);
    assert!(net.is_established(conn));
}

#[test]
fn data_flows_both_directions() {
    let mut net = network();
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let (_, mut now) = run(&mut net, SimTime::from_millis(50));
    let server_ep = net.accept(listener).unwrap();
    let client_ep = EndpointId::new(conn, Side::Client);

    // Client sends a request.
    let req = b"GET / HTTP/1.0\r\n\r\n";
    assert_eq!(net.send(now, client_ep, req).unwrap(), req.len());
    let (events, t) = run(&mut net, now + SimDuration::from_millis(50));
    now = t;
    assert!(events.contains(&NetNotify::Readable { ep: server_ep }));
    let got = net.recv(server_ep, 4096).unwrap();
    assert_eq!(got, req);

    // Server responds with 6 KB (the paper's document size).
    let resp = vec![0xAB; 6 * 1024];
    assert_eq!(net.send(now, server_ep, &resp).unwrap(), resp.len());
    run(&mut net, now + SimDuration::from_millis(100));
    let got = net.recv(client_ep, 10_000).unwrap();
    assert_eq!(got.len(), resp.len());
    assert!(got.iter().all(|&b| b == 0xAB));
}

#[test]
fn backlog_overflow_drops_syns() {
    let mut net = network();
    let listener = net.listen(SERVER, 80, 2).unwrap();
    for _ in 0..5 {
        net.connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    }
    let (events, _) = run(&mut net, SimTime::from_millis(10));
    let drops = events
        .iter()
        .filter(|e| matches!(e, NetNotify::SynDropped { .. }))
        .count();
    assert_eq!(drops, 3);
    assert_eq!(net.refused_count(listener), 3);
    assert_eq!(net.accept_queue_len(listener), 2);
}

#[test]
fn rst_on_backlog_full_refuses_connect() {
    let cfg = TcpConfig {
        rst_on_backlog_full: true,
        ..TcpConfig::default()
    };
    let mut net = Network::new(cfg, LinkConfig::default(), 2);
    net.listen(SERVER, 80, 1).unwrap();
    net.connect(
        SimTime::ZERO,
        CLIENT,
        SockAddr::new(SERVER, 80),
        SimDuration::ZERO,
    )
    .unwrap();
    let refused_conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let (events, _) = run(&mut net, SimTime::from_millis(10));
    assert!(events.iter().any(|e| matches!(
        e,
        NetNotify::ConnectFailed { conn, reason: ConnectError::Refused, .. } if *conn == refused_conn
    )));
}

#[test]
fn connect_to_closed_port_is_refused() {
    let mut net = network();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 81),
            SimDuration::ZERO,
        )
        .unwrap();
    let (events, _) = run(&mut net, SimTime::from_millis(10));
    assert!(events.iter().any(|e| matches!(
        e,
        NetNotify::ConnectFailed { conn: c, reason: ConnectError::Refused, .. } if *c == conn
    )));
    assert!(!net.exists(conn));
}

#[test]
fn extra_delay_slows_the_path() {
    let mut net = network();
    net.listen(SERVER, 80, 128).unwrap();
    // LAN client.
    net.connect(
        SimTime::ZERO,
        CLIENT,
        SockAddr::new(SERVER, 80),
        SimDuration::ZERO,
    )
    .unwrap();
    let (events, _) = run(&mut net, SimTime::from_millis(5));
    let lan_done = events
        .iter()
        .any(|e| matches!(e, NetNotify::ConnectDone { .. }));
    assert!(lan_done, "LAN handshake finishes within 5 ms");

    // Modem-class client: 100 ms each way means the handshake needs
    // at least 200 ms.
    let mut net2 = network();
    net2.listen(SERVER, 80, 128).unwrap();
    net2.connect(
        SimTime::ZERO,
        CLIENT,
        SockAddr::new(SERVER, 80),
        SimDuration::from_millis(100),
    )
    .unwrap();
    let (events, _) = run(&mut net2, SimTime::from_millis(150));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, NetNotify::ConnectDone { .. })),
        "high-latency handshake cannot finish in 150 ms"
    );
    let (events, _) = run(&mut net2, SimTime::from_millis(300));
    assert!(events
        .iter()
        .any(|e| matches!(e, NetNotify::ConnectDone { .. })));
}

#[test]
fn abort_frees_port_without_time_wait() {
    let mut net = network();
    net.listen(SERVER, 80, 128).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let (_, now) = run(&mut net, SimTime::from_millis(10));
    net.abort(now, EndpointId::new(conn, Side::Client)).unwrap();
    assert!(!net.exists(conn));
    assert_eq!(net.time_wait_count(CLIENT), 0);
    assert_eq!(net.stats().conns_reset, 1);
}

#[test]
fn abort_notifies_peer_with_reset() {
    let mut net = network();
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let (_, now) = run(&mut net, SimTime::from_millis(10));
    let server_ep = net.accept(listener).unwrap();
    net.abort(now, EndpointId::new(conn, Side::Client)).unwrap();
    let (events, _) = run(&mut net, now + SimDuration::from_millis(10));
    assert!(events.contains(&NetNotify::ConnReset { ep: server_ep }));
}

#[test]
fn send_buffer_backpressure_and_writable() {
    let cfg = TcpConfig {
        send_buf: 4096,
        ..TcpConfig::default()
    };
    let mut net = Network::new(cfg, LinkConfig::default(), 2);
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let (_, now) = run(&mut net, SimTime::from_millis(10));
    let _server_ep = net.accept(listener).unwrap();
    let client_ep = EndpointId::new(conn, Side::Client);

    let big = vec![0u8; 10_000];
    let n = net.send(now, client_ep, &big).unwrap();
    assert_eq!(n, 4096, "send buffer caps the write");
    let (events, _) = run(&mut net, now + SimDuration::from_millis(100));
    assert!(
        events.contains(&NetNotify::Writable { ep: client_ep }),
        "writable fires once acks free buffer space"
    );
}

#[test]
fn segment_arrivals_are_accounted_per_host() {
    let mut net = network();
    net.listen(SERVER, 80, 128).unwrap();
    net.connect(
        SimTime::ZERO,
        CLIENT,
        SockAddr::new(SERVER, 80),
        SimDuration::ZERO,
    )
    .unwrap();
    let (events, _) = run(&mut net, SimTime::from_millis(10));
    let arrivals_at = |at: HostId| -> (usize, u32) {
        events.iter().fold((0, 0), |(n, bytes), e| match e {
            NetNotify::SegmentArrived { host, wire_bytes } if *host == at => {
                (n + 1, bytes + wire_bytes)
            }
            _ => (n, bytes),
        })
    };
    // Handshake: SYN + ACK reach the server; SYN-ACK reaches the client.
    assert_eq!(arrivals_at(SERVER), (2, 80));
    assert_eq!(arrivals_at(CLIENT).0, 1);
}

#[test]
fn large_transfer_respects_bandwidth_ceiling() {
    // 1 MB at 100 Mbit/s takes at least ~84 ms on the wire.
    let mut net = network();
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let (_, now) = run(&mut net, SimTime::from_millis(10));
    let server_ep = net.accept(listener).unwrap();
    let client_ep = EndpointId::new(conn, Side::Client);

    let total = 1_000_000usize;
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut t = now;
    let chunk = vec![0u8; 8192];
    let deadline = now + SimDuration::from_secs(10);
    let mut finished_at = None;
    while t < deadline {
        if sent < total {
            sent += net
                .send(t, server_ep, &chunk[..chunk.len().min(total - sent)])
                .unwrap();
        }
        match net.next_deadline() {
            Some(next) => {
                t = next;
                let _ = net.advance(t);
                received += net.recv(client_ep, usize::MAX).unwrap().len();
                if received >= total && finished_at.is_none() {
                    finished_at = Some(t);
                    break;
                }
            }
            None => break,
        }
    }
    let finished_at = finished_at.expect("transfer completes");
    let elapsed = finished_at.saturating_duration_since(now);
    assert!(
        elapsed >= SimDuration::from_millis(80),
        "1 MB cannot beat the 100 Mbit/s wire: took {elapsed}"
    );
    assert!(
        elapsed <= SimDuration::from_millis(500),
        "transfer should still be wire-dominated: took {elapsed}"
    );
}

#[test]
fn lossy_overload_recovers_via_retransmission() {
    // A tiny egress queue forces drops; go-back-N must still deliver
    // everything.
    let link = LinkConfig {
        queue_cap: 2,
        ..LinkConfig::default()
    };
    let mut net = Network::new(TcpConfig::default(), link, 2);
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let (_, now) = run(&mut net, SimTime::from_millis(10));
    let server_ep = net.accept(listener).unwrap();
    let client_ep = EndpointId::new(conn, Side::Client);

    let payload = vec![7u8; 40_000];
    let mut sent = 0;
    let mut received = Vec::new();
    let mut t = now;
    let deadline = now + SimDuration::from_secs(30);
    while t < deadline && received.len() < payload.len() {
        if sent < payload.len() {
            sent += net.send(t, server_ep, &payload[sent..]).unwrap();
        }
        match net.next_deadline() {
            Some(next) if next <= deadline => {
                t = next;
                let _ = net.advance(t);
                received.extend(net.recv(client_ep, usize::MAX).unwrap());
            }
            _ => break,
        }
    }
    assert_eq!(received.len(), payload.len(), "all bytes delivered");
    assert!(received.iter().all(|&b| b == 7));
    assert!(net.stats().retransmits > 0, "loss actually happened");
    assert!(net.host_tx_drops(SERVER) > 0);
}

#[test]
fn double_close_is_bad_state() {
    let mut net = network();
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let (_, now) = run(&mut net, SimTime::from_millis(10));
    let _ = net.accept(listener).unwrap();
    let client_ep = EndpointId::new(conn, Side::Client);
    net.close(now, client_ep).unwrap();
    assert_eq!(net.close(now, client_ep), Err(simnet::NetError::BadState));
}

#[test]
fn listen_twice_on_same_port_fails() {
    let mut net = network();
    net.listen(SERVER, 80, 8).unwrap();
    assert_eq!(net.listen(SERVER, 80, 8), Err(NetError::AddrInUse));
    // The same port on another host is a different address.
    net.listen(CLIENT, 80, 8).unwrap();
}

#[test]
fn send_after_close_fails() {
    let mut net = network();
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let (_, now) = run(&mut net, SimTime::from_millis(10));
    let _ = net.accept(listener).unwrap();
    let client_ep = EndpointId::new(conn, Side::Client);
    net.close(now, client_ep).unwrap();
    assert!(net.send(now, client_ep, b"late").is_err());
}

#[test]
fn conn_ids_near_u32_max_work_end_to_end() {
    // The id → slot map is paged and sparse; handles at the top of the
    // u32 range must behave exactly like handles at the bottom, without
    // densifying 2^32 slots.
    let mut net = network();
    net.set_next_conn_id(u32::MAX - 2);
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let mut eps = Vec::new();
    for _ in 0..2 {
        let conn = net
            .connect(
                SimTime::ZERO,
                CLIENT,
                SockAddr::new(SERVER, 80),
                SimDuration::ZERO,
            )
            .unwrap();
        assert!(conn.0 >= u32::MAX - 2, "ids must start at the seeded top");
        eps.push(EndpointId::new(conn, Side::Client));
    }
    let (_, mut now) = run(&mut net, SimTime::from_millis(50));
    let server_eps = [net.accept(listener).unwrap(), net.accept(listener).unwrap()];

    // Data still flows on both high-id connections.
    for (client_ep, server_ep) in eps.iter().zip(server_eps) {
        let req = b"GET / HTTP/1.0\r\n\r\n";
        assert_eq!(net.send(now, *client_ep, req).unwrap(), req.len());
        let (events, t) = run(&mut net, now + SimDuration::from_millis(50));
        now = t;
        assert!(events.contains(&NetNotify::Readable { ep: server_ep }));
        assert_eq!(net.recv(server_ep, 4096).unwrap(), req);
    }

    // Sparse top-of-range ids must not cost top-of-range memory. The
    // paged map pays one pointer per page span (~a few MB of directory
    // at 2^32) plus one 32 KB page per touched span — not the tens of
    // gigabytes a dense `Vec<Option<Conn>>` over 2^32 ids would cost.
    assert!(
        net.conn_mem_bytes() < 64 << 20,
        "sparse high ids must stay paged: {} bytes",
        net.conn_mem_bytes()
    );
}

#[test]
#[should_panic(expected = "invariant: connection id space")]
fn conn_id_exhaustion_fails_loudly_not_silently() {
    // Wrapping onto a live handle would corrupt the id → slot map; the
    // allocator must abort instead of wrapping.
    let mut net = network();
    net.listen(SERVER, 80, 128).unwrap();
    net.set_next_conn_id(u32::MAX);
    let _ = net.connect(
        SimTime::ZERO,
        CLIENT,
        SockAddr::new(SERVER, 80),
        SimDuration::ZERO,
    );
}

/// One request/response exchange on a fresh connection, HTTP/1.0
/// style, starting at `at`: the client reads only `read` bytes of the
/// `reply` before both sides close. Returns the connection's client
/// endpoint, the bytes it read and the time the network is quiet
/// again.
fn exchange(
    net: &mut Network,
    listener: simnet::ListenerId,
    at: SimTime,
    request: &[u8],
    reply: &[u8],
    read: usize,
) -> (EndpointId, Vec<u8>, SimTime) {
    let step = SimDuration::from_millis(50);
    let conn = net
        .connect(at, CLIENT, SockAddr::new(SERVER, 80), SimDuration::ZERO)
        .unwrap();
    let client_ep = EndpointId::new(conn, Side::Client);
    let mut now = at + step;
    run(net, now);
    let server_ep = net.accept(listener).unwrap();
    assert_eq!(net.send(now, client_ep, request).unwrap(), request.len());
    now += step;
    run(net, now);
    assert_eq!(net.endpoint_state(server_ep).readable_bytes, request.len());
    assert_eq!(net.recv(server_ep, usize::MAX).unwrap(), request);
    assert_eq!(net.send(now, server_ep, reply).unwrap(), reply.len());
    net.close(now, server_ep).unwrap();
    now += step;
    run(net, now);
    assert_eq!(net.endpoint_state(client_ep).readable_bytes, reply.len());
    let got = net.recv(client_ep, read).unwrap();
    net.close(now, client_ep).unwrap();
    now += step;
    run(net, now);
    (client_ep, got, now)
}

#[test]
fn recycled_buffers_carry_no_stale_bytes() {
    let mut net = network();
    let listener = net.listen(SERVER, 80, 128).unwrap();
    // The first connection dies with 3 KB of its 6 KB reply unread, so
    // the buffers it leaves behind held live bytes.
    let big = vec![0xAAu8; 6 * 1024];
    let (first, got, now) = exchange(&mut net, listener, SimTime::ZERO, b"GET /big", &big, 3072);
    assert_eq!(got, &big[..3072]);
    assert!(!net.exists(first.conn), "first connection fully closed");

    let reply: Vec<u8> = (0..100u8).collect();
    let (second, got, _) = exchange(&mut net, listener, now, b"GET /small", &reply, usize::MAX);
    assert_ne!(second.conn, first.conn);
    assert_eq!(got, reply, "exactly the new connection's bytes");
}

#[test]
fn warm_buffer_pool_leaves_the_state_fingerprint_alone() {
    let mut warm = network();
    let listener = warm.listen(SERVER, 80, 128).unwrap();
    let big = vec![0xAAu8; 6 * 1024];
    let (_, _, mut now) = exchange(&mut warm, listener, SimTime::ZERO, b"GET /big", &big, 1);
    // A copy of a network starts with an empty buffer pool; the
    // original keeps the dead connection's buffers.
    let cold = warm.clone();
    let mut worlds = [warm, cold];
    let same = |w: &[Network; 2], what: &str| {
        assert_eq!(
            w[0].state_fingerprint(),
            w[1].state_fingerprint(),
            "warm and cold pools diverge {what}"
        );
    };
    same(&worlds, "after the first connection");

    // The next connection takes pooled buffers in the warm world and
    // fresh ones in the cold world; the fingerprint cannot tell.
    let step = SimDuration::from_millis(50);
    let reply = vec![0x55u8; 4 * 1024];
    let mut eps = Vec::new();
    for net in &mut worlds {
        let conn = net
            .connect(now, CLIENT, SockAddr::new(SERVER, 80), SimDuration::ZERO)
            .unwrap();
        eps.push(EndpointId::new(conn, Side::Client));
    }
    now += step;
    for (net, &client) in worlds.iter_mut().zip(&eps) {
        run(net, now);
        let server = net.accept(listener).unwrap();
        net.send(now, client, b"GET /next").unwrap();
        net.send(now, server, &reply).unwrap();
    }
    same(&worlds, "with bytes queued to send");
    now += step;
    for (net, &client) in worlds.iter_mut().zip(&eps) {
        run(net, now);
        assert_eq!(net.endpoint_state(client).readable_bytes, reply.len());
        assert_eq!(net.recv(client, 2048).unwrap(), &reply[..2048]);
    }
    same(&worlds, "with bytes delivered and partly read");
}
