//! TCP edge cases: simultaneous close, close-with-pending-data, aborts
//! racing data, exact backlog boundaries, and half-close semantics.

use simcore::time::{SimDuration, SimTime};
use simnet::{
    ConnId, EndpointId, HostId, LinkConfig, NetNotify, Network, Side, SockAddr, TcpConfig,
};

const CLIENT: HostId = HostId(0);
const SERVER: HostId = HostId(1);

fn run(net: &mut Network, horizon: SimTime) -> Vec<NetNotify> {
    let mut all = Vec::new();
    while let Some(t) = net.next_deadline() {
        if t > horizon {
            break;
        }
        all.extend(net.advance(t));
    }
    all.extend(net.advance(horizon));
    all
}

fn established_pair(net: &mut Network) -> (EndpointId, EndpointId) {
    let listener = net.listen(SERVER, 80, 16).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    run(net, SimTime::from_millis(10));
    let server_ep = net.accept(listener).expect("accepted");
    (EndpointId::new(conn, Side::Client), server_ep)
}

#[test]
fn simultaneous_close_converges() {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let (client, server) = established_pair(&mut net);
    let t = SimTime::from_millis(10);
    net.close(t, client).unwrap();
    net.close(t, server).unwrap();
    let events = run(&mut net, SimTime::from_millis(100));
    let closed = events
        .iter()
        .filter(|e| matches!(e, NetNotify::ConnClosed { .. }))
        .count();
    assert_eq!(closed, 2, "both halves observe the close");
    assert!(!net.exists(client.conn));
    assert_eq!(net.stats().conns_closed, 1);
    // Exactly one TIME_WAIT entry (the client tuple).
    assert_eq!(net.time_wait_count(CLIENT), 1);
    assert_eq!(net.time_wait_count(SERVER), 0);
}

#[test]
fn close_flushes_buffered_data_before_fin() {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let (client, server) = established_pair(&mut net);
    let t = SimTime::from_millis(10);
    let payload = vec![9u8; 12_000];
    assert_eq!(net.send(t, server, &payload).unwrap(), payload.len());
    net.close(t, server).unwrap(); // FIN must trail the data.
    let events = run(&mut net, SimTime::from_millis(200));
    let got = net.recv(client, usize::MAX);
    // The connection fully closed, so the endpoint may already be gone —
    // but the data must have been readable before: count Readable
    // events and verify the client's inbox was filled at some point.
    let readable = events
        .iter()
        .filter(|e| matches!(e, NetNotify::Readable { ep } if *ep == client))
        .count();
    assert!(readable > 0, "data arrived before the close completed");
    // PeerClosed must come after data arrival in the event order.
    let first_peer_closed = events
        .iter()
        .position(|e| matches!(e, NetNotify::PeerClosed { ep } if *ep == client))
        .expect("client saw FIN");
    let first_readable = events
        .iter()
        .position(|e| matches!(e, NetNotify::Readable { ep } if *ep == client))
        .expect("client saw data");
    assert!(first_readable < first_peer_closed, "data before FIN");
    let _ = got;
}

#[test]
fn unread_data_is_available_until_consumed() {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let (client, server) = established_pair(&mut net);
    let t = SimTime::from_millis(10);
    net.send(t, server, b"take your time").unwrap();
    run(&mut net, SimTime::from_millis(50));
    assert_eq!(net.endpoint_state(client).readable_bytes, 14);
    // Partial reads drain incrementally.
    let part = net.recv(client, 4).unwrap();
    assert_eq!(part, b"take");
    assert_eq!(net.endpoint_state(client).readable_bytes, 10);
    let rest = net.recv(client, usize::MAX).unwrap();
    assert_eq!(rest, b" your time");
}

#[test]
fn backlog_of_one_admits_exactly_one_then_recovers() {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let listener = net.listen(SERVER, 80, 1).unwrap();
    let _c1 = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let _c2 = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    run(&mut net, SimTime::from_millis(10));
    assert_eq!(net.accept_queue_len(listener), 1);
    assert_eq!(net.refused_count(listener), 1);
    // Accepting frees the slot; the dropped SYN retries at ~3 s and then
    // succeeds.
    let _ep = net.accept(listener).unwrap();
    run(&mut net, SimTime::from_secs(4));
    assert_eq!(net.accept_queue_len(listener), 1, "retried SYN got in");
}

#[test]
fn send_after_peer_abort_errors_eventually() {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let (client, server) = established_pair(&mut net);
    let t = SimTime::from_millis(10);
    net.abort(t, client).unwrap();
    run(&mut net, SimTime::from_millis(20));
    // The server side observed the RST; its endpoint is gone.
    assert!(net.send(SimTime::from_millis(20), server, b"x").is_err());
}

#[test]
fn half_close_allows_server_to_keep_sending() {
    // Client closes its sending direction; the server can still respond
    // (classic HTTP-over-half-close).
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let (client, server) = established_pair(&mut net);
    let t = SimTime::from_millis(10);
    net.send(t, client, b"request").unwrap();
    net.close(t, client).unwrap();
    run(&mut net, SimTime::from_millis(50));
    assert!(
        net.endpoint_state(server).peer_closed,
        "server sees the half-close"
    );
    let req = net.recv(server, usize::MAX).unwrap();
    assert_eq!(req, b"request");
    // Server responds on its still-open direction.
    assert_eq!(
        net.send(SimTime::from_millis(50), server, b"response")
            .unwrap(),
        8
    );
    run(&mut net, SimTime::from_millis(100));
    let resp = net.recv(client, usize::MAX).unwrap();
    assert_eq!(resp, b"response");
    net.close(SimTime::from_millis(100), server).unwrap();
    run(&mut net, SimTime::from_millis(200));
    assert!(!net.exists(client.conn), "fully closed after both FINs");
}

#[test]
fn listener_port_survives_connection_churn() {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let listener = net.listen(SERVER, 80, 64).unwrap();
    for round in 0..5u64 {
        let t = SimTime::from_millis(round * 200);
        let conn = net
            .connect(t, CLIENT, SockAddr::new(SERVER, 80), SimDuration::ZERO)
            .unwrap();
        run(&mut net, t + SimDuration::from_millis(20));
        let server_ep = net.accept(listener).unwrap();
        let client_ep = EndpointId::new(conn, Side::Client);
        net.close(t + SimDuration::from_millis(20), server_ep)
            .unwrap();
        run(&mut net, t + SimDuration::from_millis(40));
        let _ = net.close(t + SimDuration::from_millis(40), client_ep);
        run(&mut net, t + SimDuration::from_millis(100));
    }
    assert_eq!(net.stats().conns_closed, 5);
    // The well-known port is still bound and accepting.
    let t = SimTime::from_secs(2);
    net.connect(t, CLIENT, SockAddr::new(SERVER, 80), SimDuration::ZERO)
        .unwrap();
    run(&mut net, t + SimDuration::from_millis(20));
    assert_eq!(net.accept_queue_len(listener), 1);
}

#[test]
fn window_limits_inflight_bytes() {
    let cfg = TcpConfig {
        window_segments: 2,
        ..TcpConfig::default()
    };
    // With a 2-segment window and a long-delay path, throughput is
    // window-bound: 2 * 1460 bytes per RTT.
    let mut net = Network::new(cfg, LinkConfig::default(), 2);
    let listener = net.listen(SERVER, 80, 16).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::from_millis(50), // ~100 ms RTT.
        )
        .unwrap();
    run(&mut net, SimTime::from_millis(400));
    let server_ep = net.accept(listener).unwrap();
    let client_ep = EndpointId::new(conn, Side::Client);
    let t = SimTime::from_millis(400);
    net.send(t, server_ep, &vec![0u8; 14_600]).unwrap(); // 10 segments.
                                                         // One RTT later only ~2 segments have arrived.
    run(&mut net, t + SimDuration::from_millis(140));
    let got_after_1rtt = net.recv(client_ep, usize::MAX).unwrap().len();
    assert!(
        got_after_1rtt <= 2 * 1460,
        "window must cap the first flight: got {got_after_1rtt}"
    );
    // Eventually everything arrives.
    let mut total = got_after_1rtt;
    for step in 0..40u64 {
        run(&mut net, t + SimDuration::from_millis(200 + step * 100));
        total += net.recv(client_ep, usize::MAX).unwrap().len();
        if total >= 14_600 {
            break;
        }
    }
    assert_eq!(total, 14_600);
}

#[test]
fn total_loss_turns_connect_into_timeout() {
    // With 100 % injected loss no SYN ever arrives: the connect must
    // fail with Timeout after the retry budget, and the client port must
    // be released.
    let link = LinkConfig {
        loss_prob: 1.0,
        ..LinkConfig::default()
    };
    let mut net = Network::new(TcpConfig::default(), link, 2);
    let _l = net.listen(SERVER, 80, 8).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let events = run(&mut net, SimTime::from_secs(200));
    assert!(
        events.iter().any(|e| matches!(
            e,
            NetNotify::ConnectFailed { conn: c, reason: simnet::ConnectError::Timeout, .. } if *c == conn
        )),
        "SYN retries must exhaust: {events:?}"
    );
    assert!(!net.exists(conn));
    assert!(net.stats().injected_losses > 1, "retries were attempted");
}

#[test]
fn moderate_loss_still_completes_requests() {
    let link = LinkConfig {
        loss_prob: 0.1,
        ..LinkConfig::default()
    };
    let mut net = Network::new(TcpConfig::default(), link, 2);
    let listener = net.listen(SERVER, 80, 8).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let client = EndpointId::new(conn, Side::Client);
    let mut server_ep = None;
    let mut got = Vec::new();
    let mut sent = false;
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(120) && got.len() < 6144 {
        if server_ep.is_none() {
            server_ep = net.accept(listener);
            if let Some(ep) = server_ep {
                let _ = net.send(t, ep, &vec![3u8; 6144]);
                sent = true;
            }
        }
        match net.next_deadline() {
            Some(next) => {
                t = next;
                let _ = net.advance(t);
                got.extend(net.recv(client, usize::MAX).unwrap_or_default());
            }
            None => break,
        }
    }
    assert!(sent, "handshake must survive 10% loss");
    assert_eq!(got.len(), 6144, "reliable despite loss");
}

/// Arms a segment delivery (client B's SYN) and a retransmission
/// timeout (connection A's server-side data RTO) for the same instant
/// and returns the notifications fired there. The delivery is armed
/// `syn_flight` before it is due, the RTO `rto_initial` (10 ms) before.
fn same_instant_delivery_and_rto(syn_flight: SimDuration) -> (ConnId, Vec<NetNotify>) {
    let cfg = TcpConfig {
        rto_initial: SimDuration::from_millis(10),
        data_retries: 0, // The first RTO firing resets the connection.
        ..TcpConfig::default()
    };
    let mut net = Network::new(cfg, LinkConfig::default(), 2);
    net.listen(SERVER, 80, 16).unwrap();
    let server_addr = SockAddr::new(SERVER, 80);
    // A's 20 ms extra one-way delay keeps its data unacked when its RTO
    // fires; its SYN's arrival time gives the zero-extra SYN flight time.
    let slow = SimDuration::from_millis(20);
    let a = net
        .connect(SimTime::ZERO, CLIENT, server_addr, slow)
        .unwrap();
    let syn_base = net.next_deadline().unwrap() - SimTime::ZERO - slow;
    run(&mut net, SimTime::from_millis(200));
    assert!(net.is_established(a));

    let due = SimTime::from_millis(300);
    let send_at = due - cfg.rto_initial;
    let connect_at = due - syn_base - syn_flight;
    let connect_b = |net: &mut Network| {
        run(net, connect_at);
        net.connect(connect_at, CLIENT, server_addr, syn_flight)
            .unwrap();
    };
    let send_a = |net: &mut Network| {
        run(net, send_at);
        let a_server = EndpointId::new(a, Side::Server);
        assert_eq!(net.send(send_at, a_server, b"x").unwrap(), 1);
    };
    if connect_at < send_at {
        connect_b(&mut net);
        send_a(&mut net);
    } else {
        send_a(&mut net);
        connect_b(&mut net);
    }
    assert_eq!(net.next_deadline(), Some(due));
    (a, net.advance(due))
}

#[test]
fn same_instant_delivery_and_rto_fire_in_arming_order() {
    let position = |events: &[NetNotify], a: ConnId| {
        let delivery = events
            .iter()
            .position(|e| matches!(e, NetNotify::SegmentArrived { host, .. } if *host == SERVER))
            .expect("B's SYN arrives at the server");
        let reset = events
            .iter()
            .position(|e| matches!(e, NetNotify::ConnReset { ep } if ep.conn == a))
            .expect("A's RTO resets it");
        (delivery, reset)
    };
    // Delivery armed first (50 ms flight vs the 10 ms RTO): it fires
    // first.
    let (a, events) = same_instant_delivery_and_rto(SimDuration::from_millis(50));
    let (delivery, reset) = position(&events, a);
    assert!(
        delivery < reset,
        "delivery armed first fires first: {events:?}"
    );
    // RTO armed first (the SYN leaves 10 ms later): it fires first.
    let (a, events) = same_instant_delivery_and_rto(SimDuration::ZERO);
    let (delivery, reset) = position(&events, a);
    assert!(reset < delivery, "RTO armed first fires first: {events:?}");
}
