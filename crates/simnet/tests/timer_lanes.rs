//! The network's timer lanes stay sorted on their own: every delivery
//! that left a transmitter, every SYN and first-data RTO, and every
//! TIME_WAIT end is armed no earlier than the tail of its FIFO lane, so
//! none of them waits in the fallback heap. The queue fires in the same
//! order either way; this pins the arming order the queue's speed
//! depends on, so a change that breaks it fails here by name instead of
//! showing up as a slowdown.

use simcore::time::{SimDuration, SimTime};
use simnet::{HostId, LinkConfig, NetNotify, Network, Side, SockAddr, TcpConfig, MODEM_DELAY};

const SERVER: HostId = HostId(1);
/// Client hosts: two transmitters, each carrying LAN and modem-class
/// connections.
const CLIENTS: [HostId; 2] = [HostId(0), HostId(2)];
const CONNS: u32 = 64;
const REQUEST: [u8; 300] = [b'q'; 300];
const REPLY: [u8; 6 * 1024] = [b'r'; 6 * 1024];

#[test]
fn transmitted_deliveries_constant_delay_rtos_and_time_wait_ends_never_fall_back() {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 3);
    let listener = net.listen(SERVER, 80, 128).unwrap();
    // One connect every 250 µs, alternating client host and extra delay,
    // so the server's transmitter interleaves LAN and modem replies and
    // each client's interleaves its own two classes.
    let connect_at = |i: u32| SimTime::ZERO + SimDuration::from_micros(250 * u64::from(i));
    let mut launched = 0;
    let mut now = SimTime::ZERO;
    let (mut replies, mut closed) = (0, 0);
    let mut waited = [0; 2];
    loop {
        let next_connect = (launched < CONNS).then(|| connect_at(launched));
        let next = match (net.next_deadline(), next_connect) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => match a.or(b) {
                Some(t) => t,
                None => break,
            },
        };
        assert!(next >= now, "time went backwards");
        now = next;
        if next_connect == Some(now) {
            let host = CLIENTS[launched as usize % 2];
            let extra = if (launched / 2) % 2 == 0 {
                SimDuration::ZERO
            } else {
                MODEM_DELAY
            };
            net.connect(now, host, SockAddr::new(SERVER, 80), extra)
                .unwrap();
            launched += 1;
        }
        for n in net.advance(now) {
            match n {
                NetNotify::AcceptReady { .. } => while net.accept(listener).is_some() {},
                NetNotify::ConnectDone { ep } => {
                    assert_eq!(net.send(now, ep, &REQUEST).unwrap(), REQUEST.len());
                }
                NetNotify::Readable { ep }
                    if ep.side == Side::Server
                        && net.endpoint_state(ep).readable_bytes == REQUEST.len() =>
                {
                    net.recv(ep, usize::MAX).unwrap();
                    assert_eq!(net.send(now, ep, &REPLY).unwrap(), REPLY.len());
                    net.close(now, ep).unwrap();
                }
                NetNotify::PeerClosed { ep } if ep.side == Side::Client => {
                    let got = net.recv(ep, usize::MAX).unwrap();
                    assert_eq!(got.len(), REPLY.len());
                    replies += 1;
                    net.close(now, ep).unwrap();
                }
                NetNotify::ConnClosed { ep } if ep.side == Side::Client => closed += 1,
                NetNotify::ConnectFailed { conn, reason, .. } => {
                    panic!("{conn:?} failed to connect: {reason:?}")
                }
                NetNotify::ConnReset { ep } => panic!("{ep:?} reset"),
                _ => {}
            }
        }
        for (peak, host) in waited.iter_mut().zip(CLIENTS) {
            *peak = (*peak).max(net.time_wait_count(host));
        }
        if now > SimTime::from_secs(70) {
            break;
        }
    }
    assert_eq!(replies, CONNS, "every connection got its reply");
    assert_eq!(closed, CONNS, "every connection closed cleanly");
    assert_eq!(net.stats().conns_closed, u64::from(CONNS));
    // Both client hosts parked their ports, and every TIME_WAIT ended
    // inside the run.
    assert_eq!(waited, [CONNS as usize / 2; 2], "ports parked per host");
    for host in CLIENTS {
        assert_eq!(net.time_wait_count(host), 0, "{host:?} still waiting");
    }
    assert_eq!(
        net.timer_lane_misses(),
        0,
        "a transmitted delivery, a SYN / first-data RTO or a TIME_WAIT \
         end was armed earlier than its FIFO lane's tail"
    );
}

/// After an HTTP/1.0-style close (server first, client on EOF) the
/// client port, and only it, stays in TIME_WAIT for exactly
/// `time_wait`: its end is a network timer, due at `close + time_wait`
/// and fired by `advance`, with no other call needed.
#[test]
fn time_wait_ends_exactly_time_wait_after_the_close() {
    let time_wait = SimDuration::from_secs(3);
    let tcp = TcpConfig {
        time_wait,
        ..TcpConfig::default()
    };
    let mut net = Network::new(tcp, LinkConfig::default(), 2);
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let client = CLIENTS[0];
    let conn = net
        .connect(
            SimTime::ZERO,
            client,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
    let mut closed_at = None;
    while closed_at.is_none() {
        let now = net.next_deadline().expect("the connection is in flight");
        for n in net.advance(now) {
            match n {
                NetNotify::AcceptReady { .. } => {
                    let ep = net.accept(listener).unwrap();
                    net.close(now, ep).unwrap();
                }
                NetNotify::PeerClosed { ep } if ep.side == Side::Client => {
                    net.close(now, ep).unwrap();
                }
                NetNotify::ConnClosed { ep } if ep.side == Side::Client => closed_at = Some(now),
                _ => {}
            }
        }
    }
    assert!(!net.exists(conn));
    assert_eq!(net.stats().conns_closed, 1);
    assert_eq!(net.time_wait_count(SERVER), 0);
    let end = closed_at.unwrap() + time_wait;
    // Stale retransmission timers fire and do nothing.
    while let Some(t) = net.next_deadline().filter(|&t| t < end) {
        assert!(net.advance(t).is_empty());
    }
    assert_eq!(net.next_deadline(), Some(end), "the TIME_WAIT end is armed");
    net.advance(end - SimDuration::from_nanos(1));
    assert_eq!(net.time_wait_count(client), 1, "1 ns before the end");
    net.advance(end);
    assert_eq!(net.time_wait_count(client), 0, "at the end");
    assert_eq!(net.next_deadline(), None);
    assert_eq!(net.timer_lane_misses(), 0);
}

/// The counter the test above reads does count. An RST skips the
/// transmit queue, so it lands before the segments queued ahead of it:
/// it goes straight to the fallback heap and is not counted. A
/// connection started before the previous one arms its SYN RTO earlier
/// than that lane's tail, which is counted.
#[test]
fn lane_misses_count_out_of_order_arming_only() {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let listener = net.listen(SERVER, 80, 128).unwrap();
    let start = SimTime::from_millis(5);
    let server = SockAddr::new(SERVER, 80);
    net.connect(start, CLIENTS[0], server, SimDuration::ZERO)
        .unwrap();
    let mut now = start;
    while net.accept_queue_len(listener) == 0 {
        now = net.next_deadline().expect("the handshake is in flight");
        net.advance(now);
    }
    let server_ep = net.accept(listener).unwrap();
    assert_eq!(net.send(now, server_ep, &REPLY).unwrap(), REPLY.len());
    net.abort(now, server_ep).unwrap();
    assert_eq!(net.timer_lane_misses(), 0, "the RST is not a lane miss");
    net.connect(SimTime::ZERO, CLIENTS[0], server, SimDuration::ZERO)
        .unwrap();
    assert_eq!(net.timer_lane_misses(), 1, "the earlier SYN RTO is");
}
