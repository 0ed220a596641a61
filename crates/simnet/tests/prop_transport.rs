//! Property test: the transport is reliable — whatever the application
//! writes arrives intact and in order, regardless of link queue pressure
//! and chunking, as long as the simulation is given time to converge.

use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};
use simnet::{EndpointId, HostId, LinkConfig, Network, Side, SockAddr, TcpConfig};

fn run_transfer(
    chunks: &[Vec<u8>],
    queue_cap: usize,
    extra_delay_ms: u64,
    loss_prob: f64,
) -> Vec<u8> {
    let link = LinkConfig {
        queue_cap,
        loss_prob,
        ..LinkConfig::default()
    };
    let mut net = Network::new(TcpConfig::default(), link, 2);
    let listener = net.listen(HostId(1), 80, 16).unwrap();
    let conn = net
        .connect(
            SimTime::ZERO,
            HostId(0),
            SockAddr::new(HostId(1), 80),
            SimDuration::from_millis(extra_delay_ms),
        )
        .unwrap();
    let client_ep = EndpointId::new(conn, Side::Client);

    let mut received = Vec::new();
    let mut t = SimTime::ZERO;
    let deadline = SimTime::from_secs(600);
    let mut pending: Vec<u8> = chunks.concat();
    let mut server_ep = None;
    let mut sent = 0usize;
    loop {
        if server_ep.is_none() {
            server_ep = net.accept(listener);
        }
        if sent < pending.len() {
            sent += net.send(t, client_ep, &pending[sent..]).unwrap_or(0);
        }
        if let Some(ep) = server_ep {
            received.extend(net.recv(ep, usize::MAX).unwrap_or_default());
        }
        if received.len() >= pending.len() {
            break;
        }
        match net.next_deadline() {
            Some(next) if next <= deadline => {
                t = next.max(t);
                let _ = net.advance(t);
            }
            _ => break,
        }
    }
    pending.truncate(received.len().max(pending.len()));
    received
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stream_is_reliable_and_ordered(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..3000), 1..6),
        queue_cap in 2usize..64,
        extra_ms in 0u64..50,
    ) {
        let expected: Vec<u8> = chunks.concat();
        let got = run_transfer(&chunks, queue_cap, extra_ms, 0.0);
        prop_assert_eq!(got, expected);
    }

    /// Go-back-N still delivers everything intact under injected random
    /// segment loss of up to 20 %.
    #[test]
    fn stream_survives_random_loss(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..2000), 1..4),
        loss_pct in 1u32..20,
    ) {
        let expected: Vec<u8> = chunks.concat();
        let got = run_transfer(&chunks, 64, 0, loss_pct as f64 / 100.0);
        prop_assert_eq!(got, expected);
    }
}
