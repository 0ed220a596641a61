//! The hybrid server's mode machine: signal mode under light load,
//! polling past the queue-pressure threshold, and back once the burst
//! drains. The world settles through `devpoll::settle`, the dispatch
//! phases every figure's testbed runs.

use devpoll::DevPollRegistry;
use servers::{HybridMode, HybridServer, Server, ServerConfig, ServerCtx};
use simcore::time::{SimDuration, SimTime};
use simkernel::{CostModel, Kernel};
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

    fn connect_and_request(&mut self, server: &mut dyn Server) -> ConnId {
        let conn = self
            .net
            .connect(
                self.now,
                CLIENT,
                SockAddr::new(SERVER, 80),
                SimDuration::ZERO,
            )
            .unwrap();
        self.run(server, self.now + SimDuration::from_millis(2));
        let ep = EndpointId::new(conn, Side::Client);
        let _ = self.net.send(self.now, ep, b"GET / HTTP/1.0\r\n\r\n");
        conn
    }
}

fn hybrid(rig: &mut Rig, queue_max: usize) -> HybridServer {
    let config = ServerConfig {
        rt_queue_max: queue_max,
        ..ServerConfig::default()
    };
    let mut server = {
        let mut ctx = ServerCtx {
            kernel: &mut rig.kernel,
            net: &mut rig.net,
            registry: &mut rig.registry,
            now: rig.now,
        };
        HybridServer::new(&mut ctx, config)
    };
    let mut ctx = ServerCtx {
        kernel: &mut rig.kernel,
        net: &mut rig.net,
        registry: &mut rig.registry,
        now: rig.now,
    };
    server.start(&mut ctx).unwrap();
    server
}

#[test]
fn stays_in_signal_mode_at_light_load() {
    let mut rig = Rig::new();
    let mut server = hybrid(&mut rig, 1024);
    for _ in 0..5 {
        rig.connect_and_request(&mut server);
        rig.run(&mut server, rig.now + SimDuration::from_millis(50));
    }
    assert_eq!(server.mode(), HybridMode::Signals);
    assert_eq!(server.metrics().replies, 5);
    assert_eq!(server.metrics().mode_switches, 0);
}

#[test]
fn burst_flips_to_polling_and_back() {
    let mut rig = Rig::new();
    // Tiny queue: a burst of concurrent clients trips the crossover
    // (more than half of 4 slots, i.e. 3 queued signals).
    let mut server = hybrid(&mut rig, 4);
    let mut conns = Vec::new();
    for _ in 0..20 {
        let conn = rig
            .net
            .connect(
                rig.now,
                CLIENT,
                SockAddr::new(SERVER, 80),
                SimDuration::ZERO,
            )
            .unwrap();
        conns.push(conn);
    }
    rig.run(&mut server, rig.now + SimDuration::from_millis(3));
    for &conn in &conns {
        let ep = EndpointId::new(conn, Side::Client);
        let _ = rig.net.send(rig.now, ep, b"GET / HTTP/1.0\r\n\r\n");
    }
    rig.run(&mut server, rig.now + SimDuration::from_millis(500));
    assert_eq!(server.metrics().replies, 20, "{:?}", server.metrics());
    assert!(
        server.metrics().mode_switches >= 2,
        "must have flipped to polling and back: {:?}",
        server.metrics()
    );
    // Quiet again: signal mode.
    assert_eq!(server.mode(), HybridMode::Signals);
    // Nothing was lost to the switches — the kernel interest set carried
    // the state across (§6's re-architecture).
    assert_eq!(server.open_conns(), 0);
}

#[test]
fn hybrid_never_counts_rt_losses_as_failures() {
    // Even if the RT queue overflows during the flip, the devpoll
    // interest set recovers every event: all clients get answers.
    let mut rig = Rig::new();
    // Two slots, and the crossover needs more than one queued signal:
    // the queue fills during the flip.
    let mut server = hybrid(&mut rig, 2);
    let mut conns = Vec::new();
    for _ in 0..30 {
        conns.push(
            rig.net
                .connect(
                    rig.now,
                    CLIENT,
                    SockAddr::new(SERVER, 80),
                    SimDuration::ZERO,
                )
                .unwrap(),
        );
    }
    rig.run(&mut server, rig.now + SimDuration::from_millis(3));
    for &conn in &conns {
        let ep = EndpointId::new(conn, Side::Client);
        let _ = rig
            .net
            .send(rig.now, ep, b"GET /index.html HTTP/1.0\r\n\r\n");
    }
    rig.run(&mut server, rig.now + SimDuration::from_millis(800));
    assert_eq!(server.metrics().replies, 30, "{:?}", server.metrics());
    assert!(
        server.metrics().overflows >= 1,
        "the RT queue must actually overflow: {:?}",
        server.metrics()
    );
}
