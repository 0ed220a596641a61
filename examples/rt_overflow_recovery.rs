//! The RT-signal overflow protocol at API level (§2 of the paper):
//! queue events until the bounded RT queue overflows, observe SIGIO,
//! flush, and recover with `poll()`.
//!
//! ```text
//! cargo run --example rt_overflow_recovery
//! ```

use scalable_net_io::devpoll::{
    settle, sys_poll, DevPollRegistry, PollFd, PollOutcome, RtEvent, RtSignalApi,
};
use scalable_net_io::simcore::probe::Metric;
use scalable_net_io::simcore::time::{SimDuration, SimTime};
use scalable_net_io::simkernel::{CostModel, Kernel, PollBits};
use scalable_net_io::simnet::{EndpointId, HostId, LinkConfig, Network, Side, SockAddr, TcpConfig};

const CLIENT: HostId = HostId(0);
const SERVER: HostId = HostId(1);

fn main() {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
    // A deliberately tiny RT queue so the overflow is easy to trigger.
    let pid = kernel.spawn(1024, 8);
    let rtapi = RtSignalApi::default();
    // No `/dev/poll` device is opened, so settling charges no hint cost.
    let mut registry = DevPollRegistry::new();

    let t0 = SimTime::ZERO;
    kernel.begin_batch(t0, pid);
    let lfd = kernel.sys_listen(&mut net, pid, 80, 128).expect("listen");
    kernel.end_batch(t0, pid);

    // Connect a client and register the accepted socket for
    // signal-driven I/O.
    let conn = net
        .connect(t0, CLIENT, SockAddr::new(SERVER, 80), SimDuration::ZERO)
        .expect("connect");
    let client_ep = EndpointId::new(conn, Side::Client);
    let t = SimTime::from_millis(5);
    settle(
        &mut net,
        &mut kernel,
        &mut registry,
        t0,
        t,
        |_, _, _, _, _| {},
    );
    kernel.begin_batch(t, pid);
    let fd = kernel.sys_accept(&mut net, t, pid, lfd).expect("accept");
    rtapi.register(&mut kernel, pid, fd).expect("F_SETSIG");
    kernel.end_batch(t, pid);
    println!("registered fd {fd} for RT signal delivery (queue max = 8)");

    // Twelve separate data arrivals -> twelve readiness events -> the
    // queue (8 slots) overflows.
    for i in 0..12u64 {
        let at = SimTime::from_millis(10 + i * 5);
        net.send(at, client_ep, b"x").expect("client send");
        let until = at + SimDuration::from_millis(4);
        settle(
            &mut net,
            &mut kernel,
            &mut registry,
            at,
            until,
            |_, _, _, _, _| {},
        );
    }
    let sig = &kernel.process(pid).signals;
    println!(
        "after the burst: queue depth {}, lost to overflow {}, SIGIO pending: {}",
        sig.queue_len(),
        kernel.probe().counter(Metric::RtsigOverflows),
        sig.sigio_pending()
    );
    assert!(sig.sigio_pending(), "overflow must raise SIGIO");

    // Pick events up one at a time; SIGIO (the overflow notice)
    // delivers ahead of the queued RT signals.
    let t = SimTime::from_millis(100);
    kernel.begin_batch(t, pid);
    let first = rtapi.next_event(&mut kernel, pid).expect("first event");
    println!("first pickup: {first:?}");
    assert_eq!(first, RtEvent::Overflow);

    // Recovery step 1: flush the stale queue contents.
    let flushed = rtapi.flush(&mut kernel, pid);
    println!("flushed {flushed} stale signals");

    // Recovery step 2: a poll() over the connection set discovers what
    // is actually pending (§2: "to recover, it uses poll() to discover
    // any remaining pending activity").
    let mut fds = [PollFd::new(fd, PollBits::POLLIN)];
    let out = sys_poll(&mut kernel, pid, &mut fds, 0);
    println!("recovery poll(): {out:?}, revents {}", fds[0].revents);
    assert_eq!(out, PollOutcome::Ready(1));
    assert!(fds[0].revents.contains(PollBits::POLLIN));

    // Drain the socket; twelve writes of one byte arrived.
    let data = kernel.sys_read(&mut net, pid, fd, 4096).expect("read");
    println!("drained {} bytes after recovery", data.len());
    assert_eq!(data.len(), 12);
    kernel.end_batch(t, pid);
    println!("overflow recovery OK");
}
