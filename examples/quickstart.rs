//! Quickstart: drive the `/dev/poll` interface by hand against the
//! simulated kernel — open, declare interest with `write()`, wait with
//! `ioctl(DP_POLL)`, and serve one HTTP request.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::rc::Rc;

use scalable_net_io::devpoll::{
    settle, DevPollConfig, DevPollRegistry, DvPoll, PollFd, PollOutcome,
};
use scalable_net_io::simcore::time::{SimDuration, SimTime};
use scalable_net_io::simkernel::{CostModel, Kernel, PollBits};
use scalable_net_io::simnet::{EndpointId, HostId, LinkConfig, Network, Side, SockAddr, TcpConfig};

const CLIENT: HostId = HostId(0);
const SERVER: HostId = HostId(1);

fn main() {
    // A two-host world: a client and the paper's K6-2 server.
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
    let mut registry = DevPollRegistry::new();
    let pid = kernel.spawn_default();

    // listen(80) and open /dev/poll.
    let t0 = SimTime::ZERO;
    kernel.begin_batch(t0, pid);
    let lfd = kernel.sys_listen(&mut net, pid, 80, 128).expect("listen");
    let dpfd = registry
        .open(&mut kernel, pid, DevPollConfig::default())
        .expect("open /dev/poll");
    // Declare interest in the listener.
    registry
        .write(
            &mut kernel,
            pid,
            dpfd,
            &[PollFd::new(lfd, PollBits::POLLIN)],
        )
        .expect("write interest");
    kernel.end_batch(t0, pid);
    println!("server: listening on port 80, /dev/poll fd {dpfd}");

    // A client connects and sends a request.
    let conn = net
        .connect(t0, CLIENT, SockAddr::new(SERVER, 80), SimDuration::ZERO)
        .expect("connect");
    let client_ep = EndpointId::new(conn, Side::Client);
    settle(
        &mut net,
        &mut kernel,
        &mut registry,
        t0,
        SimTime::from_millis(5),
        |_, _, _, _, _| {},
    );
    net.send(
        SimTime::from_millis(5),
        client_ep,
        b"GET / HTTP/1.0\r\n\r\n",
    )
    .expect("send request");
    settle(
        &mut net,
        &mut kernel,
        &mut registry,
        SimTime::from_millis(5),
        SimTime::from_millis(10),
        |_, _, _, _, _| {},
    );

    // DP_POLL reports the listener ready; accept and add the new socket
    // to the interest set.
    let t = SimTime::from_millis(10);
    kernel.begin_batch(t, pid);
    let (outcome, results) = registry
        .dp_poll(&mut kernel, pid, dpfd, DvPoll::into_user_buffer(16, 0))
        .expect("DP_POLL");
    println!("DP_POLL -> {outcome:?}, results {results:?}");
    assert!(matches!(outcome, PollOutcome::Ready(n) if n >= 1));
    let fd = kernel.sys_accept(&mut net, t, pid, lfd).expect("accept");
    kernel.sys_set_nonblock(pid, fd).expect("nonblock");
    registry
        .write(&mut kernel, pid, dpfd, &[PollFd::new(fd, PollBits::POLLIN)])
        .expect("add interest");
    kernel.end_batch(t, pid);
    println!("server: accepted connection as fd {fd}");

    // Wait for the request, read it, answer it, remove the interest.
    settle(
        &mut net,
        &mut kernel,
        &mut registry,
        SimTime::from_millis(10),
        SimTime::from_millis(15),
        |_, _, _, _, _| {},
    );
    let t = SimTime::from_millis(15);
    kernel.begin_batch(t, pid);
    let (_, results) = registry
        .dp_poll(&mut kernel, pid, dpfd, DvPoll::into_user_buffer(16, 0))
        .expect("DP_POLL");
    println!("DP_POLL results: {results:?}");
    let request = kernel.sys_read(&mut net, pid, fd, 4096).expect("read");
    println!("server: got {:?}", String::from_utf8_lossy(&request));
    let body = b"<html>hello from the simulated K6-2</html>";
    let response = format!("HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
    // The socket queues a share of the bytes it is given, not a copy.
    kernel
        .sys_write(&mut net, t, pid, fd, &Rc::new(response.into_bytes()), 0)
        .expect("write headers");
    kernel
        .sys_write(&mut net, t, pid, fd, &Rc::new(body.to_vec()), 0)
        .expect("write body");
    registry
        .write(&mut kernel, pid, dpfd, &[PollFd::remove(fd)])
        .expect("remove interest");
    kernel.sys_close(&mut net, t, pid, fd).expect("close");
    kernel.end_batch(t, pid);

    // The client reads the reply.
    settle(
        &mut net,
        &mut kernel,
        &mut registry,
        SimTime::from_millis(15),
        SimTime::from_millis(120),
        |_, _, _, _, _| {},
    );
    let reply = net.recv(client_ep, usize::MAX).expect("recv");
    println!("client: received {} bytes:", reply.len());
    println!("{}", String::from_utf8_lossy(&reply));
    assert!(reply.starts_with(b"HTTP/1.0 200 OK"));
    println!("quickstart OK");
}
