//! The per-connection HTTP state machine shared by every server
//! architecture (thttpd-style event loops, the RT-signal server, the
//! hybrid).

use std::rc::Rc;

use simcore::time::SimTime;
use simkernel::{Errno, Fd, Kernel, Pid};
use simnet::Network;

use crate::content::ContentStore;
use crate::http::{parse_request, response_error, ParseOutcome};

/// What a connection is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnPhase {
    /// Buffering the request.
    Reading,
    /// Draining the response.
    Writing,
}

/// Why a connection finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishKind {
    /// Response fully sent.
    Replied,
    /// Peer closed before sending a complete request.
    ClientClosedEarly,
    /// Reset / read / write error.
    Error,
}

/// Result of feeding an event to a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnStatus {
    /// Still waiting for readability.
    WantRead,
    /// Response not fully drained; wait for writability.
    WantWrite,
    /// Connection is done (caller removes interest and closes the fd).
    Finished(FinishKind),
}

/// Server-side per-connection state.
#[derive(Debug)]
pub struct HttpConn {
    /// The descriptor.
    pub fd: Fd,
    /// Current phase.
    pub phase: ConnPhase,
    /// Buffered request bytes.
    pub in_buf: Vec<u8>,
    /// Response bytes (headers + body), `None` until a response is
    /// chosen. Shared with the content store's pre-rendered response
    /// cache on the 200 path, so starting a reply is a pointer bump
    /// rather than a header format plus body copy, and the socket queues
    /// a share of the same buffer.
    pub out_buf: Option<Rc<Vec<u8>>>,
    /// How much of `out_buf` has been written.
    pub out_pos: usize,
    /// Time of the last I/O progress (for idle timeouts).
    pub last_activity: SimTime,
    /// When the connection was accepted.
    pub accepted_at: SimTime,
}

impl HttpConn {
    /// A fresh connection in the reading phase.
    pub fn new(fd: Fd, now: SimTime) -> HttpConn {
        HttpConn {
            fd,
            phase: ConnPhase::Reading,
            in_buf: Vec::new(),
            out_buf: None,
            out_pos: 0,
            last_activity: now,
            accepted_at: now,
        }
    }

    /// Whether the connection has been idle since `cutoff`.
    pub fn idle_since(&self, cutoff: SimTime) -> bool {
        self.last_activity <= cutoff
    }

    /// Handles readability: reads, parses, and on a complete request
    /// builds the response and starts writing it (through `sendfile()`
    /// when `sendfile` is set, see [`HttpConn::on_writable`]).
    #[allow(clippy::too_many_arguments)]
    pub fn on_readable(
        &mut self,
        kernel: &mut Kernel,
        net: &mut Network,
        now: SimTime,
        pid: Pid,
        content: &ContentStore,
        sendfile: bool,
        not_found: &mut u64,
    ) -> ConnStatus {
        if self.phase == ConnPhase::Writing {
            // Readable while writing: either the client is pipelining
            // (ignored in HTTP/1.0) or it closed. Keep draining.
            return self.on_writable(kernel, net, now, pid, sendfile);
        }
        loop {
            // Bytes land straight in `in_buf` and the parsed request
            // borrows from it. The buffer grows on a connection's first
            // read unless it came warm from the table's spares (see
            // `ConnTable::admit`), so once the table holds spares no
            // read or parse allocates.
            match kernel.sys_read_into(net, pid, self.fd, 4096, &mut self.in_buf) {
                Ok(0) => {
                    return ConnStatus::Finished(FinishKind::ClientClosedEarly);
                }
                Ok(_) => {
                    self.last_activity = now;
                    match parse_request(&self.in_buf) {
                        ParseOutcome::Incomplete => continue,
                        ParseOutcome::Complete(req) => {
                            let cost = *kernel.cost_model();
                            kernel.charge_app(pid, cost.app_parse_request);
                            kernel.charge_app(pid, cost.app_open_file);
                            self.out_buf = Some(match content.response_for(req.path) {
                                Some(resp) => resp,
                                None => {
                                    *not_found += 1;
                                    Rc::new(response_error(404, "Not Found"))
                                }
                            });
                            self.phase = ConnPhase::Writing;
                            return self.on_writable(kernel, net, now, pid, sendfile);
                        }
                        ParseOutcome::Malformed => {
                            let cost = *kernel.cost_model();
                            kernel.charge_app(pid, cost.app_parse_request);
                            self.out_buf = Some(Rc::new(response_error(400, "Bad Request")));
                            self.phase = ConnPhase::Writing;
                            return self.on_writable(kernel, net, now, pid, sendfile);
                        }
                    }
                }
                Err(Errno::EAGAIN) => return ConnStatus::WantRead,
                Err(_) => return ConnStatus::Finished(FinishKind::Error),
            }
        }
    }

    /// Handles writability: drains the response through `write()`, or
    /// through `sendfile()` when `sendfile` is set (§6 future work; saves
    /// the user-space copy).
    pub fn on_writable(
        &mut self,
        kernel: &mut Kernel,
        net: &mut Network,
        now: SimTime,
        pid: Pid,
        sendfile: bool,
    ) -> ConnStatus {
        debug_assert_eq!(self.phase, ConnPhase::Writing);
        let Some(out) = &self.out_buf else {
            debug_assert!(false, "writing without a response");
            return ConnStatus::Finished(FinishKind::Error);
        };
        while self.out_pos < out.len() {
            let wrote = if sendfile {
                kernel.sys_sendfile(net, now, pid, self.fd, out, self.out_pos)
            } else {
                kernel.sys_write(net, now, pid, self.fd, out, self.out_pos)
            };
            match wrote {
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = now;
                }
                Err(Errno::EAGAIN) => return ConnStatus::WantWrite,
                Err(_) => return ConnStatus::Finished(FinishKind::Error),
            }
        }
        ConnStatus::Finished(FinishKind::Replied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;
    use simkernel::CostModel;
    use simnet::{EndpointId, HostId, LinkConfig, SockAddr, TcpConfig};

    const CLIENT: HostId = HostId(0);
    const SERVER: HostId = HostId(1);

    fn pump(net: &mut Network, kernel: &mut Kernel, horizon: SimTime) {
        let registry = &mut devpoll::DevPollRegistry::new();
        devpoll::settle(
            net,
            kernel,
            registry,
            SimTime::ZERO,
            horizon,
            |_, _, _, _, _| {},
        );
    }

    #[test]
    fn serves_a_complete_request() {
        let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
        let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
        let pid = kernel.spawn_default();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        let conn_id = net
            .connect(
                SimTime::ZERO,
                CLIENT,
                SockAddr::new(SERVER, 80),
                SimDuration::ZERO,
            )
            .unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(10));
        let t = SimTime::from_millis(10);
        kernel.begin_batch(t, pid);
        let fd = kernel.sys_accept(&mut net, t, pid, lfd).unwrap();
        kernel.end_batch(t, pid);

        let client_ep = EndpointId::new(conn_id, simnet::Side::Client);
        net.send(t, client_ep, b"GET /index.html HTTP/1.0\r\n\r\n")
            .unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(20));

        let t = SimTime::from_millis(20);
        let content = ContentStore::citi_6k();
        let mut conn = HttpConn::new(fd, t);
        let mut nf = 0u64;
        kernel.begin_batch(t, pid);
        let status = conn.on_readable(&mut kernel, &mut net, t, pid, &content, false, &mut nf);
        // 6 KB + headers fit the 16 KB send buffer in one go.
        assert_eq!(status, ConnStatus::Finished(FinishKind::Replied));
        kernel.sys_close(&mut net, t, pid, fd).unwrap();
        kernel.end_batch(t, pid);
        assert_eq!(nf, 0);

        pump(&mut net, &mut kernel, SimTime::from_millis(120));
        let body = net.recv(client_ep, usize::MAX).unwrap();
        let text = String::from_utf8_lossy(&body);
        assert!(text.starts_with("HTTP/1.0 200 OK"));
        assert!(text.contains("Content-Length: 6144"));
        assert!(
            net.endpoint_state(client_ep).peer_closed,
            "HTTP/1.0: server closes"
        );
    }

    #[test]
    fn shared_reply_arrives_intact_and_is_released_on_close() {
        let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
        let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
        let pid = kernel.spawn_default();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        let conn_id = net
            .connect(
                SimTime::ZERO,
                CLIENT,
                SockAddr::new(SERVER, 80),
                SimDuration::ZERO,
            )
            .unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(10));
        let t = SimTime::from_millis(10);
        kernel.begin_batch(t, pid);
        let fd = kernel.sys_accept(&mut net, t, pid, lfd).unwrap();
        kernel.end_batch(t, pid);
        let client_ep = EndpointId::new(conn_id, simnet::Side::Client);
        net.send(t, client_ep, b"GET /index.html HTTP/1.0\r\n\r\n")
            .unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(20));

        let content = ContentStore::citi_6k();
        let reply = content.response_for("/index.html").unwrap();
        // The store's own references, plus this test's.
        let at_rest = Rc::strong_count(&reply);
        let t = SimTime::from_millis(20);
        let mut conn = HttpConn::new(fd, t);
        let mut nf = 0u64;
        kernel.begin_batch(t, pid);
        let status = conn.on_readable(&mut kernel, &mut net, t, pid, &content, false, &mut nf);
        assert_eq!(status, ConnStatus::Finished(FinishKind::Replied));
        assert!(
            Rc::strong_count(&reply) > at_rest + 1,
            "the socket queues a share of the reply, not a copy"
        );
        kernel.sys_close(&mut net, t, pid, fd).unwrap();
        kernel.end_batch(t, pid);
        drop(conn);

        pump(&mut net, &mut kernel, SimTime::from_millis(120));
        let mut got = Vec::new();
        net.recv_into(client_ep, usize::MAX, &mut got).unwrap();
        assert!(reply.len() > 6144);
        assert_eq!(got, *reply, "the client reads exactly the reply's bytes");
        assert!(net.endpoint_state(client_ep).peer_closed);
        net.close(SimTime::from_millis(120), client_ep).unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(240));
        assert!(!net.exists(conn_id), "both directions fully closed");
        assert_eq!(
            Rc::strong_count(&reply),
            at_rest,
            "no reference outlives the connection"
        );
    }

    #[test]
    fn missing_document_gets_404() {
        let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
        let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
        let pid = kernel.spawn_default();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        let conn_id = net
            .connect(
                SimTime::ZERO,
                CLIENT,
                SockAddr::new(SERVER, 80),
                SimDuration::ZERO,
            )
            .unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(10));
        let t = SimTime::from_millis(10);
        kernel.begin_batch(t, pid);
        let fd = kernel.sys_accept(&mut net, t, pid, lfd).unwrap();
        kernel.end_batch(t, pid);
        let client_ep = EndpointId::new(conn_id, simnet::Side::Client);
        net.send(t, client_ep, b"GET /nope.html HTTP/1.0\r\n\r\n")
            .unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(20));

        let t = SimTime::from_millis(20);
        let content = ContentStore::citi_6k();
        let mut conn = HttpConn::new(fd, t);
        let mut nf = 0u64;
        kernel.begin_batch(t, pid);
        let status = conn.on_readable(&mut kernel, &mut net, t, pid, &content, false, &mut nf);
        kernel.end_batch(t, pid);
        assert_eq!(status, ConnStatus::Finished(FinishKind::Replied));
        assert_eq!(nf, 1);
    }

    #[test]
    fn partial_request_wants_more_reading() {
        let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
        let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
        let pid = kernel.spawn_default();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        let conn_id = net
            .connect(
                SimTime::ZERO,
                CLIENT,
                SockAddr::new(SERVER, 80),
                SimDuration::ZERO,
            )
            .unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(10));
        let t = SimTime::from_millis(10);
        kernel.begin_batch(t, pid);
        let fd = kernel.sys_accept(&mut net, t, pid, lfd).unwrap();
        kernel.end_batch(t, pid);
        let client_ep = EndpointId::new(conn_id, simnet::Side::Client);
        net.send(t, client_ep, b"GET /index.html HT").unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(20));

        let t = SimTime::from_millis(20);
        let content = ContentStore::citi_6k();
        let mut conn = HttpConn::new(fd, t);
        let mut nf = 0u64;
        kernel.begin_batch(t, pid);
        let status = conn.on_readable(&mut kernel, &mut net, t, pid, &content, false, &mut nf);
        kernel.end_batch(t, pid);
        assert_eq!(status, ConnStatus::WantRead);
        assert_eq!(conn.phase, ConnPhase::Reading);
        assert!(!conn.in_buf.is_empty());
    }
}
