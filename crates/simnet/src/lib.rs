#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! `simnet` — the simulated network testbed.
//!
//! Reproduces the physical environment of *Scalable Network I/O in Linux*
//! (Provos & Lever, USENIX 2000): two (or more) hosts on a 100 Mbit/s
//! switched Ethernet, running a simplified but faithful TCP — three-way
//! handshake with listener backlogs, go-back-N reliable delivery over
//! rate-limited drop-tail links, FIN/RST teardown, 60-second TIME_WAIT
//! and a bounded ephemeral-port range (the paper's "about 60000 open
//! sockets" limitation).
//!
//! The central type is [`net::Network`]; see its docs for the driving
//! protocol (`next_deadline` / `advance`).

pub mod addr;
pub mod bytes;
pub mod link;
pub mod net;
pub mod ports;
pub mod seg;
pub mod tcp;

pub use addr::{ConnId, EndpointId, HostId, ListenerId, Port, Side, SockAddr};
pub use bytes::ByteQueue;
pub use link::{LinkConfig, Tx, TxOutcome};
pub use net::{
    EndpointState, NetError, NetNotify, NetStats, Network, RecvSummary, MODEM_DELAY, RECV_PREFIX,
};
pub use ports::PortAllocator;
pub use seg::{SegKind, Segment, DEFAULT_MSS, HEADER_BYTES};
pub use tcp::{ConnState, ConnectError, TcpConfig};
