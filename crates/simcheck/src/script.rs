//! Event schedules: the op alphabet `explore` drives through every
//! backend, its replay-token encoding, and the seeded scripts walks
//! run.
//!
//! A schedule is a flat list of [`Op`]s over a fixed set of established
//! connections. Generation is a pure function of the seed (via the
//! proptest shim's splitmix64 generator), and any subsequence of a
//! schedule is itself a valid schedule — the property
//! [`proptest::shrink_sequence`] needs to minimise one.

use proptest::Rng;
use simkernel::PollBits;
use std::fmt;

/// One step of a workload script.
///
/// Connections are referred to by slot index (0..conns); each backend
/// lane maps slots to its own fds/endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Accept the next pending connection (slots are accepted in
    /// arrival order, so the k-th `Accept` establishes slot k). An
    /// `Accept` with nothing pending is a no-op.
    Accept,
    /// Declare interest in `events` on the slot's server fd.
    Watch {
        /// Connection slot.
        conn: usize,
        /// Requested event mask.
        events: PollBits,
    },
    /// Drop interest in the slot's server fd (may be a no-op).
    Unwatch {
        /// Connection slot.
        conn: usize,
    },
    /// The client writes `bytes` of payload.
    ClientSend {
        /// Connection slot.
        conn: usize,
        /// Payload size.
        bytes: usize,
    },
    /// The client half-closes its side.
    ClientClose {
        /// Connection slot.
        conn: usize,
    },
    /// The server reads up to `max` bytes.
    ServerRead {
        /// Connection slot.
        conn: usize,
        /// Read size cap.
        max: usize,
    },
    /// The server writes `bytes` of payload.
    ServerSend {
        /// Connection slot.
        conn: usize,
        /// Payload size.
        bytes: usize,
    },
    /// A wait boundary: every lane collects its ready set, checked
    /// against the reference model.
    Poll,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Accept => write!(f, "accept"),
            Op::Watch { conn, events } => write!(f, "watch      c{conn} {events:?}"),
            Op::Unwatch { conn } => write!(f, "unwatch    c{conn}"),
            Op::ClientSend { conn, bytes } => write!(f, "c-send     c{conn} {bytes}B"),
            Op::ClientClose { conn } => write!(f, "c-close    c{conn}"),
            Op::ServerRead { conn, max } => write!(f, "s-read     c{conn} max {max}B"),
            Op::ServerSend { conn, bytes } => write!(f, "s-send     c{conn} {bytes}B"),
            Op::Poll => write!(f, "poll"),
        }
    }
}

/// Weighted random ops in a generated script, between its accepts and
/// its closing `Poll`.
pub const SCRIPT_OPS: usize = 40;

/// Generates the script for `seed` over `conns` connections: `conns`
/// accepts, [`SCRIPT_OPS`] weighted random ops, then a `Poll`.
///
/// Deterministic: same seed, same script. The closing `Poll` makes
/// sure at least one boundary is checked. `conns` must be at least 1.
pub fn generate(seed: u64, conns: usize) -> Vec<Op> {
    let mut rng = Rng::from_seed(seed);
    let mut ops = vec![Op::Accept; conns];
    ops.reserve(SCRIPT_OPS + 1);
    for _ in 0..SCRIPT_OPS {
        let conn = (rng.next_u64() as usize) % conns;
        let op = match rng.next_u64() % 100 {
            0..=17 => Op::Watch {
                conn,
                events: match rng.next_u64() % 3 {
                    0 => PollBits::POLLIN,
                    1 => PollBits::POLLOUT,
                    _ => PollBits::POLLIN | PollBits::POLLOUT,
                },
            },
            18..=25 => Op::Unwatch { conn },
            26..=45 => Op::ClientSend {
                conn,
                bytes: 1 + (rng.next_u64() as usize) % 2048,
            },
            46..=49 => Op::ClientClose { conn },
            50..=67 => Op::ServerRead {
                conn,
                max: 1 + (rng.next_u64() as usize) % 4096,
            },
            68..=75 => Op::ServerSend {
                conn,
                bytes: 1 + (rng.next_u64() as usize) % 1024,
            },
            _ => Op::Poll,
        };
        ops.push(op);
    }
    ops.push(Op::Poll);
    ops
}

/// Encodes a script as one compact replay token per op, space-joined —
/// the form `simcheck explore --replay` accepts and counterexample
/// reports print.
///
/// Tokens: `a` accept · `w<c>:<i|o|io>` watch · `u<c>` unwatch ·
/// `d<c>:<bytes>` client send (data) · `f<c>` client close (fin) ·
/// `r<c>:<max>` server read · `s<c>:<bytes>` server send · `P` poll.
pub fn encode(ops: &[Op]) -> String {
    let mut out = String::new();
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match *op {
            Op::Accept => out.push('a'),
            Op::Watch { conn, events } => {
                let mask = match (
                    events.contains(PollBits::POLLIN),
                    events.contains(PollBits::POLLOUT),
                ) {
                    (true, false) => "i",
                    (false, true) => "o",
                    _ => "io",
                };
                out.push_str(&format!("w{conn}:{mask}"));
            }
            Op::Unwatch { conn } => out.push_str(&format!("u{conn}")),
            Op::ClientSend { conn, bytes } => out.push_str(&format!("d{conn}:{bytes}")),
            Op::ClientClose { conn } => out.push_str(&format!("f{conn}")),
            Op::ServerRead { conn, max } => out.push_str(&format!("r{conn}:{max}")),
            Op::ServerSend { conn, bytes } => out.push_str(&format!("s{conn}:{bytes}")),
            Op::Poll => out.push('P'),
        }
    }
    out
}

/// Parses the token form produced by [`encode`].
pub fn parse(text: &str) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for tok in text.split_whitespace() {
        ops.push(parse_token(tok)?);
    }
    Ok(ops)
}

fn parse_token(tok: &str) -> Result<Op, String> {
    let bad = || format!("bad replay token `{tok}`");
    let mut chars = tok.chars();
    let kind = chars.next().ok_or_else(bad)?;
    let rest = chars.as_str();
    let split_colon = |s: &str| -> Result<(usize, String), String> {
        let (c, arg) = s.split_once(':').ok_or_else(bad)?;
        Ok((c.parse::<usize>().map_err(|_| bad())?, arg.to_string()))
    };
    match kind {
        'a' if rest.is_empty() => Ok(Op::Accept),
        'P' if rest.is_empty() => Ok(Op::Poll),
        'w' => {
            let (conn, mask) = split_colon(rest)?;
            let events = match mask.as_str() {
                "i" => PollBits::POLLIN,
                "o" => PollBits::POLLOUT,
                "io" => PollBits::POLLIN | PollBits::POLLOUT,
                _ => return Err(bad()),
            };
            Ok(Op::Watch { conn, events })
        }
        'u' => Ok(Op::Unwatch {
            conn: rest.parse().map_err(|_| bad())?,
        }),
        'd' => {
            let (conn, n) = split_colon(rest)?;
            Ok(Op::ClientSend {
                conn,
                bytes: n.parse().map_err(|_| bad())?,
            })
        }
        'f' => Ok(Op::ClientClose {
            conn: rest.parse().map_err(|_| bad())?,
        }),
        'r' => {
            let (conn, n) = split_colon(rest)?;
            Ok(Op::ServerRead {
                conn,
                max: n.parse().map_err(|_| bad())?,
            })
        }
        's' => {
            let (conn, n) = split_colon(rest)?;
            Ok(Op::ServerSend {
                conn,
                bytes: n.parse().map_err(|_| bad())?,
            })
        }
        _ => Err(bad()),
    }
}

/// Renders a script as the numbered listing `--replay` prints.
pub fn render(ops: &[Op]) -> String {
    use fmt::Write;
    let mut out = String::new();
    for (i, op) in ops.iter().enumerate() {
        let _ = writeln!(out, "  {i:3}: {op}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(42, 3), generate(42, 3));
        assert_ne!(generate(42, 3), generate(43, 3));
    }

    #[test]
    fn scripts_accept_every_slot_then_end_with_a_poll_boundary() {
        for seed in 0..32 {
            let ops = generate(seed, 3);
            assert_eq!(ops.len(), 3 + SCRIPT_OPS + 1);
            assert_eq!(ops[..3], [Op::Accept; 3]);
            assert_eq!(*ops.last().unwrap(), Op::Poll);
        }
    }

    #[test]
    fn encode_parse_roundtrips() {
        let text = "a w0:i w1:io w2:o d2:512 P r0:4096 f1 u0 s1:64 P";
        assert_eq!(encode(&parse(text).unwrap()), text);
        // Generated scripts roundtrip too, every op kind included.
        for seed in 0..8 {
            let gen = generate(seed, 5);
            assert_eq!(parse(&encode(&gen)).unwrap(), gen);
        }
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        for bad in ["x1", "w1", "w1:z", "d:5", "dz:5", "a1", "P2", "r1"] {
            assert!(parse(bad).is_err(), "token `{bad}` should be rejected");
        }
    }

    #[test]
    fn conn_slots_stay_in_range() {
        for op in (0..8).flat_map(|seed| generate(seed, 3)) {
            let conn = match op {
                Op::Watch { conn, .. }
                | Op::Unwatch { conn }
                | Op::ClientSend { conn, .. }
                | Op::ClientClose { conn }
                | Op::ServerRead { conn, .. }
                | Op::ServerSend { conn, .. } => conn,
                Op::Accept | Op::Poll => 0,
            };
            assert!(conn < 3);
        }
    }
}
