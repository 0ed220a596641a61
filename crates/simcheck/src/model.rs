//! The executable reference model of ready-set semantics.
//!
//! A pure function of the event history: no kernel, no network, no
//! backend — just the level-triggered readiness contract the paper's
//! mechanisms all promise, reduced to ~a dozen state bits per
//! connection. `explore` replays every schedule through this model in
//! parallel with the five real lanes and compares at each wait
//! boundary, so a bug in *any* layer of the implementation (including
//! the reference `poll()` lane itself) shows up as a divergence — the
//! model cannot inherit an implementation bug because it shares no code
//! with the implementation.
//!
//! ## The modelled contract
//!
//! Per accepted connection, with `unread` bytes buffered server-side
//! and `fin` once the client half-closed:
//!
//! * `POLLIN`  iff `unread > 0 || fin` (data or a pending EOF);
//! * `POLLOUT` iff `!fin` (the send buffer never fills in explored
//!   worlds, and a hangup suppresses writability);
//! * `POLLHUP` iff `fin`.
//!
//! `POLLERR`/`POLLNVAL` never occur (no resets, no closed server fds in
//! the explored alphabet). A wait boundary reports, for every slot with
//! declared interest `I` (replace semantics — the §3.1 contract):
//!
//! * poll / /dev/poll (hints on or off) / rtsig-recovery-poll:
//!   `truth & (I | POLLHUP | POLLERR | POLLNVAL)` — HUP and ERR are
//!   always reported, and only non-empty results appear;
//! * select: `POLLIN` iff `I` asks for reads and the read bitmap fires
//!   (data, EOF, or error all readable), `POLLOUT` iff `I` asks for
//!   writes and the socket is writable — select has no HUP channel.
//!
//! The model is *total*: any [`Op`] applies in any state (server ops on
//! a not-yet-accepted slot are no-ops, like the lanes), so every
//! subsequence of a schedule is a valid schedule and ddmin slices stay
//! meaningful.

use simkernel::PollBits;

use crate::lane::{LaneKind, Snapshot};
use crate::script::Op;

/// Reference state of one connection slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SlotModel {
    /// Accepted by the server (fd exists; watchable and readable).
    accepted: bool,
    /// Bytes sent by the client and not yet read by the server.
    unread: u64,
    /// Client half-closed (FIN observed once deliveries settle).
    fin: bool,
    /// Declared interest, if watched — **replace** semantics.
    interest: Option<PollBits>,
}

/// The reference model: per-slot connection state, advanced by the same
/// [`Op`] alphabet the lanes execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    slots: Vec<SlotModel>,
    /// Connections accepted so far (the next `Accept` takes this slot).
    accepted: usize,
}

impl Model {
    /// A model over `conns` established-but-unaccepted connections.
    pub fn new(conns: usize) -> Model {
        Model {
            slots: vec![SlotModel::default(); conns],
            accepted: 0,
        }
    }

    /// Advances the model by one event. Total in any state.
    pub fn apply(&mut self, op: Op) {
        match op {
            Op::Accept => {
                if self.accepted < self.slots.len() {
                    self.slots[self.accepted].accepted = true;
                    self.accepted += 1;
                }
            }
            Op::Watch { conn, events } => {
                if let Some(s) = self.slots.get_mut(conn) {
                    if s.accepted {
                        // Replace, never OR — the §3.1 contract.
                        s.interest = Some(events);
                    }
                }
            }
            Op::Unwatch { conn } => {
                if let Some(s) = self.slots.get_mut(conn) {
                    s.interest = None;
                }
            }
            Op::ClientSend { conn, bytes } => {
                if let Some(s) = self.slots.get_mut(conn) {
                    // A send after FIN is rejected by the transport.
                    if !s.fin {
                        s.unread += bytes as u64;
                    }
                }
            }
            Op::ClientClose { conn } => {
                if let Some(s) = self.slots.get_mut(conn) {
                    s.fin = true;
                }
            }
            Op::ServerRead { conn, max } => {
                if let Some(s) = self.slots.get_mut(conn) {
                    if s.accepted {
                        s.unread = s.unread.saturating_sub(max as u64);
                    }
                }
            }
            Op::ServerSend { .. } => {
                // Writes never fill the buffer in explored worlds and
                // the peer never reads; no readiness state changes.
            }
            Op::Poll => {
                // A wait boundary observes; it never mutates the model.
            }
        }
    }

    /// The level-triggered truth bits for one slot.
    fn truth(s: SlotModel) -> PollBits {
        let mut bits = PollBits::EMPTY;
        if s.unread > 0 || s.fin {
            bits |= PollBits::POLLIN;
        }
        if !s.fin {
            bits |= PollBits::POLLOUT;
        }
        if s.fin {
            bits |= PollBits::POLLHUP;
        }
        bits
    }

    /// The raw snapshot `lane` must report at a wait boundary.
    pub fn expected(&self, lane: LaneKind) -> Snapshot {
        let mut out = Vec::new();
        for (slot, &s) in self.slots.iter().enumerate() {
            let Some(interest) = s.interest else { continue };
            let truth = Model::truth(s);
            let bits = match lane {
                LaneKind::Select => {
                    // Bitmap semantics: IN if any readable condition and
                    // reads were asked for; OUT likewise. No HUP channel.
                    let mut b = PollBits::EMPTY;
                    if interest.intersects(PollBits::POLLIN)
                        && truth
                            .intersects(PollBits::POLLIN | PollBits::POLLHUP | PollBits::POLLERR)
                    {
                        b |= PollBits::POLLIN;
                    }
                    if interest.intersects(PollBits::POLLOUT)
                        && truth.intersects(PollBits::POLLOUT | PollBits::POLLERR)
                    {
                        b |= PollBits::POLLOUT;
                    }
                    b
                }
                LaneKind::Poll | LaneKind::RtSig | LaneKind::DevPoll | LaneKind::DevPollNoHints => {
                    truth & (interest | PollBits::always_reported())
                }
            };
            if !bits.is_empty() {
                out.push((slot, bits));
            }
        }
        out
    }

    /// Whether `slot` must currently hold a kernel watcher registration
    /// in a /dev/poll lane — the backmap half of the POLLREMOVE dual
    /// purge. (Other lanes keep interest in user space, so the
    /// invariant is only checked against the /dev/poll lanes.)
    pub fn expect_kernel_watcher(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(|s| s.interest.is_some())
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Whether `slot` currently has buffered unread data.
    pub fn has_unread(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(|s| s.unread > 0)
    }

    /// Whether `slot`'s client already half-closed.
    pub fn fin(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(|s| s.fin)
    }

    /// Whether `slot` is accepted.
    pub fn is_accepted(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(|s| s.accepted)
    }

    /// The declared interest of `slot`, if watched.
    pub fn interest(&self, slot: usize) -> Option<PollBits> {
        self.slots.get(slot).and_then(|s| s.interest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script;

    const IN: PollBits = PollBits::POLLIN;
    const OUT: PollBits = PollBits::POLLOUT;

    /// The model over `conns` slots after the replay-token schedule
    /// `tokens` ([`script::parse`]).
    fn model_after(conns: usize, tokens: &str) -> Model {
        let mut m = Model::new(conns);
        for op in script::parse(tokens).expect("valid tokens") {
            m.apply(op);
        }
        m
    }

    #[test]
    fn fresh_accepted_watched_slot_is_writable_only() {
        let m = model_after(2, "a w0:io");
        assert_eq!(m.expected(LaneKind::Poll), vec![(0, OUT)]);
        assert_eq!(m.expected(LaneKind::Select), vec![(0, OUT)]);
    }

    #[test]
    fn data_arrival_reports_in_even_before_accept_happened_first() {
        // Data sent before the accept is buffered by the transport and
        // visible at the first boundary after the accept.
        let m = model_after(1, "d0:64 a w0:i");
        assert_eq!(m.expected(LaneKind::Poll), vec![(0, IN)]);
    }

    #[test]
    fn hup_is_always_reported_by_poll_but_not_select() {
        let m = model_after(1, "a w0:o f0");
        // poll reports HUP even for an OUT-only interest; OUT itself is
        // suppressed by the hangup.
        assert_eq!(m.expected(LaneKind::Poll), vec![(0, PollBits::POLLHUP)]);
        // select has no HUP channel and OUT is off: nothing fires.
        assert_eq!(m.expected(LaneKind::Select), vec![]);
    }

    #[test]
    fn fin_makes_the_stream_readable_for_select() {
        let m = model_after(1, "a w0:i f0");
        assert_eq!(m.expected(LaneKind::Select), vec![(0, IN)]);
        assert_eq!(
            m.expected(LaneKind::Poll),
            vec![(0, IN | PollBits::POLLHUP)]
        );
    }

    #[test]
    fn watch_replaces_interest_instead_of_oring() {
        let m = model_after(1, "a d0:8 w0:i w0:o");
        // Readable data exists, but interest was *replaced* by OUT.
        assert_eq!(m.expected(LaneKind::Poll), vec![(0, OUT)]);
    }

    #[test]
    fn read_drains_and_clears_in() {
        let m = model_after(1, "a w0:i d0:100 r0:1048576");
        assert_eq!(m.expected(LaneKind::Poll), vec![]);
    }

    #[test]
    fn ops_on_unaccepted_slots_are_no_ops_and_total() {
        let m = model_after(1, "w0:i r0:10 u0 w5:i r9:1");
        assert_eq!(m.expected(LaneKind::Poll), vec![]);
        assert!(!m.is_accepted(0));
    }

    #[test]
    fn unwatch_clears_the_kernel_watcher_expectation() {
        let mut m = model_after(1, "a w0:i");
        assert!(m.expect_kernel_watcher(0));
        m.apply(Op::Unwatch { conn: 0 });
        assert!(!m.expect_kernel_watcher(0));
    }
}
