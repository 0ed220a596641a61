//! The transmit side of a NIC: a rate-limited, bounded FIFO queue.
//!
//! Each host owns one egress [`Tx`] per direction onto the switch. A
//! segment occupies the transmitter for `bytes * 8 / bandwidth` and is
//! then delivered after the propagation delay. When the queue is full the
//! segment is dropped — the sender discovers the loss through its
//! retransmission timer, which is how overload turns into latency and
//! errors, exactly as on the paper's testbed.

use simcore::time::{SimDuration, SimTime};

use crate::seg::Segment;

/// Link rate in bits per second (the paper's switch: 100 Mbit/s).
pub const BITS_PER_SEC: u64 = 100_000_000;

/// Configuration of one egress link direction.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// One-way propagation + switch forwarding delay.
    pub base_delay: SimDuration,
    /// Maximum segments queued awaiting transmission before tail drop.
    pub queue_cap: usize,
    /// Random per-segment loss probability in `[0, 1]` — fault injection
    /// for exercising retransmission under an unreliable fabric (the
    /// paper's LAN was clean; WAN paths are not).
    pub loss_prob: f64,
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig {
            base_delay: SimDuration::from_micros(100),
            queue_cap: 256,
            loss_prob: 0.0,
        }
    }
}

/// Result of offering a segment to the transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Segment accepted; it will be delivered at the returned time
    /// (transmission completion plus propagation and any extra delay).
    Deliver(SimTime),
    /// Queue full; the segment was dropped.
    Dropped,
}

/// The egress transmitter of a host.
///
/// Transmission is serialized: a segment begins transmitting when the
/// previous one finishes. The model does not need an explicit queue of
/// segment objects — because delivery order equals enqueue order and the
/// per-segment transmit time is known on enqueue, tracking the time the
/// transmitter becomes free plus the number of queued-but-unsent segments
/// suffices.
#[derive(Debug, Clone)]
pub struct Tx {
    config: LinkConfig,
    /// When the transmitter finishes everything currently accepted.
    free_at: SimTime,
    /// (time the segment finishes transmitting) for segments still queued
    /// or in transmission, oldest first — used only to bound queue depth.
    in_flight: std::collections::VecDeque<SimTime>,
    /// Segments dropped due to a full queue.
    drops: u64,
}

impl Tx {
    /// Folds the transmitter's semantic state into `h` (the drop
    /// counter is a diagnostic and deliberately excluded so equal queue
    /// states dedup).
    pub fn fingerprint_into(&self, h: &mut simcore::fingerprint::Fnv) {
        h.write_u64(self.free_at.as_nanos());
        h.write_len(self.in_flight.len());
        for t in &self.in_flight {
            h.write_u64(t.as_nanos());
        }
    }

    /// Creates an idle transmitter.
    pub fn new(config: LinkConfig) -> Tx {
        Tx {
            config,
            free_at: SimTime::ZERO,
            in_flight: std::collections::VecDeque::new(),
            drops: 0,
        }
    }

    /// Time to clock `bytes` onto the wire.
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        let bits = bytes as u64 * 8;
        SimDuration::from_nanos(bits * 1_000_000_000 / BITS_PER_SEC)
    }

    fn reap(&mut self, now: SimTime) {
        while let Some(&done) = self.in_flight.front() {
            if done <= now {
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
    }

    /// Offers a segment for transmission at `now`, with `extra_delay`
    /// added one-way (models a high-latency client path).
    ///
    /// Returns when the segment will arrive at the other host, or
    /// [`TxOutcome::Dropped`].
    pub fn offer(&mut self, now: SimTime, seg: &Segment, extra_delay: SimDuration) -> TxOutcome {
        self.reap(now);
        if self.in_flight.len() >= self.config.queue_cap {
            self.drops += 1;
            return TxOutcome::Dropped;
        }
        let start = self.free_at.max(now);
        let done = start + self.tx_time(seg.wire_bytes());
        self.free_at = done;
        self.in_flight.push_back(done);
        TxOutcome::Deliver(done + self.config.base_delay + extra_delay)
    }

    /// Number of segments dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Current queue depth (segments accepted and not yet fully
    /// transmitted as of `now`).
    pub fn depth(&mut self, now: SimTime) -> usize {
        self.reap(now);
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ConnId, Side};
    use crate::seg::SegKind;

    fn seg(len: u32) -> Segment {
        Segment {
            conn: ConnId(0),
            from: Side::Client,
            kind: SegKind::Data { seq: 0, len },
        }
    }

    fn cfg() -> LinkConfig {
        LinkConfig {
            base_delay: SimDuration::from_micros(100),
            queue_cap: 2,
            loss_prob: 0.0,
        }
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let tx = Tx::new(cfg());
        // 1250 bytes = 10_000 bits at 100 Mbit/s = 100 us.
        assert_eq!(tx.tx_time(1250), SimDuration::from_micros(100));
    }

    #[test]
    fn serializes_back_to_back_segments() {
        let mut tx = Tx::new(LinkConfig {
            queue_cap: 16,
            ..cfg()
        });
        let s = seg(1210); // 1250 wire bytes -> 100us tx.
        let t0 = SimTime::ZERO;
        let d1 = tx.offer(t0, &s, SimDuration::ZERO);
        let d2 = tx.offer(t0, &s, SimDuration::ZERO);
        assert_eq!(d1, TxOutcome::Deliver(SimTime::from_micros(200)));
        assert_eq!(d2, TxOutcome::Deliver(SimTime::from_micros(300)));
    }

    #[test]
    fn extra_delay_adds_one_way_latency() {
        let mut tx = Tx::new(cfg());
        let s = seg(1210);
        let d = tx.offer(SimTime::ZERO, &s, SimDuration::from_millis(50));
        assert_eq!(
            d,
            TxOutcome::Deliver(SimTime::from_micros(100 + 100 + 50_000))
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let mut tx = Tx::new(cfg()); // cap 2
        let s = seg(1210);
        assert!(matches!(
            tx.offer(SimTime::ZERO, &s, SimDuration::ZERO),
            TxOutcome::Deliver(_)
        ));
        assert!(matches!(
            tx.offer(SimTime::ZERO, &s, SimDuration::ZERO),
            TxOutcome::Deliver(_)
        ));
        assert_eq!(
            tx.offer(SimTime::ZERO, &s, SimDuration::ZERO),
            TxOutcome::Dropped
        );
        assert_eq!(tx.drops(), 1);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut tx = Tx::new(cfg());
        let s = seg(1210);
        tx.offer(SimTime::ZERO, &s, SimDuration::ZERO);
        tx.offer(SimTime::ZERO, &s, SimDuration::ZERO);
        assert_eq!(tx.depth(SimTime::ZERO), 2);
        // After 200us both finished transmitting.
        assert_eq!(tx.depth(SimTime::from_micros(200)), 0);
        assert!(matches!(
            tx.offer(SimTime::from_micros(200), &s, SimDuration::ZERO),
            TxOutcome::Deliver(_)
        ));
    }

    #[test]
    fn idle_transmitter_starts_immediately() {
        let mut tx = Tx::new(cfg());
        let s = seg(1210);
        let t = SimTime::from_millis(5);
        let d = tx.offer(t, &s, SimDuration::ZERO);
        assert_eq!(d, TxOutcome::Deliver(t + SimDuration::from_micros(200)));
    }
}
