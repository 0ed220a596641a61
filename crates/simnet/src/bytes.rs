//! A contiguous byte FIFO for endpoint stream buffers.
//!
//! `VecDeque<u8>` served here originally, but its ring layout makes the
//! three hot operations — bulk append on `send`, bulk copy on data
//! delivery, bulk trim on ack — byte-wise or two-slice affairs. The
//! profile showed those loops dominating the run (the stream plumbing of
//! a 6 KB response costs more than every modelled syscall around it).
//! `ByteQueue` keeps the live bytes contiguous in a `Vec` behind a head
//! offset: append is one `memcpy`, trim is a pointer bump, and readers
//! get a single slice. Reclaiming the dead prefix is amortised O(1):
//! the buffer compacts only when the head crosses half the backing
//! storage, so every live byte moves at most once per compaction cycle.

/// A FIFO of bytes with O(1) amortised append, bulk pop, and single-slice
/// access to the queued bytes.
#[derive(Debug, Clone, Default)]
pub struct ByteQueue {
    buf: Vec<u8>,
    head: usize,
}

impl ByteQueue {
    /// An empty queue (no allocation until the first append).
    pub fn new() -> ByteQueue {
        ByteQueue::default()
    }

    /// Number of queued (unconsumed) bytes.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether no bytes are queued.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// The queued bytes, oldest first, as one contiguous slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// Appends `data` to the back of the queue.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Drops the first `n` queued bytes (`n` must not exceed `len`).
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len(), "consume past end of queue");
        self.head += n;
        if self.head == self.buf.len() {
            // Fully drained: reset without moving any bytes.
            self.buf.clear();
            self.head = 0;
        } else if self.head > self.buf.len() / 2 {
            // The dead prefix outweighs the live bytes: compact so the
            // backing store stops growing. Each live byte is copied at
            // most once per doubling of consumed volume, keeping the
            // whole scheme amortised O(1) per byte.
            self.buf.copy_within(self.head.., 0);
            let live = self.buf.len() - self.head;
            self.buf.truncate(live);
            self.head = 0;
        }
    }

    /// Removes all queued bytes.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

/// Cleared queues whose storage outlived their connection.
///
/// Every active connection grows up to four queues from empty; without
/// reuse each one is a fresh allocation, regrown and freed again when
/// the connection dies. The network hands dead connections' storage to
/// the next endpoint that needs a buffer instead. Held-open idle
/// connections never ask, so they stay allocation-free.
#[derive(Debug, Default)]
pub(crate) struct QueuePool(Vec<ByteQueue>);

impl QueuePool {
    /// Gives `q` pooled storage if it has none yet.
    pub(crate) fn fill(&mut self, q: &mut ByteQueue) {
        if q.buf.capacity() == 0 {
            if let Some(pooled) = self.0.pop() {
                *q = pooled;
            }
        }
    }

    /// Takes `q`'s storage back, cleared; queues that never allocated
    /// are dropped.
    pub(crate) fn put(&mut self, mut q: ByteQueue) {
        if q.buf.capacity() > 0 {
            q.clear();
            self.0.push(q);
        }
    }
}

impl Clone for QueuePool {
    /// A copy starts cold: cloning a cleared `Vec` would not copy its
    /// capacity anyway, so cloned entries would be storage-less.
    fn clone(&self) -> QueuePool {
        QueuePool::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_across_compactions() {
        let mut q = ByteQueue::new();
        let mut expect: Vec<u8> = Vec::new();
        let mut next = 0u8;
        for round in 0..50 {
            let push = (round * 7) % 23 + 1;
            for _ in 0..push {
                q.extend_from_slice(&[next]);
                expect.push(next);
                next = next.wrapping_add(1);
            }
            let pop = ((round * 5) % 19 + 1).min(expect.len());
            assert_eq!(&q.as_slice()[..pop], &expect[..pop]);
            q.consume(pop);
            expect.drain(..pop);
            assert_eq!(q.as_slice(), &expect[..]);
            assert_eq!(q.len(), expect.len());
        }
    }

    #[test]
    fn full_drain_resets_storage() {
        let mut q = ByteQueue::new();
        q.extend_from_slice(&[1, 2, 3]);
        q.consume(3);
        assert!(q.is_empty());
        assert_eq!(q.as_slice(), &[] as &[u8]);
        q.extend_from_slice(&[4]);
        assert_eq!(q.as_slice(), &[4]);
    }

    #[test]
    fn backing_storage_stays_bounded() {
        // Steady-state: append 8, consume 8, forever. The backing Vec
        // must not grow linearly with total throughput.
        let mut q = ByteQueue::new();
        for _ in 0..10_000 {
            q.extend_from_slice(&[0u8; 8]);
            q.consume(8);
        }
        assert!(q.buf.capacity() < 1024, "capacity {}", q.buf.capacity());
    }

    #[test]
    fn pool_recycles_storage_cleared() {
        let mut pool = QueuePool::default();
        let mut used = ByteQueue::new();
        used.extend_from_slice(&[7u8; 100]);
        used.consume(10);
        pool.put(used);
        pool.put(ByteQueue::new()); // Never allocated: not pooled.
        assert_eq!(pool.0.len(), 1);
        let mut q = ByteQueue::new();
        pool.fill(&mut q);
        assert!(q.is_empty());
        assert!(q.buf.capacity() >= 100);
        assert_eq!(q.head, 0);
        // A queue that already has storage keeps it.
        let mut other = ByteQueue::new();
        other.extend_from_slice(&[1]);
        pool.put(other);
        let cap = q.buf.capacity();
        pool.fill(&mut q);
        assert_eq!(q.buf.capacity(), cap);
        assert_eq!(pool.0.len(), 1);
    }
}
