//! Endpoint stream buffers as FIFOs of shared slices.
//!
//! A server's reply already lives in one reference-counted buffer: the
//! content store renders each response once and every connection that
//! serves it holds the same `Rc<Vec<u8>>`. The stream buffers pass that
//! buffer along instead of copying it. A [`ByteQueue`] is a FIFO of
//! chunks, each a `(buffer, start, end)` reference into someone's
//! bytes:
//!
//! - `send` queues a reference to the caller's buffer in the sender's
//!   `out` ([`ByteQueue::extend_shared`]);
//! - a data delivery moves the segment's range from the sender's `out`
//!   to the receiver's inbox, again by reference
//!   ([`ByteQueue::extend_from_queue`]);
//! - the ack path and reads drop or trim chunks at the front
//!   ([`ByteQueue::consume`]), so nothing is ever compacted;
//! - only a reader that asks for the bytes gets a copy
//!   ([`ByteQueue::copy_into`], [`ByteQueue::copy_prefix`]).
//!
//! A chunk that continues the tail chunk's range in the same buffer is
//! merged into it, so a 6 KB reply delivered as five segments stays one
//! chunk end to end. Buffers are never written after they are shared,
//! which is what makes the sharing invisible: the bytes a queue yields
//! are exactly the bytes a copying queue would hold.
//!
//! The queue is a bare `VecDeque` (32 bytes, no length field): it sits
//! twice in every connection's endpoint, a million connections deep, and
//! queues hold a handful of chunks, so lengths are summed on demand.

use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

/// A range of a shared buffer. Never empty inside a queue.
#[derive(Debug, Clone)]
struct Chunk {
    buf: Rc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Chunk {
    fn len(&self) -> usize {
        self.end - self.start
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

/// A FIFO of bytes held as references into shared buffers.
#[derive(Debug, Clone, Default)]
pub struct ByteQueue {
    chunks: VecDeque<Chunk>,
}

impl ByteQueue {
    /// An empty queue (no allocation until the first append).
    pub fn new() -> ByteQueue {
        ByteQueue::default()
    }

    /// Number of queued (unconsumed) bytes.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Chunk::len).sum()
    }

    /// Whether no bytes are queued.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The queued bytes, oldest first, one slice per chunk. Chunk
    /// boundaries carry no meaning: only the concatenation does.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks.iter().map(Chunk::bytes)
    }

    /// Appends `buf[range]` by reference.
    pub fn extend_shared(&mut self, buf: &Rc<Vec<u8>>, range: Range<usize>) {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "range out of bounds"
        );
        self.push(buf, range.start, range.end);
    }

    /// Appends `len` bytes of `src`, starting `offset` bytes past its
    /// front, by reference (`offset + len` must not exceed `src.len()`).
    // #[hot_path] — one call per in-order data segment
    pub fn extend_from_queue(&mut self, src: &ByteQueue, offset: usize, len: usize) {
        let (mut skip, mut left) = (offset, len);
        for c in &src.chunks {
            if left == 0 {
                break;
            }
            if skip >= c.len() {
                skip -= c.len();
                continue;
            }
            let start = c.start + skip;
            let take = (c.end - start).min(left);
            self.push(&c.buf, start, start + take);
            left -= take;
            skip = 0;
        }
        debug_assert_eq!(left, 0, "range past the end of the source queue");
    }

    /// Queues `buf[start..end]`, growing the tail chunk when the range
    /// continues it.
    fn push(&mut self, buf: &Rc<Vec<u8>>, start: usize, end: usize) {
        if start == end {
            return;
        }
        if let Some(tail) = self.chunks.back_mut() {
            if tail.end == start && Rc::ptr_eq(&tail.buf, buf) {
                tail.end = end;
                return;
            }
        }
        self.chunks.push_back(Chunk {
            buf: Rc::clone(buf),
            start,
            end,
        });
    }

    /// Copies the first `dst.len()` queued bytes (or all of them, if
    /// fewer) into `dst`; returns how many were copied.
    pub fn copy_prefix(&self, dst: &mut [u8]) -> usize {
        let mut n = 0;
        for c in self.chunks() {
            if n == dst.len() {
                break;
            }
            let take = c.len().min(dst.len() - n);
            dst[n..n + take].copy_from_slice(&c[..take]);
            n += take;
        }
        n
    }

    /// Appends the first `n` queued bytes (`n` must not exceed `len`)
    /// to `out`.
    pub fn copy_into(&self, n: usize, out: &mut Vec<u8>) {
        let mut left = n;
        for c in self.chunks() {
            if left == 0 {
                break;
            }
            let take = c.len().min(left);
            out.extend_from_slice(&c[..take]);
            left -= take;
        }
        debug_assert_eq!(left, 0, "copy past the end of the queue");
    }

    /// Drops the first `n` queued bytes (`n` must not exceed `len`).
    pub fn consume(&mut self, n: usize) {
        let mut left = n;
        while left > 0 {
            let Some(front) = self.chunks.front_mut() else {
                debug_assert!(false, "consume past the end of the queue");
                return;
            };
            if left < front.len() {
                front.start += left;
                return;
            }
            left -= front.len();
            self.chunks.pop_front();
        }
    }
}

// `conn_mem_bytes` prices two queues into every connection record.
const _: () = assert!(std::mem::size_of::<ByteQueue>() == 32);

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(bytes: &[u8]) -> Rc<Vec<u8>> {
        Rc::new(bytes.to_vec())
    }

    fn contents(q: &ByteQueue) -> Vec<u8> {
        let mut v = Vec::new();
        q.copy_into(q.len(), &mut v);
        v
    }

    #[test]
    fn fifo_order_across_chunks() {
        let mut q = ByteQueue::new();
        let mut expect: Vec<u8> = Vec::new();
        let mut next = 0u8;
        for round in 0..50 {
            let push = (round * 7) % 23 + 1;
            let bytes: Vec<u8> = (0..push)
                .map(|_| {
                    next = next.wrapping_add(1);
                    next
                })
                .collect();
            q.extend_shared(&shared(&bytes), 0..bytes.len());
            expect.extend_from_slice(&bytes);
            let pop = ((round * 5) % 19 + 1).min(expect.len());
            let mut head = [0u8; 19];
            assert_eq!(q.copy_prefix(&mut head[..pop]), pop);
            assert_eq!(&head[..pop], &expect[..pop]);
            q.consume(pop);
            expect.drain(..pop);
            assert_eq!(contents(&q), expect);
            assert_eq!(q.len(), expect.len());
        }
    }

    #[test]
    fn full_drain_drops_every_reference() {
        let buf = shared(&[1, 2, 3]);
        let mut q = ByteQueue::new();
        q.extend_shared(&buf, 0..3);
        assert_eq!(Rc::strong_count(&buf), 2);
        q.consume(3);
        assert!(q.is_empty());
        assert_eq!(Rc::strong_count(&buf), 1);
        q.extend_shared(&shared(&[4]), 0..1);
        assert_eq!(contents(&q), [4]);
    }

    #[test]
    fn contiguous_ranges_of_one_buffer_merge() {
        // Steady state of a reply: the sender's range is delivered in
        // segments, each continuing the last. The inbox stays one chunk.
        let reply = shared(&[7u8; 6144]);
        let mut out = ByteQueue::new();
        out.extend_shared(&reply, 0..6144);
        let mut inbox = ByteQueue::new();
        for seg in (0..6144).step_by(1460) {
            inbox.extend_from_queue(&out, seg, (6144 - seg).min(1460));
        }
        assert_eq!(inbox.chunks.len(), 1);
        assert_eq!(inbox.len(), 6144);
        // A different buffer, or a gap, starts a new chunk.
        inbox.extend_shared(&shared(&[1]), 0..1);
        inbox.extend_shared(&reply, 10..20);
        assert_eq!(inbox.chunks.len(), 3);
        assert_eq!(Rc::strong_count(&reply), 4);
    }
}
