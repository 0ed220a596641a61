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
//!   ([`ByteQueue::copy_into`], [`ByteQueue::drain_front`]).
//!
//! A chunk that continues the tail chunk's range in the same buffer is
//! merged into it, so a 6 KB reply delivered as five segments stays one
//! chunk end to end. Buffers are never written after they are shared,
//! which is what makes the sharing invisible: the bytes a queue yields
//! are exactly the bytes a copying queue would hold.
//!
//! The queue is 32 bytes with no length field: it sits twice in every
//! connection's endpoint, a million connections deep, and queues hold a
//! handful of chunks, so lengths are summed on demand. One chunk is the
//! common case (a request, a reply, the segment a reader is about to
//! drain), so the first chunk is held inline and only a queue holding
//! two unmerged chunks allocates a deque for the rest. The deque is
//! kept once allocated, so a queue allocates again only to hold more
//! chunks than it ever has.

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
    /// The oldest chunk; `None` exactly when the queue is empty.
    head: Option<Chunk>,
    /// The chunks after `head`, oldest first: allocated when a second
    /// unmerged chunk arrives, and kept (empty) when the queue drains.
    /// Boxed so the queue stays 32 bytes: a bare `VecDeque` is 32 on
    /// its own.
    #[allow(clippy::box_collection)]
    rest: Option<Box<VecDeque<Chunk>>>,
}

impl ByteQueue {
    /// An empty queue (no allocation until a second chunk is queued).
    pub fn new() -> ByteQueue {
        ByteQueue::default()
    }

    /// The queued chunks, oldest first.
    fn iter(&self) -> impl Iterator<Item = &Chunk> {
        self.head
            .iter()
            .chain(self.rest.iter().flat_map(|r| r.iter()))
    }

    /// Number of queued (unconsumed) bytes.
    pub fn len(&self) -> usize {
        self.iter().map(Chunk::len).sum()
    }

    /// Whether no bytes are queued.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// The queued bytes, oldest first, one slice per chunk. Chunk
    /// boundaries carry no meaning: only the concatenation does.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.iter().map(Chunk::bytes)
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
        for c in src.iter() {
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
        let chunk = || Chunk {
            buf: Rc::clone(buf),
            start,
            end,
        };
        let Some(head) = &mut self.head else {
            self.head = Some(chunk());
            return;
        };
        let tail = match self.rest.as_deref_mut().and_then(VecDeque::back_mut) {
            Some(last) => last,
            None => head,
        };
        if tail.end == start && Rc::ptr_eq(&tail.buf, buf) {
            tail.end = end;
            return;
        }
        self.rest
            .get_or_insert_with(Box::default)
            .push_back(chunk());
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

    /// Drops up to `max` bytes from the front and copies the first of
    /// them into `prefix` (as many as fit), in one walk over the chunks
    /// it drops. Returns `(dropped, copied)`.
    pub fn drain_front(&mut self, max: usize, prefix: &mut [u8]) -> (usize, usize) {
        let (mut dropped, mut copied) = (0, 0);
        while dropped < max {
            let Some(front) = &mut self.head else { break };
            let take = front.len().min(max - dropped);
            let fill = take.min(prefix.len() - copied);
            prefix[copied..copied + fill].copy_from_slice(&front.bytes()[..fill]);
            copied += fill;
            dropped += take;
            if take < front.len() {
                front.start += take;
                break;
            }
            self.head = self.rest.as_mut().and_then(|r| r.pop_front());
        }
        (dropped, copied)
    }

    /// Drops the first `n` queued bytes (`n` must not exceed `len`).
    pub fn consume(&mut self, n: usize) {
        let (dropped, _) = self.drain_front(n, &mut []);
        debug_assert_eq!(dropped, n, "consume past the end of the queue");
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
            assert_eq!(q.drain_front(pop, &mut head), (pop, pop));
            assert_eq!(&head[..pop], &expect[..pop]);
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
        assert_eq!(inbox.chunks().count(), 1);
        assert!(inbox.rest.is_none(), "one chunk stays inline");
        assert_eq!(inbox.len(), 6144);
        // A different buffer, or a gap, starts a new chunk.
        inbox.extend_shared(&shared(&[1]), 0..1);
        inbox.extend_shared(&reply, 10..20);
        assert_eq!(inbox.chunks().count(), 3);
        assert_eq!(Rc::strong_count(&reply), 4);
    }

    #[test]
    fn inline_head_spills_and_refills() {
        // One queue through every storage shape: inline only, spilled
        // (three unmerged buffers), drained to empty, inline again.
        let bufs: Vec<Rc<Vec<u8>>> = (0..3u8).map(|i| shared(&[i * 10; 4])).collect();
        let refs = |want: [usize; 3]| {
            for (i, b) in bufs.iter().enumerate() {
                assert_eq!(Rc::strong_count(b), want[i], "buffer {i}");
            }
        };
        let mut q = ByteQueue::new();
        let mut model: Vec<u8> = Vec::new();

        q.extend_shared(&bufs[0], 0..2);
        q.extend_shared(&bufs[0], 2..4); // merges into the inline head
        model.extend_from_slice(&bufs[0]);
        assert_eq!(contents(&q), model);
        assert!(q.rest.is_none(), "one chunk stays inline");
        refs([2, 1, 1]);

        q.extend_shared(&bufs[1], 0..4);
        q.extend_shared(&bufs[2], 1..3);
        model.extend_from_slice(&bufs[1]);
        model.extend_from_slice(&bufs[2][1..3]);
        assert_eq!(contents(&q), model);
        assert_eq!(q.chunks().count(), 3);
        assert_eq!(q.rest.as_ref().map(|r| r.len()), Some(2), "spilled");
        refs([2, 2, 2]);

        // Trim the head, then drain across both remaining chunks.
        let mut prefix = [0u8; 3];
        assert_eq!(q.drain_front(3, &mut prefix), (3, 3));
        assert_eq!(prefix[..], model[..3]);
        model.drain(..3);
        assert_eq!(contents(&q), model);
        refs([2, 2, 2]);
        assert_eq!(q.drain_front(usize::MAX, &mut prefix), (model.len(), 3));
        assert_eq!(prefix[..], model[..3]);
        model.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.chunks().count(), 0);
        refs([1, 1, 1]);
        assert_eq!(q.rest.as_ref().map(|r| r.len()), Some(0), "deque kept");

        q.extend_shared(&bufs[2], 0..4);
        model.extend_from_slice(&bufs[2]);
        assert_eq!(contents(&q), model);
        assert!(q.head.is_some());
        assert_eq!(q.rest.as_ref().map(|r| r.len()), Some(0), "refilled inline");
        refs([1, 1, 2]);
        q.consume(4);
        refs([1, 1, 1]);
    }
}
