//! Property test: `ByteQueue`, a FIFO of shared slices, is observably
//! a byte FIFO.
//!
//! The model is a `VecDeque<u8>`. Two queues play a connection's
//! sender `out` and receiver inbox: random appends of shared ranges
//! (fresh ranges and ranges continuing the last one, which merge),
//! deliveries of a sub-range of `out` into the inbox by reference
//! (offsets that straddle chunk boundaries), and consumes of either
//! queue (inbox drains also read a prefix in the same walk). After
//! every step both queues must agree with their models on length,
//! emptiness, their chunk concatenation and a `copy_into` read. Once
//! both are drained, no buffer may still be referenced.

use std::collections::VecDeque;
use std::rc::Rc;

use proptest::prelude::*;
use simnet::ByteQueue;

/// Shared buffers the appends draw from; every byte is distinct, so a
/// range read from the wrong place shows.
fn buffers() -> Vec<Rc<Vec<u8>>> {
    (0..3u8)
        .map(|i| Rc::new((0..64u8).map(|j| i * 64 + j).collect()))
        .collect()
}

/// One operation: `(kind, a, b)`; `a` and `b` are scaled per kind.
type Op = (u8, usize, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, 0usize..64, 0usize..64), 1..200)
}

fn check(q: &ByteQueue, model: &VecDeque<u8>, cut: usize, step: usize, name: &str) {
    let want: Vec<u8> = model.iter().copied().collect();
    assert_eq!(q.len(), want.len(), "step {step}: {name} len");
    assert_eq!(
        q.is_empty(),
        want.is_empty(),
        "step {step}: {name} is_empty"
    );
    let joined: Vec<u8> = q.chunks().flatten().copied().collect();
    assert_eq!(joined, want, "step {step}: {name} chunks");
    assert!(
        q.chunks().all(|c| !c.is_empty()),
        "step {step}: {name} empty chunk"
    );
    let n = cut.min(want.len());
    let mut copied = vec![0xEE];
    q.copy_into(n, &mut copied);
    assert_eq!(copied[0], 0xEE, "step {step}: {name} copy_into appends");
    assert_eq!(copied[1..], want[..n], "step {step}: {name} copy_into");
}

/// What a run exercised, so coverage can be asserted.
#[derive(Default)]
struct Coverage {
    merged: usize,
    straddled: usize,
    partial_consumes: usize,
}

/// Drives both queues and their models through `ops`, asserting
/// agreement after every step.
fn run(ops: &[Op]) -> Coverage {
    let bufs = buffers();
    let (mut out, mut inbox) = (ByteQueue::new(), ByteQueue::new());
    let (mut out_m, mut inbox_m) = (VecDeque::new(), VecDeque::new());
    // The last range appended to `out`: (buffer, end).
    let mut last = (0usize, 0usize);
    let mut cov = Coverage::default();
    for (step, &(kind, a, b)) in ops.iter().enumerate() {
        match kind {
            // Append a fresh range of some buffer.
            0 => {
                let buf = a % bufs.len();
                let (start, len) = (b, a % 17);
                let end = (start + len).min(64);
                out.extend_shared(&bufs[buf], start..end);
                out_m.extend(&bufs[buf][start..end]);
                last = (buf, end);
            }
            // Continue the last range: merges into the tail chunk.
            1 => {
                let (buf, start) = last;
                let end = (start + b % 17).min(64);
                let chunks_before = out.chunks().count();
                out.extend_shared(&bufs[buf], start..end);
                out_m.extend(&bufs[buf][start..end]);
                if end > start && chunks_before > 0 && out.chunks().count() == chunks_before {
                    cov.merged += 1;
                }
                last = (buf, end);
            }
            // Deliver a sub-range of `out` into the inbox by reference.
            2 | 3 => {
                let offset = a % (out_m.len() + 1);
                let len = b % (out_m.len() - offset + 1);
                let before = inbox.chunks().count();
                inbox.extend_from_queue(&out, offset, len);
                inbox_m.extend(out_m.range(offset..offset + len));
                if inbox.chunks().count() > before + 1 {
                    cov.straddled += 1;
                }
            }
            // Consume from the front of either queue.
            4 => {
                let n = a % (out_m.len() + 1);
                cov.partial_consumes += usize::from(n > 0 && n < out_m.len());
                out.consume(n);
                out_m.drain(..n);
            }
            // Drain the inbox's front, reading a prefix in the same walk.
            _ => {
                let n = a % (inbox_m.len() + 1);
                cov.partial_consumes += usize::from(n > 0 && n < inbox_m.len());
                let mut prefix = vec![0u8; b % 20];
                let fill = prefix.len().min(n);
                assert_eq!(
                    inbox.drain_front(n, &mut prefix),
                    (n, fill),
                    "step {step}: drain_front counts"
                );
                let want: Vec<u8> = inbox_m.drain(..n).collect();
                assert_eq!(prefix[..fill], want[..fill], "step {step}: drain prefix");
            }
        }
        check(&out, &out_m, b, step, "out");
        check(&inbox, &inbox_m, a, step, "inbox");
    }
    out.consume(out.len());
    assert_eq!(inbox.drain_front(usize::MAX, &mut []), (inbox_m.len(), 0));
    for (i, buf) in bufs.iter().enumerate() {
        assert_eq!(Rc::strong_count(buf), 1, "buffer {i} still referenced");
    }
    cov
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_queue_matches_a_byte_fifo(ops in ops()) {
        run(&ops);
    }
}

/// The generated runs reach every branch worth checking: tail merges,
/// deliveries that span several chunks, and consumes that trim a chunk
/// rather than pop it.
#[test]
fn generated_ops_cover_merges_and_straddles() {
    let mut total = Coverage::default();
    for case in 0..64 {
        let mut rng = proptest::Rng::for_case("prop_bytequeue::coverage", case);
        let cov = run(&ops().generate(&mut rng));
        total.merged += cov.merged;
        total.straddled += cov.straddled;
        total.partial_consumes += cov.partial_consumes;
    }
    assert!(total.merged > 0, "no tail merge exercised");
    assert!(total.straddled > 0, "no delivery spanned chunks");
    assert!(total.partial_consumes > 0, "no partial consume exercised");
}
