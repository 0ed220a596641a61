//! Allocation budget of a request's steady path.
//!
//! A request's socket queues hold their first chunk inline, the server
//! reuses closed connections' request buffers, and the RT-signal queue
//! keeps its storage when it empties, so once a world is warm a request
//! costs the simulator's heap nothing. This test counts the heap
//! allocations a seed-1 world makes after its warm-up (the idle
//! population connected, the first requests served) and divides by the
//! requests the load generator attempted. A per-request allocation
//! anywhere on the path reads as one or more per request; the budget is
//! half of one, which leaves room for amortised growth of long-lived
//! vectors.
//!
//! The worlds run checked, as every debug-build world does: the
//! `/dev/poll` invariant auditor and stock `poll()`'s full-scan check
//! allocate nothing either, so the count is the model's.
//!
//! The counter is per thread, so other tests running in parallel do not
//! add to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use httperf::{build_world, RunParams, ServerKind};
use simcore::time::{SimDuration, SimTime};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only during thread teardown; nothing is counted
    // then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the thread-local
// counter neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Requests per world: enough that the warm-up's own growth is a small
/// share of the count.
const CONNS: u64 = 400;

/// Warm-up past the load generator's own: the first requests' arrivals,
/// which grow the long-lived tables and pools once.
const WARM_REQUESTS: SimDuration = SimDuration::from_millis(100);

/// Allowed allocations per attempted request after warm-up.
const BUDGET: f64 = 0.5;

/// Allocations per attempted request in a seed-1 world at one of the
/// benchmark's loads (501 idle connections).
fn allocs_per_request(kind: ServerKind, rate: f64) -> (u64, u64) {
    let params = RunParams::paper(kind, rate, 501)
        .with_conns(CONNS)
        .with_seed(1);
    let warm = SimTime::ZERO + params.load.warmup + WARM_REQUESTS;
    let horizon = params.horizon;
    let (mut bed, mut server) = build_world(params);
    bed.start(server.as_mut());
    bed.run(server.as_mut(), warm);
    let before = allocs();
    bed.run(server.as_mut(), horizon);
    let steady = allocs() - before;
    let report = bed.report(server.as_ref());
    assert_eq!(report.attempted, CONNS, "{}: load incomplete", kind.label());
    (steady, report.attempted)
}

#[test]
fn warm_requests_do_not_allocate() {
    let cases = [
        (ServerKind::ThttpdDevPoll, 1000.0),
        (ServerKind::ThttpdPoll, 800.0),
        (ServerKind::Phhttpd, 1000.0),
    ];
    let mut over = Vec::new();
    let mut table = String::new();
    for (kind, rate) in cases {
        let (steady, attempted) = allocs_per_request(kind, rate);
        let per = steady as f64 / attempted as f64;
        table.push_str(&format!(
            "  {:<16} {steady:>6} allocations / {attempted} requests = {per:.3}\n",
            kind.label()
        ));
        if per >= BUDGET {
            over.push(kind.label());
        }
    }
    assert!(
        over.is_empty(),
        "over {BUDGET} allocations per request after warm-up: {over:?}\n{table}"
    );
    println!("{table}");
}
