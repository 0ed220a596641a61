//! Host normalisation: wall times rescaled to a nominal host.
//!
//! The benchmark times a fixed reference workload right after every
//! replay and divides the run's wall times by a run-level statistic of
//! the reference timings (a fast quantile, the same as that of the
//! replays it divides), never by a single timing. On a shared machine
//! the dominant noise comes from neighbours: for seconds at a time the
//! simulator slows by up to ~1.9x. Of the references tried (dependent
//! loads over tables from 256 KiB to 8 MiB, a binary heap, a B-tree, a
//! hash map, integer arithmetic, a private slab), boxing and dropping
//! small records tracks that slowdown best, though only in part: the
//! simulator is allocation-heavy. The rest is left to the fast quantile.
//!
//! The reference must not depend on the program it normalises. Timed in
//! the simulator's own heap, its speed followed the heap state each
//! world left behind (by up to 20% with 64-byte records), so a change to
//! the program's allocations could move it. It therefore runs on a thread
//! of its own, whose allocations come from that thread's own malloc arena
//! and cache, which the simulator never touches. The replay thread blocks
//! while it runs, so the two never compete for a CPU.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Records boxed per round, and rounds per timing (~0.3 ms in all).
const RECORDS: u64 = 1024;
const ROUNDS: u64 = 8;

/// Wall time of one reference timing on an uncontended 2-vCPU Xeon.
/// Normalised times are reported as if the host ran the reference in
/// exactly this long.
pub const NOMINAL_NS: f64 = 300_000.0;

/// The reference workload, on its own thread.
pub struct Reference {
    go: Option<Sender<()>>,
    done: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Reference {
    pub fn start() -> Reference {
        let (go, wait) = channel::<()>();
        let (report, done) = channel();
        let thread = std::thread::spawn(move || {
            while wait.recv().is_ok() {
                if report.send(time_once()).is_err() {
                    break;
                }
            }
        });
        Reference {
            go: Some(go),
            done,
            thread: Some(thread),
        }
    }

    /// Runs the reference once and returns its wall time in nanoseconds.
    pub fn time_ns(&self) -> f64 {
        let go = self.go.as_ref().expect("reference thread is running");
        go.send(()).expect("reference thread is alive");
        self.done.recv().expect("reference thread answers")
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        drop(self.go.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn time_once() -> f64 {
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        let mut records = Vec::new();
        for i in 0..RECORDS {
            records.push(Box::new([i ^ round; 37]));
        }
        black_box(records.iter().map(|r| r[3]).sum::<u64>());
    }
    t0.elapsed().as_nanos() as f64
}

/// `ns` measured in a run whose reference statistic is `reference_ns`,
/// rescaled to the nominal host.
pub fn normalise(ns: f64, reference_ns: f64) -> f64 {
    ns / reference_ns * NOMINAL_NS
}
