//! The runtime invariant auditor: a checked mode for the `/dev/poll`
//! core, on in debug builds and in simcheck, never in release figures.
//!
//! Every operation on a device revalidates the paper's stated
//! invariants instead of trusting the fast path:
//!
//! * cached-"ready" interests re-enter every scan ("\[they have\] to be
//!   reevaluated each time", §3.2) — a stale cache served without a
//!   driver poll is exactly the silent-wrong-results bug class this
//!   mode exists for;
//! * `POLLREMOVE` purges the interest from *both* the hash table and
//!   the backmapping (watcher) registration;
//! * a written `events` field **replaces** prior interest — the
//!   documented divergence from Solaris' OR semantics (§3.1);
//! * the interest hash table doubles at average bucket size two, stays
//!   a power of two, and never shrinks (§3.1).
//!
//! The same checked mode audits stock `poll()`'s incremental wait
//! against a full scan of its array ([`check_stock_poll`]). No check
//! allocates, so a checked world's allocation count is the model's.
//!
//! Violations panic with a `simcheck audit:` message; check counts
//! accumulate in [`crate::DevPollRegistry::audit_checks`] so a run can
//! prove the auditor was live, while the probes — and every digest over
//! them — stay the same whether it ran or not. [`crate::device`] calls
//! these functions on checked registries: every registry of a debug
//! build, and those built with [`crate::DevPollRegistry::audited`].

use simkernel::{Fd, Kernel, Pid, PollBits};

use crate::device::DevPollDevice;
use crate::pollfd::PollFd;

/// Audits the table and backmap state after a `write(dpfd, ...)` batch.
///
/// `prev_buckets` is the device's bucket count before the batch;
/// `removed` lists the fds whose interests the batch actually removed
/// (a `POLLREMOVE` of an absent fd is a harmless no-op and must not be
/// audited against the shared watcher registry — another backend may
/// legitimately hold a watcher on that fd).
/// Returns the number of checks performed; panics on any violation.
pub fn check_write(
    kernel: &Kernel,
    pid: Pid,
    dev: &DevPollDevice,
    entries: &[PollFd],
    removed: &[Fd],
    or_semantics: bool,
    prev_buckets: usize,
) -> u64 {
    let mut checks = 0u64;
    let table = dev.interest();
    for (i, e) in entries.iter().enumerate() {
        // Later entries for the same fd win; audit final per-fd state
        // only. (Quadratic in the batch, but allocation-free: batches
        // are a few entries.)
        if entries[i + 1..].iter().any(|later| later.fd == e.fd) {
            continue;
        }
        let fd = e.fd;
        if e.events.contains(PollBits::POLLREMOVE) {
            checks += 1;
            assert!(
                table.get(fd).is_none(),
                "simcheck audit: POLLREMOVE left fd {fd} in the interest hash table"
            );
            if removed.contains(&fd) {
                checks += 1;
                assert!(
                    !kernel.is_watched(pid, fd),
                    "simcheck audit: POLLREMOVE left fd {fd} on the backmapping (watcher) list"
                );
            }
        } else {
            let entry = table.get(fd).unwrap_or_else(|| {
                panic!("simcheck audit: written interest for fd {fd} missing from the hash table")
            });
            checks += 4;
            if !or_semantics {
                assert_eq!(
                    entry.events, e.events,
                    "simcheck audit: events field must replace prior interest for fd {fd} \
                     (Solaris OR semantics leaked in)"
                );
            } else {
                assert!(
                    entry.events.contains(e.events),
                    "simcheck audit: OR semantics dropped requested bits for fd {fd}"
                );
            }
            assert_eq!(
                entry.cached,
                PollBits::EMPTY,
                "simcheck audit: interest update for fd {fd} did not invalidate the result cache"
            );
            assert!(
                entry.hinted,
                "simcheck audit: updated interest for fd {fd} not marked for rescan"
            );
            assert!(
                kernel.is_watched(pid, fd),
                "simcheck audit: written interest for fd {fd} has no backmap (watcher) entry"
            );
        }
    }
    checks += check_table_shape(dev, prev_buckets);
    checks
}

/// Audits the hash table's doubling policy: power-of-two bucket count,
/// average bucket size below two after every operation, never shrunk.
pub fn check_table_shape(dev: &DevPollDevice, prev_buckets: usize) -> u64 {
    let table = dev.interest();
    let buckets = table.bucket_count();
    assert!(
        buckets.is_power_of_two(),
        "simcheck audit: bucket count {buckets} is not a power of two"
    );
    assert!(
        buckets >= prev_buckets,
        "simcheck audit: hash table shrank from {prev_buckets} to {buckets} buckets \
         (the paper's table is never shrunk)"
    );
    assert!(
        table.len() < 2 * buckets,
        "simcheck audit: {} interests in {buckets} buckets — average bucket size reached 2 \
         without doubling",
        table.len()
    );
    3
}

/// Audits a `DP_POLL` candidate set before the scan: with hints enabled,
/// every cached-ready interest must be revalidated this scan.
/// `candidates` is in ascending fd order (the dirty list's).
pub fn check_scan_candidates(dev: &DevPollDevice, candidates: &[(Fd, PollBits)]) -> u64 {
    let mut checks = 0u64;
    for e in dev.interest().iter() {
        if !e.cached.is_empty() {
            checks += 1;
            assert!(
                candidates
                    .binary_search_by_key(&e.fd, |&(fd, _)| fd)
                    .is_ok(),
                "simcheck audit: cached-ready fd {} skipped revalidation \
                 (cached {:?} served stale)",
                e.fd,
                e.cached
            );
        }
    }
    checks
}

/// Audits a `DP_POLL` result set after the scan: every returned
/// `revents` must match the kernel's current readiness truth, and every
/// scanned interest must have its hint consumed.
pub fn check_scan_results(
    kernel: &Kernel,
    pid: Pid,
    dev: &DevPollDevice,
    candidates: &[(Fd, PollBits)],
    results: &[PollFd],
) -> u64 {
    let mut checks = 0u64;
    for r in results {
        checks += 1;
        let truth = kernel.readiness(pid, r.fd) & (r.events | PollBits::always_reported());
        assert_eq!(
            r.revents, truth,
            "simcheck audit: DP_POLL returned {:?} for fd {} but current readiness is {:?} \
             (result not revalidated before return)",
            r.revents, r.fd, truth
        );
    }
    for &(fd, _) in candidates {
        if let Some(e) = dev.interest().get(fd) {
            checks += 1;
            assert!(
                !e.hinted,
                "simcheck audit: scanned fd {fd} still carries its driver hint"
            );
        }
    }
    checks
}

/// Audits a stock-`poll()` wait that evaluated only its candidates and
/// unparked its kept registrations ([`crate::StockPollBackend`])
/// against what [`crate::sys_poll`] does: every ready entry must be a
/// candidate of the next wait, `results` must be exactly a full scan's
/// first `max` ready entries, and the live wait-queue registrations of
/// `pid` must be exactly the fds of `fds` after a wait that `blocked`,
/// and none after one that did not. `fds` is in ascending fd order;
/// `is_candidate` answers membership in the next wait's candidate set.
pub fn check_stock_poll(
    kernel: &Kernel,
    pid: Pid,
    fds: &[PollFd],
    is_candidate: impl Fn(Fd) -> bool,
    results: &[PollFd],
    max: usize,
    blocked: bool,
) -> u64 {
    let mut checks = 0u64;
    let mut ready = 0usize;
    let mut returned = 0usize;
    for f in fds {
        let truth = kernel.readiness(pid, f.fd) & (f.events | PollBits::always_reported());
        let got = match results.get(returned) {
            Some(r) if r.fd == f.fd => {
                returned += 1;
                r.revents
            }
            _ => PollBits::EMPTY,
        };
        let want = if !truth.is_empty() && ready < max {
            truth
        } else {
            PollBits::EMPTY
        };
        checks += 1;
        assert_eq!(
            got, want,
            "simcheck audit: stock poll() of pid {pid} returned {got} for fd {} but the full \
             scan gives {truth} (its ready entry #{ready}, max {max})",
            f.fd
        );
        if !truth.is_empty() {
            ready += 1;
            checks += 1;
            assert!(
                is_candidate(f.fd),
                "simcheck audit: fd {} of pid {pid} is ready ({truth}; the wait returned {got}) \
                 but is no candidate of the next wait (a rise went unhinted, or a ready \
                 candidate was dropped)",
                f.fd
            );
        }
    }
    checks += 1;
    assert_eq!(
        returned,
        results.len(),
        "simcheck audit: stock poll() of pid {pid} returned an fd outside its array, or out of \
         fd order: {:?}",
        results.get(returned).map(|r| r.fd)
    );
    checks + check_stock_registrations(kernel, pid, fds, blocked)
}

/// The registration half of [`check_stock_poll`]: names the first fd
/// whose registration differs from a full one.
fn check_stock_registrations(kernel: &Kernel, pid: Pid, fds: &[PollFd], blocked: bool) -> u64 {
    let mut checks = 0u64;
    kernel.for_each_watched(pid, |fd| {
        checks += 1;
        assert!(
            blocked && fds.binary_search_by_key(&fd, |f| f.fd).is_ok(),
            "simcheck audit: stock poll() of pid {pid} left fd {fd} on its wait queue after a \
             wait that {}",
            if blocked {
                "blocked, but fd is not in its array"
            } else {
                "did not block"
            }
        );
    });
    if blocked {
        for f in fds {
            checks += 1;
            assert!(
                kernel.is_watched(pid, f.fd),
                "simcheck audit: stock poll() of pid {pid} blocked without fd {} of its array on \
                 its wait queue",
                f.fd
            );
        }
    }
    checks
}
