//! The calibrated CPU cost model.
//!
//! Every kernel operation in the simulation charges simulated CPU time
//! from this table. The *absolute* values approximate a 400 MHz AMD K6-2
//! running Linux 2.2.14 (the paper's server, §5); what the reproduction
//! actually relies on is the *structure* — which costs scale with the
//! interest-set size, which are per event, and which are per byte — since
//! those produce the curve shapes of Figs. 4–14.
//!
//! All values are nanoseconds of simulated CPU time.

use simcore::time::SimDuration;

/// Cost table for the simulated server kernel and applications.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    // ---------------- syscall plumbing ----------------
    /// Fixed syscall entry/exit overhead (trap, register save, dispatch).
    pub syscall: u64,
    /// Copying one byte between user and kernel space.
    pub copy_per_byte: u64,

    // ---------------- stock poll() (§3, baseline) ----------------
    /// Copy-in and validation of one `pollfd` on `poll()` entry.
    pub pollfd_copyin: u64,
    /// One device-driver poll callback (`f_op->poll`) per scanned
    /// descriptor — all-in: the callback itself plus the `poll_wait`
    /// wait-queue add and `poll_freewait` remove that Linux 2.2 performs
    /// on *every* scan (§6 quotes Brown blaming exactly this wait-queue
    /// traffic), plus the cache misses of touching a cold socket struct
    /// on a 400 MHz K6-2. This is the dominant per-descriptor cost the
    /// hinting scheme avoids.
    pub driver_poll: u64,
    /// Adding the process to one file's wait queue before sleeping.
    pub wq_add: u64,
    /// Removing the process from one file's wait queue on wakeup.
    pub wq_remove: u64,
    /// Copying one result `pollfd` back to user space.
    pub pollfd_copyout: u64,
    /// Per-slot cost of one `select()` round trip, charged for every
    /// slot up to `maxfd`, member or not: the kernel's bitmap walk plus
    /// the application's mandatory `FD_ZERO`/`FD_SET` rebuild and
    /// `FD_ISSET` result scan — `select`'s signature O(maxfd) tax
    /// (Banga & Mogul's baseline, cited as \[1\]).
    pub select_bit_walk: u64,

    // ---------------- /dev/poll (§3.1–3.3) ----------------
    /// Fixed `ioctl(DP_POLL)` dispatch cost.
    pub devpoll_base: u64,
    /// One interest-set hash-table operation (insert/modify/remove).
    pub devpoll_hash_op: u64,
    /// Walking one hinted descriptor during a `DP_POLL` scan (flag check
    /// plus cache bookkeeping; the driver poll callback is charged
    /// separately when the hint forces revalidation).
    pub hint_walk: u64,
    /// The driver marking one backmap hint when an event arrives
    /// (softirq side).
    pub backmap_mark: u64,
    /// Taking the backmap read-write lock (read side).
    pub backmap_rlock: u64,
    /// Taking the backmap read-write lock (write side).
    pub backmap_wlock: u64,
    /// Writing one result `pollfd` into the shared `mmap` area (no
    /// user-space copy; cache-line dirtying only).
    pub mmap_result_write: u64,

    // ---------------- POSIX RT signals (§2, §4) ----------------
    /// Kernel work to enqueue one RT signal (allocation + queue insert).
    pub rt_enqueue: u64,
    /// Kernel work to dequeue one siginfo in `sigwaitinfo` beyond the
    /// syscall overhead.
    pub rt_dequeue: u64,
    /// Raising SIGIO on queue overflow.
    pub sigio_raise: u64,

    // ---------------- networking softirq ----------------
    /// TCP/IP receive processing per segment (interrupt + softirq).
    pub softirq_per_segment: u64,
    /// Per-byte receive cost (checksum).
    pub softirq_per_byte: u64,
    /// Transmit-path cost per segment (charged inside `write`).
    pub tx_per_segment: u64,

    // ---------------- socket syscalls ----------------
    /// `accept()` beyond the generic syscall cost.
    pub accept: u64,
    /// `read()` base cost beyond syscall + copy.
    pub read_base: u64,
    /// `write()` base cost beyond syscall + copy.
    pub write_base: u64,
    /// `close()` cost.
    pub close: u64,
    /// `fcntl()` cost.
    pub fcntl: u64,
    /// `sendfile()` per-byte cost: the kernel-internal page-cache-to-
    /// socket path skips the user-space copy (§6 lists sendfile as
    /// interesting future work).
    pub sendfile_per_byte: u64,

    // ---------------- application-level work ----------------
    /// Parsing an HTTP request and building response headers.
    pub app_parse_request: u64,
    /// Locating a (cached) file: open + fstat of the 6 KB document.
    pub app_open_file: u64,
    /// Per-connection bookkeeping in the server's own tables.
    pub app_conn_setup: u64,
    /// Walking one entry of the server's timer list during an idle scan.
    pub app_timer_scan: u64,
    /// Per-open-connection lookup cost the experimental phhttpd pays on
    /// every event (the implementation weakness §5.2/Fig. 12 points at:
    /// "Inactive connections appear to increase the overhead of handling
    /// active connections ... may be a problem with ... the phhttpd
    /// implementation itself").
    pub app_event_lookup: u64,
}

impl CostModel {
    /// The paper's server: a 400 MHz AMD K6-2, 64 MB RAM, Linux 2.2.14.
    ///
    /// Calibrated so a single-process event-driven server saturates
    /// between 800 and 1300 replies/s depending on its event model —
    /// the operating region of Figs. 4–14.
    pub fn k6_2_400mhz() -> CostModel {
        CostModel {
            syscall: 5_000,
            copy_per_byte: 3,
            pollfd_copyin: 350,
            driver_poll: 10_000,
            wq_add: 400,
            wq_remove: 400,
            pollfd_copyout: 120,
            select_bit_walk: 600,
            devpoll_base: 1_000,
            devpoll_hash_op: 250,
            hint_walk: 80,
            backmap_mark: 120,
            backmap_rlock: 60,
            backmap_wlock: 150,
            mmap_result_write: 30,
            rt_enqueue: 2_000,
            rt_dequeue: 2_000,
            sigio_raise: 2_000,
            softirq_per_segment: 50_000,
            softirq_per_byte: 4,
            tx_per_segment: 20_000,
            accept: 15_000,
            read_base: 6_000,
            write_base: 6_000,
            close: 10_000,
            fcntl: 3_000,
            sendfile_per_byte: 1,
            app_parse_request: 60_000,
            app_open_file: 15_000,
            app_conn_setup: 12_000,
            app_timer_scan: 150,
            app_event_lookup: 700,
        }
    }

    /// A uniformly faster machine: every cost scaled by `1 / factor`.
    ///
    /// Useful for sensitivity benches (does the ordering of the three
    /// event models survive a faster CPU?).
    pub fn scaled(&self, factor: f64) -> CostModel {
        assert!(factor > 0.0, "scale factor must be positive");
        let s = |v: u64| -> u64 { ((v as f64 / factor).round() as u64).max(1) };
        CostModel {
            syscall: s(self.syscall),
            copy_per_byte: s(self.copy_per_byte),
            pollfd_copyin: s(self.pollfd_copyin),
            driver_poll: s(self.driver_poll),
            wq_add: s(self.wq_add),
            wq_remove: s(self.wq_remove),
            pollfd_copyout: s(self.pollfd_copyout),
            select_bit_walk: s(self.select_bit_walk),
            devpoll_base: s(self.devpoll_base),
            devpoll_hash_op: s(self.devpoll_hash_op),
            hint_walk: s(self.hint_walk),
            backmap_mark: s(self.backmap_mark),
            backmap_rlock: s(self.backmap_rlock),
            backmap_wlock: s(self.backmap_wlock),
            mmap_result_write: s(self.mmap_result_write),
            rt_enqueue: s(self.rt_enqueue),
            rt_dequeue: s(self.rt_dequeue),
            sigio_raise: s(self.sigio_raise),
            softirq_per_segment: s(self.softirq_per_segment),
            softirq_per_byte: s(self.softirq_per_byte),
            tx_per_segment: s(self.tx_per_segment),
            accept: s(self.accept),
            read_base: s(self.read_base),
            write_base: s(self.write_base),
            close: s(self.close),
            fcntl: s(self.fcntl),
            sendfile_per_byte: s(self.sendfile_per_byte),
            app_parse_request: s(self.app_parse_request),
            app_open_file: s(self.app_open_file),
            app_conn_setup: s(self.app_conn_setup),
            app_timer_scan: s(self.app_timer_scan),
            app_event_lookup: s(self.app_event_lookup),
        }
    }

    /// Convenience: a cost in nanoseconds as a [`SimDuration`].
    pub fn d(&self, nanos: u64) -> SimDuration {
        SimDuration::from_nanos(nanos)
    }

    /// Softirq cost of receiving one segment of `wire_bytes`.
    pub fn softirq_rx(&self, wire_bytes: u32) -> SimDuration {
        SimDuration::from_nanos(
            self.softirq_per_segment + self.softirq_per_byte * wire_bytes as u64,
        )
    }

    /// Cost of copying `n` bytes across the user/kernel boundary.
    pub fn copy(&self, n: usize) -> SimDuration {
        SimDuration::from_nanos(self.copy_per_byte * n as u64)
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::k6_2_400mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_self_consistent() {
        let c = CostModel::k6_2_400mhz();
        // The driver poll callback must dominate the hint walk, otherwise
        // hinting could not pay off (§3.2).
        assert!(c.driver_poll > 5 * c.hint_walk);
        // The mmap result write must be cheaper than the copy-out it
        // replaces (§3.3).
        assert!(c.mmap_result_write < c.pollfd_copyout);
        // The all-in per-descriptor scan cost (driver callback plus the
        // wait-queue add/remove of every 2.2-era scan) dominates the
        // syscall entry cost — this is what makes kernel-resident
        // interest sets worthwhile (§3.1) while RT signals still pay one
        // syscall per event (§6).
        assert!(c.driver_poll > c.syscall);
        assert!(c.syscall > c.rt_dequeue);
    }

    #[test]
    fn scaled_divides_costs() {
        let c = CostModel::k6_2_400mhz();
        let f = c.scaled(2.0);
        assert_eq!(f.syscall, c.syscall / 2);
        assert_eq!(f.driver_poll, c.driver_poll / 2);
        // Never hits zero.
        let tiny = c.scaled(1e9);
        assert_eq!(tiny.copy_per_byte, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_nonpositive() {
        let _ = CostModel::k6_2_400mhz().scaled(0.0);
    }

    #[test]
    fn softirq_rx_includes_per_byte() {
        let c = CostModel::k6_2_400mhz();
        let small = c.softirq_rx(40);
        let big = c.softirq_rx(1500);
        assert!(big > small);
        assert_eq!(
            big.as_nanos() - small.as_nanos(),
            (1500 - 40) * c.softirq_per_byte
        );
    }
}
