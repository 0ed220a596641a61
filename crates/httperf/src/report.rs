//! Measurement results: the numbers the paper plots.

use simcore::probe::Snapshot;
use simcore::stats::{Quantiles, RateSummary};

/// Why a connection was aborted, matching §5.1: "Connection errors can
/// result when the client runs out of file descriptors, when connections
/// time out, or when the server refuses connections for some reason."
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorCounts {
    /// Client-side timeout (no reply within the deadline).
    pub timeouts: u64,
    /// RST from the server (refused).
    pub refused: u64,
    /// Client out of file descriptors.
    pub fd_shortage: u64,
    /// Client out of ephemeral ports (distinct from descriptor
    /// shortage: ports recycle through TIME_WAIT, descriptors free on
    /// close — the two exhaust at different population sizes).
    pub ports_exhausted: u64,
    /// Connection reset mid-transfer.
    pub resets: u64,
}

impl ErrorCounts {
    /// Total errors.
    pub fn total(&self) -> u64 {
        self.timeouts + self.refused + self.fd_shortage + self.ports_exhausted + self.resets
    }
}

/// The outcome of one benchmark run at one (rate, inactive-load) point.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Server architecture label.
    pub server: String,
    /// Targeted request rate (requests per second).
    pub target_rate: f64,
    /// Inactive connection count held during the run.
    pub inactive: usize,
    /// Connections attempted.
    pub attempted: u64,
    /// Successful replies.
    pub replies: u64,
    /// Error breakdown.
    pub errors: ErrorCounts,
    /// Attempts still unresolved when the run stopped (non-zero only if
    /// the horizon cut it short): `attempted = replies + errors.total()
    /// + in_flight`.
    pub in_flight: u64,
    /// Reply-rate summary over one-second windows (avg/stddev/min/max —
    /// the panels of Figs. 4–9 and 11–13).
    pub rate: RateSummary,
    /// Connection-time quantile collector, milliseconds (Fig. 14 plots
    /// the median).
    pub latencies_ms: Quantiles,
    /// Simulated run length in seconds.
    pub sim_secs: f64,
    /// Simulation events the testbed dispatched (network notifies,
    /// kernel events, load timers) — the throughput-lane numerator.
    pub events: u64,
    /// Server-side metrics snapshot.
    pub server_metrics: servers::ServerMetrics,
    /// Probe snapshot of the server kernel's metric registry at the end
    /// of the run (syscall, devpoll, rtsig, server and tcp counters) —
    /// the one place every event count of the run is read from, e.g.
    /// `probe.counter("kernel.wakeups")`.
    pub probe: Snapshot,
    /// Chrome-trace JSON of retained latency spans (empty unless span
    /// tracing was enabled with record retention).
    pub span_chrome: String,
    /// Folded-stack (`path;leaf ns`) lines of retained latency spans —
    /// flamegraph input; same emptiness rule as `span_chrome`.
    pub span_folded: String,
    /// End-of-run server-side heap bytes: kernel endpoint slots, fd
    /// tables, watcher sets and `/dev/poll` interest pages. Paged
    /// stores never free pages, so this is also the run's high-water
    /// mark.
    pub mem_server_bytes: u64,
    /// Peak simultaneously-open kernel endpoints — the denominator of
    /// the bytes-per-connection lane.
    pub mem_eps_peak: u64,
}

impl RunReport {
    /// Errors as a percentage of attempted connections (Fig. 10).
    pub fn error_percent(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * self.errors.total() as f64 / self.attempted as f64
    }

    /// Median connection time in milliseconds (Fig. 14).
    pub fn median_latency_ms(&mut self) -> f64 {
        self.latencies_ms.median().unwrap_or(0.0)
    }

    /// An arbitrary latency quantile in milliseconds (`0.9` for p90).
    pub fn latency_quantile_ms(&mut self, q: f64) -> f64 {
        self.latencies_ms.quantile(q).unwrap_or(0.0)
    }

    /// Stable hex digest of the run's kernel probe snapshot — the form
    /// `BENCH.json` records so baselines can compare whole snapshots as
    /// one field.
    pub fn probe_digest_hex(&self) -> String {
        self.probe.digest_hex()
    }

    /// One summary line for terminal output.
    pub fn summary_line(&mut self) -> String {
        let median = self.median_latency_ms();
        let err = self.error_percent();
        format!(
            "{:<24} rate={:>5.0} load={:>4} -> avg={:>7.1} min={:>6.1} max={:>7.1} err%={:>5.1} median={:>7.2}ms",
            self.server,
            self.target_rate,
            self.inactive,
            self.rate.avg,
            self.rate.min,
            self.rate.max,
            err,
            median,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_percent_math() {
        let mut r = RunReport {
            server: "x".into(),
            target_rate: 100.0,
            inactive: 0,
            attempted: 200,
            replies: 150,
            errors: ErrorCounts {
                timeouts: 30,
                refused: 10,
                fd_shortage: 3,
                ports_exhausted: 2,
                resets: 5,
            },
            in_flight: 0,
            rate: RateSummary::of(&[]),
            latencies_ms: Quantiles::new(),
            sim_secs: 1.0,
            events: 0,
            server_metrics: servers::ServerMetrics::default(),
            probe: Snapshot::default(),
            span_chrome: String::new(),
            span_folded: String::new(),
            mem_server_bytes: 0,
            mem_eps_peak: 0,
        };
        assert_eq!(r.errors.total(), 50);
        assert!((r.error_percent() - 25.0).abs() < 1e-9);
        assert_eq!(r.median_latency_ms(), 0.0);
    }
}
