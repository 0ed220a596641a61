//! Server-side counters used by the benchmark reports and tests.

use simcore::probe::{Metric, MetricRegistry};

/// Counters one server accumulates over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub accepted: u64,
    /// Complete HTTP responses sent (and connection closed cleanly).
    pub replies: u64,
    /// Connections dropped for read errors / resets.
    pub read_errors: u64,
    /// Connections closed by the idle-timeout scan.
    pub idle_closed: u64,
    /// Connections the client closed before sending a full request.
    pub client_closed_early: u64,
    /// Requests for unknown documents (404s served).
    pub not_found: u64,
    /// RT-signal events referring to already-closed descriptors
    /// (the paper's stale-event hazard, §2).
    pub stale_events: u64,
    /// RT signal queue overflows handled.
    pub overflows: u64,
    /// Event-model switches (hybrid server: signal mode <-> poll mode).
    pub mode_switches: u64,
    /// Batches in which the event wait returned work.
    pub busy_batches: u64,
}

impl ServerMetrics {
    /// All connections terminated for any reason.
    pub fn closed_total(&self) -> u64 {
        self.replies + self.read_errors + self.idle_closed + self.client_closed_early
    }

    /// Folds these counters into a probe registry under `server.*`
    /// names (called once at report time; `add` keeps it idempotent-ish
    /// for registries that fold exactly once, which the testbed does).
    pub fn fold_into(&self, probe: &mut MetricRegistry) {
        probe.add(Metric::ServerAccepted, self.accepted);
        probe.add(Metric::ServerReplies, self.replies);
        probe.add(Metric::ServerReadErrors, self.read_errors);
        probe.add(Metric::ServerIdleClosed, self.idle_closed);
        probe.add(Metric::ServerClientClosedEarly, self.client_closed_early);
        probe.add(Metric::ServerNotFound, self.not_found);
        probe.add(Metric::ServerStaleEvents, self.stale_events);
        probe.add(Metric::ServerOverflows, self.overflows);
        probe.add(Metric::ServerModeSwitches, self.mode_switches);
        probe.add(Metric::ServerBusyBatches, self.busy_batches);
    }
}

/// Field-wise totals (a prefork server reports its workers' sum).
impl std::iter::Sum for ServerMetrics {
    fn sum<I: Iterator<Item = ServerMetrics>>(iter: I) -> ServerMetrics {
        iter.fold(ServerMetrics::default(), |a, m| ServerMetrics {
            accepted: a.accepted + m.accepted,
            replies: a.replies + m.replies,
            read_errors: a.read_errors + m.read_errors,
            idle_closed: a.idle_closed + m.idle_closed,
            client_closed_early: a.client_closed_early + m.client_closed_early,
            not_found: a.not_found + m.not_found,
            stale_events: a.stale_events + m.stale_events,
            overflows: a.overflows + m.overflows,
            mode_switches: a.mode_switches + m.mode_switches,
            busy_batches: a.busy_batches + m.busy_batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_total_sums_components() {
        let m = ServerMetrics {
            replies: 5,
            read_errors: 2,
            idle_closed: 3,
            client_closed_early: 1,
            ..ServerMetrics::default()
        };
        assert_eq!(m.closed_total(), 11);
    }
}
