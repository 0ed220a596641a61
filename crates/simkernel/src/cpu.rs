//! The server's single CPU, modelled as a FIFO work queue.
//!
//! Interrupt/softirq work is charged the moment a segment arrives and
//! pushes the CPU's `busy_until` horizon forward; process-level batches
//! queue behind whatever the CPU already owes. This reproduces the
//! paper's observation that high-latency clients "induce a bursty and
//! unpredictable interrupt load on the server" which delays application
//! progress — without needing a full preemption model, because softirq
//! work always has priority (it is charged first) and the application
//! only ever runs in the gaps.

use simcore::time::{SimDuration, SimTime};

/// The simulated CPU of one host.
#[derive(Debug, Clone)]
pub struct Cpu {
    busy_until: SimTime,
    softirq_total: SimDuration,
    process_total: SimDuration,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// Creates an idle CPU.
    pub fn new() -> Cpu {
        Cpu {
            busy_until: SimTime::ZERO,
            softirq_total: SimDuration::ZERO,
            process_total: SimDuration::ZERO,
        }
    }

    /// Charges interrupt-context work arriving at `now`.
    ///
    /// The work starts as soon as the CPU frees up (or immediately if
    /// idle) and extends the busy horizon.
    pub fn charge_softirq(&mut self, now: SimTime, work: SimDuration) {
        let start = self.busy_until.max(now);
        self.busy_until = start + work;
        self.softirq_total += work;
    }

    /// Runs a process-level batch of `work` submitted at `now`.
    ///
    /// Returns the completion time: the process may continue only then.
    pub fn run_process(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        let start = self.busy_until.max(now);
        self.busy_until = start + work;
        self.process_total += work;
        self.busy_until
    }

    /// When the CPU next becomes idle (may be in the past if idle now).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Whether the CPU has nothing queued at `now`.
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Total softirq time charged so far.
    pub fn softirq_total(&self) -> SimDuration {
        self.softirq_total
    }

    /// Total process time charged so far.
    pub fn process_total(&self) -> SimDuration {
        self.process_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cpu_runs_immediately() {
        let mut cpu = Cpu::new();
        let done = cpu.run_process(SimTime::from_micros(10), SimDuration::from_micros(5));
        assert_eq!(done, SimTime::from_micros(15));
        assert!(cpu.is_idle(done));
    }

    #[test]
    fn softirq_delays_process_work() {
        let mut cpu = Cpu::new();
        cpu.charge_softirq(SimTime::ZERO, SimDuration::from_micros(30));
        let done = cpu.run_process(SimTime::ZERO, SimDuration::from_micros(10));
        assert_eq!(done, SimTime::from_micros(40));
    }

    #[test]
    fn softirq_during_idle_is_free_for_later_work() {
        let mut cpu = Cpu::new();
        cpu.charge_softirq(SimTime::ZERO, SimDuration::from_micros(5));
        // CPU was idle long before the process runs; no delay remains.
        let done = cpu.run_process(SimTime::from_millis(1), SimDuration::from_micros(10));
        assert_eq!(done, SimTime::from_millis(1) + SimDuration::from_micros(10));
    }

    #[test]
    fn work_queues_fifo() {
        let mut cpu = Cpu::new();
        let d1 = cpu.run_process(SimTime::ZERO, SimDuration::from_micros(10));
        cpu.charge_softirq(SimTime::from_micros(2), SimDuration::from_micros(7));
        let d2 = cpu.run_process(SimTime::from_micros(3), SimDuration::from_micros(1));
        assert_eq!(d1, SimTime::from_micros(10));
        assert_eq!(d2, SimTime::from_micros(18));
    }

    #[test]
    fn totals_accumulate() {
        let mut cpu = Cpu::new();
        cpu.charge_softirq(SimTime::ZERO, SimDuration::from_micros(3));
        cpu.run_process(SimTime::ZERO, SimDuration::from_micros(4));
        cpu.charge_softirq(SimTime::ZERO, SimDuration::from_micros(5));
        assert_eq!(cpu.softirq_total(), SimDuration::from_micros(8));
        assert_eq!(cpu.process_total(), SimDuration::from_micros(4));
    }
}
