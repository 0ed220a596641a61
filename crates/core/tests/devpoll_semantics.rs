//! Regression tests for the `/dev/poll` semantics the paper calls out
//! explicitly (§3.1):
//!
//! * writing a `pollfd` with new `events` **replaces** the prior
//!   interest — the documented divergence from Solaris, which ORs;
//! * `POLLREMOVE` of an absent fd is a harmless no-op;
//! * the interest hash table doubles exactly when the average bucket
//!   size reaches two and is never shrunk — observed through the
//!   `devpoll.interest.*` probe gauges, so the observability layer is
//!   exercised alongside the mechanism.

use devpoll::{DevPollConfig, DevPollRegistry, PollFd};
use simcore::probe::Metric;
use simcore::time::SimTime;
use simkernel::{CostModel, Kernel, Pid, PollBits};
use simnet::HostId;

fn setup(config: DevPollConfig) -> (Kernel, DevPollRegistry, Pid, simkernel::Fd) {
    let mut kernel = Kernel::new(HostId(1), CostModel::k6_2_400mhz());
    let pid = kernel.spawn_default();
    let mut registry = DevPollRegistry::new();
    kernel.begin_batch(SimTime::ZERO, pid);
    let dpfd = registry
        .open(&mut kernel, pid, config)
        .expect("open /dev/poll");
    (kernel, registry, pid, dpfd)
}

fn write_one(
    kernel: &mut Kernel,
    registry: &mut DevPollRegistry,
    pid: Pid,
    dpfd: simkernel::Fd,
    entry: PollFd,
) {
    registry
        .write(kernel, pid, dpfd, &[entry])
        .expect("write interest");
}

#[test]
fn new_events_replace_prior_interest() {
    let (mut kernel, mut registry, pid, dpfd) = setup(DevPollConfig::default());
    write_one(
        &mut kernel,
        &mut registry,
        pid,
        dpfd,
        PollFd::new(7, PollBits::POLLIN),
    );
    write_one(
        &mut kernel,
        &mut registry,
        pid,
        dpfd,
        PollFd::new(7, PollBits::POLLOUT),
    );
    let dev = registry.device(&kernel, pid, dpfd).unwrap();
    let entry = dev.interest().get(7).expect("interest present");
    assert_eq!(
        entry.events,
        PollBits::POLLOUT,
        "a written events field must replace, not OR into, prior interest"
    );
    kernel.end_batch(SimTime::ZERO, pid);
}

#[test]
fn solaris_or_semantics_only_when_configured() {
    let config = DevPollConfig {
        or_semantics: true,
        ..DevPollConfig::default()
    };
    let (mut kernel, mut registry, pid, dpfd) = setup(config);
    write_one(
        &mut kernel,
        &mut registry,
        pid,
        dpfd,
        PollFd::new(7, PollBits::POLLIN),
    );
    write_one(
        &mut kernel,
        &mut registry,
        pid,
        dpfd,
        PollFd::new(7, PollBits::POLLOUT),
    );
    let dev = registry.device(&kernel, pid, dpfd).unwrap();
    assert_eq!(
        dev.interest().get(7).unwrap().events,
        PollBits::POLLIN | PollBits::POLLOUT,
        "Solaris compatibility mode ORs interest bits"
    );
    kernel.end_batch(SimTime::ZERO, pid);
}

#[test]
fn pollremove_of_absent_fd_is_a_harmless_noop() {
    let (mut kernel, mut registry, pid, dpfd) = setup(DevPollConfig::default());
    write_one(
        &mut kernel,
        &mut registry,
        pid,
        dpfd,
        PollFd::new(3, PollBits::POLLIN),
    );

    // Removing an fd that was never added must succeed and change
    // nothing.
    let n = registry
        .write(&mut kernel, pid, dpfd, &[PollFd::remove(99)])
        .expect("POLLREMOVE of absent fd must not error");
    assert_eq!(n, 1, "the entry is still counted as processed");
    let dev = registry.device(&kernel, pid, dpfd).unwrap();
    assert_eq!(dev.interest().len(), 1, "existing interest untouched");
    assert!(dev.interest().get(3).is_some());
    assert!(dev.interest().get(99).is_none());

    // And doing it twice in a row is equally harmless.
    registry
        .write(&mut kernel, pid, dpfd, &[PollFd::remove(99)])
        .expect("repeated POLLREMOVE of absent fd");
    kernel.end_batch(SimTime::ZERO, pid);
}

#[test]
fn table_doubles_at_average_bucket_size_two_and_never_shrinks() {
    let (mut kernel, mut registry, pid, dpfd) = setup(DevPollConfig::default());

    // One fd per write so the gauges advance entry by entry.
    for fd in 0..16 {
        write_one(
            &mut kernel,
            &mut registry,
            pid,
            dpfd,
            PollFd::new(fd, PollBits::POLLIN),
        );
        let buckets = kernel.probe().gauge(Metric::DevpollInterestBuckets).value;
        if fd < 15 {
            assert_eq!(
                buckets,
                8,
                "no resize before average bucket size reaches 2 (len {})",
                fd + 1
            );
        } else {
            assert_eq!(buckets, 16, "16 entries in 8 buckets doubles the table");
        }
    }
    for fd in 16..32 {
        write_one(
            &mut kernel,
            &mut registry,
            pid,
            dpfd,
            PollFd::new(fd, PollBits::POLLIN),
        );
    }
    assert_eq!(
        kernel.probe().gauge(Metric::DevpollInterestBuckets).value,
        32
    );
    assert_eq!(kernel.probe().gauge(Metric::DevpollInterestLen).value, 32);
    assert_eq!(
        kernel.probe().counter(Metric::DevpollInterestResizes),
        2,
        "exactly two doublings for 32 entries from 8 initial buckets"
    );

    // Mass POLLREMOVE: the table is never shrunk.
    let removes: Vec<PollFd> = (0..32).map(PollFd::remove).collect();
    registry
        .write(&mut kernel, pid, dpfd, &removes)
        .expect("mass POLLREMOVE");
    assert_eq!(kernel.probe().gauge(Metric::DevpollInterestLen).value, 0);
    assert_eq!(
        kernel.probe().gauge(Metric::DevpollInterestBuckets).value,
        32,
        "the hash table is never shrunk (§3.1)"
    );
    assert_eq!(kernel.probe().counter(Metric::DevpollInterestResizes), 2);
    // The high-water marks remember the peak.
    assert_eq!(
        kernel.probe().gauge(Metric::DevpollInterestLen).high_water,
        32
    );
    kernel.end_batch(SimTime::ZERO, pid);
}
