#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! `simkernel` — a discrete-event model of the Linux 2.2 kernel
//! machinery that *Scalable Network I/O in Linux* (Provos & Lever,
//! USENIX 2000) exercises: file descriptor tables, a socket layer over
//! [`simnet`], wait-queue wakeups, classic and POSIX real-time signals,
//! and a single calibrated CPU whose softirq work preempts application
//! progress.
//!
//! The actual event-notification mechanisms the paper studies — stock
//! `poll()`, the `/dev/poll` device, and the RT-signal event API — live
//! in the `devpoll` crate (`crates/core`), layered on the hooks exposed
//! here: [`kernel::Kernel::readiness`], the watcher registry, the charge
//! interface, and [`kernel::KernelEvent::FdEvent`] for driver hints.

pub mod cost;
pub mod cpu;
pub mod fd;
pub mod fdmap;
pub mod kernel;
pub mod poll_bits;
pub mod process;
pub mod signal;

pub use cost::CostModel;
pub use cpu::Cpu;
pub use fd::{Errno, Fd, FdTable, File, FileKind};
pub use fdmap::FdMap;
pub use kernel::{AcceptWake, Kernel, KernelEvent};
pub use poll_bits::PollBits;
pub use process::{AfterBatch, Pid, ProcState, Process};
pub use signal::{
    Siginfo, SignalState, DEFAULT_RT_QUEUE_MAX, GLIBC_PTHREAD_SIGNAL, SIGIO, SIGRTMAX, SIGRTMIN,
};
