//! Per-process file descriptor tables.

use simcore::paged::PagedSlots;
use simnet::{EndpointId, ListenerId};

use crate::poll_bits::PollBits;

/// A file descriptor number.
pub type Fd = i32;

/// Errors returned by kernel calls, modelled after errno.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Errno {
    /// Operation would block (`EAGAIN`/`EWOULDBLOCK`).
    EAGAIN,
    /// Bad file descriptor.
    EBADF,
    /// Per-process descriptor limit reached.
    EMFILE,
    /// Connection reset by peer.
    ECONNRESET,
    /// Broken pipe (write after the stream closed).
    EPIPE,
    /// Invalid argument.
    EINVAL,
    /// Address already in use.
    EADDRINUSE,
    /// Interrupted (used for signal-driven wakeups).
    EINTR,
}

/// What a descriptor refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A listening socket.
    Listener(ListenerId),
    /// A connected stream socket (one side of a connection).
    Stream(EndpointId),
    /// An open `/dev/poll` device instance, identified by a device-side
    /// handle managed by the `devpoll` crate.
    DevPoll(u64),
}

/// Mirrored readiness of one stream socket, kept up to date by the
/// kernel's network intake and by the syscalls that drain or fill the
/// socket.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SockMirror {
    pub(crate) readable: bool,
    pub(crate) writable: bool,
    pub(crate) hup: bool,
    pub(crate) err: bool,
}

impl SockMirror {
    /// The poll condition the mirror stands for.
    pub(crate) fn bits(self) -> PollBits {
        let mut b = PollBits::EMPTY;
        if self.readable || self.hup || self.err {
            b |= PollBits::POLLIN;
        }
        if self.writable && !self.hup && !self.err {
            b |= PollBits::POLLOUT;
        }
        if self.hup {
            b |= PollBits::POLLHUP;
        }
        if self.err {
            b |= PollBits::POLLERR;
        }
        b
    }
}

/// One open file description.
///
/// A stream descriptor carries its socket's readiness mirror inline, so
/// a `poll()` scan answers each descriptor from the one fd-table lookup
/// it already makes.
// #[hot_struct]: one per descriptor
#[derive(Debug, Clone, Copy)]
pub struct File {
    /// What this descriptor is.
    pub kind: FileKind,
    /// `O_NONBLOCK`.
    pub nonblock: bool,
    /// RT signal assigned via `fcntl(fd, F_SETSIG, n)`, if any.
    pub sig: Option<u8>,
    /// Readiness of the socket behind a `Stream` descriptor (all clear
    /// for other kinds).
    pub(crate) mirror: SockMirror,
}

impl File {
    fn new(kind: FileKind) -> File {
        File {
            kind,
            nonblock: false,
            sig: None,
            mirror: SockMirror::default(),
        }
    }
}

/// A per-process descriptor table with a configurable limit
/// (`RLIMIT_NOFILE`; the paper's httperf assumed 1024).
///
/// Backed by paged slots: a million-descriptor process pays only for
/// the fd-range pages it touches, and the lowest-free scan starts from
/// a hint instead of walking the whole table on every `alloc`.
#[derive(Debug, Clone)]
pub struct FdTable {
    files: PagedSlots<File>,
    limit: usize,
    /// Lower bound on the lowest free descriptor at or above
    /// `first_fd` (advanced on alloc, rewound on close).
    lowest_free: usize,
    /// Base offset: `alloc` never hands out descriptors below this.
    /// Zero in ordinary worlds; elevated in layout-independence tests
    /// that prove semantics don't depend on fd numerology.
    first_fd: usize,
}

impl FdTable {
    /// Folds the table's semantic state into `h`: every open
    /// descriptor in ascending order with its kind, nonblock flag, and
    /// RT-signal assignment.
    pub fn fingerprint_into(&self, h: &mut simcore::fingerprint::Fnv) {
        h.write_usize(self.limit);
        h.write_len(self.files.len());
        for (ix, f) in self.files.iter() {
            h.write_usize(ix);
            match f.kind {
                FileKind::Listener(l) => {
                    h.write_u8(0);
                    h.write_u64(u64::from(l.0));
                }
                FileKind::Stream(ep) => {
                    h.write_u8(1);
                    h.write_u64(u64::from(ep.conn.0));
                    h.write_bool(ep.side == simnet::Side::Server);
                }
                FileKind::DevPoll(dev) => {
                    h.write_u8(2);
                    h.write_u64(dev);
                }
            }
            h.write_bool(f.nonblock);
            h.write_u8(f.sig.map_or(0, |s| s.wrapping_add(1)));
        }
    }

    /// Creates a table with the given descriptor limit.
    pub fn new(limit: usize) -> FdTable {
        FdTable::with_first_fd(limit, 0)
    }

    /// Creates a table whose lowest descriptor is `first_fd` (the
    /// elevated-offset lane; `new` is `with_first_fd(limit, 0)`).
    pub fn with_first_fd(limit: usize, first_fd: usize) -> FdTable {
        FdTable {
            files: PagedSlots::new(),
            limit,
            lowest_free: first_fd,
            first_fd,
        }
    }

    /// Allocates the lowest free descriptor at or above the base
    /// offset for `kind`.
    ///
    /// Returns `EMFILE` when the limit is reached, like the real kernel.
    pub fn alloc(&mut self, kind: FileKind) -> Result<Fd, Errno> {
        if self.files.len() >= self.limit {
            return Err(Errno::EMFILE);
        }
        let ix = self.files.first_free_from(self.lowest_free);
        self.files.insert(ix, File::new(kind));
        self.lowest_free = ix + 1;
        Ok(ix as Fd)
    }

    /// Looks up an open descriptor.
    pub fn get(&self, fd: Fd) -> Result<&File, Errno> {
        if fd < 0 {
            return Err(Errno::EBADF);
        }
        self.files.get(fd as usize).ok_or(Errno::EBADF)
    }

    /// Looks up an open descriptor mutably.
    pub fn get_mut(&mut self, fd: Fd) -> Result<&mut File, Errno> {
        if fd < 0 {
            return Err(Errno::EBADF);
        }
        self.files.get_mut(fd as usize).ok_or(Errno::EBADF)
    }

    /// Closes a descriptor, returning what it referred to.
    pub fn close(&mut self, fd: Fd) -> Result<File, Errno> {
        if fd < 0 {
            return Err(Errno::EBADF);
        }
        let slot = self.files.take(fd as usize).ok_or(Errno::EBADF)?;
        self.lowest_free = self.lowest_free.min(fd as usize);
        Ok(slot)
    }

    /// Number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.files.len()
    }

    /// The descriptor limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The base descriptor offset (0 outside the elevated-fd lane).
    pub fn first_fd(&self) -> usize {
        self.first_fd
    }

    /// Heap bytes held by the table (fd pages plus page vectors).
    pub fn mem_bytes(&self) -> usize {
        self.files.heap_bytes()
    }

    /// Iterates over `(fd, file)` pairs of open descriptors.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, &File)> {
        self.files.iter().map(|(i, f)| (i as Fd, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::ConnId;
    use simnet::Side;

    fn stream(n: u32) -> FileKind {
        FileKind::Stream(EndpointId::new(ConnId(n), Side::Server))
    }

    #[test]
    fn allocates_lowest_free_fd() {
        let mut t = FdTable::new(16);
        let a = t.alloc(stream(0)).unwrap();
        let b = t.alloc(stream(1)).unwrap();
        let c = t.alloc(stream(2)).unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        t.close(b).unwrap();
        assert_eq!(t.alloc(stream(3)).unwrap(), 1, "reuses the hole");
    }

    #[test]
    fn enforces_limit() {
        let mut t = FdTable::new(2);
        t.alloc(stream(0)).unwrap();
        t.alloc(stream(1)).unwrap();
        assert_eq!(t.alloc(stream(2)), Err(Errno::EMFILE));
        t.close(0).unwrap();
        assert!(t.alloc(stream(3)).is_ok());
    }

    #[test]
    fn bad_fd_errors() {
        let mut t = FdTable::new(4);
        assert_eq!(t.get(0).unwrap_err(), Errno::EBADF);
        assert_eq!(t.get(-1).unwrap_err(), Errno::EBADF);
        assert_eq!(t.close(7).unwrap_err(), Errno::EBADF);
        let fd = t.alloc(stream(0)).unwrap();
        t.close(fd).unwrap();
        assert_eq!(t.close(fd).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn fcntl_state_sticks() {
        let mut t = FdTable::new(4);
        let fd = t.alloc(stream(0)).unwrap();
        t.get_mut(fd).unwrap().nonblock = true;
        t.get_mut(fd).unwrap().sig = Some(40);
        let f = t.get(fd).unwrap();
        assert!(f.nonblock);
        assert_eq!(f.sig, Some(40));
    }

    #[test]
    fn elevated_first_fd_offsets_allocation() {
        let mut t = FdTable::with_first_fd(4, 100_000);
        let a = t.alloc(stream(0)).unwrap();
        let b = t.alloc(stream(1)).unwrap();
        assert_eq!((a, b), (100_000, 100_001));
        t.close(a).unwrap();
        assert_eq!(t.alloc(stream(2)).unwrap(), 100_000, "reuses the hole");
        assert_eq!(t.open_count(), 2);
        assert_eq!(t.first_fd(), 100_000);
        // Only the pages around the offset are resident.
        assert!(t.mem_bytes() < 2 * 4096 * std::mem::size_of::<Option<File>>() + 4096);
    }

    #[test]
    fn sparse_high_fds_stay_paged() {
        let mut t = FdTable::new(usize::MAX);
        // Force a sparse far-out descriptor via offsetting close/alloc:
        // emulate by building a fresh offset table instead.
        let mut far = FdTable::with_first_fd(8, 9_000_000);
        let fd = far.alloc(stream(7)).unwrap();
        assert_eq!(fd, 9_000_000);
        assert!(far.get(fd).is_ok());
        assert_eq!(far.get(0).unwrap_err(), Errno::EBADF);
        // The low table never touched high pages.
        let low = t.alloc(stream(1)).unwrap();
        assert_eq!(low, 0);
    }

    #[test]
    fn iter_lists_open_fds() {
        let mut t = FdTable::new(8);
        let a = t.alloc(stream(0)).unwrap();
        let b = t.alloc(stream(1)).unwrap();
        t.close(a).unwrap();
        let fds: Vec<Fd> = t.iter().map(|(fd, _)| fd).collect();
        assert_eq!(fds, vec![b]);
        assert_eq!(t.open_count(), 1);
    }
}
