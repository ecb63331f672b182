//! A minimal `poll(2)` readiness substrate: enough of an event loop
//! toolkit to multiplex thousands of non-blocking sockets on one
//! thread, with no dependencies beyond `std`.
//!
//! The daemon used to spend a thread per connection; idle connections
//! cost stacks, and a burst of clients cost a burst of threads. The
//! server's front end now parks **one** thread in [`wait`] over every
//! connection's fd, so an idle connection costs its buffers and a
//! `pollfd` entry — bytes, not threads.
//!
//! `std` exposes no readiness API, so this module declares the one
//! C function it needs. `poll(2)` is in POSIX and `std` already links
//! the platform's libc on every unix target; the raw declaration keeps
//! the crate offline-safe (no `libc`/`mio` dependency). The cost is
//! the classic O(n) fd scan per wakeup — for the daemon's scale
//! (hundreds to a few thousand sockets, validated by the
//! idle-connection CI kernel) that scan is microseconds, far below one
//! solver slice.
//!
//! Cross-thread wakeups use the self-pipe idiom (`waker`): scheduler
//! workers finish responses on their own threads, push the bytes into a
//! connection outbox, and write one byte into a [`UnixStream`] pair to
//! pop the event loop out of [`wait`].
//!
//! [`UnixStream`]: std::os::unix::net::UnixStream

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::UnixStream;

/// `POLLIN`: readable (or a peer hangup, which reads as EOF).
pub const POLLIN: i16 = 0x001;
/// `POLLOUT`: writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// `POLLERR`: error condition (always polled, never requested).
pub(crate) const POLLERR: i16 = 0x008;
/// `POLLHUP`: peer hung up (always polled, never requested).
pub(crate) const POLLHUP: i16 = 0x010;
/// `POLLNVAL`: fd not open (always polled, never requested).
pub(crate) const POLLNVAL: i16 = 0x020;

/// One entry of the poll set — ABI-identical to `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` | `POLLOUT`).
    pub events: i16,
    /// Returned events, filled by [`wait`].
    pub revents: i16,
}

impl PollFd {
    /// A poll entry asking for `events` on `fd`.
    #[must_use]
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the fd warrants a read attempt: readable data, a hangup
    /// (which reads as EOF), or an error (which reads as `Err`) — all
    /// three resolve through the same non-blocking `read` call.
    #[must_use]
    pub fn wants_read(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until at least one entry has a ready event, or `timeout_ms`
/// elapses (`-1` waits forever). Returns the ready count; `revents` is
/// cleared and refilled on every entry. `EINTR` reports as `Ok(0)` — a
/// spurious-wakeup-tolerant loop is the only sane caller shape anyway.
///
/// # Errors
///
/// Any `poll(2)` failure other than `EINTR` (e.g. `ENOMEM`).
pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(usize::try_from(rc).unwrap_or(0))
}

/// The writing half of a self-pipe: any thread holding one can pop the
/// event loop out of [`wait`].
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Queues a wakeup. Never blocks: the pipe is non-blocking, and a
    /// full pipe means wakeups are already pending — losing the extra
    /// byte is harmless because the receiver drains level-triggered.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// The reading half of a self-pipe: polled by the event loop alongside
/// the sockets.
#[derive(Debug)]
pub(crate) struct WakeReceiver {
    rx: UnixStream,
}

impl WakeReceiver {
    /// The fd to include in the poll set (ask for [`POLLIN`]).
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Swallows every pending wakeup byte so the next [`wait`] blocks.
    pub fn drain(&self) {
        let mut buf = [0u8; 256];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// A connected waker pair (the self-pipe), both ends non-blocking.
///
/// # Errors
///
/// Propagates socketpair/fcntl failures.
pub(crate) fn waker() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_reports_readability_and_timeouts() {
        let (waker, rx) = waker().unwrap();
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        // Nothing pending: a zero timeout returns immediately with no
        // ready fds.
        assert_eq!(wait(&mut fds, 0).unwrap(), 0);
        assert!(!fds[0].wants_read());
        waker.wake();
        assert_eq!(wait(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].wants_read());
        // Draining resets the level-triggered readiness.
        rx.drain();
        assert_eq!(wait(&mut fds, 0).unwrap(), 0);
    }

    #[test]
    fn waker_tolerates_a_full_pipe() {
        let (waker, rx) = waker().unwrap();
        // Flood far past any socketpair buffer; wake() must never block
        // or panic.
        for _ in 0..300_000 {
            waker.wake();
        }
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        assert_eq!(wait(&mut fds, 0).unwrap(), 1);
        rx.drain();
        assert_eq!(wait(&mut fds, 0).unwrap(), 0);
    }
}
