//! Readiness primitives for the wire loop, hand-rolled over raw POSIX
//! syscalls (the workspace builds offline with no registry access, so
//! there is no `libc`/`mio` to lean on — see `vendor/README.md`).
//!
//! Three things live here:
//!
//! - [`poll_fds`]: a thin, EINTR-retrying wrapper over `poll(2)`,
//! - [`connect_nonblocking`] / [`take_socket_error`]: the classic
//!   nonblocking-connect dance (`socket` → `connect` → `EINPROGRESS` →
//!   wait for `POLLOUT` → read `SO_ERROR`),
//! - [`Waker`] / [`WakeRx`]: a self-pipe (a nonblocking `UnixStream`
//!   pair) that user threads poke to pull the loop out of `poll(2)`,
//!   with an armed flag so a saturating producer pays one `write(2)`
//!   per loop wakeup rather than one per message.
//!
//! The numeric constants are Linux values; the crate's readiness loop is
//! Linux-only in the same way the CI and deployment targets are.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `poll(2)` readiness bits.
pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;
pub(crate) const POLLERR: i16 = 0x008;
pub(crate) const POLLHUP: i16 = 0x010;

const AF_INET: i32 = 2;
const AF_INET6: i32 = 10;
const SOCK_STREAM: i32 = 1;
const SOL_SOCKET: i32 = 1;
const SO_ERROR: i32 = 4;
const EINPROGRESS: i32 = 115;

/// `struct pollfd` (identical layout on every Linux ABI).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// Readable, or in an error/hangup state that a read will surface.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP) != 0
    }

    /// Writable, or in an error/hangup state that a write will surface.
    pub(crate) fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, val: *mut u8, len: *mut u32) -> i32;
}

/// Blocks until some fd in `fds` is ready or `timeout_ms` elapses
/// (`-1` = forever). Retries `EINTR` internally.
///
/// # Errors
///
/// Propagates any `poll(2)` failure other than `EINTR`.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Result of initiating a nonblocking dial.
pub(crate) enum ConnectProgress {
    /// Connected synchronously (possible on loopback).
    Connected(TcpStream),
    /// `EINPROGRESS`: poll the socket for `POLLOUT`, then check
    /// [`take_socket_error`] to learn the outcome.
    InProgress(TcpStream),
}

/// Encodes `addr` as a `sockaddr_in`/`sockaddr_in6` byte image.
fn sockaddr_bytes(addr: &SocketAddr) -> (i32, [u8; 28], u32) {
    let mut b = [0u8; 28];
    match addr {
        SocketAddr::V4(a) => {
            b[..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
            b[2..4].copy_from_slice(&a.port().to_be_bytes());
            b[4..8].copy_from_slice(&a.ip().octets());
            (AF_INET, b, 16)
        }
        SocketAddr::V6(a) => {
            b[..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
            b[2..4].copy_from_slice(&a.port().to_be_bytes());
            b[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
            b[8..24].copy_from_slice(&a.ip().octets());
            b[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (AF_INET6, b, 28)
        }
    }
}

/// Starts a nonblocking TCP dial to `addr`. Never blocks: the returned
/// stream is already in nonblocking mode.
///
/// # Errors
///
/// Fails if the socket cannot be created or the dial is rejected
/// synchronously (anything but `EINPROGRESS`).
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<ConnectProgress> {
    let (family, raw, len) = sockaddr_bytes(addr);
    let fd = unsafe { socket(family, SOCK_STREAM, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // Wrap immediately: every error path below closes the fd via Drop.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    stream.set_nonblocking(true)?;
    let rc = unsafe { connect(fd, raw.as_ptr(), len) };
    if rc == 0 {
        return Ok(ConnectProgress::Connected(stream));
    }
    let err = io::Error::last_os_error();
    if err.raw_os_error() == Some(EINPROGRESS) {
        Ok(ConnectProgress::InProgress(stream))
    } else {
        Err(err)
    }
}

/// Reads and clears the socket's pending error (`SO_ERROR`) — the
/// completion status of a nonblocking connect once `POLLOUT` fires.
///
/// # Errors
///
/// Returns the pending socket error, if any.
pub(crate) fn take_socket_error(stream: &TcpStream) -> io::Result<()> {
    let mut err: i32 = 0;
    let mut len: u32 = std::mem::size_of::<i32>() as u32;
    let rc = unsafe {
        getsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_ERROR,
            std::ptr::addr_of_mut!(err).cast::<u8>(),
            &mut len,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    if err != 0 {
        return Err(io::Error::from_raw_os_error(err));
    }
    Ok(())
}

/// The write half of the loop's self-pipe, shared by every user thread
/// that sends ([`crate::Transport::queue`] and [`crate::Transport::flush`])
/// plus the teardown path.
#[derive(Clone)]
pub(crate) struct Waker {
    inner: Arc<WakerInner>,
}

struct WakerInner {
    tx: UnixStream,
    /// True while a wake byte is already in flight: consecutive wakes
    /// between two loop iterations collapse into one `write(2)`.
    armed: AtomicBool,
}

/// The read half, owned by the wire loop.
pub(crate) struct WakeRx {
    rx: UnixStream,
    inner: Arc<WakerInner>,
}

/// Builds a connected waker pair.
///
/// # Errors
///
/// Fails if the socket pair cannot be created.
pub(crate) fn waker() -> io::Result<(Waker, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let inner = Arc::new(WakerInner { tx, armed: AtomicBool::new(false) });
    Ok((Waker { inner: Arc::clone(&inner) }, WakeRx { rx, inner }))
}

impl Waker {
    /// Pokes the loop. Cheap when a poke is already pending (one atomic
    /// swap, no syscall). A full pipe is fine too: the loop is about to
    /// wake anyway.
    pub(crate) fn wake(&self) {
        if !self.inner.armed.swap(true, Ordering::SeqCst) {
            let _ = (&self.inner.tx).write(&[1u8]);
        }
    }
}

impl WakeRx {
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Disarms and drains the pipe. Called once per loop iteration
    /// *before* the command queue is drained, so a producer that found
    /// the flag armed is guaranteed its command is seen by the drain
    /// that follows this call.
    pub(crate) fn drain(&mut self) {
        self.inner.armed.store(false, Ordering::SeqCst);
        let mut buf = [0u8; 64];
        while matches!(self.rx.read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn nonblocking_connect_completes_against_live_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stream = match connect_nonblocking(&addr).expect("dial") {
            ConnectProgress::Connected(s) => s,
            ConnectProgress::InProgress(s) => {
                let mut fds = [PollFd::new(s.as_raw_fd(), POLLOUT)];
                poll_fds(&mut fds, 2_000).expect("poll");
                assert!(fds[0].writable(), "connect never completed");
                take_socket_error(&s).expect("SO_ERROR clean");
                s
            }
        };
        assert_eq!(stream.peer_addr().expect("peer").port(), addr.port());
        let (accepted, _) = listener.accept().expect("accept");
        assert_eq!(accepted.peer_addr().expect("peer"), stream.local_addr().expect("local"));
    }

    #[test]
    fn refused_dial_surfaces_an_error() {
        // Reserve a port, then close it so nothing listens there.
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        drop(l);
        match connect_nonblocking(&addr) {
            Err(_) => {} // synchronous refusal
            Ok(ConnectProgress::Connected(_)) => panic!("connected to a closed port"),
            Ok(ConnectProgress::InProgress(s)) => {
                let mut fds = [PollFd::new(s.as_raw_fd(), POLLOUT)];
                poll_fds(&mut fds, 2_000).expect("poll");
                assert!(take_socket_error(&s).is_err(), "SO_ERROR should report the refusal");
            }
        }
    }

    #[test]
    fn waker_wakes_poll_and_drain_rearms() {
        let (wake, mut rx) = waker().expect("waker");
        wake.wake();
        wake.wake(); // second poke collapses into the first
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        poll_fds(&mut fds, 2_000).expect("poll");
        assert!(fds[0].readable(), "wake byte never arrived");
        rx.drain();
        // Drained: an immediate poll must time out…
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        poll_fds(&mut fds, 0).expect("poll");
        assert!(!fds[0].readable(), "pipe not drained");
        // …and the next wake must land again.
        wake.wake();
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        poll_fds(&mut fds, 2_000).expect("poll");
        assert!(fds[0].readable(), "waker failed to re-arm");
    }
}
