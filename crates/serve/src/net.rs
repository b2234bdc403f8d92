//! The accept timeout.
//!
//! The accept loop blocks in `accept` under a receive timeout
//! (`SO_RCVTIMEO`), so a new connection is taken the moment it arrives
//! and the loop still wakes to check for shutdown. Linux honours the
//! option on a listening socket, where a wait that runs out fails with
//! `EAGAIN`. Accepted sockets inherit it, and every connection read sets
//! its own timeout before it blocks.
//!
//! The listener itself comes from [`TcpListener::bind`], which on Unix
//! sets `SO_REUSEADDR` before binding and listens with a backlog of 128:
//! a restarted server takes its port back while the previous
//! incarnation's accepted connections sit in `TIME_WAIT`.
//!
//! `std` exposes no socket-option API, and the offline build has no
//! `libc`/`socket2`, so `setsockopt` is declared directly, following
//! the [`crate::signal`] pattern — this is the crate's second and only
//! other `unsafe` exemption, confined to socket setup before any data
//! flows. Off Linux the accept timeout is unsupported.
#![allow(unsafe_code)]

use std::net::TcpListener;
use std::time::Duration;

#[cfg(target_os = "linux")]
mod imp {
    use core::ffi::{c_long, c_void};
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    const SOL_SOCKET: i32 = 1;
    const SO_RCVTIMEO: i32 = 20;

    /// `struct timeval`, the value of `SO_RCVTIMEO`.
    #[repr(C)]
    struct Timeval {
        tv_sec: c_long,
        tv_usec: c_long,
    }

    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
    }

    pub(super) fn set_accept_timeout(
        listener: &TcpListener,
        timeout: Duration,
    ) -> std::io::Result<()> {
        let tv = Timeval {
            tv_sec: timeout.as_secs() as c_long,
            tv_usec: c_long::from(timeout.subsec_micros()),
        };
        let len = core::mem::size_of::<Timeval>() as u32;
        let value = (&tv as *const Timeval).cast();
        // SAFETY: `value` points to `tv`, a live `struct timeval` of `len`
        // bytes, for the whole call, and the fd is `listener`'s open
        // socket, which `listener` keeps owning.
        if unsafe { setsockopt(listener.as_raw_fd(), SOL_SOCKET, SO_RCVTIMEO, value, len) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub(super) fn set_accept_timeout(
        _: &std::net::TcpListener,
        _: std::time::Duration,
    ) -> std::io::Result<()> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
}

/// Makes `accept` on `listener` wait at most `timeout` (rounded down to
/// whole microseconds, at least one), then fail with
/// [`std::io::ErrorKind::WouldBlock`].
///
/// # Errors
///
/// The `setsockopt` failure, or [`std::io::ErrorKind::Unsupported`] off
/// Linux.
pub(crate) fn set_accept_timeout(listener: &TcpListener, timeout: Duration) -> std::io::Result<()> {
    // A zero SO_RCVTIMEO means "wait forever".
    imp::set_accept_timeout(listener, timeout.max(Duration::from_micros(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn bound_listener_accepts_and_exchanges_bytes() {
        // The accept timeout bounds the wait for a connection, not the
        // connection: one that arrives is taken and carries bytes both
        // ways.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let _ = set_accept_timeout(&listener, Duration::from_secs(30));
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            stream.read_exact(&mut buf).unwrap();
            buf
        });
        let (mut conn, _) = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        conn.write_all(b"pong").unwrap();
        assert_eq!(&client.join().unwrap(), b"pong");
    }

    #[test]
    fn same_port_rebinds_after_an_accepted_connection() {
        // The TIME_WAIT scenario in miniature: accept a connection, shut
        // everything down server-side, and rebind the identical port.
        // Without SO_REUSEADDR this intermittently fails with
        // EADDRINUSE; std's bind sets it, so the rebind must always
        // succeed.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            let mut buf = [0u8; 1];
            let _ = stream.read(&mut buf); // wait for server-side close
        });
        let (conn, _) = listener.accept().unwrap();
        drop(conn); // server closes first: the socket enters TIME_WAIT
        drop(listener);
        client.join().unwrap();
        let rebound =
            TcpListener::bind(addr).expect("rebinding the same port must not hit EADDRINUSE");
        assert_eq!(rebound.local_addr().unwrap(), addr);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn accept_gives_up_after_its_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        set_accept_timeout(&listener, Duration::from_millis(20)).expect("SO_RCVTIMEO");
        let started = std::time::Instant::now();
        let err = listener.accept().expect_err("no client ever connects");
        let waited = started.elapsed();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
        // It blocked rather than polled, and it woke up.
        assert!(waited >= Duration::from_millis(10), "{waited:?}");
        assert!(waited < Duration::from_secs(2), "{waited:?}");
    }
}
