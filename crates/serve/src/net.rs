//! Listener construction with `SO_REUSEADDR`, and the accept timeout.
//!
//! A SIGKILL'd server leaves its accepted connections in server-side
//! `TIME_WAIT`, and a plain `TcpListener::bind` on the same port then
//! fails with `EADDRINUSE` for up to a minute — exactly the window the
//! fleet prober is trying to heal through. Setting `SO_REUSEADDR`
//! before `bind` (what every production server does) lets the restarted
//! instance take its old port back immediately.
//!
//! The accept loop blocks in `accept` under a receive timeout
//! (`SO_RCVTIMEO`), so a new connection is taken the moment it arrives
//! and the loop still wakes to check for shutdown. Linux honours the
//! option on a listening socket, where a wait that runs out fails with
//! `EAGAIN`. Accepted sockets inherit it, and every connection read sets
//! its own timeout before it blocks.
//!
//! `std` exposes no socket-option API, and the offline build has no
//! `libc`/`socket2`, so the calls are declared directly, following
//! the [`crate::signal`] pattern — this is the crate's second and only
//! other `unsafe` exemption, confined to socket setup before any data
//! flows. Non-IPv4 addresses (and non-Linux targets) fall back to the
//! std bind without `SO_REUSEADDR`; off Linux the accept timeout is
//! unsupported.
#![allow(unsafe_code)]

use std::net::TcpListener;
use std::time::Duration;

#[cfg(target_os = "linux")]
mod imp {
    use core::ffi::{c_long, c_void};
    use std::net::{SocketAddrV4, TcpListener};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::time::Duration;

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_RCVTIMEO: i32 = 20;
    const BACKLOG: i32 = 128;

    /// `struct sockaddr_in` (Linux layout; ports and addresses are
    /// big-endian on the wire).
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    /// `struct timeval`, the value of `SO_RCVTIMEO`.
    #[repr(C)]
    struct Timeval {
        tv_sec: c_long,
        tv_usec: c_long,
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub(super) fn bind_reuseaddr(addr: SocketAddrV4) -> std::io::Result<TcpListener> {
        // SAFETY: every pointer passed points to a live local of the
        // length passed with it; `fd` is closed on each error path and
        // otherwise handed to `TcpListener`, which owns it from then on.
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM, 0);
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            let fail = |fd: i32| {
                let e = std::io::Error::last_os_error();
                close(fd);
                Err(e)
            };
            let one: i32 = 1;
            let one_len = core::mem::size_of::<i32>() as u32;
            let value = (&one as *const i32).cast();
            if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, value, one_len) != 0 {
                return fail(fd);
            }
            let sockaddr = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: addr.port().to_be(),
                sin_addr: u32::from(*addr.ip()).to_be(),
                sin_zero: [0; 8],
            };
            let len = core::mem::size_of::<SockaddrIn>() as u32;
            if bind(fd, &sockaddr, len) != 0 {
                return fail(fd);
            }
            if listen(fd, BACKLOG) != 0 {
                return fail(fd);
            }
            // The fd is a bound, listening TCP socket — exactly the
            // state `TcpListener` expects to own.
            Ok(TcpListener::from_raw_fd(fd))
        }
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

/// Binds a listener like [`TcpListener::bind`], additionally setting
/// `SO_REUSEADDR` so a restarted server can rebind its port while the
/// previous incarnation's connections sit in `TIME_WAIT`.
///
/// # Errors
///
/// Any socket/bind/listen failure, as [`std::io::Error`] — the same
/// errors (`EADDRINUSE`, `EACCES`, …) the std bind surfaces.
pub fn bind_listener(addr: &str) -> std::io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    if let Ok(v4) = addr.parse::<std::net::SocketAddrV4>() {
        return imp::bind_reuseaddr(v4);
    }
    TcpListener::bind(addr)
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
        let listener = bind_listener("127.0.0.1:0").expect("bind ephemeral");
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
        // EADDRINUSE; with it the rebind must always succeed.
        let listener = bind_listener("127.0.0.1:0").expect("bind ephemeral");
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
        let rebound = bind_listener(&addr.to_string())
            .expect("rebinding the same port must not hit EADDRINUSE");
        assert_eq!(rebound.local_addr().unwrap(), addr);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn accept_gives_up_after_its_timeout() {
        let listener = bind_listener("127.0.0.1:0").expect("bind ephemeral");
        set_accept_timeout(&listener, Duration::from_millis(20)).expect("SO_RCVTIMEO");
        let started = std::time::Instant::now();
        let err = listener.accept().expect_err("no client ever connects");
        let waited = started.elapsed();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
        // It blocked rather than polled, and it woke up.
        assert!(waited >= Duration::from_millis(10), "{waited:?}");
        assert!(waited < Duration::from_secs(2), "{waited:?}");
    }

    #[test]
    fn unparsable_addresses_error_like_std_bind() {
        assert!(bind_listener("not-an-address").is_err());
        assert!(bind_listener("256.0.0.1:80").is_err());
    }
}
