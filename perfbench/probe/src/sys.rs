//! `wait4`, the one libc call std does not expose: it reaps a child and
//! returns that child's own resource usage, including its peak RSS.
//!
//! The peak is the child's, not the benchmark's: the kernel keeps the
//! high-water mark per process, so the reading is the larger of this
//! small helper's footprint at spawn time and the spawned program's own.

use std::ffi::{c_int, c_long};
use std::io;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// Linux `struct rusage`: two `timeval`s, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
}

/// What [`reap`] learns about a finished child.
pub struct Exit {
    /// Raw wait status; `0` is a clean `exit(0)`.
    pub status: i32,
    /// Peak resident set size of the child, in KiB.
    pub maxrss_kb: c_long,
    /// User plus system CPU time of the child, in seconds.
    pub cpu_s: f64,
}

/// Waits for child `pid` to end and returns its status and usage.
///
/// # Errors
///
/// Returns the OS error when `pid` is not a child of this process.
pub fn reap(pid: u32) -> io::Result<Exit> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // locals for the duration of the call, and `Rusage` is laid out
        // as the kernel's `struct rusage` (two timevals of two longs,
        // then fourteen longs), so wait4 writes only inside them.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Exit {
        status,
        maxrss_kb: usage.maxrss_kb,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
    })
}
