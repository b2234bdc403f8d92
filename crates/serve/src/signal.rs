//! Process-signal plumbing for graceful shutdown.
//!
//! The `repro serve` front end installs handlers for `SIGINT` (ctrl-c)
//! and `SIGTERM`; the handlers only flip a process-wide atomic, which the
//! accept loop checks whenever an `accept` wait (at most 20 ms) ends (see
//! [`Config::watch_signals`](crate::Config::watch_signals)). No runtime
//! dependency is available offline, so the two libc calls are declared
//! directly — this module is the crate's single `unsafe` exemption, and
//! the handler body is async-signal-safe (one atomic store).
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has arrived since [`install`].
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::Relaxed)
}

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::TRIGGERED.store(true, Ordering::Relaxed);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the `SIGINT`/`SIGTERM` handlers (no-op off Unix). Idempotent.
pub fn install() {
    imp::install();
}
