//! Admission bounds: the compute gate and the live-thread counters.
//!
//! Every accepted connection gets its own thread, which parses, routes
//! and writes for as long as the client keeps the connection alive. An
//! idle keep-alive socket therefore costs one parked thread and nothing
//! else. What stays bounded is the computation behind those threads:
//! run leaders, `POST /v1/_fleet/chunk` and async sweep jobs each hold a
//! [`Permit`] from the one [`ComputeGate`] while they compute.
//!
//! * [`ComputeGate::try_acquire`] waits in line behind at most
//!   `capacity` others and sheds beyond that; the HTTP layer turns the
//!   refusal into `503` + `Retry-After`.
//! * [`ComputeGate::acquire`] waits as long as it takes. Sweep jobs use
//!   it: the bounded job table already admitted them.
//! * The line is FIFO and a released permit passes straight to its head,
//!   so a stream of runs cannot starve a queued job.
//!
//! [`LiveThreads`] counts connection (or job) threads under a cap and
//! lets shutdown wait until the last one has finished.

use cnt_obs::Histogram;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One caller waiting in line; its releaser sets `granted` and wakes it.
/// `granted` is only touched under the gate's lock (the lock orders it);
/// it is atomic so the waiter can be shared through an `Arc`.
#[derive(Default)]
struct Waiter {
    granted: AtomicBool,
    wake: Condvar,
}

struct GateState {
    running: usize,
    line: VecDeque<Arc<Waiter>>,
}

/// `permits` concurrent computations, at most `capacity` bounded waiters.
pub(crate) struct ComputeGate {
    state: Mutex<GateState>,
    permits: usize,
    capacity: usize,
    /// Every grant's wait, immediate ones included.
    wait_seconds: Arc<Histogram>,
}

/// The right to compute; dropping it hands the permit to the next in
/// line, or frees it.
pub(crate) struct Permit<'a>(&'a ComputeGate);

impl ComputeGate {
    pub(crate) fn new(permits: usize, capacity: usize, wait_seconds: Arc<Histogram>) -> Self {
        Self {
            state: Mutex::new(GateState {
                running: 0,
                line: VecDeque::new(),
            }),
            permits: permits.max(1),
            capacity,
            wait_seconds,
        }
    }

    /// Computations allowed at once.
    pub(crate) fn permits(&self) -> usize {
        self.permits
    }

    /// Bounded waiters admitted before [`ComputeGate::try_acquire`] sheds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Callers waiting in line for a permit (runs, chunks and jobs).
    pub(crate) fn waiting(&self) -> usize {
        self.state.lock().expect("gate poisoned").line.len()
    }

    /// A permit, after waiting behind at most `capacity` others; `None`
    /// when the line is already that long.
    pub(crate) fn try_acquire(&self) -> Option<Permit<'_>> {
        self.take(true)
    }

    /// A permit, however long the line.
    pub(crate) fn acquire(&self) -> Permit<'_> {
        self.take(false)
            .expect("an unbounded wait ends with a permit")
    }

    fn take(&self, bounded: bool) -> Option<Permit<'_>> {
        let started = Instant::now();
        let mut state = self.state.lock().expect("gate poisoned");
        if state.running < self.permits && state.line.is_empty() {
            state.running += 1;
        } else {
            if bounded && state.line.len() >= self.capacity {
                return None;
            }
            let me = Arc::new(Waiter::default());
            state.line.push_back(Arc::clone(&me));
            // The releaser hands its permit over without freeing it, so
            // `running` already counts this caller once granted.
            while !me.granted.load(Ordering::Relaxed) {
                state = me.wake.wait(state).expect("gate poisoned");
            }
        }
        drop(state);
        self.wait_seconds.record_duration(started.elapsed());
        Some(Permit(self))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Every critical section leaves the state whole, so a poisoned
        // lock is still sound to use, and a drop must not panic.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        match state.line.pop_front() {
            Some(next) => {
                next.granted.store(true, Ordering::Relaxed);
                next.wake.notify_one();
            }
            None => state.running -= 1,
        }
    }
}

/// Live threads of one kind, at most `cap` of them, and a wait for the
/// count to reach zero (the shutdown drain). The threads themselves are
/// detached: a panicking one is reported by the panic hook, and its
/// [`LiveSlot`] drops during the unwind, so the drain still ends.
pub(crate) struct LiveThreads {
    count: Mutex<usize>,
    none_left: Condvar,
    cap: usize,
}

/// One live thread's claim on a [`LiveThreads`] slot; dropped when the
/// thread ends.
pub(crate) struct LiveSlot(Arc<LiveThreads>);

impl LiveThreads {
    pub(crate) fn new(cap: usize) -> Arc<Self> {
        Arc::new(Self {
            count: Mutex::new(0),
            none_left: Condvar::new(),
            cap,
        })
    }

    /// A slot for one more thread, or `None` at the cap.
    pub(crate) fn enter(self: &Arc<Self>) -> Option<LiveSlot> {
        let mut count = self.count.lock().expect("live count poisoned");
        if *count >= self.cap {
            return None;
        }
        *count += 1;
        Some(LiveSlot(Arc::clone(self)))
    }

    /// Threads currently live.
    pub(crate) fn live(&self) -> usize {
        *self.count.lock().expect("live count poisoned")
    }

    /// Blocks until every slot has been dropped.
    pub(crate) fn wait_none_left(&self) {
        let mut count = self.count.lock().expect("live count poisoned");
        while *count > 0 {
            count = self.none_left.wait(count).expect("live count poisoned");
        }
    }
}

impl Drop for LiveSlot {
    fn drop(&mut self) {
        let mut count = self.0.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count -= 1;
        if *count == 0 {
            self.0.none_left.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn gate(permits: usize, capacity: usize) -> ComputeGate {
        ComputeGate::new(
            permits,
            capacity,
            cnt_obs::MetricRegistry::new().histogram("t_wait_seconds", "queue wait"),
        )
    }

    /// Polls until `gate` has `n` callers in line.
    fn until_waiting(gate: &ComputeGate, n: usize) {
        while gate.waiting() != n {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_full_line_sheds_bounded_callers_only() {
        let gate = gate(1, 1);
        let held = gate.try_acquire().expect("a free permit");
        std::thread::scope(|scope| {
            let queued = scope.spawn(|| drop(gate.try_acquire().expect("one waiter fits")));
            until_waiting(&gate, 1);
            assert!(gate.try_acquire().is_none(), "a second waiter must shed");
            // An unbounded caller still lines up behind the full line.
            let job = scope.spawn(|| drop(gate.acquire()));
            until_waiting(&gate, 2);
            drop(held);
            queued.join().unwrap();
            job.join().unwrap();
        });
        assert_eq!(gate.waiting(), 0);
        assert!(gate.try_acquire().is_some(), "every permit came back");
        assert_eq!(gate.wait_seconds.count(), 4, "each grant records its wait");
    }

    #[test]
    fn a_freed_permit_goes_to_the_head_of_the_line() {
        let gate = gate(1, 8);
        let held = gate.acquire();
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for i in 0..3 {
                let (gate, order) = (&gate, &order);
                scope.spawn(move || {
                    let _permit = gate.acquire();
                    order.lock().unwrap().push(i);
                });
                until_waiting(gate, i + 1);
            }
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2]);
    }

    #[test]
    fn the_connection_cap_refuses_the_extra_thread_until_one_ends() {
        let live = LiveThreads::new(2);
        let a = live.enter().expect("below the cap");
        let b = live.enter().expect("at the cap");
        assert!(live.enter().is_none(), "a third connection must be refused");
        assert_eq!(live.live(), 2);
        drop(a);
        let c = live.enter().expect("a slot freed up");
        // The shutdown drain returns only once the last slot is gone.
        let ended = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop((b, c));
        });
        live.wait_none_left();
        assert_eq!(live.live(), 0);
        ended.join().unwrap();
    }
}
