//! Health-checked fleet membership: the `Up → Suspect → Down` state
//! machine and the backoff schedule behind the re-probe thread.
//!
//! PR 7's fleet rediscovered a dead owner by timing out on *every*
//! request routed to it — a single dead instance added two connect
//! timeouts to 1/N of all traffic, forever. This module gives the
//! router a cheap membership view instead:
//!
//! * every peer starts **Up**;
//! * a transport failure on a fill/proxy hop moves it to **Suspect**
//!   (still routable — one flaky hop must not eject a healthy peer);
//! * `down_after` (K) *consecutive* failures move it to **Down**, at
//!   which point the router skips the peer entirely and degrades to
//!   local compute — zero added latency on the hot path;
//! * a background prober re-checks Down peers via `GET /v1/healthz` on
//!   exponential backoff with deterministic seeded jitter, restoring
//!   them to Up on the first success. Any hot-path success also
//!   restores Up instantly.
//!
//! The state machine is time-driven only for the probe schedule; all
//! transitions take an explicit `Instant`, so tests replay scenarios
//! without sleeping. Self (`self_index`) is pinned Up — an instance
//! never declares itself dead.

use crate::ring::mix;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A peer's membership state as seen by the local router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Healthy: routable, no recent consecutive failures.
    Up,
    /// One or more recent consecutive transport failures, but fewer than
    /// K: still routable, one success away from Up.
    Suspect,
    /// K consecutive failures: skipped by routing until a background
    /// probe succeeds.
    Down,
}

impl PeerState {
    /// Lowercase wire/metric label: `"up"`, `"suspect"`, `"down"`.
    pub fn label(&self) -> &'static str {
        match self {
            PeerState::Up => "up",
            PeerState::Suspect => "suspect",
            PeerState::Down => "down",
        }
    }

    /// All states, in gauge-rendering order.
    pub const ALL: [PeerState; 3] = [PeerState::Up, PeerState::Suspect, PeerState::Down];
}

/// Tunables of the failure detector and the re-probe schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive transport failures before a peer goes Down (K).
    pub down_after: u32,
    /// Backoff before the first re-probe of a Down peer.
    pub probe_base: Duration,
    /// Ceiling on the (pre-jitter) probe backoff.
    pub probe_cap: Duration,
    /// Seed for the deterministic probe jitter.
    pub jitter_seed: u64,
}

impl Default for HealthPolicy {
    /// K = 3 failures; probes at ~250 ms doubling to a 5 s ceiling — a
    /// restarted peer is rediscovered in well under the cap, while a
    /// long-dead one costs one cheap probe per ~5 s off the hot path.
    fn default() -> Self {
        Self {
            down_after: 3,
            probe_base: Duration::from_millis(250),
            probe_cap: Duration::from_secs(5),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// A state transition the caller should surface (metrics, logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Peer index the transition happened on.
    pub peer: usize,
    /// State before.
    pub from: PeerState,
    /// State after (always different from `from`).
    pub to: PeerState,
}

#[derive(Debug, Clone)]
struct PeerRecord {
    state: PeerState,
    consecutive_failures: u32,
    /// Probe round since going Down (exponent of the backoff schedule).
    probe_round: u64,
    /// When the next background probe is due (`None` unless Down).
    next_probe_at: Option<Instant>,
}

impl PeerRecord {
    fn new() -> Self {
        Self {
            state: PeerState::Up,
            consecutive_failures: 0,
            probe_round: 0,
            next_probe_at: None,
        }
    }
}

/// Shared, thread-safe health table over a fleet's peer list.
///
/// The router calls [`record_failure`](FleetHealth::record_failure) /
/// [`record_success`](FleetHealth::record_success) from request threads;
/// the prober thread calls [`due_probes`](FleetHealth::due_probes) and
/// reports outcomes. One mutex over a small `Vec` — every operation is
/// a few comparisons, far off any contention radar.
#[derive(Debug)]
pub struct FleetHealth {
    policy: HealthPolicy,
    self_index: usize,
    peers: Mutex<Vec<PeerRecord>>,
}

impl FleetHealth {
    /// A table of `n` peers, all Up, with `self_index` pinned Up forever.
    pub fn new(n: usize, self_index: usize, policy: HealthPolicy) -> Self {
        Self {
            policy,
            self_index,
            peers: Mutex::new(vec![PeerRecord::new(); n]),
        }
    }

    /// Current state of peer `index`.
    fn state(&self, index: usize) -> PeerState {
        self.peers.lock().unwrap()[index].state
    }

    /// Whether the router may target peer `index` (everything but Down).
    pub fn is_routable(&self, index: usize) -> bool {
        self.state(index) != PeerState::Down
    }

    /// `(state, consecutive_failures)` for every peer — one lock for a
    /// whole gauge/healthz refresh.
    pub fn snapshot(&self) -> Vec<(PeerState, u32)> {
        self.peers
            .lock()
            .unwrap()
            .iter()
            .map(|p| (p.state, p.consecutive_failures))
            .collect()
    }

    /// Records a transport failure on a hot-path hop to peer `index` at
    /// `now`. Returns the transition if the state changed.
    pub fn record_failure(&self, index: usize, now: Instant) -> Option<Transition> {
        if index == self.self_index {
            return None;
        }
        let mut peers = self.peers.lock().unwrap();
        let peer = &mut peers[index];
        peer.consecutive_failures = peer.consecutive_failures.saturating_add(1);
        let from = peer.state;
        let to = if peer.consecutive_failures >= self.policy.down_after {
            PeerState::Down
        } else {
            PeerState::Suspect
        };
        if to == PeerState::Down && from != PeerState::Down {
            peer.probe_round = 0;
            peer.next_probe_at = Some(now + self.probe_delay(index, 0));
        }
        peer.state = to;
        (from != to).then_some(Transition {
            peer: index,
            from,
            to,
        })
    }

    /// Records a successful hot-path hop (any parsed HTTP response) to
    /// peer `index`. Returns the transition if the state changed.
    pub fn record_success(&self, index: usize) -> Option<Transition> {
        let mut peers = self.peers.lock().unwrap();
        let peer = &mut peers[index];
        let from = peer.state;
        peer.consecutive_failures = 0;
        peer.probe_round = 0;
        peer.next_probe_at = None;
        peer.state = PeerState::Up;
        (from != PeerState::Up).then_some(Transition {
            peer: index,
            from,
            to: PeerState::Up,
        })
    }

    /// Down peers whose next probe is due at `now` — the prober's work
    /// list. Claiming is implicit: a due peer's next probe is pushed one
    /// backoff round out, so concurrent callers never double-probe.
    pub fn due_probes(&self, now: Instant) -> Vec<usize> {
        let mut peers = self.peers.lock().unwrap();
        let mut due = Vec::new();
        for (index, peer) in peers.iter_mut().enumerate() {
            if peer.state == PeerState::Down {
                if let Some(at) = peer.next_probe_at {
                    if at <= now {
                        peer.probe_round = peer.probe_round.saturating_add(1);
                        let delay = self.probe_delay(index, peer.probe_round);
                        peer.next_probe_at = Some(now + delay);
                        due.push(index);
                    }
                }
            }
        }
        due
    }

    /// Reports a background-probe success: the peer returns to Up.
    pub fn probe_succeeded(&self, index: usize) -> Option<Transition> {
        self.record_success(index)
    }

    /// When the *earliest* pending probe is due, if any peer is Down —
    /// lets the prober sleep precisely instead of polling.
    pub fn next_probe_due(&self) -> Option<Instant> {
        self.peers
            .lock()
            .unwrap()
            .iter()
            .filter_map(|p| p.next_probe_at)
            .min()
    }

    /// The jittered backoff delay before probe `round` of peer `index`:
    /// `min(base * 2^round, cap)` scaled into `[0.5, 1.0)`.
    fn probe_delay(&self, index: usize, round: u64) -> Duration {
        let exp = round.min(20) as u32;
        let raw = self
            .policy
            .probe_base
            .saturating_mul(1u32 << exp)
            .min(self.policy.probe_cap.max(self.policy.probe_base));
        jittered(raw, self.policy.jitter_seed, index as u64, round)
    }
}

/// Scales `base` by a factor in `[0.5, 1.0)` drawn deterministically
/// from the SplitMix64-mixed `(seed, token, round)` triple, so a chaos
/// test replays the same probe schedule from its seed.
fn jittered(base: Duration, seed: u64, token: u64, round: u64) -> Duration {
    let word = mix(seed ^ token.rotate_left(17) ^ round.rotate_left(41));
    // Map the top 53 bits to [0.5, 1.0): half the nominal delay at most
    // saved, full determinism from the seed.
    let frac = 0.5 + (word >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
    base.mul_f64(frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_per_seed_and_token() {
        let base = Duration::from_millis(200);
        assert_eq!(jittered(base, 1, 2, 3), jittered(base, 1, 2, 3));
        assert_ne!(jittered(base, 1, 2, 3), jittered(base, 2, 2, 3));
        assert_ne!(jittered(base, 1, 2, 3), jittered(base, 1, 9, 3));
    }

    fn policy() -> HealthPolicy {
        HealthPolicy {
            down_after: 3,
            probe_base: Duration::from_millis(100),
            probe_cap: Duration::from_millis(800),
            jitter_seed: 42,
        }
    }

    #[test]
    fn peers_start_up_and_routable() {
        let health = FleetHealth::new(3, 0, policy());
        for i in 0..3 {
            assert_eq!(health.state(i), PeerState::Up);
            assert!(health.is_routable(i));
        }
        assert_eq!(health.due_probes(Instant::now()), Vec::<usize>::new());
    }

    #[test]
    fn k_consecutive_failures_walk_up_suspect_down() {
        let health = FleetHealth::new(2, 0, policy());
        let now = Instant::now();
        let t1 = health.record_failure(1, now).unwrap();
        assert_eq!((t1.from, t1.to), (PeerState::Up, PeerState::Suspect));
        assert!(health.is_routable(1), "Suspect is still routable");
        assert!(health.record_failure(1, now).is_none(), "Suspect→Suspect");
        let t3 = health.record_failure(1, now).unwrap();
        assert_eq!((t3.from, t3.to), (PeerState::Suspect, PeerState::Down));
        assert!(!health.is_routable(1));
        assert_eq!(health.snapshot()[1].1, 3);
    }

    #[test]
    fn one_success_resets_the_failure_streak() {
        let health = FleetHealth::new(2, 0, policy());
        let now = Instant::now();
        health.record_failure(1, now);
        health.record_failure(1, now);
        let t = health.record_success(1).unwrap();
        assert_eq!((t.from, t.to), (PeerState::Suspect, PeerState::Up));
        assert_eq!(health.snapshot()[1].1, 0);
        // The streak restarts: two more failures are still only Suspect.
        health.record_failure(1, now);
        health.record_failure(1, now);
        assert_eq!(health.state(1), PeerState::Suspect);
    }

    #[test]
    fn self_never_goes_down() {
        let health = FleetHealth::new(2, 0, policy());
        let now = Instant::now();
        for _ in 0..10 {
            assert!(health.record_failure(0, now).is_none());
        }
        assert_eq!(health.state(0), PeerState::Up);
    }

    #[test]
    fn down_peers_probe_on_exponential_backoff() {
        let health = FleetHealth::new(2, 0, policy());
        let start = Instant::now();
        for _ in 0..3 {
            health.record_failure(1, start);
        }
        // First probe is due within [base/2, base) of going Down, never
        // immediately.
        assert!(health.due_probes(start).is_empty());
        assert!(health
            .due_probes(start + Duration::from_millis(49))
            .is_empty());
        let first_due = health.next_probe_due().unwrap();
        assert!(first_due > start && first_due < start + Duration::from_millis(100));
        assert_eq!(health.due_probes(start + Duration::from_millis(100)), [1]);
        // Claiming the probe reschedules it one (doubled) round out; the
        // same instant yields nothing twice.
        assert!(health
            .due_probes(start + Duration::from_millis(100))
            .is_empty());
        let second_due = health.next_probe_due().unwrap();
        let gap = second_due - (start + Duration::from_millis(100));
        assert!(
            gap >= Duration::from_millis(100) && gap < Duration::from_millis(200),
            "second probe gap {gap:?} outside [100, 200) ms"
        );
    }

    #[test]
    fn probe_backoff_caps() {
        let health = FleetHealth::new(2, 0, policy());
        let mut now = Instant::now();
        for _ in 0..3 {
            health.record_failure(1, now);
        }
        // Drain many rounds; every gap stays under the (pre-jitter) cap.
        for _ in 0..12 {
            let due = health.next_probe_due().unwrap();
            now = due;
            assert_eq!(health.due_probes(now), [1]);
            let next = health.next_probe_due().unwrap();
            assert!(next - now <= Duration::from_millis(800));
        }
    }

    #[test]
    fn probe_success_restores_up_and_stops_probing() {
        let health = FleetHealth::new(2, 0, policy());
        let now = Instant::now();
        for _ in 0..3 {
            health.record_failure(1, now);
        }
        let t = health.probe_succeeded(1).unwrap();
        assert_eq!((t.from, t.to), (PeerState::Down, PeerState::Up));
        assert!(health.is_routable(1));
        assert_eq!(health.next_probe_due(), None);
        assert!(health.due_probes(now + Duration::from_secs(60)).is_empty());
    }

    #[test]
    fn snapshot_reports_all_peers() {
        let health = FleetHealth::new(3, 0, policy());
        let now = Instant::now();
        health.record_failure(2, now);
        let snap = health.snapshot();
        assert_eq!(snap[0], (PeerState::Up, 0));
        assert_eq!(snap[1], (PeerState::Up, 0));
        assert_eq!(snap[2], (PeerState::Suspect, 1));
    }

    #[test]
    fn probe_schedule_is_deterministic_per_seed() {
        let schedule = |seed: u64| {
            let health = FleetHealth::new(
                2,
                0,
                HealthPolicy {
                    jitter_seed: seed,
                    ..policy()
                },
            );
            let start = Instant::now();
            for _ in 0..3 {
                health.record_failure(1, start);
            }
            health.next_probe_due().unwrap() - start
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }
}
