//! Per-chunk state for a fanned-out sweep: the coordinator's scoreboard.
//!
//! A distributed sweep splits its job range into contiguous chunks
//! (`cnt_sweep::chunk_ranges`) and drives each through
//! `Pending → Dispatched → Done` on this board. The board is the *only*
//! synchronization between the coordinator's dispatcher threads (one per
//! healthy peer plus the local executor): each claims work with
//! [`ChunkBoard::claim`], reports success with [`ChunkBoard::complete`],
//! and hands failed chunks back with [`ChunkBoard::requeue`].
//!
//! Re-dispatch falls out of two rules:
//!
//! * a transport failure (or a peer marked Down by `FleetHealth`)
//!   requeues the chunk with a retry delay, so another dispatcher picks
//!   it up;
//! * a chunk `Dispatched` longer than the deadline becomes claimable
//!   again (**work stealing**) — a worker that took the chunk and then
//!   died silently never wedges the job. Stealing can race the original
//!   worker finishing late; [`ChunkBoard::complete`] is idempotent and
//!   chunk results are deterministic, so the race is harmless.

use std::ops::Range;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One claimed chunk: its index on the board plus the job range to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkClaim {
    /// Board index (stable across requeues; journal records use it).
    pub index: usize,
    /// Global job range `lo..hi` of the sweep plan.
    pub range: Range<usize>,
    /// How many times this chunk has been claimed before (0 on the first
    /// attempt) — drives retry-delay escalation.
    pub attempt: u32,
}

#[derive(Debug, Clone)]
enum ChunkState {
    /// Nobody owns the chunk; claimable once `not_before` passes.
    Pending { not_before: Instant },
    /// A dispatcher owns it; stealable after the deadline.
    Dispatched { since: Instant },
    /// Finished (result recorded by the coordinator).
    Done,
}

#[derive(Debug, Clone)]
struct Slot {
    range: Range<usize>,
    state: ChunkState,
    attempts: u32,
}

/// The scoreboard: chunk ranges plus their dispatch states.
#[derive(Debug)]
pub struct ChunkBoard {
    slots: Mutex<Vec<Slot>>,
}

impl ChunkBoard {
    /// A board over `ranges`, every chunk immediately claimable.
    pub fn new(ranges: &[Range<usize>]) -> Self {
        let now = Instant::now();
        Self {
            slots: Mutex::new(
                ranges
                    .iter()
                    .map(|range| Slot {
                        range: range.clone(),
                        state: ChunkState::Pending { not_before: now },
                        attempts: 0,
                    })
                    .collect(),
            ),
        }
    }

    /// Claims the next runnable chunk: the lowest-indexed ready `Pending`
    /// first, else the lowest-indexed `Dispatched` whose owner has held it
    /// past `deadline` (stealing it). `None` means nothing is claimable
    /// right now — the caller backs off briefly and retries unless
    /// [`ChunkBoard::all_done`].
    pub fn claim(&self, now: Instant, deadline: Duration) -> Option<ChunkClaim> {
        let mut slots = self.slots.lock().expect("board poisoned");
        let pick = |slot: &Slot| match slot.state {
            ChunkState::Pending { not_before } => not_before <= now,
            ChunkState::Dispatched { .. } | ChunkState::Done => false,
        };
        let steal = |slot: &Slot| match slot.state {
            ChunkState::Dispatched { since } => now.duration_since(since) >= deadline,
            ChunkState::Pending { .. } | ChunkState::Done => false,
        };
        let index = slots
            .iter()
            .position(pick)
            .or_else(|| slots.iter().position(steal))?;
        let slot = &mut slots[index];
        let attempt = slot.attempts;
        slot.attempts += 1;
        slot.state = ChunkState::Dispatched { since: now };
        Some(ChunkClaim {
            index,
            range: slot.range.clone(),
            attempt,
        })
    }

    /// Marks a chunk finished. Idempotent: returns `false` when it was
    /// already `Done` (a stolen chunk's original owner reporting late).
    pub fn complete(&self, index: usize) -> bool {
        let mut slots = self.slots.lock().expect("board poisoned");
        let slot = &mut slots[index];
        if matches!(slot.state, ChunkState::Done) {
            return false;
        }
        slot.state = ChunkState::Done;
        true
    }

    /// Hands a failed chunk back, claimable again after `delay`. No-op if
    /// someone completed it in the meantime (stealing race).
    pub fn requeue(&self, index: usize, now: Instant, delay: Duration) {
        let mut slots = self.slots.lock().expect("board poisoned");
        let slot = &mut slots[index];
        if matches!(slot.state, ChunkState::Done) {
            return;
        }
        slot.state = ChunkState::Pending {
            not_before: now + delay,
        };
    }

    /// Whether every chunk is `Done`.
    pub fn all_done(&self) -> bool {
        self.slots
            .lock()
            .expect("board poisoned")
            .iter()
            .all(|s| matches!(s.state, ChunkState::Done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEADLINE: Duration = Duration::from_secs(30);

    fn board3() -> ChunkBoard {
        ChunkBoard::new(&[0..10, 10..20, 20..25])
    }

    /// How many chunks are `Done`.
    fn done(board: &ChunkBoard) -> usize {
        let slots = board.slots.lock().unwrap();
        slots
            .iter()
            .filter(|s| matches!(s.state, ChunkState::Done))
            .count()
    }

    /// Total claim attempts across all chunks (the excess over the chunk
    /// count once every chunk has run counts re-dispatches).
    fn attempts(board: &ChunkBoard) -> u64 {
        let slots = board.slots.lock().unwrap();
        slots.iter().map(|s| u64::from(s.attempts)).sum()
    }

    #[test]
    fn claims_cover_every_chunk_once_in_index_order() {
        let board = board3();
        assert_eq!(board.slots.lock().unwrap().len(), 3);
        let now = Instant::now();
        let a = board.claim(now, DEADLINE).unwrap();
        let b = board.claim(now, DEADLINE).unwrap();
        let c = board.claim(now, DEADLINE).unwrap();
        assert_eq!((a.index, a.range.clone(), a.attempt), (0, 0..10, 0));
        assert_eq!((b.index, b.range.clone()), (1, 10..20));
        assert_eq!((c.index, c.range.clone()), (2, 20..25));
        // Everything dispatched and inside its deadline: nothing claimable.
        assert!(board.claim(now, DEADLINE).is_none());
        assert!(!board.all_done());
        for claim in [a, b, c] {
            assert!(board.complete(claim.index));
        }
        assert!(board.all_done());
        assert_eq!(done(&board), 3);
        assert_eq!(attempts(&board), 3);
    }

    #[test]
    fn overdue_chunks_are_stolen_and_late_completion_is_idempotent() {
        let board = board3();
        let t0 = Instant::now();
        let original = board.claim(t0, DEADLINE).unwrap();
        board.claim(t0, DEADLINE).unwrap();
        board.claim(t0, DEADLINE).unwrap();
        // Past the deadline, the first dispatched chunk is claimable again.
        let late = t0 + DEADLINE;
        let stolen = board.claim(late, DEADLINE).unwrap();
        assert_eq!(stolen.index, original.index);
        assert_eq!(stolen.attempt, 1, "second attempt at the same chunk");
        // The thief completes it; the original owner's late report is a
        // no-op.
        assert!(board.complete(stolen.index));
        assert!(!board.complete(original.index), "already done");
        assert_eq!(done(&board), 1);
    }

    #[test]
    fn requeued_chunks_respect_their_delay() {
        let ranges = [std::ops::Range { start: 0, end: 5 }];
        let board = ChunkBoard::new(&ranges);
        let t0 = Instant::now();
        let claim = board.claim(t0, DEADLINE).unwrap();
        board.requeue(claim.index, t0, Duration::from_secs(2));
        // Not claimable before the delay passes…
        assert!(board.claim(t0 + Duration::from_secs(1), DEADLINE).is_none());
        // …claimable after, counting the attempt.
        let again = board.claim(t0 + Duration::from_secs(2), DEADLINE).unwrap();
        assert_eq!(again.index, 0);
        assert_eq!(again.attempt, 1);
        // Requeue after completion is a no-op.
        board.complete(0);
        board.requeue(0, t0, Duration::ZERO);
        assert!(board.all_done());
    }

    #[test]
    fn pre_completed_chunks_are_never_claimed() {
        // Journal replay marks chunks done before any dispatcher starts.
        let board = board3();
        assert!(board.complete(1));
        let now = Instant::now();
        let a = board.claim(now, DEADLINE).unwrap();
        let b = board.claim(now, DEADLINE).unwrap();
        assert_eq!((a.index, b.index), (0, 2));
        assert!(board.claim(now, DEADLINE).is_none());
        assert_eq!(done(&board), 1);
        let empty = ChunkBoard::new(&[]);
        assert!(empty.slots.lock().unwrap().is_empty());
        assert!(empty.all_done(), "an empty board is vacuously done");
    }
}
