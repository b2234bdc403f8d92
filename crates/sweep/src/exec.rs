//! The work-queue thread-pool executor.

use crate::plan::{Job, SweepPlan};
use crate::seed::job_rng;
use crate::{Error, Result};
use cnt_obs::Counter;
use core::fmt;
use core::ops::Range;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Splits `0..n_jobs` into at most `chunks` contiguous, non-empty,
/// balanced ranges (the first `n_jobs % chunks` get one extra job).
/// Deterministic in its inputs, so every fleet instance — and a
/// coordinator replaying its journal after a crash — derives the same
/// chunk table from the same plan.
pub fn chunk_ranges(n_jobs: usize, chunks: usize) -> Vec<Range<usize>> {
    if n_jobs == 0 || chunks == 0 {
        return Vec::new();
    }
    let chunks = chunks.min(n_jobs);
    let base = n_jobs / chunks;
    let extra = n_jobs % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut lo = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push(lo..lo + len);
        lo += len;
    }
    out
}

/// Jobs executed, across every plan this process ran. The matching
/// per-job duration histogram is `cnt_span_sweep_job_seconds`, fed by
/// the `sweep.job` span below.
fn jobs_counter() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        cnt_obs::global().counter(
            "cnt_sweep_jobs_total",
            "sweep jobs executed by the Executor",
        )
    })
}

/// Runs a plan's jobs on a pool of worker threads.
///
/// Workers pull job indices from a shared atomic counter (self-balancing:
/// a slow job never blocks the jobs behind it). Each job computes on its
/// own [`StdRng`] stream derived from the root seed and the job index, and
/// results are returned **in job order** — so for a given seed, output is
/// bit-identical whether the sweep ran on one thread or sixteen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with the given worker count; `0` means "use all
    /// available cores".
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        Self { threads }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job of `plan`, returning results indexed by job.
    ///
    /// `work` receives each job plus that job's private generator, and may
    /// fail with any displayable error. It must be deterministic given its
    /// two inputs for the executor's reproducibility guarantee to hold
    /// (don't read ambient state, don't share generators).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyPlan`] for a job-less plan. If jobs fail, all
    /// jobs still run to completion and the error of the
    /// **lowest-indexed** failing job is returned, so error reporting is
    /// as schedule-independent as success output.
    pub fn run<R, E, F>(&self, plan: &SweepPlan, root_seed: u64, work: F) -> Result<Vec<R>>
    where
        R: Send,
        E: fmt::Display + Send,
        F: Fn(&Job, &mut StdRng) -> core::result::Result<R, E> + Sync,
    {
        self.run_range(plan, root_seed, 0..plan.len(), work)
    }

    /// Runs the contiguous job slice `range` of `plan`, returning results
    /// indexed by position within the range.
    ///
    /// Each job's generator is still seeded by its **global** index, so
    /// `run_range(p, s, lo..hi, w)` produces exactly the slice
    /// `run(p, s, w)[lo..hi]` — chunk boundaries are seam-free, and a
    /// sweep fanned out across a fleet in ranges merges back
    /// byte-identical to the single-instance run.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyPlan`] for a job-less plan, [`Error::InvalidParameter`]
    /// for an empty or out-of-bounds range; job failures report the
    /// lowest **global** failing index like [`Executor::run`].
    pub fn run_range<R, E, F>(
        &self,
        plan: &SweepPlan,
        root_seed: u64,
        range: Range<usize>,
        work: F,
    ) -> Result<Vec<R>>
    where
        R: Send,
        E: fmt::Display + Send,
        F: Fn(&Job, &mut StdRng) -> core::result::Result<R, E> + Sync,
    {
        let total = plan.len();
        if total == 0 {
            return Err(Error::EmptyPlan);
        }
        if range.start >= range.end || range.end > total {
            return Err(Error::InvalidParameter {
                name: "job_range",
                value: range.end as f64,
            });
        }
        let (lo, hi) = (range.start, range.end);
        let n = hi - lo;
        let fingerprint = plan.fingerprint();

        // Serial fast path: no pool, no synchronization. (Unlike the
        // pooled path this one stops at the first failure, but that
        // failure is already the lowest-indexed one by construction.)
        if self.threads == 1 || n == 1 {
            let mut out = Vec::with_capacity(n);
            for index in lo..hi {
                let job = plan.job(index);
                let mut rng = job_rng(root_seed, fingerprint, index);
                jobs_counter().inc();
                let result = {
                    let _job_span = cnt_obs::span!("sweep.job");
                    work(&job, &mut rng)
                };
                out.push(result.map_err(|e| Error::Job {
                    index,
                    message: e.to_string(),
                })?);
            }
            return Ok(out);
        }

        let next = AtomicUsize::new(lo);
        let slots: Vec<Mutex<Option<core::result::Result<R, E>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // When the calling thread is tracing, each worker captures its
        // own span trees per job; after the pool drains they merge back
        // into the caller's trace **in job-index order**, so the merged
        // forest is schedule-independent like the results themselves.
        let tracing = cnt_obs::Trace::is_active();
        let trace_slots: Vec<Mutex<Vec<cnt_obs::SpanNode>>> = if tracing {
            (0..n).map(|_| Mutex::new(Vec::new())).collect()
        } else {
            Vec::new()
        };

        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= hi {
                        break;
                    }
                    let job = plan.job(index);
                    let mut rng = job_rng(root_seed, fingerprint, index);
                    jobs_counter().inc();
                    // The span lands in the global per-job histogram
                    // either way; with a trace armed on the caller, the
                    // worker arms its own capture so the job's subtree
                    // survives the thread hop.
                    if tracing {
                        cnt_obs::Trace::begin();
                    }
                    let result = {
                        let _job_span = cnt_obs::span!("sweep.job");
                        work(&job, &mut rng)
                    };
                    if tracing {
                        *trace_slots[index - lo].lock().expect("trace slot poisoned") =
                            cnt_obs::Trace::end();
                    }
                    *slots[index - lo].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });

        if tracing {
            let mut merged: Vec<cnt_obs::SpanNode> = Vec::new();
            for slot in trace_slots {
                for root in slot.into_inner().expect("trace slot poisoned") {
                    cnt_obs::merge_nodes(&mut merged, root);
                }
            }
            cnt_obs::Trace::attach(merged);
        }

        // Every job ran; unwrap in index order so the first error seen is
        // the lowest-indexed one.
        let mut out = Vec::with_capacity(n);
        for (offset, slot) in slots.into_iter().enumerate() {
            let index = lo + offset;
            match slot.into_inner().expect("result slot poisoned") {
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => {
                    return Err(Error::Job {
                        index,
                        message: e.to_string(),
                    })
                }
                None => unreachable!("worker pool exited with job {index} unvisited"),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::Axis;
    use rand::Rng;

    fn plan(n_grid: usize, trials: usize) -> SweepPlan {
        let grid: Vec<f64> = (0..n_grid).map(|i| i as f64).collect();
        SweepPlan::new("exec-test")
            .axis(Axis::grid("g", &grid))
            .axis(Axis::trials(trials))
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let p = plan(7, 11);
        let work = |job: &Job, rng: &mut StdRng| -> Result<f64> {
            Ok(job.get("g").unwrap() * 1000.0 + rng.gen::<f64>())
        };
        let serial = Executor::new(1).run(&p, 42, work).unwrap();
        let par4 = Executor::new(4).run(&p, 42, work).unwrap();
        let par16 = Executor::new(16).run(&p, 42, work).unwrap();
        assert_eq!(serial, par4);
        assert_eq!(serial, par16);
        assert_eq!(serial.len(), 77);
    }

    #[test]
    fn different_seed_different_results() {
        let p = plan(3, 5);
        let work = |_: &Job, rng: &mut StdRng| -> Result<f64> { Ok(rng.gen::<f64>()) };
        let a = Executor::new(2).run(&p, 1, work).unwrap();
        let b = Executor::new(2).run(&p, 2, work).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn lowest_failing_index_wins_at_any_thread_count() {
        let p = plan(1, 20);
        let work = |job: &Job, _: &mut StdRng| -> core::result::Result<f64, String> {
            let t = job.get("trial").unwrap();
            if t >= 5.0 {
                Err(format!("trial {t} out of budget"))
            } else {
                Ok(t)
            }
        };
        for threads in [1, 3, 8] {
            match Executor::new(threads).run(&p, 0, work) {
                Err(Error::Job { index, message }) => {
                    assert_eq!(index, 5, "threads={threads}");
                    assert!(message.contains("out of budget"));
                }
                other => panic!("expected job failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_plan_is_rejected() {
        let p = SweepPlan::new("empty");
        let r = Executor::new(2).run(&p, 0, |_, _| Ok::<f64, String>(0.0));
        assert_eq!(r.unwrap_err(), Error::EmptyPlan);
    }

    #[test]
    fn pooled_jobs_land_in_the_calling_threads_trace() {
        let p = plan(4, 5); // 20 jobs
        let work = |_: &Job, _: &mut StdRng| -> Result<f64> { Ok(1.0) };
        for threads in [1, 4] {
            cnt_obs::Trace::begin();
            Executor::new(threads).run(&p, 42, work).unwrap();
            let roots = cnt_obs::Trace::end();
            let job = roots
                .iter()
                .find(|n| n.name == "sweep.job")
                .unwrap_or_else(|| panic!("threads={threads}: no sweep.job in {roots:?}"));
            assert_eq!(job.count, 20, "threads={threads}: every job must fold in");
        }
        // Without a trace armed, the pool still runs (and captures nothing).
        assert!(!cnt_obs::Trace::is_active());
        assert!(Executor::new(4).run(&p, 42, work).is_ok());
    }

    #[test]
    fn run_range_matches_the_full_run_slice_at_any_thread_count() {
        let p = plan(7, 11); // 77 jobs
        let work = |job: &Job, rng: &mut StdRng| -> Result<f64> {
            Ok(job.get("g").unwrap() * 1000.0 + rng.gen::<f64>())
        };
        let full = Executor::new(1).run(&p, 42, work).unwrap();
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            for range in chunk_ranges(p.len(), 5) {
                let part = exec.run_range(&p, 42, range.clone(), work).unwrap();
                assert_eq!(part, full[range], "threads={threads}");
            }
        }
    }

    #[test]
    fn run_range_reports_global_failing_index_and_rejects_bad_ranges() {
        let p = plan(1, 20);
        let work = |job: &Job, _: &mut StdRng| -> core::result::Result<f64, String> {
            let t = job.get("trial").unwrap();
            if t >= 15.0 {
                Err("over".to_string())
            } else {
                Ok(t)
            }
        };
        for threads in [1, 4] {
            match Executor::new(threads).run_range(&p, 0, 10..20, work) {
                Err(Error::Job { index, .. }) => assert_eq!(index, 15, "threads={threads}"),
                other => panic!("expected job failure, got {other:?}"),
            }
        }
        let exec = Executor::new(2);
        assert!(matches!(
            exec.run_range(&p, 0, 5..5, work),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            exec.run_range(&p, 0, 10..21, work),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn chunk_ranges_are_balanced_contiguous_and_cover_the_plan() {
        assert_eq!(chunk_ranges(0, 4), vec![]);
        assert_eq!(chunk_ranges(10, 0), vec![]);
        assert_eq!(chunk_ranges(3, 8), vec![0..1, 1..2, 2..3]);
        let ranges = chunk_ranges(2000, 6);
        assert_eq!(ranges.len(), 6);
        assert_eq!(ranges[0], 0..334);
        assert_eq!(ranges.last().unwrap().end, 2000);
        let mut cursor = 0;
        for r in &ranges {
            assert_eq!(r.start, cursor, "contiguous");
            assert!(r.end - r.start >= 333, "balanced: {r:?}");
            cursor = r.end;
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::new(3).threads(), 3);
    }
}
