//! The engine's headline guarantee, tested end to end: for a fixed root
//! seed, sweep output is bit-identical regardless of thread count,
//! completion order, or traversal order.

use cnt_sweep::seed::job_rng;
use cnt_sweep::{Axis, Executor, Job, Summary, SweepPlan};
use rand::rngs::StdRng;
use rand::Rng;

fn mc_plan() -> SweepPlan {
    SweepPlan::new("determinism")
        .axis(Axis::grid("x", &[1.0, 2.0, 3.0, 5.0, 8.0]))
        .axis(Axis::trials(13))
}

/// A Monte-Carlo-ish kernel with real floating-point content.
fn kernel(job: &Job, rng: &mut StdRng) -> cnt_sweep::Result<f64> {
    let x = job.get("x").expect("axis exists");
    let mut acc = 0.0;
    for _ in 0..50 {
        acc += (x * rng.gen::<f64>()).sin();
    }
    Ok(acc)
}

#[test]
fn identical_across_thread_counts() {
    let plan = mc_plan();
    let reference = Executor::new(1).run(&plan, 42, kernel).unwrap();
    for threads in [2, 4, 8] {
        let parallel = Executor::new(threads).run(&plan, 42, kernel).unwrap();
        assert_eq!(reference.len(), parallel.len());
        for (i, (a, b)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "job {i} differs at {threads} threads"
            );
        }
    }
}

#[test]
fn identical_under_shuffled_completion_order() {
    // Jitter each job's wall time pseudo-randomly so pool completion order
    // is scrambled relative to submission order.
    let plan = mc_plan();
    let jittered = |job: &Job, rng: &mut StdRng| -> cnt_sweep::Result<f64> {
        let delay_us = (job.index() as u64).wrapping_mul(0x9e3779b97f4a7c15) % 300;
        std::thread::sleep(std::time::Duration::from_micros(delay_us));
        kernel(job, rng)
    };
    let reference = Executor::new(1).run(&plan, 7, kernel).unwrap();
    let scrambled = Executor::new(4).run(&plan, 7, jittered).unwrap();
    assert_eq!(reference, scrambled);
}

#[test]
fn identical_under_shuffled_traversal_order() {
    // Recompute every job by hand in a deliberately shuffled traversal;
    // per-job streams depend only on (seed, fingerprint, index), so the
    // results must land exactly where the executor put them.
    let plan = mc_plan();
    let reference = Executor::new(2).run(&plan, 99, kernel).unwrap();
    let mut order: Vec<usize> = (0..plan.len()).collect();
    // Deterministic shuffle (Fisher–Yates on a seeded stream).
    let mut rng = job_rng(1234, 0, 0);
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    assert_ne!(order, (0..plan.len()).collect::<Vec<_>>());
    for index in order {
        let job = plan.job(index);
        let mut rng = job_rng(99, plan.fingerprint(), index);
        let value = kernel(&job, &mut rng).unwrap();
        assert_eq!(value.to_bits(), reference[index].to_bits(), "job {index}");
    }
}

#[test]
fn aggregates_are_bit_stable() {
    // Job-order aggregation of parallel results == serial aggregation.
    let plan = mc_plan();
    let serial = Executor::new(1).run(&plan, 3, kernel).unwrap();
    let parallel = Executor::new(8).run(&plan, 3, kernel).unwrap();
    let reduce = |values: &[f64]| {
        let s = Summary::from_samples(values).unwrap();
        [s.mean, s.std_dev, s.p05, s.p50, s.p95].map(f64::to_bits)
    };
    assert_eq!(reduce(&serial), reduce(&parallel));
}
