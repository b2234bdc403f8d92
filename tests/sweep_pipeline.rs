//! End-to-end: a small Fig. 12 Monte-Carlo sweep driven through the
//! facade — plan construction, the `cnt-sweep` pool, aggregation,
//! caching, and report rendering.

use cnt_beol::interconnect::experiments::{run_sweep, SweepOpts};

fn opts(trials: usize, threads: usize, seed: u64) -> SweepOpts {
    SweepOpts {
        trials,
        threads,
        seed,
        cache_dir: None,
    }
}

#[test]
fn fig12_sweep_end_to_end() {
    let run = run_sweep("fig12", &opts(20, 0, 42)).expect("sweep runs");
    assert_eq!(run.report.id, "fig12");
    assert_eq!(run.jobs, 75);
    assert_eq!(run.report.rows.len(), 75);

    // Paper physics survives the Monte-Carlo: the doping benefit grows
    // with length and shrinks with diameter, in the *mean* ratio.
    let mean_ratio = |d: f64, nc: f64, l: f64| -> f64 {
        run.report
            .rows
            .iter()
            .find(|r| r[0] == d && r[1] == nc && r[2] == l)
            .expect("cell present")[3]
    };
    assert!(mean_ratio(10.0, 10.0, 500.0) < mean_ratio(10.0, 10.0, 10.0));
    assert!(mean_ratio(10.0, 10.0, 500.0) < mean_ratio(22.0, 10.0, 500.0));
    // The D = 10 nm anchor keeps its ~10 % reduction.
    let anchor = mean_ratio(10.0, 10.0, 500.0);
    assert!((0.85..0.95).contains(&anchor), "anchor mean {anchor}");

    // Pristine cells are exactly ratio 1 with zero spread.
    for row in run.report.rows.iter().filter(|r| r[1] == 2.0) {
        assert_eq!(row[3], 1.0);
        assert_eq!(row[4], 0.0);
    }
}

#[test]
fn fig12_sweep_is_thread_invariant_through_the_facade() {
    let serial = run_sweep("fig12", &opts(10, 1, 1)).unwrap();
    let par = run_sweep("fig12", &opts(10, 4, 1)).unwrap();
    assert_eq!(serial.report.render(), par.report.render());
}

#[test]
fn fig12_sweep_disk_cache_replays_byte_identical() {
    let dir = std::env::temp_dir().join(format!("cnt-beol-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = SweepOpts {
        cache_dir: Some(dir.clone()),
        ..opts(6, 2, 5)
    };
    let first = run_sweep("fig12", &cached).unwrap();
    assert!(!first.cache_hit);
    let replay = run_sweep("fig12", &cached).unwrap();
    assert!(replay.cache_hit);
    assert_eq!(first.report.render(), replay.report.render());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_sweep_family_has_a_row_count_fixed_by_its_plan() {
    // A finished sweep job's body rides in one journal record, which
    // holds only because no family's final table grows with its trials.
    let rows = [
        ("fig04", 14),
        ("fig05", 5),
        ("fig06", 5),
        ("fig07", 5),
        ("fig12", 75),
        ("fig13a", 5),
        ("fig13b", 2),
        ("variability", 4),
    ];
    let ids: Vec<_> = cnt_beol::interconnect::experiments::registry()
        .sweep_ids()
        .collect();
    assert_eq!(ids, rows.map(|(id, _)| id), "a sweep family is unlisted");
    for (id, want) in rows {
        for trials in [1, 64] {
            let run = run_sweep(id, &opts(trials, 1, 7)).unwrap();
            assert_eq!(run.report.rows.len(), want, "{id} at {trials} trials");
        }
    }
}
