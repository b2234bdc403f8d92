//! `layers`: the traced run's in-process calls into each layer.
//!
//! Every call sits inside one of this crate's spans. The artefacts pass
//! (all 21 ids) and the montecarlo pass (all 8 sweep families) run both
//! traced and untraced, alternating which goes first, so
//! `obs.trace_overhead` compares the same work. Counts come from the
//! `cnt_obs::global()` registry the layers already record into, read as
//! per-pass deltas.

use crate::load::{HOT_IDS, SWEEP_IDS};
use crate::spans::Spans;
use crate::Flags;
use cnt_atomistic::bands::BandStructure;
use cnt_atomistic::chirality::Chirality;
use cnt_atomistic::doping::{DopedCnt, DopingSpec};
use cnt_atomistic::transport;
use cnt_fields::extract::{extract_capacitance, extract_resistance};
use cnt_fields::presets::{inverter_cell_14nm, via_stack, InverterCellGeometry};
use cnt_fields::solver::SolverOptions;
use cnt_interconnect::benchmark::{
    delay_ratio_grid, DelayBenchmark, FIG12_CHANNEL_COUNTS, FIG12_DIAMETERS_NM, FIG12_LENGTHS_UM,
};
use cnt_interconnect::compact::CuWire;
use cnt_interconnect::experiments::{self, SweepOpts};
use cnt_obs::MetricSnapshot;
use cnt_units::si::{Length, Temperature};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

type Result<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A counter's value, or a histogram's `(count, sum)`, in the global
/// registry; series not registered yet read as zero.
fn obs_counter(name: &str) -> f64 {
    cnt_obs::global()
        .snapshot()
        .into_iter()
        .find_map(|(n, s)| match s {
            MetricSnapshot::Counter(c) if n == name => Some(c as f64),
            _ => None,
        })
        .unwrap_or(0.0)
}

fn obs_hist(name: &str) -> (f64, f64) {
    cnt_obs::global()
        .snapshot()
        .into_iter()
        .find_map(|(n, s)| match s {
            MetricSnapshot::Histogram { counts, sum, .. } if n == name => {
                Some((counts.iter().sum::<u64>() as f64, sum))
            }
            _ => None,
        })
        .unwrap_or((0.0, 0.0))
}

/// The registry counts one pass moves.
#[derive(Clone, Copy)]
struct Counts {
    solves: f64,
    cg: f64,
    mgcg: f64,
    jobs: f64,
    job_count: f64,
    job_sum_s: f64,
}

impl Counts {
    fn now() -> Self {
        let (job_count, job_sum_s) = obs_hist("cnt_span_sweep_job_seconds");
        Self {
            solves: obs_hist("cnt_span_fields_solve_seconds").0,
            cg: obs_counter("cnt_fields_cg_iterations_total"),
            mgcg: obs_counter("cnt_fields_mgcg_iterations_total"),
            jobs: obs_counter("cnt_sweep_jobs_total"),
            job_count,
            job_sum_s,
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            solves: self.solves - before.solves,
            cg: self.cg - before.cg,
            mgcg: self.mgcg - before.mgcg,
            jobs: self.jobs - before.jobs,
            job_count: self.job_count - before.job_count,
            job_sum_s: self.job_sum_s - before.job_sum_s,
        }
    }
}

/// One pass over a fixed id list: per-id wall time in ms, the output,
/// and the registry deltas.
struct Pass {
    ms: Vec<f64>,
    total_ms: f64,
    text: Vec<String>,
    counts: Counts,
}

/// `experiments::run(id)` + `Report::render()` for all 21 ids: what one
/// `repro all` computes, minus process start and printing.
fn artefacts_pass(spans: &mut Spans) -> Result<Pass> {
    let before = Counts::now();
    let started = Instant::now();
    let mut ms = Vec::new();
    let mut text = Vec::new();
    spans.span("artefacts.pass", |spans| -> Result<()> {
        for id in HOT_IDS {
            let t = Instant::now();
            let rendered = spans.span(format!("artefact.{id}"), |_| {
                experiments::run(id).map(|r| r.render())
            });
            ms.push(ms_since(t));
            text.push(rendered.map_err(|e| format!("{id}: {e}"))?);
        }
        Ok(())
    })?;
    Ok(Pass {
        ms,
        total_ms: ms_since(started),
        text,
        counts: Counts::now().since(before),
    })
}

/// `experiments::run_sweep` for the 8 sweep families: one montecarlo
/// pass without process start.
fn sweep_pass(spans: &mut Spans, trials: usize, seed: u64, threads: usize) -> Result<Pass> {
    let before = Counts::now();
    let started = Instant::now();
    let mut ms = Vec::new();
    let mut text = Vec::new();
    let opts = SweepOpts {
        trials,
        threads,
        seed,
        cache_dir: None,
    };
    spans.span("montecarlo.pass", |spans| -> Result<()> {
        for id in SWEEP_IDS {
            let t = Instant::now();
            let run = spans.span(format!("sweep.family.{id}"), |_| {
                experiments::run_sweep(id, &opts)
            });
            ms.push(ms_since(t));
            text.push(run.map_err(|e| format!("sweep {id}: {e}"))?.report.render());
        }
        Ok(())
    })?;
    Ok(Pass {
        ms,
        total_ms: ms_since(started),
        text,
        counts: Counts::now().since(before),
    })
}

fn nm(v: f64) -> Length {
    Length::from_nanometers(v)
}

/// Timings of the single-layer calls, in ms.
struct LayerCalls {
    bands: f64,
    landauer: f64,
    transmission: f64,
    capacitance: f64,
    resistance: f64,
    transient: f64,
    delay_grid: f64,
}

fn layer_calls(spans: &mut Spans) -> Result<LayerCalls> {
    // fig08a: 35 tubes, one band structure and one Landauer integral each.
    let mut tubes = Chirality::zigzag_series(5, 26);
    tubes.extend(Chirality::armchair_series(3, 15));
    let room = Temperature::from_kelvin(300.0);
    let t = Instant::now();
    let bands = spans.span("atomistic.bands", |_| {
        tubes
            .iter()
            .map(|&tube| BandStructure::compute(tube, transport::DEFAULT_NK))
            .collect::<std::result::Result<Vec<_>, _>>()
    });
    let bands_ms = ms_since(t);
    let bands = bands.map_err(err)?;
    let t = Instant::now();
    spans.span("atomistic.landauer", |_| {
        for b in &bands {
            black_box(transport::conductance_at_temperature(b, 0.0, room));
        }
    });
    let landauer_ms = ms_since(t);

    // fig08c: 121 energies on pristine and iodine-doped CNT(7,7).
    let tube = Chirality::new(7, 7).map_err(err)?;
    let pristine = BandStructure::compute(tube, transport::DEFAULT_NK).map_err(err)?;
    let doped = DopedCnt::new(tube, DopingSpec::iodine_internal()).map_err(err)?;
    let energies: Vec<f64> = (0..121)
        .map(|i| -1.5 + 3.0 * f64::from(i) / 120.0)
        .collect();
    let t = Instant::now();
    spans.span("atomistic.transmission", |_| {
        black_box(pristine.transmission_grid(&energies));
        black_box(doped.transmission_grid(&energies));
        black_box(doped.conductance(room));
    });
    let transmission_ms = ms_since(t);

    // fig10: the inverter-cell capacitance and via-stack resistance.
    let geometry = InverterCellGeometry::default();
    let cell = inverter_cell_14nm(geometry)
        .build([15, 11, 13])
        .map_err(err)?;
    let t = Instant::now();
    let cap = spans.span("fields.capacitance", |_| {
        extract_capacitance(&cell, &SolverOptions::default())
    });
    let capacitance_ms = ms_since(t);
    black_box(cap.map_err(err)?);
    let sigma_cu = 1.0
        / CuWire::damascene(nm(32.0), nm(60.0))
            .map_err(err)?
            .resistivity()
            .ohm_meters();
    let stack = via_stack(geometry, sigma_cu)
        .build([41, 7, 13])
        .map_err(err)?;
    let t = Instant::now();
    let res = spans.span("fields.resistance", |_| {
        extract_resistance(&stack, "t_m1", "t_m2", &SolverOptions::default())
    });
    let resistance_ms = ms_since(t);
    black_box(res.map_err(err)?);

    // fig11: one transient per line length.
    let benches = [10.0, 100.0, 500.0]
        .iter()
        .map(|&l| DelayBenchmark::paper_fig12(nm(10.0), 2, Length::from_micrometers(l)))
        .collect::<std::result::Result<Vec<_>, _>>()
        .map_err(err)?;
    let t = Instant::now();
    let sims = spans.span("circuit.transient", |_| {
        benches
            .iter()
            .map(DelayBenchmark::simulate_delay)
            .collect::<std::result::Result<Vec<_>, _>>()
    });
    let transient_ms = ms_since(t);
    black_box(sims.map_err(err)?);

    // fig12: the 75-cell delay-ratio grid.
    let t = Instant::now();
    let grid = spans.span("interconnect.delay_grid", |_| {
        delay_ratio_grid(
            &FIG12_DIAMETERS_NM,
            &FIG12_CHANNEL_COUNTS,
            &FIG12_LENGTHS_UM,
            0,
        )
    });
    let delay_grid_ms = ms_since(t);
    black_box(grid.map_err(err)?);

    Ok(LayerCalls {
        bands: bands_ms,
        landauer: landauer_ms,
        transmission: transmission_ms,
        capacitance: capacitance_ms,
        resistance: resistance_ms,
        transient: transient_ms,
        delay_grid: delay_grid_ms,
    })
}

/// `chunkable_sweep`: all jobs through `run_range`, then `finish`; the
/// report must equal the plain sweep's.
fn kernel_reduce(
    spans: &mut Spans,
    trials: usize,
    seed: u64,
    expected: &[String],
) -> Result<(f64, f64, usize)> {
    let (mut kernel_ms, mut reduce_ms, mut mismatches) = (0.0, 0.0, 0);
    let sets = [
        ("trials".to_string(), trials.to_string()),
        ("seed".to_string(), seed.to_string()),
    ];
    for (id, want) in SWEEP_IDS.iter().zip(expected) {
        let (_, ctx) = experiments::resolve_context(id, None, &sets).map_err(err)?;
        let sweep = experiments::chunkable_sweep(id, &ctx).map_err(err)?;
        let t = Instant::now();
        let rows = spans.span("sweep.kernel", |_| sweep.run_range(0, sweep.jobs()));
        kernel_ms += ms_since(t);
        let rows = rows.map_err(err)?;
        let t = Instant::now();
        let run = spans.span("sweep.reduce", |_| sweep.finish(rows));
        reduce_ms += ms_since(t);
        if run.map_err(err)?.report.render() != *want {
            mismatches += 1;
        }
    }
    Ok((kernel_ms, reduce_ms, mismatches))
}

/// Mean cost of one `span!` enter + exit, in ns (median of 5 batches).
fn span_ns() -> f64 {
    const N: u32 = 100_000;
    let batches = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..N {
                let guard = cnt_obs::span!("perfbench.noop");
                black_box(&guard);
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(N)
        })
        .collect();
    median(batches)
}

/// Median wall time of `repro --list`: process start plus registry build.
fn start_ms(repro: &str) -> Result<f64> {
    let mut samples = Vec::new();
    for _ in 0..21 {
        let t = Instant::now();
        let status = Command::new(repro)
            .arg("--list")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("spawning {repro}: {e}"))?;
        samples.push(ms_since(t));
        if !status.success() {
            return Err(format!("{repro} --list exited with {status}"));
        }
    }
    Ok(median(samples))
}

pub fn main(flags: &Flags) -> Result<()> {
    let trials: usize = flags.num("trials", 4000)?;
    let seed: u64 = flags.num("seed", 42)?;
    let reps: usize = flags.num("reps", 3)?;
    let repro = flags.req("repro")?;
    let golden_path = flags.req("golden")?;
    let stem = flags.req("spans")?;
    let golden = std::fs::read_to_string(golden_path).map_err(|e| format!("{golden_path}: {e}"))?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    let origin = Instant::now();
    let mut spans = Spans::new(true, origin);
    let mut untraced = Spans::new(false, origin);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut art_ms: Vec<Vec<f64>> = vec![Vec::new(); HOT_IDS.len()];
    let mut fam_ms: Vec<Vec<f64>> = vec![Vec::new(); SWEEP_IDS.len()];
    let mut calls: Vec<LayerCalls> = Vec::new();
    let mut render_ms = Vec::new();
    let (mut art_counts, mut mc_counts) = (None, None);
    let mut mc_text = Vec::new();
    let mut attempted = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut obs_tree = Vec::new();

    for rep in 0..reps {
        let order = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let recorder = if traced { &mut spans } else { &mut untraced };
            if traced {
                cnt_obs::Trace::begin();
            }
            let art = artefacts_pass(recorder)?;
            let mc = sweep_pass(recorder, trials, seed, 0)?;
            let both = art.total_ms + mc.total_ms;
            attempted += 2;
            // `repro all` prints each report followed by a blank line; the
            // first 20 make up the pinned golden.
            let all: String = art.text.iter().map(|t| format!("{t}\n")).collect();
            if !all.starts_with(&golden) {
                failures.push("artefacts pass differs from tests/golden/repro_all.txt".into());
            }
            if traced {
                obs_tree = cnt_obs::Trace::end();
                traced_ms.push(both);
                for (slot, ms) in art_ms.iter_mut().zip(&art.ms) {
                    slot.push(*ms);
                }
                for (slot, ms) in fam_ms.iter_mut().zip(&mc.ms) {
                    slot.push(*ms);
                }
                art_counts = Some(art.counts);
                mc_counts = Some(mc.counts);
                mc_text = mc.text;
            } else {
                untraced_ms.push(both);
            }
        }
        calls.push(layer_calls(&mut spans)?);
        let reports = HOT_IDS
            .iter()
            .map(|id| experiments::run(id))
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(err)?;
        let t = Instant::now();
        spans.span("interconnect.render", |_| {
            for r in &reports {
                black_box(r.render());
                black_box(r.to_json());
            }
        });
        render_ms.push(ms_since(t));
    }

    // Serial families: the same sweeps at one thread must print the same
    // reports as the pool run.
    let serial = sweep_pass(&mut spans, trials, seed, 1)?;
    attempted += 1;
    if serial.text != mc_text {
        failures.push("sweep reports differ between 1 and all threads".into());
    }
    let parallel_ms: f64 = fam_ms.iter().map(|v| median(v.clone())).sum();
    let (kernel_ms, reduce_ms, mismatches) = kernel_reduce(&mut spans, trials, seed, &mc_text)?;
    attempted += SWEEP_IDS.len();
    if mismatches > 0 {
        failures.push(format!(
            "{mismatches} chunked sweep report(s) differ from run_sweep"
        ));
    }

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut shares: BTreeMap<String, f64> = BTreeMap::new();
    let art_med: Vec<f64> = art_ms.into_iter().map(median).collect();
    let art_total: f64 = art_med.iter().sum();
    for (id, ms) in HOT_IDS.iter().zip(&art_med) {
        m.insert(format!("artefact.{id}_ms"), *ms);
        shares.insert(format!("artefact.{id}_ms"), ms / art_total);
    }
    let fam_med: Vec<f64> = fam_ms.into_iter().map(median).collect();
    let fam_total: f64 = fam_med.iter().sum();
    for (id, ms) in SWEEP_IDS.iter().zip(&fam_med) {
        m.insert(format!("sweep.family.{id}_ms"), *ms);
        shares.insert(format!("sweep.family.{id}_ms"), ms / fam_total);
    }
    let call = |f: fn(&LayerCalls) -> f64| median(calls.iter().map(f).collect());
    m.insert("atomistic.bands_ms".into(), call(|c| c.bands));
    m.insert("atomistic.landauer_ms".into(), call(|c| c.landauer));
    m.insert("atomistic.transmission_ms".into(), call(|c| c.transmission));
    m.insert("fields.capacitance_ms".into(), call(|c| c.capacitance));
    m.insert("fields.resistance_ms".into(), call(|c| c.resistance));
    m.insert("circuit.transient_ms".into(), call(|c| c.transient));
    m.insert("interconnect.delay_grid_ms".into(), call(|c| c.delay_grid));
    m.insert("interconnect.render_ms".into(), median(render_ms));
    let art = art_counts.expect("reps >= 1 runs a traced pass");
    let mc = mc_counts.expect("reps >= 1 runs a traced pass");
    m.insert("fields.solves".into(), art.solves);
    m.insert("fields.cg_iterations".into(), art.cg);
    m.insert("fields.mgcg_iterations".into(), art.mgcg);
    m.insert("sweep.pool_jobs".into(), art.jobs);
    m.insert("sweep.jobs".into(), mc.jobs);
    m.insert(
        "sweep.job_us".into(),
        mc.job_sum_s / mc.job_count.max(1.0) * 1e6,
    );
    m.insert("sweep.kernel_ms".into(), kernel_ms);
    m.insert("sweep.reduce_ms".into(), reduce_ms);
    m.insert("sweep.serial_ms".into(), serial.total_ms);
    m.insert(
        "sweep.efficiency".into(),
        serial.total_ms / (threads as f64 * parallel_ms),
    );
    m.insert("obs.span_ns".into(), span_ns());
    m.insert(
        "obs.trace_overhead".into(),
        median(traced_ms) / median(untraced_ms) - 1.0,
    );
    m.insert("bench.start_ms".into(), start_ms(repro)?);
    attempted += 1;

    spans
        .write(stem)
        .map_err(|e| format!("writing {stem}: {e}"))?;
    std::fs::write(
        format!("{stem}.obs.folded"),
        cnt_obs::fold_stacks(&obs_tree),
    )
    .map_err(|e| format!("writing {stem}.obs.folded: {e}"))?;

    let obj = |map: &BTreeMap<String, f64>| {
        let fields: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    };
    let failures: Vec<String> = failures.iter().map(|f| format!("\"{f}\"")).collect();
    println!(
        "{{\"metrics\":{},\"shares\":{},\"threads\":{threads},\"attempted\":{attempted},\"failures\":[{}]}}",
        obj(&m),
        obj(&shares),
        failures.join(",")
    );
    Ok(())
}
