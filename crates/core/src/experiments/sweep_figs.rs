//! Monte-Carlo sweep variants of the paper's ensemble artefacts, driven
//! by the `cnt-sweep` engine.
//!
//! Where the plain experiment ids regenerate the paper's *nominal* curves,
//! the sweep ids rerun each figure as the paper actually produced it — as
//! an ensemble: sampled device populations (Figs. 5–7, Section II.A
//! variability), diameter-scattered delay-ratio grids (Fig. 12), and
//! wafer-scale reliability statistics (Fig. 13). Every sweep is
//!
//! * **deterministic** — output depends only on `(id, trials, seed)`,
//!   never on thread count or scheduling;
//! * **cacheable** — the result table is stored under a content hash of
//!   the plan, seed, and trial count, so repeat runs are lookups (pass a
//!   cache directory via [`SweepOpts::cache_dir`] to persist across
//!   processes);
//! * **chunkable** — each sweep is defined once as a [`SweepKernel`]
//!   (plan + per-job map + cross-job reduce + report annotation), and
//!   because per-job generators are seeded by *global* job index, any
//!   contiguous partition of the job range merges back byte-identical to
//!   the single-instance run. The fleet's distributed-sweep coordinator
//!   executes through exactly this definition.

use super::params::{ParamSpec, RunContext};
use super::registry::Entry;
use super::Report;
use crate::benchmark::{delay_ratio, FIG12_CHANNEL_COUNTS, FIG12_DIAMETERS_NM, FIG12_LENGTHS_UM};
use crate::Result;
use cnt_process::composite::{CarpetOrientation, CompositeRecipe, DepositionMethod};
use cnt_process::growth::{Catalyst, GrowthRecipe};
use cnt_process::variability::{sample_one_device, DevicePopulation, DopingState};
use cnt_process::wafer::WaferMap;
use cnt_reliability::layout::TestStructure;
use cnt_reliability::wafer_char::{characterize_wafer, WaferCharSetup};
use cnt_sweep::{Axis, CacheKey, Executor, Job, ResultStore, Summary, SweepPlan, Table};
use cnt_units::rand_ext;
use cnt_units::si::{Length, Temperature, Time};
use rand::rngs::StdRng;
use rand::Rng;
use std::path::PathBuf;

/// Bump when any sweep kernel's physics changes: it invalidates every
/// cached table.
const SWEEP_SALT_VERSION: &str = "v2";

const VARIABILITY_TITLE: &str =
    "Single-CNT device resistance variability: pristine vs doped (Section II.A)";

/// This module's registry rows: the Section II.A device Monte-Carlo is an
/// extra named study whose *plain* run is its own sweep at the default
/// execution knobs. The per-figure sweep variants are attached to their
/// figure entries by the figure modules.
pub(super) fn entries() -> Vec<Entry> {
    vec![Entry::new(
        170,
        "variability",
        VARIABILITY_TITLE,
        ParamSpec::new(),
        |ctx| sweep_variability(&ctx.sweep_opts()).map(|run| run.report),
    )
    .extra()
    .with_sweep(sweep_variability)]
}

/// Options for one sweep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOpts {
    /// Monte-Carlo trials (per grid cell, or ensemble size for trial-only
    /// plans).
    pub trials: usize,
    /// Worker threads; `0` = all cores.
    pub threads: usize,
    /// Root seed; every job stream derives from it.
    pub seed: u64,
    /// Directory for the on-disk result cache. `None` disables caching:
    /// every call computes fresh (the repeatable-run cache is the disk
    /// store; deliberately no process-global memory cache, so callers
    /// comparing thread counts really do recompute).
    pub cache_dir: Option<PathBuf>,
}

impl Default for SweepOpts {
    fn default() -> Self {
        Self {
            trials: 200,
            threads: 0,
            seed: 42,
            cache_dir: None,
        }
    }
}

/// What [`crate::experiments::run_sweep`] hands back: the report plus execution metadata the
/// CLI prints out-of-band (metadata never appears in the report, which
/// must be byte-identical across thread counts and cache states).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// The rendered result table.
    pub report: Report,
    /// Whether the table came out of the result store.
    pub cache_hit: bool,
    /// Number of parallel jobs the plan flattened into.
    pub jobs: usize,
    /// Resolved worker count.
    pub threads: usize,
}

/// Standard trailer note shared by every sweep report.
fn provenance_note(rep: &mut Report, opts: &SweepOpts, jobs: usize) {
    rep.note(format!(
        "sweep: {jobs} jobs, {} trials, root seed {} — deterministic for any thread count",
        opts.trials, opts.seed
    ));
}

// --- the chunkable sweep kernel -----------------------------------------

type JobFn = Box<dyn Fn(&Job, &mut StdRng) -> Result<Vec<f64>> + Send + Sync>;
type FinalizeFn = Box<dyn Fn(Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>> + Send + Sync>;
type RenderFn = Box<dyn Fn(&Table) -> Report + Send + Sync>;

/// One sweep experiment decomposed into the pieces chunked execution
/// needs: the flattened plan, the cache salt, the per-job map (one
/// `Vec<f64>` per job), the cross-job reduce, and the report annotation
/// step.
///
/// [`SweepKernel::run_local`] is the single-process path every
/// `repro sweep` takes: [`SweepKernel::run_range`] over the whole job
/// range fed to [`SweepKernel::finish`]. The fleet's distributed
/// coordinator runs the same two steps split at job-range seams.
/// Per-job generators are seeded by **global** job index (see
/// `cnt_sweep::Executor::run_range`), so any split is byte-identical to
/// the whole — the tests below pin it.
pub(super) struct SweepKernel {
    id: &'static str,
    plan: SweepPlan,
    opts: SweepOpts,
    /// Per-experiment knobs threaded into the cache salt: empty for the
    /// classic sweeps (which keeps their historical cache keys);
    /// parameterised sweeps append `key=value` terms so a moved knob is
    /// a different cached artefact even where the plan fingerprint alone
    /// would not separate the two.
    salt_extra: String,
    columns: Vec<&'static str>,
    job: JobFn,
    finalize: FinalizeFn,
    render: RenderFn,
}

impl SweepKernel {
    /// Number of flattened jobs (the chunkable range is `0..jobs()`).
    pub(super) fn jobs(&self) -> usize {
        self.plan.len()
    }

    /// The plan's content hash: a coordinator and its chunk workers
    /// compare fingerprints before trusting each other's ranges.
    pub(super) fn fingerprint(&self) -> u64 {
        self.plan.fingerprint()
    }

    /// Resolved worker count.
    pub(super) fn threads(&self) -> usize {
        Executor::new(self.opts.threads).threads()
    }

    fn salt(&self) -> String {
        let mut salt = format!(
            "{SWEEP_SALT_VERSION}/{}/trials={}",
            self.id, self.opts.trials
        );
        if !self.salt_extra.is_empty() {
            salt.push('/');
            salt.push_str(&self.salt_extra);
        }
        salt
    }

    /// The content-hash identity of the finished table.
    fn table_key(&self) -> CacheKey {
        CacheKey::derive(&self.plan, self.opts.seed, &self.salt())
    }

    fn store(&self) -> ResultStore {
        match &self.opts.cache_dir {
            Some(dir) => ResultStore::on_disk(dir),
            None => ResultStore::in_memory(),
        }
    }

    /// Column names of the per-job rows (the final table's schema) —
    /// chunk tables stored by a fleet coordinator reuse them so every
    /// cached artefact decodes under the same width check.
    pub(super) fn columns(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.to_string()).collect()
    }

    /// The content-hash identity of one chunk's per-job rows: the full
    /// table's salt extended with the job range. A crashed coordinator
    /// replaying its journal re-derives the same keys and recalls
    /// completed chunks from the store instead of recomputing them.
    pub(super) fn chunk_key(&self, lo: usize, hi: usize) -> CacheKey {
        CacheKey::derive(
            &self.plan,
            self.opts.seed,
            &format!("{}/chunk={lo}..{hi}", self.salt()),
        )
    }

    /// Runs the contiguous job range `lo..hi`, returning one row per job.
    pub(super) fn run_range(&self, lo: usize, hi: usize) -> Result<Vec<Vec<f64>>> {
        Ok(Executor::new(self.opts.threads).run_range(
            &self.plan,
            self.opts.seed,
            lo..hi,
            |job, rng| (self.job)(job, rng),
        )?)
    }

    /// Probes the full-table cache: `Some` recalls a finished run without
    /// touching the executor.
    pub(super) fn cached_run(&self) -> Option<SweepRun> {
        let table = self.store().get(&self.table_key())?;
        Some(SweepRun {
            report: (self.render)(&table),
            cache_hit: true,
            jobs: self.plan.len(),
            threads: self.threads(),
        })
    }

    /// Reduces per-job outputs (the full `0..jobs()` concatenation, chunk
    /// results already merged in index order) into the final table, stores
    /// it under [`SweepKernel::table_key`], and renders the report.
    pub(super) fn finish(&self, per_job: Vec<Vec<f64>>) -> Result<SweepRun> {
        let rows = (self.finalize)(per_job)?;
        let table = self.store().put(&self.table_key(), self.columns(), rows)?;
        Ok(SweepRun {
            report: (self.render)(&table),
            cache_hit: false,
            jobs: self.plan.len(),
            threads: self.threads(),
        })
    }

    /// The single-instance path: cache probe, else the whole job range
    /// run, reduced, stored and rendered.
    pub(super) fn run_local(&self) -> Result<SweepRun> {
        match self.cached_run() {
            Some(run) => Ok(run),
            None => self.finish(self.run_range(0, self.jobs())?),
        }
    }
}

/// Builds the kernel for a sweep id from its validated context. Covers
/// exactly the ids of [`crate::experiments::sweep_catalog`] (pinned by
/// test).
pub(super) fn kernel_for(id: &str, ctx: &RunContext) -> Option<Result<SweepKernel>> {
    let opts = ctx.sweep_opts();
    Some(match id {
        "fig04" => fig04_kernel(ctx),
        "fig05" => fig05_kernel(&opts),
        "fig06" => fill_kernel(&opts, FillVariant::Eld),
        "fig07" => fill_kernel(&opts, FillVariant::Ecd),
        "fig12" => fig12_kernel(&opts),
        "fig13a" => fig13a_kernel(&opts),
        "fig13b" => fig13b_kernel(&opts),
        "variability" => variability_kernel(&opts),
        _ => return None,
    })
}

// --- fig04: growth ensemble under furnace setpoint jitter ---------------

/// `repro sweep fig04`: the growth-temperature sweep as an ensemble over
/// furnace setpoint control (±3 K, hard-truncated at ±10 K) for both
/// catalysts. This is the first *parameterised* sweep: the experiment's
/// own `temp_k` knob moves the top probe of the grid and is threaded into
/// the cache salt (beyond the plan fingerprint, which covers the grid
/// values), so a moved knob is a distinct cached artefact.
pub(super) fn sweep_fig04(ctx: &RunContext) -> Result<SweepRun> {
    fig04_kernel(ctx)?.run_local()
}

fn fig04_kernel(ctx: &RunContext) -> Result<SweepKernel> {
    let opts = ctx.sweep_opts();
    let temp_k = ctx.f64("temp_k");
    let temps = super::process_figs::fig04_temps(temp_k);
    let temps_k: Vec<f64> = temps.iter().map(|t| t.kelvin()).collect();
    let plan = SweepPlan::new("sweep.fig04")
        .axis(Axis::grid("catalyst", &[0.0, 1.0]))
        .axis(Axis::grid("T_K", &temps_k));
    let columns = vec![
        "catalyst",
        "T_C",
        "rate_mean_um_min",
        "rate_sigma",
        "dg_mean",
        "dg_sigma",
        "viable_yield",
    ];
    let trials = opts.trials;
    let job: JobFn = Box::new(move |job: &Job, rng: &mut StdRng| -> Result<Vec<f64>> {
        let catalyst_idx = job.get("catalyst").expect("axis exists");
        let catalyst = if catalyst_idx == 0.0 {
            Catalyst::Cobalt
        } else {
            Catalyst::Iron
        };
        let t_nominal = job.get("T_K").expect("axis exists");
        let mut rates = Vec::with_capacity(trials);
        let mut dgs = Vec::with_capacity(trials);
        let mut viable = 0usize;
        for _ in 0..trials {
            // Furnace setpoint control: ±3 K, truncated at ±10 K.
            let t =
                rand_ext::truncated_normal(rng, t_nominal, 3.0, t_nominal - 10.0, t_nominal + 10.0);
            let run = GrowthRecipe {
                catalyst,
                temperature: Temperature::from_kelvin(t),
                plasma_assisted: false,
            }
            .simulate()?;
            rates.push(run.growth_rate_um_per_min);
            dgs.push(run.dg_ratio);
            viable += usize::from(run.is_viable());
        }
        let rate = Summary::from_samples(&rates)?;
        let dg = Summary::from_samples(&dgs)?;
        Ok(vec![
            catalyst_idx,
            Temperature::from_kelvin(t_nominal).celsius(),
            rate.mean,
            rate.std_dev,
            dg.mean,
            dg.std_dev,
            viable as f64 / trials as f64,
        ])
    });
    let render: RenderFn = {
        let opts = opts.clone();
        let columns = columns.clone();
        let jobs = plan.len();
        Box::new(move |table: &Table| {
            let mut rep = Report::new(
                "fig04",
                "CNT growth vs temperature under furnace setpoint jitter (Co vs Fe ensemble)",
            )
            .with_columns(&columns);
            for row in &table.rows {
                rep.push_row(row.clone());
            }
            if let Some(budget_row) = table
                .rows
                .iter()
                .find(|r| r[0] == 0.0 && (r[1] - 395.0).abs() < 0.5)
            {
                rep.note(format!(
                    "Co at the 395 °C probe keeps a {:.0} % viable yield under ±3 K setpoint control",
                    budget_row[6] * 100.0
                ));
            }
            rep.note(format!(
                "catalyst 0 = Co, 1 = Fe; top probe at {temp_k} K (the temp_k knob, salted into the result cache)"
            ));
            provenance_note(&mut rep, &opts, jobs);
            rep
        })
    };
    Ok(SweepKernel {
        id: "fig04",
        plan,
        opts,
        salt_extra: format!("temp_k={temp_k}"),
        columns,
        job,
        finalize: Box::new(Ok),
        render,
    })
}

// --- fig12: diameter-scattered delay-ratio grid -------------------------

fn fig12_plan() -> SweepPlan {
    let nc: Vec<f64> = FIG12_CHANNEL_COUNTS.iter().map(|&n| n as f64).collect();
    SweepPlan::new("sweep.fig12")
        .axis(Axis::grid("D_nm", &FIG12_DIAMETERS_NM))
        .axis(Axis::grid("Nc", &nc))
        .axis(Axis::grid("L_um", &FIG12_LENGTHS_UM))
}

pub(super) fn sweep_fig12(opts: &SweepOpts) -> Result<SweepRun> {
    fig12_kernel(opts)?.run_local()
}

fn fig12_kernel(opts: &SweepOpts) -> Result<SweepKernel> {
    let plan = fig12_plan();
    let trials = opts.trials;
    let columns = vec![
        "D_nm",
        "Nc",
        "L_um",
        "ratio_mean",
        "ratio_sigma",
        "ratio_p05",
        "ratio_p95",
    ];
    let job: JobFn = Box::new(move |job: &Job, rng: &mut StdRng| -> Result<Vec<f64>> {
        let d_nominal = job.get("D_nm").expect("axis exists");
        let nc = job.get_usize("Nc").expect("axis exists");
        let l = Length::from_micrometers(job.get("L_um").expect("axis exists"));
        let mut ratios = Vec::with_capacity(trials);
        for _ in 0..trials {
            // CVD diameter scatter: σ(D)/D = 3 %, hard-truncated to
            // ±15 % so every sampled tube stays in the model's domain.
            let d_nm = rand_ext::truncated_normal(
                rng,
                d_nominal,
                0.03 * d_nominal,
                0.85 * d_nominal,
                1.15 * d_nominal,
            );
            ratios.push(delay_ratio(Length::from_nanometers(d_nm), nc, l)?);
        }
        let s = Summary::from_samples(&ratios)?;
        Ok(vec![
            d_nominal,
            nc as f64,
            job.get("L_um").expect("axis exists"),
            s.mean,
            s.std_dev,
            s.p05,
            s.p95,
        ])
    });
    let render: RenderFn = {
        let opts = opts.clone();
        let columns = columns.clone();
        let jobs = plan.len();
        Box::new(move |table: &Table| {
            let mut rep = Report::new(
                "fig12",
                "Delay ratio doped/pristine under CVD diameter scatter (Monte-Carlo)",
            )
            .with_columns(&columns);
            for row in &table.rows {
                rep.push_row(row.clone());
            }
            for &(d, paper) in &[(10.0, 0.10), (14.0, 0.05), (22.0, 0.02)] {
                if let Some(row) = table
                    .rows
                    .iter()
                    .find(|r| r[0] == d && r[1] == 10.0 && r[2] == 500.0)
                {
                    rep.note(format!(
                        "anchor D = {d} nm, L = 500 µm, Nc = 10: reduction {:.1} % ± {:.1} % (paper: {:.0} %)",
                        (1.0 - row[3]) * 100.0,
                        row[4] * 100.0,
                        paper * 100.0
                    ));
                }
            }
            rep.note("3 % diameter scatter leaves the paper's 10/5/2 % doping anchors intact — the benefit is a property of the mean geometry, not a knife-edge");
            provenance_note(&mut rep, &opts, jobs);
            rep
        })
    };
    Ok(SweepKernel {
        id: "fig12",
        plan,
        opts: opts.clone(),
        salt_extra: String::new(),
        columns,
        job,
        finalize: Box::new(Ok),
        render,
    })
}

// --- fig05: wafer-growth uniformity ensemble ----------------------------

pub(super) fn sweep_fig05(opts: &SweepOpts) -> Result<SweepRun> {
    fig05_kernel(opts)?.run_local()
}

fn fig05_kernel(opts: &SweepOpts) -> Result<SweepKernel> {
    let plan = SweepPlan::new("sweep.fig05").axis(Axis::trials(opts.trials));
    let columns = vec![
        "r_band_lo",
        "r_band_hi",
        "thickness_mean",
        "thickness_sigma",
        "wafer_cv_mean",
        "wafer_cv_p05",
        "wafer_cv_p95",
    ];
    // One wafer per job: its own seed, its own map.
    let job: JobFn = Box::new(|_: &Job, rng: &mut StdRng| -> Result<Vec<f64>> {
        let map = WaferMap::generate(0.3, 121, 1.0, 0.05, 0.015, rng.gen::<u64>())?;
        let uniformity = map.uniformity()?;
        let mut out = vec![uniformity.cv];
        for band in 0..5 {
            let lo = band as f64 * 0.2;
            out.push(map.radial_band_mean(lo, lo + 0.2).unwrap_or(f64::NAN));
        }
        Ok(out)
    });
    let finalize: FinalizeFn = Box::new(|per_wafer: Vec<Vec<f64>>| -> Result<Vec<Vec<f64>>> {
        let cvs: Vec<f64> = per_wafer.iter().map(|w| w[0]).collect();
        let cv_summary = Summary::from_samples(&cvs)?;
        let mut rows = Vec::with_capacity(5);
        for band in 0..5 {
            let lo = band as f64 * 0.2;
            let means: Vec<f64> = per_wafer
                .iter()
                .map(|w| w[1 + band])
                .filter(|m| m.is_finite())
                .collect();
            let band_summary = Summary::from_samples(&means)?;
            rows.push(vec![
                lo,
                lo + 0.2,
                band_summary.mean,
                band_summary.std_dev,
                cv_summary.mean,
                cv_summary.p05,
                cv_summary.p95,
            ]);
        }
        Ok(rows)
    });
    let render: RenderFn = {
        let opts = opts.clone();
        let columns = columns.clone();
        let jobs = plan.len();
        Box::new(move |table: &Table| {
            let mut rep = Report::new(
                "fig05",
                "300 mm wafer growth uniformity across a wafer ensemble",
            )
            .with_columns(&columns);
            for row in &table.rows {
                rep.push_row(row.clone());
            }
            if let Some(first) = table.rows.first() {
                rep.note(format!(
                    "within-wafer CV across the ensemble: mean {:.2} %, p05 {:.2} %, p95 {:.2} %",
                    first[4] * 100.0,
                    first[5] * 100.0,
                    first[6] * 100.0
                ));
                let center = first[2];
                let edge = table.rows.last().expect("five bands")[2];
                rep.note(format!(
                    "radial signature is systematic, not noise: edge band {:.3} vs centre {:.3} in every wafer",
                    edge, center
                ));
            }
            provenance_note(&mut rep, &opts, jobs);
            rep
        })
    };
    Ok(SweepKernel {
        id: "fig05",
        plan,
        opts: opts.clone(),
        salt_extra: String::new(),
        columns,
        job,
        finalize,
        render,
    })
}

// --- fig06/fig07: Cu impregnation under volume-fraction scatter ---------

#[derive(Clone, Copy)]
enum FillVariant {
    /// Fig. 6: electroless, vertical carpet, no seed.
    Eld,
    /// Fig. 7: electrochemical, horizontal bundle, conductive seed.
    Ecd,
}

pub(super) fn sweep_fig06(opts: &SweepOpts) -> Result<SweepRun> {
    fill_kernel(opts, FillVariant::Eld)?.run_local()
}

pub(super) fn sweep_fig07(opts: &SweepOpts) -> Result<SweepRun> {
    fill_kernel(opts, FillVariant::Ecd)?.run_local()
}

fn fill_kernel(opts: &SweepOpts, variant: FillVariant) -> Result<SweepKernel> {
    let (id, title, last_column) = match variant {
        FillVariant::Eld => (
            "fig06",
            "ELD Cu impregnation under CNT volume-fraction scatter",
            "overburden_mean_nm",
        ),
        FillVariant::Ecd => (
            "fig07",
            "ECD Cu impregnation under CNT volume-fraction scatter",
            "void_free_yield",
        ),
    };
    let plan = SweepPlan::new(format!("sweep.{id}"))
        .axis(Axis::grid("aspect_ratio", &[0.5, 1.0, 2.0, 4.0, 8.0]));
    let columns = vec![
        "aspect_ratio",
        "fill_mean",
        "fill_sigma",
        "fill_p05",
        "void_prob_mean",
        last_column,
    ];
    let trials = opts.trials;
    let job: JobFn = Box::new(move |job: &Job, rng: &mut StdRng| -> Result<Vec<f64>> {
        let ar = job.get("aspect_ratio").expect("axis exists");
        let mut fills = Vec::with_capacity(trials);
        let mut voids = Vec::with_capacity(trials);
        let mut extra = Vec::with_capacity(trials);
        for _ in 0..trials {
            // Carpet density control: ±2 % absolute volume fraction.
            let vf = rand_ext::truncated_normal(rng, 0.30, 0.02, 0.10, 0.60);
            let recipe = match variant {
                FillVariant::Eld => CompositeRecipe {
                    method: DepositionMethod::Electroless,
                    orientation: CarpetOrientation::Vertical,
                    aspect_ratio: ar,
                    conductive_seed: false,
                    cnt_volume_fraction: vf,
                },
                FillVariant::Ecd => CompositeRecipe {
                    method: DepositionMethod::Electrochemical,
                    orientation: CarpetOrientation::Horizontal,
                    aspect_ratio: ar,
                    conductive_seed: true,
                    cnt_volume_fraction: vf,
                },
            };
            let r = recipe.simulate()?;
            fills.push(r.fill_fraction);
            voids.push(r.void_probability);
            extra.push(match variant {
                FillVariant::Eld => r.overburden_nm,
                FillVariant::Ecd => f64::from(u8::from(r.is_void_free())),
            });
        }
        let fill = Summary::from_samples(&fills)?;
        let void_mean = voids.iter().sum::<f64>() / voids.len() as f64;
        let extra_mean = extra.iter().sum::<f64>() / extra.len() as f64;
        Ok(vec![
            ar,
            fill.mean,
            fill.std_dev,
            fill.p05,
            void_mean,
            extra_mean,
        ])
    });
    let render: RenderFn = {
        let opts = opts.clone();
        let columns = columns.clone();
        let jobs = plan.len();
        Box::new(move |table: &Table| {
            let mut rep = Report::new(
                match variant {
                    FillVariant::Eld => "fig06",
                    FillVariant::Ecd => "fig07",
                },
                title,
            )
            .with_columns(&columns);
            for row in &table.rows {
                rep.push_row(row.clone());
            }
            match variant {
                FillVariant::Eld => rep.note(
                    "ELD keeps its overburden at every aspect ratio; fill spread tracks carpet density"
                        .to_string(),
                ),
                FillVariant::Ecd => {
                    let min_yield = table
                        .rows
                        .iter()
                        .map(|r| r[5])
                        .fold(f64::INFINITY, f64::min);
                    rep.note(format!(
                        "ECD void-free yield under density scatter: worst aspect ratio still yields {:.1} %",
                        min_yield * 100.0
                    ));
                }
            }
            provenance_note(&mut rep, &opts, jobs);
            rep
        })
    };
    Ok(SweepKernel {
        id,
        plan,
        opts: opts.clone(),
        salt_extra: String::new(),
        columns,
        job,
        finalize: Box::new(Ok),
        render,
    })
}

// --- fig13a: EM-layout line resistance under film + CD variation --------

pub(super) fn sweep_fig13a(opts: &SweepOpts) -> Result<SweepRun> {
    fig13a_kernel(opts)?.run_local()
}

fn fig13a_kernel(opts: &SweepOpts) -> Result<SweepKernel> {
    let plan = SweepPlan::new("sweep.fig13a")
        .axis(Axis::grid("width_nm", &[50.0, 100.0, 200.0, 500.0, 1000.0]));
    let columns = vec![
        "width_nm",
        "R_mean_ohm",
        "R_sigma_ohm",
        "R_p05_ohm",
        "R_p95_ohm",
    ];
    let trials = opts.trials;
    let job: JobFn = Box::new(move |job: &Job, rng: &mut StdRng| -> Result<Vec<f64>> {
        let w_nominal = job.get("width_nm").expect("axis exists");
        let mut resistances = Vec::with_capacity(trials);
        for _ in 0..trials {
            // E-beam CD control (±3 %), film thickness (±5 %) and
            // resistivity (±3 %) variation on the Cu reference film.
            let w = rand_ext::truncated_normal(
                rng,
                w_nominal,
                0.03 * w_nominal,
                0.7 * w_nominal,
                1.3 * w_nominal,
            );
            let t_nm = rand_ext::truncated_normal(rng, 100.0, 5.0, 70.0, 130.0);
            let rho = rand_ext::truncated_normal(rng, 2.2e-8, 0.03 * 2.2e-8, 1.5e-8, 3.0e-8);
            let line = TestStructure::SingleLine {
                width: Length::from_nanometers(w),
                length: Length::from_micrometers(100.0),
                angle_degrees: 0.0,
            };
            resistances.push(line.predicted_resistance(rho, Length::from_nanometers(t_nm), 0.0));
        }
        let s = Summary::from_samples(&resistances)?;
        Ok(vec![w_nominal, s.mean, s.std_dev, s.p05, s.p95])
    });
    let render: RenderFn = {
        let opts = opts.clone();
        let columns = columns.clone();
        let jobs = plan.len();
        Box::new(move |table: &Table| {
            let mut rep = Report::new(
                "fig13a",
                "EM layout single lines: resistance distribution under CD + film variation",
            )
            .with_columns(&columns);
            for row in &table.rows {
                rep.push_row(row.clone());
            }
            if let Some(first) = table.rows.first() {
                rep.note(format!(
                    "50 nm e-beam reference line: R = {:.0} Ω ± {:.0} Ω — the spread EM pre-screening must tolerate",
                    first[1], first[2]
                ));
            }
            rep.note(
                "relative spread shrinks with width: narrow lines are CD-limited, wide lines film-limited",
            );
            provenance_note(&mut rep, &opts, jobs);
            rep
        })
    };
    Ok(SweepKernel {
        id: "fig13a",
        plan,
        opts: opts.clone(),
        salt_extra: String::new(),
        columns,
        job,
        finalize: Box::new(Ok),
        render,
    })
}

// --- fig13b: wafer-characterization ensemble ----------------------------

pub(super) fn sweep_fig13b(opts: &SweepOpts) -> Result<SweepRun> {
    fig13b_kernel(opts)?.run_local()
}

fn fig13b_kernel(opts: &SweepOpts) -> Result<SweepKernel> {
    let plan = SweepPlan::new("sweep.fig13b")
        .axis(Axis::grid("setup", &[0.0, 1.0]))
        .axis(Axis::trials(opts.trials));
    let columns = vec![
        "setup",
        "wafers",
        "median_R_mean",
        "R_cv_mean",
        "ttf_mean_h",
        "ttf_p05_h",
        "ttf_p95_h",
        "em_yield_mean",
    ];
    let line = TestStructure::SingleLine {
        width: Length::from_nanometers(100.0),
        length: Length::from_micrometers(800.0),
        angle_degrees: 0.0,
    };
    let target = Time::from_hours(2000.0);
    // One wafer characterization per job.
    let job: JobFn = Box::new(move |job: &Job, rng: &mut StdRng| -> Result<Vec<f64>> {
        let setup_idx = job.get_usize("setup").expect("axis exists");
        let setup = if setup_idx == 0 {
            WaferCharSetup::copper_reference()
        } else {
            WaferCharSetup::composite()
        };
        let report = characterize_wafer(&setup, &line, target, rng.gen::<u64>())?;
        Ok(vec![
            setup_idx as f64,
            report.median_resistance,
            report.resistance_cv,
            report.median_ttf.hours(),
            report.em_yield,
        ])
    });
    let finalize: FinalizeFn = Box::new(|per_wafer: Vec<Vec<f64>>| -> Result<Vec<Vec<f64>>> {
        let mut rows = Vec::with_capacity(2);
        for setup_idx in 0..2 {
            let wafers: Vec<&Vec<f64>> = per_wafer
                .iter()
                .filter(|w| w[0] == setup_idx as f64)
                .collect();
            let ttfs: Vec<f64> = wafers.iter().map(|w| w[3]).collect();
            let ttf = Summary::from_samples(&ttfs)?;
            let mean_of = |i: usize| wafers.iter().map(|w| w[i]).sum::<f64>() / wafers.len() as f64;
            rows.push(vec![
                setup_idx as f64,
                wafers.len() as f64,
                mean_of(1),
                mean_of(2),
                ttf.mean,
                ttf.p05,
                ttf.p95,
                mean_of(4),
            ]);
        }
        Ok(rows)
    });
    let render: RenderFn = {
        let opts = opts.clone();
        let columns = columns.clone();
        let jobs = plan.len();
        Box::new(move |table: &Table| {
            let mut rep = Report::new(
                "fig13b",
                "Wafer-characterization ensemble: Cu reference vs Cu-CNT composite",
            )
            .with_columns(&columns);
            for row in &table.rows {
                rep.push_row(row.clone());
            }
            if table.rows.len() == 2 {
                let gain = table.rows[1][4] / table.rows[0][4];
                rep.note(format!(
                    "EM lifetime gain across the ensemble: {gain:.0}× (wafer-to-wafer spread now quantified, not a single-wafer anecdote)"
                ));
            }
            provenance_note(&mut rep, &opts, jobs);
            rep
        })
    };
    Ok(SweepKernel {
        id: "fig13b",
        plan,
        opts: opts.clone(),
        salt_extra: String::new(),
        columns,
        job,
        finalize,
        render,
    })
}

// --- variability: the Section II.A device Monte-Carlo -------------------

pub(super) fn sweep_variability(opts: &SweepOpts) -> Result<SweepRun> {
    variability_kernel(opts)?.run_local()
}

fn variability_kernel(opts: &SweepOpts) -> Result<SweepKernel> {
    let plan = SweepPlan::new("sweep.variability")
        .axis(Axis::grid("nc", &[0.0, 4.0, 6.0, 10.0]))
        .axis(Axis::trials(opts.trials));
    let columns = vec![
        "nc",
        "devices",
        "median_kohm",
        "mean_kohm",
        "cv",
        "tail_frac",
        "p05_kohm",
        "p95_kohm",
    ];
    let population = DevicePopulation::mwcnt_via_default();
    population.validate()?;
    // One sampled device per job: `[nc, resistance]`.
    let job: JobFn = Box::new(move |job: &Job, rng: &mut StdRng| -> Result<Vec<f64>> {
        let nc = job.get_usize("nc").expect("axis exists");
        let doping = if nc == 0 {
            DopingState::Pristine
        } else {
            DopingState::Doped {
                channels_per_shell: nc,
            }
        };
        Ok(vec![
            job.get("nc").expect("axis exists"),
            sample_one_device(&population, doping, rng).resistance,
        ])
    });
    let finalize: FinalizeFn = Box::new(|devices: Vec<Vec<f64>>| -> Result<Vec<Vec<f64>>> {
        let mut rows = Vec::with_capacity(4);
        for &nc in &[0.0, 4.0, 6.0, 10.0] {
            let rs: Vec<f64> = devices
                .iter()
                .filter(|d| d[0] == nc)
                .map(|d| d[1])
                .collect();
            let s = Summary::from_samples(&rs)?;
            let tail = rs.iter().filter(|&&r| r > 10.0 * s.p50).count() as f64 / rs.len() as f64;
            rows.push(vec![
                nc,
                rs.len() as f64,
                s.p50 / 1e3,
                s.mean / 1e3,
                s.std_dev / s.mean,
                tail,
                s.p05 / 1e3,
                s.p95 / 1e3,
            ]);
        }
        Ok(rows)
    });
    let render: RenderFn = {
        let opts = opts.clone();
        let columns = columns.clone();
        let jobs = plan.len();
        Box::new(move |table: &Table| {
            let mut rep = Report::new("variability", VARIABILITY_TITLE).with_columns(&columns);
            for row in &table.rows {
                rep.push_row(row.clone());
            }
            if table.rows.len() == 4 {
                let pristine_cv = table.rows[0][4];
                let doped6_cv = table.rows[2][4];
                rep.note(format!(
                    "doping to 6 channels/shell cuts the resistance CV from {pristine_cv:.2} to {doped6_cv:.2} — the paper's 'overcome the variability of resistance … by doping'"
                ));
            }
            rep.note("nc = 0 rows are the pristine (as-grown) population; the chirality lottery drives its heavy tail");
            provenance_note(&mut rep, &opts, jobs);
            rep
        })
    };
    Ok(SweepKernel {
        id: "variability",
        plan,
        opts: opts.clone(),
        salt_extra: String::new(),
        columns,
        job,
        finalize,
        render,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_sweep, sweep_catalog};

    fn opts(trials: usize, threads: usize, seed: u64) -> SweepOpts {
        SweepOpts {
            trials,
            threads,
            seed,
            cache_dir: None,
        }
    }

    #[test]
    fn every_sweep_id_runs_and_reports() {
        for id in sweep_catalog() {
            let run = run_sweep(id, &opts(8, 2, 7)).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(run.report.id, id);
            assert!(!run.report.rows.is_empty(), "{id} produced no rows");
            assert!(!run.cache_hit, "{id} hit a cache in a fresh store");
            assert!(run.jobs > 0);
            let text = run.report.render();
            assert!(text.contains("root seed 7"), "{id} missing provenance");
        }
        assert!(run_sweep("nope", &opts(8, 1, 7)).is_err());
        assert!(run_sweep("fig12", &opts(0, 1, 7)).is_err());
    }

    #[test]
    fn fig04_param_sweep_honours_temp_k_and_salts_the_cache() {
        use crate::experiments::registry;
        let dir = std::env::temp_dir().join(format!("cnt-sweep-fig04-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exp = registry().get("fig04").unwrap();
        let sweep = exp.sweep().expect("fig04 gained a sweep variant");
        let mut ctx = RunContext::defaults(exp.params());
        ctx.set(exp.params(), "trials", "6").unwrap();
        ctx.set(exp.params(), "threads", "2").unwrap();
        ctx.set(exp.params(), "cache_dir", dir.to_str().unwrap())
            .unwrap();
        let base = sweep.run_sweep(&ctx).unwrap();
        assert!(!base.cache_hit);
        // The knob reaches the kernel: the top probe row moves.
        ctx.set(exp.params(), "temp_k", "1000").unwrap();
        let moved = sweep.run_sweep(&ctx).unwrap();
        assert!(!moved.cache_hit, "temp_k must salt the cache key");
        assert_ne!(base.report.render(), moved.report.render());
        let top = moved.report.rows[6][1];
        assert!((top - 726.85).abs() < 1e-9, "top probe at {top} °C");
        // Back at the default knob, the first run is recalled from disk.
        ctx.set(exp.params(), "temp_k", "923.15").unwrap();
        let recalled = sweep.run_sweep(&ctx).unwrap();
        assert!(recalled.cache_hit);
        assert_eq!(base.report.render(), recalled.report.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_identical_across_thread_counts() {
        for id in ["fig04", "fig12", "variability", "fig05"] {
            let serial = run_sweep(id, &opts(12, 1, 42)).unwrap();
            let par = run_sweep(id, &opts(12, 4, 42)).unwrap();
            assert_eq!(
                serial.report.render(),
                par.report.render(),
                "{id} output depends on thread count"
            );
        }
    }

    #[test]
    fn seed_and_trials_change_results() {
        let a = run_sweep("variability", &opts(24, 2, 1)).unwrap();
        let b = run_sweep("variability", &opts(24, 2, 2)).unwrap();
        assert_ne!(a.report.render(), b.report.render());
        let c = run_sweep("variability", &opts(25, 2, 1)).unwrap();
        assert_ne!(a.report.render(), c.report.render());
    }

    #[test]
    fn disk_cache_round_trips_byte_identical() {
        let dir = std::env::temp_dir().join(format!("cnt-sweep-figs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let with_cache = SweepOpts {
            cache_dir: Some(dir.clone()),
            ..opts(10, 2, 9)
        };
        let fresh = run_sweep("fig12", &with_cache).unwrap();
        assert!(!fresh.cache_hit);
        let recalled = run_sweep("fig12", &with_cache).unwrap();
        assert!(recalled.cache_hit);
        assert_eq!(fresh.report.render(), recalled.report.render());
        // Different trial count is a different artefact.
        let more = run_sweep(
            "fig12",
            &SweepOpts {
                cache_dir: Some(dir.clone()),
                ..opts(11, 2, 9)
            },
        )
        .unwrap();
        assert!(!more.cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fig12_sweep_confirms_paper_anchors_under_scatter() {
        let run = run_sweep("fig12", &opts(40, 0, 42)).unwrap();
        let rows = &run.report.rows;
        assert_eq!(rows.len(), 75);
        // The D = 10 nm anchor keeps its ~10 % reduction in the mean.
        let anchor = rows
            .iter()
            .find(|r| r[0] == 10.0 && r[1] == 10.0 && r[2] == 500.0)
            .expect("anchor cell present");
        assert!(
            (0.85..0.95).contains(&anchor[3]),
            "anchor mean ratio {}",
            anchor[3]
        );
        // Scatter is small but nonzero.
        assert!(anchor[4] > 0.0 && anchor[4] < 0.05, "sigma {}", anchor[4]);
        assert!(anchor[5] <= anchor[3] && anchor[3] <= anchor[6]);
    }

    #[test]
    fn variability_sweep_shows_doping_tightening() {
        let run = run_sweep("variability", &opts(400, 0, 11)).unwrap();
        let rows = &run.report.rows;
        let pristine_cv = rows[0][4];
        let doped6_cv = rows[2][4];
        assert!(
            doped6_cv < 0.6 * pristine_cv,
            "doped CV {doped6_cv} vs pristine {pristine_cv}"
        );
        // Median drops too.
        assert!(rows[2][2] < rows[0][2]);
    }

    #[test]
    fn kernels_cover_the_sweep_catalog_and_chunks_merge_byte_identical() {
        use crate::experiments::{chunkable_sweep, resolve_context};
        let sets: Vec<(String, String)> = [("trials", "6"), ("threads", "2"), ("seed", "7")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        for id in sweep_catalog() {
            let (_, ctx) = resolve_context(id, None, &sets).unwrap();
            let chunked = chunkable_sweep(id, &ctx).unwrap_or_else(|e| panic!("{id}: {e}"));
            let local = run_sweep(id, &opts(6, 2, 7)).unwrap();
            assert_eq!(chunked.jobs(), local.jobs, "{id} job count");
            // Execute the plan as three contiguous chunks, out of order —
            // exactly what a fleet fan-out with re-dispatch does — then
            // merge in index order and finish.
            let mut ranges = cnt_sweep::chunk_ranges(chunked.jobs(), 3);
            ranges.rotate_left(1);
            let mut parts: Vec<(usize, Vec<Vec<f64>>)> = ranges
                .into_iter()
                .map(|r| {
                    let rows = chunked.run_range(r.start, r.end).unwrap();
                    assert_eq!(rows.len(), r.end - r.start);
                    (r.start, rows)
                })
                .collect();
            parts.sort_by_key(|(lo, _)| *lo);
            let per_job: Vec<Vec<f64>> = parts.into_iter().flat_map(|(_, rows)| rows).collect();
            let merged = chunked.finish(per_job).unwrap();
            assert_eq!(
                merged.report.render(),
                local.report.render(),
                "{id}: chunked merge must be byte-identical to the local run"
            );
            // Chunk keys are distinct from each other and the full table.
            assert_ne!(chunked.chunk_key(0, 1).hex(), chunked.chunk_key(1, 2).hex());
        }
        // Non-sweep ids keep the canonical error shape.
        let (_, ctx) = resolve_context("fig03", None, &[]).unwrap();
        match chunkable_sweep("fig03", &ctx) {
            Err(e) => assert!(e.to_string().contains("no sweep variant"), "{e}"),
            Ok(_) => panic!("fig03 must not be chunkable"),
        }
    }
}
