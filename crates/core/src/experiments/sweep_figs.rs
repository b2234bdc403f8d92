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
//! * **cacheable** — the result table has a content hash of the plan,
//!   seed, and trial count, so a local run given a cache directory
//!   ([`SweepOpts::cache_dir`], `repro sweep --cache-dir`) recalls a
//!   repeat instead of recomputing it;
//! * **chunkable** — each sweep is defined once as a [`SweepKernel`]
//!   (plan + per-job map + cross-job reduce + report notes), and because
//!   per-job generators are seeded by *global* job index, any contiguous
//!   partition of the job range merges back byte-identical to the
//!   single-instance run. The fleet's distributed-sweep coordinator
//!   executes through exactly this definition.
//!
//! Each kernel constructor below is stored in its figure's registry
//! entry; [`super::chunkable_sweep`] is the one way to call it.

use super::params::{ParamSpec, RunContext};
use super::registry::Experiment;
use super::Report;
use crate::benchmark::{delay_ratio, FIG12_CHANNEL_COUNTS, FIG12_DIAMETERS_NM, FIG12_LENGTHS_UM};
use crate::Result;
use cnt_process::composite::{CarpetOrientation, CompositeRecipe, DepositionMethod};
use cnt_process::growth::{Catalyst, GrowthRecipe};
use cnt_process::variability::{sample_one_device, DevicePopulation, DopingState};
use cnt_process::wafer::{UniformityReport, WaferLayout};
use cnt_reliability::layout::TestStructure;
use cnt_reliability::wafer_char::{characterize_wafer, WaferCharSetup};
use cnt_sweep::{json, Axis, CacheKey, Executor, Job, ResultStore, Summary, SweepPlan, Table};
use cnt_units::rand_ext;
use cnt_units::si::{Length, Temperature, Time};
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Bump when any sweep kernel's physics changes: it invalidates every
/// cached table.
const SWEEP_SALT_VERSION: &str = "v2";

/// The root seed of a sweep whose point leaves `seed` unset.
pub(super) const SWEEP_SEED: u64 = 42;

const VARIABILITY_TITLE: &str =
    "Single-CNT device resistance variability: pristine vs doped (Section II.A)";

/// This module's registry rows: the Section II.A device Monte-Carlo is an
/// extra named study whose *plain* run is its own sweep, uncached. The
/// per-figure sweep variants are attached to their figure entries by the
/// figure modules.
pub(super) fn entries() -> Vec<Experiment> {
    vec![Experiment::new(
        170,
        "variability",
        VARIABILITY_TITLE,
        ParamSpec::new(),
        |ctx| {
            Ok(super::chunkable_sweep("variability", ctx)?
                .run_local(None)?
                .report)
        },
    )
    .extra()
    .with_sweep(variability_kernel, &[])]
}

/// Options for one [`crate::experiments::run_sweep`] call.
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
    /// every call computes fresh (deliberately no process-global memory
    /// cache, so callers comparing thread counts really do recompute).
    pub cache_dir: Option<PathBuf>,
}

impl Default for SweepOpts {
    fn default() -> Self {
        Self {
            trials: 200,
            threads: 0,
            seed: SWEEP_SEED,
            cache_dir: None,
        }
    }
}

/// What a sweep run hands back: the report plus execution metadata the
/// CLI prints out-of-band (metadata never appears in the report, which
/// must be byte-identical across thread counts and cache states).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// The rendered result table.
    pub report: Report,
    /// Whether the table came out of the result cache.
    pub cache_hit: bool,
    /// Number of parallel jobs the plan flattened into.
    pub jobs: usize,
    /// Resolved worker count.
    pub threads: usize,
}

// --- the chunkable sweep kernel -----------------------------------------

type JobFn = Box<dyn Fn(&Job, &mut StdRng) -> Result<Vec<f64>> + Send + Sync>;
type FinalizeFn = Box<dyn Fn(Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>> + Send + Sync>;
type NotesFn = Box<dyn Fn(&[Vec<f64>], &mut Report) + Send + Sync>;

/// One sweep experiment at one parameter point, decomposed into the
/// pieces chunked execution needs: the flattened plan, the cache salt,
/// the per-job map (one `Vec<f64>` per job), the cross-job reduce, and
/// the report notes.
///
/// The contract: [`SweepKernel::run_range`]`(lo, hi)` returns one row per
/// job of the contiguous global-index range `lo..hi`; concatenating every
/// chunk's rows in index order and calling [`SweepKernel::finish`] yields
/// a report **byte-identical** to [`SweepKernel::run_local`]'s, because
/// per-job generators are seeded by global job index (see
/// `cnt_sweep::Executor::run_range`).
///
/// The kernel also owns the chunk format. A chunk is the table of one job
/// range's per-job rows under a content-hash key (the full table's salt
/// extended with the range), so a crashed coordinator re-derives the same
/// keys and recalls finished chunks from a [`ResultStore`]. Every chunk
/// read back, from the store or from a peer, must carry that key, one row
/// per job of its range, and the kernel's per-job columns.
pub struct SweepKernel {
    id: &'static str,
    title: &'static str,
    plan: SweepPlan,
    trials: usize,
    seed: u64,
    threads: usize,
    /// Per-experiment knobs threaded into the cache salt: empty for the
    /// sweeps that run at the paper operating point (which keeps their
    /// historical cache keys); fig04 appends `temp_k=…` so a moved knob
    /// is a different cached artefact even where the plan fingerprint
    /// alone would not separate the two.
    salt_extra: String,
    /// Columns of the final table.
    columns: Vec<&'static str>,
    /// Columns of the per-job rows, the schema of a chunk: the final
    /// columns, unless `finalize` reduces across jobs.
    job_columns: Vec<&'static str>,
    job: JobFn,
    finalize: FinalizeFn,
    notes: NotesFn,
}

/// Writes `table` under `key` to `store`, when there is one, and hands
/// its rows back. A failed write costs only crash resume and recall, not
/// the rows, so it is no error here; the store counts it.
fn keep(store: Option<&ResultStore>, key: &CacheKey, table: Table) -> Vec<Vec<f64>> {
    if let Some(store) = store {
        let _ = store.put(key, &table);
    }
    table.rows
}

impl SweepKernel {
    /// A kernel at `ctx`'s trials, seed and executor width whose per-job
    /// rows are its final rows.
    fn new(
        ctx: &RunContext,
        id: &'static str,
        title: &'static str,
        plan: SweepPlan,
        columns: Vec<&'static str>,
        job: JobFn,
        notes: NotesFn,
    ) -> Self {
        Self {
            id,
            title,
            plan,
            trials: ctx.usize("trials"),
            seed: ctx.u64("seed"),
            threads: ctx.threads,
            salt_extra: String::new(),
            job_columns: columns.clone(),
            columns,
            job,
            finalize: Box::new(Ok),
            notes,
        }
    }

    /// The same kernel with per-job rows of `job_columns`, which
    /// `finalize` reduces across jobs into the final rows.
    fn reduced(self, job_columns: Vec<&'static str>, finalize: FinalizeFn) -> Self {
        Self {
            job_columns,
            finalize,
            ..self
        }
    }

    /// Number of flattened jobs; chunks partition `0..jobs()`.
    pub fn jobs(&self) -> usize {
        self.plan.len()
    }

    /// The plan's content hash: a coordinator and its chunk workers
    /// compare fingerprints before trusting each other's job indices.
    pub fn fingerprint(&self) -> u64 {
        self.plan.fingerprint()
    }

    fn salt(&self) -> String {
        let mut salt = format!("{SWEEP_SALT_VERSION}/{}/trials={}", self.id, self.trials);
        if !self.salt_extra.is_empty() {
            salt.push('/');
            salt.push_str(&self.salt_extra);
        }
        salt
    }

    /// The content-hash identity of chunk `range`.
    fn chunk_key(&self, range: &Range<usize>) -> CacheKey {
        CacheKey::derive(
            &self.plan,
            self.seed,
            &format!("{}/chunk={}..{}", self.salt(), range.start, range.end),
        )
    }

    /// The table of a chunk's `rows` under its `key`.
    fn chunk_table(&self, key: &CacheKey, rows: Vec<Vec<f64>>) -> Table {
        Table {
            key: key.hex(),
            columns: self.job_columns.iter().map(|c| c.to_string()).collect(),
            rows,
        }
    }

    /// Whether `table` has chunk `range`'s shape: one row per job of the
    /// range, the per-job columns. (Its key is checked by the store, or
    /// for a peer's body by [`SweepKernel::accept_chunk`].)
    fn fits(&self, range: &Range<usize>, table: &Table) -> bool {
        let columns = table.columns.iter().map(String::as_str);
        table.rows.len() == range.len() && columns.eq(self.job_columns.iter().copied())
    }

    /// Chunk `range`'s rows from `store`, or `None` when there is no
    /// store or it holds no table this kernel accepts for the range. A
    /// lookup counts as one sweep cache hit or miss.
    pub fn recall_chunk(
        &self,
        store: Option<&ResultStore>,
        range: &Range<usize>,
    ) -> Option<Vec<Vec<f64>>> {
        store?
            .get(&self.chunk_key(range), |table| self.fits(range, table))
            .map(|table| table.rows)
    }

    /// Runs chunk `range` and writes its table to `store`, when there is
    /// one, before handing its rows back (also when the write fails).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn run_chunk(
        &self,
        store: Option<&ResultStore>,
        range: &Range<usize>,
    ) -> Result<Vec<Vec<f64>>> {
        let key = self.chunk_key(range);
        let table = self.chunk_table(&key, self.run_range(range.start, range.end)?);
        Ok(keep(store, &key, table))
    }

    /// The body a chunk worker answers with: chunk `range`'s table.
    pub fn encode_chunk(&self, range: &Range<usize>, rows: Vec<Vec<f64>>) -> String {
        json::encode_table(&self.chunk_table(&self.chunk_key(range), rows))
    }

    /// Checks a chunk worker's body for chunk `range` and writes it to
    /// `store`, when there is one, before handing its rows back (also
    /// when the write fails).
    ///
    /// # Errors
    ///
    /// A body that does not parse or is not this kernel's table for the
    /// range.
    pub fn accept_chunk(
        &self,
        store: Option<&ResultStore>,
        range: &Range<usize>,
        body: &str,
    ) -> Result<Vec<Vec<f64>>> {
        let key = self.chunk_key(range);
        let table = json::decode_table(body)?;
        if table.key != key.hex() || !self.fits(range, &table) {
            return Err(crate::Error::Layer(format!(
                "the body for chunk {}..{} is not {}'s table for that range",
                range.start, range.end, self.id
            )));
        }
        Ok(keep(store, &key, table))
    }

    /// Runs the contiguous job range `lo..hi`, returning one row per job.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors; an empty or out-of-bounds range is an
    /// invalid-parameter error.
    pub fn run_range(&self, lo: usize, hi: usize) -> Result<Vec<Vec<f64>>> {
        Ok(
            Executor::new(self.threads).run_range(&self.plan, self.seed, lo..hi, |job, rng| {
                (self.job)(job, rng)
            })?,
        )
    }

    /// Reduces the full `0..jobs()` concatenation of per-job rows (chunk
    /// results already merged in index order) into the final report.
    ///
    /// # Errors
    ///
    /// Propagates reduce errors.
    pub fn finish(&self, per_job: Vec<Vec<f64>>) -> Result<SweepRun> {
        Ok(self.sweep_run(&(self.finalize)(per_job)?, false))
    }

    /// The single-process run: the whole job range, reduced and rendered.
    /// With a `cache_dir`, the finished table is first looked up in the
    /// [`ResultStore`] there and stored there after a miss; a failed
    /// write, like a chunk's, costs only the next run's recall.
    ///
    /// # Errors
    ///
    /// Propagates kernel and reduce errors.
    pub fn run_local(&self, cache_dir: Option<&Path>) -> Result<SweepRun> {
        let Some(dir) = cache_dir else {
            return self.finish(self.run_range(0, self.jobs())?);
        };
        let store = ResultStore::new(dir);
        let key = CacheKey::derive(&self.plan, self.seed, &self.salt());
        if let Some(table) = store.get(&key, |_| true) {
            return Ok(self.sweep_run(&table.rows, true));
        }
        let table = Table {
            key: key.hex(),
            columns: self.columns.iter().map(|c| c.to_string()).collect(),
            rows: (self.finalize)(self.run_range(0, self.jobs())?)?,
        };
        Ok(self.sweep_run(&keep(Some(&store), &key, table), false))
    }

    /// Renders the final table: its rows, the kernel's notes, and the
    /// provenance trailer every sweep report ends with.
    fn sweep_run(&self, rows: &[Vec<f64>], cache_hit: bool) -> SweepRun {
        let mut report = Report::new(self.id, self.title).with_columns(&self.columns);
        for row in rows {
            report.push_row(row.clone());
        }
        (self.notes)(rows, &mut report);
        report.note(format!(
            "sweep: {} jobs, {} trials, root seed {} — deterministic for any thread count",
            self.jobs(),
            self.trials,
            self.seed
        ));
        SweepRun {
            report,
            cache_hit,
            jobs: self.jobs(),
            threads: Executor::new(self.threads).threads(),
        }
    }
}

// --- fig04: growth ensemble under furnace setpoint jitter ---------------

/// `repro sweep fig04`: the growth-temperature sweep as an ensemble over
/// furnace setpoint control (±3 K, hard-truncated at ±10 K) for both
/// catalysts. The only sweep that honours an experiment knob: `temp_k`
/// moves the top probe of the grid and is threaded into the cache salt
/// (beyond the plan fingerprint, which covers the grid values), so a
/// moved knob is a distinct cached artefact.
pub(super) fn fig04_kernel(ctx: &RunContext) -> Result<SweepKernel> {
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
    let trials = ctx.usize("trials");
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
    let notes: NotesFn = Box::new(move |rows: &[Vec<f64>], rep: &mut Report| {
        if let Some(budget_row) = rows
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
    });
    let title = "CNT growth vs temperature under furnace setpoint jitter (Co vs Fe ensemble)";
    Ok(SweepKernel {
        salt_extra: format!("temp_k={temp_k}"),
        ..SweepKernel::new(ctx, "fig04", title, plan, columns, job, notes)
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

pub(super) fn fig12_kernel(ctx: &RunContext) -> Result<SweepKernel> {
    let plan = fig12_plan();
    let trials = ctx.usize("trials");
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
    let notes: NotesFn = Box::new(|rows: &[Vec<f64>], rep: &mut Report| {
        for &(d, paper) in &[(10.0, 0.10), (14.0, 0.05), (22.0, 0.02)] {
            if let Some(row) = rows
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
    });
    let title = "Delay ratio doped/pristine under CVD diameter scatter (Monte-Carlo)";
    let kernel = SweepKernel::new(ctx, "fig12", title, plan, columns, job, notes);
    Ok(kernel)
}

// --- fig05: wafer-growth uniformity ensemble ----------------------------

pub(super) fn fig05_kernel(ctx: &RunContext) -> Result<SweepKernel> {
    let trials = ctx.usize("trials");
    let plan = SweepPlan::new("sweep.fig05").axis(Axis::trials(trials));
    let columns = vec![
        "r_band_lo",
        "r_band_hi",
        "thickness_mean",
        "thickness_sigma",
        "wafer_cv_mean",
        "wafer_cv_p05",
        "wafer_cv_p95",
    ];
    // One wafer per job: its own seed, its own values.
    let job_columns = vec![
        "wafer_cv",
        "band0_mean",
        "band1_mean",
        "band2_mean",
        "band3_mean",
        "band4_mean",
    ];
    // The site layout does not depend on a wafer's seed: built once, each
    // job draws only its values on it.
    let layout = WaferLayout::new(0.3, 121)?;
    let job: JobFn = Box::new(move |_: &Job, rng: &mut StdRng| -> Result<Vec<f64>> {
        let values = layout.values(1.0, 0.05, 0.015, rng.gen::<u64>())?;
        let mut out = vec![UniformityReport::from_values(&values)?.cv];
        for band in 0..5 {
            let lo = band as f64 * 0.2;
            out.push(layout.band_mean(&values, lo, lo + 0.2).unwrap_or(f64::NAN));
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
    let notes: NotesFn = Box::new(|rows: &[Vec<f64>], rep: &mut Report| {
        if let Some(first) = rows.first() {
            rep.note(format!(
                "within-wafer CV across the ensemble: mean {:.2} %, p05 {:.2} %, p95 {:.2} %",
                first[4] * 100.0,
                first[5] * 100.0,
                first[6] * 100.0
            ));
            let center = first[2];
            let edge = rows.last().expect("five bands")[2];
            rep.note(format!(
                "radial signature is systematic, not noise: edge band {:.3} vs centre {:.3} in every wafer",
                edge, center
            ));
        }
    });
    let title = "300 mm wafer growth uniformity across a wafer ensemble";
    let kernel = SweepKernel::new(ctx, "fig05", title, plan, columns, job, notes);
    Ok(kernel.reduced(job_columns, finalize))
}

// --- fig06/fig07: Cu impregnation under volume-fraction scatter ---------

#[derive(Clone, Copy)]
pub(super) enum FillVariant {
    /// Fig. 6: electroless, vertical carpet, no seed.
    Eld,
    /// Fig. 7: electrochemical, horizontal bundle, conductive seed.
    Ecd,
}

pub(super) fn fill_kernel(ctx: &RunContext, variant: FillVariant) -> Result<SweepKernel> {
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
    let trials = ctx.usize("trials");
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
    let notes: NotesFn = Box::new(move |rows: &[Vec<f64>], rep: &mut Report| match variant {
        FillVariant::Eld => rep.note(
            "ELD keeps its overburden at every aspect ratio; fill spread tracks carpet density"
                .to_string(),
        ),
        FillVariant::Ecd => {
            let min_yield = rows.iter().map(|r| r[5]).fold(f64::INFINITY, f64::min);
            rep.note(format!(
                "ECD void-free yield under density scatter: worst aspect ratio still yields {:.1} %",
                min_yield * 100.0
            ));
        }
    });
    Ok(SweepKernel::new(ctx, id, title, plan, columns, job, notes))
}

// --- fig13a: EM-layout line resistance under film + CD variation --------

pub(super) fn fig13a_kernel(ctx: &RunContext) -> Result<SweepKernel> {
    let plan = SweepPlan::new("sweep.fig13a")
        .axis(Axis::grid("width_nm", &[50.0, 100.0, 200.0, 500.0, 1000.0]));
    let columns = vec![
        "width_nm",
        "R_mean_ohm",
        "R_sigma_ohm",
        "R_p05_ohm",
        "R_p95_ohm",
    ];
    let trials = ctx.usize("trials");
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
    let notes: NotesFn = Box::new(|rows: &[Vec<f64>], rep: &mut Report| {
        if let Some(first) = rows.first() {
            rep.note(format!(
                "50 nm e-beam reference line: R = {:.0} Ω ± {:.0} Ω — the spread EM pre-screening must tolerate",
                first[1], first[2]
            ));
        }
        rep.note(
            "relative spread shrinks with width: narrow lines are CD-limited, wide lines film-limited",
        );
    });
    let title = "EM layout single lines: resistance distribution under CD + film variation";
    let kernel = SweepKernel::new(ctx, "fig13a", title, plan, columns, job, notes);
    Ok(kernel)
}

// --- fig13b: wafer-characterization ensemble ----------------------------

pub(super) fn fig13b_kernel(ctx: &RunContext) -> Result<SweepKernel> {
    let trials = ctx.usize("trials");
    let plan = SweepPlan::new("sweep.fig13b")
        .axis(Axis::grid("setup", &[0.0, 1.0]))
        .axis(Axis::trials(trials));
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
    let job_columns = vec!["setup", "median_R", "R_cv", "ttf_h", "em_yield"];
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
    let notes: NotesFn = Box::new(|rows: &[Vec<f64>], rep: &mut Report| {
        if rows.len() == 2 {
            let gain = rows[1][4] / rows[0][4];
            rep.note(format!(
                "EM lifetime gain across the ensemble: {gain:.0}× (wafer-to-wafer spread now quantified, not a single-wafer anecdote)"
            ));
        }
    });
    let title = "Wafer-characterization ensemble: Cu reference vs Cu-CNT composite";
    let kernel = SweepKernel::new(ctx, "fig13b", title, plan, columns, job, notes);
    Ok(kernel.reduced(job_columns, finalize))
}

// --- variability: the Section II.A device Monte-Carlo -------------------

fn variability_kernel(ctx: &RunContext) -> Result<SweepKernel> {
    let trials = ctx.usize("trials");
    let plan = SweepPlan::new("sweep.variability")
        .axis(Axis::grid("nc", &[0.0, 4.0, 6.0, 10.0]))
        .axis(Axis::trials(trials));
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
    // One sampled device per job.
    let job_columns = vec!["nc", "R_ohm"];
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
    let notes: NotesFn = Box::new(|rows: &[Vec<f64>], rep: &mut Report| {
        if rows.len() == 4 {
            let pristine_cv = rows[0][4];
            let doped6_cv = rows[2][4];
            rep.note(format!(
                "doping to 6 channels/shell cuts the resistance CV from {pristine_cv:.2} to {doped6_cv:.2} — the paper's 'overcome the variability of resistance … by doping'"
            ));
        }
        rep.note("nc = 0 rows are the pristine (as-grown) population; the chirality lottery drives its heavy tail");
    });
    let title = VARIABILITY_TITLE;
    let kernel = SweepKernel::new(ctx, "variability", title, plan, columns, job, notes);
    Ok(kernel.reduced(job_columns, finalize))
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
        use crate::experiments::{chunkable_sweep, registry};
        let dir = std::env::temp_dir().join(format!("cnt-sweep-fig04-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exp = registry().get("fig04").unwrap();
        let run = |ctx: &RunContext| {
            chunkable_sweep("fig04", ctx)
                .unwrap()
                .run_local(Some(&dir))
                .unwrap()
        };
        let mut ctx = RunContext::defaults(exp.params());
        ctx.set(exp.params(), "trials", "6").unwrap();
        ctx.threads = 2;
        let base = run(&ctx);
        assert!(!base.cache_hit);
        // The knob reaches the kernel: the top probe row moves.
        ctx.set(exp.params(), "temp_k", "1000").unwrap();
        let moved = run(&ctx);
        assert!(!moved.cache_hit, "temp_k must salt the cache key");
        assert_ne!(base.report.render(), moved.report.render());
        let top = moved.report.rows[6][1];
        assert!((top - 726.85).abs() < 1e-9, "top probe at {top} °C");
        // Back at the default knob, the first run is recalled from disk.
        ctx.set(exp.params(), "temp_k", "923.15").unwrap();
        let recalled = run(&ctx);
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

    /// Rows with every NaN alike (JSON carries NaN as `null`), bit-exact
    /// otherwise.
    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<Option<u64>>> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|v| (!v.is_nan()).then(|| v.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_family_recalls_its_chunks_and_accepts_its_own_bodies() {
        use crate::experiments::{chunkable_sweep, resolve_context};
        let dir =
            std::env::temp_dir().join(format!("cnt-sweep-chunks-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::new(&dir);
        let sets: Vec<(String, String)> = [("trials", "6"), ("seed", "7")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        for id in sweep_catalog() {
            let (_, ctx) = resolve_context(id, None, &sets).unwrap();
            let sweep = chunkable_sweep(id, &ctx).unwrap();
            let ranges = cnt_sweep::chunk_ranges(sweep.jobs(), 3);
            for range in &ranges {
                assert!(sweep.recall_chunk(Some(&store), range).is_none());
                let rows = sweep.run_chunk(Some(&store), range).unwrap();
                assert_eq!(rows.len(), range.len());
                // What a coordinator stored, it recalls: per-job rows carry
                // the per-job columns, so the codec's row-width check holds
                // for the families whose reduce narrows to fewer columns.
                let recalled = sweep.recall_chunk(Some(&store), range);
                let recalled = recalled.unwrap_or_else(|| panic!("{id} {range:?}: not recalled"));
                assert_eq!(bits(&recalled), bits(&rows), "{id} {range:?}");
                // What a worker encodes, the coordinator accepts.
                let body = sweep.encode_chunk(range, rows.clone());
                let accepted = sweep.accept_chunk(None, range, &body).unwrap();
                assert_eq!(bits(&accepted), bits(&rows), "{id} {range:?}");
                // A body is the chunk of one range only.
                let other = ranges.iter().find(|r| *r != range).unwrap();
                assert!(sweep.accept_chunk(None, other, &body).is_err(), "{id}");
                assert!(sweep.accept_chunk(None, range, "{}").is_err(), "{id}");
            }
        }
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
        let sets: Vec<(String, String)> = [("trials", "6"), ("seed", "7")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        for id in sweep_catalog() {
            let (_, mut ctx) = resolve_context(id, None, &sets).unwrap();
            ctx.threads = 2;
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
            // Chunk keys are distinct from each other.
            assert_ne!(chunked.chunk_key(&(0..1)), chunked.chunk_key(&(1..2)));
        }
        // Non-sweep ids keep the canonical error shape.
        let (_, ctx) = resolve_context("fig03", None, &[]).unwrap();
        match chunkable_sweep("fig03", &ctx) {
            Err(e) => assert!(e.to_string().contains("no sweep variant"), "{e}"),
            Ok(_) => panic!("fig03 must not be chunkable"),
        }
    }
}
