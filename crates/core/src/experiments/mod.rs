//! One entry point per paper artefact, behind a trait-based registry.
//!
//! Every figure and quantitative prose claim of the paper is registered
//! exactly once as an [`Experiment`]: an id, a title, a typed
//! [`ParamSpec`] of overridable knobs, a run function returning a
//! structured [`Report`], and — for ensemble artefacts — a
//! [`SweepExperiment`] variant on the `cnt-sweep` pool. Listing,
//! dispatch, and the sweep catalog all derive from the one table behind
//! [`registry`]; the experiment ids match the index in `DESIGN.md §4` and
//! `EXPERIMENTS.md`.
//!
//! The `cnt-bench` `repro` binary renders reports as text (byte-stable
//! across releases), JSON (versioned, see [`format`]), or CSV:
//!
//! ```text
//! repro fig12 --set length_um=200 --set nc=6 --format json
//! ```
//!
//! The zero-argument functions ([`fig12()`], [`table1()`], …) remain as
//! the stable shorthand for "run at the paper operating point".

mod atomistic_figs;
mod circuit_figs;
pub mod format;
mod measure_figs;
pub mod params;
mod process_figs;
mod registry;
mod reliability_figs;
mod report;
mod sweep_figs;
mod technology_figs;

pub use atomistic_figs::{fig08a, fig08b, fig08b_structures, fig08c};
pub use circuit_figs::{fig09, fig10, fig11, fig12};
pub use format::OutputFormat;
pub use measure_figs::{fig02d, selfheat, tlm};
pub use params::{ParamSpec, ParamValue, Params, Preset, RunContext};
pub use process_figs::{fig04, fig05, fig06, fig07};
pub use registry::{registry, Experiment, Registry, SweepExperiment};
pub use reliability_figs::{fig03, fig13a, fig13b, stability, table1};
pub use report::Report;
pub use sweep_figs::{SweepOpts, SweepRun};
pub use technology_figs::fig01;

use crate::Result;

/// Every runnable experiment id, catalog order: the paper-ordered
/// artefacts followed by the extra named studies. Derived from
/// [`registry`] — there is no second id list to drift.
pub fn catalog() -> impl Iterator<Item = &'static str> {
    registry().ids()
}

/// The ids with a Monte-Carlo sweep variant, catalog order (a strict
/// subset of [`catalog`]).
pub fn sweep_catalog() -> impl Iterator<Item = &'static str> {
    registry().sweep_ids()
}

/// Runs one experiment by id at its default (paper) operating point.
///
/// # Errors
///
/// Returns [`crate::Error::UnknownExperiment`] naming the bad id, and
/// propagates the experiment's own errors.
pub fn run(id: &str) -> Result<Report> {
    let exp = registry().get(id)?;
    exp.run(&RunContext::defaults(exp.params()))
}

/// Resolves an experiment and builds its validated [`RunContext`] from an
/// optional named preset plus raw `key=value` overrides — the one
/// parameter-point gate shared by the `repro` CLI and the `cnt-serve`
/// HTTP server (the preset expands first, so explicit overrides win).
///
/// # Errors
///
/// Returns [`crate::Error::UnknownExperiment`] for an unknown id and
/// [`crate::Error::InvalidOverride`] for an unknown preset, an unknown
/// key, or an out-of-range value.
pub fn resolve_context(
    id: &str,
    preset: Option<&str>,
    sets: &[(String, String)],
) -> Result<(&'static dyn Experiment, RunContext)> {
    let exp = registry().get(id)?;
    let mut ctx = RunContext::defaults(exp.params());
    if let Some(name) = preset {
        ctx.apply_preset(exp.params(), name)?;
    }
    for (key, raw) in sets {
        ctx.set(exp.params(), key, raw)?;
    }
    Ok((exp, ctx))
}

/// Runs one experiment at a parameter point and renders it in `format`.
///
/// # Errors
///
/// As for [`resolve_context`]; propagates the experiment's own errors.
pub fn run_rendered(
    id: &str,
    preset: Option<&str>,
    sets: &[(String, String)],
    format: OutputFormat,
) -> Result<String> {
    let (exp, ctx) = resolve_context(id, preset, sets)?;
    Ok(exp.run(&ctx)?.render_as(format))
}

/// [`run_rendered`] fixed to the versioned JSON document (single line, no
/// trailing newline) — what `repro <id> --format json` prints and what
/// `POST /v1/experiments/{id}/run` serves.
///
/// # Errors
///
/// As for [`run_rendered`].
pub fn run_to_json(id: &str, preset: Option<&str>, sets: &[(String, String)]) -> Result<String> {
    run_rendered(id, preset, sets, OutputFormat::Json)
}

/// Runs the sweep variant of one experiment id.
///
/// # Errors
///
/// Returns [`crate::Error::UnknownExperiment`] for an unknown id, a
/// [`crate::Error::Layer`] naming the valid ids when the experiment has
/// no sweep variant, [`crate::Error::InvalidOverride`] for out-of-range
/// knobs (e.g. zero trials), and propagates kernel errors.
pub fn run_sweep(id: &str, opts: &SweepOpts) -> Result<SweepRun> {
    let (exp, sweep) = sweep_variant(id)?;
    let mut ctx = RunContext::defaults(exp.params());
    ctx.apply_sweep_opts(exp.params(), opts)?;
    sweep.run_sweep(&ctx)
}

/// A sweep experiment opened up for chunked (fleet-distributed)
/// execution: the one definition behind `repro sweep` split at a
/// job-range seam.
///
/// The contract: `run_range(lo, hi)` returns one `Vec<f64>` per job of
/// the contiguous global-index range `lo..hi`; concatenating every
/// chunk's rows in index order and calling [`ChunkableSweep::finish`]
/// yields a [`SweepRun`] whose report is **byte-identical** to the
/// single-instance run, because per-job generators are seeded by global
/// job index. [`ChunkableSweep::chunk_key`] gives each chunk a
/// content-hash cache identity so a crashed coordinator can recall
/// completed chunks from a `cnt_sweep::ResultStore` instead of
/// recomputing them.
pub struct ChunkableSweep {
    kernel: sweep_figs::SweepKernel,
}

impl ChunkableSweep {
    /// Number of flattened jobs; chunks partition `0..jobs()`.
    pub fn jobs(&self) -> usize {
        self.kernel.jobs()
    }

    /// The plan's content hash — coordinator and chunk workers compare
    /// fingerprints before trusting each other's job indices.
    pub fn fingerprint(&self) -> u64 {
        self.kernel.fingerprint()
    }

    /// Resolved worker thread count for this context.
    pub fn threads(&self) -> usize {
        self.kernel.threads()
    }

    /// The cache identity of one chunk's per-job rows.
    pub fn chunk_key(&self, lo: usize, hi: usize) -> cnt_sweep::CacheKey {
        self.kernel.chunk_key(lo, hi)
    }

    /// Column names of per-job rows (the final table's schema); chunk
    /// tables exchanged between instances carry these columns.
    pub fn columns(&self) -> Vec<String> {
        self.kernel.columns()
    }

    /// Runs jobs `lo..hi`, returning one row per job.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors; an empty or out-of-bounds range is an
    /// invalid-parameter error.
    pub fn run_range(&self, lo: usize, hi: usize) -> Result<Vec<Vec<f64>>> {
        self.kernel.run_range(lo, hi)
    }

    /// Probes the full-table result cache; `Some` recalls a finished run.
    pub fn cached_run(&self) -> Option<SweepRun> {
        self.kernel.cached_run()
    }

    /// Reduces the full per-job concatenation into the final report,
    /// storing the table under the same cache key a local run would use.
    ///
    /// # Errors
    ///
    /// Propagates reduce and store errors.
    pub fn finish(&self, per_job: Vec<Vec<f64>>) -> Result<SweepRun> {
        self.kernel.finish(per_job)
    }
}

/// Opens a sweep id for chunked execution at the parameter point `ctx`
/// (built by [`resolve_context`] — the same validation gate as every
/// other entry).
///
/// # Errors
///
/// Returns [`crate::Error::UnknownExperiment`] for an unknown id and
/// [`crate::Error::Layer`] when the experiment has no sweep variant, like
/// [`sweep_variant`]; propagates kernel construction errors.
pub fn chunkable_sweep(id: &str, ctx: &RunContext) -> Result<ChunkableSweep> {
    sweep_variant(id)?;
    let kernel = sweep_figs::kernel_for(id, ctx)
        .unwrap_or_else(|| panic!("sweep id '{id}' passed sweep_variant but has no kernel"))?;
    Ok(ChunkableSweep { kernel })
}

/// Resolves an experiment and its sweep variant (the one gate both the
/// library dispatcher and the CLI use).
///
/// # Errors
///
/// Returns [`crate::Error::UnknownExperiment`] for an unknown id and
/// [`crate::Error::Layer`] naming the valid ids when the experiment has
/// no sweep variant.
pub fn sweep_variant(id: &str) -> Result<(&'static dyn Experiment, &'static dyn SweepExperiment)> {
    let exp = registry().get(id)?;
    let sweep = exp.sweep().ok_or_else(|| {
        crate::Error::Layer(format!(
            "'{id}' has no sweep variant (valid: {})",
            sweep_catalog().collect::<Vec<_>>().join(" ")
        ))
    })?;
    Ok((exp, sweep))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatcher_knows_every_id() {
        for exp in registry().iter() {
            let id = exp.id();
            let rep = run(id).unwrap_or_else(|e| panic!("{id} failed: {e}"));
            assert_eq!(rep.id, id);
            assert_eq!(rep.title, exp.title(), "{id} title drifted from its entry");
            assert!(
                !rep.rows.is_empty() || !rep.notes.is_empty(),
                "{id} is empty"
            );
        }
        let err = run("nope").unwrap_err();
        assert_eq!(err, crate::Error::UnknownExperiment("nope".to_string()));
    }

    #[test]
    fn catalog_is_primaries_then_extras() {
        let ids: Vec<&str> = catalog().collect();
        let extras: Vec<&str> = registry()
            .iter()
            .filter(|e| e.is_extra())
            .map(|e| e.id())
            .collect();
        assert_eq!(ids.len(), registry().iter().count());
        assert_eq!(extras, ["stability", "variability"]);
        assert_eq!(&ids[ids.len() - extras.len()..], &extras[..]);
        // Extras never shadow a primary id: the registry holds each id
        // exactly once.
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn sweep_ids_are_a_strict_subset_of_the_catalog() {
        let ids: Vec<&str> = catalog().collect();
        let sweeps: Vec<&str> = sweep_catalog().collect();
        assert_eq!(
            sweeps,
            [
                "fig04",
                "fig05",
                "fig06",
                "fig07",
                "fig12",
                "fig13a",
                "fig13b",
                "variability"
            ]
        );
        for id in &sweeps {
            assert!(ids.contains(id), "sweep id {id} not runnable");
        }
        assert!(sweeps.len() < ids.len());
    }

    #[test]
    fn resolve_context_and_run_to_json_share_one_gate() {
        // Preset expands first, explicit overrides win.
        let sets = vec![("nc".to_string(), "4".to_string())];
        let (exp, ctx) = resolve_context("fig12", Some("doped-local"), &sets).unwrap();
        assert_eq!(exp.id(), "fig12");
        assert_eq!(ctx.f64("length_um"), 25.0);
        assert_eq!(ctx.usize("nc"), 4);
        // The JSON entry point is exactly the default report's document.
        let via_entry = run_to_json("table1", None, &[]).unwrap();
        assert_eq!(via_entry, run("table1").unwrap().to_json());
        // Errors keep their canonical shapes.
        assert_eq!(
            resolve_context("nope", None, &[]).map(|_| ()).unwrap_err(),
            crate::Error::UnknownExperiment("nope".to_string())
        );
        let bad_preset = resolve_context("table1", Some("bogus"), &[])
            .map(|_| ())
            .unwrap_err()
            .to_string();
        assert!(
            bad_preset.contains("'bogus'") && bad_preset.contains("projected"),
            "{bad_preset}"
        );
    }

    #[test]
    fn run_sweep_rejects_unknown_ids_sweepless_ids_and_zero_trials() {
        let opts = SweepOpts::default();
        assert_eq!(
            run_sweep("nope", &opts).unwrap_err(),
            crate::Error::UnknownExperiment("nope".to_string())
        );
        let sweepless = run_sweep("fig03", &opts).unwrap_err().to_string();
        assert!(sweepless.contains("no sweep variant"), "{sweepless}");
        assert!(sweepless.contains("fig12"), "{sweepless}");
        let zero = SweepOpts {
            trials: 0,
            ..SweepOpts::default()
        };
        assert!(run_sweep("fig12", &zero).is_err());
    }
}
