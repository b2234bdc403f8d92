//! One entry point per paper artefact, behind a trait-based registry.
//!
//! Every figure and quantitative prose claim of the paper is registered
//! exactly once as an [`Experiment`]: an id, a title, a typed
//! [`ParamSpec`] of overridable knobs, a run function returning a
//! structured [`Report`], and — for ensemble artefacts — a
//! [`SweepKernel`] constructor for the `cnt-sweep` pool. Listing,
//! dispatch, and the sweep catalog all derive from the one table behind
//! [`registry`]; the experiment ids match the index in `DESIGN.md §4`.
//!
//! The `cnt-bench` `repro` binary renders reports as text (byte-stable
//! across releases), JSON (versioned, see [`mod@format`]), or CSV:
//!
//! ```text
//! repro fig12 --set length_um=200 --set nc=6 --format json
//! repro fig08a --threads 4
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
pub use registry::{registry, Experiment, Registry};
pub use reliability_figs::{fig03, fig13a, fig13b, stability, table1};
pub use report::Report;
pub use sweep_figs::{SweepKernel, SweepOpts, SweepRun};
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

/// Runs one experiment at a parameter point as the versioned JSON
/// document (single line, no trailing newline) — what
/// `repro <id> --format json` prints and what
/// `POST /v1/experiments/{id}/run` serves.
///
/// # Errors
///
/// As for [`resolve_context`]; propagates the experiment's own errors.
pub fn run_to_json(id: &str, preset: Option<&str>, sets: &[(String, String)]) -> Result<String> {
    let (exp, ctx) = resolve_context(id, preset, sets)?;
    Ok(exp.run(&ctx)?.render_as(OutputFormat::Json))
}

/// Runs the sweep variant of one experiment id in this process: `trials`
/// and `seed` are its parameter point, `threads` the executor width, and
/// `cache_dir` the optional on-disk result cache.
///
/// # Errors
///
/// Returns [`crate::Error::UnknownExperiment`] for an unknown id, a
/// [`crate::Error::Layer`] naming the valid ids when the experiment has
/// no sweep variant, [`crate::Error::InvalidOverride`] for out-of-range
/// knobs (e.g. zero trials), and propagates kernel errors.
pub fn run_sweep(id: &str, opts: &SweepOpts) -> Result<SweepRun> {
    let sets = [
        ("trials".to_string(), opts.trials.to_string()),
        ("seed".to_string(), opts.seed.to_string()),
    ];
    let (_, mut ctx) = resolve_context(id, None, &sets)?;
    ctx.threads = opts.threads;
    chunkable_sweep(id, &ctx)?.run_local(opts.cache_dir.as_deref())
}

/// Builds the sweep kernel of `id` at the parameter point `ctx` (made by
/// [`resolve_context`], the gate every entry shares) — the one way to get
/// a kernel: local runs, served jobs, fleet chunks and journal recovery
/// all come through here.
///
/// A sweep runs at the paper operating point: besides `trials` and
/// `seed` it honours only the knobs its registry entry names (`temp_k`
/// for fig04), and an explicitly set knob outside those is refused
/// rather than silently dropped.
///
/// A sweep is its own artefact, so a `seed` left unset starts it from
/// root seed 42, as [`SweepOpts::default`] does, not from the seed an
/// experiment declares for its plain run (fig05's, fig13b's).
///
/// # Errors
///
/// Returns [`crate::Error::UnknownExperiment`] for an unknown id,
/// [`crate::Error::Layer`] naming the valid ids when the experiment has
/// no sweep variant, [`crate::Error::InvalidOverride`] for a knob the
/// sweep does not honour, and propagates kernel construction errors.
pub fn chunkable_sweep(id: &str, ctx: &RunContext) -> Result<SweepKernel> {
    let kernel = registry().sweep_kernel(id, ctx)?;
    if ctx.params.explicit_keys().contains(&"seed") {
        return kernel(ctx);
    }
    let mut ctx = ctx.clone();
    let seed = ParamValue::Int(sweep_figs::SWEEP_SEED as i64);
    ctx.set_value(registry().get(id)?.params(), "seed", seed)?;
    kernel(&ctx)
}

/// Applies [`chunkable_sweep`]'s checks without building the kernel —
/// for callers that accept a sweep now and build it later, under a
/// compute permit.
///
/// # Errors
///
/// As for [`chunkable_sweep`], minus kernel construction errors.
pub fn check_sweep(id: &str, ctx: &RunContext) -> Result<()> {
    registry().sweep_kernel(id, ctx).map(drop)
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
