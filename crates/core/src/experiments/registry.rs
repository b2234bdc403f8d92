//! The experiment registry: one table from which listing, dispatch,
//! alias resolution, and the sweep catalog all derive.
//!
//! Every paper artefact (and every extra named study) is registered
//! exactly once, in its figure module, as an [`Experiment`] carrying its id,
//! title, paper-order rank, [`ParamSpec`], run function, and — when a
//! Monte-Carlo variant exists — its sweep kernel constructor. [`registry`]
//! builds the table once per process and asserts its invariants (unique
//! ids, unique ranks, defaults within bounds), so there is no second id
//! list anywhere to drift out of sync.

use super::params::{ParamSpec, RunContext, COMMON_KEYS};
use super::report::Report;
use super::sweep_figs::SweepKernel;
use crate::{Error, Result};
use std::sync::OnceLock;

/// Builds a sweep kernel at a parameter point.
type KernelFn = fn(&RunContext) -> Result<SweepKernel>;

/// One runnable paper artefact or named study: a registry row, which its
/// figure module builds.
pub struct Experiment {
    rank: u32,
    id: &'static str,
    title: &'static str,
    extra: bool,
    spec: ParamSpec,
    run_fn: fn(&RunContext) -> Result<Report>,
    /// The sweep kernel constructor, and the experiment knobs beyond
    /// [`COMMON_KEYS`] it honours.
    sweep: Option<(KernelFn, &'static [&'static str])>,
}

impl Experiment {
    /// A primary (paper-ordered) experiment. `rank` fixes catalog order.
    pub(super) fn new(
        rank: u32,
        id: &'static str,
        title: &'static str,
        spec: ParamSpec,
        run_fn: fn(&RunContext) -> Result<Report>,
    ) -> Self {
        Self {
            rank,
            id,
            title,
            extra: false,
            spec,
            run_fn,
            sweep: None,
        }
    }

    /// Marks this entry as an extra named study (listed after the paper
    /// artefacts).
    pub(super) fn extra(mut self) -> Self {
        self.extra = true;
        self
    }

    /// Attaches a Monte-Carlo sweep variant: its kernel constructor and
    /// the experiment knobs, beyond [`COMMON_KEYS`], that the kernel
    /// reads (and salts into its cache key). Any other explicitly set
    /// knob is refused: the sweep runs at the paper operating point.
    pub(super) fn with_sweep(mut self, kernel: KernelFn, honours: &'static [&'static str]) -> Self {
        self.sweep = Some((kernel, honours));
        self
    }

    /// Stable experiment id (`"fig12"`, `"table1"`, …).
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// Human-readable title; equals the default report's title.
    pub fn title(&self) -> &'static str {
        self.title
    }

    /// True for extra named studies that back prose claims rather than
    /// numbered paper artefacts (`"stability"`, `"variability"`).
    pub fn is_extra(&self) -> bool {
        self.extra
    }

    /// The declared parameter surface (common knobs plus per-experiment
    /// overrides).
    pub fn params(&self) -> &ParamSpec {
        &self.spec
    }

    /// Runs the experiment under `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates the experiment's own model errors.
    pub fn run(&self, ctx: &RunContext) -> Result<Report> {
        let mut report = (self.run_fn)(ctx)?;
        // Titles and prose describe the paper operating point; when the
        // context moved off it, say so in the report itself (default runs
        // carry no explicit overrides, so their output is untouched).
        let explicit = ctx.params.explicit_keys();
        if !explicit.is_empty() {
            let listed: Vec<String> = explicit
                .iter()
                .filter_map(|key| ctx.params.get(key).map(|v| format!("{key} = {v}")))
                .collect();
            report.note(format!("parameter overrides: {}", listed.join(", ")));
        }
        Ok(report)
    }

    /// True when a Monte-Carlo sweep variant exists
    /// (see [`super::chunkable_sweep`]).
    pub fn has_sweep(&self) -> bool {
        self.sweep.is_some()
    }
}

/// The experiment catalog, in paper order with extras at the end.
pub struct Registry {
    entries: Vec<Experiment>,
}

impl Registry {
    fn build() -> Self {
        let mut entries: Vec<Experiment> = Vec::new();
        entries.extend(super::reliability_figs::entries());
        entries.extend(super::technology_figs::entries());
        entries.extend(super::measure_figs::entries());
        entries.extend(super::process_figs::entries());
        entries.extend(super::atomistic_figs::entries());
        entries.extend(super::circuit_figs::entries());
        entries.extend(super::sweep_figs::entries());
        entries.sort_by_key(|e| e.rank);
        for pair in entries.windows(2) {
            assert_ne!(
                pair[0].rank, pair[1].rank,
                "duplicate rank {}",
                pair[0].rank
            );
            assert!(
                pair[1].extra || !pair[0].extra,
                "extra '{}' ranked before primary '{}'",
                pair[0].id,
                pair[1].id
            );
        }
        for (i, e) in entries.iter().enumerate() {
            assert!(
                entries[..i].iter().all(|prior| prior.id != e.id),
                "experiment id '{}' registered twice",
                e.id
            );
            for def in e.spec.defs() {
                let mut probe = RunContext::defaults(&e.spec);
                probe
                    .set_value(&e.spec, def.key, def.default.clone())
                    .unwrap_or_else(|err| {
                        panic!(
                            "'{}' default for '{}' violates its own bounds: {err}",
                            e.id, def.key
                        )
                    });
            }
            for (i, preset) in e.spec.presets().iter().enumerate() {
                assert!(
                    e.spec.presets()[..i].iter().all(|p| p.name != preset.name),
                    "'{}' declares preset '{}' twice",
                    e.id,
                    preset.name
                );
                let mut probe = RunContext::defaults(&e.spec);
                probe
                    .apply_preset(&e.spec, preset.name)
                    .unwrap_or_else(|err| {
                        panic!("'{}' preset '{}' cannot apply: {err}", e.id, preset.name)
                    });
            }
        }
        Self { entries }
    }

    /// All experiments, catalog order.
    pub fn iter(&self) -> impl Iterator<Item = &Experiment> {
        self.entries.iter()
    }

    /// Every runnable id, catalog order (paper artefacts, then extras).
    pub fn ids(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|e| e.id)
    }

    /// The ids with a Monte-Carlo sweep variant, catalog order.
    pub fn sweep_ids(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries
            .iter()
            .filter(|e| e.sweep.is_some())
            .map(|e| e.id)
    }

    /// Resolves one experiment by id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownExperiment`] naming the bad id.
    pub fn get(&self, id: &str) -> Result<&Experiment> {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| Error::UnknownExperiment(id.to_string()))
    }

    /// `id`'s sweep kernel constructor, once `ctx` is known to set no
    /// knob the sweep ignores — the one override rule for every sweep.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownExperiment`] for an unknown id,
    /// [`Error::Layer`] naming the valid ids when the experiment has no
    /// sweep variant, and [`Error::InvalidOverride`] for an explicitly set
    /// knob the sweep does not honour.
    pub(super) fn sweep_kernel(&self, id: &str, ctx: &RunContext) -> Result<KernelFn> {
        let Some((kernel, honours)) = self.get(id)?.sweep else {
            return Err(Error::Layer(format!(
                "'{id}' has no sweep variant (valid: {})",
                self.sweep_ids().collect::<Vec<_>>().join(" ")
            )));
        };
        let honoured = |key: &&str| COMMON_KEYS.contains(key) || honours.contains(key);
        if let Some(key) = ctx.params.explicit_keys().iter().find(|k| !honoured(k)) {
            let valid: Vec<&str> = COMMON_KEYS.iter().chain(honours).copied().collect();
            return Err(Error::InvalidOverride {
                key: key.to_string(),
                reason: format!(
                    "the sweep variant of '{id}' runs at the paper operating point; only {} apply",
                    valid.join("/")
                ),
            });
        }
        Ok(kernel)
    }
}

/// The process-wide registry, built on first use.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::build)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_orders_primaries_before_extras() {
        let reg = registry();
        let split = reg
            .iter()
            .position(|e| e.is_extra())
            .expect("extras registered");
        assert!(
            reg.iter().skip(split).all(|e| e.is_extra()),
            "an extra is ranked before a primary"
        );
        assert_eq!(
            reg.ids().next(),
            Some("table1"),
            "paper order starts at table1"
        );
    }

    #[test]
    fn sweep_ids_are_a_strict_subset_of_the_catalog() {
        let reg = registry();
        let all: Vec<&str> = reg.ids().collect();
        let sweeps: Vec<&str> = reg.sweep_ids().collect();
        assert!(!sweeps.is_empty());
        assert!(sweeps.len() < all.len(), "strict subset");
        for id in &sweeps {
            assert!(all.contains(id), "sweep id {id} not in catalog");
            assert!(reg.get(id).unwrap().has_sweep());
        }
    }

    #[test]
    fn unknown_ids_name_themselves_in_the_error() {
        let err = registry().get("fig99").map(|e| e.id()).unwrap_err();
        assert_eq!(err, Error::UnknownExperiment("fig99".to_string()));
        assert!(err.to_string().contains("'fig99'"), "{err}");
    }

    #[test]
    fn sweep_variant_rejects_non_common_overrides() {
        let reg = registry();
        let refused = |id: &str, key: &str, raw: &str| {
            let exp = reg.get(id).unwrap();
            let mut ctx = RunContext::defaults(exp.params());
            ctx.set(exp.params(), key, raw).unwrap();
            crate::experiments::chunkable_sweep(id, &ctx).err()
        };
        match refused("fig12", "nc", "6") {
            Some(Error::InvalidOverride { key, reason }) => {
                assert_eq!(key, "nc");
                assert!(reason.contains("only trials/seed apply"), "{reason}");
            }
            other => panic!("wrong outcome: {:?}", other.map(|e| e.to_string())),
        }
        // fig04 honours its own temp_k knob; the common knobs always apply.
        assert!(refused("fig04", "temp_k", "1000").is_none());
        assert!(refused("fig12", "trials", "7").is_none());
        assert!(refused("fig12", "seed", "7").is_none());
    }
}
