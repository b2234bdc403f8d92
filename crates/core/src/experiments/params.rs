//! Typed experiment parameters.
//!
//! Every experiment in the registry declares its knobs as a [`ParamSpec`]:
//! a list of [`ParamDef`]s with a key, a documented meaning, a typed
//! default, and inclusive numeric bounds. The CLI turns `--set key=value`
//! overrides into a validated [`Params`] bag inside a [`RunContext`];
//! unknown keys and out-of-range values are rejected with
//! [`crate::Error::InvalidOverride`] *before* the experiment runs, so a
//! kernel never sees an undeclared or out-of-domain value.
//!
//! The parameter point names exactly what sets a report's bytes. Two
//! knobs are common to every experiment — `trials` and `seed` — because
//! they fix a Monte-Carlo ensemble. Experiments whose kernels are
//! deterministic simply ignore them; experiments with a different
//! historical seed re-declare `seed` with their own default so the
//! default run stays byte-identical to the paper artefact. How a run
//! executes is not a parameter: the executor width rides in
//! [`RunContext::threads`], outside the hashed point, and only a local
//! `repro sweep` names a result-cache directory.
//!
//! A spec may also declare named [`Preset`]s — documented operating points
//! that expand to a bundle of overrides (`repro table1 --preset projected`,
//! or `"preset"` in a `cnt-serve` request body).

use crate::{Error, Result};
use cnt_sweep::seed::fnv1a;
use std::collections::BTreeMap;
use std::fmt;

/// The knobs shared by every [`ParamSpec`].
pub const COMMON_KEYS: [&str; 2] = ["trials", "seed"];

/// A validated parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A whole number (counts, seeds, channel numbers).
    Int(i64),
    /// A real number (lengths, temperatures, fractions).
    Float(f64),
}

impl ParamValue {
    /// The human name of the value's type, for error messages and `info`.
    pub fn kind(&self) -> &'static str {
        match self {
            ParamValue::Int(_) => "integer",
            ParamValue::Float(_) => "number",
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
        }
    }
}

/// One declared parameter: key, meaning, typed default, numeric bounds.
#[derive(Debug, Clone)]
pub struct ParamDef {
    /// The `--set` key.
    pub key: &'static str,
    /// What the knob means, shown by `repro info <id>`.
    pub doc: &'static str,
    /// The value used when no override is given; its variant fixes the
    /// parameter's type.
    pub default: ParamValue,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
}

impl ParamDef {
    /// The inclusive bounds as `repro info`, the catalog JSON and range
    /// errors print them. An integer parameter prints whole numbers,
    /// rounded inward, so every advertised bound is itself an accepted
    /// value: `i64::MAX` as an `f64` would print as
    /// `9223372036854776000`, which no `i64` parses.
    pub fn bounds(&self) -> (String, String) {
        match self.default {
            ParamValue::Int(_) => (
                (self.min.ceil() as i64).to_string(),
                (self.max.floor() as i64).to_string(),
            ),
            ParamValue::Float(_) => (self.min.to_string(), self.max.to_string()),
        }
    }

    /// Parses a raw `--set` string against this definition.
    fn parse(&self, raw: &str) -> Result<ParamValue> {
        let value = match self.default {
            ParamValue::Int(_) => ParamValue::Int(
                raw.parse::<i64>()
                    .map_err(|e| self.reject(format!("expected an integer, got '{raw}' ({e})")))?,
            ),
            ParamValue::Float(_) => ParamValue::Float(
                raw.parse::<f64>()
                    .map_err(|e| self.reject(format!("expected a number, got '{raw}' ({e})")))?,
            ),
        };
        self.check(value)
    }

    /// Validates an already-typed value against this definition.
    fn check(&self, value: ParamValue) -> Result<ParamValue> {
        if value.kind() != self.default.kind() {
            return Err(self.reject(format!(
                "expected {}, got {}",
                self.default.kind(),
                value.kind()
            )));
        }
        let v = match value {
            ParamValue::Int(v) => v as f64,
            ParamValue::Float(v) => v,
        };
        if !v.is_finite() || v < self.min || v > self.max {
            let (min, max) = self.bounds();
            return Err(self.reject(format!("{v} outside the declared range [{min}, {max}]")));
        }
        Ok(value)
    }

    fn reject(&self, reason: String) -> Error {
        Error::InvalidOverride {
            key: self.key.to_string(),
            reason,
        }
    }
}

/// A named operating point: a documented bundle of overrides an
/// experiment declares next to its knobs.
#[derive(Debug, Clone)]
pub struct Preset {
    /// The `--preset` name.
    pub name: &'static str,
    /// What the operating point represents, shown by `repro info <id>`.
    pub doc: &'static str,
    /// The overrides the preset expands to, applied in order.
    pub sets: Vec<(&'static str, ParamValue)>,
}

/// The declared parameter surface of one experiment.
///
/// [`ParamSpec::new`] seeds the two [`COMMON_KEYS`]; builder calls add
/// (or re-declare, for a different default) per-experiment knobs and
/// named [`Preset`]s.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    defs: Vec<ParamDef>,
    presets: Vec<Preset>,
}

impl ParamSpec {
    /// A spec with only the common knobs.
    pub fn new() -> Self {
        let empty = Self {
            defs: Vec::new(),
            presets: Vec::new(),
        };
        empty
            .int(
                "trials",
                "Monte-Carlo trials per cell for stochastic/sweep kernels",
                200,
                1.0,
                1e9,
            )
            .int(
                "seed",
                "root RNG seed for stochastic kernels",
                42,
                0.0,
                i64::MAX as f64,
            )
    }

    /// Declares (or re-declares) an integer parameter.
    pub fn int(
        mut self,
        key: &'static str,
        doc: &'static str,
        default: i64,
        min: f64,
        max: f64,
    ) -> Self {
        self.put(ParamDef {
            key,
            doc,
            default: ParamValue::Int(default),
            min,
            max,
        });
        self
    }

    /// Declares (or re-declares) a real-valued parameter.
    pub fn float(
        mut self,
        key: &'static str,
        doc: &'static str,
        default: f64,
        min: f64,
        max: f64,
    ) -> Self {
        self.put(ParamDef {
            key,
            doc,
            default: ParamValue::Float(default),
            min,
            max,
        });
        self
    }

    /// Re-declares the common `seed` knob with an experiment-specific
    /// default (the artefact's historical seed).
    pub fn seed_default(self, seed: i64) -> Self {
        self.int(
            "seed",
            "root RNG seed for stochastic kernels",
            seed,
            0.0,
            i64::MAX as f64,
        )
    }

    /// Declares a named operating point expanding to `sets` overrides.
    /// Keys and values are validated when the registry is built, so a
    /// registered preset can never fail to apply.
    pub fn preset(
        mut self,
        name: &'static str,
        doc: &'static str,
        sets: &[(&'static str, ParamValue)],
    ) -> Self {
        self.presets.push(Preset {
            name,
            doc,
            sets: sets.to_vec(),
        });
        self
    }

    /// All declared presets, declaration order.
    pub fn presets(&self) -> &[Preset] {
        &self.presets
    }

    /// Looks up one preset by name.
    fn find_preset(&self, name: &str) -> Option<&Preset> {
        self.presets.iter().find(|p| p.name == name)
    }

    fn put(&mut self, def: ParamDef) {
        match self.defs.iter_mut().find(|d| d.key == def.key) {
            Some(slot) => *slot = def,
            None => self.defs.push(def),
        }
    }

    /// All declared parameters, common knobs first.
    pub fn defs(&self) -> &[ParamDef] {
        &self.defs
    }

    /// Looks up one definition by key.
    pub fn get(&self, key: &str) -> Option<&ParamDef> {
        self.defs.iter().find(|d| d.key == key)
    }

    fn keys_help(&self) -> String {
        let keys: Vec<&str> = self.defs.iter().map(|d| d.key).collect();
        keys.join(" ")
    }
}

impl Default for ParamSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// The validated parameter bag an experiment reads at run time.
///
/// Every declared key is present (defaults are filled in eagerly), so the
/// typed accessors panic only on a programmer error: reading a key the
/// experiment never declared in its [`ParamSpec`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    values: BTreeMap<&'static str, ParamValue>,
    explicit: Vec<&'static str>,
}

impl Params {
    /// The raw value for `key`, if declared.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.values.get(key)
    }

    /// The keys that were explicitly overridden (insertion order).
    pub fn explicit_keys(&self) -> &[&'static str] {
        &self.explicit
    }

    /// See [`RunContext::f64`].
    fn f64(&self, key: &str) -> f64 {
        match self.require(key) {
            ParamValue::Float(v) => *v,
            ParamValue::Int(v) => *v as f64,
        }
    }

    /// Reads an integer parameter.
    ///
    /// # Panics
    ///
    /// Panics if `key` was never declared or is not an integer.
    fn i64(&self, key: &str) -> i64 {
        match self.require(key) {
            ParamValue::Int(v) => *v,
            other => panic!("parameter '{key}' is {}, not integer", other.kind()),
        }
    }

    /// See [`RunContext::usize`].
    fn usize(&self, key: &str) -> usize {
        usize::try_from(self.i64(key)).unwrap_or_else(|_| panic!("parameter '{key}' is negative"))
    }

    /// See [`RunContext::u64`].
    fn u64(&self, key: &str) -> u64 {
        u64::try_from(self.i64(key)).unwrap_or_else(|_| panic!("parameter '{key}' is negative"))
    }

    fn require(&self, key: &str) -> &ParamValue {
        self.values
            .get(key)
            .unwrap_or_else(|| panic!("experiment read undeclared parameter '{key}'"))
    }

    /// The canonical content hash of this fully-resolved parameter point —
    /// the same FNV-1a family the `cnt-sweep` disk cache keys with
    /// ([`cnt_sweep::CacheKey`]). Two bags hash equal iff they hold the
    /// same typed values (exact bit patterns for floats) *and* the same
    /// explicitly-overridden keys in the same order — the explicit set is
    /// part of the identity because it appears in the rendered report's
    /// override note. `cnt-serve` coalesces and caches on this hash.
    pub fn content_hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(64);
        for (key, value) in &self.values {
            bytes.extend_from_slice(key.as_bytes());
            bytes.push(b'=');
            match value {
                ParamValue::Int(v) => {
                    bytes.push(b'i');
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                ParamValue::Float(v) => {
                    bytes.push(b'f');
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            bytes.push(0);
        }
        bytes.push(0xff);
        for key in &self.explicit {
            bytes.extend_from_slice(key.as_bytes());
            bytes.push(0);
        }
        fnv1a(&bytes)
    }
}

/// Everything an experiment needs at run time: the validated [`Params`]
/// bag (common knobs plus per-experiment overrides) and the executor
/// width.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunContext {
    /// The validated parameter bag.
    pub params: Params,
    /// Width of fig08a's pool and of every sweep, `0` = all cores; the
    /// other ids run on the calling thread. Reports are byte-identical at
    /// any width, so the width is not part of the parameter point: it is
    /// never hashed, never named in the override note, and no `--set` key
    /// or request body sets it.
    pub threads: usize,
}

impl RunContext {
    /// A context with every parameter at its declared default.
    pub fn defaults(spec: &ParamSpec) -> Self {
        let mut params = Params::default();
        for def in spec.defs() {
            params.values.insert(def.key, def.default.clone());
        }
        Self { params, threads: 0 }
    }

    /// A context with `key=value` overrides applied on top of the
    /// defaults.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidOverride`] for an unknown key, a
    /// value of the wrong type, or a value outside the declared range.
    pub fn with_overrides(spec: &ParamSpec, sets: &[(String, String)]) -> Result<Self> {
        let mut ctx = Self::defaults(spec);
        for (key, raw) in sets {
            ctx.set(spec, key, raw)?;
        }
        Ok(ctx)
    }

    /// Applies one raw `--set key=value` override.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidOverride`] as for [`Self::with_overrides`].
    pub fn set(&mut self, spec: &ParamSpec, key: &str, raw: &str) -> Result<()> {
        let def = spec.get(key).ok_or_else(|| Error::InvalidOverride {
            key: key.to_string(),
            reason: format!("unknown parameter (valid: {})", spec.keys_help()),
        })?;
        let value = def.parse(raw)?;
        self.insert(def.key, value);
        Ok(())
    }

    /// Expands one named preset into its override bundle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidOverride`] (key `"preset"`) naming the
    /// valid presets for an unknown name, and propagates per-override
    /// validation errors (unreachable for registry-validated specs).
    pub fn apply_preset(&mut self, spec: &ParamSpec, name: &str) -> Result<()> {
        let preset = spec.find_preset(name).ok_or_else(|| {
            let valid: Vec<&str> = spec.presets().iter().map(|p| p.name).collect();
            Error::InvalidOverride {
                key: "preset".to_string(),
                reason: if valid.is_empty() {
                    format!("unknown preset '{name}' (this experiment declares none)")
                } else {
                    format!("unknown preset '{name}' (valid: {})", valid.join(" "))
                },
            }
        })?;
        for (key, value) in preset.sets.clone() {
            self.set_value(spec, key, value)?;
        }
        Ok(())
    }

    /// Applies one already-typed override.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidOverride`] for an unknown key, a type
    /// mismatch, or a value outside the declared range.
    pub fn set_value(&mut self, spec: &ParamSpec, key: &str, value: ParamValue) -> Result<()> {
        let def = spec.get(key).ok_or_else(|| Error::InvalidOverride {
            key: key.to_string(),
            reason: format!("unknown parameter (valid: {})", spec.keys_help()),
        })?;
        let value = def.check(value)?;
        self.insert(def.key, value);
        Ok(())
    }

    fn insert(&mut self, key: &'static str, value: ParamValue) {
        self.params.values.insert(key, value);
        if !self.params.explicit.contains(&key) {
            self.params.explicit.push(key);
        }
    }

    /// Reads a numeric parameter as `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was never declared — a bug in the experiment, not
    /// a user error.
    pub fn f64(&self, key: &str) -> f64 {
        self.params.f64(key)
    }

    /// Reads a non-negative integer parameter as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was never declared, is not an integer, or is
    /// negative (declare a `min` of 0 or more to rule that out).
    pub fn usize(&self, key: &str) -> usize {
        self.params.usize(key)
    }

    /// Reads a non-negative integer parameter as `u64` (seeds).
    ///
    /// # Panics
    ///
    /// Panics if `key` was never declared, is not an integer, or is
    /// negative.
    pub fn u64(&self, key: &str) -> u64 {
        self.params.u64(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ParamSpec {
        ParamSpec::new()
            .float("length_um", "wire length", 500.0, 1.0, 2000.0)
            .int("nc", "channels per shell", 10, 2.0, 30.0)
            .preset(
                "short-doped",
                "a short heavily-doped line",
                &[
                    ("length_um", ParamValue::Float(25.0)),
                    ("nc", ParamValue::Int(6)),
                ],
            )
    }

    #[test]
    fn defaults_fill_every_declared_key() {
        let ctx = RunContext::defaults(&spec());
        assert_eq!(ctx.f64("length_um"), 500.0);
        assert_eq!(ctx.usize("nc"), 10);
        assert_eq!(ctx.usize("trials"), 200);
        assert_eq!(ctx.u64("seed"), 42);
        assert_eq!(ctx.threads, 0);
        assert!(ctx.params.explicit_keys().is_empty());
    }

    #[test]
    fn overrides_parse_validate_and_mark_explicit() {
        let s = spec();
        let sets = vec![
            ("length_um".to_string(), "200".to_string()),
            ("nc".to_string(), "6".to_string()),
        ];
        let ctx = RunContext::with_overrides(&s, &sets).unwrap();
        assert_eq!(ctx.f64("length_um"), 200.0);
        assert_eq!(ctx.usize("nc"), 6);
        assert_eq!(ctx.params.explicit_keys(), ["length_um", "nc"]);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        let s = spec();
        let mut ctx = RunContext::defaults(&s);
        let unknown = ctx.set(&s, "bogus", "1").unwrap_err();
        assert!(unknown.to_string().contains("bogus"), "{unknown}");
        assert!(unknown.to_string().contains("valid:"), "{unknown}");
        // Wrong type.
        assert!(ctx.set(&s, "nc", "2.5").is_err());
        assert!(ctx.set(&s, "length_um", "long").is_err());
        // Out of range.
        assert!(ctx.set(&s, "nc", "1").is_err());
        assert!(ctx.set(&s, "nc", "31").is_err());
        assert!(ctx.set(&s, "length_um", "0.5").is_err());
        assert!(ctx.set(&s, "trials", "0").is_err());
        // Non-finite.
        assert!(ctx.set(&s, "length_um", "NaN").is_err());
        // Nothing stuck.
        assert_eq!(ctx, RunContext::defaults(&s));
    }

    #[test]
    fn presets_expand_validate_and_compose_with_sets() {
        let s = spec();
        let mut ctx = RunContext::defaults(&s);
        ctx.apply_preset(&s, "short-doped").unwrap();
        assert_eq!(ctx.f64("length_um"), 25.0);
        assert_eq!(ctx.usize("nc"), 6);
        assert_eq!(ctx.params.explicit_keys(), ["length_um", "nc"]);
        // --set on top of a preset wins (applied later).
        ctx.set(&s, "nc", "4").unwrap();
        assert_eq!(ctx.usize("nc"), 4);
        // Unknown presets name themselves and the valid names.
        let err = ctx.apply_preset(&s, "bogus").unwrap_err().to_string();
        assert!(
            err.contains("'bogus'") && err.contains("short-doped"),
            "{err}"
        );
        // A spec without presets says so.
        let none = RunContext::defaults(&ParamSpec::new())
            .apply_preset(&ParamSpec::new(), "x")
            .unwrap_err()
            .to_string();
        assert!(none.contains("declares none"), "{none}");
    }

    #[test]
    fn content_hash_tracks_values_and_explicit_keys() {
        let s = spec();
        let base = RunContext::defaults(&s).params.content_hash();
        assert_eq!(base, RunContext::defaults(&s).params.content_hash());
        // A changed value changes the hash.
        let mut moved = RunContext::defaults(&s);
        moved.set(&s, "nc", "6").unwrap();
        assert_ne!(base, moved.params.content_hash());
        // Overriding a knob *to its default* still differs (the explicit
        // set appears in the rendered report's override note).
        let mut explicit_default = RunContext::defaults(&s);
        explicit_default.set(&s, "nc", "10").unwrap();
        assert_ne!(base, explicit_default.params.content_hash());
        // Spelling doesn't matter, the typed value does.
        let mut spelled = RunContext::defaults(&s);
        spelled.set(&s, "length_um", "200").unwrap();
        let mut spelled2 = RunContext::defaults(&s);
        spelled2.set(&s, "length_um", "200.0").unwrap();
        assert_eq!(
            spelled.params.content_hash(),
            spelled2.params.content_hash()
        );
    }

    #[test]
    fn seed_redeclaration_changes_only_the_default() {
        let s = ParamSpec::new().seed_default(20180319);
        let ctx = RunContext::defaults(&s);
        assert_eq!(ctx.u64("seed"), 20180319);
        // The common knob count is unchanged: re-declared, not duplicated.
        assert_eq!(s.defs().iter().filter(|d| d.key == "seed").count(), 1);
    }
}
