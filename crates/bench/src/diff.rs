//! `repro bench diff` — the trajectory comparator and regression gate.
//!
//! Compares two `BENCH_*.json` points (the shape [`crate::bench`] emits):
//! per-kernel median deltas for the ids both points share, plus explicit
//! added/removed lists so a structural change in the registry can never
//! hide inside a timing table. With `--fail-above PCT` the diff becomes a
//! gate: any *gated* kernel whose median regressed by more than `PCT`
//! percent — or any kernel that vanished from the newer point without
//! being listed in [`RETIRED`] — fails the run. Pool-throughput kernels
//! (`sweep.pool_*`) are exempt from the timing gate because their
//! medians measure scheduler scaling on whatever core count the runner
//! has, not single-kernel performance; they still participate in the
//! structural diff.

use cnt_obs::json::{self, JsonValue};

/// One kernel of a parsed bench point.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPoint {
    /// Stable kernel id.
    pub id: String,
    /// Lower-median iteration, seconds.
    pub median_s: f64,
    /// Inner solver iterations, when the point recorded them.
    pub solver_iterations: Option<u64>,
    /// Peak RSS after the kernel ran, bytes (schema 2 points on Linux;
    /// absent in schema 1 points and never gated).
    pub peak_rss_bytes: Option<u64>,
}

/// A parsed `BENCH_*.json` document (the fields the diff needs).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Whether the point was a `--quick` run.
    pub quick: bool,
    /// Whether the point was recorded with a `--threads` or `--iters`
    /// override (stamped by `repro bench`): not a standard trajectory
    /// point, so a gated diff refuses it.
    pub overridden: bool,
    /// Whether the point was recorded with a `--filter` (stamped): it
    /// covers only part of the registry, so a gated diff refuses it.
    pub filtered: bool,
    /// Cores available when the point was recorded.
    pub threads_available: u64,
    /// Unix timestamp of the run.
    pub unix_time_s: u64,
    /// Kernels in document order.
    pub kernels: Vec<KernelPoint>,
}

/// Parses one bench JSON document.
///
/// # Errors
///
/// Returns a message naming what is malformed — a JSON syntax error, a
/// wrong `kind`, or a kernel entry without an id/median.
pub fn parse_point(text: &str) -> Result<BenchPoint, String> {
    let doc = json::parse(text.trim()).map_err(|e| e.to_string())?;
    if !matches!(doc, JsonValue::Object(_)) {
        return Err("bench point is not a JSON object".to_string());
    }
    let number = |key: &str| doc.get(key).and_then(JsonValue::as_f64);
    match doc.get("kind") {
        Some(JsonValue::String(kind)) if kind == "bench" => {}
        other => {
            return Err(format!(
                "expected \"kind\":\"bench\", found {other:?} (is this a BENCH_*.json file?)"
            ))
        }
    }
    // Accept every schema this reader understands: 1 (no memory column)
    // and 2 (optional per-kernel peak_rss_bytes). Anything newer is a
    // hard error — silently dropping unknown semantics could let a
    // regression hide behind a format change.
    match number("schema").map(|v| v as u64) {
        Some(1 | 2) => {}
        Some(v) => {
            return Err(format!(
                "bench point has schema {v}; this reader understands schemas 1 and 2"
            ))
        }
        None => return Err("bench point has no numeric \"schema\"".to_string()),
    }
    let quick = matches!(doc.get("quick"), Some(JsonValue::Bool(true)));
    let overridden = doc.get("threads_override").is_some() || doc.get("iters_override").is_some();
    let filtered = doc.get("filter").is_some();
    let threads_available = number("threads_available").unwrap_or(0.0) as u64;
    let unix_time_s = number("unix_time_s").unwrap_or(0.0) as u64;
    let Some(JsonValue::Array(entries)) = doc.get("kernels") else {
        return Err("bench point has no \"kernels\" array".to_string());
    };
    let mut kernels = Vec::with_capacity(entries.len());
    for k in entries {
        if !matches!(k, JsonValue::Object(_)) {
            return Err("kernel entry is not an object".to_string());
        }
        let number = |key: &str| k.get(key).and_then(JsonValue::as_f64);
        let Some(id) = k.get("id").and_then(JsonValue::as_str) else {
            return Err("kernel entry without an \"id\"".to_string());
        };
        let Some(median_s) = number("median_s") else {
            return Err(format!("kernel '{id}' has no numeric \"median_s\""));
        };
        kernels.push(KernelPoint {
            id: id.to_string(),
            median_s,
            solver_iterations: number("solver_iterations").map(|v| v as u64),
            peak_rss_bytes: number("peak_rss_bytes").map(|v| v as u64),
        });
    }
    Ok(BenchPoint {
        quick,
        overridden,
        filtered,
        threads_available,
        unix_time_s,
        kernels,
    })
}

/// Kernels deliberately deleted from the registry. Older trajectory
/// points still carry them, so a diff lists them as retired instead of
/// failing the gate on them.
pub const RETIRED: &[&str] = &["fields.mg_large", "fields.mg_xl"];

/// Whether a kernel's median participates in the timing gate.
pub fn gated(id: &str) -> bool {
    !id.starts_with("sweep.pool")
}

/// One shared kernel in the diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Stable kernel id.
    pub id: String,
    /// Median in the baseline point, seconds.
    pub median_a_s: f64,
    /// Median in the new point, seconds.
    pub median_b_s: f64,
    /// Median delta in percent (positive = slower in the new point).
    pub delta_pct: f64,
    /// Whether this row participates in the timing gate.
    pub gated: bool,
    /// Solver iterations in the two points, when both recorded them.
    pub solver_iterations: Option<(u64, u64)>,
    /// Peak RSS in the two points, when both recorded it. Reported in
    /// the table but never gated — memory varies with allocator and
    /// platform far more than the medians do.
    pub peak_rss: Option<(u64, u64)>,
}

/// The structural + timing comparison of two bench points.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Kernels present in both points, baseline order.
    pub rows: Vec<DiffRow>,
    /// Kernels only in the new point (new coverage; never a failure).
    pub added: Vec<String>,
    /// Kernels missing from the new point (lost coverage; fails a gated
    /// diff).
    pub removed: Vec<String>,
    /// Kernels missing from the new point that are listed in [`RETIRED`]
    /// (never a failure).
    pub retired: Vec<String>,
}

impl BenchDiff {
    /// Computes the diff of `b` (new) against `a` (baseline).
    pub fn compute(a: &BenchPoint, b: &BenchPoint) -> Self {
        let rows = a
            .kernels
            .iter()
            .filter_map(|ka| {
                let kb = b.kernels.iter().find(|k| k.id == ka.id)?;
                let delta_pct = if ka.median_s > 0.0 {
                    (kb.median_s - ka.median_s) / ka.median_s * 100.0
                } else {
                    0.0
                };
                Some(DiffRow {
                    id: ka.id.clone(),
                    median_a_s: ka.median_s,
                    median_b_s: kb.median_s,
                    delta_pct,
                    gated: gated(&ka.id),
                    solver_iterations: ka.solver_iterations.zip(kb.solver_iterations),
                    peak_rss: ka.peak_rss_bytes.zip(kb.peak_rss_bytes),
                })
            })
            .collect();
        let added = b
            .kernels
            .iter()
            .filter(|kb| a.kernels.iter().all(|ka| ka.id != kb.id))
            .map(|k| k.id.clone())
            .collect();
        let (retired, removed) = a
            .kernels
            .iter()
            .filter(|ka| b.kernels.iter().all(|kb| kb.id != ka.id))
            .map(|k| k.id.clone())
            .partition(|id| RETIRED.contains(&id.as_str()));
        Self {
            rows,
            added,
            removed,
            retired,
        }
    }

    /// Gate verdict: every gated kernel whose median regressed by more
    /// than `fail_above_pct`, every removed kernel, and any point that
    /// was recorded with `--threads`/`--iters` overrides (its workloads
    /// are not the standard registry, so its medians cannot gate).
    /// Empty means the gate passes.
    pub fn gate_failures(
        &self,
        fail_above_pct: f64,
        a: &BenchPoint,
        b: &BenchPoint,
    ) -> Vec<String> {
        let mut failures: Vec<String> = Vec::new();
        for (name, point) in [("baseline", a), ("new", b)] {
            if point.overridden {
                failures.push(format!(
                    "{name} point was recorded with --threads/--iters overrides and cannot gate (re-record without overrides)"
                ));
            }
            if point.filtered {
                failures.push(format!(
                    "{name} point was recorded with --filter and covers only part of the registry; it cannot gate"
                ));
            }
        }
        if a.quick != b.quick {
            failures.push(
                "points mix quick and full mode (workload sizes differ); medians are not comparable"
                    .to_string(),
            );
        }
        failures.extend(
            self.rows
                .iter()
                .filter(|r| r.gated && r.delta_pct > fail_above_pct)
                .map(|r| {
                    format!(
                        "kernel '{}' regressed {:+.1}% (median {} -> {}, gate {:.0}%)",
                        r.id,
                        r.delta_pct,
                        crate::bench::fmt_duration(r.median_a_s),
                        crate::bench::fmt_duration(r.median_b_s),
                        fail_above_pct
                    )
                }),
        );
        for id in &self.removed {
            failures.push(format!(
                "kernel '{id}' disappeared from the new point (trajectory ids must stay stable)"
            ));
        }
        failures
    }

    /// The human-readable diff table.
    pub fn render_text(&self, a: &BenchPoint, b: &BenchPoint) -> String {
        let tag = |p: &BenchPoint| {
            format!(
                "{}{}",
                if p.quick { ", quick" } else { "" },
                if p.overridden { ", OVERRIDDEN" } else { "" }
            ) + (if p.filtered { ", FILTERED" } else { "" })
        };
        let mut out = format!(
            "bench diff: baseline {} ({} cores{}) -> new {} ({} cores{})\n",
            a.unix_time_s,
            a.threads_available,
            tag(a),
            b.unix_time_s,
            b.threads_available,
            tag(b),
        );
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>9}  {}\n",
            "kernel", "baseline", "new", "delta", "note"
        ));
        for r in &self.rows {
            let mut note = match (r.gated, r.solver_iterations) {
                (false, _) => "pool (ungated)".to_string(),
                (true, Some((ia, ib))) if ia != ib => format!("solver iters {ia} -> {ib}"),
                _ => String::new(),
            };
            if let Some((ra, rb)) = r.peak_rss {
                let rss_delta = (rb as f64 - ra as f64) / (ra.max(1) as f64) * 100.0;
                if rss_delta.abs() >= 5.0 {
                    if !note.is_empty() {
                        note.push_str("; ");
                    }
                    note.push_str(&format!(
                        "peak-rss {} -> {} ({rss_delta:+.0}%, ungated)",
                        crate::bench::fmt_bytes(Some(ra)),
                        crate::bench::fmt_bytes(Some(rb)),
                    ));
                }
            }
            out.push_str(&format!(
                "{:<28} {:>12} {:>12} {:>+8.1}%  {}\n",
                r.id,
                crate::bench::fmt_duration(r.median_a_s),
                crate::bench::fmt_duration(r.median_b_s),
                r.delta_pct,
                note
            ));
        }
        for id in &self.added {
            out.push_str(&format!("{id:<28} {:>12} {:>12}    added\n", "-", "-"));
        }
        for id in &self.removed {
            out.push_str(&format!("{id:<28} {:>12} {:>12}  removed\n", "-", "-"));
        }
        for id in &self.retired {
            out.push_str(&format!("{id:<28} {:>12} {:>12}  retired\n", "-", "-"));
        }
        out
    }

    /// The machine-readable diff (one line, `repro check-json`-valid).
    pub fn to_json(&self, a: &BenchPoint, b: &BenchPoint) -> String {
        let mut out = String::with_capacity(256 + self.rows.len() * 96);
        out.push_str(&format!(
            "{{\"schema\":1,\"kind\":\"bench_diff\",\"a_unix_time_s\":{},\"b_unix_time_s\":{},\"kernels\":[",
            a.unix_time_s, b.unix_time_s
        ));
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            json::push_string(&r.id, &mut out);
            out.push_str(&format!(
                ",\"median_a_s\":{},\"median_b_s\":{},\"delta_pct\":{},\"gated\":{}}}",
                r.median_a_s, r.median_b_s, r.delta_pct, r.gated
            ));
        }
        for (key, ids) in [
            ("added", &self.added),
            ("removed", &self.removed),
            ("retired", &self.retired),
        ] {
            out.push_str("],\"");
            out.push_str(key);
            out.push_str("\":[");
            for (i, id) in ids.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_string(id, &mut out);
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(kernels: &[(&str, f64)]) -> BenchPoint {
        BenchPoint {
            quick: true,
            overridden: false,
            filtered: false,
            threads_available: 1,
            unix_time_s: 1000,
            kernels: kernels
                .iter()
                .map(|(id, m)| KernelPoint {
                    id: id.to_string(),
                    median_s: *m,
                    solver_iterations: None,
                    peak_rss_bytes: None,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_the_emitted_shape_roundtrip() {
        let report = crate::bench::BenchReport {
            quick: true,
            threads_override: None,
            iters_override: None,
            filter: None,
            threads_available: 2,
            unix_time_s: 42,
            kernels: vec![crate::bench::KernelStats {
                id: "fields.cg_large",
                title: "CG stencil solve",
                warmup: 1,
                iterations: 5,
                min_s: 1e-3,
                median_s: 2e-3,
                p90_s: 3e-3,
                mean_s: 2.1e-3,
                solver_iterations: Some(31),
                peak_rss_bytes: Some(32 * 1024 * 1024),
            }],
        };
        let parsed = parse_point(&report.to_json()).unwrap();
        assert!(parsed.quick);
        assert_eq!(parsed.threads_available, 2);
        assert_eq!(parsed.kernels.len(), 1);
        assert_eq!(parsed.kernels[0].id, "fields.cg_large");
        assert_eq!(parsed.kernels[0].median_s, 2e-3);
        assert_eq!(parsed.kernels[0].solver_iterations, Some(31));
        assert_eq!(parsed.kernels[0].peak_rss_bytes, Some(32 * 1024 * 1024));

        assert!(parse_point("{\"kind\":\"bench_diff\"}").is_err());
        assert!(parse_point("not json").is_err());
    }

    #[test]
    fn schema_1_points_still_parse_and_newer_schemas_are_refused() {
        // A pre-memory-column point (what BENCH_pr5.json looks like):
        // no peak_rss_bytes anywhere, schema stamped 1.
        let legacy = "{\"schema\":1,\"kind\":\"bench\",\"quick\":true,\
                      \"threads_available\":4,\"unix_time_s\":99,\"kernels\":[\
                      {\"id\":\"fields.mg_xl\",\"warmup\":3,\"iterations\":15,\
                      \"min_s\":0.01,\"median_s\":0.011,\"p90_s\":0.012,\"mean_s\":0.011}]}";
        let point = parse_point(legacy).unwrap();
        assert_eq!(point.kernels[0].peak_rss_bytes, None);
        // Diffing a legacy point against a schema-2 point works; the
        // memory column is simply absent from the note.
        let current = point_with_rss(&[("fields.mg_xl", 0.011, Some(64 * 1024 * 1024))]);
        let diff = BenchDiff::compute(&point, &current);
        assert_eq!(diff.rows.len(), 1);
        assert_eq!(diff.rows[0].peak_rss, None);
        assert!(diff.gate_failures(5.0, &point, &current).is_empty());

        let future = legacy.replace("\"schema\":1", "\"schema\":3");
        let err = parse_point(&future).unwrap_err();
        assert!(err.contains("schema 3"), "{err}");
        let unstamped = legacy.replace("\"schema\":1,", "");
        assert!(parse_point(&unstamped).is_err());
    }

    #[test]
    fn peak_rss_moves_are_reported_but_never_gate() {
        let a = point_with_rss(&[("fields.mg_xl", 1.0e-2, Some(30 * 1024 * 1024))]);
        let b = point_with_rss(&[("fields.mg_xl", 1.0e-2, Some(60 * 1024 * 1024))]);
        let diff = BenchDiff::compute(&a, &b);
        assert_eq!(
            diff.rows[0].peak_rss,
            Some((30 * 1024 * 1024, 60 * 1024 * 1024))
        );
        // A doubled footprint shows up in the table…
        let text = diff.render_text(&a, &b);
        assert!(
            text.contains("peak-rss 30.0 MB -> 60.0 MB (+100%, ungated)"),
            "{text}"
        );
        // …but passes even a zero-tolerance gate.
        assert!(diff.gate_failures(0.0, &a, &b).is_empty());
    }

    fn point_with_rss(kernels: &[(&str, f64, Option<u64>)]) -> BenchPoint {
        BenchPoint {
            quick: true,
            overridden: false,
            filtered: false,
            threads_available: 1,
            unix_time_s: 1000,
            kernels: kernels
                .iter()
                .map(|(id, m, rss)| KernelPoint {
                    id: id.to_string(),
                    median_s: *m,
                    solver_iterations: None,
                    peak_rss_bytes: *rss,
                })
                .collect(),
        }
    }

    #[test]
    fn diff_covers_regression_improvement_added_and_removed() {
        // Baseline: two gated kernels, one pool kernel, one that will be
        // removed and one retired. New point: a 50% regression, a 2x
        // improvement, a pool regression (ungated), and one added kernel.
        let a = point(&[
            ("fields.cg_large", 1.0e-3),
            ("negf.mean_transmission", 8.0e-5),
            ("sweep.pool_t4", 4.0e-3),
            ("old.kernel", 1.0e-6),
            ("fields.mg_large", 1.0e-3),
        ]);
        let b = point(&[
            ("fields.cg_large", 1.5e-3),
            ("negf.mean_transmission", 4.0e-5),
            ("sweep.pool_t4", 9.0e-3),
            ("fields.cg_xl", 5.0e-2),
        ]);
        let diff = BenchDiff::compute(&a, &b);
        assert_eq!(diff.rows.len(), 3);
        let cg = &diff.rows[0];
        assert!((cg.delta_pct - 50.0).abs() < 1e-9, "{}", cg.delta_pct);
        assert!(cg.gated);
        let negf = &diff.rows[1];
        assert!((negf.delta_pct + 50.0).abs() < 1e-9);
        let pool = &diff.rows[2];
        assert!(!pool.gated, "pool kernels are exempt from the gate");
        assert_eq!(diff.added, vec!["fields.cg_xl".to_string()]);
        assert_eq!(diff.removed, vec!["old.kernel".to_string()]);
        assert_eq!(diff.retired, vec!["fields.mg_large".to_string()]);

        // Gate at 25%: the cg regression and the removed kernel fail;
        // the pool regression and the retired kernel do not.
        let failures = diff.gate_failures(25.0, &a, &b);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("fields.cg_large"));
        assert!(failures[1].contains("old.kernel"));
        // Gate at 60%: only the removed kernel fails.
        assert_eq!(diff.gate_failures(60.0, &a, &b).len(), 1);

        let text = diff.render_text(&a, &b);
        assert!(text.contains("added"), "{text}");
        assert!(text.contains("removed"), "{text}");
        assert!(text.contains("fields.mg_large"), "{text}");
        assert!(text.contains("retired"), "{text}");
        assert!(text.contains("pool (ungated)"), "{text}");

        let json = diff.to_json(&a, &b);
        assert!(json.starts_with("{\"schema\":1,\"kind\":\"bench_diff\""));
        assert!(
            json.ends_with("\"retired\":[\"fields.mg_large\"]}"),
            "{json}"
        );
        cnt_interconnect::experiments::format::check_json_stream(&json).expect("valid JSON");
        // And the diff JSON parses back as NOT a bench point.
        assert!(parse_point(&json).is_err());
    }

    #[test]
    fn overridden_points_cannot_gate() {
        let report = crate::bench::BenchReport {
            quick: true,
            threads_override: None,
            iters_override: Some(1),
            filter: Some("fields".to_string()),
            threads_available: 1,
            unix_time_s: 7,
            kernels: vec![],
        };
        let b = parse_point(&report.to_json()).unwrap();
        assert!(b.overridden && b.filtered);
        let a = point(&[("fields.cg_large", 1.0e-3)]);
        let diff = BenchDiff::compute(&a, &b);
        let failures = diff.gate_failures(25.0, &a, &b);
        assert!(
            failures.iter().any(|f| f.contains("overrides"))
                && failures.iter().any(|f| f.contains("--filter")),
            "{failures:?}"
        );
        let text = diff.render_text(&a, &b);
        assert!(text.contains("OVERRIDDEN") && text.contains("FILTERED"));
    }

    #[test]
    fn identical_points_pass_any_gate() {
        let a = point(&[("fields.cg_large", 1.0e-3), ("serve.roundtrip", 1.2e-5)]);
        let diff = BenchDiff::compute(&a, &a);
        assert!(diff.added.is_empty() && diff.removed.is_empty() && diff.retired.is_empty());
        assert!(diff.gate_failures(0.0, &a, &a).is_empty());
        assert!(diff.rows.iter().all(|r| r.delta_pct == 0.0));
    }
}
