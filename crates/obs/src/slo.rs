//! Declarative SLOs evaluated as multi-window burn rates.
//!
//! An [`SloSpec`] names an objective over one metric family — a latency
//! quantile threshold or an error-rate budget — and is evaluated
//! against a [`HistoryStore`] over two trailing windows (fast + slow).
//! The *burn rate* is "how many times faster than allowed are we
//! spending the budget": 1.0 means exactly on budget. Paging requires
//! the page threshold on **both** windows (the fast window catches the
//! onset quickly; the slow window keeps a transient blip from paging),
//! the standard multi-window multi-burn-rate alerting shape.

use crate::json;
use crate::timeseries::HistoryStore;

/// What an SLO measures.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// `quantile(q)` of a histogram family must stay under
    /// `threshold_s`; burn = observed quantile / threshold.
    LatencyQuantile {
        /// Histogram series name (e.g. `cnt_serve_request_seconds`).
        metric: String,
        /// Quantile in `[0, 1]` (e.g. 0.9).
        q: f64,
        /// Objective: the quantile must stay below this many seconds.
        threshold_s: f64,
    },
    /// 5xx share of a labeled counter family must stay under `budget`;
    /// burn = observed error ratio / budget.
    ErrorRate {
        /// Counter family name (e.g. `cnt_serve_requests_total`,
        /// labeled by status code).
        family: String,
        /// Allowed error ratio (e.g. 0.01 for 99% availability).
        budget: f64,
    },
    /// The share of a labeled counter family carried by one label value
    /// must stay under `budget`; burn = observed share / budget. The
    /// stock use is degraded-mode guarding: how much fleet routing is
    /// falling back to local compute because owners are Down.
    LabelShare {
        /// Counter family name (e.g. `cnt_fleet_route_total`).
        family: String,
        /// The label value whose share is budgeted (e.g. `degraded`).
        label: String,
        /// Allowed share of the family total (e.g. 0.25).
        budget: f64,
    },
}

/// One declarative objective plus its alerting windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Short operator-facing name (e.g. `latency-p90`).
    pub name: String,
    /// The measured objective.
    pub kind: SloKind,
    /// Fast alerting window in seconds (onset detection).
    pub fast_window_s: f64,
    /// Slow alerting window in seconds (sustained-burn confirmation).
    pub slow_window_s: f64,
    /// Burn rate at or above which the state is at least `Warn`.
    pub warn_burn: f64,
    /// Burn rate at or above which (on both windows) the state pages.
    pub page_burn: f64,
}

impl SloSpec {
    /// A spec with the conventional thresholds: warn at burn ≥ 1.0
    /// (on budget's edge), page at burn ≥ 2.0 on both windows.
    pub fn new(name: &str, kind: SloKind, fast_window_s: f64, slow_window_s: f64) -> Self {
        Self {
            name: name.to_string(),
            kind,
            fast_window_s,
            slow_window_s,
            warn_burn: 1.0,
            page_burn: 2.0,
        }
    }
}

/// Evaluated alert state, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloState {
    /// Burning slower than the budget on every window.
    Ok,
    /// At least one window at or above the warn burn rate.
    Warn,
    /// Both windows at or above the page burn rate.
    Page,
}

impl SloState {
    /// Lowercase wire label.
    pub fn label(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Page => "page",
        }
    }
}

/// One spec's evaluation against a store.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Spec name.
    pub name: String,
    /// Resulting alert state.
    pub state: SloState,
    /// Burn rate over the fast window (0.0 when no data).
    pub burn_fast: f64,
    /// Burn rate over the slow window (0.0 when no data).
    pub burn_slow: f64,
}

/// Burn rate of one kind over one trailing window. No data burns
/// nothing: an idle series reads 0.0, not an alert.
fn burn(kind: &SloKind, store: &HistoryStore, window_s: f64) -> f64 {
    match kind {
        SloKind::LatencyQuantile {
            metric,
            q,
            threshold_s,
        } => {
            let Some(window) = store.hist_window(metric, window_s) else {
                return 0.0;
            };
            match (window.quantile(*q), *threshold_s > 0.0) {
                (Some(observed), true) => (observed / threshold_s).max(0.0),
                _ => 0.0,
            }
        }
        SloKind::ErrorRate { family, budget } => {
            let errors = store.counter_family_delta(family, window_s, |status| {
                status.parse::<u16>().is_ok_and(|code| code >= 500)
            });
            let total = store.counter_family_delta(family, window_s, |_| true);
            // An empty error series sums to -0.0 (f64's additive
            // identity), which `format!` renders as "-0"; clamp.
            if total <= 0.0 || *budget <= 0.0 || errors <= 0.0 {
                return 0.0;
            }
            (errors / total) / budget
        }
        SloKind::LabelShare {
            family,
            label,
            budget,
        } => {
            let hits = store.counter_family_delta(family, window_s, |value| value == label);
            let total = store.counter_family_delta(family, window_s, |_| true);
            if total <= 0.0 || *budget <= 0.0 || hits <= 0.0 {
                return 0.0;
            }
            (hits / total) / budget
        }
    }
}

/// Evaluates one spec against a store.
pub fn evaluate(spec: &SloSpec, store: &HistoryStore) -> SloReport {
    let burn_fast = burn(&spec.kind, store, spec.fast_window_s);
    let burn_slow = burn(&spec.kind, store, spec.slow_window_s);
    let state = if burn_fast >= spec.page_burn && burn_slow >= spec.page_burn {
        SloState::Page
    } else if burn_fast.max(burn_slow) >= spec.warn_burn {
        SloState::Warn
    } else {
        SloState::Ok
    };
    SloReport {
        name: spec.name.clone(),
        state,
        burn_fast,
        burn_slow,
    }
}

/// Evaluates every spec; reports come back in spec order.
pub fn evaluate_all(specs: &[SloSpec], store: &HistoryStore) -> Vec<SloReport> {
    specs.iter().map(|spec| evaluate(spec, store)).collect()
}

/// Reports as one line of JSON (`{"schema":1,"kind":"slo",…}`), with
/// the worst state hoisted to the top level.
pub fn render_json(reports: &[SloReport]) -> String {
    let worst = reports
        .iter()
        .map(|r| r.state)
        .max()
        .unwrap_or(SloState::Ok);
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"schema\":1,\"kind\":\"slo\",\"state\":\"{}\",\"slos\":[",
        worst.label()
    ));
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::push_string(&r.name, &mut out);
        out.push_str(&format!(
            ",\"state\":\"{}\",\"burn_fast\":{},\"burn_slow\":{}}}",
            r.state.label(),
            json::number(r.burn_fast),
            json::number(r.burn_slow)
        ));
    }
    out.push_str("]}\n");
    out
}

/// The serve layer's stock objectives: request p90 under 500 ms, 99%
/// non-5xx, fleet routing at most 25% degraded (requests computed
/// locally only because their owner is Down), and at most 5% of async
/// sweep jobs ending `failed`, all on a 60 s fast / 300 s slow window
/// pair. Outside fleet mode the degraded family never moves, so that
/// objective reads a permanent 0.0 burn; likewise job-failures when no
/// async sweeps run.
pub fn default_serve_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::new(
            "latency-p90",
            SloKind::LatencyQuantile {
                metric: "cnt_serve_request_seconds".to_string(),
                q: 0.9,
                threshold_s: 0.5,
            },
            60.0,
            300.0,
        ),
        SloSpec::new(
            "availability",
            SloKind::ErrorRate {
                family: "cnt_serve_requests_total".to_string(),
                budget: 0.01,
            },
            60.0,
            300.0,
        ),
        SloSpec::new(
            "fleet-degraded",
            SloKind::LabelShare {
                family: "cnt_fleet_route_total".to_string(),
                label: "degraded".to_string(),
                budget: 0.25,
            },
            60.0,
            300.0,
        ),
        SloSpec::new(
            "job-failures",
            SloKind::LabelShare {
                family: "cnt_serve_jobs_total".to_string(),
                label: "failed".to_string(),
                budget: 0.05,
            },
            60.0,
            300.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricSnapshot;

    fn latency_spec(threshold_s: f64) -> SloSpec {
        SloSpec::new(
            "latency-p90",
            SloKind::LatencyQuantile {
                metric: "t_seconds".to_string(),
                q: 0.9,
                threshold_s,
            },
            60.0,
            300.0,
        )
    }

    fn hist_snap(counts: Vec<u64>, sum: f64) -> Vec<(String, MetricSnapshot)> {
        vec![(
            "t_seconds".to_string(),
            MetricSnapshot::Histogram {
                bounds: vec![0.1, 1.0],
                counts,
                sum,
            },
        )]
    }

    #[test]
    fn no_data_reads_ok_with_zero_burn() {
        let store = HistoryStore::new(8);
        let report = evaluate(&latency_spec(0.5), &store);
        assert_eq!(report.state, SloState::Ok);
        assert_eq!(report.burn_fast, 0.0);
        assert_eq!(report.burn_slow, 0.0);
    }

    #[test]
    fn sustained_slow_requests_page_and_fast_ones_stay_ok() {
        // All observations land in the (0.1, 1.0] bucket: p90 ≈ 0.9 s,
        // burning a 0.2 s objective at ≥ 2× on both windows.
        let store = HistoryStore::new(8);
        store.ingest(hist_snap(vec![0, 50, 0], 45.0));
        let paged = evaluate(&latency_spec(0.2), &store);
        assert_eq!(paged.state, SloState::Page, "{paged:?}");
        assert!(paged.burn_fast >= 2.0 && paged.burn_slow >= 2.0);

        // Same traffic against a lenient 10 s objective: ok.
        let ok = evaluate(&latency_spec(10.0), &store);
        assert_eq!(ok.state, SloState::Ok, "{ok:?}");

        // An objective the p90 just crosses: warn, not page.
        let warn_spec = SloSpec {
            page_burn: 100.0,
            ..latency_spec(0.5)
        };
        let warned = evaluate(&warn_spec, &store);
        assert_eq!(warned.state, SloState::Warn, "{warned:?}");
    }

    #[test]
    fn error_rate_burn_is_ratio_over_budget() {
        let store = HistoryStore::new(8);
        let snap = |ok: u64, err: u64| {
            vec![
                (
                    "t_req_total{status=\"200\"}".to_string(),
                    MetricSnapshot::Counter(ok),
                ),
                (
                    "t_req_total{status=\"503\"}".to_string(),
                    MetricSnapshot::Counter(err),
                ),
            ]
        };
        store.ingest(snap(0, 0));
        store.ingest(snap(90, 10));
        let spec = SloSpec::new(
            "availability",
            SloKind::ErrorRate {
                family: "t_req_total".to_string(),
                budget: 0.01,
            },
            3600.0,
            7200.0,
        );
        let report = evaluate(&spec, &store);
        // 10% errors against a 1% budget: burn 10× on both windows.
        assert!((report.burn_fast - 10.0).abs() < 1e-6, "burn {report:?}");
        assert_eq!(report.state, SloState::Page);
        // Non-numeric labels never count as errors.
        assert!(!"hit".parse::<u16>().is_ok_and(|c| c >= 500));
    }

    #[test]
    fn render_json_hoists_the_worst_state() {
        let reports = vec![
            SloReport {
                name: "a".to_string(),
                state: SloState::Ok,
                burn_fast: 0.1,
                burn_slow: 0.2,
            },
            SloReport {
                name: "b".to_string(),
                state: SloState::Warn,
                burn_fast: 1.5,
                burn_slow: 0.4,
            },
        ];
        let json = render_json(&reports);
        assert_eq!(json.lines().count(), 1);
        let doc = crate::json::parse(&json).expect("SLO JSON must parse");
        assert_eq!(doc.get("state").and_then(|v| v.as_str()), Some("warn"));
        assert!(json.starts_with("{\"schema\":1,\"kind\":\"slo\",\"state\":\"warn\""));
        assert!(json.contains("\"name\":\"b\",\"state\":\"warn\""), "{json}");
        assert!(
            render_json(&[]).contains("\"state\":\"ok\""),
            "empty spec list is ok"
        );
    }

    #[test]
    fn label_share_burn_is_share_over_budget() {
        let store = HistoryStore::new(8);
        let snap = |local: u64, degraded: u64| {
            vec![
                (
                    "t_route_total{outcome=\"local\"}".to_string(),
                    MetricSnapshot::Counter(local),
                ),
                (
                    "t_route_total{outcome=\"degraded\"}".to_string(),
                    MetricSnapshot::Counter(degraded),
                ),
            ]
        };
        store.ingest(snap(0, 0));
        store.ingest(snap(50, 50));
        let spec = SloSpec::new(
            "fleet-degraded",
            SloKind::LabelShare {
                family: "t_route_total".to_string(),
                label: "degraded".to_string(),
                budget: 0.25,
            },
            3600.0,
            7200.0,
        );
        let report = evaluate(&spec, &store);
        // Half the routes degraded against a 25% budget: burn 2× — page.
        assert!((report.burn_fast - 2.0).abs() < 1e-6, "burn {report:?}");
        assert_eq!(report.state, SloState::Page);

        // A quiet family (no movement inside the window) burns nothing.
        let idle = HistoryStore::new(8);
        idle.ingest(snap(10, 0));
        idle.ingest(snap(10, 0));
        let quiet = evaluate(&spec, &idle);
        assert_eq!(quiet.state, SloState::Ok, "{quiet:?}");
        assert_eq!(quiet.burn_fast, 0.0);
    }

    #[test]
    fn default_serve_slos_cover_latency_availability_and_degradation() {
        let specs = default_serve_slos();
        assert_eq!(specs.len(), 4);
        assert!(specs.iter().any(|s| matches!(
            &s.kind,
            SloKind::LatencyQuantile { metric, .. } if metric == "cnt_serve_request_seconds"
        )));
        assert!(specs.iter().any(|s| matches!(
            &s.kind,
            SloKind::ErrorRate { family, .. } if family == "cnt_serve_requests_total"
        )));
        assert!(specs.iter().any(|s| matches!(
            &s.kind,
            SloKind::LabelShare { family, label, .. }
                if family == "cnt_fleet_route_total" && label == "degraded"
        )));
        assert!(specs.iter().any(|s| matches!(
            &s.kind,
            SloKind::LabelShare { family, label, .. }
                if family == "cnt_serve_jobs_total" && label == "failed"
        )));
    }
}
