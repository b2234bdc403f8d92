//! Fixed-size metric history rings — the self-scraped time dimension.
//!
//! A [`HistoryStore`] turns a [`MetricRegistry`] of instantaneous
//! values into short time series: a scraper thread calls
//! [`HistoryStore::sample`] on an interval and each series keeps its
//! last `capacity` points in a ring (oldest overwritten first).
//! Counters and gauges store one scalar per point; histograms store the
//! cumulative bucket-count vector, so *windowed* quantiles fall out of
//! bucket deltas between two points — the same estimate a Prometheus
//! `rate()[w]` + `histogram_quantile` pipeline computes, with no raw
//! samples retained.
//!
//! Windowed extremes (`min`/`max` over the last w seconds) are computed
//! on read by scanning the ring rather than maintained incrementally —
//! with ≤ 512 points a scan is cheaper than the bookkeeping, and the
//! running-extreme-over-a-moving-window problem this sidesteps is
//! genuinely subtle (cf. the Darling–Erdős-type running-maximum coupling
//! of Khoshnevisan–Levin: windowed extremes of a cumulative process
//! carry long-range structure that an O(1) summary cannot).

use crate::json;
use crate::metrics::{quantile_from_counts, MetricRegistry, MetricSnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::{Instant, SystemTime};

/// Default points retained per series.
pub const DEFAULT_HISTORY_POINTS: usize = 512;

/// One scalar observation: monotonic seconds since the store was
/// created (windowing clock) plus wall-clock seconds (display clock).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ScalarPoint {
    at_s: f64,
    unix_s: f64,
    value: f64,
}

/// One histogram observation: the cumulative bucket counts and sum as
/// of the sample instant.
#[derive(Debug, Clone, PartialEq)]
struct HistPoint {
    at_s: f64,
    unix_s: f64,
    counts: Vec<u64>,
    sum: f64,
}

#[derive(Debug)]
enum SeriesData {
    Scalar(VecDeque<ScalarPoint>),
    Hist {
        bounds: Vec<f64>,
        points: VecDeque<HistPoint>,
    },
}

#[derive(Debug)]
struct Series {
    kind: &'static str, // "counter" | "gauge" | "histogram"
    data: SeriesData,
}

/// Windowed summary of a scalar series.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Newest sampled value.
    pub last: f64,
    /// Smallest sampled value inside the window.
    pub min: f64,
    /// Largest sampled value inside the window.
    pub max: f64,
    /// For counters: increase per second across the window (`None` for
    /// gauges, and for windows spanning < 2 distinct instants).
    pub rate_per_s: Option<f64>,
    /// Points inside the window.
    pub points: usize,
}

/// Windowed view of a histogram series: the bucket-count *delta*
/// between the window's edges, i.e. only observations recorded inside
/// the window.
#[derive(Debug, Clone, PartialEq)]
pub struct HistWindow {
    /// Upper bucket bounds, `+Inf` implicit.
    pub bounds: Vec<f64>,
    /// Observations per bucket inside the window, `+Inf` last.
    pub counts: Vec<u64>,
    /// Observations inside the window.
    pub count: u64,
    /// Sum of observed values inside the window.
    pub sum: f64,
}

impl HistWindow {
    /// Interpolated `q`-quantile of the window's observations; `None`
    /// when the window saw none.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_counts(&self.bounds, &self.counts, q)
    }
}

/// Bounded per-series history rings fed by [`HistoryStore::sample`].
#[derive(Debug)]
pub struct HistoryStore {
    capacity: usize,
    started: Instant,
    series: Mutex<BTreeMap<String, Series>>,
}

impl HistoryStore {
    /// A store keeping `capacity` points per series (min 2).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(2),
            started: Instant::now(),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// Samples every series of `registry` into the rings; one point per
    /// series per call. Call from a scraper thread on a fixed interval
    /// (multiple registries may share one store as long as their metric
    /// names are disjoint).
    pub fn sample(&self, registry: &MetricRegistry) {
        self.ingest(registry.snapshot());
    }

    /// Appends one pre-made snapshot (the testable core of [`sample`]).
    ///
    /// [`sample`]: HistoryStore::sample
    pub(crate) fn ingest(&self, snapshot: Vec<(String, MetricSnapshot)>) {
        let at_s = self.started.elapsed().as_secs_f64();
        let unix_s = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64());
        let mut series = self.series.lock().expect("history store poisoned");
        for (name, snap) in snapshot {
            match snap {
                MetricSnapshot::Counter(v) => push_scalar(
                    &mut series,
                    name,
                    "counter",
                    at_s,
                    unix_s,
                    v as f64,
                    self.capacity,
                ),
                MetricSnapshot::Gauge(v) => {
                    push_scalar(&mut series, name, "gauge", at_s, unix_s, v, self.capacity)
                }
                MetricSnapshot::Histogram {
                    bounds,
                    counts,
                    sum,
                } => {
                    let entry = series.entry(name).or_insert_with(|| Series {
                        kind: "histogram",
                        data: SeriesData::Hist {
                            bounds: bounds.clone(),
                            points: VecDeque::new(),
                        },
                    });
                    if let SeriesData::Hist { points, .. } = &mut entry.data {
                        points.push_back(HistPoint {
                            at_s,
                            unix_s,
                            counts,
                            sum,
                        });
                        while points.len() > self.capacity {
                            points.pop_front();
                        }
                    }
                }
            }
        }
    }

    /// Windowed min/max/rate of a scalar series over the trailing
    /// `window_s` seconds; `None` for unknown or histogram series, or
    /// when no point has been sampled yet.
    fn windowed(&self, name: &str, window_s: f64) -> Option<WindowSummary> {
        let series = self.series.lock().expect("history store poisoned");
        let entry = series.get(name)?;
        let SeriesData::Scalar(points) = &entry.data else {
            return None;
        };
        let newest = points.back()?;
        let cutoff = newest.at_s - window_s.max(0.0);
        let inside: Vec<&ScalarPoint> = points.iter().filter(|p| p.at_s >= cutoff).collect();
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in &inside {
            min = min.min(p.value);
            max = max.max(p.value);
        }
        // Counter rate: delta against the last point at-or-before the
        // window start; when the whole ring is inside the window the
        // process itself started inside it, so the baseline is zero at
        // the store's epoch (counters start at zero).
        let rate_per_s = (entry.kind == "counter")
            .then(|| {
                let baseline = points.iter().rev().find(|p| p.at_s < cutoff);
                let (base_v, base_t) = baseline.map_or((0.0, 0.0), |p| (p.value, p.at_s));
                let span = newest.at_s - base_t;
                (span > 0.0).then(|| ((newest.value - base_v) / span).max(0.0))
            })
            .flatten();
        Some(WindowSummary {
            last: newest.value,
            min,
            max,
            rate_per_s,
            points: inside.len(),
        })
    }

    /// Bucket-count delta of a histogram series across the trailing
    /// `window_s` seconds; `None` for unknown or scalar series, or when
    /// no point has been sampled yet.
    pub fn hist_window(&self, name: &str, window_s: f64) -> Option<HistWindow> {
        let series = self.series.lock().expect("history store poisoned");
        let entry = series.get(name)?;
        let SeriesData::Hist { bounds, points } = &entry.data else {
            return None;
        };
        let newest = points.back()?;
        let cutoff = newest.at_s - window_s.max(0.0);
        let baseline = points.iter().rev().find(|p| p.at_s < cutoff);
        let counts: Vec<u64> = newest
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let base = baseline.and_then(|b| b.counts.get(i).copied()).unwrap_or(0);
                c.saturating_sub(base)
            })
            .collect();
        let sum = (newest.sum - baseline.map_or(0.0, |b| b.sum)).max(0.0);
        Some(HistWindow {
            bounds: bounds.clone(),
            count: counts.iter().sum(),
            counts,
            sum,
        })
    }

    /// Windowed counter increase summed over a labeled family's
    /// children whose label value passes `select`. Series are matched
    /// by the flattened snapshot name (`family{key="value"}`).
    pub fn counter_family_delta(
        &self,
        family: &str,
        window_s: f64,
        select: impl Fn(&str) -> bool,
    ) -> f64 {
        let prefix = format!("{family}{{");
        let names: Vec<String> = {
            let series = self.series.lock().expect("history store poisoned");
            series
                .keys()
                .filter(|name| name.starts_with(&prefix))
                .filter(|name| label_value(name).is_some_and(&select))
                .cloned()
                .collect()
        };
        names
            .iter()
            .filter_map(|name| {
                let w = self.windowed(name, window_s)?;
                // rate × window ≈ increase; reconstruct the increase
                // directly from the rate to share the baseline logic.
                w.rate_per_s.map(|r| r * window_s)
            })
            .sum()
    }

    /// The full store as one line of JSON
    /// (`{"schema":1,"kind":"metrics_history",…}`), with a windowed
    /// summary per series over the trailing `window_s` seconds. Scalar
    /// points render as `[unix_s, value]` pairs; histogram points as
    /// `[unix_s, count, sum]` triples (bucket vectors stay internal —
    /// the windowed quantiles are the consumable view).
    pub fn render_json(&self, window_s: f64) -> String {
        let series = self.series.lock().expect("history store poisoned");
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"schema\":1,\"kind\":\"metrics_history\",\"points_cap\":{},\"window_s\":{},\"series\":[",
            self.capacity,
            json::number(window_s)
        ));
        for (i, (name, entry)) in series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::push_string(name, &mut out);
            out.push_str(&format!(",\"type\":\"{}\",\"points\":[", entry.kind));
            match &entry.data {
                SeriesData::Scalar(points) => {
                    for (j, p) in points.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!(
                            "[{},{}]",
                            json::number(p.unix_s),
                            json::number(p.value)
                        ));
                    }
                    out.push(']');
                }
                SeriesData::Hist { points, .. } => {
                    for (j, p) in points.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!(
                            "[{},{},{}]",
                            json::number(p.unix_s),
                            p.counts.iter().sum::<u64>(),
                            json::number(p.sum)
                        ));
                    }
                    out.push(']');
                }
            }
            series_window_json(entry, window_s, &mut out);
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

/// Appends the `,"window":{…}` member for one series. The windowed
/// math is inlined rather than routed through [`HistoryStore::windowed`]
/// because the caller already holds the series-map mutex.
fn series_window_json(entry: &Series, window_s: f64, out: &mut String) {
    match &entry.data {
        SeriesData::Scalar(points) => {
            // Inline the windowed math (the store's mutex is held).
            let Some(newest) = points.back() else {
                return;
            };
            let cutoff = newest.at_s - window_s.max(0.0);
            let (mut min, mut max, mut n) = (f64::INFINITY, f64::NEG_INFINITY, 0usize);
            for p in points.iter().filter(|p| p.at_s >= cutoff) {
                min = min.min(p.value);
                max = max.max(p.value);
                n += 1;
            }
            out.push_str(&format!(
                ",\"window\":{{\"last\":{},\"min\":{},\"max\":{},\"points\":{n}",
                json::number(newest.value),
                json::number(min),
                json::number(max)
            ));
            if entry.kind == "counter" {
                let baseline = points.iter().rev().find(|p| p.at_s < cutoff);
                let (base_v, base_t) = baseline.map_or((0.0, 0.0), |p| (p.value, p.at_s));
                let span = newest.at_s - base_t;
                if span > 0.0 {
                    out.push_str(&format!(
                        ",\"rate_per_s\":{}",
                        json::number(((newest.value - base_v) / span).max(0.0))
                    ));
                }
            }
            out.push('}');
        }
        SeriesData::Hist { bounds, points } => {
            let Some(newest) = points.back() else {
                return;
            };
            let cutoff = newest.at_s - window_s.max(0.0);
            let baseline = points.iter().rev().find(|p| p.at_s < cutoff);
            let counts: Vec<u64> = newest
                .counts
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let base = baseline.and_then(|b| b.counts.get(i).copied()).unwrap_or(0);
                    c.saturating_sub(base)
                })
                .collect();
            let total: u64 = counts.iter().sum();
            let sum = (newest.sum - baseline.map_or(0.0, |b| b.sum)).max(0.0);
            out.push_str(&format!(
                ",\"window\":{{\"count\":{total},\"sum\":{}",
                json::number(sum)
            ));
            for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                if let Some(v) = quantile_from_counts(bounds, &counts, q) {
                    out.push_str(&format!(",\"{label}\":{}", json::number(v)));
                }
            }
            out.push('}');
        }
    }
}

fn push_scalar(
    series: &mut BTreeMap<String, Series>,
    name: String,
    kind: &'static str,
    at_s: f64,
    unix_s: f64,
    value: f64,
    capacity: usize,
) {
    let entry = series.entry(name).or_insert_with(|| Series {
        kind,
        data: SeriesData::Scalar(VecDeque::new()),
    });
    if let SeriesData::Scalar(points) = &mut entry.data {
        points.push_back(ScalarPoint {
            at_s,
            unix_s,
            value,
        });
        while points.len() > capacity {
            points.pop_front();
        }
    }
}

/// The label value of a flattened family series name
/// (`family{key="value"}` → `value`), unescaped enough for status-code
/// matching (the serve layer's labels are plain ASCII).
fn label_value(name: &str) -> Option<&str> {
    name.split_once("=\"")?.1.strip_suffix("\"}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_snap(name: &str, v: u64) -> Vec<(String, MetricSnapshot)> {
        vec![(name.to_string(), MetricSnapshot::Counter(v))]
    }

    #[test]
    fn ring_wraps_and_overwrites_oldest_points() {
        let store = HistoryStore::new(4);
        for v in 0..10u64 {
            store.ingest(counter_snap("t_total", v));
        }
        // Window wide enough to cover the whole ring: only the last 4
        // points survive the wraparound.
        let w = store.windowed("t_total", 1e9).expect("series exists");
        assert_eq!(w.points, 4, "ring must cap at capacity");
        assert_eq!(w.last, 9.0);
        assert_eq!(w.min, 6.0, "oldest points must be overwritten");
        assert_eq!(w.max, 9.0);

        // Histogram rings wrap the same way.
        let hist = |c: u64| {
            vec![(
                "t_seconds".to_string(),
                MetricSnapshot::Histogram {
                    bounds: vec![1.0],
                    counts: vec![c, 0],
                    sum: c as f64 * 0.5,
                },
            )]
        };
        for c in 0..10u64 {
            store.ingest(hist(c));
        }
        let hw = store.hist_window("t_seconds", 1e9).expect("hist series");
        // Whole ring inside the window and no pre-window baseline point
        // survived, so the delta is against zero: the newest cumulative
        // counts stand as-is.
        assert_eq!(hw.count, 9);
    }

    #[test]
    fn capacity_floor_is_two() {
        let store = HistoryStore::new(0);
        assert_eq!(store.capacity, 2);
        for v in 0..5u64 {
            store.ingest(counter_snap("t_total", v));
        }
        assert_eq!(store.windowed("t_total", 1e9).unwrap().points, 2);
    }

    #[test]
    fn windowed_rate_uses_the_pre_window_baseline() {
        let store = HistoryStore::new(16);
        // Two samples ~0s apart (both "now"): rate falls back to the
        // zero-at-epoch baseline, so it is finite and non-negative.
        store.ingest(counter_snap("t_total", 10));
        store.ingest(counter_snap("t_total", 30));
        let w = store.windowed("t_total", 60.0).unwrap();
        assert_eq!(w.last, 30.0);
        if let Some(rate) = w.rate_per_s {
            assert!(rate >= 0.0);
        }
        // Gauges never report a rate.
        store.ingest(vec![("t_gauge".to_string(), MetricSnapshot::Gauge(2.5))]);
        let g = store.windowed("t_gauge", 60.0).unwrap();
        assert_eq!(g.rate_per_s, None);
        assert_eq!(g.last, 2.5);
        // Unknown series: no summary.
        assert!(store.windowed("t_missing", 60.0).is_none());
    }

    #[test]
    fn hist_window_quantiles_come_from_bucket_deltas() {
        let store = HistoryStore::new(16);
        let point = |counts: Vec<u64>, sum: f64| {
            vec![(
                "t_seconds".to_string(),
                MetricSnapshot::Histogram {
                    bounds: vec![1.0, 2.0, 4.0],
                    counts,
                    sum,
                },
            )]
        };
        store.ingest(point(vec![5, 0, 0, 0], 2.5));
        store.ingest(point(vec![5, 0, 10, 0], 32.5));
        // Window of ~0 seconds still sees the newest point; with no
        // baseline older than the cutoff... use a generous window: the
        // delta baseline is zero-at-epoch, covering all 15 observations.
        let hw = store.hist_window("t_seconds", 1e9).unwrap();
        assert_eq!(hw.count, 15);
        let q90 = hw.quantile(0.9).unwrap();
        assert!((2.0..=4.0).contains(&q90), "q90 = {q90}");
        assert_eq!(hw.quantile(0.5).map(|v| v <= 4.0), Some(true));
        // Empty window (no observations): quantile is None.
        let empty = HistoryStore::new(4);
        empty.ingest(point(vec![0, 0, 0, 0], 0.0));
        assert_eq!(
            empty.hist_window("t_seconds", 60.0).unwrap().quantile(0.5),
            None
        );
    }

    #[test]
    fn family_delta_filters_by_label_value() {
        let store = HistoryStore::new(8);
        let snap = |ok: u64, err: u64| {
            vec![
                (
                    "t_req_total{status=\"200\"}".to_string(),
                    MetricSnapshot::Counter(ok),
                ),
                (
                    "t_req_total{status=\"500\"}".to_string(),
                    MetricSnapshot::Counter(err),
                ),
            ]
        };
        store.ingest(snap(0, 0));
        store.ingest(snap(90, 10));
        let is_5xx = |v: &str| v.starts_with('5');
        let err = store.counter_family_delta("t_req_total", 3600.0, is_5xx);
        let all = store.counter_family_delta("t_req_total", 3600.0, |_| true);
        // rate × window reconstruction: proportions are exact even when
        // the absolute increase depends on sub-millisecond timing.
        if all > 0.0 {
            assert!((err / all - 0.1).abs() < 1e-9, "err={err} all={all}");
        }
        assert_eq!(label_value("t_req_total{status=\"500\"}"), Some("500"));
        assert_eq!(label_value("t_req_total"), None);
    }

    #[test]
    fn render_json_is_one_parseable_line() {
        let store = HistoryStore::new(8);
        let registry = MetricRegistry::new();
        registry.counter("t_total", "help").add(3);
        registry
            .histogram_with("t_seconds", "timings", &[1.0])
            .record(0.5);
        store.sample(&registry);
        store.sample(&registry);
        let json = store.render_json(60.0);
        assert_eq!(json.lines().count(), 1);
        let doc = crate::json::parse(&json).expect("history JSON must parse");
        assert_eq!(doc.get("points_cap").and_then(|v| v.as_f64()), Some(8.0));
        assert!(json.starts_with("{\"schema\":1,\"kind\":\"metrics_history\""));
        assert!(json.contains("\"name\":\"t_total\""), "{json}");
        assert!(json.contains("\"type\":\"histogram\""), "{json}");
        assert!(json.contains("\"window\":{"), "{json}");
        assert!(json.contains("\"p90\":"), "{json}");
    }
}
