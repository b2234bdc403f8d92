//! Atomic metric primitives and the registry that renders them.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s
//! resolved once at registration; recording is one or two relaxed
//! atomic operations, so instrumented hot loops pay nanoseconds and
//! never allocate. The registry itself takes a mutex only to register
//! a new name or to render — both cold paths.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-boundary histogram with lock-free recording.
///
/// The default boundaries are powers of two in seconds, 2⁻²⁰ s
/// (≈ 0.95 µs) through 2⁵ s (32 s) — wide enough for a cache hit and a
/// multi-second Monte-Carlo sweep on the same axis, and cheap to bucket
/// into.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bucket bounds (inclusive, Prometheus `le` semantics),
    /// strictly increasing. An implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts; `buckets[bounds.len()]` is `+Inf`.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values, as `f64` bits.
    sum_bits: AtomicU64,
}

/// The default log2 bucket bounds, in seconds.
fn default_seconds_bounds() -> Vec<f64> {
    (-20..=5).map(|e| (2.0f64).powi(e)).collect()
}

impl Histogram {
    /// A histogram over the given upper bounds (must be strictly
    /// increasing and non-empty); an `+Inf` bucket is added implicitly.
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a wall-time duration in seconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of observed values.
    fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket counts, `+Inf` last (same snapshot caveat as any
    /// concurrent read: buckets are loaded one by one).
    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Estimates the `q`-quantile (`0 ≤ q ≤ 1`) of a histogram given as its
/// upper `bounds` and per-bucket `counts` (`+Inf` last,
/// `counts.len() == bounds.len() + 1`) by linear interpolation inside the
/// bucket holding it — the same estimate Prometheus' `histogram_quantile`
/// computes. Returns `None` when empty. The time-series layer feeds it
/// windowed *count deltas*, a histogram's view of the last N seconds.
///
/// Observations beyond the last finite bound clamp to it, so the
/// estimate is a lower bound when the tail bucket is occupied.
pub fn quantile_from_counts(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 || bounds.is_empty() {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let prev = cum;
        cum += c as f64;
        if cum >= rank && c > 0 {
            if i >= bounds.len() {
                // +Inf bucket: clamp to the last finite bound.
                return Some(bounds[bounds.len() - 1]);
            }
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = bounds[i];
            let frac = ((rank - prev) / c as f64).clamp(0.0, 1.0);
            return Some(lo + (hi - lo) * frac);
        }
    }
    Some(bounds[bounds.len() - 1])
}

/// A labeled counter family: one [`Counter`] per label value, plus an
/// optional unlabeled *base* sample for families that predate their
/// labels (the serve layer's `cnt_serve_requests_total`).
#[derive(Debug)]
pub struct CounterVec {
    label_key: String,
    emit_base: bool,
    base: Counter,
    children: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl CounterVec {
    fn new(label_key: &str, emit_base: bool) -> Self {
        Self {
            label_key: label_key.to_string(),
            emit_base,
            base: Counter::default(),
            children: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter for one label value, created on first use. Callers
    /// on hot paths should resolve once and keep the `Arc`.
    pub fn with(&self, value: &str) -> Arc<Counter> {
        let mut children = self.children.lock().expect("counter vec poisoned");
        if let Some(c) = children.get(value) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        children.insert(value.to_string(), Arc::clone(&c));
        c
    }

    /// The unlabeled base counter (rendered only when the family was
    /// registered with `emit_base`).
    pub fn base(&self) -> &Counter {
        &self.base
    }

    /// Sorted `(label value, count)` snapshot.
    fn snapshot(&self) -> Vec<(String, u64)> {
        self.children
            .lock()
            .expect("counter vec poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }
}

/// A labeled gauge family over a *fixed ordered set* of label keys —
/// unlike [`CounterVec`]'s single key, a child here is addressed by one
/// value per key (`cnt_fleet_peer_state{peer="…",state="…"}` is the
/// motivating series). Children are created on first use and rendered
/// in sorted label-value order, so scrapes are deterministic.
#[derive(Debug)]
pub struct GaugeVec {
    label_keys: Vec<String>,
    children: Mutex<BTreeMap<Vec<String>, Arc<Gauge>>>,
}

impl GaugeVec {
    fn new(label_keys: &[&str]) -> Self {
        assert!(
            !label_keys.is_empty(),
            "a gauge family needs at least one label key"
        );
        Self {
            label_keys: label_keys.iter().map(|k| k.to_string()).collect(),
            children: Mutex::new(BTreeMap::new()),
        }
    }

    /// The gauge for one label-value tuple (`values` must match the
    /// registered keys in number and order), created on first use.
    /// Callers on hot paths should resolve once and keep the `Arc`.
    pub fn with(&self, values: &[&str]) -> Arc<Gauge> {
        assert_eq!(
            values.len(),
            self.label_keys.len(),
            "gauge family has keys {:?}, got {} value(s)",
            self.label_keys,
            values.len()
        );
        let mut children = self.children.lock().expect("gauge vec poisoned");
        let key: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        if let Some(g) = children.get(&key) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        children.insert(key, Arc::clone(&g));
        g
    }

    /// Sorted `(label values, value)` snapshot.
    fn snapshot(&self) -> Vec<(Vec<String>, f64)> {
        self.children
            .lock()
            .expect("gauge vec poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// The `{k1="v1",k2="v2"}` suffix of one child's sample line.
    fn series_suffix(&self, values: &[String]) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.label_keys.iter().zip(values).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(key);
            out.push('=');
            out.push_str(&label_quote(value));
        }
        out.push('}');
        out
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterVec(Arc<CounterVec>),
    GaugeVec(Arc<GaugeVec>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) | Metric::CounterVec(_) => "counter",
            Metric::Gauge(_) | Metric::GaugeVec(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    help: String,
    metric: Metric,
}

/// A named collection of metrics with Prometheus-text and JSON
/// exporters. Registration is idempotent: asking for an existing name
/// returns the existing handle (and panics if the kind differs — a
/// programming error, caught in tests).
#[derive(Debug, Default)]
pub struct MetricRegistry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T, F, G>(&self, name: &str, help: &str, make: F, cast: G) -> Arc<T>
    where
        F: FnOnce() -> Metric,
        G: FnOnce(&Metric) -> Option<Arc<T>>,
    {
        let mut entries = self.entries.lock().expect("metric registry poisoned");
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            metric: make(),
        });
        cast(&entry.metric).unwrap_or_else(|| {
            panic!(
                "metric {name:?} already registered as a {}",
                entry.metric.kind()
            )
        })
    }

    /// Registers (or fetches) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register(
            name,
            help,
            || Metric::Counter(Arc::new(Counter::default())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Registers (or fetches) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register(
            name,
            help,
            || Metric::Gauge(Arc::new(Gauge::default())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Registers (or fetches) a histogram over the default log2
    /// seconds bounds.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &default_seconds_bounds())
    }

    /// Registers (or fetches) a histogram over explicit bounds (the
    /// bounds of an existing registration win).
    pub(crate) fn histogram_with(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.register(
            name,
            help,
            || Metric::Histogram(Arc::new(Histogram::new(bounds))),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Registers (or fetches) a labeled counter family. With
    /// `emit_base`, the family also renders an unlabeled sample from
    /// [`CounterVec::base`].
    pub fn counter_vec(
        &self,
        name: &str,
        help: &str,
        label_key: &str,
        emit_base: bool,
    ) -> Arc<CounterVec> {
        self.register(
            name,
            help,
            || Metric::CounterVec(Arc::new(CounterVec::new(label_key, emit_base))),
            |m| match m {
                Metric::CounterVec(v) => Some(Arc::clone(v)),
                _ => None,
            },
        )
    }

    /// Registers (or fetches) a labeled gauge family over a fixed
    /// ordered set of label keys (the keys of an existing registration
    /// win).
    pub fn gauge_vec(&self, name: &str, help: &str, label_keys: &[&str]) -> Arc<GaugeVec> {
        self.register(
            name,
            help,
            || Metric::GaugeVec(Arc::new(GaugeVec::new(label_keys))),
            |m| match m {
                Metric::GaugeVec(v) => Some(Arc::clone(v)),
                _ => None,
            },
        )
    }

    /// Renders every metric in the Prometheus text exposition format,
    /// names sorted, `# HELP`/`# TYPE` per family.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("metric registry poisoned");
        let mut out = String::with_capacity(1024);
        for (name, entry) in entries.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&entry.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(entry.metric.kind());
            out.push('\n');
            match &entry.metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{name} {}\n", g.get()));
                }
                Metric::CounterVec(v) => {
                    if v.emit_base {
                        out.push_str(&format!("{name} {}\n", v.base.get()));
                    }
                    for (value, count) in v.snapshot() {
                        out.push_str(&format!(
                            "{name}{{{}={}}} {count}\n",
                            v.label_key,
                            label_quote(&value)
                        ));
                    }
                }
                Metric::GaugeVec(v) => {
                    for (values, value) in v.snapshot() {
                        out.push_str(&format!("{name}{} {value}\n", v.series_suffix(&values)));
                    }
                }
                Metric::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cum += c;
                        let le = if i < h.bounds.len() {
                            format!("{}", h.bounds[i])
                        } else {
                            "+Inf".to_string()
                        };
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_sum {}\n", h.sum()));
                    out.push_str(&format!("{name}_count {cum}\n"));
                }
            }
        }
        out
    }

    /// A typed point-in-time snapshot of every series in the registry,
    /// in render order. Labeled families flatten into one entry per
    /// child, named exactly like the Prometheus sample
    /// (`name{key="value"}`), so a time-series store keyed on these
    /// names matches what a scrape of `/v1/metrics` would show.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let entries = self.entries.lock().expect("metric registry poisoned");
        let mut out = Vec::with_capacity(entries.len());
        for (name, entry) in entries.iter() {
            match &entry.metric {
                Metric::Counter(c) => out.push((name.clone(), MetricSnapshot::Counter(c.get()))),
                Metric::Gauge(g) => out.push((name.clone(), MetricSnapshot::Gauge(g.get()))),
                Metric::CounterVec(v) => {
                    if v.emit_base {
                        out.push((name.clone(), MetricSnapshot::Counter(v.base.get())));
                    }
                    for (value, count) in v.snapshot() {
                        out.push((
                            format!("{name}{{{}={}}}", v.label_key, label_quote(&value)),
                            MetricSnapshot::Counter(count),
                        ));
                    }
                }
                Metric::GaugeVec(v) => {
                    for (values, value) in v.snapshot() {
                        out.push((
                            format!("{name}{}", v.series_suffix(&values)),
                            MetricSnapshot::Gauge(value),
                        ));
                    }
                }
                Metric::Histogram(h) => out.push((
                    name.clone(),
                    MetricSnapshot::Histogram {
                        bounds: h.bounds.clone(),
                        counts: h.bucket_counts(),
                        sum: h.sum(),
                    },
                )),
            }
        }
        out
    }
}

/// One series of a [`MetricRegistry::snapshot`]: the value a scrape
/// would report at this instant, typed by family kind.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// A counter (or one labeled child of a counter family).
    Counter(u64),
    /// A gauge value.
    Gauge(f64),
    /// A histogram: cumulative-from-start bucket counts (`+Inf` last)
    /// plus the running sum.
    Histogram {
        /// Upper bucket bounds, without the implicit `+Inf`.
        bounds: Vec<f64>,
        /// Per-bucket counts, `+Inf` last.
        counts: Vec<u64>,
        /// Sum of observed values.
        sum: f64,
    },
}

/// Quotes a Prometheus label value (`\\`, `\"`, `\n` escapes).
fn label_quote(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A live histogram's quantile estimate.
    fn quantile(h: &Histogram, q: f64) -> Option<f64> {
        quantile_from_counts(&h.bounds, &h.bucket_counts(), q)
    }

    #[test]
    fn counters_and_gauges_hold_values() {
        let r = MetricRegistry::new();
        let c = r.counter("t_total", "help");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same underlying counter.
        assert_eq!(r.counter("t_total", "help").get(), 5);

        let g = r.gauge("t_gauge", "help");
        g.set(1.5);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricRegistry::new();
        r.counter("t_total", "help");
        r.gauge("t_total", "help");
    }

    #[test]
    fn histogram_buckets_respect_le_semantics() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // Boundary values land in the bucket they bound (le = ≤).
        for v in [0.5, 1.0, 2.0, 3.0, 4.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 1, 2, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 110.5).abs() < 1e-12);
    }

    #[test]
    fn default_bounds_are_log2_and_increasing() {
        let b = default_seconds_bounds();
        assert_eq!(b.len(), 26);
        assert!((b[0] - 2f64.powi(-20)).abs() < 1e-18);
        assert!((b[25] - 32.0).abs() < 1e-12);
        for w in b.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-12, "not log2 spaced");
        }
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        assert_eq!(quantile(&h, 0.5), None, "empty histogram has no quantile");
        for _ in 0..50 {
            h.record(0.5); // bucket [0, 1]
        }
        for _ in 0..50 {
            h.record(3.0); // bucket (2, 4]
        }
        // Median sits exactly at the end of the first bucket.
        let q50 = quantile(&h, 0.5).unwrap();
        assert!((q50 - 1.0).abs() < 1e-9, "q50 = {q50}");
        // 75th percentile: halfway through the (2, 4] bucket.
        let q75 = quantile(&h, 0.75).unwrap();
        assert!((q75 - 3.0).abs() < 1e-9, "q75 = {q75}");
        // Quantiles clamp into the finite range.
        assert!(quantile(&h, 1.0).unwrap() <= 4.0);
        // Tail bucket clamps to the last finite bound.
        h.record(1e9);
        assert!((quantile(&h, 1.0).unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_edge_cases_are_exact() {
        // Empty histogram: no quantile at any q, including the extremes.
        let empty = Histogram::new(&[1.0, 2.0]);
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(quantile(&empty, q), None, "q={q}");
        }

        // Single finite bucket: every quantile interpolates inside [0, 1].
        let single = Histogram::new(&[1.0]);
        for _ in 0..10 {
            single.record(0.5);
        }
        let q0 = quantile(&single, 0.0).unwrap();
        assert!((0.0..=1.0).contains(&q0), "q0 = {q0}");
        assert!((quantile(&single, 0.5).unwrap() - 0.5).abs() < 1e-9);
        assert!((quantile(&single, 1.0).unwrap() - 1.0).abs() < 1e-9);
        // One observation past the only finite bound clamps to it.
        single.record(100.0);
        assert!((quantile(&single, 1.0).unwrap() - 1.0).abs() < 1e-9);

        // Exact-boundary ranks: with every observation in one bucket the
        // cumulative count hits the rank exactly at the bucket edge.
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..4 {
            h.record(1.5); // all in (1, 2]
        }
        assert!(
            (quantile(&h, 1.0).unwrap() - 2.0).abs() < 1e-9,
            "q1 at edge"
        );
        assert!((quantile(&h, 0.5).unwrap() - 1.5).abs() < 1e-9);
        // q = 0 never reaches below the occupied bucket's lower bound.
        assert!(quantile(&h, 0.0).unwrap() >= 1.0);

        // Degenerate inputs: no bounds or all-zero counts yield None.
        assert_eq!(quantile_from_counts(&[], &[0], 0.5), None);
        assert_eq!(quantile_from_counts(&[1.0], &[0, 0], 0.5), None);
    }

    #[test]
    fn snapshot_flattens_families_with_prometheus_names() {
        let r = MetricRegistry::new();
        r.counter("t_total", "help").add(7);
        r.gauge("t_gauge", "help").set(1.5);
        let v = r.counter_vec("t_req_total", "by status", "status", true);
        v.base().add(3);
        v.with("200").add(2);
        r.histogram_with("t_seconds", "timings", &[1.0]).record(0.5);
        let snap = r.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.clone())
                .unwrap_or_else(|| panic!("no series {name} in {snap:?}"))
        };
        assert_eq!(get("t_total"), MetricSnapshot::Counter(7));
        assert_eq!(get("t_gauge"), MetricSnapshot::Gauge(1.5));
        assert_eq!(get("t_req_total"), MetricSnapshot::Counter(3));
        assert_eq!(
            get("t_req_total{status=\"200\"}"),
            MetricSnapshot::Counter(2)
        );
        match get("t_seconds") {
            MetricSnapshot::Histogram {
                bounds,
                counts,
                sum,
            } => {
                assert_eq!(bounds, vec![1.0]);
                assert_eq!(counts, vec![1, 0]);
                assert!((sum - 0.5).abs() < 1e-12);
            }
            other => panic!("t_seconds snapshotted as {other:?}"),
        }
    }

    #[test]
    fn counter_vec_renders_base_and_children() {
        let r = MetricRegistry::new();
        let v = r.counter_vec("t_requests_total", "by status", "status", true);
        v.base().add(3);
        v.with("200").add(2);
        v.with("404").inc();
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE t_requests_total counter\n"));
        assert!(text.contains("\nt_requests_total 3\n") || text.contains("t_requests_total 3\n"));
        assert!(text.contains("t_requests_total{status=\"200\"} 2\n"));
        assert!(text.contains("t_requests_total{status=\"404\"} 1\n"));
        assert_eq!(
            v.snapshot(),
            vec![("200".to_string(), 2), ("404".to_string(), 1)]
        );
    }

    #[test]
    fn gauge_vec_renders_multi_label_children() {
        let r = MetricRegistry::new();
        let v = r.gauge_vec("t_peer_state", "membership", &["peer", "state"]);
        v.with(&["127.0.0.1:9000", "up"]).set(1.0);
        v.with(&["127.0.0.1:9000", "down"]).set(0.0);
        v.with(&["127.0.0.1:9001", "up"]).set(0.0);
        // Same tuple resolves to the same underlying gauge.
        v.with(&["127.0.0.1:9001", "up"]).set(1.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE t_peer_state gauge\n"));
        assert!(text.contains("t_peer_state{peer=\"127.0.0.1:9000\",state=\"up\"} 1\n"));
        assert!(text.contains("t_peer_state{peer=\"127.0.0.1:9000\",state=\"down\"} 0\n"));
        assert!(text.contains("t_peer_state{peer=\"127.0.0.1:9001\",state=\"up\"} 1\n"));
        crate::promcheck::validate(&text).expect("multi-label gauges must pass the validator");
        // Snapshot flattens with the exact sample names a scrape shows.
        let snap = r.snapshot();
        let up = snap
            .iter()
            .find(|(n, _)| n == "t_peer_state{peer=\"127.0.0.1:9001\",state=\"up\"}")
            .expect("flattened series name");
        assert_eq!(up.1, MetricSnapshot::Gauge(1.0));
    }

    #[test]
    #[should_panic(expected = "keys")]
    fn gauge_vec_rejects_wrong_arity() {
        let r = MetricRegistry::new();
        let v = r.gauge_vec("t_peer_state", "membership", &["peer", "state"]);
        v.with(&["only-one"]);
    }

    #[test]
    fn prometheus_render_is_cumulative_and_valid() {
        let r = MetricRegistry::new();
        let h = r.histogram_with("t_seconds", "timings", &[0.001, 0.01, 0.1]);
        h.record(0.0005);
        h.record(0.05);
        h.record(7.0);
        r.counter("t_runs_total", "runs").inc();
        r.gauge("t_workers", "workers").set(4.0);
        let text = r.render_prometheus();
        assert!(text.contains("t_seconds_bucket{le=\"0.001\"} 1\n"));
        assert!(text.contains("t_seconds_bucket{le=\"0.01\"} 1\n"));
        assert!(text.contains("t_seconds_bucket{le=\"0.1\"} 2\n"));
        assert!(text.contains("t_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("t_seconds_count 3\n"));
        assert!(text.contains("t_workers 4\n"));
        crate::promcheck::validate(&text).expect("own render must pass the validator");
    }
}
