//! The benchmark's own spans: name, start, end and the span that caused
//! it, kept in memory and written out once, as JSON and as folded
//! stacks, when the run ends. They wrap calls into the layers from this
//! crate; the program's own spans are not touched.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Record {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// A span log for one thread of the benchmark.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    records: Vec<Record>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; when `enabled` is false, [`Spans::span`] only runs
    /// its closure, which is the untraced side of `obs.trace_overhead`.
    /// Callers of [`Spans::record`] decide themselves whether to record.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.records.len();
        self.records.push(Record {
            name: name.into(),
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.records[index].end = self.origin.elapsed();
        out
    }

    /// Records an already-timed interval as a root span (client requests
    /// time themselves around blocking socket calls).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) -> usize {
        let index = self.records.len();
        self.records.push(Record {
            name: name.to_string(),
            parent: None,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        index
    }

    /// Records an already-timed interval under `parent`.
    pub fn record_child(&mut self, parent: usize, name: &str, start: Instant, end: Instant) {
        let index = self.record(name, start, end);
        self.records[index].parent = Some(parent);
    }

    /// Appends another thread's spans (same origin) to this log.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.records.len();
        for mut r in other.records {
            r.parent = r.parent.map(|p| p + base);
            self.records.push(r);
        }
    }

    /// Every span as one JSON array: id, parent id, name, start and
    /// duration in microseconds from the run's origin.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, r) in self.records.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                r.name,
                r.start.as_secs_f64() * 1e6,
                r.end.saturating_sub(r.start).as_secs_f64() * 1e6
            );
        }
        out.push(']');
        out
    }

    /// Folded stacks (`root;child;leaf <self-µs>`), the input format of
    /// flamegraph tools. Self time is a span's duration minus the part
    /// its children cover.
    pub fn folded(&self) -> String {
        let mut child_us = vec![0.0; self.records.len()];
        for r in &self.records {
            if let Some(p) = r.parent {
                child_us[p] += r.end.saturating_sub(r.start).as_secs_f64() * 1e6;
            }
        }
        let mut stacks: BTreeMap<String, f64> = BTreeMap::new();
        for (id, r) in self.records.iter().enumerate() {
            let mut path = vec![r.name.as_str()];
            let mut cur = r.parent;
            while let Some(p) = cur {
                path.push(&self.records[p].name);
                cur = self.records[p].parent;
            }
            path.reverse();
            let self_us =
                (r.end.saturating_sub(r.start).as_secs_f64() * 1e6 - child_us[id]).max(0.0);
            *stacks.entry(path.join(";")).or_default() += self_us;
        }
        let mut out = String::new();
        for (path, us) in stacks {
            let _ = writeln!(out, "{path} {}", us.round() as u64);
        }
        out
    }

    /// Writes `<stem>.json` and `<stem>.folded`.
    ///
    /// # Errors
    ///
    /// Propagates file write errors.
    pub fn write(&self, stem: &str) -> std::io::Result<()> {
        std::fs::write(format!("{stem}.json"), self.to_json())?;
        std::fs::write(format!("{stem}.folded"), self.folded())
    }
}
