//! Distributed trace context and a bounded ring of recent traces.
//!
//! A [`TraceContext`] is the wire identity of one request tree:
//! a 64-bit trace id minted at ingress plus the current span id,
//! carried across fleet hops as `X-Trace-Id` / `X-Parent-Span`
//! headers (a `traceparent`-style pair, hex-encoded). Every
//! participating instance stores one [`TraceRecord`] per request —
//! its span tree, status, and parentage — in a [`TraceStore`]: a
//! bounded TTL ring like the serve layer's job table. Reading
//! `GET /v1/trace/{id}` assembles the records (local + peer-fetched)
//! into one tree by linking each record's parent span id to the span
//! id of the record that minted it.

use crate::json::{self, JsonValue};
use crate::span::SpanNode;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identity of one request within a distributed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by every hop of the request tree (never 0).
    pub trace_id: u64,
    /// This hop's span id (never 0).
    pub span_id: u64,
    /// Span id of the hop that called us, if any.
    pub parent: Option<u64>,
}

impl TraceContext {
    /// A fresh root context (no parent).
    pub fn root(trace_id: u64, span_id: u64) -> Self {
        Self {
            trace_id,
            span_id,
            parent: None,
        }
    }

    /// The context a downstream hop should receive: same trace, this
    /// hop's span id as the parent.
    pub fn child_of(&self, span_id: u64) -> Self {
        Self {
            trace_id: self.trace_id,
            span_id,
            parent: Some(self.span_id),
        }
    }
}

/// Hex wire form of a trace/span id (`016x`, lowercase).
pub fn id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a wire id: exactly 16 lowercase-insensitive hex digits,
/// nonzero (the zero id is "absent", as in W3C `traceparent`).
pub fn parse_id(text: &str) -> Option<u64> {
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    match u64::from_str_radix(text, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// One instance's record of one request inside a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Trace this record belongs to.
    pub trace_id: u64,
    /// This request's span id.
    pub span_id: u64,
    /// Span id of the calling hop (`None` at the trace root).
    pub parent: Option<u64>,
    /// What ran (`POST /v1/experiments/fig2/run`, `job sweep1`, …).
    pub name: String,
    /// Instance that recorded it (`host:port`).
    pub instance: String,
    /// The instance-local `X-Request-Id`.
    pub request_id: String,
    /// Wall-clock seconds when the request finished.
    pub unix_s: f64,
    /// Wall time of the whole request on this instance.
    pub total_s: f64,
    /// HTTP status the request answered with (0 for async jobs).
    pub status: u16,
    /// The captured span tree.
    pub roots: Vec<SpanNode>,
}

impl TraceRecord {
    /// Appends this record as a flat JSON object (no children member).
    pub fn push_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"trace_id\":\"{}\",\"span_id\":\"{}\"",
            id_hex(self.trace_id),
            id_hex(self.span_id)
        ));
        if let Some(parent) = self.parent {
            out.push_str(&format!(",\"parent\":\"{}\"", id_hex(parent)));
        }
        out.push_str(",\"name\":");
        json::push_string(&self.name, out);
        out.push_str(",\"instance\":");
        json::push_string(&self.instance, out);
        out.push_str(",\"request_id\":");
        json::push_string(&self.request_id, out);
        out.push_str(&format!(
            ",\"unix_s\":{},\"total_s\":{},\"status\":{},\"spans\":[",
            json::number(self.unix_s),
            json::number(self.total_s),
            self.status
        ));
        for (i, root) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            root.push_json(out);
        }
        out.push_str("]}");
    }

    /// Reads back a record [`TraceRecord::push_json`] wrote: `None` when
    /// `trace_id`, `span_id` or `name` is missing or malformed. Other
    /// members default when absent (a non-finite time, written as
    /// `null`, reads as zero), and malformed span nodes are skipped.
    pub fn from_json(value: &JsonValue) -> Option<TraceRecord> {
        let text = |key: &str| value.get(key).and_then(JsonValue::as_str);
        let number = |key: &str| value.get(key).and_then(JsonValue::as_f64);
        let roots = match value.get("spans") {
            Some(JsonValue::Array(spans)) => spans.iter().filter_map(SpanNode::from_json).collect(),
            _ => Vec::new(),
        };
        Some(TraceRecord {
            trace_id: parse_id(text("trace_id")?)?,
            span_id: parse_id(text("span_id")?)?,
            parent: text("parent").and_then(parse_id),
            name: text("name")?.to_string(),
            instance: text("instance").unwrap_or_default().to_string(),
            request_id: text("request_id").unwrap_or_default().to_string(),
            unix_s: number("unix_s").unwrap_or(0.0),
            total_s: number("total_s").unwrap_or(0.0),
            status: number("status").map_or(0, |s| s as u16),
            roots,
        })
    }
}

/// One instance's local share of a trace, as it travels between fleet
/// peers (`GET /v1/_fleet/trace/{id}`): a `trace_records` envelope
/// around the flat records, one line.
pub fn render_records_json(records: &[Arc<TraceRecord>]) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"schema\":1,\"kind\":\"trace_records\",\"records\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        r.push_json(&mut out);
    }
    out.push_str("]}\n");
    out
}

/// Parses a [`render_records_json`] body back into records. Anything
/// malformed is skipped rather than failing the whole set, so a
/// half-upgraded fleet still answers with what it can read.
pub fn parse_records_json(body: &str) -> Vec<Arc<TraceRecord>> {
    let Ok(top) = json::parse(body) else {
        return Vec::new();
    };
    let Some(JsonValue::Array(items)) = top.get("records") else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(TraceRecord::from_json)
        .map(Arc::new)
        .collect()
}

struct StoredRecord {
    record: Arc<TraceRecord>,
    stored: Instant,
}

/// Bounded TTL ring of recent [`TraceRecord`]s, oldest evicted first.
pub struct TraceStore {
    capacity: usize,
    ttl: Duration,
    entries: Mutex<VecDeque<StoredRecord>>,
}

impl TraceStore {
    /// A store keeping at most `capacity` records for at most `ttl`.
    pub fn new(capacity: usize, ttl: Duration) -> Self {
        Self {
            capacity: capacity.max(1),
            ttl,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Stores one record, evicting expired then oldest entries.
    pub fn record(&self, record: TraceRecord) {
        let mut entries = self.entries.lock().expect("trace store poisoned");
        let now = Instant::now();
        entries.retain(|e| now.duration_since(e.stored) <= self.ttl);
        entries.push_back(StoredRecord {
            record: Arc::new(record),
            stored: now,
        });
        while entries.len() > self.capacity {
            entries.pop_front();
        }
    }

    /// Every live record of one trace, in arrival order.
    pub fn get(&self, trace_id: u64) -> Vec<Arc<TraceRecord>> {
        let entries = self.entries.lock().expect("trace store poisoned");
        let now = Instant::now();
        entries
            .iter()
            .filter(|e| now.duration_since(e.stored) <= self.ttl)
            .filter(|e| e.record.trace_id == trace_id)
            .map(|e| Arc::clone(&e.record))
            .collect()
    }

    /// Live records currently held (expired entries excluded).
    pub fn len(&self) -> usize {
        let entries = self.entries.lock().expect("trace store poisoned");
        let now = Instant::now();
        entries
            .iter()
            .filter(|e| now.duration_since(e.stored) <= self.ttl)
            .count()
    }

    /// Whether no live record is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Renders one trace's records — local and peer-collected — as one
/// line of JSON: a flat `records` array (arrival order preserved) plus
/// a `tree` nesting each record under the record whose span id matches
/// its parent. Records whose parent is absent from the set (or cyclic)
/// surface as additional roots rather than vanishing.
pub fn render_trace_json(trace_id: u64, records: &[Arc<TraceRecord>]) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{\"schema\":1,\"kind\":\"trace\",\"trace_id\":\"{}\",\"records\":[",
        id_hex(trace_id)
    ));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        r.push_json(&mut out);
    }
    out.push_str("],\"tree\":[");

    // Link children to parents by span id; a record is a root when its
    // parent span id is not present among the records.
    let ids: Vec<u64> = records.iter().map(|r| r.span_id).collect();
    let mut placed = vec![false; records.len()];
    let mut first = true;
    for (i, r) in records.iter().enumerate() {
        let is_root = match r.parent {
            None => true,
            Some(p) => !ids.contains(&p) || p == r.span_id,
        };
        if is_root && !placed[i] {
            if !first {
                out.push(',');
            }
            first = false;
            push_tree_node(records, i, &mut placed, &mut out);
        }
    }
    // Cycles (malformed parentage) leave records unplaced; surface them
    // as extra roots so nothing silently disappears.
    for i in 0..records.len() {
        if !placed[i] {
            if !first {
                out.push(',');
            }
            first = false;
            push_tree_node(records, i, &mut placed, &mut out);
        }
    }
    out.push_str("]}\n");
    out
}

fn push_tree_node(
    records: &[Arc<TraceRecord>],
    index: usize,
    placed: &mut [bool],
    out: &mut String,
) {
    placed[index] = true;
    let r = &records[index];
    // Re-render the flat object, swapping the closing brace for a
    // children member.
    let mut flat = String::new();
    r.push_json(&mut flat);
    flat.pop(); // '}'
    out.push_str(&flat);
    out.push_str(",\"children\":[");
    let mut first = true;
    for (j, candidate) in records.iter().enumerate() {
        if !placed[j] && candidate.parent == Some(r.span_id) {
            if !first {
                out.push(',');
            }
            first = false;
            push_tree_node(records, j, placed, out);
        }
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(span_id: u64, parent: Option<u64>, name: &str, instance: &str) -> TraceRecord {
        TraceRecord {
            trace_id: 0xabc,
            span_id,
            parent,
            name: name.to_string(),
            instance: instance.to_string(),
            request_id: format!("rid-{span_id}"),
            unix_s: 1_700_000_000.0,
            total_s: 0.25,
            status: 200,
            roots: vec![SpanNode {
                name: "serve.request".to_string(),
                count: 1,
                total_s: 0.25,
                children: Vec::new(),
            }],
        }
    }

    #[test]
    fn ids_round_trip_through_hex_and_reject_junk() {
        assert_eq!(id_hex(0xdeadbeef), "00000000deadbeef");
        assert_eq!(parse_id("00000000deadbeef"), Some(0xdeadbeef));
        assert_eq!(parse_id("00000000DEADBEEF"), Some(0xdeadbeef));
        assert_eq!(parse_id("0000000000000000"), None, "zero id is absent");
        assert_eq!(parse_id("deadbeef"), None, "must be 16 digits");
        assert_eq!(parse_id("00000000deadbeeg"), None);
        assert_eq!(parse_id(""), None);
        let ctx = TraceContext::root(7, 9);
        let child = ctx.child_of(11);
        assert_eq!(child.trace_id, 7);
        assert_eq!(child.parent, Some(9));
    }

    #[test]
    fn store_is_bounded_and_expires_by_ttl() {
        let store = TraceStore::new(3, Duration::from_secs(60));
        for span_id in 1..=5u64 {
            store.record(record(span_id, None, "r", "a:1"));
        }
        let live = store.get(0xabc);
        assert_eq!(live.len(), 3, "ring must cap at capacity");
        assert_eq!(live[0].span_id, 3, "oldest records evicted first");
        assert!(store.get(0xdef).is_empty(), "other trace ids stay empty");

        let expiring = TraceStore::new(8, Duration::from_millis(5));
        expiring.record(record(1, None, "r", "a:1"));
        assert_eq!(expiring.len(), 1);
        std::thread::sleep(Duration::from_millis(20));
        assert!(expiring.is_empty(), "TTL must expire records");
        assert!(expiring.get(0xabc).is_empty());
    }

    #[test]
    fn tree_nests_remote_children_under_the_ingress_record() {
        let records = vec![
            Arc::new(record(1, None, "POST /v1/experiments/fig2/run", "a:1")),
            Arc::new(record(2, Some(1), "POST /v1/experiments/fig2/run", "b:2")),
        ];
        let json = render_trace_json(0xabc, &records);
        assert_eq!(json.lines().count(), 1);
        let doc = crate::json::parse(&json).expect("trace JSON must parse");
        assert_eq!(
            doc.get("trace_id").and_then(|v| v.as_str()),
            Some("0000000000000abc")
        );
        assert!(
            json.starts_with("{\"schema\":1,\"kind\":\"trace\",\"trace_id\":\"0000000000000abc\"")
        );
        // Flat list keeps both; tree nests the owner hop under ingress.
        assert_eq!(json.matches("\"instance\":\"b:2\"").count(), 2, "{json}");
        let tree = json.split("\"tree\":[").nth(1).expect("tree member");
        let ingress = tree.find("\"instance\":\"a:1\"").expect("ingress in tree");
        let owner = tree.find("\"instance\":\"b:2\"").expect("owner in tree");
        assert!(
            owner > ingress,
            "owner record must nest under ingress: {tree}"
        );
        assert!(
            tree.contains("\"children\":[{\"trace_id\""),
            "ingress must have a child record: {tree}"
        );
    }

    #[test]
    fn records_round_trip_through_the_peer_envelope() {
        // With and without a parent, and a span tree two levels deep.
        let mut nested = record(2, Some(1), "job fig12", "b:2");
        nested.roots[0].children = vec![SpanNode {
            name: "sweep.job".to_string(),
            count: 75,
            total_s: 0.125,
            children: vec![SpanNode {
                name: "process.sample".to_string(),
                count: 300,
                total_s: 0.0625,
                children: Vec::new(),
            }],
        }];
        let records = vec![
            Arc::new(record(1, None, "POST /v1/sweeps/fig12", "a:1")),
            Arc::new(nested),
        ];
        let body = render_records_json(&records);
        assert!(
            body.starts_with("{\"schema\":1,\"kind\":\"trace_records\",\"records\":[{")
                && body.ends_with("]}\n"),
            "{body}"
        );
        assert_eq!(parse_records_json(&body), records);
        assert!(parse_records_json(&render_records_json(&[])).is_empty());

        // Non-finite times cannot travel: the record writes `null`, the
        // span node `0`, and both read back as zero.
        let mut unbounded = record(3, None, "r", "a:1");
        unbounded.total_s = f64::NAN;
        unbounded.roots[0].total_s = f64::INFINITY;
        let body = render_records_json(&[Arc::new(unbounded)]);
        assert!(
            body.contains("\"total_s\":null") && body.contains("\"total_s\":0,"),
            "{body}"
        );
        let back = parse_records_json(&body);
        assert_eq!(back.len(), 1);
        assert_eq!((back[0].total_s, back[0].roots[0].total_s), (0.0, 0.0));
    }

    #[test]
    fn malformed_records_are_skipped_not_fatal() {
        let mut good = String::new();
        record(1, None, "r", "a:1").push_json(&mut good);
        let no_trace_id = good.replacen("\"trace_id\":\"0000000000000abc\",", "", 1);
        assert!(!no_trace_id.contains("trace_id"), "{no_trace_id}");
        let body = format!("{{\"records\":[{no_trace_id},{good},7]}}");
        let parsed = parse_records_json(&body);
        assert_eq!(parsed.len(), 1, "only the well-formed record survives");
        assert_eq!(*parsed[0], record(1, None, "r", "a:1"));
        assert!(parse_records_json("not json").is_empty());
        assert!(parse_records_json("{\"records\":{}}").is_empty());
    }

    #[test]
    fn orphans_and_cycles_surface_as_roots() {
        // Parent span 99 was evicted: the child still renders, as root.
        let orphan = vec![Arc::new(record(2, Some(99), "r", "b:2"))];
        let json = render_trace_json(0xabc, &orphan);
        assert!(json.contains("\"tree\":[{\"trace_id\""), "{json}");

        // A two-cycle: both placed, neither lost.
        let cyclic = vec![
            Arc::new(record(1, Some(2), "r", "a:1")),
            Arc::new(record(2, Some(1), "r", "b:2")),
        ];
        let json = render_trace_json(0xabc, &cyclic);
        let tree = json.split("\"tree\":[").nth(1).unwrap();
        assert_eq!(tree.matches("\"request_id\"").count(), 2, "{tree}");
    }
}
