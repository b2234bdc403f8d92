//! RAII timing spans over a thread-local stack.
//!
//! `let _g = span!("fields.vcycle");` times the enclosing scope. On
//! drop, the elapsed wall-time is recorded into a histogram in the
//! [`global`](crate::global) registry named after the span path
//! (`fields.vcycle` → `cnt_span_fields_vcycle_seconds`), so every span
//! is a latency distribution for free. The histogram handle is cached
//! per thread after first use: steady-state cost is two `Instant`
//! reads, a hash lookup, and two relaxed atomics — no allocation, no
//! locks.
//!
//! When a [`Trace`] is active on the thread, closed spans additionally
//! fold into a [`SpanNode`] tree, merged by name per nesting level
//! (eight V-cycles become one node with `count = 8`), which is what
//! `repro profile` renders. Tracing is per-thread: spans recorded on
//! pool worker threads still land in the histograms, but only
//! calling-thread spans appear in the tree.
//!
//! Guards are panic-safe: an unwinding scope still records and pops.

use crate::json::{self, JsonValue};
use crate::metrics::Histogram;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Starts a timing span; bind the guard (`let _g = span!("a.b");`).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::span($name)
    };
}

thread_local! {
    /// Span-path → histogram handle, resolved once per thread.
    static HANDLES: RefCell<HashMap<&'static str, Arc<Histogram>>> =
        RefCell::new(HashMap::new());
    /// The active trace, if any: one frame of merged children per open
    /// traced span, `frames[0]` being the root level.
    static TRACE: RefCell<Option<TraceState>> = const { RefCell::new(None) };
}

struct TraceState {
    frames: Vec<Vec<SpanNode>>,
}

/// One aggregated node of a captured span tree: spans of the same name
/// at the same nesting level merge (summed time, summed count).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span path (`"fields.vcycle"`).
    pub name: String,
    /// How many spans merged into this node.
    pub count: u64,
    /// Total wall-time across the merged spans, in seconds.
    pub total_s: f64,
    /// Child spans, first-seen order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Time spent in this span but not in any child, clamped to ≥ 0.
    pub fn self_s(&self) -> f64 {
        let child: f64 = self.children.iter().map(|c| c.total_s).sum();
        (self.total_s - child).max(0.0)
    }

    /// Appends this node as a JSON object (single line, no trailing
    /// newline): `{"name":…,"count":…,"total_s":…,"children":[…]}`. A
    /// non-finite `total_s` renders as `0`.
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::push_string(&self.name, out);
        let total = if self.total_s.is_finite() {
            self.total_s
        } else {
            0.0
        };
        out.push_str(&format!(
            ",\"count\":{},\"total_s\":{}",
            self.count,
            json::number(total)
        ));
        out.push_str(",\"children\":[");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.push_json(out);
        }
        out.push_str("]}");
    }

    /// Reads back a node [`SpanNode::push_json`] wrote: `None` unless
    /// `value` is an object with a string `name`. A missing or malformed
    /// `count` or `total_s` reads as zero; malformed children are
    /// skipped.
    pub fn from_json(value: &JsonValue) -> Option<SpanNode> {
        let JsonValue::Object(members) = value else {
            return None;
        };
        let mut name = None;
        let mut count = 0u64;
        let mut total_s = 0.0f64;
        let mut children = Vec::new();
        for (key, value) in members {
            match (key.as_str(), value) {
                ("name", JsonValue::String(s)) => name = Some(s.clone()),
                ("count", JsonValue::Number(raw)) => count = raw.parse().unwrap_or(0),
                ("total_s", JsonValue::Number(raw)) => total_s = raw.parse().unwrap_or(0.0),
                ("children", JsonValue::Array(items)) => {
                    children = items.iter().filter_map(SpanNode::from_json).collect();
                }
                _ => {}
            }
        }
        Some(SpanNode {
            name: name?,
            count,
            total_s,
            children,
        })
    }
}

fn merge_into(list: &mut Vec<SpanNode>, node: SpanNode) {
    if let Some(existing) = list.iter_mut().find(|n| n.name == node.name) {
        existing.count += node.count;
        existing.total_s += node.total_s;
        for child in node.children {
            merge_into(&mut existing.children, child);
        }
    } else {
        list.push(node);
    }
}

/// Merges `node` into `list` with the same name-per-level folding the
/// trace capture applies — the building block for aggregating span
/// trees captured on *other* threads (pool workers, other requests)
/// into one view.
pub fn merge_nodes(list: &mut Vec<SpanNode>, node: SpanNode) {
    merge_into(list, node);
}

/// A per-thread span-tree capture. `begin` arms it, `end` returns the
/// merged root-level nodes. Spans already open when the trace begins
/// are not captured (they still record their histograms).
pub struct Trace;

impl Trace {
    /// Arms tracing on this thread, discarding any previous capture.
    pub fn begin() {
        TRACE.with(|t| {
            *t.borrow_mut() = Some(TraceState {
                frames: vec![Vec::new()],
            });
        });
    }

    /// Whether a trace is active on this thread.
    pub fn is_active() -> bool {
        TRACE.with(|t| t.borrow().is_some())
    }

    /// Disarms tracing and returns the captured root-level nodes
    /// (empty when no trace was active). Frames of spans still open at
    /// `end` are folded into their parent level so nothing is lost.
    pub fn end() -> Vec<SpanNode> {
        TRACE.with(|t| {
            let Some(mut state) = t.borrow_mut().take() else {
                return Vec::new();
            };
            while state.frames.len() > 1 {
                let orphans = state.frames.pop().expect("frame vec checked non-empty");
                let parent = state.frames.last_mut().expect("root frame always present");
                for node in orphans {
                    merge_into(parent, node);
                }
            }
            state.frames.pop().unwrap_or_default()
        })
    }

    /// Grafts externally captured span trees into the active trace at
    /// the current nesting level (so they appear as children of the
    /// innermost open span). No-op when no trace is armed — callers can
    /// attach unconditionally. This is how work executed on *other*
    /// threads (a sweep's pool workers) lands in the calling thread's
    /// profile: each worker runs its own `begin`/`end` capture and the
    /// orchestrator attaches the merged result.
    pub fn attach(nodes: Vec<SpanNode>) {
        let _ = TRACE.try_with(|t| {
            let mut t = t.borrow_mut();
            if let Some(state) = t.as_mut() {
                let frame = state.frames.last_mut().expect("root frame always present");
                for node in nodes {
                    merge_into(frame, node);
                }
            }
        });
    }
}

/// The RAII guard [`span!`] returns; records on drop.
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    traced: bool,
}

/// Starts a span (prefer the [`span!`] macro).
pub fn span(name: &'static str) -> SpanGuard {
    let traced = TRACE
        .try_with(|t| {
            let mut t = t.borrow_mut();
            match t.as_mut() {
                Some(state) => {
                    state.frames.push(Vec::new());
                    true
                }
                None => false,
            }
        })
        .unwrap_or(false);
    SpanGuard {
        name,
        start: Instant::now(),
        traced,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        // Histogram record, via the per-thread handle cache. try_with:
        // a guard dropped during thread teardown must not panic.
        let _ = HANDLES.try_with(|handles| {
            let mut handles = handles.borrow_mut();
            let h = handles
                .entry(self.name)
                .or_insert_with(|| register_span_histogram(self.name));
            h.record_duration(elapsed);
        });
        if self.traced {
            let _ = TRACE.try_with(|t| {
                let mut t = t.borrow_mut();
                if let Some(state) = t.as_mut() {
                    let children = state.frames.pop().unwrap_or_default();
                    let node = SpanNode {
                        name: self.name.to_string(),
                        count: 1,
                        total_s: elapsed.as_secs_f64(),
                        children,
                    };
                    match state.frames.last_mut() {
                        Some(parent) => merge_into(parent, node),
                        // The trace was replaced under an open guard;
                        // re-seed the root frame rather than lose data.
                        None => state.frames.push(vec![node]),
                    }
                }
            });
        }
    }
}

fn register_span_histogram(name: &str) -> Arc<Histogram> {
    let mut metric = String::with_capacity(name.len() + 24);
    metric.push_str("cnt_span_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            metric.push(c);
        } else {
            metric.push('_');
        }
    }
    metric.push_str("_seconds");
    crate::global().histogram(&metric, &format!("wall time of the {name} span"))
}

/// Renders captured span trees as an indented text table: name, merge
/// count, total time, share of the parent's total.
pub fn render_tree_text(roots: &[SpanNode]) -> String {
    fn width(nodes: &[SpanNode], depth: usize) -> usize {
        nodes
            .iter()
            .map(|n| (2 * depth + n.name.len()).max(width(&n.children, depth + 1)))
            .max()
            .unwrap_or(0)
    }
    fn walk(nodes: &[SpanNode], depth: usize, parent_s: f64, w: usize, out: &mut String) {
        for n in nodes {
            let pct = if parent_s > 0.0 {
                100.0 * n.total_s / parent_s
            } else {
                100.0
            };
            let label = format!("{}{}", "  ".repeat(depth), n.name);
            out.push_str(&format!(
                "{label:<w$}  {:>10}  {pct:>5.1}%  x{}\n",
                fmt_secs(n.total_s),
                n.count
            ));
            walk(&n.children, depth + 1, n.total_s, w, out);
        }
    }
    let w = width(roots, 0).max(8);
    let mut out = String::new();
    walk(roots, 0, roots.iter().map(|n| n.total_s).sum(), w, &mut out);
    out
}

/// Renders span trees in the folded-stacks format flamegraph tooling
/// consumes: one `root;child;leaf <value>` line per stack, where the
/// value is the stack's *self* time in integer microseconds (time in
/// the node but not in any child). Interior nodes whose self time
/// rounds to zero are omitted — their time is fully accounted for by
/// their children — but leaves always emit so no stack disappears.
pub fn fold_stacks(roots: &[SpanNode]) -> String {
    fn walk(prefix: &str, node: &SpanNode, out: &mut String) {
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix};{}", node.name)
        };
        let self_us = (node.self_s() * 1e6).round() as u64;
        if self_us > 0 || node.children.is_empty() {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&self_us.to_string());
            out.push('\n');
        }
        for child in &node.children {
            walk(&path, child, out);
        }
    }
    let mut out = String::new();
    for root in roots {
        walk("", root, &mut out);
    }
    out
}

/// A cumulative span profile: trees captured across many requests (or
/// many `Trace` sessions) merged into one forest, behind a mutex. The
/// serve layer folds every traced request into one of these and exposes
/// it at `/v1/profile`; `fold_stacks` on the snapshot yields the
/// flamegraph view of everything the process did.
#[derive(Debug, Default)]
pub struct Profile {
    roots: std::sync::Mutex<Vec<SpanNode>>,
    captures: std::sync::atomic::AtomicU64,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges one captured forest (a `Trace::end` result) into the
    /// profile. Empty captures still count toward [`Profile::captures`].
    pub fn add(&self, roots: &[SpanNode]) {
        self.captures
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut merged = self.roots.lock().expect("profile poisoned");
        for node in roots {
            merge_into(&mut merged, node.clone());
        }
    }

    /// How many captures were folded in.
    pub fn captures(&self) -> u64 {
        self.captures.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// A clone of the merged forest.
    pub fn snapshot(&self) -> Vec<SpanNode> {
        self.roots.lock().expect("profile poisoned").clone()
    }

    /// The profile as folded stacks (see [`fold_stacks`]).
    pub fn folded(&self) -> String {
        fold_stacks(&self.snapshot())
    }

    /// The profile as one line of JSON:
    /// `{"schema":1,"kind":"profile","captures":N,"spans":[…]}`.
    pub fn render_json(&self) -> String {
        let roots = self.snapshot();
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"schema\":1,\"kind\":\"profile\",\"captures\":{},\"spans\":[",
            self.captures()
        ));
        for (i, root) in roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            root.push_json(&mut out);
        }
        out.push_str("]}\n");
        out
    }
}

/// Formats seconds with an adaptive unit (`ns`/`µs`/`ms`/`s`).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn nested_spans_build_a_merged_tree() {
        Trace::begin();
        {
            let _outer = span!("test.outer");
            for _ in 0..3 {
                let _inner = span!("test.inner");
                let _leaf = span!("test.leaf");
            }
        }
        let roots = Trace::end();
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!((outer.name.as_str(), outer.count), ("test.outer", 1));
        assert_eq!(outer.children.len(), 1, "inner spans must merge");
        let inner = &outer.children[0];
        assert_eq!((inner.name.as_str(), inner.count), ("test.inner", 3));
        assert_eq!(inner.children[0].count, 3);
        assert!(outer.total_s >= inner.total_s);
        assert!(outer.self_s() >= 0.0);
        // The trace is disarmed: a second end is empty.
        assert!(Trace::end().is_empty());
    }

    #[test]
    fn spans_record_histograms_without_a_trace() {
        {
            let _g = span!("test.histo-only");
        }
        let text = crate::global().render_prometheus();
        assert!(
            text.contains("cnt_span_test_histo_only_seconds_count"),
            "span histogram missing from global registry"
        );
    }

    #[test]
    fn panicking_scopes_still_pop_and_record() {
        Trace::begin();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _outer = span!("test.panic-outer");
            let _inner = span!("test.panic-inner");
            panic!("span scope blew up");
        }));
        assert!(result.is_err());
        // Both guards dropped during unwind: the tree is intact and a
        // fresh span nests at root level, not under a leaked frame.
        {
            let _after = span!("test.panic-after");
        }
        let roots = Trace::end();
        let names: Vec<&str> = roots.iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"test.panic-outer"), "{names:?}");
        assert!(names.contains(&"test.panic-after"), "{names:?}");
        let outer = roots.iter().find(|n| n.name == "test.panic-outer").unwrap();
        assert_eq!(outer.children[0].name, "test.panic-inner");
    }

    #[test]
    fn end_folds_open_frames_into_parents() {
        Trace::begin();
        let open = span!("test.still-open");
        {
            let _closed = span!("test.closed-child");
        }
        let roots = Trace::end();
        // The open span's frame is folded up so the closed child is
        // not lost; the open span itself was never closed, so it is
        // absent by construction.
        assert!(roots.iter().any(|n| n.name == "test.closed-child"));
        drop(open);
    }

    #[test]
    fn tree_renders_text_and_json() {
        let roots = vec![SpanNode {
            name: "a".to_string(),
            count: 1,
            total_s: 0.2,
            children: vec![SpanNode {
                name: "b.c".to_string(),
                count: 4,
                total_s: 0.1,
                children: Vec::new(),
            }],
        }];
        let text = render_tree_text(&roots);
        assert!(text.contains("a"), "{text}");
        assert!(text.contains("  b.c"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
        assert!(text.contains("x4"), "{text}");
        let mut json = String::new();
        roots[0].push_json(&mut json);
        assert_eq!(
            json,
            "{\"name\":\"a\",\"count\":1,\"total_s\":0.2,\"children\":[{\"name\":\"b.c\",\"count\":4,\"total_s\":0.1,\"children\":[]}]}"
        );
    }

    #[test]
    fn span_names_with_control_characters_render_valid_json() {
        let node = SpanNode {
            name: "line\nbreak \"q\" \\ \u{1}".to_string(),
            count: 2,
            total_s: f64::NAN,
            children: Vec::new(),
        };
        let mut out = String::new();
        node.push_json(&mut out);
        assert!(!out.contains('\n'), "{out}");
        let doc = json::parse(&out).expect("span JSON must parse");
        assert_eq!(
            doc.get("name").and_then(|v| v.as_str()),
            Some(node.name.as_str())
        );
        assert_eq!(doc.get("total_s").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn attach_grafts_foreign_trees_under_the_open_span() {
        let worker_tree = vec![SpanNode {
            name: "sweep.job".to_string(),
            count: 4,
            total_s: 0.4,
            children: Vec::new(),
        }];
        // Without a trace, attach is a no-op (and must not panic).
        Trace::attach(worker_tree.clone());
        Trace::begin();
        {
            let _outer = span!("test.attach-outer");
            Trace::attach(worker_tree.clone());
            Trace::attach(worker_tree.clone());
        }
        let roots = Trace::end();
        let outer = roots
            .iter()
            .find(|n| n.name == "test.attach-outer")
            .expect("outer span captured");
        let job = outer
            .children
            .iter()
            .find(|n| n.name == "sweep.job")
            .expect("attached tree nests under the open span");
        assert_eq!(job.count, 8, "attached trees must merge");
        assert!((job.total_s - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fold_stacks_emits_self_time_per_stack() {
        let roots = vec![SpanNode {
            name: "serve.request".to_string(),
            count: 1,
            total_s: 0.003,
            children: vec![SpanNode {
                name: "fields.solve".to_string(),
                count: 2,
                total_s: 0.002,
                children: Vec::new(),
            }],
        }];
        let folded = fold_stacks(&roots);
        assert_eq!(
            folded,
            "serve.request 1000\nserve.request;fields.solve 2000\n"
        );
        // A parent fully accounted for by its children emits no line of
        // its own, but the leaf always does.
        let exact = vec![SpanNode {
            name: "a".to_string(),
            count: 1,
            total_s: 0.001,
            children: vec![SpanNode {
                name: "b".to_string(),
                count: 1,
                total_s: 0.001,
                children: Vec::new(),
            }],
        }];
        assert_eq!(fold_stacks(&exact), "a;b 1000\n");
        assert_eq!(fold_stacks(&[]), "");
    }

    #[test]
    fn profile_accumulates_across_captures() {
        let profile = Profile::new();
        let tree = |t: f64| {
            vec![SpanNode {
                name: "serve.request".to_string(),
                count: 1,
                total_s: t,
                children: Vec::new(),
            }]
        };
        profile.add(&tree(0.01));
        profile.add(&tree(0.03));
        assert_eq!(profile.captures(), 2);
        let snap = profile.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].count, 2);
        assert!((snap[0].total_s - 0.04).abs() < 1e-12);
        let json = profile.render_json();
        assert!(json.starts_with("{\"schema\":1,\"kind\":\"profile\",\"captures\":2,"));
        assert_eq!(json.lines().count(), 1);
        let doc = crate::json::parse(&json).expect("profile JSON must parse");
        assert_eq!(doc.get("captures").and_then(|v| v.as_f64()), Some(2.0));
        assert!(profile.folded().starts_with("serve.request "));
    }

    #[test]
    fn fmt_secs_picks_units() {
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_secs(0.0123), "12.300 ms");
        assert_eq!(fmt_secs(4.2e-5), "42.000 µs");
        assert_eq!(fmt_secs(5.0e-8), "50 ns");
    }
}
