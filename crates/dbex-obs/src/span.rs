//! Hierarchical trace spans with monotonic timing and attached counters.
//!
//! A [`Tracer`] collects raw enter/exit events from any number of threads
//! into one flat log; [`Tracer::finish`] assembles the log into a
//! [`Trace`] tree. Same-named sibling spans are *merged* during assembly
//! (durations and counters summed, occurrences counted in `calls`), so a
//! stage that fans out over a worker pool produces one deterministic node
//! regardless of how many workers ran it.
//!
//! The disabled tracer is a `None` — every operation is an `Option`
//! check, so instrumented code pays nothing when tracing is off.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a raw span inside the tracer's event log.
///
/// Handles stay valid after the span exits; counters may still be added
/// to an exited span (they are summed at assembly time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One raw enter/exit record; assembled into the tree by `finish`.
struct RawSpan {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: Option<u64>,
    counters: Vec<(&'static str, u64)>,
}

struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<RawSpan>>,
}

/// A handle for recording spans. Cloning is cheap (an `Arc`); all clones
/// feed the same event log. `Tracer::disabled()` records nothing.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer(Some(Arc::new(Inner {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// A tracer where every operation is a no-op.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a root span (no parent). Prefer the guard API; the span
    /// exits when the returned [`Span`] drops.
    pub fn root(&self, name: &'static str) -> Span<'_> {
        Span {
            tracer: self,
            id: self.enter_raw(None, name),
        }
    }

    /// Opens a span under `parent`, a span held by its raw id — e.g. the
    /// root of a build that stays open across calls. Records nothing
    /// when `parent` is `None` (as on a disabled tracer).
    pub fn child_of(&self, parent: Option<SpanId>, name: &'static str) -> Span<'_> {
        Span {
            tracer: self,
            id: parent.and_then(|p| self.enter_raw(Some(p), name)),
        }
    }

    /// Raw API: opens a span under `parent` (or as a root). Returns
    /// `None` on a disabled tracer.
    pub fn enter_raw(&self, parent: Option<SpanId>, name: &'static str) -> Option<SpanId> {
        let inner = self.0.as_ref()?;
        let start_ns = elapsed_ns(inner.epoch);
        let mut spans = lock(&inner.spans);
        let id = spans.len();
        spans.push(RawSpan {
            name,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: None,
            counters: Vec::new(),
        });
        Some(SpanId(id))
    }

    /// Raw API: closes a span. Idempotent — exiting twice keeps the
    /// first exit time.
    pub fn exit_raw(&self, id: SpanId) {
        if let Some(inner) = self.0.as_ref() {
            let end_ns = elapsed_ns(inner.epoch);
            let mut spans = lock(&inner.spans);
            if let Some(span) = spans.get_mut(id.0) {
                if span.end_ns.is_none() {
                    span.end_ns = Some(end_ns);
                }
            }
        }
    }

    /// Raw API: attaches `n` to counter `key` on span `id`. Values for
    /// the same key are summed at assembly time.
    pub fn add_raw(&self, id: SpanId, key: &'static str, n: u64) {
        if let Some(inner) = self.0.as_ref() {
            let mut spans = lock(&inner.spans);
            if let Some(span) = spans.get_mut(id.0) {
                span.counters.push((key, n));
            }
        }
    }

    /// Drains the event log and assembles the span tree. Spans still
    /// open are force-closed at the current time (counted in
    /// [`Trace::forced_closures`]). Returns `None` on a disabled tracer.
    pub fn finish(&self) -> Option<Trace> {
        let inner = self.0.as_ref()?;
        let now = elapsed_ns(inner.epoch);
        let mut raw = std::mem::take(&mut *lock(&inner.spans));
        let mut forced_closures = 0u64;
        for span in &mut raw {
            if span.end_ns.is_none() {
                span.end_ns = Some(now);
                forced_closures += 1;
            }
        }
        // Clamp children into their parent's (already clamped) interval.
        // Parents always precede children in the log, so one forward
        // pass sees final parent bounds.
        for i in 0..raw.len() {
            if let Some(p) = raw[i].parent {
                let (p_start, p_end) = (raw[p].start_ns, raw[p].end_ns.unwrap_or(now));
                let span = &mut raw[i];
                span.start_ns = span.start_ns.clamp(p_start, p_end);
                span.end_ns = span.end_ns.map(|e| e.clamp(span.start_ns, p_end));
            }
        }
        // Index children by parent, preserving log (first-enter) order.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); raw.len()];
        let mut roots = Vec::new();
        for (i, span) in raw.iter().enumerate() {
            match span.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        Some(Trace {
            roots: merge_siblings(&raw, &children, &roots),
            forced_closures,
        })
    }
}

/// Merges a sibling group by name (first-appearance order) into nodes.
fn merge_siblings(raw: &[RawSpan], children: &[Vec<usize>], group: &[usize]) -> Vec<SpanNode> {
    let mut order: Vec<&'static str> = Vec::new();
    let mut by_name: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
    for &i in group {
        let name = raw[i].name;
        by_name.entry(name).or_insert_with(|| {
            order.push(name);
            Vec::new()
        });
        if let Some(v) = by_name.get_mut(name) {
            v.push(i);
        }
    }
    order
        .into_iter()
        .map(|name| {
            let members = &by_name[name];
            let mut counters = BTreeMap::new();
            let mut duration_ns = 0u64;
            let mut grandchildren = Vec::new();
            for &i in members {
                let span = &raw[i];
                duration_ns += span.end_ns.unwrap_or(span.start_ns) - span.start_ns;
                for &(key, n) in &span.counters {
                    *counters.entry(key.to_owned()).or_insert(0) += n;
                }
                grandchildren.extend(children[i].iter().copied());
            }
            SpanNode {
                name: name.to_owned(),
                calls: members.len() as u64,
                duration_ns,
                counters,
                children: merge_siblings(raw, children, &grandchildren),
            }
        })
        .collect()
}

/// A live span guard. Exits (records the end time) on drop. Holds a
/// borrow of its [`Tracer`], so it can be shared with scoped worker
/// threads (`&Span` is `Send + Sync`).
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: Option<SpanId>,
}

impl<'t> Span<'t> {
    /// Opens a child span under this one.
    pub fn child(&self, name: &'static str) -> Span<'t> {
        Span {
            tracer: self.tracer,
            id: self.id.and_then(|id| self.tracer.enter_raw(Some(id), name)),
        }
    }

    /// Adds `n` to this span's counter `key`.
    pub fn add(&self, key: &'static str, n: u64) {
        if let Some(id) = self.id {
            self.tracer.add_raw(id, key, n);
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.tracer.exit_raw(id);
        }
    }
}

/// One node of the assembled span tree. Same-named siblings are merged:
/// `calls` counts the raw spans folded in, `duration_ns` and `counters`
/// are their sums. Children keep first-enter order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    pub name: String,
    pub calls: u64,
    pub duration_ns: u64,
    pub counters: BTreeMap<String, u64>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A counter's value (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

/// An assembled, immutable span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    pub roots: Vec<SpanNode>,
    /// Spans still open when `finish` ran (0 for a well-nested trace).
    pub forced_closures: u64,
}

impl Trace {
    /// Finds the first node named `name` (depth-first).
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        fn walk<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
            for node in nodes {
                if node.name == name {
                    return Some(node);
                }
                if let Some(hit) = walk(&node.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        walk(&self.roots, name)
    }

    /// Total raw spans folded into the tree (sum of `calls`).
    pub fn total_spans(&self) -> u64 {
        fn walk(nodes: &[SpanNode]) -> u64 {
            nodes.iter().map(|n| n.calls + walk(&n.children)).sum()
        }
        walk(&self.roots)
    }

    /// Every distinct span name in the tree.
    pub fn span_names(&self) -> Vec<String> {
        fn walk(nodes: &[SpanNode], out: &mut Vec<String>) {
            for node in nodes {
                if !out.contains(&node.name) {
                    out.push(node.name.clone());
                }
                walk(&node.children, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.roots, &mut out);
        out
    }

    /// The structure-only view of the tree: names, calls, and counters
    /// but no durations. Byte-identical across thread counts for a
    /// deterministic pipeline — the determinism tests compare this.
    pub fn structural_digest(&self) -> String {
        fn walk(nodes: &[SpanNode], depth: usize, out: &mut String) {
            for node in nodes {
                let _ = write!(out, "{:indent$}{} calls={}", "", node.name, node.calls, indent = depth * 2);
                for (key, value) in &node.counters {
                    let _ = write!(out, " {key}={value}");
                }
                out.push('\n');
                walk(&node.children, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(&self.roots, 0, &mut out);
        out
    }

    /// Human-readable table, one row per node, children indented.
    pub fn render(&self) -> String {
        fn name_width(nodes: &[SpanNode], depth: usize) -> usize {
            nodes
                .iter()
                .map(|n| (depth * 2 + n.name.len()).max(name_width(&n.children, depth + 1)))
                .max()
                .unwrap_or(0)
        }
        fn walk(nodes: &[SpanNode], depth: usize, width: usize, out: &mut String) {
            for node in nodes {
                let indented = format!("{:indent$}{}", "", node.name, indent = depth * 2);
                let _ = write!(
                    out,
                    "{indented:<width$}  {:>5}  {:>9}",
                    node.calls,
                    fmt_ns(node.duration_ns)
                );
                for (key, value) in &node.counters {
                    let _ = write!(out, " {key}={value}");
                }
                out.push('\n');
                walk(&node.children, depth + 1, width, out);
            }
        }
        let width = name_width(&self.roots, 0).max("span".len());
        let mut out = format!("{:<width$}  {:>5}  {:>9}\n", "span", "calls", "time");
        walk(&self.roots, 0, width, &mut out);
        out
    }

    /// The tree as a JSON array of root objects, durations in ms rounded
    /// to the microsecond.
    pub fn to_json(&self) -> Json {
        fn node_json(node: &SpanNode) -> Json {
            Json::obj([
                ("name", node.name.as_str().into()),
                ("calls", node.calls.into()),
                (
                    "duration_ms",
                    ((node.duration_ns as f64 / 1e3).round() / 1e3).into(),
                ),
                (
                    "counters",
                    Json::Obj(
                        node.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), (*v).into()))
                            .collect(),
                    ),
                ),
                (
                    "children",
                    Json::Arr(node.children.iter().map(node_json).collect()),
                ),
            ])
        }
        Json::Arr(self.roots.iter().map(node_json).collect())
    }
}

/// Formats a nanosecond duration the way `Duration`'s `{:.1?}` does.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Locks a mutex, recovering from poisoning (counters can't be torn).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let root = tracer.root("x");
        root.add("n", 3);
        let child = root.child("y");
        drop(child);
        drop(root);
        assert!(tracer.finish().is_none());
    }

    #[test]
    fn guards_build_a_nested_tree() {
        let tracer = Tracer::enabled();
        {
            let root = tracer.root("build");
            root.add("rows", 10);
            {
                let stage = root.child("stage");
                stage.add("items", 2);
                stage.add("items", 3);
            }
            root.child("stage2");
        }
        let trace = tracer.finish().expect("enabled");
        assert_eq!(trace.forced_closures, 0);
        assert_eq!(trace.roots.len(), 1);
        let root = &trace.roots[0];
        assert_eq!(root.name, "build");
        assert_eq!(root.counter("rows"), 10);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "stage");
        assert_eq!(root.children[0].counter("items"), 5);
        assert_eq!(trace.find("stage2").map(|n| n.calls), Some(1));
    }

    #[test]
    fn same_named_siblings_merge() {
        let tracer = Tracer::enabled();
        {
            let root = tracer.root("build");
            for size in [4u64, 6, 8] {
                let worker = root.child("partition");
                worker.add("rows", size);
            }
        }
        let trace = tracer.finish().expect("enabled");
        let node = trace.find("partition").expect("merged node");
        assert_eq!(node.calls, 3);
        assert_eq!(node.counter("rows"), 18);
        assert_eq!(trace.total_spans(), 4);
    }

    #[test]
    fn merging_works_across_threads() {
        let tracer = Tracer::enabled();
        {
            let root = tracer.root("build");
            std::thread::scope(|scope| {
                for i in 0..4u64 {
                    let root = &root;
                    scope.spawn(move || {
                        let worker = root.child("worker");
                        worker.add("items", i + 1);
                    });
                }
            });
        }
        let trace = tracer.finish().expect("enabled");
        let node = trace.find("worker").expect("merged node");
        assert_eq!(node.calls, 4);
        assert_eq!(node.counter("items"), 10);
        assert_eq!(trace.structural_digest(), "build calls=1\n  worker calls=4 items=10\n");
    }

    #[test]
    fn unclosed_spans_are_force_closed() {
        let tracer = Tracer::enabled();
        let a = tracer.enter_raw(None, "a").expect("enabled");
        let b = tracer.enter_raw(Some(a), "b").expect("enabled");
        tracer.exit_raw(b);
        tracer.exit_raw(b); // double exit is a no-op
        let trace = tracer.finish().expect("enabled");
        assert_eq!(trace.forced_closures, 1);
        assert_eq!(trace.total_spans(), 2);
    }

    #[test]
    fn render_and_json_contain_every_span() {
        let tracer = Tracer::enabled();
        {
            let root = tracer.root("cad_build");
            let stage = root.child("topk");
            stage.add("candidates", 12);
        }
        let trace = tracer.finish().expect("enabled");
        let text = trace.render();
        assert!(text.contains("cad_build"));
        assert!(text.contains("candidates=12"));
        let json = trace.to_json().to_string();
        assert!(json.contains("\"name\":\"topk\""));
        assert!(json.contains("\"candidates\":12"));
    }

    #[test]
    fn json_escapes_names_and_round_trips() {
        let tracer = Tracer::enabled();
        {
            let root = tracer.root("odd \"name\" \\ here");
            root.add("key \"q\" \\", 7);
            root.child("plain");
        }
        let trace = tracer.finish().expect("enabled");
        let json = trace.to_json();
        let text = json.to_string();
        assert_eq!(Json::parse(&text), Ok(json.clone()));
        let root = &json.as_array().expect("array of roots")[0];
        assert_eq!(
            root.get("name").and_then(Json::as_str),
            Some("odd \"name\" \\ here")
        );
        assert_eq!(
            root.get("counters")
                .and_then(|c| c.get("key \"q\" \\"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        let children = root
            .get("children")
            .and_then(Json::as_array)
            .expect("children");
        assert_eq!(
            children[0].get("name").and_then(Json::as_str),
            Some("plain")
        );
    }
}
