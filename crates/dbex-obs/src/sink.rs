//! Pluggable trace sinks.
//!
//! A [`TraceSink`] receives every finished [`Trace`]. The in-memory
//! [`MemorySink`] backs the tests.

use crate::span::Trace;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Receives finished traces. Implementations must be cheap — sinks run
/// on the query path.
pub trait TraceSink: Send + Sync {
    fn record(&self, trace: &Trace);
}

/// Buffers every trace in memory; tests inspect it.
#[derive(Default)]
pub struct MemorySink {
    traces: Mutex<Vec<Trace>>,
}

impl MemorySink {
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Copies of every recorded trace, in arrival order.
    pub fn traces(&self) -> Vec<Trace> {
        lock(&self.traces).clone()
    }

    pub fn len(&self) -> usize {
        lock(&self.traces).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every distinct span name seen across all recorded traces.
    pub fn span_names(&self) -> BTreeSet<String> {
        lock(&self.traces)
            .iter()
            .flat_map(|t| t.span_names())
            .collect()
    }
}

impl TraceSink for MemorySink {
    fn record(&self, trace: &Trace) {
        lock(&self.traces).push(trace.clone());
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn tiny_trace() -> Trace {
        let tracer = Tracer::enabled();
        {
            let root = tracer.root("cad_build");
            root.child("topk").add("candidates", 2);
        }
        tracer.finish().expect("enabled")
    }

    #[test]
    fn memory_sink_collects_traces_and_names() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        let trace = tiny_trace();
        sink.record(&trace);
        sink.record(&trace);
        assert_eq!(sink.len(), 2);
        let names = sink.span_names();
        assert!(names.contains("cad_build"));
        assert!(names.contains("topk"));
    }
}
