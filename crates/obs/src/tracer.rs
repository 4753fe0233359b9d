//! The tracer: a cheap handle that records spans, instants and metrics
//! into a shared, thread-safe collector.
//!
//! A [`Tracer`] is either *enabled* (it holds an `Arc` to the shared
//! collector) or *disabled* (it holds nothing and every call is a
//! no-op). Instrumented code takes `&Tracer` unconditionally; the
//! disabled path costs one branch per call site, which keeps the
//! overhead of always-on instrumentation hooks well under the 5%
//! budget.
//!
//! Handles are scoped with [`Tracer::at`]: a worker thread gets a clone
//! whose default parent is the batch span and whose default track is
//! the worker's lane, so code deeper in the stack can open spans without
//! threading parent ids around explicitly.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::span::{InstantRecord, SpanId, SpanRecord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    instants: Mutex<Vec<InstantRecord>>,
    tracks: Mutex<Vec<(usize, String)>>,
    metrics: MetricsRegistry,
}

impl Inner {
    fn new() -> Self {
        Inner {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            instants: Mutex::new(Vec::new()),
            tracks: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// Handle for recording trace events; cheap to clone, safe to share
/// across threads. See the module docs for the enabled/disabled and
/// scoping model.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
    parent: u64,
    track: usize,
}

impl Tracer {
    /// A fresh, enabled tracer with its own collector; the epoch is set
    /// to "now".
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            inner: Some(Arc::new(Inner::new())),
            parent: 0,
            track: 0,
        }
    }

    /// A disabled tracer: every recording call is a no-op.
    #[must_use]
    pub const fn disabled() -> Self {
        Tracer {
            inner: None,
            parent: 0,
            track: 0,
        }
    }

    /// Whether events are actually being collected.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle sharing this collector whose spans default to the given
    /// parent and track.
    #[must_use]
    pub fn at(&self, parent: SpanId, track: usize) -> Tracer {
        Tracer {
            inner: self.inner.clone(),
            parent: parent.0,
            track,
        }
    }

    /// The track new spans land on by default.
    #[must_use]
    pub fn default_track(&self) -> usize {
        self.track
    }

    /// Names a track for exporters (Chrome trace thread names).
    pub fn set_track_name(&self, track: usize, name: &str) {
        if let Some(inner) = &self.inner {
            let mut tracks = inner.tracks.lock().expect("tracks lock");
            if let Some(entry) = tracks.iter_mut().find(|(t, _)| *t == track) {
                entry.1 = name.to_string();
            } else {
                tracks.push((track, name.to_string()));
            }
        }
    }

    /// Opens a span under this handle's default parent. The returned
    /// guard records the span when finished or dropped.
    #[must_use]
    pub fn span(&self, name: &str, category: &str) -> SpanGuard {
        self.child_span(name, category, SpanId(self.parent))
    }

    /// Opens a span under an explicit parent.
    #[must_use]
    pub fn child_span(&self, name: &str, category: &str, parent: SpanId) -> SpanGuard {
        let start = Instant::now();
        match &self.inner {
            Some(inner) => SpanGuard {
                inner: Some(inner.clone()),
                start,
                // Derived from the same clock read as `start` so that
                // start_us + dur_us equals the close time even when the
                // thread is preempted mid-open.
                start_us: start.duration_since(inner.epoch).as_secs_f64() * 1e6,
                id: inner.alloc_id(),
                parent: parent.0,
                track: self.track,
                name: name.to_string(),
                category: category.to_string(),
                detail: String::new(),
                finished: false,
            },
            None => SpanGuard {
                inner: None,
                start,
                start_us: 0.0,
                id: 0,
                parent: 0,
                track: 0,
                name: String::new(),
                category: String::new(),
                detail: String::new(),
                finished: false,
            },
        }
    }

    /// Records an instantaneous event on this handle's track.
    pub fn instant(&self, name: &str, category: &str, detail: &str) {
        if let Some(inner) = &self.inner {
            let at_us = inner.now_us();
            inner
                .instants
                .lock()
                .expect("instants lock")
                .push(InstantRecord {
                    name: name.to_string(),
                    category: category.to_string(),
                    track: self.track,
                    at_us,
                    detail: detail.to_string(),
                });
        }
    }

    /// Reserves a span id so children can reference a parent that will
    /// be recorded later (e.g. a simulation root closed at the end).
    /// Returns `SpanId::NONE` when disabled.
    #[must_use]
    pub fn reserve_span(&self) -> SpanId {
        match &self.inner {
            Some(inner) => SpanId(inner.alloc_id()),
            None => SpanId::NONE,
        }
    }

    /// Records a span with explicit (typically virtual) timestamps under
    /// a previously reserved id. No-op when disabled or `id` is `NONE`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_virtual_span(
        &self,
        id: SpanId,
        parent: SpanId,
        name: &str,
        category: &str,
        track: usize,
        start_us: f64,
        dur_us: f64,
        detail: &str,
    ) {
        if let Some(inner) = &self.inner {
            if !id.is_some() {
                return;
            }
            inner.spans.lock().expect("spans lock").push(SpanRecord {
                id: id.0,
                parent: parent.0,
                name: name.to_string(),
                category: category.to_string(),
                track,
                start_us,
                dur_us: dur_us.max(0.0),
                detail: detail.to_string(),
            });
        }
    }

    /// Records a span with explicit timestamps, allocating a fresh id.
    /// Returns the id (`NONE` when disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn virtual_span(
        &self,
        parent: SpanId,
        name: &str,
        category: &str,
        track: usize,
        start_us: f64,
        dur_us: f64,
        detail: &str,
    ) -> SpanId {
        let id = self.reserve_span();
        self.record_virtual_span(id, parent, name, category, track, start_us, dur_us, detail);
        id
    }

    /// Records an instant with an explicit (virtual) timestamp.
    pub fn virtual_instant(
        &self,
        name: &str,
        category: &str,
        track: usize,
        at_us: f64,
        detail: &str,
    ) {
        if let Some(inner) = &self.inner {
            inner
                .instants
                .lock()
                .expect("instants lock")
                .push(InstantRecord {
                    name: name.to_string(),
                    category: category.to_string(),
                    track,
                    at_us,
                    detail: detail.to_string(),
                });
        }
    }

    /// Adds to a counter in the trace's metrics registry.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.add(name, delta);
        }
    }

    /// Records a histogram sample in the trace's metrics registry.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(name, value);
        }
    }

    /// Sets a gauge in the trace's metrics registry.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.set_gauge(name, value);
        }
    }

    /// Snapshot of the trace's metrics (empty when disabled).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// All spans recorded so far (start-order not guaranteed).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.spans.lock().expect("spans lock").clone(),
            None => Vec::new(),
        }
    }

    /// All instants recorded so far.
    #[must_use]
    pub fn instants(&self) -> Vec<InstantRecord> {
        match &self.inner {
            Some(inner) => inner.instants.lock().expect("instants lock").clone(),
            None => Vec::new(),
        }
    }

    /// Track names registered so far, sorted by track index.
    #[must_use]
    pub fn track_names(&self) -> Vec<(usize, String)> {
        match &self.inner {
            Some(inner) => {
                let mut tracks = inner.tracks.lock().expect("tracks lock").clone();
                tracks.sort_by_key(|(t, _)| *t);
                tracks
            }
            None => Vec::new(),
        }
    }

    /// Microseconds elapsed since the tracer epoch (0 when disabled).
    #[must_use]
    pub fn elapsed_us(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.now_us(),
            None => 0.0,
        }
    }
}

/// RAII guard for an open span. Dropping the guard records the span;
/// [`SpanGuard::finish`] records it explicitly and returns the wall
/// time in milliseconds (measured even when tracing is disabled, so
/// callers can reuse it for their own reports).
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    start: Instant,
    start_us: f64,
    id: u64,
    parent: u64,
    track: usize,
    name: String,
    category: String,
    detail: String,
    finished: bool,
}

impl SpanGuard {
    /// This span's id, for parenting children (`NONE` when disabled).
    #[must_use]
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }

    /// Sets the free-form annotation recorded with the span.
    pub fn set_detail(&mut self, detail: &str) {
        if self.inner.is_some() {
            self.detail = detail.to_string();
        }
    }

    /// Wall time since the span opened, in milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    fn record(&mut self) -> f64 {
        let elapsed_ms = self.elapsed_ms();
        if self.finished {
            return elapsed_ms;
        }
        self.finished = true;
        if let Some(inner) = self.inner.take() {
            inner.spans.lock().expect("spans lock").push(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: std::mem::take(&mut self.name),
                category: std::mem::take(&mut self.category),
                track: self.track,
                start_us: self.start_us,
                dur_us: (elapsed_ms * 1e3).max(0.0),
                detail: std::mem::take(&mut self.detail),
            });
        }
        elapsed_ms
    }

    /// Records the span now; returns the wall time in milliseconds.
    pub fn finish(mut self) -> f64 {
        self.record()
    }

    /// Sets the detail annotation and records the span; returns the wall
    /// time in milliseconds.
    pub fn finish_with_detail(mut self, detail: &str) -> f64 {
        self.set_detail(detail);
        self.record()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_measures_time() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let guard = tracer.span("work", "test");
        assert!(!guard.id().is_some());
        let ms = guard.finish();
        assert!(ms >= 0.0);
        tracer.instant("event", "test", "");
        tracer.add("count", 1);
        tracer.observe("hist", 1.0);
        assert!(tracer.spans().is_empty());
        assert!(tracer.instants().is_empty());
        assert!(tracer.snapshot().counters.is_empty());
    }

    #[test]
    fn spans_nest_with_explicit_parents() {
        let tracer = Tracer::new();
        let root = tracer.span("root", "test");
        let root_id = root.id();
        let child = tracer.child_span("child", "test", root_id);
        assert!(child.id().0 > root_id.0, "ids are monotonic");
        child.finish();
        root.finish();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let child_rec = spans.iter().find(|s| s.name == "child").expect("child");
        assert_eq!(child_rec.parent, root_id.0);
        let root_rec = spans.iter().find(|s| s.name == "root").expect("root");
        assert_eq!(root_rec.parent, 0);
        assert!(root_rec.dur_us >= child_rec.dur_us);
    }

    #[test]
    fn drop_records_an_unfinished_span() {
        let tracer = Tracer::new();
        {
            let _guard = tracer.span("dropped", "test");
        }
        assert_eq!(tracer.spans().len(), 1);
    }

    #[test]
    fn scoped_handles_share_the_collector() {
        let tracer = Tracer::new();
        let root = tracer.span("root", "test");
        let scoped = tracer.at(root.id(), 3);
        assert_eq!(scoped.default_track(), 3);
        scoped.span("inner", "test").finish();
        scoped.instant("mark", "test", "x");
        root.finish();
        let spans = tracer.spans();
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.track, 3);
        assert!(inner.parent != 0);
        assert_eq!(tracer.instants()[0].track, 3);
    }

    #[test]
    fn virtual_spans_take_explicit_timestamps() {
        let tracer = Tracer::new();
        let root = tracer.reserve_span();
        let child = tracer.virtual_span(root, "service", "des", 2, 1000.0, 500.0, "");
        tracer.record_virtual_span(root, SpanId::NONE, "sim", "des", 0, 0.0, 2000.0, "");
        tracer.virtual_instant("arrival", "des", 2, 900.0, "");
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let service = spans.iter().find(|s| s.name == "service").expect("service");
        assert_eq!(service.id, child.0);
        assert_eq!(service.parent, root.0);
        assert!((service.start_us - 1000.0).abs() < 1e-9);
        assert!((service.dur_us - 500.0).abs() < 1e-9);
        assert_eq!(tracer.instants().len(), 1);
    }

    #[test]
    fn metrics_flow_through_the_tracer() {
        let tracer = Tracer::new();
        tracer.add("jobs", 2);
        tracer.observe("run_ms", 10.0);
        tracer.set_gauge("load", 0.75);
        let snap = tracer.snapshot();
        assert_eq!(snap.counters[0].value, 2);
        assert_eq!(snap.histograms[0].summary.count, 1);
        assert!((snap.gauges[0].value - 0.75).abs() < 1e-12);
    }

    #[test]
    fn track_names_sort_by_index() {
        let tracer = Tracer::new();
        tracer.set_track_name(2, "worker-1");
        tracer.set_track_name(0, "coordinator");
        tracer.set_track_name(2, "worker-renamed");
        let names = tracer.track_names();
        assert_eq!(
            names,
            vec![
                (0, "coordinator".to_string()),
                (2, "worker-renamed".to_string())
            ]
        );
    }
}
