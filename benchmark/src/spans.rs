//! The harness's in-memory span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; the program under test is not instrumented. A span
//! name is `layer.operation`, the layer being the crate the call enters
//! (`bench` for the harness itself). Spans are kept in memory and
//! written out as a Chrome trace when the run ends.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// One id per operation (a flow, a job, a repetition): spans of one
    /// operation share it.
    pub op: u64,
    /// Display lane in the Chrome trace (a thread or worker).
    pub track: u32,
    /// Microseconds since the recorder's epoch.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Thread-safe span sink. A disabled recorder records nothing, so the
/// untraced run pays one branch per call site.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Microseconds since the epoch of an instant taken elsewhere.
    pub fn at_us(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span; `None` when disabled.
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        op: u64,
        track: u32,
        start_us: f64,
        end_us: f64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("no recorder user panics");
        spans.push(Span {
            name: name.to_string(),
            parent,
            op,
            track,
            start_us,
            end_us: end_us.max(start_us),
        });
        Some(spans.len() - 1)
    }

    /// Opens a span whose end is set by [`Recorder::close`], so spans
    /// recorded meanwhile can name it as their parent.
    pub fn open(&self, name: &str, parent: Option<SpanId>, op: u64, track: u32) -> Option<SpanId> {
        let now = self.now_us();
        self.record(name, parent, op, track, now, now)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_us();
            self.spans.lock().expect("no recorder user panics")[id].end_us = now;
        }
    }

    /// Times `f` as one span (and simply calls it when disabled).
    pub fn scope<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(name, parent, op, 0);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no recorder user panics").clone()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> Vec<(f64, f64)> {
    intervals.retain_mut(|iv| {
        iv.0 = iv.0.max(lo);
        iv.1 = iv.1.min(hi);
        iv.1 > iv.0
    });
    intervals.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for iv in intervals {
        match merged.last_mut() {
            Some(last) if iv.0 <= last.1 => last.1 = last.1.max(iv.1),
            _ => merged.push(iv),
        }
    }
    merged
}

/// The parts of each span's interval that none of its direct children
/// cover. Overlapping children (parallel workers under one batch span)
/// count once: coverage is the union, not the sum.
fn self_intervals(spans: &[Span]) -> Vec<Vec<(f64, f64)>> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_us, span.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let mut gaps = Vec::new();
            let mut cursor = span.start_us;
            for (lo, hi) in covered(kids, span.start_us, span.end_us) {
                if lo > cursor {
                    gaps.push((cursor, lo));
                }
                cursor = hi;
            }
            if span.end_us > cursor {
                gaps.push((cursor, span.end_us));
            }
            gaps
        })
        .collect()
}

/// Self time of every span in microseconds: its duration minus the part
/// of that interval its child spans cover.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    self_intervals(spans)
        .into_iter()
        .map(|gaps| gaps.iter().map(|(lo, hi)| hi - lo).sum())
        .collect()
}

/// Where the wall time went, by span name, in microseconds.
///
/// Every instant of the recording is shared equally among the spans
/// whose *self* interval is live at that instant, so two workers busy
/// in parallel each get half of that stretch and the rows sum to the
/// wall time of the root spans exactly. Time under a root span that no
/// child covers stays with the root's name: that is the explicit
/// unaccounted row.
pub fn wall_attribution_us(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut events: Vec<(f64, i32, usize)> = Vec::new();
    for (id, gaps) in self_intervals(spans).into_iter().enumerate() {
        for (lo, hi) in gaps {
            events.push((lo, 1, id));
            events.push((hi, -1, id));
        }
    }
    // Ends before starts at equal times, so touching intervals never
    // look concurrent.
    events.sort_by(|a, b| {
        (a.0, a.1)
            .partial_cmp(&(b.0, b.1))
            .expect("span times are finite")
    });
    let mut live: BTreeMap<usize, u32> = BTreeMap::new();
    let mut rows: BTreeMap<String, f64> = BTreeMap::new();
    let mut cursor = 0.0;
    for (at, delta, id) in events {
        let dt = at - cursor;
        if dt > 0.0 && !live.is_empty() {
            let share = dt / live.values().sum::<u32>() as f64;
            for (&span, &count) in &live {
                *rows.entry(spans[span].name.clone()).or_default() += share * f64::from(count);
            }
        }
        cursor = at;
        if delta > 0 {
            *live.entry(id).or_default() += 1;
        } else if let Some(count) = live.get_mut(&id) {
            *count -= 1;
            if *count == 0 {
                live.remove(&id);
            }
        }
    }
    rows
}

/// Sum of self time by layer, in microseconds.
pub fn layer_self_us(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for (span, self_us) in spans.iter().zip(self_times_us(spans)) {
        *layers.entry(span.layer().to_string()).or_default() += self_us;
    }
    layers
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let field = |k: &str, v: Value| (Value::Str(k.into()), v);
            Value::Map(vec![
                field("name", Value::Str(span.name.clone())),
                field("cat", Value::Str(span.layer().to_string())),
                field("ph", Value::Str("X".into())),
                field("ts", Value::F64(span.start_us)),
                field("dur", Value::F64(span.end_us - span.start_us)),
                field("pid", Value::U64(1)),
                field("tid", Value::U64(u64::from(span.track))),
                field(
                    "args",
                    Value::Map(vec![
                        field("id", Value::U64(id as u64)),
                        field(
                            "parent",
                            span.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        field("op", Value::U64(span.op)),
                    ]),
                ),
            ])
        })
        .collect();
    serde::json::to_string(&Value::Map(vec![(
        Value::Str("traceEvents".into()),
        Value::Seq(events),
    )]))
}

/// The "where the time went" table: one row per span name, largest
/// first, the root's own row last as the unaccounted remainder.
pub fn time_table(spans: &[Span], root_name: &str) -> (String, f64, f64) {
    let rows = wall_attribution_us(spans);
    let wall_us: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_us - s.start_us)
        .sum();
    let total_us: f64 = rows.values().sum();
    let mut named: Vec<(&String, &f64)> = rows.iter().filter(|(n, _)| *n != root_name).collect();
    named.sort_by(|a, b| b.1.partial_cmp(a.1).expect("finite"));
    let mut out = format!(
        "where the time went ({root_name}, wall {:.1} ms)\n",
        wall_us / 1e3
    );
    let mut line = |name: &str, us: f64| {
        out.push_str(&format!(
            "  {name:<28} {:>12.2} ms {:>6.1} %\n",
            us / 1e3,
            100.0 * us / wall_us.max(f64::MIN_POSITIVE)
        ));
    };
    for (name, us) in named {
        line(name, *us);
    }
    line(
        "unaccounted (root self time)",
        rows.get(root_name).copied().unwrap_or(0.0),
    );
    line("sum", total_us);
    (out, wall_us, total_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            op: 0,
            track: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("bench.root", None, 0.0, 100.0),
            // Two children overlap on [30, 40]: coverage is 10..60, once.
            span("exec.a", Some(0), 10.0, 40.0),
            span("exec.b", Some(0), 30.0, 60.0),
            // A grandchild reduces only its own parent.
            span("flow.c", Some(1), 10.0, 25.0),
            // A child sticking out of its parent is clipped to it.
            span("exec.late", Some(0), 90.0, 130.0),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[0], 100.0 - 50.0 - 10.0);
        assert_eq!(own[1], 30.0 - 15.0);
        assert_eq!(own[2], 30.0);
        assert_eq!(own[3], 15.0);
    }

    #[test]
    fn wall_attribution_sums_to_the_root_wall_under_parallelism() {
        let spans = vec![
            span("bench.root", None, 0.0, 100.0),
            span("exec.job", Some(0), 0.0, 80.0),
            span("exec.job", Some(0), 0.0, 60.0),
            span("place.place", Some(1), 20.0, 80.0),
        ];
        let rows = wall_attribution_us(&spans);
        let sum: f64 = rows.values().sum();
        assert!((sum - 100.0).abs() < 1e-9, "{rows:?}");
        // [80, 100] has no child: it stays with the root.
        assert!((rows["bench.root"] - 20.0).abs() < 1e-9);
        // [0,20]: two jobs share it; [20,60]: job 2 and place share it;
        // [60,80]: place alone.
        assert!((rows["exec.job"] - (20.0 + 20.0)).abs() < 1e-9);
        assert!((rows["place.place"] - (20.0 + 20.0)).abs() < 1e-9);
        let (table, wall, total) = time_table(&spans, "bench.root");
        assert!((wall - total).abs() < 1e-9);
        assert!(table.contains("unaccounted"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        let out = rec.scope("flow.run", None, 1, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(out, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let rec = Recorder::new(true);
        rec.scope("bench.root", None, 1, |root| {
            rec.scope("flow.run", root, 1, |_| ());
        });
        let parsed = serde::json::parse(&chrome_trace(&rec.spans())).expect("valid JSON");
        assert_eq!(parsed.get("traceEvents").seq().expect("seq").len(), 2);
    }
}
