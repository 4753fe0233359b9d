//! Harness-side instrumentation of one flow run: stage-boundary timing
//! through the public `StageHooks`, a `StageStore` that captures the
//! snapshots a stage cache would hold, and the re-invocation of the
//! signoff stage's parts on a finished outcome.

use crate::spans::{Recorder, SpanId};
use chipforge_flow::{
    FlowConfig, FlowError, FlowOutcome, FlowStep, StageHooks, StageSnapshot, StageStore,
};
use chipforge_hdl::RtlModule;
use chipforge_pdk::{DesignRules, StdCellLibrary};
use std::cell::{Cell, RefCell};
use std::sync::Mutex;

/// The span (and per-layer metric stem) of each flow stage: the layer is
/// the crate that does the stage's work.
pub const fn stage_span(step: FlowStep) -> &'static str {
    match step {
        FlowStep::Elaborate => "hdl.elaborate",
        FlowStep::Synthesize => "synth.synthesize",
        FlowStep::Size => "flow.size",
        FlowStep::Place => "place.place",
        FlowStep::ClockTree => "flow.cts",
        FlowStep::Route => "route.route",
        FlowStep::Signoff => "flow.signoff",
        FlowStep::Export => "layout.export",
    }
}

/// The per-layer metric of a stage, from the step name the program's
/// own reports use (`StepRecord`, `StageTime`, hub status JSON).
pub fn stage_metric(step_name: &str) -> Option<&'static str> {
    Some(match step_name {
        "elaborate" => "hdl.elaborate_ms",
        "synthesize" => "synth.synthesize_ms",
        "size" => "flow.size_ms",
        "place" => "place.place_ms",
        "cts" => "flow.cts_ms",
        "route" => "route.route_ms",
        "signoff" => "flow.signoff_ms",
        "export" => "layout.export_ms",
        _ => return None,
    })
}

/// Times every stage boundary of the flows run under it and records one
/// span per stage under the flow span set with [`StageTimer::begin`].
pub struct StageTimer<'r> {
    rec: &'r Recorder,
    flow: Cell<(Option<SpanId>, u64)>,
    started_us: Cell<f64>,
    /// Milliseconds per stage, summed over every flow run under this timer.
    pub stage_ms: RefCell<[f64; 8]>,
}

impl<'r> StageTimer<'r> {
    pub fn new(rec: &'r Recorder) -> Self {
        StageTimer {
            rec,
            flow: Cell::new((None, 0)),
            started_us: Cell::new(0.0),
            stage_ms: RefCell::new([0.0; 8]),
        }
    }

    /// Names the flow span the next stages belong to.
    pub fn begin(&self, flow: Option<SpanId>, op: u64) {
        self.flow.set((flow, op));
    }
}

impl StageHooks for StageTimer<'_> {
    fn before_stage(&self, _step: FlowStep) -> Result<(), FlowError> {
        self.started_us.set(self.rec.now_us());
        Ok(())
    }

    fn stage_finished(&self, step: FlowStep, _restored: bool) {
        let (started, ended) = (self.started_us.get(), self.rec.now_us());
        let (flow, op) = self.flow.get();
        self.rec
            .record(stage_span(step), flow, op, 0, started, ended);
        self.stage_ms.borrow_mut()[step.index()] += (ended - started) / 1e3;
    }
}

/// A store that never hits and keeps every snapshot handed to it — the
/// real artifacts the cache micro-measurements then store and load.
#[derive(Default)]
pub struct CaptureStore {
    pub snapshots: Mutex<Vec<(u128, StageSnapshot)>>,
}

impl StageStore for CaptureStore {
    fn load(&self, _key: u128, _step: FlowStep) -> Option<StageSnapshot> {
        None
    }

    fn store(&self, key: u128, snapshot: &StageSnapshot) {
        self.snapshots
            .lock()
            .expect("no store user panics")
            .push((key, snapshot.clone()));
    }
}

/// Milliseconds the parts of signoff took, summed over the outcomes
/// split so far, and what the independent equivalence proofs found.
#[derive(Debug, Default, Clone, Copy)]
pub struct SignoffSplit {
    pub sta_ms: f64,
    pub power_ms: f64,
    pub layout_build_ms: f64,
    pub drc_ms: f64,
    pub ec_ms: f64,
    pub ec_proven: usize,
    pub ec_total: usize,
}

/// Re-invokes the parts of the signoff stage — back-annotated STA,
/// power, layout build, DRC, formal equivalence — on `outcome`, each
/// under its own span, the way the stage itself calls them, and adds
/// what they took to `split`.
#[allow(clippy::too_many_arguments)]
pub fn split_signoff(
    rec: &Recorder,
    parent: Option<SpanId>,
    op: u64,
    module: &RtlModule,
    lib: &StdCellLibrary,
    config: &FlowConfig,
    outcome: &FlowOutcome,
    split: &mut SignoffSplit,
) {
    let timed = |name: &str, ms: &mut f64, f: &mut dyn FnMut()| {
        let started = rec.now_us();
        rec.scope(name, parent, op, |_| f());
        *ms += (rec.now_us() - started) / 1e3;
    };
    let wire_caps = outcome.routing.wire_caps_ff(lib);
    timed("sta.analyze", &mut split.sta_ms, &mut || {
        let mut options = chipforge_sta::TimingOptions::new(1e6 / config.clock_mhz)
            .with_clock_skew_ps(outcome.report.ppa.clock_skew_ps);
        options.net_wire_cap_ff = wire_caps.clone();
        let _ = std::hint::black_box(chipforge_sta::analyze(&outcome.netlist, lib, &options));
    });
    timed("power.estimate", &mut split.power_ms, &mut || {
        let mut options = chipforge_power::PowerOptions::new(config.clock_mhz);
        options.net_wire_cap_ff = wire_caps.clone();
        let _ = std::hint::black_box(chipforge_power::estimate(&outcome.netlist, lib, &options));
    });
    let mut layout = None;
    timed("layout.build", &mut split.layout_build_ms, &mut || {
        layout = chipforge_layout::build_layout(
            &outcome.netlist,
            &outcome.placement,
            &outcome.routing,
            lib,
        )
        .ok();
    });
    timed("layout.drc", &mut split.drc_ms, &mut || {
        if let Some(layout) = &layout {
            let rules = DesignRules::for_node(config.node);
            std::hint::black_box(chipforge_layout::drc::check(layout, &rules));
        }
    });
    timed("verify.ec", &mut split.ec_ms, &mut || {
        let result = chipforge_verify::check_equivalence(module, &outcome.netlist, 500_000);
        split.ec_proven += result.proven;
        split.ec_total += result.total;
    });
}
