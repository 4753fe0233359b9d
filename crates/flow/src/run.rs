//! Flow configuration, outcome and error types, plus the public
//! `run_flow*` entry points — all thin wrappers over the one
//! [`Pipeline`] driver in [`crate::pipeline`].

use crate::pipeline::{FlowCtx, Pipeline};
use crate::profile::OptimizationProfile;
use crate::report::FlowReport;
use crate::template::{FlowStep, FlowTemplate};
use chipforge_hdl::RtlModule;
use chipforge_layout::Layout;
use chipforge_netlist::Netlist;
use chipforge_obs::Tracer;
use chipforge_pdk::{Pdk, TechnologyNode};
use chipforge_place::Placement;
use chipforge_route::Routing;
use chipforge_sta::TimingReport;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Configuration of one flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Target technology node.
    pub node: TechnologyNode,
    /// Optimization profile.
    pub profile: OptimizationProfile,
    /// Target clock in MHz.
    pub clock_mhz: f64,
    /// Flow seed. Part of every key from place on, but no production
    /// kernel reads an RNG; only the reference annealer consumes it.
    pub seed: u64,
    /// Insert a scan chain after synthesis (design-for-test).
    pub insert_scan: bool,
    /// The flow template (step structure + enablement metadata).
    pub template: FlowTemplate,
}

impl FlowConfig {
    /// Creates a config for a node and profile with a 100 MHz clock.
    #[must_use]
    pub fn new(node: TechnologyNode, profile: OptimizationProfile) -> Self {
        Self {
            node,
            profile,
            clock_mhz: 100.0,
            seed: 1,
            insert_scan: false,
            template: FlowTemplate::standard(),
        }
    }

    /// Enables scan-chain insertion.
    #[must_use]
    pub fn with_scan(mut self) -> Self {
        self.insert_scan = true;
        self
    }

    /// Sets the target clock.
    #[must_use]
    pub fn with_clock_mhz(mut self, clock_mhz: f64) -> Self {
        self.clock_mhz = clock_mhz;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A relaxed-parameter copy of this configuration for degraded
    /// retries: same node, clock, seed and template, but the profile is
    /// swapped for its [`OptimizationProfile::relaxed`] variant.
    #[must_use]
    pub fn degraded(&self) -> Self {
        let mut config = self.clone();
        config.profile = self.profile.relaxed();
        config
    }

    /// The PDK implied by node + profile: open where available, commercial
    /// otherwise.
    #[must_use]
    pub fn pdk(&self) -> Pdk {
        if self.node.has_open_pdk() && self.profile.library == chipforge_pdk::LibraryKind::Open {
            Pdk::open(self.node)
        } else {
            Pdk::commercial(self.node)
        }
    }
}

/// Everything a flow run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// The mapped (and sized) netlist.
    pub netlist: Netlist,
    /// The legal placement.
    pub placement: Placement,
    /// The global routing.
    pub routing: Routing,
    /// The generated layout.
    pub layout: Layout,
    /// The GDSII stream.
    pub gds: Vec<u8>,
    /// The post-route timing report.
    pub timing: TimingReport,
    /// The flow report (per-step records + PPA).
    pub report: FlowReport,
}

/// Errors from a flow run (wrapping each engine's error).
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// RTL parsing/elaboration failed.
    Hdl(chipforge_hdl::HdlError),
    /// Synthesis failed.
    Synth(chipforge_synth::SynthError),
    /// Timing analysis failed.
    Sta(chipforge_sta::StaError),
    /// Placement failed.
    Place(chipforge_place::PlaceError),
    /// Routing failed.
    Route(chipforge_route::RouteError),
    /// Layout generation failed.
    Layout(chipforge_layout::BuildError),
    /// Power estimation failed.
    Power(chipforge_power::PowerError),
    /// The run's deadline expired before `stage` could start. Emitted
    /// by the pipeline's per-stage budget check; the stages already
    /// finished are abandoned (cooperative cancellation), so the
    /// partial work never leaves the flow.
    DeadlineExceeded {
        /// The stage that was about to run when the budget ran out.
        stage: FlowStep,
    },
    /// A [`crate::StageHooks`] implementation aborted the run at a stage
    /// boundary — the carrier for injected faults fired inside the flow.
    Interrupted {
        /// The stage that was about to run when the hook fired.
        stage: FlowStep,
        /// Why the hook aborted.
        reason: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Hdl(e) => write!(f, "elaborate: {e}"),
            FlowError::Synth(e) => write!(f, "synthesize: {e}"),
            FlowError::Sta(e) => write!(f, "timing: {e}"),
            FlowError::Place(e) => write!(f, "place: {e}"),
            FlowError::Route(e) => write!(f, "route: {e}"),
            FlowError::Layout(e) => write!(f, "layout: {e}"),
            FlowError::Power(e) => write!(f, "power: {e}"),
            FlowError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded before {stage}")
            }
            FlowError::Interrupted { stage, reason } => {
                write!(f, "interrupted before {stage}: {reason}")
            }
        }
    }
}

impl Error for FlowError {}

macro_rules! impl_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for FlowError {
            fn from(e: $ty) -> Self {
                FlowError::$variant(e)
            }
        }
    };
}
impl_from!(Hdl, chipforge_hdl::HdlError);
impl_from!(Synth, chipforge_synth::SynthError);
impl_from!(Sta, chipforge_sta::StaError);
impl_from!(Place, chipforge_place::PlaceError);
impl_from!(Route, chipforge_route::RouteError);
impl_from!(Layout, chipforge_layout::BuildError);
impl_from!(Power, chipforge_power::PowerError);

/// Runs the complete flow on ForgeHDL source.
///
/// # Errors
///
/// Propagates the first failing step as [`FlowError`].
pub fn run_flow(source: &str, config: &FlowConfig) -> Result<FlowOutcome, FlowError> {
    Pipeline::standard().run(source, config, &FlowCtx::new(&Tracer::disabled()))
}

/// Runs the complete flow on ForgeHDL source, recording one span per
/// stage (plus a `flow` root span) into `tracer`. With a disabled
/// tracer this is exactly [`run_flow`].
///
/// # Errors
///
/// Propagates the first failing step as [`FlowError`].
pub fn run_flow_traced(
    source: &str,
    config: &FlowConfig,
    tracer: &Tracer,
) -> Result<FlowOutcome, FlowError> {
    Pipeline::standard().run(source, config, &FlowCtx::new(tracer))
}

/// [`run_flow_traced`] under an absolute deadline: before each stage
/// starts, the remaining budget is checked, and an expired deadline
/// aborts the run with [`FlowError::DeadlineExceeded`] naming the stage
/// that would have run next. This is cooperative cancellation — a stage
/// already in flight finishes — so the check costs nothing on the happy
/// path and a cancelled job releases its worker at the next stage
/// boundary rather than burning through the whole flow. `None` disables
/// the checks entirely.
///
/// # Errors
///
/// Propagates the first failing step as [`FlowError`], or
/// [`FlowError::DeadlineExceeded`] once `deadline` has passed.
pub fn run_flow_deadline(
    source: &str,
    config: &FlowConfig,
    tracer: &Tracer,
    deadline: Option<Instant>,
) -> Result<FlowOutcome, FlowError> {
    Pipeline::standard().run(
        source,
        config,
        &FlowCtx::new(tracer).with_deadline(deadline),
    )
}

/// Runs the flow on an already elaborated module (skips the parse step).
///
/// # Errors
///
/// Propagates the first failing step as [`FlowError`].
pub fn run_flow_on_module(
    module: &RtlModule,
    config: &FlowConfig,
) -> Result<FlowOutcome, FlowError> {
    Pipeline::standard().run_on_module(module, config, &FlowCtx::new(&Tracer::disabled()))
}

/// Traced variant of [`run_flow_on_module`]; see [`run_flow_traced`].
///
/// # Errors
///
/// Propagates the first failing step as [`FlowError`].
pub fn run_flow_on_module_traced(
    module: &RtlModule,
    config: &FlowConfig,
    tracer: &Tracer,
) -> Result<FlowOutcome, FlowError> {
    Pipeline::standard().run_on_module(module, config, &FlowCtx::new(tracer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_hdl::designs;

    #[test]
    fn full_flow_on_counter_produces_everything() {
        let config =
            FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()).with_clock_mhz(50.0);
        let outcome = run_flow(designs::counter(8).source(), &config).unwrap();
        assert!(outcome.report.ppa.cells > 10);
        assert_eq!(outcome.report.ppa.flip_flops, 8);
        assert!(
            outcome.report.ppa.fmax_mhz > 50.0,
            "counter meets 50 MHz at 130nm"
        );
        assert!(outcome.report.ppa.gds_bytes > 0);
        assert_eq!(outcome.report.steps.len(), 8);
        assert!(outcome.report.total_wall_ms() > 0.0);
    }

    #[test]
    fn commercial_profile_beats_open_on_fmax() {
        let src_design = designs::alu(8);
        let src = src_design.source();
        let open = run_flow(
            src,
            &FlowConfig::new(TechnologyNode::N28, OptimizationProfile::open()),
        )
        .unwrap();
        let comm = run_flow(
            src,
            &FlowConfig::new(TechnologyNode::N28, OptimizationProfile::commercial()),
        )
        .unwrap();
        assert!(
            comm.report.ppa.fmax_mhz > open.report.ppa.fmax_mhz,
            "commercial {} vs open {}",
            comm.report.ppa.fmax_mhz,
            open.report.ppa.fmax_mhz
        );
    }

    #[test]
    fn newer_node_is_faster_and_smaller() {
        let design = designs::counter(16);
        let old = run_flow(
            design.source(),
            &FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()),
        )
        .unwrap();
        let new = run_flow(
            design.source(),
            &FlowConfig::new(TechnologyNode::N16, OptimizationProfile::commercial()),
        )
        .unwrap();
        assert!(new.report.ppa.cell_area_um2 < old.report.ppa.cell_area_um2 / 10.0);
        assert!(new.report.ppa.fmax_mhz > old.report.ppa.fmax_mhz);
    }

    #[test]
    fn flow_reports_gates_per_line_in_paper_range() {
        // Sec. III-B: one line of RTL typically yields 5-20 gates.
        let mut ratios = Vec::new();
        for design in designs::suite() {
            let outcome = run_flow(
                design.source(),
                &FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()),
            )
            .unwrap();
            ratios.push(outcome.report.gates_per_rtl_line());
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            (3.0..40.0).contains(&mean),
            "mean gates/line {mean} out of plausible range"
        );
    }

    #[test]
    fn signoff_reports_formal_equivalence() {
        let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
        let outcome = run_flow(designs::counter(8).source(), &config).unwrap();
        let signoff = outcome
            .report
            .steps
            .iter()
            .find(|s| s.step == FlowStep::Signoff)
            .unwrap();
        assert!(
            signoff.detail.contains("EC proven"),
            "signoff detail: {}",
            signoff.detail
        );
        // Scanned netlists skip EC by design.
        let scanned = run_flow(designs::counter(8).source(), &config.clone().with_scan()).unwrap();
        let signoff = scanned
            .report
            .steps
            .iter()
            .find(|s| s.step == FlowStep::Signoff)
            .unwrap();
        assert!(signoff.detail.contains("EC skipped"));
    }

    #[test]
    fn sequential_flows_meet_hold() {
        // With a balanced CTS the skew is small; clk-to-Q covers hold.
        let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
        let outcome = run_flow(designs::counter(8).source(), &config).unwrap();
        assert!(
            outcome.report.ppa.hold_wns_ps > 0.0,
            "hold wns {}",
            outcome.report.ppa.hold_wns_ps
        );
    }

    #[test]
    fn scan_insertion_flows_to_gds() {
        let design = designs::counter(8);
        let base_cfg = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
        let scan_cfg = base_cfg.clone().with_scan();
        let base = run_flow(design.source(), &base_cfg).unwrap();
        let scanned = run_flow(design.source(), &scan_cfg).unwrap();
        // Scan adds one mux per flip-flop and the scan ports.
        assert_eq!(
            scanned.report.ppa.cells,
            base.report.ppa.cells + base.report.ppa.flip_flops
        );
        assert_eq!(scanned.report.ppa.drc_violations, 0);
        assert!(scanned.report.ppa.cell_area_um2 > base.report.ppa.cell_area_um2);
        // Scan muxes in front of every FF cost speed.
        assert!(scanned.report.ppa.fmax_mhz < base.report.ppa.fmax_mhz);
    }

    #[test]
    fn cts_populates_clock_metrics() {
        let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
        let seq = run_flow(designs::fir4(8).source(), &config).unwrap();
        assert!(seq.report.ppa.clock_buffers >= 1);
        assert!(seq.report.ppa.clock_skew_ps >= 0.0);
        // Combinational design: no tree.
        let comb = run_flow(designs::gray_encoder(8).source(), &config).unwrap();
        assert_eq!(comb.report.ppa.clock_buffers, 0);
        assert_eq!(comb.report.ppa.clock_skew_ps, 0.0);
    }

    #[test]
    fn traced_flow_records_one_span_per_stage() {
        let tracer = Tracer::new();
        let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::quick());
        let outcome = run_flow_traced(designs::counter(8).source(), &config, &tracer).unwrap();
        let spans = tracer.spans();
        let root = spans
            .iter()
            .find(|s| s.category == "flow" && s.name == "flow")
            .expect("root flow span");
        for step in FlowStep::ALL {
            let stage = spans
                .iter()
                .find(|s| s.category == "flow" && s.name == step.name())
                .unwrap_or_else(|| panic!("missing span for {step}"));
            assert_eq!(stage.parent, root.id, "{step} parented to flow root");
            assert!(stage.dur_us >= 0.0);
        }
        // Span durations are the same numbers the report carries.
        let synth_span = spans.iter().find(|s| s.name == "synthesize").unwrap();
        let synth_step = outcome
            .report
            .steps
            .iter()
            .find(|s| s.step == FlowStep::Synthesize)
            .unwrap();
        assert!((synth_span.dur_us / 1e3 - synth_step.wall_ms).abs() < 1e-6);
        // And the registry saw one sample per stage.
        let snap = tracer.snapshot();
        for step in FlowStep::ALL {
            let name = format!("flow.stage_ms.{}", step.name());
            let hist = snap
                .histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"));
            assert_eq!(hist.summary.count, 1);
        }
    }

    #[test]
    fn expired_deadline_cancels_before_the_first_stage() {
        let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::quick());
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = run_flow_deadline(
            designs::counter(8).source(),
            &config,
            &Tracer::disabled(),
            Some(past),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                FlowError::DeadlineExceeded {
                    stage: FlowStep::Elaborate
                }
            ),
            "got {err}"
        );
        assert_eq!(err.to_string(), "deadline exceeded before elaborate");
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::quick());
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let with = run_flow_deadline(
            designs::counter(8).source(),
            &config,
            &Tracer::disabled(),
            Some(far),
        )
        .unwrap();
        let without = run_flow(designs::counter(8).source(), &config).unwrap();
        assert_eq!(
            with.gds, without.gds,
            "deadline checks are inert when the budget holds"
        );
    }

    #[test]
    fn bad_rtl_fails_at_elaborate() {
        let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::quick());
        let err = run_flow("module broken() { output y; }", &config).unwrap_err();
        assert!(matches!(err, FlowError::Hdl(_)));
    }

    /// The production kernels read no RNG. (That the reference annealer
    /// does is pinned by `anneal::tests::different_seeds_give_different_placements`.)
    #[test]
    fn seeds_change_neither_placement_nor_function() {
        let design = designs::counter(8);
        let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::quick());
        let a = run_flow(design.source(), &config).unwrap();
        let b = run_flow(design.source(), &config.clone().with_seed(7)).unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.gds, b.gds);
        assert_eq!(a.report.ppa, b.report.ppa);
    }
}
