//! The typed stages of the RTL-to-GDSII flow.
//!
//! Each stage implements [`Stage`]: it knows its [`FlowStep`] name, the
//! slice of [`FlowConfig`] that first becomes relevant at its boundary
//! (for content-addressed stage keys), how to execute against the shared
//! [`StageState`], and how to snapshot/restore its output artifacts for
//! the incremental stage store. The [`crate::Pipeline`] driver owns the
//! sequencing, deadline checks, hooks, tracing and stage-key chaining —
//! stages only transform artifacts.

mod backend;
mod frontend;
mod signoff;

use crate::pipeline::StageArtifact;
use crate::run::{FlowConfig, FlowError};
use crate::template::FlowStep;
use chipforge_hdl::RtlModule;
use chipforge_layout::Layout;
use chipforge_netlist::Netlist;
use chipforge_pdk::StdCellLibrary;
use chipforge_place::Placement;
use chipforge_power::PowerReport;
use chipforge_route::Routing;
use chipforge_sta::TimingReport;

pub(crate) use backend::{ClockTreeStage, PlaceStage, RouteStage};
pub(crate) use frontend::{ElaborateStage, SizeStage, SynthesizeStage};
pub(crate) use signoff::{ExportStage, SignoffStage};

/// Artifact state threaded through the pipeline: every stage reads the
/// fields earlier stages filled in and writes its own.
pub(crate) struct StageState<'a> {
    /// ForgeHDL source text.
    pub source: &'a str,
    /// The elaborated module.
    pub module: Option<RtlModule>,
    /// RTL line count for the report.
    pub rtl_lines: usize,
    /// The bound standard-cell library (node + profile).
    pub lib: StdCellLibrary,
    /// Clock period in picoseconds.
    pub clock_ps: f64,
    /// Mapped (and sized) netlist.
    pub netlist: Option<Netlist>,
    /// Legal placement.
    pub placement: Option<Placement>,
    /// Clock tree, if the design is sequential. The outer `Option`
    /// tracks whether CTS ran; the inner one whether a tree exists.
    pub clock_tree: Option<Option<crate::cts::ClockTree>>,
    /// Global routing.
    pub routing: Option<Routing>,
    /// Post-route timing.
    pub timing: Option<TimingReport>,
    /// Power estimate (clock-tree adjusted).
    pub power: Option<PowerReport>,
    /// Generated layout.
    pub layout: Option<Layout>,
    /// DRC violation count from signoff.
    pub drc_violations: usize,
    /// GDSII stream.
    pub gds: Option<Vec<u8>>,
}

impl<'a> StageState<'a> {
    pub(crate) fn new(config: &FlowConfig, source: &'a str) -> Self {
        let pdk = config.pdk();
        Self {
            source,
            module: None,
            rtl_lines: 0,
            lib: pdk.library(config.profile.library),
            clock_ps: 1e6 / config.clock_mhz,
            netlist: None,
            placement: None,
            clock_tree: None,
            routing: None,
            timing: None,
            power: None,
            layout: None,
            drc_violations: 0,
            gds: None,
        }
    }

    /// The elaborated module; panics if elaborate has not run, which the
    /// pipeline's in-order sequencing makes impossible.
    pub(crate) fn module(&self) -> &RtlModule {
        self.module
            .as_ref()
            .expect("elaborate ran before this stage")
    }

    /// The mapped netlist; same invariant as [`StageState::module`].
    pub(crate) fn netlist(&self) -> &Netlist {
        self.netlist
            .as_ref()
            .expect("synthesize ran before this stage")
    }

    /// Skew of the synthesized clock tree (0 for combinational designs).
    pub(crate) fn clock_skew_ps(&self) -> f64 {
        self.clock_tree
            .as_ref()
            .and_then(|t| t.as_ref())
            .map_or(0.0, crate::cts::ClockTree::skew_ps)
    }
}

/// One typed stage of the flow. Implementations are stateless; all
/// artifact flow goes through [`StageState`].
pub(crate) trait Stage {
    /// The step this stage implements (name, metric and span identity).
    fn step(&self) -> FlowStep;

    /// Appends the canonical bytes of every config field that *first*
    /// affects this stage's output. Fields already captured by an
    /// earlier stage's slice are inherited through key chaining and must
    /// not be repeated; fields that never affect artifacts (template,
    /// profile name, fault plans) must never appear.
    fn key_slice(&self, config: &FlowConfig, buf: &mut Vec<u8>);

    /// Executes the stage, reading/writing `state`; returns the human
    /// detail line for the step record.
    fn run(&self, state: &mut StageState<'_>, config: &FlowConfig) -> Result<String, FlowError>;

    /// Clones this stage's output artifacts out of `state` for the
    /// stage store. Only called when a store is attached.
    fn snapshot(&self, state: &StageState<'_>) -> StageArtifact;

    /// Applies a restored artifact into `state`; returns `false` when
    /// the artifact variant does not match this stage (corrupt store).
    fn restore(&self, state: &mut StageState<'_>, artifact: StageArtifact) -> bool;
}

/// The standard stage sequence, in canonical order.
pub(crate) const STAGES: [&dyn Stage; 8] = [
    &ElaborateStage,
    &SynthesizeStage,
    &SizeStage,
    &PlaceStage,
    &ClockTreeStage,
    &RouteStage,
    &SignoffStage,
    &ExportStage,
];

/// Length-prefixes `bytes` into `buf` so adjacent fields cannot alias.
pub(crate) fn frame_into(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    buf.extend_from_slice(bytes);
}
