//! The pipeline driver: [`Pipeline::run`] is the one way to run a flow.
//!
//! [`Pipeline`] executes the typed [`crate::FlowStep`] stages in order
//! under a single [`FlowCtx`] that carries the cross-cutting planes —
//! tracing, deadline budget, stage hooks (fault injection, breaker
//! probes) and the incremental [`StageStore`]. Deadline checks and hook
//! firing happen *at stage boundaries*, so every consumer (plain runs,
//! traced runs, deadline runs, the exec engine) shares one sequencing,
//! one span/metric emission point and one content-addressed key chain.
//!
//! Stage keys are FNV-128 hashes chained stage to stage: the base key
//! covers the design source, and each stage folds in its own canonical
//! config slice, so a key for stage N transitively pins every input that
//! could influence its artifact — and nothing else. Two configs that
//! differ only in backend knobs therefore share front-end keys, which is
//! what makes per-stage caching pay off for parameter sweeps.

use crate::report::{FlowReport, PpaReport, StepRecord};
use crate::run::{FlowConfig, FlowError, FlowOutcome};
use crate::stages::{StageState, STAGES};
use crate::template::FlowStep;
use chipforge_hdl::RtlModule;
use chipforge_layout::Layout;
use chipforge_netlist::Netlist;
use chipforge_obs::{SpanGuard, Tracer};
use chipforge_power::PowerReport;
use chipforge_sta::TimingReport;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Version byte folded into the base of every stage-key chain; bump on
/// any change to the key schema, the artifact encoding or the kernel a
/// stage runs. 2: place and route call the analytic and Steiner kernels
/// unconditionally (1 framed a kernel name and the annealer's move
/// budget), so nothing a schema-1 binary stored can be restored here.
pub const STAGE_KEY_SCHEMA: u8 = 2;

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental FNV-1a (128-bit) with length-framed writes: the one hasher
/// behind every stage key, and so behind exec's whole-job `CacheKey`,
/// which is the chain's last key.
struct Fnv128 {
    hash: u128,
}

impl Fnv128 {
    fn new() -> Self {
        Self { hash: FNV_OFFSET }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u128::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    fn frame(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    fn finish(&self) -> u128 {
        self.hash
    }
}

/// Base of the stage-key chain: schema version plus the source text.
fn base_key(source: &str) -> u128 {
    let mut h = Fnv128::new();
    h.frame(&[STAGE_KEY_SCHEMA]);
    h.frame(source.as_bytes());
    h.finish()
}

/// Chains the previous stage key with a stage's name and config slice.
fn chain_key(prev: u128, step: FlowStep, slice: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.frame(&prev.to_le_bytes());
    h.frame(step.name().as_bytes());
    h.frame(slice);
    h.finish()
}

/// A restorable snapshot of one finished stage: the typed artifact plus
/// the human detail line for the step record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// The stage that produced this snapshot.
    pub step: FlowStep,
    /// The detail line the stage reported when it ran.
    pub detail: String,
    /// The stage's output artifacts.
    pub artifact: StageArtifact,
}

/// The typed output artifacts of each stage, as stored in a
/// [`StageStore`]. Restoring a snapshot replays exactly the state the
/// stage would have written had it executed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum StageArtifact {
    /// Elaborated module plus the RTL line count.
    Elaborate {
        /// The elaborated RTL module.
        module: RtlModule,
        /// Source line count for the report.
        rtl_lines: u64,
    },
    /// Mapped (and possibly scan-inserted) netlist.
    Synthesize {
        /// The mapped netlist.
        netlist: Netlist,
    },
    /// Netlist after timing-driven upsizing.
    Size {
        /// The sized netlist.
        netlist: Netlist,
    },
    /// Legal placement.
    Place {
        /// The placement.
        placement: chipforge_place::Placement,
    },
    /// Clock tree (`None` inside for combinational designs).
    ClockTree {
        /// The synthesized tree, if the design is sequential.
        tree: Option<crate::cts::ClockTree>,
    },
    /// Global routing.
    Route {
        /// The routing.
        routing: chipforge_route::Routing,
    },
    /// Signoff results: timing, power, layout and the DRC count.
    Signoff {
        /// Post-route timing report.
        timing: TimingReport,
        /// Clock-tree-adjusted power estimate.
        power: PowerReport,
        /// The generated layout.
        layout: Layout,
        /// Number of DRC violations found.
        drc_violations: u64,
    },
    /// GDSII stream.
    Export {
        /// The GDSII bytes.
        gds: Vec<u8>,
    },
}

/// Content-addressed storage for finished stage artifacts. Implemented
/// by the exec engine's stage cache; the pipeline only loads and stores.
pub trait StageStore {
    /// Returns the snapshot stored under `key`, if any. `step` names the
    /// stage being restored so implementations can keep per-stage stats
    /// and reject mismatched entries.
    fn load(&self, key: u128, step: FlowStep) -> Option<StageSnapshot>;

    /// Stores a freshly computed snapshot under `key`.
    fn store(&self, key: u128, snapshot: &StageSnapshot);

    /// Called once per run, before the first [`StageStore::load`], with
    /// every key the run will load, in stage order. A store with a slow
    /// tier looks the whole chain up there in one request instead of one
    /// per stage; the default does nothing.
    fn prefetch(&self, _chain: &[(FlowStep, u128)]) {}
}

/// Observation and interruption points at stage boundaries. Hook errors
/// abort the run with whatever [`FlowError`] the hook returns — the
/// exec engine uses this to fire injected transient faults at their
/// named stage instead of string-matching outside the flow.
pub trait StageHooks {
    /// Called before `step` starts (after the deadline check). Returning
    /// an error aborts the run; [`FlowError::Interrupted`] is the
    /// conventional carrier.
    fn before_stage(&self, _step: FlowStep) -> Result<(), FlowError> {
        Ok(())
    }

    /// Called after `step` finishes; `restored` is true when the stage
    /// was replayed from the [`StageStore`] instead of executing.
    fn stage_finished(&self, _step: FlowStep, _restored: bool) {}
}

/// Everything cross-cutting a flow run needs, threaded through the
/// pipeline as one context instead of one wrapper function per concern.
pub struct FlowCtx<'a> {
    /// Span/metric sink; use [`Tracer::disabled`] for silent runs.
    pub tracer: &'a Tracer,
    /// Absolute deadline checked before each stage (cooperative
    /// cancellation); `None` disables the checks.
    pub deadline: Option<Instant>,
    /// Incremental stage store; `None` recomputes every stage.
    pub stages: Option<&'a dyn StageStore>,
    /// Stage-boundary hooks; `None` for plain runs.
    pub hooks: Option<&'a dyn StageHooks>,
}

impl<'a> FlowCtx<'a> {
    /// A context that only traces: no deadline, no store, no hooks.
    #[must_use]
    pub fn new(tracer: &'a Tracer) -> Self {
        Self {
            tracer,
            deadline: None,
            stages: None,
            hooks: None,
        }
    }

    /// Sets the absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Attaches an incremental stage store.
    #[must_use]
    pub fn with_stages(mut self, stages: &'a dyn StageStore) -> Self {
        self.stages = Some(stages);
        self
    }

    /// Attaches stage-boundary hooks.
    #[must_use]
    pub fn with_hooks(mut self, hooks: &'a dyn StageHooks) -> Self {
        self.hooks = Some(hooks);
        self
    }
}

/// The tracer behind [`FlowCtx::default`].
static QUIET: Tracer = Tracer::disabled();

impl Default for FlowCtx<'_> {
    /// A silent context: no tracing, deadline, store or hooks.
    fn default() -> Self {
        FlowCtx::new(&QUIET)
    }
}

/// Fails with [`FlowError::DeadlineExceeded`] once `deadline` is in the
/// past; `None` always passes.
fn check_deadline(deadline: Option<Instant>, next: FlowStep) -> Result<(), FlowError> {
    match deadline {
        Some(at) if Instant::now() >= at => Err(FlowError::DeadlineExceeded { stage: next }),
        _ => Ok(()),
    }
}

/// Closes a stage span, records its duration in the `flow.stage_ms.*`
/// histogram, and appends the matching [`StepRecord`]. This is the one
/// place stage bookkeeping happens.
fn finish_stage(
    tracer: &Tracer,
    span: SpanGuard,
    step: FlowStep,
    detail: String,
    steps: &mut Vec<StepRecord>,
) {
    let wall_ms = span.finish_with_detail(&detail);
    if tracer.is_enabled() {
        tracer.observe(&format!("flow.stage_ms.{}", step.name()), wall_ms);
    }
    steps.push(StepRecord {
        step,
        wall_ms,
        detail,
    });
}

/// The stage-pipeline driver. Stateless; construct one and run as many
/// flows through it as you like.
pub struct Pipeline;

impl Pipeline {
    /// The standard eight-stage RTL-to-GDSII pipeline.
    #[must_use]
    pub fn standard() -> Self {
        Pipeline
    }

    /// Runs the full flow on ForgeHDL source under `ctx`: tracing,
    /// deadline, stage hooks and the stage store all come from the
    /// context, so this is the only flow entry point.
    ///
    /// # Errors
    ///
    /// Propagates the first failing stage as [`FlowError`], a blown
    /// budget as [`FlowError::DeadlineExceeded`], or a hook abort
    /// (conventionally [`FlowError::Interrupted`]).
    pub fn run(
        &self,
        source: &str,
        config: &FlowConfig,
        ctx: &FlowCtx<'_>,
    ) -> Result<FlowOutcome, FlowError> {
        let mut state = StageState::new(config, source);
        let mut root = ctx.tracer.span("flow", "flow");
        let scoped = ctx.tracer.at(root.id(), ctx.tracer.default_track());
        let chain = Self::stage_keys(source, config);
        if let Some(store) = ctx.stages {
            store.prefetch(&chain);
        }
        let mut steps = Vec::new();
        for (stage, &(step, key)) in STAGES.iter().zip(&chain) {
            check_deadline(ctx.deadline, step)?;
            if let Some(hooks) = ctx.hooks {
                hooks.before_stage(step)?;
            }
            let restored = ctx
                .stages
                .and_then(|store| store.load(key, step))
                .and_then(|snap| {
                    (snap.step == step && stage.restore(&mut state, snap.artifact))
                        .then_some(snap.detail)
                });
            let was_restored = restored.is_some();
            if let Some(detail) = restored {
                steps.push(StepRecord {
                    step,
                    wall_ms: 0.0,
                    detail,
                });
            } else {
                let span = scoped.span(step.name(), "flow");
                let detail = stage.run(&mut state, config)?;
                if let Some(store) = ctx.stages {
                    store.store(
                        key,
                        &StageSnapshot {
                            step,
                            detail: detail.clone(),
                            artifact: stage.snapshot(&state),
                        },
                    );
                }
                finish_stage(&scoped, span, step, detail, &mut steps);
            }
            if step == FlowStep::Elaborate {
                root.set_detail(state.module().name());
            }
            if let Some(hooks) = ctx.hooks {
                hooks.stage_finished(step, was_restored);
            }
        }
        Ok(assemble(state, config, steps))
    }

    /// The content-addressed key of every stage for `source` under
    /// `config`, in canonical order. Key N pins, transitively, every
    /// config field that can influence stage N's artifact.
    #[must_use]
    pub fn stage_keys(source: &str, config: &FlowConfig) -> [(FlowStep, u128); 8] {
        let mut key = base_key(source);
        let mut slice = Vec::new();
        STAGES.map(|stage| {
            slice.clear();
            stage.key_slice(config, &mut slice);
            key = chain_key(key, stage.step(), &slice);
            (stage.step(), key)
        })
    }
}

/// Builds the final report and outcome from completed stage state.
fn assemble(state: StageState<'_>, config: &FlowConfig, steps: Vec<StepRecord>) -> FlowOutcome {
    let netlist = state.netlist.expect("synthesize completed");
    let placement = state.placement.expect("place completed");
    let routing = state.routing.expect("route completed");
    let timing = state.timing.expect("signoff completed");
    let power = state.power.expect("signoff completed");
    let layout = state.layout.expect("signoff completed");
    let gds_bytes = state.gds.expect("export completed");
    let clock_tree = state.clock_tree.expect("cts completed");
    let (clock_buffers, clock_skew_ps) = clock_tree
        .as_ref()
        .map_or((0, 0.0), |t| (t.buffer_count(), t.skew_ps()));
    let cell_area: f64 = netlist
        .cells()
        .filter_map(|c| state.lib.cell(c.lib_cell()).map(|l| l.area_um2()))
        .sum();
    let report = FlowReport {
        design: state
            .module
            .as_ref()
            .expect("elaborate completed")
            .name()
            .to_string(),
        node: config.node.name(),
        profile: config.profile.name.clone(),
        steps,
        ppa: PpaReport {
            cell_area_um2: cell_area,
            core_area_um2: placement.floorplan().core_area_um2(),
            cells: netlist.cell_count(),
            flip_flops: netlist.stats().sequential_cells,
            fmax_mhz: timing.fmax_mhz,
            wns_ps: timing.wns_ps,
            hold_wns_ps: timing.hold_wns_ps,
            power_uw: power.total_uw(),
            leakage_uw: power.leakage_uw,
            clock_buffers,
            clock_skew_ps,
            wirelength_um: routing.total_wirelength_um(),
            overflowed_edges: routing.overflowed_edges(),
            drc_violations: state.drc_violations,
            gds_bytes: gds_bytes.len(),
        },
        rtl_lines: state.rtl_lines,
    };
    FlowOutcome {
        netlist,
        placement,
        routing,
        layout,
        gds: gds_bytes,
        timing,
        report,
    }
}

/// Canonical JSON of a [`FlowOutcome`] with wall-clock stage times
/// zeroed, so byte-identity can be asserted between cold, warm and
/// partially restored runs (restored stages legitimately report 0 ms).
#[must_use]
pub fn canonical_outcome_json(outcome: &FlowOutcome) -> String {
    let mut canonical = outcome.clone();
    for step in &mut canonical.report.steps {
        step.wall_ms = 0.0;
    }
    serde::json::to_string(&canonical)
}
