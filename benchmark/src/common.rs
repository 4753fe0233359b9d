//! What every workload shares: the run context, the set-up timer, the
//! output checks and the result a run hands back.

use crate::spans::Recorder;
use crate::stats;
use chipforge_flow::{FlowConfig, FlowCtx, FlowOutcome, Pipeline, PpaReport};
use chipforge_obs::Tracer;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is run this many times per process and its median reported,
/// so one slow page fault does not decide `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Designs up to this many cells get their equivalence re-proven by the
/// harness, independently of the flow's own signoff.
pub const EC_REPROOF_MAX_CELLS: usize = 1_000;

/// Engine and hub worker counts: the reference machine has 2 cores.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub rec: &'a Recorder,
    /// Scratch and output directory, inside the checkout.
    pub out_dir: PathBuf,
}

impl Ctx<'_> {
    pub fn traced(&self) -> bool {
        self.rec.enabled()
    }
}

/// Runs `setup` [`SETUP_REPS`] times, dropping each result before the
/// next, and returns the last result with the median seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), stats::median(&times))
}

/// Counts operations and violations. A violation is anything that must
/// not happen on a correct program: a job that did not succeed, a
/// refusal, or an output check that failed.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checker {
    /// One operation of the workload (a flow, a job) and how it ended.
    pub fn operation(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.violation(what());
        }
    }

    /// An output check; a failed one counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violation(what());
        }
    }

    fn violation(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }
}

/// The deterministic artifact view every surface must agree on for one
/// (design, configuration): the PPA report and the GDS digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub ppa_json: String,
    pub gds_fnv: u64,
}

impl Digest {
    pub fn of(ppa: &PpaReport, gds_fnv: u64) -> Self {
        Digest {
            ppa_json: serde::json::to_string(ppa),
            gds_fnv,
        }
    }

    pub fn of_outcome(outcome: &FlowOutcome) -> Self {
        Digest::of(&outcome.report.ppa, chipforge_resil::fnv64(&outcome.gds))
    }

    /// From the `ppa` and `gds_fnv` fields of hub status JSON.
    pub fn of_status(status: &Value) -> Option<Self> {
        let ppa = <PpaReport as serde::Deserialize>::from_value(status.get("ppa")).ok()?;
        Some(Digest::of(&ppa, status.get("gds_fnv").as_u64()?))
    }
}

/// One untraced, storeless flow run — the reference every other
/// surface's artifact is compared with.
pub fn reference_run(source: &str, config: &FlowConfig) -> Option<FlowOutcome> {
    Pipeline::standard()
        .run(source, config, &FlowCtx::new(&Tracer::disabled()))
        .ok()
}

/// The checks every flow outcome must pass, whichever surface made it:
/// signoff did not report a failed equivalence check, and — for designs
/// small enough — the harness's own proof that the netlist still equals
/// the RTL. Routing overflow is reported (`route.overflowed_edges`) but
/// is no violation: at the parent commit the largest `cpu/ctrl` design
/// closes the open profile with 270 overflowed edges.
pub fn check_outcome(checker: &mut Checker, name: &str, source: &str, outcome: &FlowOutcome) {
    let ppa = &outcome.report.ppa;
    let signoff_failed = outcome
        .report
        .steps
        .iter()
        .any(|s| s.detail.contains("EC FAILED"));
    checker.check(!signoff_failed, || {
        format!("{name}: signoff reports EC FAILED")
    });
    if ppa.cells <= EC_REPROOF_MAX_CELLS {
        let proven = chipforge_hdl::parse(source).ok().is_some_and(|module| {
            let result = chipforge_verify::check_equivalence(&module, &outcome.netlist, 500_000);
            // An exhausted BDD budget is no verdict, not a wrong one.
            !matches!(
                result.verdict,
                chipforge_verify::Verdict::Inequivalent(_)
                    | chipforge_verify::Verdict::InterfaceMismatch(_)
            )
        });
        checker.check(proven, || {
            format!("{name}: netlist is not equivalent to its RTL")
        });
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a workload hands back to `main`.
pub struct RunResult {
    pub checker: Checker,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else worth keeping: per-design rows, sample counts,
    /// the time table. Written to the detail file, never to stdout.
    pub detail: Vec<(String, Value)>,
}

/// The end-to-end metrics every workload derives the same way from the
/// per-job turnarounds (ms) of each repetition.
///
/// The percentiles are taken within a repetition and the median of them
/// over the repetitions: every repetition runs the same jobs, so a rank
/// names the same job each time and run-to-run noise moves its value,
/// not which job it is. Pooled over repetitions, a rank that falls
/// between two clusters of jobs slides from one to the other.
pub fn end_to_end(
    setup_s: f64,
    repetitions_ms: &[Vec<f64>],
    jobs_per_s: f64,
    detail: &mut Vec<(String, Value)>,
) -> BTreeMap<&'static str, f64> {
    let per_repetition = |p: f64| -> f64 {
        let values: Vec<f64> = repetitions_ms
            .iter()
            .map(|rep| {
                if p == 50.0 {
                    stats::median(rep)
                } else {
                    stats::percentile(rep, p)
                }
            })
            .collect();
        stats::median(&values)
    };
    let n = repetitions_ms.first().map_or(0, Vec::len);
    detail.push((
        "repetitions".into(),
        Value::U64(repetitions_ms.len() as u64),
    ));
    detail.push(("jobs_per_repetition".into(), Value::U64(n as u64)));
    detail.push((
        "samples_beyond_p90".into(),
        Value::U64(stats::samples_beyond(n, 90.0) as u64),
    ));
    detail.push((
        "highest_supported_percentile".into(),
        stats::highest_supported_percentile(n).map_or(Value::Null, Value::F64),
    ));
    detail.push((
        "turnaround_percentiles_ms".into(),
        Value::Map(
            [50.0, 75.0, 90.0, 95.0, 99.0]
                .into_iter()
                .map(|p| (Value::Str(format!("p{p}")), num(per_repetition(p))))
                .collect(),
        ),
    ));
    detail.push(("peak_rss_mb".into(), num(peak_rss_mb())));
    BTreeMap::from([
        ("setup_s", setup_s),
        ("job_p50_ms", per_repetition(50.0)),
        ("job_p90_ms", per_repetition(90.0)),
        ("jobs_per_s", jobs_per_s),
    ])
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (Value::Str(k.into()), v))
            .collect(),
    )
}

pub fn num_seq(values: &[f64]) -> Value {
    Value::Seq(values.iter().map(|v| num(*v)).collect())
}

/// A JSON number; a non-finite value (a failed job's latency) is written
/// as the largest finite one, since JSON has no infinity.
pub fn num(value: f64) -> Value {
    Value::F64(if value.is_finite() { value } else { f64::MAX })
}
