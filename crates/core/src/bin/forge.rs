//! `forge` — the chipforge command-line interface.
//!
//! ```text
//! forge run <file.fhdl> [--node <nm>] [--profile open|commercial|quick]
//!           [--clock <MHz>] [--gds <out.gds>] [--verilog <out.v>]
//!           [--liberty <out.lib>] [--trace <out.json>] [--flame <out.txt>]
//! forge batch <manifest.json> [--workers <n>] [--timeout-ms <ms>]
//!           [--retries <n>] [--report <out.json>] [--strict]
//!           [--journal <out.jsonl>] [--resume <journal.jsonl>]
//!           [--fault-rate <p>] [--fault-seed <n>] [--quarantine-after <n>]
//!           [--failure-budget <n>] [--no-degrade] [--halt-after <k>]
//!           [--stage-cache <dir>] [--canonical-report <out.json>]
//!           [--trace <out.json>] [--flame <out.txt>]
//! forge report <trace.json>        # per-stage breakdown of a trace
//! forge tiers <file.fhdl>          # run all three tier strategies
//! forge catalog                    # nodes, tiers and their envelopes
//! forge designs                    # built-in benchmark designs
//! forge serve [--addr <host:port>] # live multi-tenant job hub
//! forge client <action> ...        # talk to a running hub
//! ```

use chipforge::admit::{OverflowPolicy, RateLimit};
use chipforge::cloud::AccessTier;
use chipforge::econ::infrastructure::InfrastructureCostModel;
use chipforge::exec::{
    AdmissionControl, AttemptLimits, BatchEngine, EngineConfig, Fault, JobSpec, JobStatus,
    RemoteCacheConfig, ResilienceOptions, StageCacheMode,
};
use chipforge::flow::{FlowConfig, FlowCtx, OptimizationProfile, Pipeline};
use chipforge::gen::{self, semester::SemesterSpec, GenSpec};
use chipforge::hdl::designs;
use chipforge::netlist::verilog;
use chipforge::obs::{self, Tracer};
use chipforge::pdk::{liberty, LibraryKind, Pdk, TechnologyNode};
use chipforge::resil::{
    FaultPlan, FlakyProxy, Journal, JournalWriter, NetFaultPlan, ResiliencePolicy,
};
use chipforge::serve::{job_from_json, Client, Hub, HubConfig, KeyRegistry, Server};
use chipforge::{EnablementHub, Tier, TierStrategy};
use serde::json;
use serde::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// A CLI failure paired with its exit code.
///
/// The contract (documented in USAGE and relied on by CI):
/// 0 — success; 1 — one or more jobs failed; 2 — configuration,
/// usage or manifest error; 3 — the batch was deliberately cut short
/// (failure budget exhausted or a circuit breaker fast-failed jobs).
enum CliError {
    Config(String),
    Jobs(String),
    FailFast(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Config(message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("tiers") => cmd_tiers(&args[1..]),
        Some("catalog") => cmd_catalog(&args[1..]),
        Some("designs") => cmd_designs(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("semester") => cmd_semester(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("proxy") => cmd_proxy(&args[1..]),
        Some(unknown) => {
            eprintln!("forge: unknown subcommand `{unknown}`\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Jobs(message)) => {
            eprintln!("forge: {message}");
            ExitCode::from(1)
        }
        Err(CliError::Config(message)) => {
            eprintln!("forge: {message}");
            ExitCode::from(2)
        }
        Err(CliError::FailFast(message)) => {
            eprintln!("forge: {message}");
            ExitCode::from(3)
        }
    }
}

const USAGE: &str = "\
forge — open chip-design enablement platform

USAGE:
  forge run <file.fhdl> [--node <nm>] [--profile open|commercial|quick]
            [--clock <MHz>] [--gds <out>] [--verilog <out>] [--liberty <out>]
            [--trace <out.json>] [--flame <out.txt>]
  forge batch <manifest.json> [--workers <n>] [--timeout-ms <ms>]
            [--retries <n>] [--report <out.json>] [--strict]
            [--journal <out.jsonl>] [--resume <journal.jsonl>]
            [--fault-rate <p>] [--fault-seed <n>] [--quarantine-after <n>]
            [--failure-budget <n>] [--no-degrade] [--halt-after <k>]
            [--max-queue <n>] [--shed-oldest] [--deadline <ms>]
            [--tier-quota <b,i,a>] [--breaker-threshold <n>]
            [--stage-cache <dir>] [--canonical-report <out.json>]
            [--remote-cache <url>] [--remote-timeout-ms <ms>]
            [--trace <out.json>] [--flame <out.txt>]
  forge report <trace.json> [--flame <out.txt>]
  forge tiers <file.fhdl>
  forge catalog
  forge designs
  forge gen <gen:spec> [--out <file.fhdl>]
  forge gen --list
  forge semester [--students <n>] [--servers <n>] [--seed <n>]
            [--utilization <0..1>] [--calibrate]
  forge serve [--addr <host:port>] [--workers <n>] [--max-queue <n>]
            [--shed-oldest] [--tier-quota <b,i,a>] [--aging <rate>]
            [--tier-rate <b,i,a>] [--timeout-ms <ms>]
            [--journal <out.jsonl>] [--stage-cache <dir> | --no-stage-cache]
            [--remote-cache <url>] [--keys <keys.json>]
  forge client submit <manifest.json> [--server <addr>] [--key <key>]
  forge client status|wait|cancel <id> [--server] [--key] [--timeout-ms <ms>]
  forge client list|metrics [--server <addr>] [--key <key>]
  forge client ... [--retries <n>] [--retry-ms <ms>]
  forge proxy --upstream <host:port> [--listen <host:port>]
            [--net-fault-rate <p>] [--net-fault-seed <n>]
            [--blackhole-after <n>] [--latency-ms <ms>]

`--trace` writes Chrome trace-event JSON (open in Perfetto or
about://tracing); `--flame` writes flamegraph folded stacks; `forge
report` summarizes a trace with p50/p90/p99 per stage.

Resilience: `--journal` checkpoints completed jobs to an fsynced JSONL
file and `--resume` skips jobs already recorded there; `--fault-rate`
injects seeded transient stage faults (deterministic per `--fault-seed`);
`--quarantine-after` caps attempts before a job is quarantined;
`--failure-budget` fail-fasts the batch; `--no-degrade` disables the
relaxed route/CTS retry; `--halt-after <k>` stops after k journaled
jobs (simulates a mid-batch kill); `--canonical-report` writes the
scheduling-independent JSON report used to verify resumed runs.

Workers: `--workers <n>` runs the batch on n threads that take
admitted jobs from the admission scheduler; results, journal records
and the canonical report do not depend on n.

Overload: the whole batch is offered to the same admission scheduler
`forge serve` uses before any worker starts. `--max-queue <n>` bounds
each class's waiting room to workers + n jobs, rejecting the overflow
(`--shed-oldest` displaces the class's oldest submissions instead);
without `--tier-quota` the batch is one class. `--tier-quota <b,i,a>`
makes each access tier (beginner,intermediate,advanced — e.g. 2,1,1)
its own class and has workers take jobs by those fair-share weights;
`--deadline <ms>` cancels jobs cooperatively between flow stages once
the budget from batch start expires; `--breaker-threshold <n>` trips a
per-stage circuit breaker after n consecutive transient stage failures
and fast-fails jobs while it is open.

Incremental: `--stage-cache <dir>` keeps per-stage flow snapshots in
<dir> (created if missing), so jobs sharing a front end — clock or
profile sweeps, edited resubmissions — restore the unchanged stage
prefix instead of recomputing it, across runs and processes.

Remote cache: `--remote-cache <url>` chains the stage cache to a
running hub's cache protocol (e.g. `http://127.0.0.1:8317`), so
machines share warmed stages: one `/cache/chain` lookup per job fetches
every stage the local tiers lack, and `/cache/stage/<key>` publishes
what the job computed. The remote
tier is strictly best-effort: per-request timeouts
(`--remote-timeout-ms`, default 1000), capped-backoff retries, a
per-endpoint circuit breaker and checksum verification on every fetch
mean a slow, flaky or dead remote only costs speed — job outcomes and
the canonical report are byte-identical with or without it. `forge
serve --remote-cache` chains a hub to an upstream hub the same way.
`forge proxy` runs the seeded fault-injecting TCP proxy used to test
all of this: it relays `--listen` to `--upstream` while refusing,
truncating, corrupting, delaying or blackholing a deterministic
`--net-fault-rate` fraction of connections. `forge client` retries
transport failures (`--retries`, default 3, backoff base
`--retry-ms`) and exits 2 with `hub unreachable: ...` when the hub
stays down.

Corpus: `forge gen` generates seeded design families — CPU control
paths, DSP FIR/FFT datapaths, crypto rounds, NoC routers — from spec
strings like `gen:dsp/fir?width=16&taps=8&seed=3` (knobs: width 4-64,
depth 1-8 with per-family aliases taps/stages/rounds/vcs, unroll 1-4,
seed). A `gen:` spec is accepted anywhere a design name is: `forge
run`, batch manifests, `forge client submit`. Equal specs generate
byte-identical source, so same-spec jobs share the stage cache.
`forge semester` compiles a tiered student population (diurnal curves,
deadline spikes, incremental resubmissions) into an arrival trace and
runs it through the admission-controlled hub DES, reporting per-tier
turnaround, rejection and cost per enabled student; `--calibrate`
re-derives per-tier service hours by running a sampled generated
corpus through the batch engine first.

Hub: `forge serve` runs the live multi-tenant job service (HTTP/1.1 on
--addr, default 127.0.0.1:8317). API keys map universities to access
tiers; without `--keys` a demo registry is loaded (demo-beginner /
demo-intermediate / demo-advanced). Admission reuses the batch
machinery: bounded per-tier queues (`--max-queue`, `--shed-oldest`),
fair-share weights (`--tier-quota`) with aging (`--aging`), per-tier
token-bucket rates (`--tier-rate`, tokens/s, 0 = unlimited). With
`--journal` completed jobs survive a crash: a restarted hub re-lists
them. Every hub worker runs its jobs on one shared long-lived executor
(the per-job path of `forge batch`: caches, retries, timeout), so
`--workers` is the only capacity knob. `forge client` submits manifests
to a hub and polls job state; a manifest entry and a hub job body are
parsed by the same code, except that `file`, `copies` and `tier` only
mean something to a local `forge batch` and are refused (400) by the
hub. Both refuse a key they do not know, by name: a misspelt
`clock_mzh` is exit 2 / HTTP 400, never a default-clock run.

Exit codes: 0 success; 1 job failure(s) under --strict; 2 config or
manifest error; 3 batch cut short (failure budget or open breaker).
";

/// One accepted flag: its name and whether it takes a value.
struct FlagSpec {
    name: &'static str,
    takes_value: bool,
}

const fn value_flag(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: true,
    }
}

const fn switch(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: false,
    }
}

/// Splits `args` into positionals and flag values, rejecting any flag
/// not in `spec` and any flag missing its value.
fn parse_args(
    args: &[String],
    command: &str,
    spec: &[FlagSpec],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positionals = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(stripped) = arg.strip_prefix("--") {
            let Some(flag) = spec.iter().find(|f| f.name == stripped) else {
                return Err(format!(
                    "unrecognized flag `{arg}` for `forge {command}` (run `forge` for usage)"
                ));
            };
            if flag.takes_value {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("`{arg}` needs a value"))?;
                flags.insert(flag.name.to_string(), value.clone());
                i += 2;
            } else {
                flags.insert(flag.name.to_string(), String::new());
                i += 1;
            }
        } else {
            positionals.push(arg.clone());
            i += 1;
        }
    }
    Ok((positionals, flags))
}

fn one_positional(positionals: &[String], what: &str) -> Result<String, String> {
    match positionals {
        [] => Err(format!("missing {what}")),
        [only] => Ok(only.clone()),
        [_, extra, ..] => Err(format!("unexpected argument `{extra}`")),
    }
}

fn parse_number<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad value `{raw}` for --{name}")),
    }
}

fn load_source(path: &str) -> Result<String, String> {
    // Built-in design names and `gen:` specs are accepted in place of
    // files; anything else is read from disk.
    if path.starts_with("gen:") || designs::suite().iter().any(|d| d.name() == path) {
        return Ok(gen::resolve(path)?.source().to_string());
    }
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn parse_node(flags: &HashMap<String, String>) -> Result<TechnologyNode, String> {
    let node_nm: u32 = parse_number(flags, "node", 130)?;
    TechnologyNode::from_feature_nm(node_nm).ok_or_else(|| format!("unknown node {node_nm} nm"))
}

fn parse_profile(name: Option<&str>) -> Result<OptimizationProfile, String> {
    match name {
        None | Some("open") => Ok(OptimizationProfile::open()),
        Some("commercial") => Ok(OptimizationProfile::commercial()),
        Some("quick") => Ok(OptimizationProfile::quick()),
        Some(other) => Err(format!("unknown profile `{other}`")),
    }
}

/// An enabled tracer when `--trace` or `--flame` was given, a disabled
/// (zero-overhead) one otherwise.
fn tracer_for(flags: &HashMap<String, String>) -> Tracer {
    if flags.contains_key("trace") || flags.contains_key("flame") {
        Tracer::new()
    } else {
        Tracer::disabled()
    }
}

/// Writes the `--trace` / `--flame` outputs a command collected.
fn write_trace_outputs(tracer: &Tracer, flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(out) = flags.get("trace") {
        std::fs::write(out, obs::trace_json(tracer)).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out} (chrome trace, see `forge report {out}`)");
    }
    if let Some(out) = flags.get("flame") {
        std::fs::write(out, obs::folded_stacks(&tracer.spans()))
            .map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out} (flamegraph folded stacks)");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[FlagSpec] = &[
        value_flag("node"),
        value_flag("profile"),
        value_flag("clock"),
        value_flag("gds"),
        value_flag("verilog"),
        value_flag("liberty"),
        value_flag("trace"),
        value_flag("flame"),
    ];
    let (positionals, flags) = parse_args(args, "run", FLAGS)?;
    let path = one_positional(&positionals, "input file")?;
    let source = load_source(&path)?;
    let node = parse_node(&flags)?;
    let profile = parse_profile(flags.get("profile").map(String::as_str))?;
    let clock: f64 = parse_number(&flags, "clock", 100.0)?;
    let config = FlowConfig::new(node, profile).with_clock_mhz(clock);
    let tracer = tracer_for(&flags);
    let outcome = Pipeline::standard()
        .run(&source, &config, &FlowCtx::new(&tracer))
        .map_err(|e| CliError::Jobs(e.to_string()))?;
    print!("{}", outcome.report);
    write_trace_outputs(&tracer, &flags)?;
    if let Some(out) = flags.get("gds") {
        std::fs::write(out, &outcome.gds).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(out) = flags.get("verilog") {
        std::fs::write(out, verilog::write_verilog(&outcome.netlist))
            .map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(out) = flags.get("liberty") {
        let pdk = config.pdk();
        let lib = pdk.library(config.profile.library);
        std::fs::write(out, liberty::write_liberty(&lib))
            .map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Reads an optional manifest field, erroring when it is present but
/// of the wrong JSON type. A silently dropped `"clock_mhz": "fast"`
/// would otherwise produce a default-clock GDS with no warning.
fn manifest_field<'a, T>(
    entry: &'a Value,
    context: &str,
    name: &str,
    kind: &str,
    read: impl Fn(&'a Value) -> Option<T>,
) -> Result<Option<T>, String> {
    let value = entry.get(name);
    if matches!(value, Value::Null) {
        return Ok(None);
    }
    read(value)
        .map(Some)
        .ok_or_else(|| format!("{context}: `{name}` must be a {kind}, got {}", value.kind()))
}

/// Parses one manifest entry into (possibly repeated) job specs.
/// `index` is 1-based so errors read the way people count jobs.
///
/// An entry is a hub job body (`serve::job_from_json` — the one parser
/// for design, node, profile, clock, seed, deadline and fault, which
/// also refuses any key it does not know)
/// plus the fields only a local batch can honour, resolved here: `file`
/// (read from disk), `tier`, `copies` and the `hang` fault.
fn manifest_job(entry: &Value, index: usize) -> Result<Vec<JobSpec>, String> {
    let context = format!("manifest job {index}");
    let Value::Map(fields) = entry else {
        return Err(format!(
            "{context}: must be a JSON object, got {}",
            entry.kind()
        ));
    };
    let file = manifest_field(entry, &context, "file", "string", Value::as_str)?;
    let design_given = !matches!(entry.get("design"), Value::Null);
    if file.is_some() && design_given {
        return Err(format!("{context}: give `design` or `file`, not both"));
    }
    if file.is_none() && !design_given && matches!(entry.get("source"), Value::Null) {
        return Err(format!("{context}: needs `design` or `file`"));
    }
    let hang = entry.get("fault").as_str() == Some("hang");
    let mut body: Vec<(Value, Value)> = Vec::new();
    if let Some(file) = file {
        body.push((Value::Str("source".into()), Value::Str(load_source(file)?)));
        body.push((Value::Str("name".into()), Value::Str(file.into())));
    }
    body.extend(
        fields
            .iter()
            .filter(|(key, _)| match key.as_str() {
                Some("file" | "copies" | "tier") => false,
                Some("source" | "name") => file.is_none(),
                Some("fault") => !hang,
                _ => true,
            })
            .cloned(),
    );
    let mut spec = job_from_json(&Value::Map(body)).map_err(|e| format!("{context}: {e}"))?;
    if hang {
        spec = spec.with_fault(Fault::Hang(3_600_000));
    }
    match manifest_field(entry, &context, "tier", "string", Value::as_str)? {
        None => {}
        Some("beginner") => spec = spec.with_tier(AccessTier::Beginner),
        Some("intermediate") => spec = spec.with_tier(AccessTier::Intermediate),
        Some("advanced") => spec = spec.with_tier(AccessTier::Advanced),
        Some(other) => return Err(format!("{context}: unknown tier `{other}`")),
    }
    // `copies` models resubmissions: identical specs that should be
    // served from the artifact cache after the first run.
    let copies = manifest_field(entry, &context, "copies", "number", Value::as_u64)?
        .unwrap_or(1)
        .max(1) as usize;
    Ok(vec![spec; copies])
}

/// Parses `--tier-quota b,i,a` into per-tier fair-share weights.
fn parse_tier_quota(raw: &str) -> Result<[f64; 3], String> {
    let parts: Vec<&str> = raw.split(',').collect();
    let [b, i, a] = parts.as_slice() else {
        return Err(format!(
            "bad value `{raw}` for --tier-quota (expected three weights \
             beginner,intermediate,advanced — e.g. 2,1,1)"
        ));
    };
    let mut weights = [0.0f64; 3];
    for (slot, text) in weights.iter_mut().zip([b, i, a]) {
        let weight: f64 = text
            .trim()
            .parse()
            .map_err(|_| format!("bad weight `{text}` in --tier-quota"))?;
        if !weight.is_finite() || weight <= 0.0 {
            return Err(format!(
                "--tier-quota weights must be finite and positive, got `{text}`"
            ));
        }
        *slot = weight;
    }
    Ok(weights)
}

#[allow(clippy::too_many_lines)]
fn cmd_batch(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[FlagSpec] = &[
        value_flag("workers"),
        value_flag("timeout-ms"),
        value_flag("retries"),
        value_flag("report"),
        value_flag("trace"),
        value_flag("flame"),
        switch("strict"),
        value_flag("journal"),
        value_flag("resume"),
        value_flag("fault-rate"),
        value_flag("fault-seed"),
        value_flag("quarantine-after"),
        value_flag("failure-budget"),
        switch("no-degrade"),
        value_flag("halt-after"),
        value_flag("max-queue"),
        switch("shed-oldest"),
        value_flag("deadline"),
        value_flag("tier-quota"),
        value_flag("breaker-threshold"),
        value_flag("stage-cache"),
        value_flag("canonical-report"),
        value_flag("remote-cache"),
        value_flag("remote-timeout-ms"),
    ];
    let (positionals, flags) = parse_args(args, "batch", FLAGS)?;
    let path = one_positional(&positionals, "manifest file")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let manifest = json::parse(&text).map_err(|e| format!("bad manifest `{path}`: {e}"))?;
    let entries = manifest
        .get("jobs")
        .seq()
        .map_err(|_| format!("bad manifest `{path}`: expected a top-level `jobs` array"))?;
    let mut jobs = Vec::new();
    for (index, entry) in entries.iter().enumerate() {
        jobs.extend(manifest_job(entry, index + 1)?);
    }
    if jobs.is_empty() {
        return Err(CliError::Config(format!(
            "manifest `{path}` contains no jobs"
        )));
    }

    let config = EngineConfig {
        workers: parse_number(&flags, "workers", EngineConfig::default().workers)?,
        limits: AttemptLimits {
            timeout: Duration::from_millis(parse_number(&flags, "timeout-ms", 30_000u64)?),
            max_retries: parse_number(&flags, "retries", 2u32)?,
            ..AttemptLimits::default()
        },
        stage_cache: match flags.get("stage-cache") {
            Some(dir) => StageCacheMode::Disk(dir.into()),
            None => StageCacheMode::Disabled,
        },
        remote_cache: match flags.get("remote-cache") {
            Some(url) => Some(RemoteCacheConfig::new(url.clone()).with_timeout(
                Duration::from_millis(parse_number(&flags, "remote-timeout-ms", 1_000u64)?),
            )),
            None => None,
        },
        ..EngineConfig::default()
    };
    let workers = config.workers;

    // Resilience policy is active only when one of its flags is given,
    // so the default CLI behavior is unchanged.
    let resilience_requested = [
        "journal",
        "resume",
        "fault-rate",
        "quarantine-after",
        "failure-budget",
        "no-degrade",
        "halt-after",
    ]
    .iter()
    .any(|f| flags.contains_key(*f));
    let mut policy = if resilience_requested {
        ResiliencePolicy::resilient(parse_number(&flags, "quarantine-after", 3u32)?)
    } else {
        ResiliencePolicy::inert()
    };
    if flags.contains_key("no-degrade") {
        policy = policy.without_degrade();
    }
    if flags.contains_key("failure-budget") {
        policy = policy.with_failure_budget(parse_number(&flags, "failure-budget", 0usize)?);
    }
    let fault_rate: f64 = parse_number(&flags, "fault-rate", 0.0)?;
    let plan = if fault_rate > 0.0 {
        FaultPlan::transient(parse_number(&flags, "fault-seed", 42u64)?, fault_rate)
    } else {
        FaultPlan::disabled()
    };
    let journal = match flags.get("journal") {
        Some(out) => {
            Some(JournalWriter::create(out).map_err(|e| format!("create journal `{out}`: {e}"))?)
        }
        None => None,
    };
    let resume = match flags.get("resume") {
        Some(from) => Some(Journal::load(from).map_err(|e| format!("read journal `{from}`: {e}"))?),
        None => None,
    };
    if let Some(journal) = &resume {
        if journal.skipped_lines > 0 {
            println!(
                "note: skipped {} corrupt/torn journal line(s); those jobs re-run",
                journal.skipped_lines
            );
        }
    }
    let halt_after = match flags.get("halt-after") {
        Some(_) => Some(parse_number(&flags, "halt-after", 0usize)?),
        None => None,
    };

    let admission_requested = [
        "max-queue",
        "shed-oldest",
        "deadline",
        "tier-quota",
        "breaker-threshold",
    ]
    .iter()
    .any(|f| flags.contains_key(*f));
    let mut admission = AdmissionControl {
        shed_oldest: flags.contains_key("shed-oldest"),
        ..AdmissionControl::default()
    };
    if flags.contains_key("max-queue") {
        admission.max_queue = Some(parse_number(&flags, "max-queue", 0usize)?);
    }
    if flags.contains_key("deadline") {
        admission.deadline = Some(Duration::from_millis(parse_number(
            &flags, "deadline", 0u64,
        )?));
    }
    if let Some(raw) = flags.get("tier-quota") {
        admission.tier_weights = Some(parse_tier_quota(raw)?);
    }
    if flags.contains_key("breaker-threshold") {
        let threshold: u32 = parse_number(&flags, "breaker-threshold", 3u32)?;
        if threshold == 0 {
            return Err(CliError::Config(
                "--breaker-threshold must be at least 1".into(),
            ));
        }
        admission.breaker_threshold = Some(threshold);
    }

    let tracer = tracer_for(&flags);
    let engine = BatchEngine::with_tracer(config, tracer.clone());
    let batch = engine.run_batch_resilient(
        jobs,
        ResilienceOptions {
            plan,
            policy,
            admission,
            journal,
            resume,
            halt_after,
        },
    );

    println!("batch: {} jobs on {} workers", batch.results.len(), workers);
    for result in &batch.results {
        let mut note = match (&result.error, result.cache_hit) {
            (Some(error), _) => format!("  ({error})"),
            (None, true) => "  (cache hit)".to_string(),
            (None, false) => String::new(),
        };
        if result.resumed {
            note.push_str("  (resumed)");
        }
        if result.degraded {
            note.push_str("  (degraded)");
        }
        println!(
            "  [{:>3}] {:<16} {:<9} worker {} wait {:>7.1} ms run {:>8.1} ms{}",
            result.index,
            result.name,
            result.status.to_string(),
            result.worker,
            result.queue_wait_ms,
            result.run_ms,
            note,
        );
    }
    let totals = &batch.report.totals;
    let cache = &batch.report.cache;
    println!(
        "totals: {} ok, {} failed, {} timed out, {} cancelled in {:.1} ms ({:.2} jobs/s)",
        totals.succeeded,
        totals.failed,
        totals.timed_out,
        totals.cancelled,
        totals.makespan_ms,
        totals.throughput_jobs_per_s,
    );
    println!(
        "cache:  {} hits / {} misses ({:.0}% hit rate), {} artifacts resident, {} evicted",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
        cache.entries,
        cache.evictions,
    );
    if let Some(stages) = &batch.report.stage_cache {
        println!(
            "stages: {} restored / {} computed, {} job(s) fully restored, {} recomputed",
            stages.hits, stages.misses, stages.full_restores, stages.recomputes,
        );
    }
    if let Some(remote) = &batch.report.remote_cache {
        println!(
            "remote: {} hits / {} misses, {} stored, {} request(s), {} timeout(s), {} retry(s), {} fast-fail(s), {} corrupt, {} oversize",
            remote.hits,
            remote.misses,
            remote.stores,
            remote.requests,
            remote.timeouts,
            remote.retries,
            remote.breaker_open,
            remote.corrupt,
            remote.oversize,
        );
        if remote.is_degraded() {
            eprintln!(
                "warning: remote cache degraded (timeouts/breaker/corruption); batch completed on local tiers"
            );
        }
    }
    if resilience_requested {
        println!(
            "resil:  {} quarantined, {} degraded, {} resumed",
            totals.quarantined, totals.degraded, totals.resumed,
        );
    }
    if admission_requested {
        let admit = &batch.report.admission;
        // A shed job also reports status `rejected`; count it as shed only.
        println!(
            "admit:  {} admitted, {} rejected, {} shed, {} deadline-exceeded, peak queue depth {}",
            admit.admitted,
            totals.rejected - admit.shed,
            admit.shed,
            totals.deadline_exceeded,
            admit.peak_queue_depth,
        );
    }
    for worker in &batch.report.workers {
        println!(
            "worker {}: {} jobs, busy {:>8.1} ms, {:>5.1}% utilized",
            worker.worker,
            worker.jobs_run,
            worker.busy_ms,
            worker.utilization * 100.0,
        );
    }
    if let Some(out) = flags.get("report") {
        std::fs::write(out, batch.report.to_json()).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(out) = flags.get("canonical-report") {
        std::fs::write(out, batch.canonical_report()).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out} (canonical report)");
    }
    write_trace_outputs(&tracer, &flags)?;
    if batch.halted {
        println!("halted early by --halt-after; rerun with --resume <journal> to finish");
        return Ok(());
    }
    if batch.fail_fast {
        return Err(CliError::FailFast(
            "batch cut short: failure budget exhausted or circuit breaker fast-failed jobs".into(),
        ));
    }
    let unsuccessful = batch
        .results
        .iter()
        .filter(|r| r.status != JobStatus::Succeeded)
        .count();
    if flags.contains_key("strict") && unsuccessful > 0 {
        return Err(CliError::Jobs(format!(
            "{unsuccessful} job(s) did not succeed"
        )));
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[FlagSpec] = &[value_flag("flame")];
    let (positionals, flags) = parse_args(args, "report", FLAGS)?;
    let path = one_positional(&positionals, "trace file")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let trace = obs::parse_chrome_json(&text).map_err(|e| format!("bad trace `{path}`: {e}"))?;
    if trace.spans.is_empty() {
        return Err(CliError::Config(format!(
            "trace `{path}` contains no span events"
        )));
    }
    print!("{}", obs::render_trace_report(&trace));
    if let Some(out) = flags.get("flame") {
        std::fs::write(out, obs::folded_stacks(&trace.spans))
            .map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out} (flamegraph folded stacks)");
    }
    Ok(())
}

fn cmd_tiers(args: &[String]) -> Result<(), CliError> {
    let (positionals, _) = parse_args(args, "tiers", &[])?;
    let path = one_positional(&positionals, "input file")?;
    let source = load_source(&path)?;
    let hub = EnablementHub::new();
    for tier in Tier::ALL {
        let report = hub.run(&source, tier).map_err(|e| e.to_string())?;
        println!(
            "{:<12} {:>6} | {:>5} cells, fmax {:>8.1} MHz, {:>9.1} um2, seat {:>8.0} EUR, {:>3.0} weeks",
            tier.to_string(),
            report.strategy.node.to_string(),
            report.flow.ppa.cells,
            report.flow.ppa.fmax_mhz,
            report.flow.ppa.cell_area_um2,
            report.seat_cost_eur,
            report.turnaround_weeks,
        );
    }
    Ok(())
}

fn cmd_catalog(args: &[String]) -> Result<(), CliError> {
    let (positionals, _) = parse_args(args, "catalog", &[])?;
    if let Some(extra) = positionals.first() {
        return Err(CliError::Config(format!("unexpected argument `{extra}`")));
    }
    println!("tier strategies (Recommendation 8):");
    for tier in Tier::ALL {
        println!("  {}", TierStrategy::recommended(tier));
    }
    println!("\nopen PDK nodes:");
    for node in TechnologyNode::ALL {
        if node.has_open_pdk() {
            let pdk = Pdk::open(node);
            let lib = pdk.library(LibraryKind::Open);
            println!(
                "  {:>6}: {} cells, row height {:.2} um, {} metal layers",
                node.to_string(),
                lib.len(),
                lib.row_height_um(),
                node.metal_layers()
            );
        }
    }
    Ok(())
}

/// Parses `--tier-rate b,i,a` (tokens per second, 0 = unlimited).
fn parse_tier_rates(raw: &str) -> Result<[Option<RateLimit>; 3], String> {
    let parts: Vec<&str> = raw.split(',').collect();
    let [b, i, a] = parts.as_slice() else {
        return Err(format!(
            "bad value `{raw}` for --tier-rate (expected three rates \
             beginner,intermediate,advanced in tokens/s — e.g. 2,1,0.5)"
        ));
    };
    let mut limits = [None, None, None];
    for (slot, text) in limits.iter_mut().zip([b, i, a]) {
        let rate: f64 = text
            .trim()
            .parse()
            .map_err(|_| format!("bad rate `{text}` in --tier-rate"))?;
        if !rate.is_finite() || rate < 0.0 {
            return Err(format!(
                "--tier-rate rates must be finite and non-negative, got `{text}`"
            ));
        }
        *slot = (rate > 0.0).then(|| RateLimit {
            rate,
            burst: rate.max(1.0),
        });
    }
    Ok(limits)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[FlagSpec] = &[
        value_flag("addr"),
        value_flag("workers"),
        value_flag("max-queue"),
        switch("shed-oldest"),
        value_flag("tier-quota"),
        value_flag("aging"),
        value_flag("tier-rate"),
        value_flag("timeout-ms"),
        value_flag("journal"),
        value_flag("stage-cache"),
        switch("no-stage-cache"),
        value_flag("remote-cache"),
        value_flag("keys"),
    ];
    let (positionals, flags) = parse_args(args, "serve", FLAGS)?;
    if let Some(extra) = positionals.first() {
        return Err(CliError::Config(format!("unexpected argument `{extra}`")));
    }
    let mut config = HubConfig::default();
    config.workers = parse_number(&flags, "workers", config.workers)?;
    if config.workers == 0 {
        return Err(CliError::Config("--workers must be at least 1".into()));
    }
    if flags.contains_key("max-queue") {
        config.queue_capacity = Some(parse_number(&flags, "max-queue", 0usize)?);
    }
    if flags.contains_key("shed-oldest") {
        config.overflow = OverflowPolicy::ShedOldest;
    }
    if let Some(raw) = flags.get("tier-quota") {
        config.weights = parse_tier_quota(raw)?;
    }
    config.aging_rate = parse_number(&flags, "aging", config.aging_rate)?;
    if let Some(raw) = flags.get("tier-rate") {
        config.rate_limits = parse_tier_rates(raw)?;
    }
    config.job_timeout = Duration::from_millis(parse_number(&flags, "timeout-ms", 30_000u64)?);
    config.journal = flags.get("journal").map(PathBuf::from);
    config.remote_cache = flags.get("remote-cache").cloned();
    config.stage_cache = match (
        flags.get("stage-cache"),
        flags.contains_key("no-stage-cache"),
    ) {
        (Some(_), true) => {
            return Err(CliError::Config(
                "--stage-cache conflicts with --no-stage-cache (drop one)".into(),
            ))
        }
        (None, true) if config.remote_cache.is_some() => {
            return Err(CliError::Config(
                "--remote-cache requires the stage cache (drop --no-stage-cache)".into(),
            ))
        }
        (None, true) => StageCacheMode::Disabled,
        (Some(dir), false) => StageCacheMode::Disk(dir.into()),
        (None, false) => StageCacheMode::Memory,
    };

    let keys = match flags.get("keys") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            KeyRegistry::from_json(&text).map_err(|e| format!("bad key file `{path}`: {e}"))?
        }
        None => KeyRegistry::demo(),
    };
    if keys.is_empty() {
        return Err(CliError::Config("key file contains no keys".into()));
    }
    let tenants = keys.len();
    let demo_keys = !flags.contains_key("keys");

    let addr = flags.get("addr").map_or("127.0.0.1:8317", String::as_str);
    let hub = Hub::new(config.clone()).map_err(CliError::Config)?;
    let recovered = hub.recovered_jobs();
    let server = Server::start(hub, keys, addr).map_err(CliError::Config)?;
    println!("hub listening on http://{}", server.addr());
    println!(
        "workers {}, queue capacity {}, weights {:?}, aging {}/s",
        config.workers,
        config
            .queue_capacity
            .map_or("unbounded".to_string(), |c| c.to_string()),
        config.weights,
        config.aging_rate,
    );
    if demo_keys {
        println!(
            "tenants: {tenants} demo key(s) (demo-beginner / demo-intermediate / demo-advanced)"
        );
    } else {
        println!("tenants: {tenants} API key(s) loaded");
    }
    if let Some(journal) = &config.journal {
        println!(
            "journal: {} ({recovered} job(s) recovered)",
            journal.display()
        );
    }
    if let Some(upstream) = &config.remote_cache {
        println!("remote cache: chained to {upstream} (best-effort)");
    }
    // Serve until killed (the CI smoke test SIGKILLs us mid-load and
    // restarts on the same journal to exercise recovery).
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn client_job_id(positionals: &[String]) -> Result<u64, String> {
    let raw = one_positional(positionals, "job id")?;
    raw.parse().map_err(|_| format!("bad job id `{raw}`"))
}

fn cmd_client(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[FlagSpec] = &[
        value_flag("server"),
        value_flag("key"),
        value_flag("timeout-ms"),
        value_flag("retries"),
        value_flag("retry-ms"),
    ];
    let (positionals, flags) = parse_args(args, "client", FLAGS)?;
    let server = flags.get("server").map_or("127.0.0.1:8317", String::as_str);
    let key = flags.get("key").map_or("demo-beginner", String::as_str);
    let client = Client::new(server, key).with_retries(
        parse_number(&flags, "retries", 3u32)?,
        parse_number(&flags, "retry-ms", 250u64)?,
    );
    let action = positionals.first().map(String::as_str).ok_or_else(|| {
        "missing client action (submit|status|wait|cancel|list|metrics)".to_string()
    })?;
    match action {
        "submit" => {
            let path = one_positional(&positionals[1..], "manifest file")?;
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let doc = json::parse(&text).map_err(|e| format!("bad manifest `{path}`: {e}"))?;
            // Either a whole batch manifest ({"jobs": [...]}) or a
            // single job body.
            let bodies: Vec<String> = match doc.get("jobs") {
                Value::Null => vec![json::to_string(&doc)],
                jobs => jobs
                    .seq()
                    .map_err(|_| format!("bad manifest `{path}`: `jobs` must be an array"))?
                    .iter()
                    .map(json::to_string)
                    .collect(),
            };
            let mut refused = 0usize;
            for body in &bodies {
                match client.submit(body)? {
                    Ok(id) => println!("job {id} accepted"),
                    Err(response) => {
                        refused += 1;
                        println!(
                            "refused (HTTP {}): {}",
                            response.status,
                            response.body.get("error").as_str().unwrap_or("unknown"),
                        );
                    }
                }
            }
            if refused > 0 {
                return Err(CliError::Jobs(format!("{refused} submission(s) refused")));
            }
            Ok(())
        }
        "status" => {
            let id = client_job_id(&positionals[1..])?;
            println!("{}", json::to_string(&client.job_status(id)?));
            Ok(())
        }
        "wait" => {
            let id = client_job_id(&positionals[1..])?;
            let timeout = Duration::from_millis(parse_number(&flags, "timeout-ms", 120_000u64)?);
            let status = client.wait(id, timeout)?;
            println!("{}", json::to_string(&status));
            match status.get("state").as_str() {
                Some("succeeded") => Ok(()),
                state => Err(CliError::Jobs(format!(
                    "job {id} finished as {}",
                    state.unwrap_or("unknown")
                ))),
            }
        }
        "cancel" => {
            let id = client_job_id(&positionals[1..])?;
            if client.cancel(id)? {
                println!("cancelled job {id}");
                Ok(())
            } else {
                Err(CliError::Jobs(format!(
                    "job {id} was not cancelled (unknown, running or finished)"
                )))
            }
        }
        "list" => {
            println!("{}", json::to_string(&client.list()?));
            Ok(())
        }
        "metrics" => {
            println!("{}", json::to_string(&client.metrics()?));
            Ok(())
        }
        other => Err(CliError::Config(format!(
            "unknown client action `{other}` (submit|status|wait|cancel|list|metrics)"
        ))),
    }
}

fn cmd_proxy(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[FlagSpec] = &[
        value_flag("listen"),
        value_flag("upstream"),
        value_flag("net-fault-rate"),
        value_flag("net-fault-seed"),
        value_flag("blackhole-after"),
        value_flag("latency-ms"),
    ];
    let (positionals, flags) = parse_args(args, "proxy", FLAGS)?;
    if let Some(extra) = positionals.first() {
        return Err(CliError::Config(format!("unexpected argument `{extra}`")));
    }
    let upstream_raw = flags
        .get("upstream")
        .ok_or_else(|| "missing --upstream <host:port>".to_string())?;
    let upstream = std::net::ToSocketAddrs::to_socket_addrs(upstream_raw.as_str())
        .map_err(|e| format!("bad --upstream `{upstream_raw}`: {e}"))?
        .next()
        .ok_or_else(|| format!("bad --upstream `{upstream_raw}`: no address"))?;
    let rate: f64 = parse_number(&flags, "net-fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(CliError::Config(
            "--net-fault-rate must be between 0 and 1".into(),
        ));
    }
    let seed: u64 = parse_number(&flags, "net-fault-seed", 42u64)?;
    let mut plan = if rate > 0.0 {
        NetFaultPlan::flaky(seed, rate)
    } else {
        NetFaultPlan::disabled()
    };
    if flags.contains_key("latency-ms") {
        plan = plan.with_latency(rate / 4.0, parse_number(&flags, "latency-ms", 25u64)?);
    }
    if flags.contains_key("blackhole-after") {
        plan = plan.with_blackhole_after(parse_number(&flags, "blackhole-after", 0u64)?);
    }
    let listen = flags.get("listen").map_or("127.0.0.1:0", String::as_str);
    let proxy = FlakyProxy::start_on(listen, upstream, plan)
        .map_err(|e| format!("start proxy on `{listen}`: {e}"))?;
    println!("proxy listening on {} -> {upstream}", proxy.addr());
    println!("fault rate {rate}, seed {seed} (deterministic per connection)");
    // Relay until killed, like `forge serve` (CI kills us after the
    // chaos smoke).
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[FlagSpec] = &[switch("list"), value_flag("out")];
    let (positionals, flags) = parse_args(args, "gen", FLAGS)?;
    if flags.contains_key("list") {
        if let Some(extra) = positionals.first() {
            return Err(CliError::Config(format!("unexpected argument `{extra}`")));
        }
        println!("generated corpus (usable as `forge run <spec>` or in manifests):");
        for spec in gen::corpus() {
            let design = spec.generate();
            println!(
                "  {:<42} {:<8} {:>3} lines  {}",
                spec.to_string(),
                design.family(),
                design.rtl_lines(),
                design.name()
            );
        }
        return Ok(());
    }
    let text = one_positional(&positionals, "gen spec (or --list)")?;
    let spec = GenSpec::parse(&text).map_err(CliError::Config)?;
    let design = spec.generate();
    if let Some(out) = flags.get("out") {
        std::fs::write(out, design.source()).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!(
            "wrote {out} ({} · {} · {} lines · flow template {})",
            design.name(),
            design.family(),
            design.rtl_lines(),
            spec.flow_template().name()
        );
    } else {
        print!("{}", design.source());
    }
    Ok(())
}

fn cmd_semester(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[FlagSpec] = &[
        value_flag("students"),
        value_flag("servers"),
        value_flag("seed"),
        value_flag("utilization"),
        switch("calibrate"),
    ];
    let (positionals, flags) = parse_args(args, "semester", FLAGS)?;
    if let Some(extra) = positionals.first() {
        return Err(CliError::Config(format!("unexpected argument `{extra}`")));
    }
    let students: usize = parse_number(&flags, "students", 1_000)?;
    if students == 0 {
        return Err(CliError::Config("--students must be at least 1".into()));
    }
    let seed: u64 = parse_number(&flags, "seed", 1)?;
    let utilization: f64 = parse_number(&flags, "utilization", 0.8)?;
    let mut spec = SemesterSpec::tiered(students, seed);
    if flags.contains_key("calibrate") {
        let hours = calibrate_service_hours()?;
        println!(
            "calibrated service hours from generated corpus: \
             beginner {:.2} h, intermediate {:.2} h, advanced {:.2} h",
            hours[0], hours[1], hours[2]
        );
        spec = spec.with_service_hours(hours);
    }
    let servers: usize = parse_number(&flags, "servers", spec.recommended_servers(utilization))?;
    if servers == 0 {
        return Err(CliError::Config("--servers must be at least 1".into()));
    }
    let result = spec
        .simulate(servers)
        .map_err(|e| CliError::Config(e.to_string()))?;
    let model = InfrastructureCostModel::reference();
    let tier_costs = spec.tier_cost_per_enabled_student_eur(servers, &result, &model);
    println!(
        "semester: {students} students, {} universities, {} weeks, {servers} servers, seed {seed}",
        spec.universities, spec.weeks
    );
    println!(
        "  {:<14} {:>8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10}",
        "tier", "students", "offered", "admitted", "rejected", "mean-tat", "p99-tat", "eur/stud"
    );
    for tier in AccessTier::ALL {
        let class = tier.priority() as usize;
        let t = &result.tiers[class];
        println!(
            "  {:<14} {:>8} {:>9} {:>9} {:>9} {:>9.2}h {:>9.2}h {:>10.2}",
            tier.to_string(),
            spec.students[class],
            t.offered,
            t.admitted,
            t.rejected,
            t.mean_turnaround_h,
            t.p99_turnaround_h,
            tier_costs[class]
        );
    }
    println!(
        "  completed {} of {} submissions, utilization {:.1}%, cost per enabled student €{:.2}",
        result.completed,
        result.tiers.iter().map(|t| t.offered).sum::<usize>(),
        result.utilization * 100.0,
        spec.cost_per_enabled_student_eur(servers, &result, &model)
    );
    Ok(())
}

/// Runs the tier-representative generated corpus through the batch
/// engine and maps the measured per-tier mean runtimes to service
/// hours (the live counterpart of the pinned E19 constants).
fn calibrate_service_hours() -> Result<[f64; 3], CliError> {
    use chipforge::exec::calibrate;
    let engine = BatchEngine::new(EngineConfig::default());
    let mut measured = [0.0f64; 3];
    for (class, specs) in gen::calibration_specs().iter().enumerate() {
        let jobs: Vec<JobSpec> = specs
            .iter()
            .map(|s| {
                let design = s.generate();
                JobSpec::new(
                    design.name(),
                    design.source(),
                    TechnologyNode::N130,
                    OptimizationProfile::quick(),
                )
            })
            .collect();
        let report = engine.run_batch(jobs);
        if let Some(failed) = report.results.iter().find(|r| !r.status.is_success()) {
            return Err(CliError::Jobs(format!(
                "calibration job `{}` failed: {}",
                failed.name, failed.status
            )));
        }
        measured[class] = calibrate::mean_computed_run_ms(&report.results)
            .ok_or_else(|| CliError::Jobs("calibration computed no jobs".into()))?;
    }
    Ok(calibrate::tier_hours_from_measured_ms(
        measured,
        calibrate::DEFAULT_MS_TO_HOURS,
    ))
}

fn cmd_designs(args: &[String]) -> Result<(), CliError> {
    let (positionals, _) = parse_args(args, "designs", &[])?;
    if let Some(extra) = positionals.first() {
        return Err(CliError::Config(format!("unexpected argument `{extra}`")));
    }
    println!("built-in benchmark designs (usable as `forge run <name>`):");
    for design in designs::suite() {
        let module = design.elaborate().map_err(|e| e.to_string())?;
        println!(
            "  {:<14} {:<10} {:>3} lines, {:>2} inputs, {:>2} outputs, {:>3} state bits",
            design.name(),
            design.family(),
            design.rtl_lines(),
            module.inputs().count(),
            module.outputs().count(),
            module.state_bits()
        );
    }
    Ok(())
}
