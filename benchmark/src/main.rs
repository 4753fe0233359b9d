//! The one reproducible benchmark of chipforge.
//!
//! ```text
//! chipforge-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! chipforge-benchmark run-all [--seed n] [--seconds s] [--runs k] [--out file]
//! chipforge-benchmark compare <a.json> <b.json>
//! chipforge-benchmark check-names
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! Everything else (progress, tables) goes to standard error and to
//! `benchmark/out/`. See `benchmark/README.md`.

#![forbid(unsafe_code)]

mod batch_classroom;
mod batches;
mod common;
mod flow_cold;
mod flow_probe;
mod hub_open_loop;
mod inputs;
mod manifest;
mod micro;
mod spans;
mod stats;
mod suite;
mod sweep_remote;

use common::{num, obj, Ctx, RunResult};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where detail files, traces and scratch directories go, relative to
/// the directory the command is run from (the root of a checkout).
const OUT_DIR: &str = "benchmark/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  chipforge-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  \
         chipforge-benchmark run-all [--seed n] [--seconds s] [--runs k] [--out file]\n  \
         chipforge-benchmark compare <a.json> <b.json>\n  \
         chipforge-benchmark check-names\n  \
         chipforge-benchmark print-manifest",
        manifest::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

/// `--name value` pairs after the subcommand.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(at) => args
            .get(at + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("`{name}` needs a valid value")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run-all") => suite::run_all(&args[1..]),
        Some("compare") => suite::compare(&args[1..]),
        Some("check-names") => check_names(),
        Some("print-manifest") => {
            println!("{}", manifest::render(suite::RUN_SECONDS));
            Ok(true)
        }
        Some(first) if first.starts_with("--") => run_one(&args),
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn check_names() -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest =
        serde::json::parse(&text).map_err(|e| format!("BENCHMARK.json is not JSON: {e}"))?;
    let problems = manifest::check_names(&manifest);
    for problem in &problems {
        eprintln!("check-names: {problem}");
    }
    if problems.is_empty() {
        println!(
            "check-names: {} workloads, {} end-to-end and {} per-layer metrics match BENCHMARK.json",
            manifest::WORKLOADS.len(),
            manifest::END_TO_END.len(),
            manifest::PER_LAYER.len()
        );
    }
    Ok(problems.is_empty())
}

/// Runs one workload in this process: the form the benchmark contract
/// (and `run-all`, per child process) uses.
fn run_one(args: &[String]) -> Result<bool, String> {
    let workload: String = flag(args, "--workload")?.ok_or("`--workload` is required")?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(suite::RUN_SECONDS as f64);
    let trace: u8 = flag(args, "--trace")?.unwrap_or(0);
    if !(seconds > 0.0 && seconds <= 600.0) || trace > 1 {
        return Err("`--seconds` must be in (0, 600] and `--trace` 0 or 1".into());
    }
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;

    let rec = spans::Recorder::new(trace == 1);
    let ctx = Ctx {
        seed,
        seconds,
        rec: &rec,
        out_dir: out_dir.clone(),
    };
    let started = std::time::Instant::now();
    let result = match workload.as_str() {
        "flow_cold" => flow_cold::run(&ctx),
        "batch_classroom" => batch_classroom::run(&ctx),
        "hub_open_loop" => hub_open_loop::run(&ctx),
        "sweep_publish" => sweep_remote::run_publish(&ctx),
        "sweep_fetch" => sweep_remote::run_fetch(&ctx),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let wall_s = started.elapsed().as_secs_f64();
    report(
        &workload,
        seed,
        seconds,
        trace == 1,
        wall_s,
        result,
        &rec,
        &out_dir,
    )
}

#[allow(clippy::too_many_arguments)]
fn report(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    wall_s: f64,
    result: RunResult,
    rec: &spans::Recorder,
    out_dir: &Path,
) -> Result<bool, String> {
    let RunResult {
        checker,
        mut metrics,
        mut detail,
    } = result;
    let listed = if traced {
        manifest::PER_LAYER
    } else {
        manifest::END_TO_END
    };
    let spans = rec.spans();
    if traced {
        let layers = spans::layer_self_us(&spans);
        let of = |names: &[&str]| -> f64 {
            names
                .iter()
                .filter_map(|n| layers.get(*n))
                .fold(0.0, |sum, us| sum + us)
        };
        let operations: f64 = layers
            .iter()
            .filter(|(layer, _)| layer.as_str() != "bench")
            .map(|(_, us)| us)
            .sum();
        metrics.insert(
            "bench.exec_serve_self_share",
            if operations > 0.0 {
                of(&["exec", "serve", "admit", "resil", "remote"]) / operations
            } else {
                0.0
            },
        );
        metrics.insert("bench.peak_rss_mb", common::peak_rss_mb());
        let root_name = format!("bench.{workload}");
        let (table, wall_us, total_us) = spans::time_table(&spans, &root_name);
        eprint!("{table}");
        detail.push(("time_table".into(), Value::Str(table)));
        detail.push(("time_table_wall_ms".into(), num(wall_us / 1e3)));
        detail.push(("time_table_sum_ms".into(), num(total_us / 1e3)));
        detail.push((
            "layer_self_ms".into(),
            Value::Map(
                layers
                    .iter()
                    .map(|(layer, us)| (Value::Str(layer.clone()), num(us / 1e3)))
                    .collect(),
            ),
        ));
        let trace_path = out_dir.join(format!("trace-{workload}.json"));
        std::fs::write(&trace_path, spans::chrome_trace(&spans))
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    }

    // Exactly the listed metrics: a layer this workload never entered
    // reads 0; a metric nobody listed is a bug in this harness.
    for name in metrics.keys() {
        if !listed.iter().any(|m| m.name == *name) {
            return Err(format!("`{name}` is emitted but not listed"));
        }
    }
    let mut all_finite = true;
    let metric_values: Vec<(Value, Value)> = listed
        .iter()
        .map(|m| {
            let value = metrics.get(m.name).copied().unwrap_or(0.0);
            all_finite &= value.is_finite();
            eprintln!("{:<40} {:>16.4} {}", m.name, value, m.unit);
            (
                Value::Str(m.name.into()),
                obj(vec![
                    ("value", num(value)),
                    ("unit", Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let correct = checker.failed == 0 && all_finite && checker.attempted > 0;
    for note in &checker.notes {
        eprintln!("violation: {note}");
    }
    eprintln!(
        "{workload}: seed {seed}, {} operations attempted, {} failed, wall {wall_s:.1} s",
        checker.attempted, checker.failed
    );
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(checker.attempted.max(1))),
        ("failed", Value::U64(checker.failed)),
        ("metrics", Value::Map(metric_values)),
    ]);

    let mut fields = vec![
        ("workload", Value::Str(workload.into())),
        ("seed", Value::U64(seed)),
        ("seconds", num(seconds)),
        ("traced", Value::Bool(traced)),
        ("wall_s", num(wall_s)),
        ("result", line.clone()),
        (
            "violations",
            Value::Seq(checker.notes.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    let detail_value = Value::Map(
        detail
            .into_iter()
            .map(|(k, v)| (Value::Str(k), v))
            .collect(),
    );
    fields.push(("detail", detail_value));
    let detail_path = out_dir.join(format!("detail-{workload}-trace{}.json", u8::from(traced)));
    std::fs::write(&detail_path, serde::json::to_string_pretty(&obj(fields)))
        .map_err(|e| format!("write {}: {e}", detail_path.display()))?;

    println!("{}", serde::json::to_string(&line));
    Ok(correct)
}
