//! `run-all` — every workload in a fresh child process, untraced for
//! the end-to-end numbers and traced for the per-layer ones, into one
//! result file — and `compare`, which judges one result file against
//! another by the bounds in `BENCHMARK.json`.

use crate::common::{num, num_seq, obj};
use crate::manifest::{self, WORKLOADS};
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// Seconds one run measures for; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

fn stdout_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What a result must share with another to be comparable with it.
fn header(seed: u64, seconds: f64, runs: u64) -> Value {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    obj(vec![
        ("nproc", Value::Str(stdout_of("nproc", &["--all"]))),
        ("available_parallelism", Value::U64(parallelism)),
        ("rustc", Value::Str(stdout_of("rustc", &["--version"]))),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "git_rev",
            Value::Str(stdout_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::U64(seed)),
        ("seconds", num(seconds)),
        ("runs", Value::U64(runs)),
    ])
}

/// One child process: one workload, one seed, traced or not. Returns
/// the result line it printed last, or why there is none.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    serde::json::parse(line).map_err(|e| format!("{workload}: result line is not JSON: {e}"))
}

/// A named field of the detail file the last child of `workload` wrote.
fn detail_field(workload: &str, traced: bool, field: &str) -> Option<f64> {
    let path = format!(
        "{}/detail-{workload}-trace{}.json",
        crate::OUT_DIR,
        u8::from(traced)
    );
    let text = std::fs::read_to_string(path).ok()?;
    serde::json::parse(&text)
        .ok()?
        .get("detail")
        .get(field)
        .as_f64()
}

pub fn run_all(args: &[String]) -> Result<bool, String> {
    let seed: u64 = crate::flag(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = crate::flag(args, "--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let runs: u64 = crate::flag(args, "--runs")?.unwrap_or(1).max(1);
    let out: String =
        crate::flag(args, "--out")?.unwrap_or_else(|| format!("{}/result.json", crate::OUT_DIR));
    let mut all_correct = true;
    let mut workloads: Vec<(Value, Value)> = Vec::new();
    for workload in WORKLOADS {
        // Untraced runs, one per seed, give the end-to-end numbers.
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        for run in 0..runs {
            let line = child(workload.name, seed + run, seconds, false)?;
            all_correct &= matches!(line.get("correct"), Value::Bool(true));
            attempted += line.get("attempted").as_u64().unwrap_or(0);
            failed += line.get("failed").as_u64().unwrap_or(0);
            for metric in manifest::END_TO_END {
                let value = line.get("metrics").get(metric.name).get("value").as_f64();
                values
                    .entry(metric.name.into())
                    .or_default()
                    .push(value.ok_or_else(|| {
                        format!(
                            "{}: `{}` missing from the result",
                            workload.name, metric.name
                        )
                    })?);
            }
        }
        let untraced_s = detail_field(workload.name, false, "measured_s");
        // One traced run gives the per-layer numbers; its slowdown
        // against the last untraced run is the tracing overhead.
        let traced = child(workload.name, seed, seconds, true)?;
        all_correct &= matches!(traced.get("correct"), Value::Bool(true));
        let overhead = match (detail_field(workload.name, true, "measured_s"), untraced_s) {
            (Some(traced_s), Some(untraced_s)) if untraced_s > 0.0 => traced_s / untraced_s - 1.0,
            _ => f64::NAN,
        };

        eprintln!(
            "\n== {} ({} of {attempted} operations failed)",
            workload.name, failed
        );
        for metric in manifest::END_TO_END {
            let v = &values[metric.name];
            let [q1, q2, q3] = stats::quartiles(v);
            eprintln!(
                "{:<14} median {q2:>12.4} {:<7} quartiles {q1:.4} .. {q3:.4}  spread {:.1} % of bound {:.0} %",
                metric.name,
                metric.unit,
                100.0 * stats::spread(v),
                100.0 * metric.bound.unwrap_or(0.0)
            );
        }
        eprintln!("trace_overhead_share {overhead:.4}");
        workloads.push((
            Value::Str(workload.name.into()),
            obj(vec![
                ("attempted", Value::U64(attempted)),
                ("failed", Value::U64(failed)),
                ("failed_share", num(failed as f64 / attempted.max(1) as f64)),
                (
                    "end_to_end",
                    Value::Map(
                        values
                            .iter()
                            .map(|(name, v)| (Value::Str(name.clone()), num_seq(v)))
                            .collect(),
                    ),
                ),
                ("per_layer", traced.get("metrics").clone()),
                ("trace_overhead_share", num(overhead)),
            ]),
        ));
    }
    let result = obj(vec![
        ("header", header(seed, seconds, runs)),
        ("workloads", Value::Map(workloads)),
    ]);
    std::fs::write(&out, serde::json::to_string_pretty(&result))
        .map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("\nresult written to {out}");
    Ok(all_correct)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Judges `new` against `base` for one metric on one workload; run `i`
/// of both used the same seed, so the runs pair up.
///
/// Regressed: the median got worse by more than `bound` (a share of the
/// base median). Unresolved: either side's run-to-run spread is wider
/// than the bound, so the medians prove nothing — unless every new run
/// reads better than every base run. Improved: the new run wins at
/// least nine tenths of the pairs (ties counting for neither side) and
/// the median got better by more than the distance between the base's
/// own quartiles.
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (base_median, new_median) = (stats::median(base), stats::median(new));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (new_median - base_median) / base_median.abs();
    let better = |n: f64, b: f64| sign * (n - b) < 0.0;
    let every_run_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    if stats::spread(base).max(stats::spread(new)) > bound {
        return if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let pairs = || base.iter().zip(new);
    let wins = pairs().filter(|(&b, &n)| better(n, b)).count();
    let losses = pairs().filter(|(&b, &n)| better(b, n)).count();
    if worse_by > bound {
        Verdict::Regressed
    } else if wins * 10 >= (wins + losses) * 9 && wins > 0 && -worse_by > stats::spread(base) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Name → (lower is better, bound) of every end-to-end metric, from
/// `BENCHMARK.json` in the current directory.
fn bounds() -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest =
        serde::json::parse(&text).map_err(|e| format!("BENCHMARK.json is not JSON: {e}"))?;
    manifest
        .get("end_to_end")
        .seq()
        .map_err(|_| "BENCHMARK.json: `end_to_end` is not a list".to_string())?
        .iter()
        .map(|entry| {
            let field = |key: &str| entry.get(key).as_str().map(str::to_string);
            match (field("name"), field("better"), entry.get("bound").as_f64()) {
                (Some(name), Some(better), Some(bound)) => Ok((name, (better == "lower", bound))),
                _ => Err("BENCHMARK.json: an end-to-end metric lacks name, better or bound".into()),
            }
        })
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde::json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))
}

fn numbers(value: &Value) -> Vec<f64> {
    value
        .seq()
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

pub fn compare(args: &[String]) -> Result<bool, String> {
    let [base_path, new_path] = args else {
        return Err("compare needs two result files".into());
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    for field in [
        "nproc",
        "available_parallelism",
        "profile",
        "seed",
        "seconds",
        "runs",
    ] {
        let (a, b) = (base.get("header").get(field), new.get("header").get(field));
        if a != b {
            return Err(format!(
                "the results are not comparable: `{field}` is {} in {base_path} and {} in {new_path}",
                serde::json::to_string(a),
                serde::json::to_string(b)
            ));
        }
    }
    let bounds = bounds()?;
    println!(
        "{:<16} {:<12} {:>34} {:>34} {:>7}  verdict",
        "workload", "metric", "base median [q1 .. q3]", "new median [q1 .. q3]", "bound"
    );
    let mut clean = true;
    for workload in WORKLOADS {
        for (metric, (lower_is_better, bound)) in &bounds {
            let values = |result: &Value| {
                numbers(
                    result
                        .get("workloads")
                        .get(workload.name)
                        .get("end_to_end")
                        .get(metric),
                )
            };
            let (a, b) = (values(&base), values(&new));
            if a.is_empty() || b.is_empty() {
                return Err(format!(
                    "`{metric}` on `{}` is missing from a result",
                    workload.name
                ));
            }
            let verdict = verdict(&a, &b, *lower_is_better, *bound);
            clean &= matches!(verdict, Verdict::Improved | Verdict::Unchanged);
            let cell = |v: &[f64]| {
                let [q1, q2, q3] = stats::quartiles(v);
                format!("{q2:.4} [{q1:.4} .. {q3:.4}]")
            };
            println!(
                "{:<16} {:<12} {:>34} {:>34} {:>6.0}%  {}",
                workload.name,
                metric,
                cell(&a),
                cell(&b),
                bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bounds() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = true;
        // Within the bound either way: unchanged.
        assert_eq!(
            verdict(&base, &[103.0, 104.0, 102.0], lower, 0.05),
            Verdict::Unchanged
        );
        // Worse by more than the bound: regressed.
        assert_eq!(
            verdict(&base, &[110.0, 111.0, 109.0], lower, 0.05),
            Verdict::Regressed
        );
        // Better by more than the base's own quartile distance: improved.
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.0], lower, 0.05),
            Verdict::Improved
        );
        // For a higher-is-better metric the same numbers read the other way.
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.0], false, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[110.0, 111.0, 109.0], false, 0.05),
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict(&noisy, &[95.0, 105.0, 100.0], true, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[70.0, 75.0, 72.0], true, 0.05),
            Verdict::Improved
        );
        // Better in the median but losing every other pair: no gain.
        let base = [100.0, 100.2, 99.8, 100.1, 99.9];
        let mixed = [98.0, 101.0, 97.9, 101.0, 98.1];
        assert_eq!(verdict(&base, &mixed, true, 0.05), Verdict::Unchanged);
        // Single runs have no spread: the medians decide.
        assert_eq!(verdict(&[100.0], &[102.0], true, 0.05), Verdict::Unchanged);
        assert_eq!(verdict(&[100.0], &[120.0], true, 0.05), Verdict::Regressed);
    }
}
