//! The names the harness emits — workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics — and the check that
//! `BENCHMARK.json` lists exactly these.

use serde::Value;
use std::collections::BTreeSet;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "flow_cold",
        why: "18 generated designs through Pipeline::run on one thread, nothing cached: only the kernels work, so a kernel change shows undiluted and a scheduler change must not show",
    },
    Workload {
        name: "batch_classroom",
        why: "36 jobs (24 distinct, 12 duplicates) saturate a fresh BatchEngine: dispatch, worker use, both cache levels and in-batch duplicates decide throughput; exec meets the kernels",
    },
    Workload {
        name: "hub_open_loop",
        why: "open loop of 30 jobs/s in three tiers against a loopback hub over real sockets: small jobs make HTTP, admission, per-job engines and polling most of the wait; queueing shows in the tail",
    },
    Workload {
        name: "sweep_publish",
        why: "a 32-job clock/profile sweep computed once and every stage published to a loopback hub: the cache layers are written over the wire, a gain for restores that costs stores shows here",
    },
    Workload {
        name: "sweep_fetch",
        why: "the same sweep restored by a fresh engine with empty local tiers from the warm hub: pure reads over the wire, no kernel runs, so kernel changes must not show",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// Every workload emits every one of these from its untraced run.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("job_p50_ms", "ms", "lower", 0.25),
    e2e("job_p90_ms", "ms", "lower", 0.25),
    e2e("jobs_per_s", "jobs/s", "higher", 0.15),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Every workload emits every one of these from its traced run; a layer
/// the workload never enters reads 0.
pub const PER_LAYER: &[Metric] = &[
    // The flow and its kernels: mean wall per flow that ran the stage.
    layer("gen.resolve_ms", "ms", "lower"),
    layer("pdk.library_ms", "ms", "lower"),
    layer("hdl.elaborate_ms", "ms", "lower"),
    layer("synth.synthesize_ms", "ms", "lower"),
    layer("flow.size_ms", "ms", "lower"),
    layer("place.place_ms", "ms", "lower"),
    layer("flow.cts_ms", "ms", "lower"),
    layer("route.route_ms", "ms", "lower"),
    layer("flow.signoff_ms", "ms", "lower"),
    layer("layout.export_ms", "ms", "lower"),
    // The opaque signoff stage, split by re-invoking its parts.
    layer("sta.analyze_ms", "ms", "lower"),
    layer("power.estimate_ms", "ms", "lower"),
    layer("layout.build_ms", "ms", "lower"),
    layer("layout.drc_ms", "ms", "lower"),
    layer("verify.ec_ms", "ms", "lower"),
    layer("flow.unaccounted_ms", "ms", "lower"),
    layer("flow.unaccounted_share", "ratio", "lower"),
    layer("flow.cells_total", "count", "lower"),
    layer("flow.snapshot_json_bytes", "bytes", "lower"),
    layer("route.overflowed_edges", "count", "lower"),
    layer("verify.ec_proven_share", "ratio", "higher"),
    layer("obs.tracer_overhead_share", "ratio", "lower"),
    layer("obs.spans_per_flow", "count", "lower"),
    // The batch engine.
    layer("exec.queue_wait_mean_ms", "ms", "lower"),
    layer("exec.run_mean_ms", "ms", "lower"),
    layer("exec.compute_mean_ms", "ms", "lower"),
    layer("exec.job_overhead_ms", "ms", "lower"),
    layer("exec.worker_utilization", "ratio", "higher"),
    layer("exec.pool_speedup", "ratio", "higher"),
    layer("exec.artifact_hit_share", "ratio", "higher"),
    layer("exec.stage_hit_share", "ratio", "higher"),
    layer("exec.full_restores", "count", "higher"),
    layer("exec.duplicate_computes", "count", "lower"),
    layer("exec.steals", "count", "lower"),
    layer("exec.retries", "count", "lower"),
    layer("exec.cache_key_us", "us", "lower"),
    layer("exec.artifact_lookup_us", "us", "lower"),
    layer("exec.stage_store_us", "us", "lower"),
    layer("exec.stage_load_us", "us", "lower"),
    layer("exec.stage_store_disk_us", "us", "lower"),
    layer("exec.stage_load_disk_us", "us", "lower"),
    layer("resil.journal_append_us", "us", "lower"),
    layer("resil.checksum_mb_per_s", "MB/s", "higher"),
    // The hub.
    layer("serve.submit_rtt_p50_ms", "ms", "lower"),
    layer("serve.status_rtt_p50_ms", "ms", "lower"),
    layer("serve.queue_wait_p50_ms", "ms", "lower"),
    layer("serve.queue_wait_p95_ms", "ms", "lower"),
    layer("serve.service_p50_ms", "ms", "lower"),
    layer("serve.service_p95_ms", "ms", "lower"),
    layer("serve.flow_p50_ms", "ms", "lower"),
    layer("serve.service_overhead_p50_ms", "ms", "lower"),
    layer("serve.notify_lag_p50_ms", "ms", "lower"),
    layer("serve.polls_per_job", "count", "lower"),
    layer("serve.connections_per_job", "count", "lower"),
    layer("serve.worker_utilization", "ratio", "lower"),
    layer("serve.cache_hit_share", "ratio", "higher"),
    layer("serve.rejected_share", "ratio", "lower"),
    layer("serve.generator_lateness_p95_ms", "ms", "lower"),
    layer("serve.turnaround_p50_ms.beginner", "ms", "lower"),
    layer("serve.turnaround_p50_ms.intermediate", "ms", "lower"),
    layer("serve.turnaround_p50_ms.advanced", "ms", "lower"),
    layer("serve.http_read_request_us", "us", "lower"),
    layer("serve.http_write_response_us", "us", "lower"),
    layer("admit.shed", "count", "lower"),
    layer("admit.rejected", "count", "lower"),
    // The remote stage-cache tier.
    layer("remote.fetch_p50_ms", "ms", "lower"),
    layer("remote.publish_p50_ms", "ms", "lower"),
    layer("remote.round_trips_per_job", "count", "lower"),
    layer("remote.bytes_per_snapshot", "bytes", "lower"),
    layer("remote.hits", "count", "higher"),
    layer("remote.misses", "count", "lower"),
    layer("remote.stores", "count", "lower"),
    layer("remote.retries", "count", "lower"),
    layer("remote.timeouts", "count", "lower"),
    layer("remote.warm_vs_local_cold_ratio", "ratio", "lower"),
    layer("serve.cache_get_us", "us", "lower"),
    layer("serve.cache_put_us", "us", "lower"),
    // Across layers: how much of the operations' time is scheduler and
    // service rather than kernels.
    layer("bench.exec_serve_self_share", "ratio", "lower"),
    // Peak resident set of the traced run's process. No bound: with a
    // fresh pool of worker threads per repetition the allocator's arenas
    // make it spread by a third from run to run.
    layer("bench.peak_rss_mb", "MB", "lower"),
];

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names_of(manifest: &Value, key: &str) -> Result<Vec<String>, String> {
    manifest
        .get(key)
        .seq()
        .map_err(|_| format!("BENCHMARK.json: `{key}` is not a list"))?
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry has no name"))
        })
        .collect()
}

/// Compares the names, units, directions and bounds `BENCHMARK.json`
/// lists with the ones this harness emits. Returns every mismatch.
pub fn check_names(manifest: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let sections: [(&str, Vec<&str>, usize); 3] = [
        ("workloads", WORKLOADS.iter().map(|w| w.name).collect(), 8),
        (
            "end_to_end",
            END_TO_END.iter().map(|m| m.name).collect(),
            16,
        ),
        ("per_layer", PER_LAYER.iter().map(|m| m.name).collect(), 128),
    ];
    let mut seen = BTreeSet::new();
    for (key, emitted, limit) in sections {
        let listed = match names_of(manifest, key) {
            Ok(listed) => listed,
            Err(problem) => {
                problems.push(problem);
                continue;
            }
        };
        if listed.len() > limit {
            problems.push(format!(
                "`{key}` lists {} names, the limit is {limit}",
                listed.len()
            ));
        }
        for name in &listed {
            if !valid_name(name) {
                problems.push(format!("`{key}`: `{name}` is not a valid name"));
            }
            if !seen.insert(name.clone()) {
                problems.push(format!("`{name}` is used more than once"));
            }
            if !emitted.contains(&name.as_str()) {
                problems.push(format!("`{key}`: `{name}` is listed but never emitted"));
            }
        }
        for name in emitted {
            if !listed.iter().any(|l| l == name) {
                problems.push(format!("`{key}`: `{name}` is emitted but not listed"));
            }
        }
    }
    for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for entry in manifest.get(key).seq().unwrap_or(&[]) {
            let Some(metric) = entry
                .get("name")
                .as_str()
                .and_then(|n| metrics.iter().find(|m| m.name == n))
            else {
                continue;
            };
            let listed = (
                entry.get("unit").as_str(),
                entry.get("better").as_str(),
                entry.get("bound").as_f64(),
            );
            if listed != (Some(metric.unit), Some(metric.better), metric.bound) {
                problems.push(format!(
                    "`{}`: listed as {listed:?}, emitted as {:?}",
                    metric.name,
                    (metric.unit, metric.better, metric.bound)
                ));
            }
        }
    }
    if !END_TO_END.iter().any(|m| m.name == "setup_s") {
        problems.push("no `setup_s` metric".into());
    }
    problems
}

/// `BENCHMARK.json` as this harness would write it.
pub fn render(run_seconds: u64) -> String {
    use crate::common::obj;
    let text = |s: &str| Value::Str(s.into());
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better)),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Value::F64(bound)));
        }
        obj(fields)
    };
    serde::json::to_string_pretty(&obj(vec![
        (
            "command",
            Value::Seq(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(text)
                .collect(),
            ),
        ),
        ("paths", Value::Seq(vec![text("benchmark")])),
        ("run_seconds", Value::U64(run_seconds)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Seq(PER_LAYER.iter().map(metric).collect()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rendered_manifest_passes_its_own_check() {
        let manifest = serde::json::parse(&render(15)).expect("valid JSON");
        assert_eq!(check_names(&manifest), Vec::<String>::new());
    }

    #[test]
    fn a_drifted_manifest_is_reported() {
        let text = render(15)
            .replace("\"job_p90_ms\"", "\"job_p95_ms\"")
            .replace("\"sweep_fetch\"", "\"sweep fetch\"");
        let problems = check_names(&serde::json::parse(&text).expect("valid JSON"));
        assert!(problems
            .iter()
            .any(|p| p.contains("`job_p95_ms` is listed but never emitted")));
        assert!(problems
            .iter()
            .any(|p| p.contains("`job_p90_ms` is emitted but not listed")));
        assert!(problems
            .iter()
            .any(|p| p.contains("`sweep fetch` is not a valid name")));
    }

    #[test]
    fn limits_and_whys_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }
}
