//! Submission body parsing: the `POST /api/v1/jobs` JSON → [`JobSpec`].
//!
//! This is the workspace's one job-entry parser: a `forge batch`
//! manifest entry is the same shape plus the manifest-only fields the
//! CLI resolves itself (`file`, `copies`, `tier`, `"fault": "hang"`)
//! before delegating here, so the two surfaces cannot disagree on what
//! a field means.
//!
//! ```json
//! {"design": "counter8", "profile": "quick", "clock_mhz": 100, "seed": 7}
//! {"source": "module m ... end", "name": "lab3", "node": 130, "deadline_ms": 60000}
//! ```
//!
//! Parsing is strict: a field of the wrong JSON type and a key this
//! parser does not know are both a named 400, never silently ignored —
//! a student whose `"clock_mhz": "fast"` or `"clock_mzh": 200` was
//! dropped would otherwise get a default-clock GDS with no warning.

use chipforge_exec::{Fault, JobSpec};
use chipforge_flow::OptimizationProfile;
use chipforge_pdk::TechnologyNode;
use serde::Value;

fn typed<'a, T>(
    body: &'a Value,
    name: &str,
    kind: &str,
    read: impl Fn(&'a Value) -> Option<T>,
) -> Result<Option<T>, String> {
    let value = body.get(name);
    if matches!(value, Value::Null) {
        return Ok(None);
    }
    read(value)
        .map(Some)
        .ok_or_else(|| format!("`{name}` must be a {kind}, got {}", value.kind()))
}

/// Every key a job body may carry; anything else is refused by name.
const KNOWN_KEYS: [&str; 9] = [
    "design",
    "source",
    "name",
    "node",
    "profile",
    "clock_mhz",
    "seed",
    "deadline_ms",
    "fault",
];

/// Parses a job submission body into a [`JobSpec`].
///
/// # Errors
///
/// Returns a message naming the offending field; the server answers
/// with it as a 400.
pub fn job_from_json(body: &Value) -> Result<JobSpec, String> {
    let Value::Map(fields) = body else {
        return Err(format!("job must be a JSON object, got {}", body.kind()));
    };
    for key in fields.iter().filter_map(|(key, _)| key.as_str()) {
        // Dropping these silently would run a different batch than the
        // manifest describes: no file to read here, one job per body,
        // and the API key — not the body — decides the tier.
        if matches!(key, "file" | "copies" | "tier") {
            return Err(format!(
                "`{key}` is a `forge batch` manifest field the hub does not take \
                 (send `source` inline; submit once per copy; the API key sets the tier)"
            ));
        }
        if !KNOWN_KEYS.contains(&key) {
            return Err(format!(
                "unknown key `{key}` (known: {})",
                KNOWN_KEYS.join(", ")
            ));
        }
    }
    let design = typed(body, "design", "string", Value::as_str)?;
    let source = typed(body, "source", "string", Value::as_str)?;
    let (name, source) = match (design, source) {
        (Some(_), Some(_)) => return Err("give `design` or `source`, not both".to_string()),
        (None, None) => {
            return Err("needs `design` (a built-in name or `gen:` spec) or `source`".to_string())
        }
        (Some(design), None) => {
            // Built-in names and generated `gen:` specs resolve
            // uniformly; an unknown design is a named 400 here, never a
            // late job failure.
            let found = chipforge_gen::resolve(design)?;
            (found.name().to_string(), found.source().to_string())
        }
        (None, Some(source)) => {
            let name = typed(body, "name", "string", Value::as_str)?
                .unwrap_or("inline")
                .to_string();
            (name, source.to_string())
        }
    };

    let node = match typed(body, "node", "number (feature nm)", Value::as_u64)? {
        None => TechnologyNode::N130,
        Some(nm) => {
            let nm = u32::try_from(nm).map_err(|_| format!("unknown node {nm} nm"))?;
            TechnologyNode::from_feature_nm(nm).ok_or_else(|| format!("unknown node {nm} nm"))?
        }
    };
    let profile = match typed(body, "profile", "string", Value::as_str)? {
        None | Some("open") => OptimizationProfile::open(),
        Some("commercial") => OptimizationProfile::commercial(),
        Some("quick") => OptimizationProfile::quick(),
        Some(other) => return Err(format!("unknown profile `{other}`")),
    };

    let mut spec = JobSpec::new(name, source, node, profile);
    if let Some(clock) = typed(body, "clock_mhz", "number", Value::as_f64)? {
        if !clock.is_finite() || clock <= 0.0 {
            return Err(format!("`clock_mhz` must be positive, got {clock}"));
        }
        spec = spec.with_clock_mhz(clock);
    }
    if let Some(seed) = typed(body, "seed", "number", Value::as_u64)? {
        spec = spec.with_seed(seed);
    }
    if let Some(deadline_ms) = typed(body, "deadline_ms", "number", Value::as_u64)? {
        spec = spec.with_deadline_ms(deadline_ms);
    }
    match typed(body, "fault", "string", Value::as_str)? {
        None => {}
        Some("panic") => spec = spec.with_fault(Fault::Panic),
        Some("transient") => spec = spec.with_fault(Fault::Transient(1)),
        Some(other) => return Err(format!("unknown fault `{other}`")),
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<JobSpec, String> {
        job_from_json(&serde::json::parse(text).expect("test body is valid JSON"))
    }

    #[test]
    fn builtin_design_by_name() {
        let spec = parse(r#"{"design": "counter8", "profile": "quick", "seed": 3}"#).expect("ok");
        assert_eq!(spec.name, "counter8");
    }

    #[test]
    fn inline_source_with_name() {
        let spec = parse(r#"{"source": "module m\nend", "name": "lab3"}"#).expect("ok");
        assert_eq!(spec.name, "lab3");
    }

    #[test]
    fn wrong_typed_fields_are_named_errors() {
        assert!(parse(r#"{"design": "counter8", "clock_mhz": "fast"}"#)
            .unwrap_err()
            .contains("clock_mhz"));
        assert!(parse(r#"{"design": "counter8", "node": "x"}"#)
            .unwrap_err()
            .contains("node"));
        assert!(parse(r#"{"design": 42}"#).unwrap_err().contains("design"));
        assert!(parse("[1]").unwrap_err().contains("object"));
    }

    #[test]
    fn unknown_design_and_profile_are_errors() {
        assert!(parse(r#"{"design": "mystery"}"#)
            .unwrap_err()
            .contains("mystery"));
        assert!(parse(r#"{"design": "counter8", "profile": "turbo"}"#)
            .unwrap_err()
            .contains("turbo"));
    }

    #[test]
    fn unknown_keys_are_refused_by_name() {
        // The kernels are not selectable: a body that names one must not
        // silently run the production kernel instead.
        for (body, key) in [
            (r#"{"design": "counter8", "placer": "anneal"}"#, "placer"),
            (r#"{"design": "counter8", "router": "maze"}"#, "router"),
            (r#"{"design": "counter8", "clock_mzh": 200}"#, "clock_mzh"),
        ] {
            let error = parse(body).unwrap_err();
            assert!(error.contains(&format!("unknown key `{key}`")), "{error}");
            assert!(error.contains("clock_mhz"), "lists the known keys: {error}");
        }
        let every_known = r#"{"source": "module m\nend", "name": "lab3", "node": 130,
            "profile": "quick", "clock_mhz": 50, "seed": 3, "deadline_ms": 1000,
            "fault": "panic"}"#;
        parse(every_known).expect("every known key is accepted");
    }

    #[test]
    fn manifest_only_fields_and_bad_clocks_are_named_errors() {
        // What `forge batch` resolves locally has no meaning on the
        // wire; dropping it would run a different batch than asked for.
        assert!(parse(r#"{"design": "counter8", "copies": 2}"#)
            .unwrap_err()
            .contains("`copies`"));
        assert!(parse(r#"{"file": "lab3.fhdl"}"#)
            .unwrap_err()
            .contains("`file`"));
        assert!(parse(r#"{"design": "counter8", "tier": "advanced"}"#)
            .unwrap_err()
            .contains("`tier`"));
        for clock in ["0", "-5"] {
            let body = format!(r#"{{"design": "counter8", "clock_mhz": {clock}}}"#);
            assert!(parse(&body).unwrap_err().contains("clock_mhz"), "{clock}");
        }
    }

    #[test]
    fn gen_specs_resolve_like_builtin_names() {
        let spec = parse(r#"{"design": "gen:dsp/fir?width=16&taps=8&seed=3"}"#).expect("ok");
        assert_eq!(spec.name, "gen_dsp_fir_w16_d8_u1_s3");
        assert!(spec.source.contains("module gen_dsp_fir_w16_d8_u1_s3"));
        // A malformed spec is a named 400, not a late job failure.
        assert!(parse(r#"{"design": "gen:dsp/iir"}"#)
            .unwrap_err()
            .contains("iir"));
        assert!(parse(r#"{"design": "gen:dsp/fir?width=999"}"#)
            .unwrap_err()
            .contains("width"));
    }
}
