//! The kernels are not a choice. End to end through the `forge` binary
//! and a loopback hub: stage spans name the analytic placer and the
//! Steiner router, every surface that used to select a kernel (`forge
//! run --placer/--router`, `placer`/`router` in a manifest entry or a
//! hub job body) refuses by name instead of silently running the
//! production kernel, and the production kernels hold their one-sided
//! parity bands against the reference kernels on the 18 designs the
//! benchmark's `flow_cold` workload flows.

use chipforge::obs;
use chipforge::serve::{Client, Hub, HubConfig, KeyRegistry, Server};
use std::path::PathBuf;
use std::process::{Command, Output};

fn forge() -> Command {
    Command::new(env!("CARGO_BIN_EXE_forge"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chipforge-kernels-{}-{name}", std::process::id()))
}

/// Runs `forge batch` on a manifest with the given `jobs` array text.
fn batch(name: &str, jobs: &str) -> Output {
    let manifest = temp_path(name);
    std::fs::write(&manifest, format!(r#"{{"jobs": {jobs}}}"#)).expect("write manifest");
    let output = forge()
        .args(["batch", manifest.to_str().unwrap(), "--workers", "1"])
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&manifest).ok();
    output
}

#[test]
fn run_spans_name_the_selected_kernels() {
    let out = temp_path("run.json");
    let output = forge()
        .args(["run", "counter8", "--profile", "quick", "--trace"])
        .arg(&out)
        .output()
        .expect("forge run executes");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("trace file written");
    std::fs::remove_file(&out).ok();
    let trace = obs::parse_chrome_json(&text).expect("valid Chrome trace JSON");
    let detail = |name: &str| {
        &trace
            .spans
            .iter()
            .find(|s| s.category == "flow" && s.name == name)
            .unwrap_or_else(|| panic!("missing flow span `{name}`"))
            .detail
    };
    let (place, route) = (detail("place"), detail("route"));
    assert!(place.contains("analytic kernel"), "place detail: {place}");
    assert!(route.contains("steiner kernel"), "route detail: {route}");
}

/// `--placer` / `--router` are gone: any value, even the name of the
/// kernel that runs anyway, is the ordinary unknown-flag exit 2.
#[test]
fn unknown_kernel_names_exit_two_naming_the_flag() {
    for (flag, value) in [
        ("--placer", "analytic"),
        ("--placer", "anneal"),
        ("--router", "steiner"),
        ("--router", "carrier-pigeon"),
    ] {
        let output = forge()
            .args(["run", "counter8", flag, value])
            .output()
            .expect("forge run executes");
        assert_eq!(output.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(flag), "stderr names the flag: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "no flow may run: {}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}

/// A manifest entry naming a kernel is refused at parse time, naming
/// the entry and the key, before any job runs — `"placer": "anneal"`
/// must not quietly become an analytic run.
#[test]
fn manifest_unknown_kernel_exits_two_at_parse_time() {
    for (key, value) in [
        ("placer", r#""anneal""#),
        ("placer", "7"),
        ("router", r#""steiner""#),
    ] {
        let output = batch(
            "bad-kernel.json",
            &format!(
                r#"[{{"design": "counter8", "profile": "quick"}},
                    {{"design": "gray8", "profile": "quick", "{key}": {value}}}]"#
            ),
        );
        assert_eq!(output.status.code(), Some(2), "{key}: {value}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("job 2"), "stderr names the entry: {stderr}");
        assert!(
            stderr.contains(&format!("unknown key `{key}`")),
            "stderr names the key: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            !stdout.contains("counter8"),
            "no job may run before the manifest validates: {stdout}"
        );
    }
}

/// The same refusal for any key the parser does not know: a misspelt
/// `clock_mzh` used to run at the default clock without a word. The
/// manifest's own keys (`copies`, `tier`) still load.
#[test]
fn misspelt_manifest_keys_exit_two_instead_of_running_defaults() {
    let output = batch(
        "misspelt.json",
        r#"[{"design": "counter8", "profile": "quick", "clock_mzh": 200}]"#,
    );
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("job 1") && stderr.contains("unknown key `clock_mzh`"),
        "stderr names the entry and the key: {stderr}"
    );
    assert!(
        stderr.contains("clock_mhz"),
        "and lists the known ones: {stderr}"
    );

    let output = batch(
        "manifest-keys.json",
        r#"[{"design": "counter8", "profile": "quick", "clock_mhz": 200,
             "seed": 3, "copies": 2, "tier": "advanced", "deadline_ms": 60000}]"#,
    );
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// Over the socket: a job body carrying `placer`, `router` or any other
/// unknown key is a 400 that names it.
#[test]
fn hub_refuses_kernel_fields_and_unknown_keys_by_name() {
    let hub = Hub::new(HubConfig {
        workers: 1,
        ..HubConfig::default()
    })
    .expect("hub without a journal starts");
    let server =
        Server::start(hub, KeyRegistry::demo(), "127.0.0.1:0").expect("ephemeral port binds");
    let client = Client::new(server.addr().to_string(), "demo-beginner");
    for key in ["placer", "router", "clock_mzh"] {
        let body = format!(r#"{{"design": "counter8", "profile": "quick", "{key}": "anneal"}}"#);
        let refused = client
            .submit(&body)
            .expect("hub reachable")
            .expect_err("unknown key must be refused");
        assert_eq!(refused.status, 400, "{key}");
        let error = refused.body.get("error").as_str().unwrap_or_default();
        assert!(error.contains(&format!("unknown key `{key}`")), "{error}");
    }
    let accepted = client
        .submit(r#"{"design": "counter8", "profile": "quick", "seed": 3}"#)
        .expect("hub reachable");
    assert!(accepted.is_ok(), "a body of known keys is still accepted");
    server.shutdown();
}

/// The tier-1 parity gate: what the deleted selection surface used to
/// let CI compare by hand. `check_parity` panics, naming the design
/// and the figure, when a one-sided band is broken.
#[test]
fn production_kernels_hold_parity_with_the_references_on_the_flow_cold_designs() {
    let specs = chipforge_bench::parity::parity_specs();
    assert_eq!(specs.len(), 18);
    for spec in &specs {
        let row = chipforge_bench::parity::check_parity(spec);
        assert_eq!(row.overflow.0, 0, "{}: steiner overflows", row.design);
    }
}
