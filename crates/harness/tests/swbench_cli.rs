//! `swbench`-level integration tests of the typed experiment API: the
//! `describe` catalogue and the fail-before-anything-runs error paths
//! (unknown knob, ill-typed value, unknown workload param, duplicate
//! axis), each with its did-you-mean suggestion. These drive the real
//! binary, so they cover arg parsing, sweep validation, and exit codes
//! end to end — without executing a single scenario.

use std::process::{Command, Output};

fn swbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_swbench"))
        .args(args)
        .output()
        .expect("run swbench")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn describe_lists_every_knob_and_workload_with_types_and_defaults() {
    let out = swbench(&["describe"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every CloudConfig knob, with type and default visible.
    for knob in stopwatch_core::config::CloudConfig::knobs() {
        assert!(stdout.contains(knob.key), "knob {} missing", knob.key);
    }
    assert!(
        stdout.contains("offset_ms"),
        "knob types missing:\n{stdout}"
    );
    assert!(stdout.contains("rotating|ssd"), "enum type missing");
    assert!(stdout.contains("50:100"), "broadcast_band default missing");
    // Every registered workload, with params, types and defaults.
    for name in workloads::registry::workload_names() {
        assert!(stdout.contains(&name), "workload {name} missing");
    }
    assert!(stdout.contains("bytes"), "web params missing");
    assert!(stdout.contains("100000"), "bytes default missing");
    assert!(stdout.contains("gap_ms"), "attack params missing");
    assert!(stdout.contains("(no parameters)"), "idle/parsec marker");
}

#[test]
fn describe_lists_workloads_alphabetically() {
    let out = swbench(&["describe"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The catalogue must not depend on registration/link order: workload
    // headers appear sorted by name.
    let mut names = workloads::registry::workload_names();
    names.sort();
    let positions: Vec<usize> = names
        .iter()
        .map(|n| {
            stdout
                .find(&format!("\n{n} "))
                .unwrap_or_else(|| panic!("workload {n} missing from describe"))
        })
        .collect();
    let mut sorted = positions.clone();
    sorted.sort_unstable();
    assert_eq!(positions, sorted, "describe order is not alphabetical");
}

#[test]
fn describe_lists_channel_kinds_per_workload() {
    let out = swbench(&["describe", "disk-channel"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("channels: net, disk"),
        "disk-channel names its timing channels:\n{stdout}"
    );
    let out = swbench(&["describe", "cache-channel"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("channels: net, cache"),
        "cache-channel names its timing channels:\n{stdout}"
    );
    let out = swbench(&["describe", "timer-channel"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("channels: net, timer"),
        "timer-channel names the timer channel:\n{stdout}"
    );
    let out = swbench(&["describe", "idle"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("channels: (none)"),
        "idle exercises no timing channel:\n{stdout}"
    );
    // The full catalogue carries a channels line for every workload.
    let out = swbench(&["describe"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let workloads = workloads::registry::workload_names().len();
    assert_eq!(
        stdout.matches("channels: ").count(),
        workloads,
        "one channels line per workload:\n{stdout}"
    );
}

#[test]
fn describe_lists_every_defense_arm_with_its_knobs() {
    let out = swbench(&["describe"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Defense arms"),
        "defenses section missing:\n{stdout}"
    );
    // Every registered arm, in alphabetical order, with its knob keys.
    let mut names = vmm::defense::arm_names();
    names.sort_unstable();
    let positions: Vec<usize> = names
        .iter()
        .map(|n| {
            stdout
                .find(&format!("\n{n} "))
                .unwrap_or_else(|| panic!("defense arm {n} missing from describe"))
        })
        .collect();
    let mut sorted = positions.clone();
    sorted.sort_unstable();
    assert_eq!(positions, sorted, "defense arms are not alphabetical");
    // The knob cross-references point at real CloudConfig knobs.
    assert!(stdout.contains("epoch_ms"), "deterland knob missing");
    assert!(stdout.contains("bucket_ns"), "bucketed knob missing");
    assert!(stdout.contains("knobs: (none)"), "baseline reads no knobs");
    // And the defense knob itself advertises the registry as its type.
    assert!(
        stdout.contains("baseline|bucketed|deterland|stopwatch"),
        "defense knob enum missing:\n{stdout}"
    );
}

#[test]
fn retired_stopwatch_flag_and_axis_point_at_the_defense_knob() {
    let out = swbench(&["sweep", "--workload", "web-http", "--stopwatch", "false"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown flag"), "{}", stderr(&out));
    let out = swbench(&[
        "sweep",
        "--workload",
        "web-http",
        "--axis",
        "stopwatch=false,true",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("cfg.defense"), "migration hint missing: {err}");
}

#[test]
fn describe_one_workload_and_suggest_on_typo() {
    let out = swbench(&["describe", "nfs"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rate"), "{stdout}");
    assert!(stdout.contains("ops"), "{stdout}");
    let out = swbench(&["describe", "nfss"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("did you mean \"nfs\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_knob_axis_fails_before_any_scenario_with_suggestion() {
    let out = swbench(&[
        "sweep",
        "--workload",
        "web-http",
        "--axis",
        "cfg.delta_q_ms=1,2",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("cfg.delta_q_ms"), "{err}");
    assert!(err.contains("did you mean \"delta_n_ms\""), "{err}");
    assert!(
        !err.contains("scenarios on"),
        "ran scenarios despite typo: {err}"
    );
}

#[test]
fn ill_typed_knob_value_fails_fast() {
    let out = swbench(&["sweep", "--workload", "web-http", "--set", "replicas=three"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("replicas"), "{err}");
    assert!(err.contains("three"), "{err}");
}

#[test]
fn unknown_workload_param_gets_cross_layer_or_nearest_suggestion() {
    // A bare knob key used as a workload param → points at cfg.<key>.
    let out = swbench(&["sweep", "--workload", "web-http", "--axis", "delta_n_ms=4"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cfg.delta_n_ms"), "{}", stderr(&out));
    // A near-miss of a real param → nearest-key suggestion.
    let out = swbench(&["sweep", "--workload", "web-http", "--param", "byts=10"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("did you mean \"bytes\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_workload_name_suggests_nearest() {
    let out = swbench(&["sweep", "--workload", "web-htp"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("did you mean \"web-http\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn duplicate_axis_keys_are_rejected() {
    let out = swbench(&[
        "sweep",
        "--workload",
        "web-http",
        "--axis",
        "bytes=1",
        "--axis",
        "bytes=2",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("duplicate --axis"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn threads_zero_fails_with_the_fix_spelled_out_everywhere() {
    for args in [
        &["run", "delta-n", "--quick", "--threads", "0"][..],
        &["sweep", "--workload", "web-http", "--threads", "0"][..],
        &["perf", "delta-n", "--threads", "0"][..],
    ] {
        let out = swbench(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(err.contains("--threads 0"), "{args:?}: {err}");
        assert!(err.contains("omit the flag"), "{args:?}: {err}");
    }
}

#[test]
fn help_documents_the_threads_zero_rejection() {
    // The docs/behavior contract for RunnerOptions::effective_threads:
    // the API-level 0 means "all cores", but the CLI rejects an explicit
    // `--threads 0` — and `swbench help` must say so, spelling out both
    // the rejection and the fix.
    let out = swbench(&["help"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The fine print is line-wrapped; compare against the unwrapped text.
    let flat = stdout.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(flat.contains("--threads 0"), "{stdout}");
    assert!(flat.contains("rejected"), "{stdout}");
    assert!(flat.contains("omit the flag"), "{stdout}");
}

#[test]
fn perf_with_no_bench_lists_the_registry() {
    let out = swbench(&["perf"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("delta-n"), "{stdout}");
    assert!(stdout.contains("packet-storm"), "{stdout}");
    assert!(stdout.contains("timer-storm"), "{stdout}");
}

#[test]
fn perf_writes_bench_json_and_gates_against_it() {
    let dir = std::env::temp_dir().join("swbench_perf_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = dir.join("BENCH_packet-storm.json");
    let report_s = report.to_str().unwrap();

    // One quick pass produces a schema-versioned report.
    let out = swbench(&[
        "perf",
        "packet-storm",
        "--quick",
        "--repeats",
        "1",
        "--warmup",
        "0",
        "--out",
        report_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(
        json.contains(&format!(
            "\"schema_version\": {}",
            harness::perf::BENCH_SCHEMA_VERSION
        )),
        "{json}"
    );
    assert!(json.contains("\"bench\": \"packet-storm\""), "{json}");
    assert!(json.contains("\"events_per_sec\""), "{json}");
    assert!(json.contains("\"setup_ms\""), "v2 phase split: {json}");
    assert!(json.contains("\"run_ms\""), "v2 phase split: {json}");

    // Gating against itself passes (a run never regresses vs itself)...
    let out = swbench(&[
        "perf",
        "packet-storm",
        "--quick",
        "--repeats",
        "1",
        "--warmup",
        "0",
        "--out",
        dir.join("BENCH_again.json").to_str().unwrap(),
        "--baseline",
        report_s,
        "--max-regress",
        "0.99",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("perf gate ok"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // ...and an impossible baseline fails the gate with a clear verdict.
    let inflated = json.replace(
        "\"events_per_sec_best\": ",
        "\"events_per_sec_best\": 99999999999.0, \"was\": ",
    );
    let fast = dir.join("BENCH_fast.json");
    std::fs::write(&fast, inflated).expect("write inflated baseline");
    let out = swbench(&[
        "perf",
        "packet-storm",
        "--quick",
        "--repeats",
        "1",
        "--warmup",
        "0",
        "--out",
        dir.join("BENCH_again2.json").to_str().unwrap(),
        "--baseline",
        fast.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "inflated baseline must gate-fail");
    assert!(
        stderr(&out).contains("throughput regression"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn seeds_zero_fails_with_the_fix_spelled_out() {
    let out = swbench(&["sweep", "--workload", "web-http", "--seeds", "0"]);
    assert!(!out.status.success(), "--seeds 0 must fail");
    let err = stderr(&out);
    assert!(err.contains("--seeds 0"), "{err}");
    assert!(err.contains("N >= 1"), "{err}");
    assert!(!err.contains("scenarios on"), "ran scenarios: {err}");
}

#[test]
fn figure_all_writes_every_analytic_csv() {
    let dir = std::env::temp_dir().join(format!("swbench_figure_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = swbench(&["figure", "all", "--out", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("output dir")
        .map(|e| e.expect("entry").file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(
        written,
        [
            "fig1a_lambda_0.500.csv",
            "fig1a_lambda_0.909.csv",
            "fig1b_detect.csv",
            "fig1c_detect.csv",
            "fig8a_noise.csv",
            "fig8b_noise.csv",
            "placement_greedy.csv",
            "placement_theorem1.csv",
            "placement_theorem2.csv",
        ]
    );
    let detect = std::fs::read_to_string(dir.join("fig1b_detect.csv")).unwrap();
    assert!(
        detect.starts_with("confidence,obs_with_stopwatch,obs_without\n0.70,"),
        "{detect}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_figure_lists_the_valid_names() {
    let out = swbench(&["figure", "fig4"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("\"fig4\""), "{err}");
    assert!(err.contains("fig1, fig8, placement, all"), "{err}");
}
