//! The harness determinism contract: a sweep's JSON aggregate is
//! byte-identical regardless of runner thread count, because every
//! scenario is an isolated deterministic simulation and aggregation is a
//! pure fold in grid order.

use harness::prelude::*;
use simkit::time::SimDuration;

fn demo_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("determinism", "web-http")
        .axis("cfg.delta_n_ms", &[2u64, 10])
        .axis("cfg.defense", &["baseline", "stopwatch"])
        .seed_shards(7, 2);
    spec.base_params = vec![
        ("bytes".to_string(), "20000".to_string()),
        ("downloads".to_string(), "1".to_string()),
    ];
    spec.base_overrides = vec![
        ("broadcast_band".to_string(), "off".to_string()),
        ("disk".to_string(), "ssd".to_string()),
    ];
    spec.duration = SimDuration::from_secs(60);
    spec
}

fn sweep_json(threads: usize) -> String {
    sweep_json_mode(threads, false)
}

fn sweep_json_mode(threads: usize, scalar_reference: bool) -> String {
    let mut spec = demo_spec();
    spec.scalar_reference = scalar_reference;
    let scenarios = spec.scenarios().expect("spec expands");
    assert_eq!(scenarios.len(), 8, "2 x 2 grid x 2 seeds");
    let outcomes = run_scenarios(
        &scenarios,
        &RunnerOptions {
            threads,
            progress: false,
        },
    );
    SweepReport::from_outcomes(&spec.name, &outcomes, None).to_json()
}

#[test]
fn sweep_json_is_byte_identical_at_1_2_and_8_threads() {
    let one = sweep_json(1);
    let two = sweep_json(2);
    let eight = sweep_json(8);
    assert_eq!(one, two, "1-thread vs 2-thread JSON");
    assert_eq!(two, eight, "2-thread vs 8-thread JSON");
    // And the run was not vacuous: all cells populated, no failures.
    assert!(one.contains("\"scenarios\": 8"));
    assert!(one.contains("\"failures\": []"));
    assert!(one.contains("cfg.delta_n_ms=10,cfg.defense=stopwatch"));
    // The report header carries the schema version, and every cell embeds
    // its fully-resolved construction inputs (config knobs + workload
    // params + seeds) so any cell is reproducible from the report alone.
    assert!(one.contains(&format!(
        "\"schema_version\": {}",
        harness::aggregate::REPORT_SCHEMA_VERSION
    )));
    assert!(one.contains("\"resolved\""));
    assert!(one.contains("\"workload\": \"web-http\""));
    assert!(one.contains("\"delta_n_ms\": \"2\""), "swept knob value");
    assert!(one.contains("\"disk\": \"ssd\""), "base override value");
    assert!(one.contains("\"bytes\": \"20000\""), "explicit param");
    assert!(one.contains("\"file_id\": \"1\""), "schema-default param");
    assert!(one.contains("\"seeds\": ["), "per-cell shard seeds");
}

#[test]
fn repeated_runs_are_identical() {
    assert_eq!(sweep_json(4), sweep_json(4), "same spec, same bytes");
}

/// The hot-path batching contract: the batched engine (sorted run +
/// time-wheel queue, burst median agreement) and the retained scalar reference paths
/// (one heap pop per event, one median per proposal) must produce
/// **byte-identical** sweep JSON — batching changed speed, not behavior.
/// `events_executed` is embedded per cell, so even a silently
/// created-then-cancelled extra event would show up here.
#[test]
fn batched_and_scalar_engines_produce_identical_sweep_json() {
    let batched = sweep_json_mode(4, false);
    let scalar = sweep_json_mode(4, true);
    assert_eq!(batched, scalar, "batched vs scalar-reference JSON");
    assert!(
        batched.contains("\"failures\": []"),
        "runs were not vacuous"
    );
}

/// The same contracts for the cache-channel workload, whose probe
/// proposals ride the PGM streams next to network proposals: thread
/// count and engine arm must not change a byte of the aggregate.
#[test]
fn cache_channel_sweep_is_thread_count_and_engine_arm_invariant() {
    let json = |threads: usize, scalar_reference: bool| {
        let mut spec = SweepSpec::new("cache-det", "cache-channel")
            .axis("cfg.defense", &["baseline", "stopwatch"])
            .seed_shards(7, 2);
        spec.base_params = vec![
            ("rounds".to_string(), "8".to_string()),
            ("sets".to_string(), "4".to_string()),
            ("secret".to_string(), "1".to_string()),
        ];
        spec.base_overrides = vec![
            ("broadcast_band".to_string(), "off".to_string()),
            ("disk".to_string(), "ssd".to_string()),
        ];
        spec.duration = SimDuration::from_secs(60);
        spec.scalar_reference = scalar_reference;
        let scenarios = spec.scenarios().expect("spec expands");
        let outcomes = run_scenarios(
            &scenarios,
            &RunnerOptions {
                threads,
                progress: false,
            },
        );
        SweepReport::from_outcomes(&spec.name, &outcomes, None).to_json()
    };
    let one = json(1, false);
    assert_eq!(one, json(8, false), "1-thread vs 8-thread JSON");
    assert_eq!(one, json(2, true), "batched vs scalar-reference JSON");
    assert!(one.contains("\"failures\": []"), "runs were not vacuous");
    assert!(one.contains("\"cache_irq\""), "probe counters aggregated");
}

/// The Fig 6 StopWatch cell at 400 ops/s must replay exactly. Its NFS
/// server walks its connection table on every timer tick; while that
/// table was a randomly seeded hash map the walk order — and so the order
/// in which retransmissions left each replica — changed from run to run
/// (and between replicas), and this seed sometimes finished all 400 ops
/// and sometimes stalled at 366.
#[test]
fn nfs_fig6_stopwatch_cell_replays_exactly() {
    let mut s = Scenario::new("nfs", 25_002);
    s.workload_params = vec![
        ("rate".to_string(), "400".to_string()),
        ("ops".to_string(), "400".to_string()),
    ];
    s.overrides = vec![("defense".to_string(), "stopwatch".to_string())];
    let first = s.run().expect("scenario runs");
    assert_eq!(first.completed, 400, "every op completes");
    for _ in 0..3 {
        assert_eq!(s.run().expect("scenario runs"), first);
    }
}
