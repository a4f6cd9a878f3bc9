//! Differential gate: the batched engine (sorted run + time-wheel queue,
//! batched median agreement) and the scalar reference paths must produce
//! **byte-identical** sweep reports, not just matching totals. This is
//! the end-to-end teeth behind `Sim::set_scalar_reference` — any
//! divergence in event order, medians, counters, or float formatting
//! shows up as a byte diff here.

use harness::prelude::*;
use stopwatch_core::cloud::CloudEvent;

fn report_json(name: &str, mut scenarios: Vec<Scenario>, scalar: bool) -> String {
    for s in &mut scenarios {
        s.scalar_reference = scalar;
    }
    let opts = RunnerOptions {
        threads: 1,
        progress: false,
    };
    let outcomes = run_scenarios(&scenarios, &opts);
    for o in &outcomes {
        assert!(
            o.result.is_ok(),
            "scenario {:?} failed: {:?}",
            o.label,
            o.result.as_ref().err()
        );
    }
    SweepReport::from_outcomes(name, &outcomes, None).to_json()
}

fn sweep_json(name: &str, scalar: bool) -> String {
    let spec = preset(name).expect("preset exists").spec(true);
    let scenarios = spec.scenarios().expect("scenario list builds");
    report_json(name, scenarios, scalar)
}

fn perf_json(name: &str, scalar: bool) -> String {
    let scenarios = perf_bench(name)
        .expect("perf bench exists")
        .scenarios(true)
        .expect("scenario list builds");
    report_json(name, scenarios, scalar)
}

#[test]
fn delta_n_quick_sweep_is_byte_identical_batched_vs_scalar() {
    let batched = sweep_json("delta-n", false);
    let scalar = sweep_json("delta-n", true);
    assert!(
        batched == scalar,
        "batched and scalar sweep JSON diverge (lengths {} vs {})",
        batched.len(),
        scalar.len()
    );
}

#[test]
fn packet_storm_quick_bench_is_byte_identical_batched_vs_scalar() {
    // The packet-dense hot path: cached packet identity, coalesced guest
    // computes, and the batched egress vote all run here. Any elided or
    // reordered event would shift `events_executed` and break the diff.
    let batched = perf_json("packet-storm", false);
    let scalar = perf_json("packet-storm", true);
    assert!(
        batched == scalar,
        "batched and scalar perf-scenario JSON diverge (lengths {} vs {})",
        batched.len(),
        scalar.len()
    );
}

#[test]
fn cache_storm_quick_bench_is_byte_identical_batched_vs_scalar() {
    // PRIME+PROBE rounds queue long compute runs between cache probes —
    // the densest Compute-coalescing traffic of any preset.
    let batched = perf_json("cache-storm", false);
    let scalar = perf_json("cache-storm", true);
    assert!(
        batched == scalar,
        "batched and scalar perf-scenario JSON diverge (lengths {} vs {})",
        batched.len(),
        scalar.len()
    );
}

#[test]
fn timer_channel_quick_sweep_is_byte_identical_batched_vs_scalar() {
    // The timer channel adds the vCPU-scheduler and virtual-timer paths
    // (cancellations, re-targeted hardware events) on top of delta-n's
    // packet flow — the cases where wheel tombstones could diverge.
    let batched = sweep_json("timer-channel", false);
    let scalar = sweep_json("timer-channel", true);
    assert!(
        batched == scalar,
        "batched and scalar sweep JSON diverge (lengths {} vs {})",
        batched.len(),
        scalar.len()
    );
}

fn spec_json(name: &str, spec: SweepSpec, scalar: bool) -> String {
    report_json(
        name,
        spec.scenarios().expect("scenario list builds"),
        scalar,
    )
}

fn assert_spec_parity(name: &str, spec: impl Fn() -> SweepSpec) {
    let batched = spec_json(name, spec(), false);
    let scalar = spec_json(name, spec(), true);
    assert!(
        batched == scalar,
        "batched and scalar sweep JSON diverge (lengths {} vs {})",
        batched.len(),
        scalar.len()
    );
}

/// Disk-channel rounds under both arms, victim off and on, on the rotating
/// disk: disk completions, Δd proposals and the pacing heartbeat.
fn disk_channel_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("disk-parity", "disk-channel")
        .axis("cfg.defense", &["baseline", "stopwatch"])
        .axis("victim", &["false", "true"])
        .seed_shards(11, 2);
    spec.base_params = vec![("rounds".to_string(), "12".to_string())];
    spec.base_overrides = vec![
        ("broadcast_band".to_string(), "off".to_string()),
        ("disk".to_string(), "rotating".to_string()),
        ("delta_d_ms".to_string(), "25".to_string()),
    ];
    spec.duration = simkit::time::SimDuration::from_secs(120);
    spec
}

/// UDP downloads under both arms with broadcast chatter on: ingress
/// replication, egress votes, client packets, PGM NAKs and
/// retransmissions all run.
fn web_udp_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("udp-parity", "web-udp")
        .axis("cfg.defense", &["baseline", "stopwatch"])
        .seed_shards(5, 2);
    spec.base_params = vec![
        ("bytes".to_string(), "200000".to_string()),
        ("downloads".to_string(), "2".to_string()),
    ];
    spec.base_overrides = vec![("disk".to_string(), "ssd".to_string())];
    spec.duration = simkit::time::SimDuration::from_secs(60);
    spec
}

#[test]
fn disk_channel_quick_sweep_is_byte_identical_batched_vs_scalar() {
    assert_spec_parity("disk-parity", disk_channel_spec);
}

#[test]
fn web_udp_quick_sweep_is_byte_identical_batched_vs_scalar() {
    assert_spec_parity("udp-parity", web_udp_spec);
}

#[test]
fn per_kind_event_counts_are_identical_batched_vs_scalar() {
    let counts = |s: &Scenario, scalar: bool| {
        let mut s = s.clone();
        s.scalar_reference = scalar;
        let (mut sim, _workload) = s.build().expect("scenario builds");
        let finished = sim.run_until_clients_done(simkit::time::SimTime::ZERO + s.duration);
        sim.run_until(finished + s.drain);
        let counts = *sim.event_counts();
        assert_eq!(
            counts.iter().sum::<u64>(),
            sim.sim.events_executed(),
            "{}: per-kind counts sum to the events executed",
            s.label
        );
        counts
    };
    let mut total = [0u64; CloudEvent::KINDS];
    for s in web_udp_spec().scenarios().expect("scenario list builds") {
        let batched = counts(&s, false);
        assert_eq!(batched, counts(&s, true), "{}", s.label);
        for (t, n) in total.iter_mut().zip(batched) {
            *t += n;
        }
    }
    let of = |name: &str| {
        let kind = CloudEvent::KIND_NAMES.iter().position(|&n| n == name);
        total[kind.expect("known kind")]
    };
    for kind in [
        "host_packet",
        "ingress",
        "egress_copy",
        "client_packet",
        "pgm_deliver",
        "pgm_retransmit",
        "pgm_nak",
        "broadcast",
    ] {
        assert!(of(kind) > 0, "the sweep exercises {kind} events");
    }
}
