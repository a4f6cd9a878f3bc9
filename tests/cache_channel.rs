//! End-to-end cache-channel experiment: the leakage verdict must flip
//! from LEAKY (baseline, one replica) to TIGHT (StopWatch, three
//! replicas) on a fixed seed grid, and the attacker's set-recovery
//! accuracy must collapse from near-certain to chance.

use harness::prelude::*;
use simkit::time::{SimDuration, SimTime};
use workloads::cache::PrimeProbeGuest;

/// A fixed 4-cell grid (defense arm x victim presence) over 3 seeds,
/// anchored on the clean baseline cell.
fn grid() -> SweepSpec {
    let mut spec = SweepSpec::new("cache-flip", "cache-channel")
        .axis("cfg.defense", &["baseline", "stopwatch"])
        .axis("victim", &["false", "true"])
        .seed_shards(42, 3);
    spec.base_params = vec![
        ("rounds".to_string(), "40".to_string()),
        ("sets".to_string(), "4".to_string()),
        ("ways".to_string(), "2".to_string()),
        ("secret".to_string(), "2".to_string()),
    ];
    spec.base_overrides = vec![
        ("broadcast_band".to_string(), "off".to_string()),
        ("disk".to_string(), "ssd".to_string()),
    ];
    spec.duration = SimDuration::from_secs(120);
    spec
}

fn report() -> SweepReport {
    let scenarios = grid().scenarios().expect("grid expands");
    let outcomes = run_scenarios(
        &scenarios,
        &RunnerOptions {
            threads: 2,
            progress: false,
        },
    );
    SweepReport::from_outcomes(
        "cache-flip",
        &outcomes,
        Some("cfg.defense=baseline,victim=false"),
    )
}

fn verdict<'a>(r: &'a SweepReport, cell: &str) -> &'a LeakageVerdict {
    r.leakage
        .iter()
        .find(|v| v.cell == cell)
        .unwrap_or_else(|| panic!("no verdict for {cell:?} in {:?}", r.leakage))
}

fn cell<'a>(r: &'a SweepReport, name: &str) -> &'a CellAggregate {
    r.cells
        .iter()
        .find(|c| c.cell == name)
        .unwrap_or_else(|| panic!("no cell {name:?}"))
}

#[test]
fn leakage_verdict_flips_from_leaky_to_tight_with_replication() {
    let r = report();
    assert!(r.failures.is_empty(), "failures: {:?}", r.failures);
    assert_eq!(r.cells.len(), 4, "2 arms x victim on/off");

    // One replica (baseline): the victim's evictions shift the probe
    // latency distribution — an observer distinguishes it from clean.
    let leaky = verdict(&r, "cfg.defense=baseline,victim=true");
    assert!(
        leaky.distinguishable_at_95,
        "baseline + victim must be LEAKY: {leaky:?}"
    );
    assert!(leaky.ks_distance > 0.05, "victim shifts the KS distance");

    // Three replicas (StopWatch): the median readout hides the one
    // perturbed replica — indistinguishable from the clean cell.
    let tight = verdict(&r, "cfg.defense=stopwatch,victim=true");
    assert!(
        !tight.distinguishable_at_95,
        "StopWatch + victim must be TIGHT: {tight:?}"
    );
    assert!(
        tight.ks_distance < 1e-9,
        "median readout is identical to clean: {tight:?}"
    );
}

#[test]
fn recovery_accuracy_degrades_toward_chance_as_replicas_grow() {
    let r = report();
    let acc = |name: &str| {
        let c = cell(&r, name);
        c.extra("recovered_rounds") / c.extra("probe_rounds")
    };
    let baseline = acc("cfg.defense=baseline,victim=true");
    let stopwatch = acc("cfg.defense=stopwatch,victim=true");
    let chance = 1.0 / 4.0;
    assert!(
        baseline >= 0.9,
        "1 replica: attacker recovers the secret set ({baseline})"
    );
    assert!(
        stopwatch <= chance + 0.05,
        "3 replicas: accuracy at or below chance ({stopwatch} vs chance {chance})"
    );
    assert!(
        baseline - stopwatch > 0.5,
        "accuracy must collapse 1 -> 3 replicas ({baseline} -> {stopwatch})"
    );

    // Every cell ran all its rounds (the verdicts mean nothing on a
    // timed-out attacker).
    for c in &r.cells {
        assert_eq!(c.timeouts, 0, "cell {} timed out", c.cell);
        assert_eq!(c.completed, 3 * 40, "cell {} rounds", c.cell);
    }
}

/// Regression for a replica divergence that panicked with "virtual time
/// subtraction underflow". Cache readouts propose their measured
/// completion with no offset, so each readout is injected at the exit
/// after its median becomes known. At this seed one replica's last peer
/// proposal arrived after that replica had run on past its next PIT
/// tick: it injected the tick first, the readouts one tick late, and
/// primed and probed the next round a tick after its peers. The next
/// round's median, taken over proposals from both rounds, then preceded
/// the late replica's own issue instant. An open cache readout now
/// holds every replica at the readouts' exit until the median is in, so
/// all replicas read the same latencies at the same logical points.
#[test]
fn late_cache_agreement_holds_the_replica_instead_of_diverging() {
    let mut s = Scenario::new("cache-channel", 200_163);
    s.workload_params = vec![
        ("rounds".to_string(), "60".to_string()),
        ("victim".to_string(), "false".to_string()),
    ];
    s.overrides = [
        ("defense", "stopwatch"),
        ("broadcast_band", "off"),
        ("disk", "rotating"),
        ("delta_d_ms", "25"),
        ("image_blocks", "16000000"),
    ]
    .iter()
    .map(|&(k, v)| (k.to_string(), v.to_string()))
    .collect();
    s.duration = SimDuration::from_secs(120);
    let (mut sim, workload) = s.build().expect("scenario builds");
    sim.run_until_clients_done(SimTime::ZERO + s.duration);
    assert_eq!(sim.error(), None);
    assert!(sim.cloud.clients_done(), "the attacker finished its rounds");
    let vm = workload.vm();
    let replicas = sim.cloud.vm_replicas(vm).len();
    assert_eq!(replicas, 3);
    let samples: Vec<Vec<u64>> = (0..replicas)
        .map(|r| {
            let guest = sim.cloud.guest_program::<PrimeProbeGuest>(vm, r);
            guest.expect("attacker replica").samples_ns().to_vec()
        })
        .collect();
    assert!(!samples[0].is_empty());
    assert!(
        samples.windows(2).all(|w| w[0] == w[1]),
        "every replica reads the same probe latencies"
    );
}
