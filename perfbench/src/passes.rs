//! The three kinds of pass over a workload's scenario list.
//!
//! * [`runner_pass`] is what a user runs: list generation, then
//!   `harness::runner::run_scenarios_profiled`, then
//!   `SweepReport::from_outcomes`. It gives the end-to-end wall, set-up and
//!   heap figures.
//! * [`scenario_pass`] runs the list one scenario at a time on one worker
//!   through `Scenario::run_phased_in` with one `ScenarioArena`, the way
//!   the runner's single-worker loop does, and times each scenario.
//! * [`traced_pass`] drives each scenario through the layers' public calls
//!   one by one, recording a span around each, and checks the replicas of
//!   every replicated VM against each other.
//!
//! All three fold their outcomes into reports the same way, so their
//! [`digest`]s must agree.

use crate::alloc;
use crate::plans::Plan;
use crate::trace::Tracer;
use harness::prelude::*;
use simkit::time::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use stopwatch_core::cloud::{CloudSim, VmHandle};

/// Slot counters the harness folds into every `ScenarioResult`, summed
/// over replicas; the traced pass harvests the same ones.
const SLOT_COUNTERS: [&str; 13] = [
    "net_irq",
    "disk_irq",
    "cache_irq",
    "vtimer_irq",
    "cache_probes",
    "cache_hits",
    "cache_misses",
    "timer_arms",
    "stalls",
    "sync_violations",
    "dd_violations",
    "dt_violations",
    "sched_preemptions",
];

/// A pass's scenario list and the slice of it each sweep owns.
pub struct Generated {
    /// Every scenario of the pass, sweep after sweep.
    pub scenarios: Vec<Scenario>,
    ranges: Vec<Range<usize>>,
}

/// Expands every sweep of `plan` into one list.
///
/// # Errors
///
/// A sweep that fails validation.
pub fn generate(plan: &Plan) -> Result<Generated, String> {
    let mut scenarios = Vec::new();
    let mut ranges = Vec::with_capacity(plan.specs.len());
    for spec in &plan.specs {
        let start = scenarios.len();
        scenarios.extend(spec.scenarios()?);
        ranges.push(start..scenarios.len());
    }
    Ok(Generated { scenarios, ranges })
}

/// One report per sweep. Leakage verdicts use the harness default: each
/// victim cell against the clean cell of its own arm, else the first cell.
pub fn reports(plan: &Plan, gen: &Generated, outcomes: &[RunOutcome]) -> Vec<SweepReport> {
    plan.specs
        .iter()
        .zip(&gen.ranges)
        .map(|(spec, r)| SweepReport::from_outcomes(&spec.name, &outcomes[r.clone()], None))
        .collect()
}

/// FNV-1a hash of the simulated outputs of `reports`: per cell the run,
/// timeout, completion and event counts, latency percentiles and
/// workload extras; per verdict its distance and decision; and the
/// failure count. Host timings never enter it.
pub fn digest(reports: &[SweepReport]) -> u64 {
    let mut text = String::new();
    for r in reports {
        let _ = writeln!(text, "{} {} {}", r.name, r.scenarios, r.failures.len());
        for c in &r.cells {
            let p = &c.latency_ms;
            let _ = writeln!(
                text,
                "{} {} {} {} {} {} {:e} {:e} {:e} {:e} {:e}",
                c.cell,
                c.defense,
                c.runs,
                c.timeouts,
                c.completed,
                c.events_executed,
                p.mean,
                p.p50,
                p.p90,
                p.p99,
                p.max
            );
            for (k, v) in &c.extra {
                let _ = writeln!(text, "  {k} {v:e}");
            }
        }
        for v in &r.leakage {
            let _ = writeln!(
                text,
                "{} {} {:e} {} {}",
                v.cell,
                v.baseline,
                v.ks_distance,
                v.observations_needed_95,
                v.distinguishable_at_95
            );
        }
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned());
    match text {
        Some(s) => format!("scenario panicked: {s}"),
        None => "scenario panicked".to_string(),
    }
}

/// What a [`runner_pass`] measured.
pub struct RunnerPass {
    /// Wall seconds: list generation, runner, aggregation.
    pub wall_s: f64,
    /// List generation plus the runner's resolve and build phases,
    /// summed over workers.
    pub setup_s: f64,
    /// Highest live heap during the pass, above what was live before it.
    pub peak_heap_bytes: usize,
    /// The runner's outcomes, in list order.
    pub outcomes: Vec<RunOutcome>,
    /// One report per sweep.
    pub reports: Vec<SweepReport>,
}

/// A pass the way `swbench run` makes one, on `threads` workers.
///
/// # Errors
///
/// A sweep that fails validation.
pub fn runner_pass(plan: &Plan, threads: usize) -> Result<RunnerPass, String> {
    let live_before = alloc::reset_peak();
    let t0 = Instant::now();
    let gen = generate(plan)?;
    let list_s = t0.elapsed().as_secs_f64();
    let opts = RunnerOptions {
        threads,
        progress: false,
    };
    let (outcomes, phases) = run_scenarios_profiled(&gen.scenarios, &opts);
    let reports = reports(plan, &gen, &outcomes);
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(RunnerPass {
        wall_s,
        setup_s: list_s + phases.setup_ns() as f64 / 1e9,
        peak_heap_bytes: alloc::peak_bytes() - live_before,
        outcomes,
        reports,
    })
}

/// What a [`scenario_pass`] measured.
pub struct ScenarioPass {
    /// Host wall of each scenario, ms, in list order.
    pub walls_ms: Vec<f64>,
    /// List generation plus resolve and build phases.
    pub setup_s: f64,
    /// `ScenarioArena` hits over the pass.
    pub arena_hits: u64,
    /// `ScenarioArena` misses over the pass.
    pub arena_misses: u64,
    /// Allocations the pass made (it runs on the calling thread).
    pub allocs: u64,
    /// One report per sweep.
    pub reports: Vec<SweepReport>,
}

/// Runs the list one scenario at a time on the calling thread.
///
/// # Errors
///
/// A sweep that fails validation.
pub fn scenario_pass(plan: &Plan) -> Result<ScenarioPass, String> {
    let allocs0 = alloc::thread_allocs();
    let t0 = Instant::now();
    let gen = generate(plan)?;
    let list_s = t0.elapsed().as_secs_f64();
    let mut arena = ScenarioArena::new();
    let mut phases = Phases::default();
    let mut walls_ms = Vec::with_capacity(gen.scenarios.len());
    let mut outcomes = Vec::with_capacity(gen.scenarios.len());
    for s in &gen.scenarios {
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            s.run_phased_in(&mut arena, &mut phases)
        }))
        .unwrap_or_else(|panic| Err(panic_message(panic)));
        walls_ms.push(t.elapsed().as_secs_f64() * 1e3);
        outcomes.push(RunOutcome {
            label: s.label.clone(),
            result,
        });
    }
    let reports = reports(plan, &gen, &outcomes);
    Ok(ScenarioPass {
        walls_ms,
        setup_s: list_s + phases.setup_ns() as f64 / 1e9,
        arena_hits: arena.hits(),
        arena_misses: arena.misses(),
        allocs: alloc::thread_allocs() - allocs0,
        reports,
    })
}

/// What a [`traced_pass`] recorded.
pub struct TracedPass {
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// The spans.
    pub tracer: Tracer,
    /// Outcomes, in list order.
    pub outcomes: Vec<RunOutcome>,
    /// One report per sweep.
    pub reports: Vec<SweepReport>,
    /// Replica-consistency violations, one line each.
    pub replica_faults: Vec<String>,
}

/// Drives every scenario through the public calls, with a span around
/// each.
///
/// # Errors
///
/// A sweep that fails validation.
pub fn traced_pass(plan: &Plan) -> Result<TracedPass, String> {
    let count: usize = plan.specs.iter().map(SweepSpec::scenario_count).sum();
    let mut tracer = Tracer::with_capacity(8 * count + 8);
    let t0 = Instant::now();
    tracer.enter("harness", "pass");
    let gen = tracer.span("harness", "generate", || generate(plan))?;
    let mut outcomes = Vec::with_capacity(count);
    let mut replica_faults = Vec::new();
    for (i, s) in gen.scenarios.iter().enumerate() {
        tracer.set_scenario(Some(i));
        let depth = tracer.depth();
        tracer.enter("harness", "scenario");
        let result = catch_unwind(AssertUnwindSafe(|| {
            traced_scenario(s, &mut tracer, &mut replica_faults)
        }))
        .unwrap_or_else(|panic| Err(panic_message(panic)));
        tracer.close_to(depth);
        outcomes.push(RunOutcome {
            label: s.label.clone(),
            result,
        });
    }
    tracer.set_scenario(None);
    let reports = tracer.span("harness", "aggregate", || reports(plan, &gen, &outcomes));
    tracer.exit();
    Ok(TracedPass {
        wall_s: t0.elapsed().as_secs_f64(),
        tracer,
        outcomes,
        reports,
        replica_faults,
    })
}

/// One scenario, call by call; builds the same `ScenarioResult` the
/// runner does.
fn traced_scenario(
    s: &Scenario,
    t: &mut Tracer,
    replica_faults: &mut Vec<String>,
) -> Result<ScenarioResult, String> {
    let (resolved_config, resolved_params) = t.span("harness", "resolve", || {
        Ok::<_, String>((s.resolved_config()?, s.resolved_params()?))
    })?;
    let (mut sim, wl) = t.span("stopwatch-core", "build", || s.build())?;
    let (finished_at, clients_done) = t.span("simkit", "run", || {
        let finished_at = sim.run_until_clients_done(SimTime::ZERO + s.duration);
        let clients_done = sim.cloud.clients_done();
        if s.drain > SimDuration::ZERO {
            sim.run_until(finished_at + s.drain);
        }
        (finished_at, clients_done)
    });
    if let Some(err) = sim.error() {
        return Err(format!("slot failure: {err}"));
    }
    let replicas = sim.cloud.vm_replicas(wl.vm()).len() as u64;
    let outcome = t.span("workloads", "collect", || wl.collect(&mut sim));
    t.span("perfbench", "replica_check", || {
        if let Some(fault) = replica_fault(&sim, wl.vm()) {
            replica_faults.push(format!("{}: {fault}", s.label));
        }
    });
    let mut counters: Vec<(String, u64)> = sim
        .cloud
        .stats()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for name in SLOT_COUNTERS {
        counters.push((name.to_string(), sim.cloud.total_counter(name)));
    }
    let defense = resolved_config
        .iter()
        .find(|(k, _)| k == "defense")
        .map(|(_, v)| v.clone())
        .ok_or("resolved config has no defense knob")?;
    let events_executed = sim.sim.events_executed();
    // Teardown is the layers' own work (the engine's leftover event queue,
    // the cloud's hosts and logs), so it gets spans of its own.
    let CloudSim { sim: engine, cloud } = sim;
    t.span("simkit", "teardown", || drop(engine));
    t.span("stopwatch-core", "teardown", || drop(cloud));
    Ok(ScenarioResult {
        label: s.label.clone(),
        cell: s.cell.clone(),
        cell_params: s.cell_params.clone(),
        workload: s.workload.clone(),
        defense,
        resolved_config,
        resolved_params,
        seed: s.seed,
        samples_ms: outcome.samples_ms,
        completed: outcome.completed,
        extra: outcome.extra,
        clients_done,
        finished_ms: finished_at.duration_since(SimTime::ZERO).as_millis_f64(),
        events_executed,
        replicas,
        counters,
    })
}

/// StopWatch's core invariant, checked from outside: every replica of a
/// replicated VM delivered the same interrupts at the same virtual times.
/// A replica on a busier host can still be behind when the run stops, so
/// the logs must agree over the entries all replicas have delivered.
/// Workloads add their measured VM first, so it is the only VM that can
/// be replicated; victims and load generators are single-host.
fn replica_fault(sim: &CloudSim, vm: VmHandle) -> Option<String> {
    let n = sim.cloud.vm_replicas(vm).len();
    let first = sim.cloud.delivered_log(vm, 0);
    (1..n).find_map(|r| {
        let log = sim.cloud.delivered_log(vm, r);
        let at = log.iter().zip(&first).take_while(|(a, b)| a == b).count();
        (at < log.len().min(first.len())).then(|| {
            let violations: u64 = ["sync_violations", "dd_violations", "dt_violations"]
                .iter()
                .map(|name| sim.cloud.total_counter(name))
                .sum();
            format!(
                "replica {r} delivered {:?} as entry {at}, replica 0 delivered {:?}; \
                 {violations} proposal violations in the run",
                log[at], first[at]
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans;

    /// `workload` at one seed shard per sweep, without the 10 MB Fig 5
    /// point, so a debug build runs it in seconds.
    fn small(workload: &str) -> Plan {
        let mut plan = plans::plan(workload, 5).expect("known workload");
        plan.specs.retain(|s| s.name != "fig5-10mb");
        for spec in &mut plan.specs {
            spec.seeds.truncate(1);
        }
        plan
    }

    #[test]
    fn single_worker_allocation_counts_repeat_exactly() {
        for workload in ["paper-figs", "channel-grid"] {
            let plan = small(workload);
            // The first pass interns counter names and fills lazy
            // registries; counts repeat from the second pass on.
            scenario_pass(&plan).expect("warm-up");
            let a = scenario_pass(&plan).expect("pass");
            let b = scenario_pass(&plan).expect("pass");
            assert!(a.allocs > 0);
            assert_eq!(a.allocs, b.allocs, "{workload}");
        }
    }

    #[test]
    fn every_pass_kind_reads_the_same_simulated_outputs() {
        for workload in plans::WORKLOADS {
            let mut plan = small(workload);
            if workload == "seed-fanout" {
                plan.specs[0].axes.truncate(1);
            }
            let one = runner_pass(&plan, 1).expect("runner pass");
            assert!(one.outcomes.iter().all(|o| o.result.is_ok()), "{workload}");
            let want = digest(&one.reports);
            assert_eq!(
                digest(&runner_pass(&plan, 2).expect("runner").reports),
                want
            );
            assert_eq!(digest(&scenario_pass(&plan).expect("pass").reports), want);
            let traced = traced_pass(&plan).expect("traced pass");
            assert_eq!(digest(&traced.reports), want, "{workload}");
            assert_eq!(traced.replica_faults, Vec::<String>::new(), "{workload}");
        }
    }

    #[test]
    fn digest_sees_simulated_outputs() {
        let plan = small("seed-fanout");
        let pass = runner_pass(&plan, 1).expect("runner pass");
        let mut reports = pass.reports.clone();
        reports[0].cells[0].events_executed += 1;
        assert_ne!(digest(&reports), digest(&pass.reports));
    }
}
