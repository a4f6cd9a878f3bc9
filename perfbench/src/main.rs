//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-figs|channel-grid|seed-fanout> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload's sweeps through the harness public API for about
//! `--seconds`, checks the outputs, prints every metric with its unit, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` adds a traced
//! pass and reports the per-layer metrics, writing its spans under
//! `perfbench/out/`. Exits 1 when a check fails and 2 on bad arguments.
//! `README.md` maps each metric to the layer and workload it watches.

mod alloc;
mod passes;
mod plans;
mod trace;

use passes::{digest, RunnerPass, ScenarioPass, TracedPass};
use plans::Plan;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <paper-figs|channel-grid|seed-fanout> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => &flag[2..],
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if values.insert(key, value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or(format!("--{key} is required"))
    };
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("--{key} wants a whole number"))
    };
    let workload = get("workload")?;
    if !plans::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            plans::WORKLOADS.join(", ")
        ));
    }
    let seed = number("seed")?;
    if seed > plans::MAX_SEED {
        return Err(format!("--seed must be at most {}", plans::MAX_SEED));
    }
    let seconds = number("seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".to_string());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace wants 0 or 1".to_string()),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            result.print();
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Worker count capped at the machine's parallelism.
fn workers(wanted: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    wanted.min(cores)
}

/// Everything one invocation measured.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// One line per failed check.
    failures: Vec<String>,
    /// `(name, value, unit)` in output order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed before the JSON line: sample counts, simulated
    /// outputs, the digest.
    notes: Vec<String>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn print(&self) {
        for f in &self.failures {
            eprintln!("CHECK FAILED: {f}");
        }
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let mut plan = plans::plan(&args.workload, args.seed)?;
    plan.threads = workers(plan.threads);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut runner: Vec<RunnerPass> = Vec::new();
    let mut scenario: Vec<ScenarioPass> = Vec::new();
    loop {
        let t = Instant::now();
        runner.push(passes::runner_pass(&plan, plan.threads)?);
        scenario.push(passes::scenario_pass(&plan)?);
        eprintln!(
            "perfbench: {} pass pair {} in {:.2}s",
            plan.name,
            runner.len(),
            t.elapsed().as_secs_f64()
        );
        // Keep only the first pass's outcomes and reports; later passes
        // contribute timings and digests.
        if runner.len() > 1 {
            let last = runner.last_mut().expect("just pushed");
            last.outcomes = Vec::new();
        }
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let cross = passes::runner_pass(&plan, workers(plan.other_threads()))?;
    let traced = if args.trace {
        Some(passes::traced_pass(&plan)?)
    } else {
        None
    };
    let mut result = evaluate(&plan, &runner, &scenario, &cross, traced.as_ref());
    if let Some(t) = &traced {
        let dir = std::path::Path::new("perfbench").join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", plan.name, args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, t.tracer.to_json(plan.name, args.seed)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        result
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(result)
}

/// Runs every check and computes every metric.
fn evaluate(
    plan: &Plan,
    runner: &[RunnerPass],
    scenario: &[ScenarioPass],
    cross: &RunnerPass,
    traced: Option<&TracedPass>,
) -> RunResult {
    let first = &runner[0];
    let attempted = first.outcomes.len() as u64;
    // Failed checks make the run incorrect. A scenario that times out is
    // the simulator's own report, not a broken check: it counts as a
    // failed operation only.
    let mut failures = Vec::new();
    let mut timeouts = Vec::new();
    for o in &first.outcomes {
        match &o.result {
            Err(e) => failures.push(format!("scenario {} errored: {e}", o.label)),
            Ok(r) if !r.clients_done => timeouts.push(o.label.as_str()),
            Ok(_) => {}
        }
    }
    for r in &first.reports {
        for (label, e) in r.failures.iter().filter(|(l, _)| l == "baseline") {
            failures.push(format!("sweep {}: {label}: {e}", r.name));
        }
    }
    if plan.name == "channel-grid" {
        failures.extend(channel_verdicts(&first.reports));
    }

    // Determinism: every pass reads the same simulated outputs.
    let want = digest(&first.reports);
    let mut digests: Vec<(String, u64)> = Vec::new();
    for (i, p) in runner.iter().enumerate().skip(1) {
        digests.push((format!("runner pass {}", i + 1), digest(&p.reports)));
    }
    for (i, p) in scenario.iter().enumerate() {
        digests.push((format!("scenario pass {}", i + 1), digest(&p.reports)));
    }
    digests.push((
        "runner pass on the other worker count".to_string(),
        digest(&cross.reports),
    ));
    if let Some(t) = traced {
        digests.push(("traced pass".to_string(), digest(&t.reports)));
    }
    for (what, got) in digests {
        if got != want {
            failures.push(format!(
                "digest of {what} is {got:016x}, first pass {want:016x}"
            ));
        }
    }
    // Allocation counts of single-thread passes repeat exactly.
    if let Some(p) = scenario
        .iter()
        .skip(1)
        .find(|p| p.allocs != scenario[0].allocs)
    {
        failures.push(format!(
            "scenario passes allocated {} then {} times",
            scenario[0].allocs, p.allocs
        ));
    }
    if let Some(t) = traced {
        for fault in &t.replica_faults {
            failures.push(format!("replica divergence: {fault}"));
        }
    }
    let failed = (failures.len() + timeouts.len()) as u64;

    let mut notes = vec![
        format!(
            "workload {} on {} worker(s): {} scenarios per pass, {} runner passes, {} scenario passes",
            plan.name,
            plan.threads,
            attempted,
            runner.len(),
            scenario.len()
        ),
        format!(
            "scenario_p50_ms/scenario_p90_ms: median over passes of per-pass quantiles of {} samples",
            scenario[0].walls_ms.len()
        ),
        format!("sim.digest {want:016x}"),
        format!("timed out: {} scenario(s) {timeouts:?}", timeouts.len()),
    ];
    let sim = sim_outputs(plan, &first.reports);
    notes.push(format!(
        "failed_frac {}",
        ratio(failed as f64, attempted as f64)
    ));
    for (name, value, _) in &sim {
        notes.push(format!("{name} {value}"));
    }

    let metrics = match traced {
        None => end_to_end(plan, runner, scenario, attempted, failed),
        Some(t) => {
            let mut m = per_layer(plan, runner, scenario, cross, t);
            m.extend(sim);
            m
        }
    };
    RunResult {
        attempted,
        failed,
        failures,
        metrics,
        notes,
    }
}

/// The leakage checks the channel tests pin: StopWatch closes every
/// channel at every replica count, and the undefended arm leaks.
fn channel_verdicts(reports: &[harness::prelude::SweepReport]) -> Vec<String> {
    let mut out = Vec::new();
    for r in reports {
        for channel in ["cache-channel", "disk-channel", "timer-channel"] {
            for replicas in ["3", "5"] {
                for (arm, want_leaky) in [("stopwatch", false), ("baseline", true)] {
                    let cell = format!(
                        "workload={channel},cfg.defense={arm},cfg.replicas={replicas},victim=true"
                    );
                    match r.leakage.iter().find(|v| v.cell == cell) {
                        None => out.push(format!("no leakage verdict for {cell}")),
                        Some(v) if v.distinguishable_at_95 != want_leaky => out.push(format!(
                            "{cell} is {} (ks {:.4}, {} observations needed), expected {}",
                            if v.distinguishable_at_95 {
                                "LEAKY"
                            } else {
                                "TIGHT"
                            },
                            v.ks_distance,
                            v.observations_needed_95,
                            if want_leaky { "LEAKY" } else { "TIGHT" }
                        )),
                        Some(_) => {}
                    }
                }
            }
        }
    }
    out
}

fn end_to_end(
    plan: &Plan,
    runner: &[RunnerPass],
    scenario: &[ScenarioPass],
    attempted: u64,
    failed: u64,
) -> Vec<(String, f64, &'static str)> {
    let walls: Vec<f64> = runner.iter().map(|p| p.wall_s).collect();
    // Single-worker scenario passes set up exactly as the runner's
    // single-worker loop does, so they add samples there.
    let mut setups: Vec<f64> = runner.iter().map(|p| p.setup_s).collect();
    if plan.threads == 1 {
        setups.extend(scenario.iter().map(|p| p.setup_s));
    }
    let p50: Vec<f64> = scenario
        .iter()
        .map(|p| quantile(&p.walls_ms, 0.5))
        .collect();
    let p90: Vec<f64> = scenario
        .iter()
        .map(|p| quantile(&p.walls_ms, 0.9))
        .collect();
    let heap: Vec<f64> = runner
        .iter()
        .map(|p| p.peak_heap_bytes as f64 / 1e6)
        .collect();
    vec![
        ("sweep_s".to_string(), median(&walls), "s"),
        ("setup_s".to_string(), median(&setups), "s"),
        ("scenario_p50_ms".to_string(), median(&p50), "ms"),
        ("scenario_p90_ms".to_string(), median(&p90), "ms"),
        ("peak_heap_mb".to_string(), median(&heap), "MB"),
        (
            "success_frac".to_string(),
            1.0 - ratio(failed as f64, attempted as f64).min(1.0),
            "frac",
        ),
    ]
}

/// Sum of counter `name` over the traced pass's results.
fn counter(t: &TracedPass, name: &str) -> u64 {
    t.outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|r| r.counter(name))
        .sum()
}

/// Data packets a web download needs: one per full or partial
/// maximum-size payload.
fn useful_packets(t: &TracedPass) -> f64 {
    let payload = u64::from(netsim::udp::UDP_CHUNK);
    t.outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .filter(|r| plans::family(&r.workload) == "web")
        .map(|r| {
            let bytes: u64 = r
                .resolved_params
                .iter()
                .find(|(k, _)| k == "bytes")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0);
            (r.completed * bytes.div_ceil(payload)) as f64
        })
        .fold(0.0, |a, b| a + b)
}

fn per_layer(
    plan: &Plan,
    runner: &[RunnerPass],
    scenario: &[ScenarioPass],
    cross: &RunnerPass,
    t: &TracedPass,
) -> Vec<(String, f64, &'static str)> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let scenarios = t.outcomes.len() as f64;
    let self_ns = t.tracer.self_ns_by_layer();
    let layer_self = |layer: &str| ms(self_ns.get(layer).copied().unwrap_or(0));
    let (resolve_ns, resolve_allocs) = t.tracer.total("harness", "resolve");
    let (build_ns, build_allocs) = t.tracer.total("stopwatch-core", "build");
    let (run_ns, run_allocs) = t.tracer.total("simkit", "run");
    let (collect_ns, _) = t.tracer.total("workloads", "collect");
    let (aggregate_ns, _) = t.tracer.total("harness", "aggregate");
    let (cloud_drop_ns, _) = t.tracer.total("stopwatch-core", "teardown");
    let (engine_drop_ns, _) = t.tracer.total("simkit", "teardown");
    // (workload, events, run ns) of every scenario that ran.
    let runs: Vec<(&str, u64, u64)> = t
        .tracer
        .spans()
        .iter()
        .filter(|s| s.layer == "simkit" && s.name == "run")
        .filter_map(|s| {
            let r = t.outcomes[s.scenario?].result.as_ref().ok()?;
            Some((r.workload.as_str(), r.events_executed, s.duration_ns()))
        })
        .collect();
    let events: u64 = runs.iter().map(|r| r.1).sum();
    let c = |name: &str| counter(t, name) as f64;
    let proposals = c("proposals_sent")
        + c("cache_proposals_sent")
        + c("disk_proposals_sent")
        + c("timer_proposals_sent");
    let violations = c("sync_violations") + c("dd_violations") + c("dt_violations");
    let timeouts = t
        .outcomes
        .iter()
        .filter(|o| o.result.as_ref().is_ok_and(|r| !r.clients_done))
        .count();
    let completed: u64 = t
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|r| r.completed)
        .sum();
    let hits: u64 = scenario.iter().map(|p| p.arena_hits).sum();
    let misses: u64 = scenario.iter().map(|p| p.arena_misses).sum();
    // The traced pass runs on one worker: compare it with an untraced
    // single-worker runner pass.
    let untraced_one_worker = if plan.threads == 1 {
        median(&runner.iter().map(|p| p.wall_s).collect::<Vec<_>>())
    } else {
        cross.wall_s
    };

    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("harness.scenarios".into(), scenarios, "count"),
        ("harness.resolve_ms".into(), ms(resolve_ns), "ms"),
        (
            "harness.arena_hit_ratio".into(),
            ratio(hits as f64, (hits + misses) as f64),
            "frac",
        ),
        ("harness.aggregate_ms".into(), ms(aggregate_ns), "ms"),
        ("harness.self_ms".into(), layer_self("harness"), "ms"),
        ("stopwatch-core.build_ms".into(), ms(build_ns), "ms"),
        ("stopwatch-core.teardown_ms".into(), ms(cloud_drop_ns), "ms"),
        (
            "stopwatch-core.ingress_packets".into(),
            c("ingress_packets"),
            "count",
        ),
        (
            "stopwatch-core.client_packets".into(),
            c("client_packets"),
            "count",
        ),
        (
            "stopwatch-core.egress_forwarded".into(),
            c("egress_forwarded"),
            "count",
        ),
        ("stopwatch-core.broadcasts".into(), c("broadcasts"), "count"),
        ("simkit.events".into(), events as f64, "count"),
        ("simkit.run_ms".into(), ms(run_ns), "ms"),
        ("simkit.teardown_ms".into(), ms(engine_drop_ns), "ms"),
        (
            "simkit.ns_per_event".into(),
            ratio(run_ns as f64, events as f64),
            "ns",
        ),
    ];
    for family in plans::FAMILIES {
        let (ns, ev) = runs
            .iter()
            .filter(|r| plans::family(r.0) == family)
            .fold((0u64, 0u64), |(ns, ev), r| (ns + r.2, ev + r.1));
        m.push((
            format!("simkit.ns_per_event.{family}"),
            ratio(ns as f64, ev as f64),
            "ns",
        ));
    }
    m.extend([
        ("netsim.net_irq".into(), c("net_irq"), "count"),
        ("netsim.pgm_naks".into(), c("pgm_naks"), "count"),
        (
            "netsim.goodput".into(),
            ratio(useful_packets(t), c("client_packets")),
            "frac",
        ),
        ("vmm.proposals_sent".into(), proposals, "count"),
        ("vmm.cache_probes".into(), c("cache_probes"), "count"),
        (
            "vmm.cache_hit_ratio".into(),
            ratio(c("cache_hits"), c("cache_hits") + c("cache_misses")),
            "frac",
        ),
        ("vmm.vtimer_irq".into(), c("vtimer_irq"), "count"),
        ("vmm.timer_arms".into(), c("timer_arms"), "count"),
        (
            "vmm.sched_preemptions".into(),
            c("sched_preemptions"),
            "count",
        ),
        ("vmm.stalls".into(), c("stalls"), "count"),
        (
            "vmm.violation_ratio".into(),
            ratio(violations, proposals),
            "frac",
        ),
        ("storage.disk_irq".into(), c("disk_irq"), "count"),
        ("workloads.collect_ms".into(), ms(collect_ns), "ms"),
        ("workloads.completed".into(), completed as f64, "count"),
        ("workloads.timeouts".into(), timeouts as f64, "count"),
        (
            "alloc.setup_per_scenario".into(),
            ratio((resolve_allocs + build_allocs) as f64, scenarios),
            "count",
        ),
        (
            "alloc.run_per_event".into(),
            ratio(run_allocs as f64, events as f64),
            "count",
        ),
        (
            "tracing.overhead_frac".into(),
            ratio(t.wall_s, untraced_one_worker) - 1.0,
            "frac",
        ),
    ]);
    m
}

/// The simulated outputs the paper reports, from the first pass:
/// StopWatch ÷ baseline median latency per figure (the median over the
/// figure's cell pairs), and the TIGHT/LEAKY verdict counts.
fn sim_outputs(
    plan: &Plan,
    reports: &[harness::prelude::SweepReport],
) -> Vec<(String, f64, &'static str)> {
    let overhead = |sweeps: &[&str], workload: Option<&str>| {
        let mut ratios = Vec::new();
        for r in reports.iter().filter(|r| sweeps.contains(&r.name.as_str())) {
            for sw in r.cells.iter().filter(|c| c.defense == "stopwatch") {
                if workload.is_some_and(|w| w != sw.workload) {
                    continue;
                }
                let twin = |c: &&harness::prelude::CellAggregate| {
                    c.defense == "baseline"
                        && c.params.len() == sw.params.len()
                        && c.params
                            .iter()
                            .zip(&sw.params)
                            .all(|((k, v), (k2, v2))| k == k2 && (v == v2 || k == "cfg.defense"))
                };
                if let Some(bl) = r.cells.iter().find(twin) {
                    ratios.push(ratio(sw.latency_ms.p50, bl.latency_ms.p50));
                }
            }
        }
        median(&ratios)
    };
    let verdicts = |leaky: bool| {
        reports
            .iter()
            .flat_map(|r| &r.leakage)
            .filter(|v| v.distinguishable_at_95 == leaky)
            .count() as f64
    };
    let figs = plan.name == "paper-figs";
    let fig = |sweeps: &[&str], workload: Option<&str>| {
        if figs {
            overhead(sweeps, workload)
        } else {
            0.0
        }
    };
    vec![
        (
            "sim.fig5_http_overhead_x".into(),
            fig(&["fig5", "fig5-10mb"], Some("web-http")),
            "x",
        ),
        (
            "sim.fig5_udp_overhead_x".into(),
            fig(&["fig5", "fig5-10mb"], Some("web-udp")),
            "x",
        ),
        ("sim.fig6_overhead_x".into(), fig(&["fig6"], None), "x"),
        ("sim.fig7_overhead_x".into(), fig(&["fig7"], None), "x"),
        ("sim.tight_cells".into(), verdicts(false), "count"),
        ("sim.leaky_cells".into(), verdicts(true), "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let ok = parse_args(&argv(
            "--workload seed-fanout --seed 7 --seconds 10 --trace 1",
        ));
        assert_eq!(
            ok,
            Ok(Args {
                workload: "seed-fanout".into(),
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload seed-fanout --seed 1 --seconds 0 --trace 0",
            "--workload seed-fanout --seed x --seconds 1 --trace 0",
            "--workload seed-fanout --seed 1 --seconds 1 --trace 2",
            "--workload seed-fanout --seed 1 --seconds 1",
            "--workload seed-fanout --seed 1 --seed 2 --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }
}
