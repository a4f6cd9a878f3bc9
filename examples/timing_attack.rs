//! The Fig. 4 security experiment as a runnable example: an attacker VM
//! measures inter-packet virtual delivery times while a victim VM shares
//! one of its hosts. Runs the `attack` preset (`swbench run attack`) and
//! prints how many observations an attacker would need to detect the
//! victim, with and without StopWatch.
//!
//! Run with: `cargo run --release --example timing_attack [--quick]`

use stopwatch_repro::harness::prelude::*;
use stopwatch_repro::prelude::*;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = preset("attack").expect("attack preset").spec(quick);
    let scenarios = spec.scenarios().expect("spec expands");
    println!(
        "running {} scenarios (this simulates minutes of cloud time)...",
        scenarios.len()
    );
    let outcomes = run_scenarios(&scenarios, &RunnerOptions::default());
    let report = SweepReport::from_outcomes(&spec.name, &outcomes, None);
    let deltas = |defense: &str, victim: bool| -> &[f64] {
        let cell = format!("cfg.defense={defense},victim={victim}");
        let c = report.cells.iter().find(|c| c.cell == cell);
        c.unwrap_or_else(|| panic!("missing cell {cell}"))
            .samples
            .as_slice()
    };
    let (bl_null, bl_victim) = (deltas("baseline", false), deltas("baseline", true));
    let (sw_null, sw_victim) = (deltas("stopwatch", false), deltas("stopwatch", true));

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!("\nmean inter-packet delta observed by the attacker (ms):");
    println!("  baseline  no victim: {:8.3}", mean(bl_null));
    println!("  baseline  w/ victim: {:8.3}", mean(bl_victim));
    println!("  stopwatch no victim: {:8.3}", mean(sw_null));
    println!("  stopwatch w/ victim: {:8.3}", mean(sw_victim));

    let sw = Detector::from_samples(sw_null, sw_victim, 10);
    let bl = Detector::from_samples(bl_null, bl_victim, 10);
    println!("\nobservations needed to detect the victim (chi-square):");
    println!("confidence   without StopWatch   with StopWatch");
    for c in [0.70, 0.80, 0.90, 0.95, 0.99] {
        println!(
            "{c:10.2}   {:17}   {:14}",
            bl.observations_needed(c),
            sw.observations_needed(c)
        );
    }
}
