//! The Fig. 7 scenario as a runnable example: run one PARSEC application
//! over unmodified Xen and over StopWatch and print the overhead, next to
//! the paper's measurements.
//!
//! Run with: `cargo run --release --example parsec_compute [app]`
//! Apps: ferret blackscholes canneal dedup streamcluster

use stopwatch_repro::prelude::*;
use workloads::parsec::profile;

fn run(name: &str, stopwatch: bool) -> (f64, u64) {
    let prof = profile(name).expect("known application");
    let cfg = CloudConfig {
        broadcast_band: None,
        ..CloudConfig::default()
    };
    let mut builder = CloudBuilder::new(cfg, 3);
    let monitor = EndpointId(2000);
    let vm = if stopwatch {
        builder.add_stopwatch_vm(&[0, 1, 2], move || {
            Box::new(ParsecGuest::new(prof, monitor))
        })
    } else {
        builder.add_baseline_vm(0, Box::new(ParsecGuest::new(prof, monitor)))
    };
    let client = builder.add_client(Box::new(CompletionWaiter::new(1)));
    let mut sim = builder.build();
    sim.run_until_clients_done(SimTime::from_secs(120));
    let done = sim
        .cloud
        .client_app::<CompletionWaiter>(client)
        .unwrap()
        .arrivals()[0];
    let (h, s) = sim.cloud.vm_replicas(vm)[0];
    let irqs = sim.cloud.host(h).slot(s).counters().get("disk_irq");
    (done.as_millis_f64(), irqs)
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ferret".into());
    let prof = profile(&name).expect("app must be one of the five PARSEC profiles");
    println!("running {name} (baseline, then 3-replica StopWatch)...");
    let (base, _) = run(&name, false);
    let (sw, irqs) = run(&name, true);
    println!(
        "\n{name}: baseline {base:8.1} ms | stopwatch {sw:8.1} ms | ratio {:.2}x",
        sw / base
    );
    println!(
        "paper:   baseline {:8} ms | stopwatch {:8} ms | ratio {:.2}x",
        prof.paper_baseline_ms,
        prof.paper_stopwatch_ms,
        prof.paper_stopwatch_ms as f64 / prof.paper_baseline_ms as f64
    );
    println!("disk interrupts: {irqs} (paper: {})", prof.disk_interrupts);
}
