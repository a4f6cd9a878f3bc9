//! The noise-free work-count gate on the run phase: heap allocations per
//! executed event.
//!
//! Events are typed values dispatched by `match` ([`CloudEvent`]), their
//! large payloads live in recycled slabs, and the per-event paths reuse
//! scratch buffers, so a steady-state run allocates only where a workload
//! genuinely creates data (disk reads, packets, guest bookkeeping). This
//! test counts allocations with its own global allocator while one
//! StopWatch 3-replica scenario of each of the cache, disk and timer
//! channels and web-http runs, and pins two properties:
//!
//! * run-phase allocations ÷ `events_executed` ≤ [`MAX_ALLOCS_PER_EVENT`];
//! * the count is exactly repeatable (it is a work count, not a timing)
//!   once a warm-up run has paid the process's one-time initialisations.
//!
//! The counter is per thread, so tests running in parallel on other
//! threads do not leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harness::prelude::*;
use simkit::time::{SimDuration, SimTime};
use stopwatch_core::cloud::CloudEvent;

/// The gate. Boxed per-event closures cost ~2 allocations per event, and
/// transport or client output vectors built per call put web-http at
/// ~0.33; with both gone web-http runs at ~0.16, so either coming back
/// fails here.
const MAX_ALLOCS_PER_EVENT: f64 = 0.3;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    // `try_with` fails only during thread teardown; such an allocation
    // goes uncounted rather than aborting.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only a `Copy` thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: `ptr`/`layout` came from `System`; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn scenario(workload: &str, params: &[(&str, &str)], overrides: &[(&str, &str)]) -> Scenario {
    let mut s = Scenario::new(workload, 7);
    s.workload_params = params
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    s.overrides = [
        ("defense", "stopwatch"),
        ("replicas", "3"),
        ("broadcast_band", "off"),
    ]
    .iter()
    .chain(overrides)
    .map(|&(k, v)| (k.to_string(), v.to_string()))
    .collect();
    s.duration = SimDuration::from_secs(120);
    s
}

fn gated_scenarios() -> Vec<Scenario> {
    let rotating = [
        ("disk", "rotating"),
        ("delta_d_ms", "25"),
        ("image_blocks", "16000000"),
    ];
    vec![
        scenario("cache-channel", &[("rounds", "20")], &rotating),
        scenario("disk-channel", &[("rounds", "20")], &rotating),
        scenario("timer-channel", &[("rounds", "20")], &rotating),
        scenario(
            "web-http",
            &[("bytes", "30000"), ("downloads", "2")],
            &[("disk", "ssd")],
        ),
    ]
}

/// Runs the scenario's run phase the way the sweep runner does; returns
/// `(allocations during it, events executed)`.
fn run_phase(s: &Scenario) -> (u64, u64) {
    let (mut sim, _workload) = s.build().expect("scenario builds");
    let before = allocs();
    let finished = sim.run_until_clients_done(SimTime::ZERO + s.duration);
    sim.run_until(finished + s.drain);
    let spent = allocs() - before;
    assert!(sim.error().is_none(), "{}: {:?}", s.label, sim.error());
    assert!(sim.cloud.clients_done(), "{}: clients unfinished", s.label);
    (spent, sim.sim.events_executed())
}

/// Allocations per event kind over the first `events` events, stepping
/// one event at a time — the diagnosis printed when the gate trips.
fn per_kind(s: &Scenario, events: u64) -> String {
    let (mut sim, _workload) = s.build().expect("scenario builds");
    let mut by_kind = [0u64; CloudEvent::KINDS];
    for _ in 0..events {
        let counts = *sim.event_counts();
        let before = allocs();
        if sim.sim.step(&mut sim.cloud, 1) == 0 {
            break;
        }
        let spent = allocs() - before;
        let kind = (0..CloudEvent::KINDS)
            .find(|&k| sim.event_counts()[k] != counts[k])
            .expect("the stepped event was counted");
        by_kind[kind] += spent;
    }
    let counts = *sim.event_counts();
    CloudEvent::KIND_NAMES
        .iter()
        .zip(counts.iter().zip(by_kind))
        .filter(|(_, (&n, _))| n > 0)
        .map(|(name, (n, a))| format!("{name}: {n} events, {a} allocs"))
        .collect::<Vec<_>>()
        .join("; ")
}

#[test]
fn run_phase_allocations_per_event_stay_gated_and_repeat_exactly() {
    for s in gated_scenarios() {
        // One warm-up run first: it also pays the process's one-time lazy
        // initialisations, which are no per-event cost.
        run_phase(&s);
        let (allocs, events) = run_phase(&s);
        assert!(events > 1_000, "{}: only {events} events", s.label);
        let per_event = allocs as f64 / events as f64;
        assert!(
            per_event <= MAX_ALLOCS_PER_EVENT,
            "{}: {per_event:.3} allocations per event ({allocs} / {events}); by kind: {}",
            s.label,
            per_kind(&s, events)
        );
        assert_eq!(
            run_phase(&s),
            (allocs, events),
            "{}: allocation count must repeat exactly",
            s.label
        );
    }
}
