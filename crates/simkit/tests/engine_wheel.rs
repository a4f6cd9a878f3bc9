//! Differential tests: the default run loop, whose queue is a sorted
//! near-run in front of a hierarchical time-wheel, is observationally
//! identical to the scalar binary-heap reference.
//!
//! The default engine (`Sim::run_until`) and the scalar reference
//! (`set_scalar_reference(true)`) must execute the exact same event
//! sequence for any schedule — that equivalence is what lets every
//! downstream determinism test diff the two. These tests feed the
//! engine schedules biased toward the cases where the queue's
//! bookkeeping could diverge from a heap's total order:
//!
//! * dense same-timestamp bursts (the wheel's bucket sort, and same-time
//!   inserts at the back of the run);
//! * timestamps spread across L0 slots, upper wheel levels, and the
//!   beyond-top-window overflow list (re-homed as the cursor advances);
//! * pending sets that grow past the run's bound (its later half spills
//!   into the wheel), drain back (the run pulls from the wheel) and return
//!   to run-only, over and over;
//! * bursts right after a pull, which has moved the wheel's cursor past
//!   `now`: a spill then must not file anything behind the cursor;
//! * a storm of 100k monotone arrivals with near-future re-inserts;
//! * cancellations, whose tombstones must still advance time identically;
//! * handlers that schedule children at `now` (lane fast path) and in the
//!   near future while the loop is draining;
//! * mid-run engine-mode flips, which migrate pending events between the
//!   batched queue and the heap in both directions, including while both
//!   the run and the wheel hold entries.
//!
//! Each observation is `(now at execution, tag)`; the full logs must match
//! element for element.

use proptest::prelude::*;
use simkit::prelude::*;

#[derive(Default)]
struct Trace {
    log: Vec<(u64, u32)>,
}

/// A traced event: log `tag`, then optionally spawn a child.
#[derive(Clone, Copy)]
enum Ev {
    /// Log only.
    Plain(u32),
    /// Log, then schedule a same-timestamp child tagged `tag + 1_000_000`.
    SameTimeChild(u32),
    /// Log, then schedule a child `delta` ns later tagged `tag + 2_000_000`.
    LaterChild(u32, u64),
    /// Log, then schedule `n` children scattered over `(now, now + span]`
    /// (every third one a `LaterChild`, re-inserting while the burst
    /// drains) and, while `rounds` remain, the next burst after them all.
    Burst {
        tag: u32,
        n: u32,
        span: u64,
        rounds: u32,
    },
}

impl World for Trace {
    type Event = Ev;
    fn handle(&mut self, sim: &mut Sim<Self>, event: Ev) {
        let now = sim.now();
        match event {
            Ev::Plain(tag) => self.log.push((now.as_nanos(), tag)),
            Ev::SameTimeChild(tag) => {
                self.log.push((now.as_nanos(), tag));
                sim.schedule(now, Ev::Plain(tag + 1_000_000));
            }
            Ev::LaterChild(tag, delta) => {
                self.log.push((now.as_nanos(), tag));
                sim.schedule_in(SimDuration::from_nanos(delta), Ev::Plain(tag + 2_000_000));
            }
            Ev::Burst {
                tag,
                n,
                span,
                rounds,
            } => {
                self.log.push((now.as_nanos(), tag));
                for k in 0..n {
                    let at = now + SimDuration::from_nanos(1 + u64::from(k) * 7919 % span);
                    let child = tag + 1 + k;
                    if k % 3 == 0 {
                        sim.schedule(at, Ev::LaterChild(child, 1 + u64::from(k) % 200));
                    } else {
                        sim.schedule(at, Ev::Plain(child));
                    }
                }
                if rounds > 0 {
                    let next = Ev::Burst {
                        tag: tag + n + 1,
                        n,
                        span,
                        rounds: rounds - 1,
                    };
                    sim.schedule_in(SimDuration::from_nanos(span + 1000), next);
                }
            }
        }
    }
}

/// Maps one raw draw to a timestamp in a wheel-hostile distribution.
fn time_for(sel: u64) -> SimTime {
    SimTime::from_nanos(match sel % 4 {
        // A handful of hot timestamps inside one L0 slot: same-timestamp
        // bursts plus same-slot different-timestamp ordering.
        0 => 4096 + (sel >> 2) % 3,
        // Near future: spreads across L0 slots.
        1 => (sel >> 2) % (1 << 16),
        // Mid future: climbs the upper wheel levels.
        2 => (sel >> 2) % (1 << 24),
        // Beyond the top window: lands on the overflow list and must be
        // re-homed when the cursor's window crosses it.
        _ => (1 << 36) + (sel >> 2) % (1 << 38),
    })
}

/// Applies one (sel, kind) op: schedule a plain event, an event that
/// spawns a same-time or near-future child, or cancel an earlier event.
fn apply_op(sim: &mut Sim<Trace>, ids: &mut Vec<EventId>, tag: u32, sel: u64, kind: u64) {
    let at = time_for(sel);
    match kind % 8 {
        0 if !ids.is_empty() => {
            let pick = ids[(sel as usize) % ids.len()];
            sim.cancel(pick);
        }
        // Parent logs, then schedules a same-timestamp child: it must run
        // after every event already due at that time.
        1 => ids.push(sim.schedule(at, Ev::SameTimeChild(tag))),
        // Near-future child scheduled while the loop is draining.
        2 => ids.push(sim.schedule(at, Ev::LaterChild(tag, 1 + sel % 5_000))),
        _ => ids.push(sim.schedule(at, Ev::Plain(tag))),
    }
}

/// Builds the schedule from `ops` and runs it to completion in one mode.
fn run_trace(ops: &[(u64, u64)], scalar: bool) -> Vec<(u64, u32)> {
    let mut sim: Sim<Trace> = Sim::new();
    sim.set_scalar_reference(scalar);
    let mut world = Trace::default();
    let mut ids = Vec::new();
    for (i, &(sel, kind)) in ops.iter().enumerate() {
        apply_op(&mut sim, &mut ids, i as u32, sel, kind);
    }
    sim.run(&mut world);
    assert_eq!(sim.pending(), 0, "run() drains everything");
    world.log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wheel_and_scalar_heap_execute_identical_orders(
        ops in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..120),
    ) {
        let batched = run_trace(&ops, false);
        let scalar = run_trace(&ops, true);
        prop_assert_eq!(batched, scalar);
    }

    #[test]
    fn mode_flips_mid_run_preserve_the_order(
        ops in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..80),
        flip_a in 0u64..40,
        flip_b in 0u64..40,
    ) {
        // Reference: the whole trace in scalar mode.
        let reference = run_trace(&ops, true);

        // Same schedule, but the engine flips batched -> scalar -> batched
        // while events are in flight; each flip migrates the pending set.
        let mut sim: Sim<Trace> = Sim::new();
        let mut world = Trace::default();
        let mut ids = Vec::new();
        for (i, &(sel, kind)) in ops.iter().enumerate() {
            apply_op(&mut sim, &mut ids, i as u32, sel, kind);
        }
        sim.step(&mut world, flip_a);
        sim.set_scalar_reference(true);
        sim.step(&mut world, flip_b);
        sim.set_scalar_reference(false);
        sim.run(&mut world);
        prop_assert_eq!(world.log, reference);
    }
}

/// Runs a fixed initial schedule to completion in one mode.
fn run_schedule(initial: &[(SimTime, Ev)], scalar: bool) -> Vec<(u64, u32)> {
    let mut sim: Sim<Trace> = Sim::new();
    sim.set_scalar_reference(scalar);
    let mut world = Trace::default();
    for &(at, ev) in initial {
        sim.schedule(at, ev);
    }
    sim.run(&mut world);
    assert_eq!(sim.pending(), 0, "run() drains everything");
    world.log
}

/// Asserts the default loop replays the scalar order on `initial`.
fn assert_parity(initial: &[(SimTime, Ev)], min_events: usize) {
    let batched = run_schedule(initial, false);
    assert!(
        batched.len() >= min_events,
        "only {} events ran",
        batched.len()
    );
    assert_eq!(batched, run_schedule(initial, true));
}

#[test]
fn bursts_spill_past_the_run_bound_and_return_to_run_only_repeatedly() {
    // Each round: one event fans out to 150 children (the run overflows
    // and spills), they drain (the run pulls the rest back), and only the
    // next round's burst is left pending (run-only again).
    let burst = Ev::Burst {
        tag: 0,
        n: 150,
        span: 300_000,
        rounds: 30,
    };
    assert_parity(&[(SimTime::from_nanos(10), burst)], 31 * 200);
}

#[test]
fn bursts_right_after_a_pull_spill_without_filing_behind_the_cursor() {
    // 400 events 1 µs apart: the run spills at its bound and later pulls
    // from the wheel, which moves the wheel's cursor up to tens of µs
    // past `now`. Every tenth event then bursts 80 children into the
    // next 100 ns, i.e. between `now` and that cursor, overfilling the
    // run while the wheel still holds work.
    let initial: Vec<(SimTime, Ev)> = (1..=400u32)
        .map(|i| {
            let at = SimTime::from_nanos(u64::from(i) * 1000);
            let ev = if i % 10 == 0 {
                Ev::Burst {
                    tag: i * 1000,
                    n: 80,
                    span: 100,
                    rounds: 0,
                }
            } else {
                Ev::Plain(i)
            };
            (at, ev)
        })
        .collect();
    assert_parity(&initial, 400 + 40 * 80);
}

#[test]
fn a_storm_of_monotone_arrivals_with_near_future_reinserts() {
    // 100k arrivals 250 ns apart, scheduled in time order; each spawns a
    // child 1–3000 ns later, landing among arrivals not yet run.
    let initial: Vec<(SimTime, Ev)> = (0..100_000u32)
        .map(|i| {
            let at = SimTime::from_nanos(u64::from(i) * 250);
            (at, Ev::LaterChild(i, 1 + u64::from(i) * 7 % 3000))
        })
        .collect();
    assert_parity(&initial, 200_000);
}

#[test]
fn mode_flips_while_the_run_and_the_wheel_both_hold_entries() {
    // 300 scattered events keep the pending set far above the run's
    // bound, so every flip migrates entries out of both tiers.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let initial: Vec<(SimTime, Ev)> = (0..300u32)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = SimTime::from_nanos(x % 2_000_000);
            let ev = match i % 4 {
                0 => Ev::LaterChild(i, 1 + x % 50_000),
                1 => Ev::SameTimeChild(i),
                _ => Ev::Plain(i),
            };
            (at, ev)
        })
        .collect();
    let reference = run_schedule(&initial, true);
    for steps in [1u64, 7, 40, 90] {
        let mut sim: Sim<Trace> = Sim::new();
        let mut world = Trace::default();
        for &(at, ev) in &initial {
            sim.schedule(at, ev);
        }
        let mut scalar = false;
        while sim.pending() > 0 {
            sim.step(&mut world, steps);
            scalar = !scalar;
            sim.set_scalar_reference(scalar);
        }
        assert_eq!(world.log, reference, "flipping every {steps} events");
    }
}
