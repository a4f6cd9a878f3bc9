//! Property tests: the hierarchical time-wheel run loop is observationally
//! identical to the scalar binary-heap reference.
//!
//! The batched engine (`Sim::run_until`) and the scalar reference
//! (`set_scalar_reference(true)`) must execute the exact same event
//! sequence for any schedule — that equivalence is what lets every
//! downstream determinism test diff the two. These properties feed the
//! engine randomized schedules biased toward the cases where the wheel's
//! bookkeeping could diverge from a heap's total order:
//!
//! * dense same-timestamp bursts (the wheel's bucket sort + FIFO lane);
//! * timestamps spread across L0 slots, upper wheel levels, and the
//!   beyond-top-window overflow list (re-homed as the cursor advances);
//! * cancellations, whose tombstones must still advance time identically;
//! * handlers that schedule children at `now` (lane fast path) and in the
//!   near future while the loop is draining;
//! * mid-run engine-mode flips, which migrate pending events between the
//!   wheel and the heap in both directions.
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
        // Parent logs, then schedules a same-timestamp child: it must
        // join the in-flight batch at the back of the lane.
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
