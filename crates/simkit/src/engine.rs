//! The discrete-event simulation engine.
//!
//! [`Sim<W>`] owns a priority queue of scheduled events. Events are plain
//! values of the world's closed event type ([`World::Event`]); the engine
//! hands each one back to [`World::handle`], which dispatches it by `match`
//! and may schedule more. Nothing is boxed: a queued entry is its
//! `(at, seq)` key plus the event value, so a steady-state run allocates
//! nothing per event. Ties at equal timestamps are broken by scheduling
//! order, making every run fully deterministic — a property the StopWatch
//! reproduction leans on heavily (replica determinism is part of the
//! defense itself).
//!
//! # One queue: a sorted run in front of a time-wheel
//!
//! The default run loop pops one event at a time from
//! `crate::wheel::Queue`, a sorted run in front of a hierarchical
//! time-wheel. The simulator's pending set is usually a handful of
//! entries, which the run holds on its own: an insert is a binary search
//! plus a short memmove, a pop is a `Vec::pop`, and an event scheduled at
//! `now` lands at the back, behind the other entries due now. Past 64
//! entries the run's later half spills into the wheel (O(1) filing,
//! occupancy-bitmap scans, pooled buckets) and is pulled back one stretch
//! at a time as the run empties, so a queue of a million entries keeps
//! O(1) inserts. Steady-state runs perform no queue allocations. The
//! scalar reference loop keeps the original binary heap; both store the
//! same `(at, seq, event)` entries and dispatch through the same
//! [`World::handle`].
//!
//! The queue changes only *where* events wait, never *when* or in what
//! order they run: the execution order is identical to the scalar
//! binary-heap loop, which is retained as [`Sim::set_scalar_reference`]
//! so differential tests can prove it. Switching modes migrates the
//! pending events between the two queues; their `(at, seq)` keys restore
//! the exact order either way. Because both loops pop in that one global
//! order, an [`EventId`] (which carries its event's key) tells whether
//! the event already ran.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::fxhash::FxHashSet;
use crate::time::{SimDuration, SimTime};
use crate::wheel::Queue;

/// Identifier of a scheduled event, usable for cancellation. It carries
/// the event's `(at, seq)` key, which tells the engine whether the event
/// has already run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    at: SimTime,
    seq: u64,
}

/// A simulation world: the state events act on, and the dispatcher of its
/// own closed event set.
pub trait World: Sized {
    /// Everything this world can schedule. It is stored inline in every
    /// queue entry, so keep it small: park large payloads in the world and
    /// carry an index.
    type Event;

    /// Runs one event at `sim.now()`; may schedule or cancel others.
    fn handle(&mut self, sim: &mut Sim<Self>, event: Self::Event);
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, then FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulation executor.
///
/// # Examples
///
/// ```
/// use simkit::engine::{Sim, World};
/// use simkit::time::{SimDuration, SimTime};
///
/// #[derive(Default)]
/// struct Log(Vec<u64>);
///
/// enum Ev {
///     Record(u64),
///     RecordThenLater(u64),
/// }
///
/// impl World for Log {
///     type Event = Ev;
///     fn handle(&mut self, sim: &mut Sim<Self>, event: Ev) {
///         match event {
///             Ev::Record(x) => self.0.push(x),
///             Ev::RecordThenLater(x) => {
///                 self.0.push(x);
///                 sim.schedule_in(SimDuration::from_millis(5), Ev::Record(6));
///             }
///         }
///     }
/// }
///
/// let mut sim: Sim<Log> = Sim::new();
/// let mut world = Log::default();
/// sim.schedule_in(SimDuration::from_millis(2), Ev::Record(2));
/// sim.schedule_in(SimDuration::from_millis(1), Ev::RecordThenLater(1));
/// sim.run(&mut world);
/// assert_eq!(world.0, vec![1, 2, 6]);
/// assert_eq!(sim.now(), SimTime::from_millis(6));
/// ```
pub struct Sim<W: World> {
    now: SimTime,
    next_seq: u64,
    /// Scalar-reference queue: only populated in scalar mode.
    queue: BinaryHeap<Scheduled<W::Event>>,
    /// Default-mode queue: a sorted near-run in front of a hierarchical
    /// time-wheel.
    future: Queue<W::Event>,
    cancelled: FxHashSet<u64>,
    /// The smallest `(at, seq)` that has not been dispatched or dropped.
    /// Both loops pop in global `(at, seq)` order, so every key below it
    /// is done.
    undone_from: (SimTime, u64),
    executed: u64,
    /// Run the binary-heap reference loop instead (differential
    /// reference; see [`Sim::set_scalar_reference`]).
    scalar_reference: bool,
}

impl<W: World> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: World> Sim<W> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
            future: Queue::new(),
            cancelled: FxHashSet::default(),
            undone_from: (SimTime::ZERO, 0),
            executed: 0,
            scalar_reference: false,
        }
    }

    /// Switches between the default run loop (sorted run + time-wheel)
    /// and the scalar binary-heap reference loop. The two execute
    /// identical event orders; the scalar path exists so determinism tests
    /// can diff the default engine against it.
    ///
    /// Pending events migrate between the two queues in both directions —
    /// their `(at, seq)` keys restore their exact place, so flipping the
    /// mode never reorders anything.
    pub fn set_scalar_reference(&mut self, scalar: bool) {
        if scalar && !self.scalar_reference {
            let queue = &mut self.queue;
            self.future.drain_all(&mut |at, seq, event| {
                queue.push(Scheduled {
                    at: SimTime::from_nanos(at),
                    seq,
                    event,
                });
            });
        } else if !scalar && self.scalar_reference {
            for ev in std::mem::take(&mut self.queue) {
                self.future.insert(ev.at.as_nanos(), ev.seq, ev.event);
            }
        }
        self.scalar_reference = scalar;
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled tombstones).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.future.len()
    }

    /// Schedules `event` to run at absolute time `at`.
    ///
    /// Events scheduled for a time earlier than `now` run "immediately" (at
    /// `now`): the engine never moves time backwards.
    pub fn schedule(&mut self, at: SimTime, event: W::Event) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.scalar_reference {
            self.queue.push(Scheduled { at, seq, event });
        } else {
            self.future.insert(at.as_nanos(), seq, event);
        }
        EventId { at, seq }
    }

    /// Schedules `event` to run `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) -> EventId {
        self.schedule(self.now + delay, event)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet run: it is dropped unrun
    /// when its time comes. Cancelling an already-executed event returns
    /// `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.seq >= self.next_seq || (id.at, id.seq) < self.undone_from {
            return false;
        }
        self.cancelled.insert(id.seq)
    }

    /// Marks the popped event `(at, seq)` done and reports whether it
    /// carries a cancellation tombstone (consuming it). The empty-set
    /// check keeps the no-cancellations case a branch, not a hash probe
    /// per event.
    fn pop_done(&mut self, at: SimTime, seq: u64) -> bool {
        self.undone_from = (at, seq + 1);
        !self.cancelled.is_empty() && self.cancelled.remove(&seq)
    }

    /// Runs events until the queue is empty; returns the final time.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        self.run_until(world, SimTime::MAX)
    }

    /// Runs events with timestamps `<= deadline`; time stops at the deadline
    /// (or at the last event, whichever is earlier). Returns the final time.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> SimTime {
        if self.scalar_reference {
            return self.run_until_scalar(world, deadline);
        }
        while let Some(t_nanos) = self.future.next_at() {
            let t = SimTime::from_nanos(t_nanos);
            if t > deadline {
                self.now = deadline;
                return self.now;
            }
            debug_assert!(t >= self.now, "event queue went backwards");
            let (_, seq, event) = self.future.pop().expect("next_at saw an entry");
            self.now = t;
            if self.pop_done(t, seq) {
                continue;
            }
            self.executed += 1;
            world.handle(self, event);
        }
        self.now
    }

    /// The scalar loop: pops one event per heap operation. Kept as the
    /// differential-testing reference for the default [`Sim::run_until`];
    /// only runs events scheduled in scalar mode.
    fn run_until_scalar(&mut self, world: &mut W, deadline: SimTime) -> SimTime {
        while let Some(head) = self.queue.peek() {
            if head.at > deadline {
                self.now = deadline.min(head.at);
                return self.now;
            }
            let ev = self.queue.pop().expect("peeked entry must pop");
            debug_assert!(ev.at >= self.now, "event queue went backwards");
            self.now = ev.at;
            if self.pop_done(ev.at, ev.seq) {
                continue;
            }
            self.executed += 1;
            world.handle(self, ev.event);
        }
        self.now
    }

    /// Runs at most `n` (non-cancelled) events; returns how many ran.
    pub fn step(&mut self, world: &mut W, n: u64) -> u64 {
        let mut ran = 0;
        while ran < n {
            let (at, seq, event) = if self.scalar_reference {
                let Some(ev) = self.queue.pop() else { break };
                (ev.at, ev.seq, ev.event)
            } else {
                let Some((at, seq, event)) = self.future.pop() else {
                    break;
                };
                (SimTime::from_nanos(at), seq, event)
            };
            self.now = at;
            if self.pop_done(at, seq) {
                continue;
            }
            self.executed += 1;
            ran += 1;
            world.handle(self, event);
        }
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every event value it runs.
    #[derive(Default)]
    struct Log(Vec<u32>);

    impl World for Log {
        type Event = u32;
        fn handle(&mut self, _sim: &mut Sim<Self>, event: u32) {
            self.0.push(event);
        }
    }

    #[test]
    fn runs_in_time_order() {
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Log::default();
        sim.schedule(SimTime::from_millis(30), 3);
        sim.schedule(SimTime::from_millis(10), 1);
        sim.schedule(SimTime::from_millis(20), 2);
        sim.run(&mut w);
        assert_eq!(w.0, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_run_fifo() {
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Log::default();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            sim.schedule(t, i);
        }
        sim.run(&mut w);
        assert_eq!(w.0, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling() {
        #[derive(Default)]
        struct Nest(Vec<&'static str>);
        enum Ev {
            Outer,
            Inner,
            Late,
        }
        impl World for Nest {
            type Event = Ev;
            fn handle(&mut self, sim: &mut Sim<Self>, event: Ev) {
                match event {
                    Ev::Outer => {
                        self.0.push("outer");
                        sim.schedule_in(SimDuration::from_millis(1), Ev::Inner);
                    }
                    Ev::Inner => self.0.push("inner"),
                    Ev::Late => self.0.push("late"),
                }
            }
        }
        let mut sim: Sim<Nest> = Sim::new();
        let mut w = Nest::default();
        sim.schedule_in(SimDuration::from_millis(1), Ev::Outer);
        sim.schedule_in(SimDuration::from_millis(3), Ev::Late);
        sim.run(&mut w);
        assert_eq!(w.0, vec!["outer", "inner", "late"]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Log::default();
        let id = sim.schedule(SimTime::from_millis(1), 1);
        sim.schedule(SimTime::from_millis(2), 2);
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        sim.run(&mut w);
        assert_eq!(w.0, vec![2]);
        assert_eq!(sim.events_executed(), 1);
    }

    #[test]
    fn cancel_works_on_staged_same_time_events() {
        // An event scheduled at `now` must still honour cancellation.
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Log::default();
        let id = sim.schedule(SimTime::ZERO, 1);
        sim.schedule(SimTime::ZERO, 2);
        assert!(sim.cancel(id));
        sim.run(&mut w);
        assert_eq!(w.0, vec![2]);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim: Sim<Log> = Sim::new();
        assert!(!sim.cancel(EventId {
            at: SimTime::ZERO,
            seq: 42
        }));
    }

    #[test]
    fn cancel_after_run_is_false_and_leaves_no_tombstone() {
        for scalar in [false, true] {
            let mut sim: Sim<Log> = Sim::new();
            sim.set_scalar_reference(scalar);
            let mut w = Log::default();
            let ran = sim.schedule(SimTime::from_millis(1), 1);
            let dropped = sim.schedule(SimTime::from_millis(2), 2);
            let tied = sim.schedule(SimTime::from_millis(2), 3);
            assert!(sim.cancel(dropped));
            sim.run(&mut w);
            assert_eq!(w.0, vec![1, 3]);
            assert!(!sim.cancel(ran), "executed events are not cancellable");
            assert!(!sim.cancel(dropped), "a dropped tombstone is done too");
            assert!(!sim.cancel(tied));
            assert!(
                sim.cancelled.is_empty(),
                "no stale tombstone (scalar={scalar})"
            );
        }
    }

    #[test]
    fn cancel_between_steps_of_one_timestamp_splits_at_the_right_event() {
        // step() stops between events due at the same time: the rest of
        // them are still pending.
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Log::default();
        let t = SimTime::from_millis(1);
        let ids: Vec<EventId> = (0..3).map(|i| sim.schedule(t, i)).collect();
        assert_eq!(sim.step(&mut w, 1), 1);
        assert!(!sim.cancel(ids[0]));
        assert!(sim.cancel(ids[1]));
        sim.run(&mut w);
        assert_eq!(w.0, vec![0, 2]);
        assert!(!sim.cancel(ids[2]));
        assert!(sim.cancelled.is_empty());
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Log::default();
        sim.schedule(SimTime::from_millis(1), 1);
        sim.schedule(SimTime::from_millis(10), 10);
        let t = sim.run_until(&mut w, SimTime::from_millis(5));
        assert_eq!(w.0, vec![1]);
        assert_eq!(t, SimTime::from_millis(5));
        sim.run(&mut w);
        assert_eq!(w.0, vec![1, 10]);
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        /// Event `true` schedules a `false` child "in the past"; every
        /// event records the time it ran at.
        #[derive(Default)]
        struct Times(Vec<u64>);
        impl World for Times {
            type Event = bool;
            fn handle(&mut self, sim: &mut Sim<Self>, parent: bool) {
                if parent {
                    // Scheduling "in the past" runs at now, not before.
                    sim.schedule(SimTime::from_millis(1), false);
                }
                self.0.push(sim.now().as_nanos());
            }
        }
        let mut sim: Sim<Times> = Sim::new();
        let mut w = Times::default();
        sim.schedule(SimTime::from_millis(10), true);
        sim.run(&mut w);
        assert_eq!(w.0, vec![10_000_000, 10_000_000]);
    }

    #[test]
    fn step_runs_bounded_count() {
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Log::default();
        for i in 0..5 {
            sim.schedule(SimTime::from_millis(u64::from(i)), i);
        }
        assert_eq!(sim.step(&mut w, 2), 2);
        assert_eq!(w.0, vec![0, 1]);
        assert_eq!(sim.step(&mut w, 10), 3);
    }

    #[test]
    fn step_interrupting_a_same_time_batch_keeps_fifo_order() {
        // step() stops mid-batch; a fresh same-time schedule must still run
        // after the staged remainder of the batch.
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Log::default();
        let t = SimTime::from_millis(1);
        for i in 0..3 {
            sim.schedule(t, i);
        }
        assert_eq!(sim.step(&mut w, 1), 1);
        assert_eq!(sim.now(), t);
        sim.schedule(t, 99);
        sim.run(&mut w);
        assert_eq!(w.0, vec![0, 1, 2, 99]);
    }

    #[test]
    fn periodic_self_rescheduling() {
        struct W {
            ticks: u32,
        }
        impl World for W {
            type Event = ();
            fn handle(&mut self, sim: &mut Sim<Self>, _tick: ()) {
                self.ticks += 1;
                if self.ticks < 10 {
                    sim.schedule_in(SimDuration::from_millis(4), ());
                }
            }
        }
        let mut sim = Sim::new();
        let mut w = W { ticks: 0 };
        sim.schedule(SimTime::ZERO, ());
        sim.run(&mut w);
        assert_eq!(w.ticks, 10);
        assert_eq!(sim.now(), SimTime::from_millis(36));
    }

    #[test]
    fn same_time_chains_skip_the_heap() {
        // A handler that schedules at `now` repeatedly: every link runs at
        // the same time and the queue is empty afterwards.
        #[derive(Default)]
        struct Chain(Vec<u64>);
        impl World for Chain {
            type Event = ();
            fn handle(&mut self, sim: &mut Sim<Self>, _link: ()) {
                self.0.push(sim.now().as_nanos());
                if self.0.len() < 5 {
                    let now = sim.now();
                    sim.schedule(now, ());
                }
            }
        }
        let mut sim: Sim<Chain> = Sim::new();
        let mut w = Chain::default();
        sim.schedule(SimTime::from_millis(2), ());
        sim.run(&mut w);
        assert_eq!(w.0, vec![2_000_000; 5]);
        assert_eq!(sim.events_executed(), 5);
        assert_eq!(sim.pending(), 0);
    }

    /// Torture world: every event logs `(now_ns, tag)` and spawns a few
    /// follow-ups at pseudo-random (often colliding) times, sometimes
    /// cancelling one.
    struct Torture {
        log: Vec<(u64, u64)>,
        rng: u64,
        spawned: u32,
    }

    impl Torture {
        fn next(&mut self) -> u64 {
            self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.rng >> 33
        }
    }

    impl World for Torture {
        type Event = u64;
        fn handle(&mut self, sim: &mut Sim<Self>, tag: u64) {
            self.log.push((sim.now().as_nanos(), tag));
            for _ in 0..=(self.next() % 3) {
                if self.spawned >= 400 {
                    break;
                }
                self.spawned += 1;
                let tag = u64::from(self.spawned);
                let delta = self.next() % 4; // 0..3 ms, 0 = same time
                let id = sim.schedule_in(SimDuration::from_millis(delta), tag);
                if self.next().is_multiple_of(7) {
                    sim.cancel(id);
                }
            }
        }
    }

    /// One pseudo-random torture trace, executed by both loops.
    fn torture_trace(scalar: bool) -> Vec<(u64, u64)> {
        let mut sim: Sim<Torture> = Sim::new();
        sim.set_scalar_reference(scalar);
        let mut w = Torture {
            log: Vec::new(),
            rng: 0x5eed,
            spawned: 0,
        };
        for i in 0..10 {
            sim.schedule(SimTime::from_millis(i % 3), 1000 + i);
        }
        sim.run(&mut w);
        w.log
    }

    #[test]
    fn entering_scalar_mode_returns_staged_events_to_the_heap() {
        // Events scheduled at `now` before the mode flip (the
        // build-then-flip pattern) must survive it in order.
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Log::default();
        sim.schedule(SimTime::ZERO, 1);
        sim.schedule(SimTime::from_millis(1), 2);
        sim.set_scalar_reference(true);
        assert_eq!(sim.pending(), 2);
        sim.run(&mut w);
        assert_eq!(w.0, vec![1, 2]);
    }

    #[test]
    fn batched_loop_matches_scalar_reference_on_torture_trace() {
        let batched = torture_trace(false);
        let scalar = torture_trace(true);
        assert!(batched.len() > 100, "trace too small to be convincing");
        assert_eq!(batched, scalar, "batched loop must replay scalar order");
    }
}
