//! The engine's event queue: a sorted near-run in front of a hierarchical
//! time-wheel.
//!
//! The run loop pops the earliest event, runs it, and usually schedules a
//! few more close behind it; the set it pops from is small. Measured at
//! every pop, most simulated scenarios hold 4–12 pending entries on
//! average, the cache-channel StopWatch cells a few hundred at peak, and
//! only Fig. 5's 10 MB UDP-NAK retransmission storm reaches ~1.5 M.
//! [`Queue`] therefore keeps two tiers:
//!
//! * The **run**: a `Vec` sorted *descending* by `(at, seq)`, so the
//!   earliest entry pops from the back. It holds every pending entry before
//!   a `horizon`; an insert is a binary search plus a short memmove, and a
//!   pop is a `Vec::pop`. An event due at the current time lands at the
//!   back, behind the other entries due now. While the wheel is empty the
//!   horizon is `u64::MAX` and the run is the whole queue.
//! * The **wheel** ([`Wheel`]) holds everything at or after the horizon.
//!   When an insert grows the run past [`RUN_MAX`], the run's later half
//!   spills into the wheel and the horizon drops to the first spilled time.
//!   When the run empties, the next [`PULL_SPAN`] of virtual time is pulled
//!   back (cut at a timestamp boundary once [`PULL_MAX`] entries are in),
//!   and once the wheel has been emptied the queue is run-only again.
//!
//! A small pending set never touches the wheel; a large one still gets the
//! wheel's O(1) filing and pays one extra copy per entry on the way out.
//!
//! The wheel itself:
//!
//! * [`LEVELS`] levels of 64 slots each; level 0 slots are 2^12 ns
//!   (~4.1 µs) wide and each level's slots are 64× the previous, so the
//!   wheel spans 2^36 ns (~68.7 s) ahead of the cursor. Events beyond the
//!   span wait in an unsorted overflow list (far-future deadlines are rare
//!   and re-home when the cursor crosses a top-level window).
//! * Slots are indexed by the *absolute* time bits of the level, and an
//!   event is filed at the lowest level whose next-coarser slot it shares
//!   with the cursor. That alignment makes every occupancy scan a simple
//!   mask-and-`trailing_zeros` with no ring wraparound.
//! * Bucket storage is pooled: a bucket that empties (opened as the
//!   *active* bucket, or cascaded down a level) hands its vector to a
//!   free pool, and a bucket that fills takes one from the pool before it
//!   would allocate. Capacity therefore lives only in the few buckets
//!   occupied at once (not in every bucket ever touched), a fresh wheel
//!   stops allocating once its first few buckets have been used, and a
//!   steady-state run performs no queue allocations at all.
//!
//! Exactness: the queue reproduces the heap's `(at, seq)` total order
//! bit-for-bit. Every run entry precedes every wheel entry (`run < horizon
//! <= wheel`), a drained wheel bucket is sorted by `(at, seq)` before
//! delivery, and [`Queue::next_at`] is read-only so probing the queue
//! (e.g. against a `run_until` deadline) commits nothing. Spills, pulls and
//! wheel cursor movement happen only in [`Queue::insert`] and
//! [`Queue::pop`]. A pull moves the wheel's cursor up to the last
//! pulled timestamp, which can lie ahead of the engine's clock, so a spill
//! never files below the cursor: its horizon is clamped to it. The scalar
//! reference loop keeps using the binary heap; the differential tests in
//! `engine` and the `engine_wheel` proptests pin the two orders against
//! each other.

/// Run length past which an insert spills the run's later half into the
/// wheel.
const RUN_MAX: usize = 64;
/// A pull stops at the first timestamp after this many entries, so a
/// dense stretch of the wheel cannot refill the run past [`RUN_MAX`].
const PULL_MAX: usize = RUN_MAX / 2;
/// Virtual time a pull brings back from the wheel: 2^20 ns ≈ 1 ms.
const PULL_SPAN: u64 = 1 << 20;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64 slots per level
const LEVELS: usize = 4;
/// Level-0 slot width exponent: 2^12 ns ≈ 4.1 µs.
const L0_SHIFT: u32 = 12;
/// Everything at or beyond 2^36 ns (~68.7 s) past the cursor overflows.
const TOP_SHIFT: u32 = L0_SHIFT + (LEVELS as u32) * SLOT_BITS;

#[inline]
fn level_shift(level: usize) -> u32 {
    L0_SHIFT + (level as u32) * SLOT_BITS
}

#[inline]
fn slot_index(at: u64, level: usize) -> usize {
    ((at >> level_shift(level)) & (SLOTS as u64 - 1)) as usize
}

/// One queued event: absolute nanosecond deadline, scheduling sequence
/// number (the FIFO tiebreak), and the caller's payload.
pub(crate) struct Entry<T> {
    pub at: u64,
    pub seq: u64,
    pub item: T,
}

/// The event queue: the sorted run plus the wheel behind it.
pub(crate) struct Queue<T> {
    /// Every pending entry before `horizon`, sorted *descending* by
    /// `(at, seq)`: the earliest pops from the back.
    run: Vec<Entry<T>>,
    /// Invariant: `run < horizon <= wheel` (by `at`), and
    /// `horizon >= wheel.cur` so a spill can always be filed. `u64::MAX`
    /// while the queue is run-only.
    horizon: u64,
    wheel: Wheel<T>,
}

impl<T> Queue<T> {
    pub fn new() -> Self {
        Queue {
            // Sized to the spill bound, which the run rarely outgrows.
            run: Vec::with_capacity(RUN_MAX + 1),
            horizon: u64::MAX,
            wheel: Wheel::new(),
        }
    }

    /// Entries stored (cancellation tombstones included, like the heap).
    pub fn len(&self) -> usize {
        self.run.len() + self.wheel.len()
    }

    pub fn insert(&mut self, at: u64, seq: u64, item: T) {
        if at >= self.horizon {
            self.wheel.insert(at, seq, item);
            return;
        }
        let pos = self.run.partition_point(|e| (e.at, e.seq) > (at, seq));
        self.run.insert(pos, Entry { at, seq, item });
        if self.run.len() > RUN_MAX {
            self.spill();
        }
    }

    /// Files the run's later half into the wheel and lowers the horizon
    /// to the first spilled time.
    fn spill(&mut self) {
        let mut h = self.run[self.run.len() / 2].at;
        if self.wheel.len() == 0 {
            // Nothing is filed against the cursor: move it to the new
            // horizon, so the spill files as low in the wheel as it can.
            self.wheel.reset_cursor(h);
        } else {
            // A pull may have left the cursor ahead of the run's entries;
            // the wheel cannot take anything before it.
            h = h.max(self.wheel.cur);
        }
        // The run is descending, so the entries at or after `h` are its
        // front.
        let k = self.run.partition_point(|e| e.at >= h);
        if k == 0 {
            return;
        }
        for e in self.run.drain(..k) {
            self.wheel.insert(e.at, e.seq, e.item);
        }
        self.horizon = h;
    }

    /// Refills the empty run with the wheel's earliest stretch.
    fn pull(&mut self) {
        debug_assert!(self.run.is_empty());
        let Some(first) = self.wheel.next_at() else {
            self.horizon = u64::MAX;
            return;
        };
        let end = first.saturating_add(PULL_SPAN);
        let mut t = first;
        loop {
            let run = &mut self.run;
            self.wheel
                .drain_at(t, &mut |seq, item| run.push(Entry { at: t, seq, item }));
            match self.wheel.next_at() {
                Some(next) if next < end && self.run.len() < PULL_MAX => t = next,
                next => {
                    self.horizon = next.unwrap_or(u64::MAX);
                    break;
                }
            }
        }
        // Drained ascending; the run pops from the back.
        self.run.reverse();
        debug_assert!(self.horizon >= self.wheel.cur);
    }

    /// The earliest stored deadline. Read-only: no pull, no cursor
    /// movement — safe to call for deadline probes that never commit.
    pub fn next_at(&self) -> Option<u64> {
        match self.run.last() {
            Some(e) => Some(e.at),
            None => self.wheel.next_at(),
        }
    }

    /// Removes the earliest entry, as `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.run.is_empty() {
            self.pull();
        }
        self.run.pop().map(|e| (e.at, e.seq, e.item))
    }

    /// Empties the queue through `sink` in no particular order (the
    /// scalar-mode migration re-sorts via the heap).
    pub fn drain_all(&mut self, sink: &mut impl FnMut(u64, u64, T)) {
        for e in self.run.drain(..) {
            sink(e.at, e.seq, e.item);
        }
        self.wheel.drain_all(sink);
        self.horizon = u64::MAX;
    }
}

/// The hierarchical time-wheel behind the run.
pub(crate) struct Wheel<T> {
    /// Cursor: the last drained timestamp (a pull can take it past the
    /// engine's `now`). Invariant: every stored entry has `at >= cur`.
    cur: u64,
    len: usize,
    /// Per-level slot-occupancy bitmaps.
    occ: [u64; LEVELS],
    /// `LEVELS * SLOTS` bucket vectors (level-major).
    buckets: Vec<Vec<Entry<T>>>,
    /// The opened earliest bucket, sorted *descending* by `(at, seq)` so
    /// pops from the back deliver ascending order.
    active: Vec<Entry<T>>,
    /// `at >> L0_SHIFT` of the open bucket; `None` iff `active` is empty.
    active_slot: Option<u64>,
    /// Entries beyond the wheel span, unsorted.
    overflow: Vec<Entry<T>>,
    /// Empty bucket vectors with capacity, reused before allocating.
    pool: Vec<Vec<Entry<T>>>,
}

impl<T> Wheel<T> {
    pub fn new() -> Self {
        Wheel {
            cur: 0,
            len: 0,
            occ: [0; LEVELS],
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            active_slot: None,
            overflow: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Entries stored (cancellation tombstones included, like the heap).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn insert(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(at >= self.cur, "insert behind the wheel cursor");
        self.len += 1;
        if let Some(key) = self.active_slot {
            debug_assert!(at >> L0_SHIFT >= key, "insert before the open bucket");
            if at >> L0_SHIFT == key {
                // The open bucket's slot: merge in sorted (descending)
                // position so the drain order stays exact.
                let pos = self.active.partition_point(|e| (e.at, e.seq) > (at, seq));
                self.active.insert(pos, Entry { at, seq, item });
                return;
            }
        }
        self.insert_raw(Entry { at, seq, item });
    }

    /// Moves the cursor of an empty wheel to `t`.
    fn reset_cursor(&mut self, t: u64) {
        debug_assert_eq!(self.len, 0, "cursor reset on a non-empty wheel");
        debug_assert!(self.active_slot.is_none());
        self.cur = t;
    }

    /// Files an entry relative to the current cursor without touching the
    /// active bucket or the length counter.
    fn insert_raw(&mut self, e: Entry<T>) {
        let x = e.at ^ self.cur;
        if x >> TOP_SHIFT != 0 {
            self.overflow.push(e);
            return;
        }
        // The lowest level whose parent slot the entry shares with the
        // cursor — derived from the highest differing time bit.
        let msb = 63u32.saturating_sub(x.leading_zeros());
        let level = (msb.saturating_sub(L0_SHIFT) / SLOT_BITS) as usize;
        let idx = slot_index(e.at, level);
        self.occ[level] |= 1u64 << idx;
        let bucket = &mut self.buckets[level * SLOTS + idx];
        if bucket.capacity() == 0 {
            if let Some(spare) = self.pool.pop() {
                *bucket = spare;
            }
        }
        bucket.push(e);
    }

    /// Returns an emptied bucket vector's capacity to the pool.
    fn recycle(&mut self, v: Vec<Entry<T>>) {
        debug_assert!(v.is_empty());
        if v.capacity() > 0 {
            self.pool.push(v);
        }
    }

    /// The earliest stored deadline. Read-only: no cursor movement, no
    /// cascading — safe to call for deadline probes that never commit.
    pub fn next_at(&self) -> Option<u64> {
        if let Some(e) = self.active.last() {
            return Some(e.at);
        }
        let c0 = slot_index(self.cur, 0);
        let m = self.occ[0] & (!0u64 << c0);
        if m != 0 {
            let i = m.trailing_zeros() as usize;
            return bucket_min(&self.buckets[i]);
        }
        for level in 1..LEVELS {
            // The cursor's own slot at level >= 1 is always empty (its
            // contents live at lower levels), so scan strictly after it.
            let cl = slot_index(self.cur, level);
            let m = self.occ[level] & ((!0u64 << cl) << 1);
            if m != 0 {
                let i = m.trailing_zeros() as usize;
                return bucket_min(&self.buckets[level * SLOTS + i]);
            }
        }
        self.overflow.iter().map(|e| e.at).min()
    }

    /// Pops every entry with deadline exactly `t` — which must be the
    /// value [`Wheel::next_at`] returned — into `sink` in `seq` order,
    /// advancing the cursor (and cascading higher levels) as needed.
    pub fn drain_at(&mut self, t: u64, sink: &mut impl FnMut(u64, T)) {
        debug_assert!(t >= self.cur, "drain behind the wheel cursor");
        if (t >> TOP_SHIFT) != (self.cur >> TOP_SHIFT) {
            // Crossing a top-level window: every in-window bucket is empty
            // (t is the global minimum), so jump the cursor and re-home
            // the overflow list against it.
            debug_assert!(self.active.is_empty());
            self.cur = t;
            let mut ovf = std::mem::take(&mut self.overflow);
            for e in ovf.drain(..) {
                self.insert_raw(e);
            }
            // Hand the drained vector's capacity back.
            if self.overflow.capacity() == 0 {
                self.overflow = ovf;
            }
        }
        if self.active_slot == Some(t >> L0_SHIFT) {
            self.cur = t;
            self.pop_active_matching(t, sink);
            return;
        }
        self.close_active();
        loop {
            let c0 = slot_index(self.cur, 0);
            let m = self.occ[0] & (!0u64 << c0);
            if m != 0 {
                let i = m.trailing_zeros() as usize;
                self.occ[0] &= !(1u64 << i);
                debug_assert!(self.active.is_empty());
                let bucket = std::mem::take(&mut self.buckets[i]);
                let spare = std::mem::replace(&mut self.active, bucket);
                self.recycle(spare);
                self.active
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                let min = self.active.last().expect("occupied bucket is non-empty");
                debug_assert_eq!(min.at, t, "drain_at must be given the minimum");
                self.active_slot = Some(min.at >> L0_SHIFT);
                self.cur = t;
                self.pop_active_matching(t, sink);
                return;
            }
            let mut cascaded = false;
            for level in 1..LEVELS {
                let cl = slot_index(self.cur, level);
                let m = self.occ[level] & ((!0u64 << cl) << 1);
                if m != 0 {
                    let j = m.trailing_zeros() as usize;
                    self.occ[level] &= !(1u64 << j);
                    let shift = level_shift(level);
                    let parent_mask = !((1u64 << (shift + SLOT_BITS)) - 1);
                    let slot_start = (self.cur & parent_mask) | ((j as u64) << shift);
                    debug_assert!(slot_start > self.cur && slot_start <= t);
                    self.cur = slot_start;
                    // Every entry of the slot moves strictly down a level,
                    // never back into this bucket.
                    let mut moving = std::mem::take(&mut self.buckets[level * SLOTS + j]);
                    for e in moving.drain(..) {
                        self.insert_raw(e);
                    }
                    self.recycle(moving);
                    cascaded = true;
                    break;
                }
            }
            if !cascaded {
                // Only the overflow can still hold t (defensive: the
                // top-window branch above normally re-homed it already).
                debug_assert!(!self.overflow.is_empty());
                self.cur = t;
                let mut ovf = std::mem::take(&mut self.overflow);
                for e in ovf.drain(..) {
                    self.insert_raw(e);
                }
                if self.overflow.capacity() == 0 {
                    self.overflow = ovf;
                }
            }
        }
    }

    fn pop_active_matching(&mut self, t: u64, sink: &mut impl FnMut(u64, T)) {
        while self.active.last().is_some_and(|e| e.at == t) {
            let e = self.active.pop().expect("just observed an entry");
            self.len -= 1;
            sink(e.seq, e.item);
        }
        if self.active.is_empty() {
            self.active_slot = None;
        }
    }

    /// Returns the open bucket's remaining entries to their slot.
    fn close_active(&mut self) {
        let Some(key) = self.active_slot.take() else {
            return;
        };
        if self.active.is_empty() {
            return;
        }
        let i = (key & (SLOTS as u64 - 1)) as usize;
        self.occ[0] |= 1u64 << i;
        if self.buckets[i].is_empty() {
            let entries = std::mem::take(&mut self.active);
            let spare = std::mem::replace(&mut self.buckets[i], entries);
            self.recycle(spare);
        } else {
            self.buckets[i].append(&mut self.active);
        }
    }

    /// Empties the wheel through `sink` in no particular order (the
    /// scalar-mode migration re-sorts via the heap).
    pub fn drain_all(&mut self, sink: &mut impl FnMut(u64, u64, T)) {
        for e in self.active.drain(..) {
            sink(e.at, e.seq, e.item);
        }
        self.active_slot = None;
        for b in &mut self.buckets {
            for e in b.drain(..) {
                sink(e.at, e.seq, e.item);
            }
        }
        self.occ = [0; LEVELS];
        for e in self.overflow.drain(..) {
            sink(e.at, e.seq, e.item);
        }
        self.len = 0;
    }
}

fn bucket_min<T>(bucket: &[Entry<T>]) -> Option<u64> {
    bucket.iter().map(|e| e.at).min()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_next<T>(w: &mut Wheel<T>) -> Option<(u64, Vec<(u64, T)>)> {
        let t = w.next_at()?;
        let mut out = Vec::new();
        w.drain_at(t, &mut |seq, item| out.push((seq, item)));
        Some((t, out))
    }

    /// Pops a queue to empty, returning `(at, seq)` in delivery order.
    fn drain_queue(q: &mut Queue<()>) -> Vec<(u64, u64)> {
        let mut got = Vec::new();
        while let Some(t) = q.next_at() {
            let (at, seq, ()) = q.pop().expect("next_at saw an entry");
            assert_eq!(at, t, "pop takes what next_at saw");
            got.push((at, seq));
        }
        got
    }

    #[test]
    fn queue_is_run_only_until_the_bound_then_spills_its_later_half() {
        let mut q: Queue<()> = Queue::new();
        for seq in 0..RUN_MAX as u64 {
            q.insert(1000 * (seq + 1), seq, ());
        }
        assert_eq!((q.run.len(), q.wheel.len()), (RUN_MAX, 0));
        assert_eq!(q.horizon, u64::MAX);
        q.insert(500, RUN_MAX as u64, ());
        assert!(q.run.len() <= RUN_MAX / 2 + 1 && q.wheel.len() > 0);
        assert_eq!(q.run.len() + q.wheel.len(), RUN_MAX + 1);
        assert!(q.run.iter().all(|e| e.at < q.horizon));
        // Later work now files in the wheel; earlier work still in the run.
        q.insert(1 << 30, 1000, ());
        q.insert(700, 1001, ());
        let got = drain_queue(&mut q);
        let mut want = got.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(got.len(), RUN_MAX + 3);
        assert_eq!(
            q.horizon,
            u64::MAX,
            "an emptied wheel makes the queue run-only"
        );
    }

    #[test]
    fn spill_after_a_pull_never_files_behind_the_wheel_cursor() {
        let mut q: Queue<()> = Queue::new();
        let mut seq = 0u64;
        for i in 1..=200u64 {
            q.insert(1000 * i, seq, ());
            seq += 1;
        }
        // Empty the run, then pop once more: that pop pulls.
        let mut got = Vec::new();
        while !q.run.is_empty() {
            let (at, s, ()) = q.pop().unwrap();
            got.push((at, s));
        }
        let (now, s, ()) = q.pop().unwrap();
        got.push((now, s));
        assert!(q.wheel.len() > 0, "the pull left work in the wheel");
        assert!(q.wheel.cur > now, "the pull moved the cursor past now");
        // A burst between now and the cursor overfills the run.
        for d in 1..=2 * RUN_MAX as u64 {
            q.insert(now + d, seq, ());
            seq += 1;
        }
        assert!(q.horizon >= q.wheel.cur);
        assert!(q.run.iter().all(|e| e.at < q.horizon));
        got.extend(drain_queue(&mut q));
        let mut want = got.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(got.len() as u64, seq);
    }

    #[test]
    fn a_same_time_flood_spills_whole_and_returns_in_seq_order() {
        let mut q: Queue<()> = Queue::new();
        for seq in 0..1000u64 {
            q.insert(42, seq, ());
        }
        let got = drain_queue(&mut q);
        assert_eq!(got, (0..1000).map(|s| (42, s)).collect::<Vec<_>>());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn delivers_in_time_then_seq_order() {
        let mut w: Wheel<u32> = Wheel::new();
        w.insert(50, 2, 2);
        w.insert(10, 0, 0);
        w.insert(50, 1, 1);
        assert_eq!(w.len(), 3);
        assert_eq!(drain_next(&mut w), Some((10, vec![(0, 0)])));
        assert_eq!(drain_next(&mut w), Some((50, vec![(1, 1), (2, 2)])));
        assert_eq!(drain_next(&mut w), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_slot_burst_stays_fifo() {
        let mut w: Wheel<u32> = Wheel::new();
        // All inside one level-0 slot (4.1 µs), several distinct times.
        for seq in 0..100u64 {
            w.insert(1000 + (seq % 3) * 7, seq, seq as u32);
        }
        let mut got = Vec::new();
        while let Some((t, batch)) = drain_next(&mut w) {
            for (seq, _) in batch {
                got.push((t, seq));
            }
        }
        let mut want = got.clone();
        want.sort_unstable();
        assert_eq!(got, want, "ascending (at, seq) order");
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn far_future_deadlines_cross_every_level_and_overflow() {
        let mut w: Wheel<u64> = Wheel::new();
        // One event per level span plus one beyond the wheel (overflow).
        let ats = [
            1u64 << 10,
            1 << 20,
            1 << 26,
            1 << 32,
            1 << 40, // overflow: >= 2^36
            (1 << 40) + 5,
        ];
        for (seq, &at) in ats.iter().enumerate() {
            w.insert(at, seq as u64, at);
        }
        let mut got = Vec::new();
        while let Some((t, batch)) = drain_next(&mut w) {
            for (_, item) in batch {
                assert_eq!(item, t);
                got.push(t);
            }
        }
        let mut want = ats.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn inserts_between_drains_keep_order() {
        let mut w: Wheel<u32> = Wheel::new();
        w.insert(100, 0, 0);
        w.insert(5_000_000, 1, 1);
        assert_eq!(drain_next(&mut w).unwrap().0, 100);
        // New work lands between the cursor and the far event — including
        // inside the (now empty) active slot and in higher levels.
        w.insert(101, 2, 2);
        w.insert(70_000, 3, 3);
        assert_eq!(drain_next(&mut w), Some((101, vec![(2, 2)])));
        assert_eq!(drain_next(&mut w), Some((70_000, vec![(3, 3)])));
        assert_eq!(drain_next(&mut w), Some((5_000_000, vec![(1, 1)])));
    }

    #[test]
    fn next_at_is_read_only() {
        let mut w: Wheel<u32> = Wheel::new();
        w.insert(1 << 30, 0, 0);
        for _ in 0..3 {
            assert_eq!(w.next_at(), Some(1 << 30));
        }
        // A later insert at an earlier time must still surface first.
        w.insert(1 << 14, 1, 1);
        assert_eq!(w.next_at(), Some(1 << 14));
        assert_eq!(drain_next(&mut w), Some((1 << 14, vec![(1, 1)])));
        assert_eq!(drain_next(&mut w), Some((1 << 30, vec![(0, 0)])));
    }

    #[test]
    fn overflow_rehomes_on_window_crossings() {
        let mut w: Wheel<u64> = Wheel::new();
        let far = (1u64 << 36) + 123; // just past the first top window
        let farther = (1u64 << 37) + 7;
        w.insert(far, 0, far);
        w.insert(farther, 1, farther);
        w.insert(50, 2, 50);
        assert_eq!(drain_next(&mut w).unwrap().0, 50);
        assert_eq!(drain_next(&mut w).unwrap().0, far);
        // After crossing, nearer work still beats the remaining overflow.
        w.insert(far + 10, 3, far + 10);
        assert_eq!(drain_next(&mut w).unwrap().0, far + 10);
        assert_eq!(drain_next(&mut w).unwrap().0, farther);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn drain_all_returns_everything() {
        let mut w: Wheel<u32> = Wheel::new();
        w.insert(10, 0, 0);
        w.insert(1 << 25, 1, 1);
        w.insert(1 << 50, 2, 2);
        let mut seen = Vec::new();
        w.drain_all(&mut |at, seq, item| seen.push((at, seq, item)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(10, 0, 0), (1 << 25, 1, 1), (1 << 50, 2, 2)]);
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_at(), None);
    }
}
