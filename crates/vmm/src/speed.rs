//! Host execution-speed profiles.
//!
//! Each physical host retires guest branches at a base rate modulated by
//! (a) piecewise-constant jitter (background OS activity, Dom0 chatter,
//! thermal noise) and (b) a *contention factor* from coresident guests'
//! activity — the channel through which a victim VM perturbs the timing of
//! a coresident attacker replica, and through which the Sec. IX
//! "collaborating attacker" induces load.
//!
//! The profile is a pure function of (seed, epoch index, contention), so
//! branch↔time conversions are deterministic and invertible.

use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};

/// The last epoch segment a [`SpeedProfile::time_for_branches`] walk
/// integrated, with everything needed to finish a
/// [`SpeedProfile::branches_between`] from the walk's origin to any
/// instant inside it.
///
/// For `t` in `[start, end]`, `branches_between(origin, t)` equals
/// `(prefix + (t - start).as_secs_f64() * rate) as u64`: the prefix is
/// the sum of the whole-epoch products before `start`, accumulated in the
/// order `branches_between` adds them, so [`Segment::branches_to`]
/// performs the same float operations in the same order and returns the
/// same count, bit for bit, without re-walking the epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Where the walk started.
    pub origin: SimTime,
    /// Branches integrated over `[origin, start)`, unrounded.
    pub prefix: f64,
    /// Start of the segment: `origin` or an epoch boundary.
    pub start: SimTime,
    /// End of the segment: the end of `start`'s epoch.
    pub end: SimTime,
    /// Branches per second over the segment.
    pub rate: f64,
}

impl Segment {
    /// `branches_between(origin, t)` for `t` inside the segment, `None`
    /// outside it.
    pub fn branches_to(&self, t: SimTime) -> Option<u64> {
        (self.start <= t && t <= self.end).then(|| {
            let dt = t.duration_since(self.start).as_secs_f64();
            (self.prefix + dt * self.rate) as u64
        })
    }
}

/// Deterministic branches-per-second profile for one host core.
#[derive(Debug, Clone)]
pub struct SpeedProfile {
    base_ips: f64,
    jitter_frac: f64,
    epoch: SimDuration,
    seed_stream: SimRng,
    /// Multiplicative slowdown from coresident load, `0 <= c < 1`;
    /// effective speed is `base * (1 - c) * (1 ± jitter)`.
    contention: f64,
    /// Bumped on every mutation that changes the branch↔time mapping
    /// (today: contention updates). Callers that memoize conversion
    /// results key them on this counter so a profile change invalidates
    /// every cached projection at once.
    generation: u64,
    /// Memoized jitter multipliers, indexed by epoch. Each multiplier is a
    /// pure function of (seed, epoch), so caching cannot change any value —
    /// it only skips the per-query stream derivation on the branch↔time
    /// conversion hot path (every wake computation integrates over epochs).
    jitter_memo: RefCell<Vec<f64>>,
    /// The two epochs conversion steps last landed in, newest first:
    /// `(contention bits, start nanos, end nanos, rate)`. A slot's sync
    /// point and the instants it converts from are ms apart and epochs
    /// ~10 ms long, so steps mostly land in one of the two and skip the
    /// index division and the rate lookup. The rate is the float
    /// [`SpeedProfile::ips_at_epoch`] computes; it depends on nothing
    /// else that can change, so keying it on the contention value keeps
    /// it exact (unlike `generation`, which moves on every update).
    recent_epochs: Cell<[(u64, u64, u64, f64); 2]>,
}

impl SpeedProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics unless `base_ips > 0`, `0 <= jitter_frac < 1`, and the epoch
    /// is non-zero.
    pub fn new(base_ips: f64, jitter_frac: f64, epoch: SimDuration, rng: SimRng) -> Self {
        assert!(base_ips > 0.0, "base speed must be positive");
        assert!(
            (0.0..1.0).contains(&jitter_frac),
            "jitter fraction must be in [0,1)"
        );
        assert!(!epoch.is_zero(), "epoch must be non-zero");
        SpeedProfile {
            base_ips,
            jitter_frac,
            epoch,
            seed_stream: rng,
            contention: 0.0,
            generation: 0,
            jitter_memo: RefCell::new(Vec::new()),
            recent_epochs: Cell::new([(u64::MAX, 0, 0, 0.0); 2]),
        }
    }

    /// The base rate, branches per second.
    pub fn base_ips(&self) -> f64 {
        self.base_ips
    }

    /// Sets the coresident-load contention factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= c < 1`.
    pub fn set_contention(&mut self, c: f64) {
        assert!((0.0..1.0).contains(&c), "contention must be in [0,1)");
        self.contention = c;
        self.generation += 1;
    }

    /// Current contention factor.
    pub fn contention(&self) -> f64 {
        self.contention
    }

    /// Mutation counter for memo invalidation (see the field doc).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Jitter multiplier for epoch `idx` — a pure function of (seed, idx),
    /// memoized densely by epoch (epoch indices grow with simulated time,
    /// so the memo is a flat vector, not a map).
    fn jitter_mult(&self, idx: u64) -> f64 {
        if self.jitter_frac == 0.0 {
            return 1.0;
        }
        let mut memo = self.jitter_memo.borrow_mut();
        let idx = idx as usize;
        if idx >= memo.len() + 1_000_000 {
            // A far-future probe (beyond any plausible run horizon) is
            // answered directly instead of dense-filling the memo to it.
            let mut s = self.seed_stream.stream_indexed("epoch", idx);
            return 1.0 + s.uniform(-self.jitter_frac, self.jitter_frac);
        }
        while memo.len() <= idx {
            let i = memo.len();
            let mut s = self.seed_stream.stream_indexed("epoch", i);
            memo.push(1.0 + s.uniform(-self.jitter_frac, self.jitter_frac));
        }
        memo[idx]
    }

    /// Effective branches/second during epoch `idx`.
    pub fn ips_at_epoch(&self, idx: u64) -> f64 {
        self.base_ips * (1.0 - self.contention) * self.jitter_mult(idx)
    }

    /// End and rate of the epoch containing `t`.
    fn epoch_at(&self, t: SimTime) -> (SimTime, f64) {
        let ns = t.as_nanos();
        let contention = self.contention.to_bits();
        let recent = self.recent_epochs.get();
        for (c, start, end, rate) in recent {
            if c == contention && start <= ns && ns < end {
                return (SimTime::from_nanos(end), rate);
            }
        }
        let idx = ns / self.epoch.as_nanos();
        let start = idx * self.epoch.as_nanos();
        let end = start + self.epoch.as_nanos();
        let rate = self.ips_at_epoch(idx);
        self.recent_epochs
            .set([(contention, start, end, rate), recent[0]]);
        (SimTime::from_nanos(end), rate)
    }

    /// Branches retired in `[t0, t1)`.
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0`.
    pub fn branches_between(&self, t0: SimTime, t1: SimTime) -> u64 {
        assert!(t1 >= t0, "negative interval");
        if t1 == t0 {
            return 0;
        }
        let mut acc = 0.0;
        let mut cur = t0;
        while cur < t1 {
            let (epoch_end, rate) = self.epoch_at(cur);
            let seg_end = epoch_end.min(t1);
            let dt = seg_end.duration_since(cur).as_secs_f64();
            acc += dt * rate;
            cur = seg_end;
        }
        acc as u64
    }

    /// Earliest time `t >= t0` by which `branches` more branches have
    /// retired, and the epoch segment the walk ended in (see [`Segment`]),
    /// which lets a caller evaluate `branches_between(t0, t')` near `t`
    /// without walking again.
    pub fn time_for_branches(&self, t0: SimTime, branches: u64) -> (SimTime, Segment) {
        if branches == 0 {
            let empty = Segment {
                origin: t0,
                prefix: 0.0,
                start: t0,
                end: t0,
                rate: 0.0,
            };
            return (t0, empty);
        }
        let mut remaining = branches as f64;
        let mut prefix = 0.0;
        let mut cur = t0;
        loop {
            let (epoch_end, rate) = self.epoch_at(cur);
            let span = epoch_end.duration_since(cur).as_secs_f64();
            let capacity = span * rate;
            if capacity >= remaining {
                let seg = Segment {
                    origin: t0,
                    prefix,
                    start: cur,
                    end: epoch_end,
                    rate,
                };
                return (cur + SimDuration::from_secs_f64(remaining / rate), seg);
            }
            remaining -= capacity;
            prefix += capacity;
            cur = epoch_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(jitter: f64) -> SpeedProfile {
        SpeedProfile::new(
            1.0e9,
            jitter,
            SimDuration::from_millis(10),
            SimRng::new(5).stream("host0"),
        )
    }

    #[test]
    fn no_jitter_is_linear() {
        let p = profile(0.0);
        let b = p.branches_between(SimTime::ZERO, SimTime::from_millis(5));
        assert_eq!(b, 5_000_000);
    }

    #[test]
    fn branches_and_time_are_inverse() {
        let p = profile(0.05);
        let t0 = SimTime::from_millis(3);
        for &n in &[1_000u64, 1_000_000, 123_456_789] {
            let (t1, _) = p.time_for_branches(t0, n);
            let measured = p.branches_between(t0, t1);
            let err = measured.abs_diff(n);
            assert!(err <= 2, "n={n}: measured {measured}");
        }
    }

    #[test]
    fn jitter_changes_rate_across_epochs() {
        let p = profile(0.05);
        let rates: Vec<f64> = (0..10).map(|i| p.ips_at_epoch(i)).collect();
        let distinct = rates
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 1.0)
            .count();
        assert!(distinct >= 5, "rates too uniform: {rates:?}");
        for r in rates {
            assert!((0.95e9..=1.05e9).contains(&r));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = profile(0.05);
        let b = profile(0.05);
        assert_eq!(
            a.branches_between(SimTime::ZERO, SimTime::from_secs(1)),
            b.branches_between(SimTime::ZERO, SimTime::from_secs(1))
        );
    }

    #[test]
    fn different_hosts_differ() {
        let a = SpeedProfile::new(
            1.0e9,
            0.05,
            SimDuration::from_millis(10),
            SimRng::new(5).stream("host0"),
        );
        let b = SpeedProfile::new(
            1.0e9,
            0.05,
            SimDuration::from_millis(10),
            SimRng::new(5).stream("host1"),
        );
        assert_ne!(
            a.branches_between(SimTime::ZERO, SimTime::from_millis(25)),
            b.branches_between(SimTime::ZERO, SimTime::from_millis(25))
        );
    }

    #[test]
    fn contention_slows_execution() {
        let mut p = profile(0.0);
        let fast = p.branches_between(SimTime::ZERO, SimTime::from_millis(10));
        p.set_contention(0.3);
        let slow = p.branches_between(SimTime::ZERO, SimTime::from_millis(10));
        assert!((slow as f64 - fast as f64 * 0.7).abs() < 2.0);
    }

    #[test]
    fn additivity_across_epoch_boundaries() {
        let p = profile(0.05);
        let a = p.branches_between(SimTime::ZERO, SimTime::from_millis(25));
        let b = p.branches_between(SimTime::ZERO, SimTime::from_millis(13))
            + p.branches_between(SimTime::from_millis(13), SimTime::from_millis(25));
        assert!(a.abs_diff(b) <= 2, "{a} vs {b}");
    }

    #[test]
    fn time_for_zero_branches_is_identity() {
        let p = profile(0.05);
        assert_eq!(
            p.time_for_branches(SimTime::from_millis(7), 0).0,
            SimTime::from_millis(7)
        );
    }

    #[test]
    fn recent_epoch_cache_never_changes_an_answer() {
        // One long-lived profile (its epoch cache warm, contention moving
        // back and forth) against a fresh profile per query.
        let fresh = |c: f64| {
            let mut p = profile(0.05);
            p.set_contention(c);
            p
        };
        let mut warm = profile(0.05);
        for (i, c) in [0.0, 0.25, 0.25, 0.5, 0.0, 0.5].into_iter().enumerate() {
            warm.set_contention(c);
            // The same few epochs every round, walked forward then back,
            // so each round starts on the epochs the last one cached under
            // the previous contention.
            for j in 0..40u64 {
                let k = if i % 2 == 0 { j } else { 39 - j };
                let t0 = SimTime::from_micros(5_000 + k * 137 + i as u64 * 97);
                let t1 = t0 + SimDuration::from_micros(k * 311 + 1);
                let n = k * 300_017 + 1;
                assert_eq!(
                    warm.branches_between(t0, t1),
                    fresh(c).branches_between(t0, t1)
                );
                assert_eq!(
                    warm.time_for_branches(t0, n),
                    fresh(c).time_for_branches(t0, n)
                );
            }
        }
    }

    #[test]
    fn segment_finishes_the_walk_bit_for_bit() {
        let mut p = profile(0.05);
        p.set_contention(0.25);
        let t0 = SimTime::from_micros(3_217);
        for &n in &[1u64, 999, 4_000_000, 37_123_457, 123_456_789] {
            let (t1, seg) = p.time_for_branches(t0, n);
            assert_eq!(seg.origin, t0);
            let probes = [seg.start, t1, t1 + SimDuration::from_nanos(2), seg.end];
            for t in probes.into_iter().filter(|&t| t <= seg.end) {
                assert_eq!(seg.branches_to(t), Some(p.branches_between(t0, t)));
            }
            assert_eq!(seg.branches_to(seg.end + SimDuration::from_nanos(1)), None);
        }
    }
}
