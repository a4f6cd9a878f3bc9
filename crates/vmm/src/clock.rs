//! Virtual time (paper Sec. IV): `virt(instr) = slope × instr + start`.
//!
//! The guest's every real-time clock source reads a deterministic function
//! of its executed instruction count (here, like the prototype, its
//! *branch* count). `start` is seeded from the median of the replica
//! hosts' clocks at boot; `slope` from the machines' tick rate. Optionally,
//! after every epoch of `I` instructions the VMMs exchange
//! `(duration D_k, real time R_k)` and re-anchor:
//!
//! ```text
//! start_{k+1} = virt_k(I)
//! slope_{k+1} = clamp((R*_k − virt_k(I) + D*_k) / I, [ℓ, u])
//! ```
//!
//! with `R*`/`D*` the median values — keeping virtual time coarsely
//! synchronized with real time without letting any single machine dictate
//! it. All replicas apply identical updates, preserving determinism.

use simkit::time::{SimDuration, SimTime, VirtNanos};

/// Epoch-resynchronization settings (paper Sec. IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochConfig {
    /// Instructions (branches) per epoch, `I`.
    pub interval_instr: u64,
    /// Lower slope clamp ℓ (virtual ns per branch), must be positive to
    /// keep virtual time monotone.
    pub slope_min: f64,
    /// Upper slope clamp `u`.
    pub slope_max: f64,
}

/// The per-guest virtual clock.
///
/// # Examples
///
/// ```
/// use vmm::clock::VirtualClock;
/// use simkit::time::VirtNanos;
/// let c = VirtualClock::new(VirtNanos::from_nanos(1_000), 2.0, None);
/// assert_eq!(c.virt(0), VirtNanos::from_nanos(1_000));
/// assert_eq!(c.virt(500), VirtNanos::from_nanos(2_000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualClock {
    /// Virtual time at `base_instr`.
    start: VirtNanos,
    /// Virtual nanoseconds per branch.
    slope: f64,
    /// Branch count where the current epoch began.
    base_instr: u64,
    epochs: Option<EpochConfig>,
    epochs_applied: u64,
}

impl VirtualClock {
    /// Creates a clock with the given start (median of host boot clocks)
    /// and slope (ns of virtual time per branch).
    ///
    /// # Panics
    ///
    /// Panics unless `slope` is positive and finite.
    pub fn new(start: VirtNanos, slope: f64, epochs: Option<EpochConfig>) -> Self {
        assert!(slope > 0.0 && slope.is_finite(), "slope must be positive");
        if let Some(e) = &epochs {
            assert!(e.interval_instr > 0, "epoch interval must be positive");
            assert!(
                0.0 < e.slope_min && e.slope_min <= e.slope_max,
                "need 0 < slope_min <= slope_max"
            );
        }
        VirtualClock {
            start,
            slope,
            base_instr: 0,
            epochs,
            epochs_applied: 0,
        }
    }

    /// Virtual time after `instr` total branches.
    ///
    /// # Panics
    ///
    /// Panics if `instr` precedes the current epoch base (time cannot run
    /// backwards).
    pub fn virt(&self, instr: u64) -> VirtNanos {
        assert!(instr >= self.base_instr, "instruction count went backwards");
        let delta = (instr - self.base_instr) as f64 * self.slope;
        VirtNanos::from_nanos(self.start.as_nanos() + delta as u64)
    }

    /// Smallest branch count at which virtual time reaches `target`
    /// (saturating at the epoch base for past targets).
    pub fn instr_for(&self, target: VirtNanos) -> u64 {
        if target <= self.start {
            return self.base_instr;
        }
        let delta_ns = (target.as_nanos() - self.start.as_nanos()) as f64;
        self.base_instr + (delta_ns / self.slope).ceil() as u64
    }

    /// Current slope (virtual ns per branch).
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Epochs applied so far.
    pub fn epochs_applied(&self) -> u64 {
        self.epochs_applied
    }

    /// Applies the epoch update at the end of the current epoch, given the
    /// *median* real time `median_real` (R*) across replicas and the
    /// *matching machine's* epoch duration `median_duration` (D*).
    ///
    /// All replicas must call this with identical arguments (they agree on
    /// the medians), keeping their clocks — and hence their executions —
    /// identical.
    ///
    /// # Panics
    ///
    /// Panics if epochs were not configured.
    pub fn apply_epoch(&mut self, median_real: SimTime, median_duration: SimDuration) {
        let e = self.epochs.expect("epoch update without epoch config");
        let end_instr = self.base_instr + e.interval_instr;
        let virt_end = self.virt(end_instr);
        // slope_{k+1} = clamp((R* - virt_k(I) + D*) / I, [l, u])
        let numer = median_real.as_nanos() as f64 - virt_end.as_nanos() as f64
            + median_duration.as_nanos() as f64;
        let raw = numer / e.interval_instr as f64;
        self.slope = raw.clamp(e.slope_min, e.slope_max);
        self.start = virt_end;
        self.base_instr = end_instr;
        self.epochs_applied += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_mapping() {
        let c = VirtualClock::new(VirtNanos::from_nanos(100), 0.5, None);
        assert_eq!(c.virt(0).as_nanos(), 100);
        assert_eq!(c.virt(200).as_nanos(), 200);
        assert_eq!(c.virt(1000).as_nanos(), 600);
    }

    #[test]
    fn inverse_roundtrip() {
        let c = VirtualClock::new(VirtNanos::from_nanos(7), 1.7, None);
        for &target_ns in &[8u64, 100, 5_000, 1_000_000] {
            let target = VirtNanos::from_nanos(target_ns);
            let instr = c.instr_for(target);
            assert!(c.virt(instr) >= target, "virt({instr}) < {target_ns}");
            if instr > 0 {
                assert!(c.virt(instr - 1) < target, "not minimal");
            }
        }
    }

    #[test]
    fn instr_for_past_target_saturates() {
        let c = VirtualClock::new(VirtNanos::from_nanos(1000), 1.0, None);
        assert_eq!(c.instr_for(VirtNanos::from_nanos(10)), 0);
    }

    #[test]
    fn monotone_in_instr() {
        let c = VirtualClock::new(VirtNanos::ZERO, 0.33, None);
        let mut prev = VirtNanos::ZERO;
        for i in (0..10_000).step_by(97) {
            let v = c.virt(i);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn epoch_reanchors_continuously() {
        let cfg = EpochConfig {
            interval_instr: 1000,
            slope_min: 0.1,
            slope_max: 10.0,
        };
        let mut c = VirtualClock::new(VirtNanos::ZERO, 1.0, Some(cfg));
        let virt_end = c.virt(1000);
        // Real time ran ahead: virt should speed up.
        c.apply_epoch(SimTime::from_nanos(5_000), SimDuration::from_nanos(2_000));
        assert_eq!(c.virt(1000), virt_end, "continuity at the epoch boundary");
        // slope = (5000 - 1000 + 2000)/1000 = 6.
        assert!((c.slope() - 6.0).abs() < 1e-12);
        assert_eq!(c.epochs_applied(), 1);
        assert_eq!(c.virt(2000).as_nanos(), 1000 + 6000);
    }

    #[test]
    fn epoch_slope_clamped() {
        let cfg = EpochConfig {
            interval_instr: 100,
            slope_min: 0.5,
            slope_max: 2.0,
        };
        let mut c = VirtualClock::new(VirtNanos::ZERO, 1.0, Some(cfg));
        // Enormous real-time lead clamps at slope_max.
        c.apply_epoch(SimTime::from_millis(100), SimDuration::from_nanos(10));
        assert_eq!(c.slope(), 2.0);
        // Next epoch: virt far ahead of real now; clamps at slope_min
        // (stays positive: virtual time never reverses).
        c.apply_epoch(SimTime::from_nanos(1), SimDuration::from_nanos(1));
        assert_eq!(c.slope(), 0.5);
        assert!(c.virt(300) > c.virt(200));
    }

    #[test]
    fn identical_updates_keep_replicas_identical() {
        let cfg = EpochConfig {
            interval_instr: 500,
            slope_min: 0.2,
            slope_max: 5.0,
        };
        let mut a = VirtualClock::new(VirtNanos::from_nanos(42), 1.5, Some(cfg));
        let mut b = a.clone();
        for k in 1..10u64 {
            let r = SimTime::from_nanos(k * 700);
            let d = SimDuration::from_nanos(k * 650);
            a.apply_epoch(r, d);
            b.apply_epoch(r, d);
        }
        assert_eq!(a, b);
        assert_eq!(a.virt(12_345), b.virt(12_345));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn instr_backwards_panics() {
        let cfg = EpochConfig {
            interval_instr: 100,
            slope_min: 0.5,
            slope_max: 2.0,
        };
        let mut c = VirtualClock::new(VirtNanos::ZERO, 1.0, Some(cfg));
        c.apply_epoch(SimTime::from_nanos(100), SimDuration::from_nanos(100));
        c.virt(50); // before the epoch base
    }

    #[test]
    #[should_panic(expected = "slope must be positive")]
    fn zero_slope_panics() {
        VirtualClock::new(VirtNanos::ZERO, 0.0, None);
    }
}
