//! The measurement noise model.
//!
//! The simulator itself is deterministic; real measurements are not.
//! Sub-100% accuracies in the paper's Tables 2–5 come from timing
//! jitter, replacement-policy interference and syscall cache thrash
//! (§7.3 discusses how noisy L1I Prime+Probe is). We reintroduce those
//! effects with a seeded model so experiments are noisy *and*
//! reproducible. The paper's `stress -c 10` sibling-thread trick is the
//! `smt_stress` knob: it stabilizes the victim's timing, modeled as
//! reduced spurious-eviction probability.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded measurement noise.
///
/// # Examples
///
/// ```
/// use phantom_sidechannel::NoiseModel;
/// let mut n = NoiseModel::realistic(1);
/// let jittered = n.jitter(100);
/// assert!(jittered > 0);
/// ```
#[derive(Debug, Clone)]
pub struct NoiseModel {
    rng: StdRng,
    /// Standard-deviation-ish amplitude of timing jitter in cycles
    /// (uniform ±amplitude).
    pub jitter_cycles: u64,
    /// Probability that a primed way is spuriously evicted before the
    /// probe (replacement interference, syscall thrash).
    pub spurious_evict: f64,
    /// Probability that a genuinely evicted way is re-fetched before the
    /// probe (prefetcher interference) — a missed signal.
    pub missed_signal: f64,
}

impl NoiseModel {
    /// No noise at all (unit tests of mechanism).
    pub fn quiet(seed: u64) -> NoiseModel {
        NoiseModel {
            rng: StdRng::seed_from_u64(seed),
            jitter_cycles: 0,
            spurious_evict: 0.0,
            missed_signal: 0.0,
        }
    }

    /// Hardware-flavored defaults: a few cycles of jitter, occasional
    /// spurious evictions and missed signals.
    pub fn realistic(seed: u64) -> NoiseModel {
        NoiseModel {
            rng: StdRng::seed_from_u64(seed),
            jitter_cycles: 3,
            spurious_evict: 0.03,
            missed_signal: 0.02,
        }
    }

    /// Realistic noise with the paper's sibling-thread stress workload
    /// applied (§6.4 footnote: `stress -c 10` improves accuracy).
    pub fn with_smt_stress(seed: u64) -> NoiseModel {
        NoiseModel {
            rng: StdRng::seed_from_u64(seed),
            jitter_cycles: 2,
            spurious_evict: 0.01,
            missed_signal: 0.01,
        }
    }

    /// The same noise parameters with a fresh RNG stream. Sharded trial
    /// runners use this to give every trial an independent, per-trial
    /// noise stream while keeping the model's calibration knobs.
    pub fn reseeded(&self, seed: u64) -> NoiseModel {
        NoiseModel {
            rng: StdRng::seed_from_u64(seed),
            ..self.clone()
        }
    }

    /// Apply jitter to a latency measurement.
    pub fn jitter(&mut self, latency: u64) -> u64 {
        if self.jitter_cycles == 0 {
            return latency;
        }
        let amp = self.jitter_cycles as i64;
        let delta = self.rng.gen_range(-amp..=amp);
        latency.saturating_add_signed(delta)
    }

    /// Roll for a spurious pre-probe eviction.
    pub fn rolls_spurious_evict(&mut self) -> bool {
        self.spurious_evict > 0.0 && self.rng.gen_bool(self.spurious_evict)
    }

    /// Roll for a missed signal (victim effect hidden).
    pub fn rolls_missed_signal(&mut self) -> bool {
        self.missed_signal > 0.0 && self.rng.gen_bool(self.missed_signal)
    }

    /// A random value in `[0, n)` from the model's RNG (tie-breaking,
    /// workload randomization). `pick(0)` returns 0 — an empty choice
    /// has exactly one outcome — rather than panicking on the empty
    /// range `0..0`.
    #[cfg(test)]
    pub fn pick(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.rng.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_is_deterministic_identity() {
        let mut n = NoiseModel::quiet(0);
        assert_eq!(n.jitter(42), 42);
        assert!(!n.rolls_spurious_evict());
        assert!(!n.rolls_missed_signal());
    }

    #[test]
    fn jitter_stays_bounded() {
        let mut n = NoiseModel::realistic(1);
        for _ in 0..1000 {
            let j = n.jitter(100);
            assert!((97..=103).contains(&j), "{j}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = NoiseModel::realistic(5);
        let mut b = NoiseModel::realistic(5);
        for _ in 0..100 {
            assert_eq!(a.jitter(50), b.jitter(50));
            assert_eq!(a.rolls_spurious_evict(), b.rolls_spurious_evict());
        }
    }

    #[test]
    fn stress_reduces_spurious_evictions() {
        let normal = NoiseModel::realistic(0);
        let stressed = NoiseModel::with_smt_stress(0);
        assert!(stressed.spurious_evict < normal.spurious_evict);
    }

    #[test]
    fn reseeding_keeps_knobs_and_replaces_the_stream() {
        let mut a = NoiseModel::realistic(1);
        let mut b = a.reseeded(1);
        assert_eq!(a.spurious_evict, b.spurious_evict);
        assert_eq!(a.jitter_cycles, b.jitter_cycles);
        for _ in 0..50 {
            assert_eq!(a.jitter(50), b.jitter(50), "same seed, same stream");
        }
        let mut c = NoiseModel::realistic(1);
        let mut d = c.reseeded(2);
        let diverges = (0..50).any(|_| c.jitter(50) != d.jitter(50));
        assert!(diverges, "a different seed yields a different stream");
    }

    #[test]
    fn pick_zero_returns_zero_instead_of_panicking() {
        // Regression: `pick(0)` used to hit `gen_range(0..0)`, an empty
        // range, and panic inside rand.
        let mut n = NoiseModel::realistic(9);
        assert_eq!(n.pick(0), 0);
        // The RNG stream is untouched by the degenerate call: a model
        // that never called pick(0) stays in lockstep.
        let mut twin = NoiseModel::realistic(9);
        assert_eq!(n.pick(8), twin.pick(8));
        assert_eq!(n.jitter(50), twin.jitter(50));
        // And normal picks stay in range.
        for bound in [1u64, 2, 7, 100] {
            assert!(n.pick(bound) < bound);
        }
    }

    #[test]
    fn spurious_rate_is_roughly_calibrated() {
        let mut n = NoiseModel::realistic(2);
        let hits = (0..10_000).filter(|_| n.rolls_spurious_evict()).count();
        assert!(
            (150..=450).contains(&hits),
            "~3% expected, got {hits}/10000"
        );
    }
}
