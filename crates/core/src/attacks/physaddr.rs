//! §7.4 (first half) — finding the physical address of an attacker page
//! (**Table 5**), enabling Flush+Reload through physmap.
//!
//! The attacker allocates a 2 MiB transparent huge page `A` (after a
//! random number of decoy allocations, re-randomizing its physical
//! placement), then guesses physical addresses `Pg`: for each guess the
//! `readv()` call-site confusion makes the kernel transiently load
//! `physmap + Pg`; if `Pg` is right, that load touches the *same
//! physical line* as `A`, and a Flush+Reload on `A` lights up.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phantom_isa::BranchKind;
use phantom_kernel::image::{LISTING2_CALL_OFFSET, LISTING3_DISP, LISTING3_OFFSET};
use phantom_kernel::System;
use phantom_mem::{AccessKind, PageFlags, PrivilegeLevel, VirtAddr, HUGE_PAGE_SIZE};
use phantom_sidechannel::{NoiseModel, Reading};

use crate::attacks::AttackError;
use crate::primitives::PrimitiveConfig;

/// Configuration for the physical-address search.
#[derive(Debug, Clone)]
pub struct PhysAddrConfig {
    /// Up to this many decoy huge pages are allocated first (the paper
    /// allocates 0–99 to re-randomize).
    pub max_decoys: u64,
    /// Noise / decoy seed.
    pub seed: u64,
}

impl Default for PhysAddrConfig {
    fn default() -> PhysAddrConfig {
        PhysAddrConfig {
            max_decoys: 100,
            seed: 0,
        }
    }
}

/// Result of one physical-address derandomization run.
#[derive(Debug, Clone, Copy)]
pub struct PhysAddrResult {
    /// The attacker's guess for the physical base of the huge page.
    pub guessed_pa: Option<u64>,
    /// Ground truth.
    pub actual_pa: u64,
    /// Whether the guess was right.
    pub correct: bool,
    /// Huge-page candidates tested before the hit.
    pub guesses_tested: u64,
    /// Confidence of the hit reload (margin from the Flush+Reload
    /// threshold, normalized); 0 when the scan exhausted all candidates.
    pub confidence: f64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Simulated seconds consumed.
    pub seconds: f64,
}

/// Run the search. `image_base` and `physmap_base` come from the §7.1
/// and §7.2 stages.
///
/// # Errors
///
/// Returns [`AttackError`] on setup or syscall failure.
pub fn find_physical_address(
    sys: &mut System,
    image_base: VirtAddr,
    physmap_base: VirtAddr,
    config: &PhysAddrConfig,
) -> Result<PhysAddrResult, AttackError> {
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Re-randomize A's physical placement with decoy allocations.
    let decoys = rng.gen_range(0..config.max_decoys.max(1));
    for _ in 0..decoys {
        sys.machine_mut()
            .phys_mut()
            .alloc_huge()
            .map_err(|e| AttackError(e.to_string()))?;
    }
    // Allocate A: a user huge page.
    let a_uva = VirtAddr::new(0x5800_0000);
    let a_pa = sys
        .machine_mut()
        .phys_mut()
        .alloc_huge()
        .map_err(|e| AttackError(e.to_string()))?;
    sys.machine_mut()
        .page_table_mut()
        .map_2m(a_uva, a_pa, PageFlags::USER_DATA);

    let attacker = VirtAddr::new(0x5000_0000);
    let cfg = PrimitiveConfig::for_system(sys, attacker);
    let mut noise = NoiseModel::realistic(config.seed);
    let listing2_call = image_base + LISTING2_CALL_OFFSET;
    let listing3 = image_base + LISTING3_OFFSET;
    let start_cycles = sys.machine().cycles();

    // Inject once; the entry persists across guesses.
    sys.train_user_branch(
        cfg.user_alias(listing2_call),
        BranchKind::Indirect,
        listing3,
    )
    .map_err(|e| AttackError(e.to_string()))?;

    let (threshold, span) = {
        let c = sys.machine().caches().config();
        (
            c.l1_latency + c.l2_latency + noise.jitter_cycles,
            c.memory_latency,
        )
    };

    let capacity = sys.machine().phys().capacity();
    let mut guessed = None;
    let mut confidence = 0.0;
    let mut tested = 0;
    let mut pg = 0u64;
    while pg + HUGE_PAGE_SIZE <= capacity {
        tested += 1;
        // Re-inject: the previous readv architecturally executed the
        // call and retrained the entry with its true kind.
        sys.train_user_branch(
            cfg.user_alias(listing2_call),
            BranchKind::Indirect,
            listing3,
        )
        .map_err(|e| AttackError(e.to_string()))?;
        phantom_sidechannel::flush(sys.machine_mut(), a_uva);
        // Kernel transiently loads physmap + Pg (the gadget adds 0xbe0,
        // so aim just below).
        let target = physmap_base + pg;
        sys.readv(0, target.raw().wrapping_sub(LISTING3_DISP as u64))
            .map_err(|e| AttackError(e.to_string()))?;
        let latency = phantom_sidechannel::reload(sys.machine_mut(), a_uva, &mut noise);
        let reading = Reading::classify(latency, threshold, span);
        if reading.hit {
            guessed = Some(pg);
            confidence = reading.confidence.value();
            break;
        }
        pg += HUGE_PAGE_SIZE;
    }

    let cycles = sys.machine().cycles() - start_cycles;
    // Verify the guess by checking the user page translates there.
    let actual_pa = sys
        .machine()
        .page_table()
        .translate(a_uva, AccessKind::Read, PrivilegeLevel::User)
        .map_err(|e| AttackError(e.to_string()))?
        .raw();
    Ok(PhysAddrResult {
        guessed_pa: guessed,
        actual_pa,
        correct: guessed == Some(actual_pa),
        guesses_tested: tested,
        confidence,
        cycles,
        seconds: sys.machine().profile().cycles_to_seconds(cycles),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_pipeline::UarchProfile;

    #[test]
    fn finds_the_physical_address_on_zen2() {
        let mut sys = System::new(UarchProfile::zen2(), 1 << 28, 41).unwrap();
        let (image_base, physmap_base) = (sys.image().base, sys.layout().physmap_base());
        let config = PhysAddrConfig {
            max_decoys: 8,
            seed: 41,
        };
        let r = find_physical_address(&mut sys, image_base, physmap_base, &config).unwrap();
        assert!(
            r.correct,
            "guessed {:?} actual {:#x}",
            r.guessed_pa, r.actual_pa
        );
        assert!(r.guesses_tested >= 1);
        assert!(r.confidence > 0.0, "{r:?}");
    }

    #[test]
    fn finds_the_physical_address_on_zen1() {
        let mut sys = System::new(UarchProfile::zen1(), 1 << 28, 42).unwrap();
        let (image_base, physmap_base) = (sys.image().base, sys.layout().physmap_base());
        let config = PhysAddrConfig {
            max_decoys: 4,
            seed: 42,
        };
        let r = find_physical_address(&mut sys, image_base, physmap_base, &config).unwrap();
        assert!(r.correct);
    }

    #[test]
    fn decoy_count_moves_the_physical_address() {
        let mut a = System::new(UarchProfile::zen2(), 1 << 28, 43).unwrap();
        let mut b = System::new(UarchProfile::zen2(), 1 << 28, 44).unwrap();
        let (a_image, a_physmap) = (a.image().base, a.layout().physmap_base());
        let (b_image, b_physmap) = (b.image().base, b.layout().physmap_base());
        let ra = find_physical_address(
            &mut a,
            a_image,
            a_physmap,
            &PhysAddrConfig {
                max_decoys: 16,
                seed: 10,
            },
        )
        .unwrap();
        let rb = find_physical_address(
            &mut b,
            b_image,
            b_physmap,
            &PhysAddrConfig {
                max_decoys: 16,
                seed: 11,
            },
        )
        .unwrap();
        assert!(ra.correct && rb.correct);
        assert_ne!(ra.actual_pa, rb.actual_pa, "decoys re-randomize placement");
    }

    #[test]
    fn no_signal_on_zen4() {
        // No phantom execution: the scan exhausts all candidates.
        let mut sys = System::new(UarchProfile::zen4(), 1 << 26, 45).unwrap();
        let (image_base, physmap_base) = (sys.image().base, sys.layout().physmap_base());
        let config = PhysAddrConfig {
            max_decoys: 2,
            seed: 45,
        };
        let r = find_physical_address(&mut sys, image_base, physmap_base, &config).unwrap();
        assert!(!r.correct);
        assert_eq!(r.guessed_pa, None);
        assert_eq!(r.confidence, 0.0, "no hit, no confidence");
    }
}
