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
use phantom_pipeline::UarchProfile;
use phantom_sidechannel::{bounded_score, NoiseModel};

use crate::attacks::{scan_window, score_confidence, AttackError};
use crate::primitives::{p2_probe_in_set, PrimitiveConfig};
use crate::runner::{Scenario, ScenarioError, Trial};

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

/// Result of one physmap derandomization run.
#[derive(Debug, Clone, Copy)]
pub struct PhysmapResult {
    /// The attacker's best guess.
    pub guessed_slot: u64,
    /// Ground truth (scoring only).
    pub actual_slot: u64,
    /// Whether the guess was right.
    pub correct: bool,
    /// The winning score.
    pub best_score: i64,
    /// How decisively the winner beat the runner-up, in `[0, 1]`
    /// (see [`score_confidence`]).
    pub confidence: f64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Simulated seconds consumed.
    pub seconds: f64,
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
) -> Result<PhysmapResult, AttackError> {
    let attacker = VirtAddr::new(0x5000_0000);
    let cfg = PrimitiveConfig::for_system(sys, attacker);
    let mut noise = NoiseModel::realistic(config.seed);
    let listing2_call = image_base + LISTING2_CALL_OFFSET;
    let listing3 = image_base + LISTING3_OFFSET;
    let start_cycles = sys.machine().cycles();

    let mut best: Option<(u64, i64)> = None;
    let mut runner_up: i64 = 0;
    for slot in config.slots.clone() {
        let candidate = KaslrLayout::candidate_physmap_base(slot);
        let mut signal = Vec::new();
        let mut baseline = Vec::new();
        for i in 0..config.sets_per_candidate {
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
        let score = bounded_score(&signal, &baseline);
        match best {
            Some((_, s)) if score > s => {
                runner_up = s;
                best = Some((slot, score));
            }
            Some(_) => runner_up = runner_up.max(score),
            None => best = Some((slot, score)),
        }
    }

    let Some((guessed_slot, best_score)) = best else {
        return Err(AttackError("empty slot range".into()));
    };
    let actual_slot = sys.layout().physmap_slot;
    let cycles = sys.machine().cycles() - start_cycles;
    Ok(PhysmapResult {
        guessed_slot,
        actual_slot,
        correct: guessed_slot == actual_slot,
        best_score,
        confidence: score_confidence(best_score, runner_up, config.sets_per_candidate),
        cycles,
        seconds: sys.machine().profile().cycles_to_seconds(cycles),
    })
}

/// The Table 4 sweep as a trial scenario: one physmap break per trial,
/// each on its own rebooted [`System`]. The §7.1 image base is read
/// from the fresh boot (that stage's output precedes this one).
#[derive(Debug, Clone)]
pub struct PhysmapSweep {
    /// Microarchitecture under attack.
    pub profile: UarchProfile,
    /// Number of reboots (trials).
    pub runs: usize,
    /// Scanned window per run, in slots (0 = full 25 600).
    pub window: u64,
    /// Base seed; run `r` boots with `seed + r`.
    pub seed: u64,
}

impl Scenario for PhysmapSweep {
    type State = ();
    type Checkpoint = ();
    type Sample = PhysmapResult;
    type Output = Vec<PhysmapResult>;

    fn trials(&self) -> usize {
        self.runs
    }

    fn setup(&self) -> Result<(), ScenarioError> {
        Ok(())
    }

    fn checkpoint(&self, (): ()) -> Result<(), ScenarioError> {
        Ok(())
    }

    fn fork(&self, (): &()) -> Result<(), ScenarioError> {
        Ok(())
    }

    fn probe(&self, _state: &mut (), trial: Trial) -> Result<PhysmapResult, ScenarioError> {
        let seed = self.seed + trial.index as u64;
        let mut sys =
            System::new_cached(self.profile.clone(), 1 << 30, seed).map_err(AttackError::from)?;
        let slots = scan_window(sys.layout().physmap_slot, self.window, PHYSMAP_SLOTS);
        let image_base = sys.image().base; // the §7.1 stage's output
        let config = PhysmapConfig {
            slots,
            seed,
            ..Default::default()
        };
        Ok(break_physmap(&mut sys, image_base, &config)?)
    }

    fn score(&self, samples: Vec<PhysmapResult>) -> Vec<PhysmapResult> {
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
