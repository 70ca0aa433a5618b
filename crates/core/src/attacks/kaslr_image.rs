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
use phantom_pipeline::UarchProfile;
use phantom_sidechannel::{bounded_score, NoiseModel};

use crate::attacks::{scan_window, score_confidence, AttackError};
use crate::primitives::{p1_probe_in_set, PrimitiveConfig};
use crate::runner::{Scenario, ScenarioError, Trial};

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

/// Result of one derandomization run.
#[derive(Debug, Clone, Copy)]
pub struct KaslrImageResult {
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

/// Run the attack on a booted system.
///
/// # Errors
///
/// Returns [`AttackError`] on primitive failure.
pub fn break_kaslr_image(
    sys: &mut System,
    config: &KaslrImageConfig,
) -> Result<KaslrImageResult, AttackError> {
    let attacker = VirtAddr::new(0x5000_0000);
    let cfg = PrimitiveConfig::for_system(sys, attacker);
    let mut noise = NoiseModel::realistic(config.seed);
    let start_cycles = sys.machine().cycles();

    let mut best: Option<(u64, i64)> = None;
    let mut runner_up: i64 = 0;
    for slot in config.slots.clone() {
        let candidate_base = KaslrLayout::candidate_image_base(slot);
        let victim = candidate_base + LISTING1_OFFSET;

        let mut signal = Vec::with_capacity(config.sets_per_candidate);
        let mut baseline = Vec::with_capacity(config.sets_per_candidate);
        for i in 0..config.sets_per_candidate {
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
    let actual_slot = sys.layout().image_slot;
    let cycles = sys.machine().cycles() - start_cycles;
    Ok(KaslrImageResult {
        guessed_slot,
        actual_slot,
        correct: guessed_slot == actual_slot,
        best_score,
        confidence: score_confidence(best_score, runner_up, config.sets_per_candidate),
        cycles,
        seconds: sys.machine().profile().cycles_to_seconds(cycles),
    })
}

/// The Table 3 sweep as a trial scenario: one kernel-image KASLR break
/// per trial, each on its own freshly booted (rebooted) [`System`].
#[derive(Debug, Clone)]
pub struct KaslrImageSweep {
    /// Microarchitecture under attack.
    pub profile: UarchProfile,
    /// Number of reboots (trials).
    pub runs: usize,
    /// Scanned window per run, in slots (0 = full 488).
    pub window: u64,
    /// Base seed; run `r` boots with `seed + r`.
    pub seed: u64,
}

impl Scenario for KaslrImageSweep {
    type State = ();
    type Checkpoint = ();
    type Sample = KaslrImageResult;
    type Output = Vec<KaslrImageResult>;

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

    fn probe(&self, _state: &mut (), trial: Trial) -> Result<KaslrImageResult, ScenarioError> {
        let seed = self.seed + trial.index as u64;
        let mut sys =
            System::new_cached(self.profile.clone(), 1 << 30, seed).map_err(AttackError::from)?;
        let slots = scan_window(sys.layout().image_slot, self.window, KERNEL_IMAGE_SLOTS);
        let config = KaslrImageConfig {
            slots,
            seed,
            ..Default::default()
        };
        Ok(break_kaslr_image(&mut sys, &config)?)
    }

    fn score(&self, samples: Vec<KaslrImageResult>) -> Vec<KaslrImageResult> {
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
