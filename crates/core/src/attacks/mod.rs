//! §7 — the end-to-end exploits.
//!
//! * [`kaslr_image`] — derandomize the kernel image with P1 (**Table 3**);
//! * [`physmap`] — derandomize physmap with P2 on Zen 1/2 (**Table 4**);
//! * [`physaddr`] — find the physical address of an attacker page via
//!   physmap + Flush+Reload (**Table 5**);
//! * [`mds_leak`] — leak arbitrary kernel memory by nesting a PHANTOM
//!   steer inside a Spectre window over a single-load MDS gadget (§7.4);
//! * [`branch_spectre`] — recover a victim's branch outcome through the
//!   conditional-branch predictor itself (PHT state, no cache probe),
//!   via a spec-derived out-of-place alias.
//!
//! Every attack consults the system's ground truth **only** to score its
//! own guess; the guess itself is derived from side-channel measurements.

pub mod branch_spectre;
pub mod kaslr_image;
pub mod mds_leak;
pub mod physaddr;
pub mod physmap;

pub use branch_spectre::{
    out_of_place_cbp_alias, out_of_place_cbp_aliases, pht_channel_decoded_on, pht_channel_on,
    PhtChannelConfig, PhtChannelResult,
};
pub use kaslr_image::{break_kaslr_image, KaslrImageConfig};
pub use mds_leak::{leak_kernel_memory, MdsLeakConfig, MdsLeakResult};
pub use physaddr::{find_physical_address, PhysAddrConfig, PhysAddrResult};
pub use physmap::{break_physmap, PhysmapConfig};

use phantom_kernel::System;

/// A scan window of `width` slots guaranteed to contain `actual`
/// (`width == 0` scans everything). Using a window scales the runtime
/// linearly while preserving the per-candidate discrimination problem;
/// the full scan is the same loop over more candidates.
pub fn scan_window(actual: u64, width: u64, total: u64) -> std::ops::Range<u64> {
    if width == 0 || width >= total {
        return 0..total;
    }
    let lo = actual.saturating_sub(width / 2).min(total - width);
    lo..lo + width
}

/// Normalize a candidate scan's winning margin into a confidence in
/// `[0, 1]`: the gap between the best and runner-up
/// [`bounded_score`](phantom_sidechannel::bounded_score) relative to
/// the maximum attainable score over `sets` monitored sets. A
/// non-positive winning score is indistinguishable from noise and
/// scores 0 outright.
pub fn score_confidence(best: i64, runner_up: i64, sets: usize) -> f64 {
    if best <= 0 {
        return 0.0;
    }
    let full = (sets as i64 * phantom_sidechannel::SCORE_CLAMP).max(1) as f64;
    ((best - runner_up).max(0) as f64 / full).clamp(0.0, 1.0)
}

/// Result of one KASLR slot scan: a Table 3 (kernel image) or Table 4
/// (physmap) run.
#[derive(Debug, Clone, Copy)]
pub struct SlotScanResult {
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

/// Score every candidate in `slots` with `score` (a §7.3 bounded score
/// over `sets` monitored sets) and keep the best one: the first of the
/// highest scores wins, and the runner-up is the highest score below
/// it. `actual_slot` is the ground truth, used only to grade the guess.
///
/// # Errors
///
/// Returns [`AttackError`] on an empty slot range or a failed probe.
fn scan_slots(
    sys: &mut System,
    slots: std::ops::Range<u64>,
    sets: usize,
    actual_slot: u64,
    mut score: impl FnMut(&mut System, u64) -> Result<i64, AttackError>,
) -> Result<SlotScanResult, AttackError> {
    let start_cycles = sys.machine().cycles();
    let mut best: Option<(u64, i64)> = None;
    let mut runner_up: i64 = 0;
    for slot in slots {
        let score = score(sys, slot)?;
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
    let cycles = sys.machine().cycles() - start_cycles;
    Ok(SlotScanResult {
        guessed_slot,
        actual_slot,
        correct: guessed_slot == actual_slot,
        best_score,
        confidence: score_confidence(best_score, runner_up, sets),
        cycles,
        seconds: sys.machine().profile().cycles_to_seconds(cycles),
    })
}

/// Common error type for attack execution.
#[derive(Debug)]
pub struct AttackError(pub String);

impl std::fmt::Display for AttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "attack failed: {}", self.0)
    }
}

impl std::error::Error for AttackError {}

impl From<crate::primitives::PrimitiveError> for AttackError {
    fn from(e: crate::primitives::PrimitiveError) -> Self {
        AttackError(e.to_string())
    }
}

impl From<phantom_kernel::SystemError> for AttackError {
    fn from(e: phantom_kernel::SystemError) -> Self {
        AttackError(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_window_always_contains_actual() {
        for (actual, width, total) in [(0u64, 16u64, 488u64), (487, 16, 488), (200, 0, 488)] {
            let w = scan_window(actual, width, total);
            assert!(w.contains(&actual), "{actual} {width} {total}");
            assert!(w.end <= total);
        }
    }

    #[test]
    fn score_confidence_normalizes_the_winning_margin() {
        // A full-scale gap over 3 sets (3 × SCORE_CLAMP) is certainty.
        assert_eq!(score_confidence(30, 0, 3), 1.0);
        assert_eq!(score_confidence(15, 0, 3), 0.5);
        assert_eq!(score_confidence(20, 14, 3), 0.2);
        // Noise-level winners carry no confidence.
        assert_eq!(score_confidence(0, -5, 3), 0.0);
        assert_eq!(score_confidence(-2, -5, 3), 0.0);
        // A runner-up above the winner clamps instead of going negative.
        assert_eq!(score_confidence(5, 9, 3), 0.0);
        assert_eq!(score_confidence(100, 0, 3), 1.0, "clamped to 1");
    }
}
