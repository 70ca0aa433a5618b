//! Adaptive, confidence-scored bit decoding — the noise-robust
//! replacement for a fixed majority vote.
//!
//! A fixed `N`-vote majority spends the same probe budget on every bit:
//! too much on quiet bits (a unanimous, high-margin pair of probes is
//! already decisive) and too little on noisy ones (a 2–1 split of
//! near-threshold readings decodes as confidently as a clean sweep).
//! [`decode_adaptive`] instead casts votes in escalating rounds and
//! stops as soon as the tally has a majority *and* the combined
//! confidence clears a floor. A bit that stays tied through the whole
//! schedule yields an explicit [`Decoded::Abstain`] instead of a coin
//! flip, so callers can retry, skip, or report the gap honestly.
//!
//! The combined confidence is the lopsidedness of the tally capped by
//! the weakest reading *on the winning side*: a unanimous tally of
//! near-threshold measurements is still suspect, but one noisy outvoted
//! reading cannot poison an otherwise clean decode.

use phantom_sidechannel::{Confidence, VoteTally};

/// The outcome of decoding one bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// The votes reached a majority.
    Bit(bool),
    /// The votes stayed tied through the full escalation schedule; the
    /// decoder declines to guess.
    Abstain,
}

impl Decoded {}

/// Escalation schedule and stopping rule for [`decode_adaptive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderConfig {
    /// Additional votes cast in each round (a round of 0 is skipped).
    /// The total budget is the sum; escalation is bounded.
    pub schedule: [u32; 3],
    /// Minimum combined confidence at which a round's majority is
    /// accepted without escalating further.
    pub floor: f64,
}

impl Default for DecoderConfig {
    /// Two cheap votes first, then 2 and 4 more only when the early
    /// rounds tie or sit near the threshold. Quiet bits cost 2 probes
    /// (vs. 3 for the old fixed vote); noisy bits get up to 8.
    fn default() -> DecoderConfig {
        DecoderConfig {
            schedule: [2, 2, 4],
            floor: 0.5,
        }
    }
}

impl DecoderConfig {
    /// A non-adaptive config reproducing the legacy fixed majority
    /// vote: exactly `votes` probes per bit, no escalation, no
    /// confidence requirement.
    #[cfg(test)]
    pub fn fixed(votes: u32) -> DecoderConfig {
        DecoderConfig {
            schedule: [votes, 0, 0],
            floor: 0.0,
        }
    }

    /// The worst-case probe count per bit.
    #[cfg(test)]
    pub fn max_votes(&self) -> u32 {
        self.schedule.iter().sum()
    }
}

/// What [`decode_adaptive`] learned about one bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeOutcome {
    /// The decision (or abstention).
    pub decoded: Decoded,
    /// Combined confidence: tally lopsidedness capped by the weakest
    /// winning-side reading. Zero on abstention.
    pub confidence: Confidence,
    /// Votes actually cast (the per-bit probe cost).
    pub probes: u32,
    /// The final tally.
    pub tally: VoteTally,
}

/// Decode one bit by escalating rounds of confidence-scored votes.
///
/// `vote` is called once per probe with the running vote index and
/// returns the boolean observation plus its measurement confidence
/// (e.g. a [`Reading`](phantom_sidechannel::Reading)'s `hit` and
/// `confidence`). Voting stops after the first round whose tally has a
/// majority with combined confidence at or above `config.floor`, or
/// when the schedule is exhausted.
///
/// # Errors
///
/// Propagates the first error `vote` returns; votes already cast are
/// discarded.
pub fn decode_adaptive<E>(
    config: &DecoderConfig,
    mut vote: impl FnMut(u32) -> Result<(bool, Confidence), E>,
) -> Result<DecodeOutcome, E> {
    let mut tally = VoteTally::new();
    // Weakest reading seen voting 0 / voting 1.
    let mut weakest = [Confidence::FULL; 2];
    let mut combined = Confidence::ZERO;
    for &votes in &config.schedule {
        for _ in 0..votes {
            let (hit, conf) = vote(tally.total)?;
            tally.push(hit);
            let side = &mut weakest[usize::from(hit)];
            *side = side.min(conf);
        }
        combined = match tally.majority() {
            Some(winner) => tally.confidence().min(weakest[usize::from(winner)]),
            None => Confidence::ZERO,
        };
        if tally.majority().is_some() && combined.meets(config.floor) {
            break;
        }
    }
    Ok(DecodeOutcome {
        decoded: match tally.majority() {
            Some(b) => Decoded::Bit(b),
            None => Decoded::Abstain,
        },
        confidence: combined,
        probes: tally.total,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A vote source replaying a fixed script of (hit, confidence).
    fn script(
        votes: &[(bool, f64)],
    ) -> impl FnMut(u32) -> Result<(bool, Confidence), std::convert::Infallible> + '_ {
        move |i| {
            let (hit, c) = votes[i as usize];
            Ok((hit, Confidence::new(c)))
        }
    }

    #[test]
    fn confident_unanimous_round_stops_early() {
        let o = decode_adaptive(
            &DecoderConfig::default(),
            script(&[(true, 0.9), (true, 0.8)]),
        )
        .unwrap();
        assert_eq!(o.decoded, Decoded::Bit(true));
        assert_eq!(o.probes, 2);
        assert_eq!(o.confidence.value(), 0.8, "capped by the weakest vote");
    }

    #[test]
    fn first_round_tie_escalates_once() {
        let mut votes = vec![(true, 1.0), (false, 1.0)];
        votes.extend([(true, 1.0); 2]);
        let o = decode_adaptive(&DecoderConfig::default(), script(&votes)).unwrap();
        assert_eq!(o.decoded, Decoded::Bit(true));
        assert_eq!(o.probes, 4, "one escalation round resolved it");
        assert_eq!(o.tally.ones, 3);
    }

    #[test]
    fn outvoted_noisy_reading_does_not_poison_the_decode() {
        // The lone 0-vote has zero confidence; the winning side is clean.
        let mut votes = vec![(true, 1.0), (false, 0.0)];
        votes.extend([(true, 1.0); 2]);
        let o = decode_adaptive(&DecoderConfig::default(), script(&votes)).unwrap();
        assert_eq!(o.decoded, Decoded::Bit(true));
        assert_eq!(o.probes, 4);
        assert!(o.confidence.meets(0.5), "{o:?}");
    }

    #[test]
    fn low_margin_majority_exhausts_the_schedule() {
        // Unanimous but every reading hugs the threshold: never meets
        // the floor, so all 8 votes are spent — and the low combined
        // confidence is reported honestly.
        let votes = vec![(true, 0.1); 8];
        let o = decode_adaptive(&DecoderConfig::default(), script(&votes)).unwrap();
        assert_eq!(o.decoded, Decoded::Bit(true));
        assert_eq!(o.probes, 8);
        assert!((o.confidence.value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn persistent_tie_abstains_instead_of_guessing() {
        let votes: Vec<(bool, f64)> = (0..8).map(|i| (i % 2 == 0, 1.0)).collect();
        let o = decode_adaptive(&DecoderConfig::default(), script(&votes)).unwrap();
        assert_eq!(o.decoded, Decoded::Abstain);
        assert_eq!(o.probes, 8);
        assert_eq!(o.confidence, Confidence::ZERO);
        assert_eq!(o.tally.majority(), None);
    }

    #[test]
    fn fixed_config_reproduces_the_legacy_vote() {
        let cfg = DecoderConfig::fixed(3);
        assert_eq!(cfg.max_votes(), 3);
        // Even a zero-confidence 2-1 split decodes (floor is 0).
        let o = decode_adaptive(&cfg, script(&[(true, 0.0), (false, 0.0), (true, 0.0)])).unwrap();
        assert_eq!(o.decoded, Decoded::Bit(true));
        assert_eq!(o.probes, 3);
    }

    #[test]
    fn vote_errors_propagate() {
        let err = decode_adaptive(&DecoderConfig::default(), |i| {
            if i == 1 {
                Err("probe died")
            } else {
                Ok((true, Confidence::FULL))
            }
        })
        .unwrap_err();
        assert_eq!(err, "probe died");
    }

    #[test]
    fn empty_schedule_abstains_at_zero_cost() {
        let cfg = DecoderConfig {
            schedule: [0, 0, 0],
            floor: 0.5,
        };
        let o = decode_adaptive(&cfg, script(&[])).unwrap();
        assert_eq!(o.decoded, Decoded::Abstain);
        assert_eq!(o.probes, 0);
    }
}
