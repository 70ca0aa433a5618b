//! Ablations over the design parameters DESIGN.md calls out: where does
//! transient execution appear along the decoder-resteer axis, how does
//! BTB associativity shape entry survival, and how does measurement
//! noise erode channel accuracy.

use phantom_bpu::{Btb, BtbScheme};
use phantom_isa::BranchKind;
use phantom_mem::{PrivilegeLevel, VirtAddr};
use phantom_pipeline::UarchProfile;
use phantom_sidechannel::NoiseModel;

use crate::channel::ChannelError;
use crate::covert::{fetch_channel_decoded_on, CovertConfig, CovertResult};
use crate::decode::DecoderConfig;
use crate::experiment::{run_combo, Stage, TrainKind, VictimKind};
use crate::primitives::PrimitiveError;
use crate::runner::TrialRunner;

/// One point of the resteer-latency sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyPoint {
    /// Frontend resteer latency (cycles) applied to the profile.
    pub latency: u64,
    /// Surviving µop budget past fetch+decode.
    pub spare_uops: u32,
    /// Deepest stage the standard nop-trained-as-jmp* experiment
    /// reached.
    pub stage: Stage,
}

/// Sweep the decoder-resteer latency on a Zen 2-shaped profile and
/// observe where EX appears: one synthetic profile per latency point,
/// each probed with the standard nop-trained-as-`jmp*` experiment. The
/// Zen 1/2 vs Zen 3/4 split in Table 1 is exactly this threshold:
/// transient execution exists iff the resteer lands after the first
/// wrong-path µop can dispatch.
///
/// # Errors
///
/// Returns [`ChannelError`] if an experiment fails to set up.
pub fn resteer_latency_sweep_on(
    runner: &TrialRunner,
    latencies: &[u64],
) -> Result<Vec<LatencyPoint>, ChannelError> {
    runner
        .map(latencies.len(), 0, |trial| {
            let latency = latencies[trial.index];
            let mut profile = UarchProfile::zen2();
            profile.frontend_resteer_latency = latency;
            let spare =
                latency.saturating_sub(profile.fetch_latency + profile.decode_latency) as u32;
            profile.phantom_exec_uops = spare;
            let combo = run_combo(profile, TrainKind::JmpInd, VictimKind::NonBranch, 0)?;
            Ok(LatencyPoint {
                latency,
                spare_uops: spare,
                stage: combo.stage_enum(),
            })
        })
        .map_err(|e| ChannelError(e.to_string()))
}

/// One point of the associativity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssociativityPoint {
    /// BTB ways per alias bucket.
    pub ways: usize,
    /// Fraction of `trained` same-bucket entries still live afterwards.
    pub survival: f64,
}

/// Sweep BTB associativity: train `trained` distinct-signature entries
/// into one page-offset bucket and measure how many survive. Injected
/// phantom entries compete with the victim's own branches in exactly
/// this structure, so survival bounds how long an injection stays
/// effective.
pub fn btb_associativity_sweep(ways_list: &[usize], trained: usize) -> Vec<AssociativityPoint> {
    ways_list
        .iter()
        .map(|&ways| {
            let mut scheme = BtbScheme::zen34();
            scheme.ways = ways;
            let mut btb = Btb::new(scheme);
            // Same page offset, distinct signatures via single fold bits.
            let sources: Vec<VirtAddr> = (0..trained)
                .map(|i| VirtAddr::new(0x40_0ac0 ^ ((i as u64) << 23)))
                .collect();
            for &s in &sources {
                btb.train(
                    s,
                    BranchKind::Indirect,
                    VirtAddr::new(0x9000),
                    PrivilegeLevel::User,
                    0,
                );
            }
            let alive = sources.iter().filter(|&&s| btb.lookup(s).is_some()).count();
            AssociativityPoint {
                ways,
                survival: alive as f64 / trained as f64,
            }
        })
        .collect()
}

/// One point of the noise-accuracy curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisePoint {
    /// Spurious-eviction probability per probed line.
    pub spurious_rate: f64,
    /// Fetch covert-channel accuracy at that rate.
    pub accuracy: f64,
}

/// Measure fetch-channel accuracy against the spurious-eviction rate —
/// the knob behind every sub-100% number in Tables 2–5, and the reason
/// the attacks repeat measurements and score (§7.3). Each trial is a
/// full fetch covert-channel transfer at one rate.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on channel failure.
pub fn noise_accuracy_curve_on(
    runner: &TrialRunner,
    rates: &[f64],
    bits: usize,
    seed: u64,
) -> Result<Vec<NoisePoint>, PrimitiveError> {
    runner
        .map(rates.len(), seed, |trial| {
            let rate = rates[trial.index];
            let mut noise = NoiseModel::quiet(seed);
            noise.spurious_evict = rate;
            noise.missed_signal = rate / 2.0;
            Ok(NoisePoint {
                spurious_rate: rate,
                accuracy: zen2_fetch_transfer(bits, seed, noise)?.accuracy,
            })
        })
        .map_err(|e| PrimitiveError(e.to_string()))
}

/// One adaptive fetch covert-channel transfer on Zen 2 under `noise`,
/// for one point of a noise sweep. It runs single-threaded: the outer
/// runner already shards the sweep's points.
fn zen2_fetch_transfer(
    bits: usize,
    seed: u64,
    noise: NoiseModel,
) -> Result<CovertResult, PrimitiveError> {
    fetch_channel_decoded_on(
        &TrialRunner::with_threads(1),
        UarchProfile::zen2(),
        CovertConfig { bits, seed },
        noise,
        DecoderConfig::default(),
    )
}

/// Configuration for [`noise_sweep_on`]: one fetch covert-channel transfer
/// per listed knob value, each axis swept independently on top of a
/// quiet baseline so the curves are attributable to a single noise
/// source.
#[derive(Debug, Clone)]
pub struct NoiseSweepConfig {
    /// Swept `jitter_cycles` values (uniform latency jitter amplitude).
    pub jitter: Vec<u64>,
    /// Swept `spurious_evict` probabilities.
    pub spurious: Vec<f64>,
    /// Swept `missed_signal` probabilities.
    pub missed: Vec<f64>,
    /// Bits transferred per sweep point.
    pub bits: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for NoiseSweepConfig {
    fn default() -> NoiseSweepConfig {
        NoiseSweepConfig {
            jitter: vec![0, 2, 4, 8],
            spurious: vec![0.0, 0.01, 0.03, 0.1],
            missed: vec![0.0, 0.05, 0.15, 0.3],
            bits: 256,
            seed: 0,
        }
    }
}

impl NoiseSweepConfig {
    /// A cut-down sweep for CI smoke runs and benchmarks.
    pub fn quick(seed: u64) -> NoiseSweepConfig {
        NoiseSweepConfig {
            jitter: vec![0, 4],
            spurious: vec![0.0, 0.05],
            missed: vec![0.0, 0.2],
            bits: 64,
            seed,
        }
    }

    /// Total sweep points across all three axes.
    pub fn points(&self) -> usize {
        self.jitter.len() + self.spurious.len() + self.missed.len()
    }

    fn knobs(&self) -> Vec<(&'static str, f64)> {
        let mut knobs = Vec::with_capacity(self.points());
        knobs.extend(self.jitter.iter().map(|&j| ("jitter_cycles", j as f64)));
        knobs.extend(self.spurious.iter().map(|&s| ("spurious_evict", s)));
        knobs.extend(self.missed.iter().map(|&m| ("missed_signal", m)));
        knobs
    }
}

/// One point of the noise sweep: the adaptive fetch channel under a
/// single noise knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSweepPoint {
    /// Which [`NoiseModel`] field was swept: `"jitter_cycles"`,
    /// `"spurious_evict"` or `"missed_signal"`.
    pub axis: &'static str,
    /// The knob value (jitter cycles are reported as a float too).
    pub value: f64,
    /// Channel accuracy at that point (abstentions count as wrong).
    pub accuracy: f64,
    /// Total probes the adaptive decoder spent.
    pub probes: u64,
    /// Bits the decoder abstained on rather than guessing.
    pub abstentions: u64,
    /// Mean decode confidence across the transfer.
    pub mean_confidence: f64,
}

/// Sweep each noise knob independently and measure how the adaptive
/// fetch channel holds up: accuracy, probe spend (the decoder escalates
/// under noise), and abstention count. The quiet end of every axis must
/// stay near-perfect — that is the regression gate the bench harness
/// enforces. Each trial is one `(axis, value)` point.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on channel failure.
pub fn noise_sweep_on(
    runner: &TrialRunner,
    config: &NoiseSweepConfig,
) -> Result<Vec<NoiseSweepPoint>, PrimitiveError> {
    let knobs = config.knobs();
    runner
        .map(knobs.len(), config.seed, |trial| {
            let (axis, value) = knobs[trial.index];
            let mut noise = NoiseModel::quiet(config.seed);
            match axis {
                "jitter_cycles" => noise.jitter_cycles = value as u64,
                "spurious_evict" => noise.spurious_evict = value,
                _ => noise.missed_signal = value,
            }
            let r = zen2_fetch_transfer(config.bits, config.seed, noise)?;
            Ok(NoiseSweepPoint {
                axis,
                value,
                accuracy: r.accuracy,
                probes: r.probes,
                abstentions: r.abstentions as u64,
                mean_confidence: r.mean_confidence,
            })
        })
        .map_err(|e| PrimitiveError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sweep_shows_the_ex_threshold() {
        let points = resteer_latency_sweep_on(&TrialRunner::new(), &[4, 5, 6, 8, 12, 16]).unwrap();
        for p in &points {
            // fetch(1) + decode(4) must beat the resteer for ID; one
            // spare cycle past that dispatches the wrong-path load (EX).
            let expect = if p.spare_uops >= 1 {
                Stage::Ex
            } else if p.latency >= 5 {
                Stage::Id
            } else {
                Stage::If
            };
            assert_eq!(p.stage, expect, "latency {}", p.latency);
        }
        // The sweep is monotone: once EX appears it never disappears.
        let first_ex = points.iter().position(|p| p.stage == Stage::Ex);
        if let Some(i) = first_ex {
            assert!(points[i..].iter().all(|p| p.stage == Stage::Ex));
        }
    }

    #[test]
    fn associativity_sweep_is_monotone() {
        let points = btb_associativity_sweep(&[1, 2, 4, 8], 8);
        for w in points.windows(2) {
            assert!(w[1].survival >= w[0].survival, "{points:?}");
        }
        assert_eq!(points.last().unwrap().survival, 1.0, "8 ways hold all 8");
        assert!(points[0].survival <= 0.2, "1 way holds ~1 of 8");
    }

    #[test]
    fn noise_sweep_covers_every_axis_and_stays_clean_when_quiet() {
        let config = NoiseSweepConfig::quick(5);
        let points = noise_sweep_on(&TrialRunner::new(), &config).unwrap();
        assert_eq!(points.len(), config.points());
        for p in &points {
            // Every axis's first value is its quiet baseline.
            if p.value == 0.0 {
                assert!(p.accuracy > 0.95, "quiet {} point degraded: {p:?}", p.axis);
                assert_eq!(p.abstentions, 0, "quiet {} point abstained: {p:?}", p.axis);
            }
            assert!(p.probes >= 2 * config.bits as u64, "{p:?}");
        }
        // Heavy missed-signal traffic is the harshest knob: the decoder
        // must escalate (spend more probes) relative to the quiet point.
        let quiet = points.iter().find(|p| p.value == 0.0).unwrap();
        let harsh = points
            .iter()
            .find(|p| p.axis == "missed_signal" && p.value > 0.0)
            .unwrap();
        assert!(harsh.probes > quiet.probes, "{harsh:?} vs {quiet:?}");
    }

    #[test]
    fn noise_curve_degrades_monotonically_ish() {
        let points =
            noise_accuracy_curve_on(&TrialRunner::new(), &[0.0, 0.03, 0.05, 0.3], 96, 3).unwrap();
        assert!(points[0].accuracy > 0.99, "{points:?}");
        // Light noise (3 % spurious evictions) keeps the channel strong.
        assert!(points[1].accuracy > 0.7, "{points:?}");
        assert!(
            points[3].accuracy < points[0].accuracy,
            "heavy noise hurts: {points:?}"
        );
    }
}
