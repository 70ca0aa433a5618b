//! Timing calibration: where is the line between "cached" and "not"?

use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::Machine;

use crate::flush_reload::{flush, reload};
use crate::noise::NoiseModel;

/// Error from [`Calibration::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalibrationError {
    /// The scratch page could not be mapped (machine out of memory).
    ScratchUnmappable(String),
    /// A page is already mapped at the scratch address with flags other
    /// than `USER_DATA` — timing an executable or kernel page would
    /// silently calibrate against the wrong access path, so this is an
    /// error instead of a garbage measurement.
    ScratchFlagMismatch(PageFlags),
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::ScratchUnmappable(e) => {
                write!(f, "calibration scratch page unmappable: {e}")
            }
            CalibrationError::ScratchFlagMismatch(flags) => write!(
                f,
                "calibration scratch page premapped with non-USER_DATA flags {flags:?}"
            ),
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Calibrated hit/miss boundary for timed reloads.
///
/// # Examples
///
/// ```
/// use phantom_pipeline::{Machine, UarchProfile};
/// use phantom_sidechannel::{Calibration, NoiseModel};
///
/// let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
/// let mut noise = NoiseModel::realistic(1);
/// let cal = Calibration::run(&mut m, &mut noise, 64)?;
/// assert!((cal.threshold as f64) > cal.hit_mean);
/// assert!((cal.threshold as f64) < cal.miss_mean);
/// # Ok::<(), phantom_sidechannel::CalibrationError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Mean measured latency of cached reloads.
    pub hit_mean: f64,
    /// Mean measured latency of uncached reloads.
    pub miss_mean: f64,
    /// The classification threshold (midpoint, floor-biased toward
    /// hits).
    pub threshold: u64,
}

impl Calibration {
    /// Measure `rounds` hit and miss reloads on a scratch page and place
    /// the threshold between the distributions.
    ///
    /// The scratch page is borrowed, not leaked: a `USER_DATA` page
    /// already mapped at the scratch address is reused, and a page this
    /// call had to map is unmapped again before returning — so repeated
    /// calibrations on one machine are idempotent and never collide with
    /// a caller's own use of the address. A premapped page with any
    /// *other* flags is a [`CalibrationError::ScratchFlagMismatch`]:
    /// timing through the wrong access path would calibrate garbage.
    ///
    /// The threshold is the floor-biased midpoint of the two means,
    /// clamped so it always classifies the observed hit mean as a hit
    /// (`threshold > hit_mean`), even when the distributions sit within
    /// a cycle of each other.
    ///
    /// # Errors
    ///
    /// Returns a [`CalibrationError`] if the scratch page cannot be
    /// mapped or is premapped with non-`USER_DATA` flags.
    pub fn run(
        machine: &mut Machine,
        noise: &mut NoiseModel,
        rounds: usize,
    ) -> Result<Calibration, CalibrationError> {
        let scratch = VirtAddr::new(0x5fff_0000);
        let premapped = match machine.page_table().flags_of(scratch) {
            Some(flags) if flags != PageFlags::USER_DATA => {
                return Err(CalibrationError::ScratchFlagMismatch(flags));
            }
            Some(_) => true,
            None => false,
        };
        if !premapped {
            machine
                .map_range(scratch, 4096, PageFlags::USER_DATA)
                .map_err(|e| CalibrationError::ScratchUnmappable(e.to_string()))?;
        }
        let mut hit_total = 0u64;
        let mut miss_total = 0u64;
        for _ in 0..rounds.max(1) {
            flush(machine, scratch);
            miss_total += reload(machine, scratch, noise);
            hit_total += reload(machine, scratch, noise);
        }
        if !premapped {
            machine.unmap_range(scratch, 4096);
        }
        let n = rounds.max(1) as f64;
        let hit_mean = hit_total as f64 / n;
        let miss_mean = miss_total as f64 / n;
        let mid = ((hit_mean + miss_mean) / 2.0).floor() as u64;
        let threshold = mid.max(hit_mean.floor() as u64 + 1);
        Ok(Calibration {
            hit_mean,
            miss_mean,
            threshold,
        })
    }

    /// The calibrated hit/miss separation in cycles — the span a
    /// measurement's margin is normalized against, never below 1.
    pub fn span(&self) -> u64 {
        (self.miss_mean - self.hit_mean).abs().max(1.0) as u64
    }
}

/// Smoothing factor for the recalibrator's running margin estimate.
#[cfg(test)]
const MARGIN_EWMA_ALPHA: f64 = 0.25;

/// Auto-recalibration: watch the hit/miss margins the measurement loop
/// actually observes, and re-run [`Calibration::run`] when the running
/// estimate collapses below a guard band of the calibrated span — the
/// signature of thermal drift, a migrated victim, or an invalidated
/// threshold.
///
/// The margin estimate is an exponentially-weighted moving average so a
/// single noisy observation cannot trigger a recalibration storm, yet a
/// sustained collapse reacts within a few observations.
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct Recalibrator {
    /// Fraction of the calibrated span below which the running margin
    /// triggers recalibration (e.g. `0.25` = recalibrate when observed
    /// margins fall under a quarter of the calibrated separation).
    pub guard_band: f64,
    /// Rounds to pass to [`Calibration::run`] when recalibrating.
    pub rounds: usize,
    ewma: Option<f64>,
    recalibrations: usize,
}

#[cfg(test)]
impl Recalibrator {
    /// A recalibrator with the given guard band (fraction of the span)
    /// and per-recalibration round count.
    pub fn new(guard_band: f64, rounds: usize) -> Recalibrator {
        Recalibrator {
            guard_band,
            rounds,
            ewma: None,
            recalibrations: 0,
        }
    }

    /// How many times `observe` re-ran the calibration.
    pub fn recalibrations(&self) -> usize {
        self.recalibrations
    }

    /// The current running margin estimate, if any observation arrived.
    pub fn margin_estimate(&self) -> Option<f64> {
        self.ewma
    }

    /// Feed one observed margin (cycles from the threshold). When the
    /// running estimate drops below `guard_band × cal.span()`, re-runs
    /// the calibration in place, resets the estimate, and returns
    /// `Ok(true)`.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] from the re-run.
    pub fn observe(
        &mut self,
        margin: u64,
        cal: &mut Calibration,
        machine: &mut Machine,
        noise: &mut NoiseModel,
    ) -> Result<bool, CalibrationError> {
        let m = margin as f64;
        let ewma = match self.ewma {
            None => m,
            Some(prev) => prev + MARGIN_EWMA_ALPHA * (m - prev),
        };
        self.ewma = Some(ewma);
        if ewma >= self.guard_band * cal.span() as f64 {
            return Ok(false);
        }
        *cal = Calibration::run(machine, noise, self.rounds)?;
        self.ewma = None;
        self.recalibrations += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_pipeline::UarchProfile;

    #[test]
    fn distributions_are_separable() {
        let mut m = Machine::new(UarchProfile::zen3(), 1 << 24);
        let mut noise = NoiseModel::realistic(7);
        let cal = Calibration::run(&mut m, &mut noise, 32).unwrap();
        assert!(cal.miss_mean > cal.hit_mean + 50.0, "{cal:?}");
        assert!((cal.hit_mean as u64) < cal.threshold);
        assert!(cal.threshold < cal.miss_mean as u64);
    }

    #[test]
    fn quiet_noise_matches_configured_latencies() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let mut noise = NoiseModel::quiet(0);
        let cal = Calibration::run(&mut m, &mut noise, 8).unwrap();
        let cfg = m.caches().config();
        assert_eq!(cal.hit_mean as u64, cfg.l1_latency);
        assert_eq!(
            cal.miss_mean as u64,
            cfg.l1_latency + cfg.l2_latency + cfg.memory_latency
        );
        assert_eq!(
            cal.span(),
            cfg.l2_latency + cfg.memory_latency,
            "span is the hit/miss separation"
        );
    }

    #[test]
    fn scratch_page_is_unmapped_after_calibration() {
        let scratch = VirtAddr::new(0x5fff_0000);
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let mut noise = NoiseModel::quiet(0);
        let cal1 = Calibration::run(&mut m, &mut noise, 8).unwrap();
        assert_eq!(
            m.page_table().flags_of(scratch),
            None,
            "calibration must not leak its scratch mapping"
        );
        // A second calibration on the same machine works and agrees.
        let mut noise = NoiseModel::quiet(0);
        let cal2 = Calibration::run(&mut m, &mut noise, 8).unwrap();
        assert_eq!(cal1, cal2);
        // The address stays free for the caller to map however it likes.
        m.map_range(scratch, 4096, PageFlags::USER_TEXT).unwrap();
    }

    #[test]
    fn premapped_scratch_page_is_reused_and_kept() {
        let scratch = VirtAddr::new(0x5fff_0000);
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        m.map_range(scratch, 4096, PageFlags::USER_DATA).unwrap();
        let mut noise = NoiseModel::quiet(0);
        Calibration::run(&mut m, &mut noise, 8).unwrap();
        assert_eq!(
            m.page_table().flags_of(scratch),
            Some(PageFlags::USER_DATA),
            "a caller-owned scratch mapping must survive calibration"
        );
    }

    #[test]
    fn premapped_scratch_page_with_wrong_flags_is_an_error() {
        // Regression: a scratch page premapped executable used to be
        // silently timed through the data path — garbage calibration.
        let scratch = VirtAddr::new(0x5fff_0000);
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        m.map_range(scratch, 4096, PageFlags::USER_TEXT).unwrap();
        let mut noise = NoiseModel::quiet(0);
        assert_eq!(
            Calibration::run(&mut m, &mut noise, 8),
            Err(CalibrationError::ScratchFlagMismatch(PageFlags::USER_TEXT)),
        );
        // The caller's mapping is untouched.
        assert_eq!(m.page_table().flags_of(scratch), Some(PageFlags::USER_TEXT));
    }

    #[test]
    fn threshold_stays_above_hit_mean_for_near_equal_means() {
        // Pathological hierarchy: a miss costs one cycle more than a
        // hit. The floor-biased midpoint would equal the hit mean and
        // classify every hit as a miss; the clamp keeps the documented
        // `threshold > hit_mean` contract.
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let cfg = phantom_cache::HierarchyConfig {
            l2_latency: 0,
            memory_latency: 1,
            ..*m.caches().config()
        };
        *m.caches_mut() = phantom_cache::CacheHierarchy::new(cfg);
        let mut noise = NoiseModel::quiet(0);
        let cal = Calibration::run(&mut m, &mut noise, 8).unwrap();
        assert_eq!(cal.hit_mean, 4.0);
        assert_eq!(cal.miss_mean, 5.0);
        assert!(
            (cal.threshold as f64) > cal.hit_mean,
            "threshold {} must exceed hit mean {}",
            cal.threshold,
            cal.hit_mean
        );
        assert_eq!(cal.span(), 1, "span never collapses below one cycle");
    }

    #[test]
    fn healthy_margins_never_trigger_recalibration() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let mut noise = NoiseModel::quiet(0);
        let mut cal = Calibration::run(&mut m, &mut noise, 8).unwrap();
        let before = cal;
        let mut rec = Recalibrator::new(0.25, 8);
        let healthy = cal.span(); // full-span margins
        for _ in 0..50 {
            let fired = rec.observe(healthy, &mut cal, &mut m, &mut noise).unwrap();
            assert!(!fired);
        }
        assert_eq!(rec.recalibrations(), 0);
        assert_eq!(cal, before, "calibration untouched");
    }

    #[test]
    fn collapsed_margins_trigger_recalibration() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let mut noise = NoiseModel::quiet(0);
        let mut cal = Calibration::run(&mut m, &mut noise, 8).unwrap();
        let mut rec = Recalibrator::new(0.25, 8);
        // Sustained near-zero margins: the EWMA collapses immediately
        // from the uninitialized state.
        let fired = rec.observe(0, &mut cal, &mut m, &mut noise).unwrap();
        assert!(fired, "margin collapse must recalibrate");
        assert_eq!(rec.recalibrations(), 1);
        assert_eq!(rec.margin_estimate(), None, "estimate reset after re-run");
        // The refreshed calibration is sane.
        assert!((cal.threshold as f64) > cal.hit_mean);
    }

    #[test]
    fn one_noisy_margin_does_not_storm() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let mut noise = NoiseModel::quiet(0);
        let mut cal = Calibration::run(&mut m, &mut noise, 8).unwrap();
        let mut rec = Recalibrator::new(0.25, 8);
        // Warm the estimate with healthy margins, then one outlier: the
        // EWMA absorbs it.
        let healthy = cal.span();
        for _ in 0..10 {
            rec.observe(healthy, &mut cal, &mut m, &mut noise).unwrap();
        }
        let fired = rec.observe(0, &mut cal, &mut m, &mut noise).unwrap();
        assert!(!fired, "a single outlier must not recalibrate");
        assert_eq!(rec.recalibrations(), 0);
    }
}
