//! Shared runners for the benchmark harness and the `repro` binary.
//!
//! Each function regenerates one of the paper's tables or figures,
//! returning structured results that `repro` renders with
//! [`phantom::report`]. Every sweep runs on a [`TrialRunner`] — the
//! reboot-per-run attack tables as closures over the trial passed to
//! [`TrialRunner::map`], the stateful channels as
//! [`phantom::runner::Scenario`]s — so independent trials (reboots,
//! bits, cells) shard across the worker threads of the runner each
//! `*_on` function takes from its caller, and outputs are identical at
//! any thread count. Run counts and search-space sizes are
//! parameterized: the paper's full protocol (100 reboots, all 488 /
//! 25 600 KASLR slots) is reachable by cranking the knobs, while the
//! defaults keep a laptop run in minutes. Scaling choices are recorded
//! in `EXPERIMENTS.md`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use phantom::ablation::{noise_sweep_on, NoiseSweepConfig, NoiseSweepPoint};
use phantom::attacks::{
    break_kaslr_image, break_physmap, find_physical_address, leak_kernel_memory, pht_channel_on,
    scan_window, AttackError, KaslrImageConfig, MdsLeakConfig, MdsLeakResult, PhtChannelConfig,
    PhtChannelResult, PhysAddrConfig, PhysAddrResult, PhysmapConfig, SlotScanResult,
};
use phantom::collide::{recover_figure7, BtbOracle, Figure7};
use phantom::covert::{table2_on, CovertConfig, CovertResult};
use phantom::experiment::{figure6_on, table1_on, Figure6Point, Table1Cell};
use phantom::runner::TrialRunner;
use phantom::UarchProfile;
use phantom_bpu::BtbScheme;
use phantom_kernel::layout::{KERNEL_IMAGE_SLOTS, PHYSMAP_SLOTS};
use phantom_kernel::System;
use phantom_mem::VirtAddr;

pub mod campaign;
pub mod discover;
pub mod snapshot;

pub use snapshot::{
    collect_snapshot, cow_reference, decode_cache_reference, tlb_reference, BenchConfig,
};

/// A boxed error for runner signatures.
pub type RunnerError = Box<dyn std::error::Error + Send + Sync>;

/// A sweep result annotated with the host wall-clock time it took and
/// the thread count that produced it.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// The sweep's output.
    pub result: T,
    /// Host wall-clock duration (not simulated time).
    pub wall: std::time::Duration,
    /// Worker threads the runner used.
    pub threads: usize,
}

impl<T> Timed<T> {
    /// A short `wall 1.23s on 8 threads` note for report footers.
    pub fn wall_note(&self) -> String {
        format!(
            "wall {:.2}s on {} thread{}",
            self.wall.as_secs_f64(),
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        )
    }
}

/// Time a sweep under `runner`, recording wall-clock and thread count.
///
/// # Errors
///
/// Propagates the sweep's error.
pub fn timed<T, E>(
    runner: &TrialRunner,
    sweep: impl FnOnce(&TrialRunner) -> Result<T, E>,
) -> Result<Timed<T>, E> {
    let start = std::time::Instant::now();
    let result = sweep(runner)?;
    Ok(Timed {
        result,
        wall: start.elapsed(),
        threads: runner.threads(),
    })
}

/// Regenerate Table 1 over all eight microarchitectures.
///
/// # Errors
///
/// Propagates experiment setup failures.
pub fn run_table1_on(runner: &TrialRunner, seed: u64) -> Result<Vec<Table1Cell>, RunnerError> {
    Ok(table1_on(runner, &UarchProfile::all(), seed)?)
}

/// Regenerate Figure 6 (µop-cache page-offset sweep) on a profile.
///
/// # Errors
///
/// Propagates experiment setup failures.
pub fn run_figure6_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    step: u64,
) -> Result<Vec<Figure6Point>, RunnerError> {
    Ok(figure6_on(runner, profile, 0xac0, step)?)
}

/// Regenerate Figure 7: recover the Zen 3/4 BTB functions from
/// behavioural collisions.
pub fn run_figure7(samples: usize, seed: u64) -> Figure7 {
    let mut oracle = BtbOracle::new(BtbScheme::zen34());
    let ks = [
        VirtAddr::new(0xffff_ffff_8124_6ac0),
        VirtAddr::new(0xffff_ffff_9230_0ac0),
    ];
    recover_figure7(&mut oracle, &ks, samples, seed)
}

/// Regenerate Table 2 (covert channels) with `bits` per row.
///
/// # Errors
///
/// Propagates channel failures.
pub fn run_table2_on(
    runner: &TrialRunner,
    bits: usize,
    seed: u64,
) -> Result<Vec<CovertResult>, RunnerError> {
    Ok(table2_on(runner, CovertConfig { bits, seed })?)
}

/// Boot run `index` of a reboot-per-run table: a fresh KASLR layout
/// from seed `seed + index`, which is also the run's noise seed.
fn reboot(
    profile: &UarchProfile,
    phys_bytes: u64,
    seed: u64,
    index: usize,
) -> Result<(System, u64), AttackError> {
    let seed = seed + index as u64;
    Ok((System::new_cached(profile.clone(), phys_bytes, seed)?, seed))
}

/// Regenerate Table 3 rows: `runs` kernel-image KASLR breaks with a
/// reboot (fresh KASLR) before each. `slots` limits the scanned window
/// per run (0 = full 488).
///
/// # Errors
///
/// Propagates attack failures.
pub fn run_table3_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    runs: usize,
    slots: u64,
    seed: u64,
) -> Result<Vec<SlotScanResult>, RunnerError> {
    runner.map(runs, seed, |trial| {
        let (mut sys, seed) = reboot(&profile, 1 << 30, seed, trial.index)?;
        let config = KaslrImageConfig {
            slots: scan_window(sys.layout().image_slot, slots, KERNEL_IMAGE_SLOTS),
            seed,
            ..Default::default()
        };
        Ok(break_kaslr_image(&mut sys, &config)?)
    })
}

/// Regenerate Table 4 rows: `runs` physmap breaks (reboot per run). The
/// §7.1 image base is read from the fresh boot (that stage's output
/// precedes this one).
///
/// # Errors
///
/// Propagates attack failures.
pub fn run_table4_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    runs: usize,
    slots: u64,
    seed: u64,
) -> Result<Vec<SlotScanResult>, RunnerError> {
    runner.map(runs, seed, |trial| {
        let (mut sys, seed) = reboot(&profile, 1 << 30, seed, trial.index)?;
        let config = PhysmapConfig {
            slots: scan_window(sys.layout().physmap_slot, slots, PHYSMAP_SLOTS),
            seed,
            ..Default::default()
        };
        let image_base = sys.image().base;
        Ok(break_physmap(&mut sys, image_base, &config)?)
    })
}

/// Regenerate Table 5 rows: `runs` physical-address searches over a
/// machine with `phys_bytes` of memory (8 GiB and 64 GiB in the paper),
/// rebooted per run.
///
/// # Errors
///
/// Propagates attack failures.
pub fn run_table5_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    phys_bytes: u64,
    runs: usize,
    seed: u64,
) -> Result<Vec<PhysAddrResult>, RunnerError> {
    runner.map(runs, seed, |trial| {
        let (mut sys, seed) = reboot(&profile, phys_bytes, seed, trial.index)?;
        let (image_base, physmap_base) = (sys.image().base, sys.layout().physmap_base());
        let config = PhysAddrConfig {
            max_decoys: 100,
            seed,
        };
        Ok(find_physical_address(
            &mut sys,
            image_base,
            physmap_base,
            &config,
        )?)
    })
}

/// Regenerate the §7.4 MDS leak: `runs` reboots, `bytes` leaked each
/// (the paper reports 10 reboots, with total signal loss on 2 of them).
///
/// # Errors
///
/// Propagates attack failures.
pub fn run_mds_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    bytes: usize,
    runs: usize,
    seed: u64,
) -> Result<Vec<MdsLeakResult>, RunnerError> {
    runner.map(runs, seed, |trial| {
        let (mut sys, seed) = reboot(&profile, 1 << 28, seed, trial.index)?;
        let physmap = sys.layout().physmap_base();
        let config = MdsLeakConfig {
            bytes,
            seed,
            ..Default::default()
        };
        Ok(leak_kernel_memory(&mut sys, physmap, &config)?)
    })
}

/// Run the PHT channel (BranchSpectre-style leak through the
/// conditional-branch predictor) with `bits` per row, one row per AMD
/// part.
///
/// # Errors
///
/// Propagates channel failures.
pub fn run_pht_channel_on(
    runner: &TrialRunner,
    bits: usize,
    seed: u64,
) -> Result<Vec<PhtChannelResult>, RunnerError> {
    let mut rows = Vec::new();
    for profile in UarchProfile::amd() {
        rows.push(pht_channel_on(
            runner,
            profile,
            PhtChannelConfig { bits, seed },
        )?);
    }
    Ok(rows)
}

/// Run the noise-robustness sweep: covert-channel accuracy, probe
/// spend, and abstention counts as each noise knob sweeps from quiet
/// to harsh while the others stay at zero.
///
/// # Errors
///
/// Propagates channel failures.
pub fn run_noise_sweep_on(
    runner: &TrialRunner,
    config: &NoiseSweepConfig,
) -> Result<Vec<NoiseSweepPoint>, RunnerError> {
    Ok(noise_sweep_on(runner, config)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_runner_reboots_between_runs() {
        let runs = run_table3_on(&TrialRunner::new(), UarchProfile::zen3(), 2, 8, 77).unwrap();
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.correct));
        // Different reboots landed on different slots (seeded).
        assert_ne!(runs[0].actual_slot, runs[1].actual_slot);
    }

    #[test]
    fn figure7_runner_recovers_twelve_functions() {
        let f = run_figure7(24, 3);
        assert_eq!(f.functions.len(), 12);
        assert!(f.paper_patterns_hold);
    }

    #[test]
    fn table3_is_identical_at_any_thread_count() {
        let one = run_table3_on(
            &TrialRunner::with_threads(1),
            UarchProfile::zen3(),
            3,
            8,
            77,
        )
        .unwrap();
        let four = run_table3_on(
            &TrialRunner::with_threads(4),
            UarchProfile::zen3(),
            3,
            8,
            77,
        )
        .unwrap();
        assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.guessed_slot, b.guessed_slot);
            assert_eq!(a.actual_slot, b.actual_slot);
            assert_eq!(a.best_score, b.best_score);
            assert_eq!(a.cycles, b.cycles);
        }
    }

    #[test]
    fn timed_reports_runner_threads() {
        let runner = TrialRunner::with_threads(2);
        let t = timed(&runner, |r| run_figure6_on(r, UarchProfile::zen2(), 0x400)).unwrap();
        assert_eq!(t.threads, 2);
        assert!(!t.result.is_empty());
        assert!(t.wall_note().contains("2 threads"));
    }
}
