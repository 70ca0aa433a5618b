//! Snapshot collection: run every shipped experiment and assemble the
//! machine-readable [`BenchSnapshot`] that `repro bench` writes and
//! the regression gate diffs.
//!
//! The canonical snapshot is deterministic: same seeds, same thread
//! count or not — byte-identical output (the determinism suite pins
//! this). Host-volatile facts (wall-clock, thread count, the
//! decode-cache wall-clock A/B) only appear when
//! [`BenchConfig::host_meta`] is set, in the `host` section that the
//! diff ignores.

use std::time::Instant;

use phantom::ablation::NoiseSweepConfig;
use phantom::mitigations::{
    lfence_gadget_protection, o4_suppress_bp_on_non_br, o5_auto_ibrs_fetch,
    rsb_stuffing_protection, sls_padding_protection, suppress_overhead_on,
};
use phantom::report::json::{
    BenchSnapshot, CovertRecord, DecodeCacheWall, ExperimentWall, Figure6Record, Figure7Record,
    GadgetRecord, HostMeta, MdsRunRecord, MdsTableRecord, NoiseSweepRecord, O4Record, O5Record,
    OverheadRecord, PerfRecord, PhtChannelRecord, PhysAddrRunRecord, PhysAddrTableRecord, RunMeta,
    SlotRunRecord, SlotTableRecord, SoftwareRecord, StageFlags, Table1Record,
};
use phantom::runner::TrialRunner;
use phantom::UarchProfile;
use phantom_isa::asm::Assembler;
use phantom_isa::inst::AluOp;
use phantom_isa::{Inst, Reg};
use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::Machine;

use crate::{
    run_figure6_on, run_figure7, run_mds_on, run_noise_sweep_on, run_pht_channel_on, run_table1_on,
    run_table2_on, run_table3_on, run_table4_on, run_table5_on, timed, RunnerError,
};

/// Snapshot collection knobs. The default is the quick profile, seed
/// 0, no host section — the canonical, byte-reproducible run.
#[derive(Debug, Clone, Default)]
pub struct BenchConfig {
    /// Use the paper's full protocol sizes (slow). Mirrors
    /// `PHANTOM_FULL=1`.
    pub full: bool,
    /// Base seed; per-experiment seeds are fixed offsets from it so
    /// snapshots line up with the rendered tables.
    pub seed: u64,
    /// Emit the host-volatile `host` section (thread count, wall
    /// clocks). Off for canonical, byte-reproducible output.
    pub host_meta: bool,
}

/// Steps of the fixed hot loop behind [`decode_cache_reference`].
const REFERENCE_STEPS: u64 = 20_000;

fn reference_machine() -> Machine {
    let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::MovImm {
        dst: Reg::R0,
        imm: 0,
    });
    a.push(Inst::MovImm {
        dst: Reg::R1,
        imm: 3,
    });
    a.push(Inst::MovImm {
        dst: Reg::R2,
        imm: 0x1234_5678,
    });
    a.label("hot");
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R0,
        src: Reg::R1,
    });
    a.push(Inst::Alu {
        op: AluOp::Xor,
        dst: Reg::R2,
        src: Reg::R0,
    });
    a.push(Inst::Shl {
        dst: Reg::R2,
        amount: 1,
    });
    a.push(Inst::Shr {
        dst: Reg::R2,
        amount: 1,
    });
    a.jmp("hot");
    let blob = a.finish().expect("reference workload assembles");
    m.load_blob(&blob, PageFlags::USER_TEXT)
        .expect("reference workload fits");
    m.set_pc(VirtAddr::new(blob.base));
    m
}

/// Run the fixed decode-cache reference workload and return its
/// `(hits, misses)` counters. Pure function of the workload — safe to
/// diff against a committed baseline.
pub fn decode_cache_reference() -> (u64, u64) {
    let mut m = reference_machine();
    m.run(REFERENCE_STEPS).expect("reference workload runs");
    m.decode_cache_stats()
}

/// Run the fixed reference workload and return the machine's TLB
/// `(hits, misses)` — the page walks the translation fast path
/// skipped vs took. Pure function of the workload.
pub fn tlb_reference() -> (u64, u64) {
    let mut m = reference_machine();
    m.run(REFERENCE_STEPS).expect("reference workload runs");
    (m.tlb().hits(), m.tlb().misses())
}

/// Base of the data pages the CoW reference workload dirties.
const COW_DATA_BASE: u64 = 0x50_0000;
/// Data pages the CoW reference workload stores to per round.
const COW_DIRTY_PAGES: u64 = 8;
/// Checkpoint/rewind round trips the CoW reference workload runs.
const COW_ROUNDS: usize = 4;

/// A machine whose hot loop stores into [`COW_DIRTY_PAGES`] distinct
/// data pages — the dirty footprint a snapshot/restore round trip
/// pays for.
fn cow_reference_machine() -> Machine {
    let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
    m.map_range(
        VirtAddr::new(COW_DATA_BASE),
        COW_DIRTY_PAGES * phantom_mem::PAGE_SIZE,
        PageFlags::USER_DATA,
    )
    .expect("data pages fit");
    // Materialize the data frames so every round's stores hit shared
    // (checkpointed) frames and the fault counts are exact multiples.
    // The pattern must be non-zero: poke skips chunks that already
    // match (fresh pages read as zeroes), and a skipped chunk
    // materializes nothing.
    m.poke(
        VirtAddr::new(COW_DATA_BASE),
        &vec![0xa5u8; (COW_DIRTY_PAGES * phantom_mem::PAGE_SIZE) as usize],
    );
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::MovImm {
        dst: Reg::R0,
        imm: COW_DATA_BASE,
    });
    a.push(Inst::MovImm {
        dst: Reg::R1,
        imm: 1,
    });
    a.push(Inst::MovImm {
        dst: Reg::R2,
        imm: 0x1234_5678,
    });
    a.label("hot");
    for page in 0..COW_DIRTY_PAGES {
        a.push(Inst::Store {
            base: Reg::R0,
            disp: (page * phantom_mem::PAGE_SIZE) as i32,
            src: Reg::R2,
        });
    }
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R2,
        src: Reg::R1,
    });
    a.jmp("hot");
    let blob = a.finish().expect("cow reference workload assembles");
    m.load_blob(&blob, PageFlags::USER_TEXT)
        .expect("cow reference workload fits");
    m.set_pc(VirtAddr::new(blob.base));
    m
}

/// Run the fixed checkpoint/rewind reference workload — `COW_ROUNDS`
/// round trips of run-then-restore over a snapshot — and return the
/// physical memory's `(cow_faults, cow_frames_shared,
/// restore_frames_copied)`. Pure function of the workload: every
/// counter is driven by the modeled machine, never by host state.
pub fn cow_reference() -> (u64, u64, u64) {
    let mut m = cow_reference_machine();
    let snap = m.snapshot();
    for _ in 0..COW_ROUNDS {
        m.run(64).expect("cow reference workload runs");
        m.restore(&snap);
    }
    let phys = m.phys();
    (
        phys.cow_faults(),
        phys.cow_frames_shared(),
        phys.restore_frames_copied(),
    )
}

/// Run the fixed checkpoint/rewind reference workload and return
/// `(rewind_journal_frames, frame_pool_reuses)`. Pure function of the
/// workload.
pub fn rewind_pool_reference() -> (u64, u64) {
    let mut m = cow_reference_machine();
    let snap = m.snapshot();
    for _ in 0..COW_ROUNDS {
        m.run(64).expect("cow reference workload runs");
        m.restore(&snap);
    }
    let phys = m.phys();
    (phys.rewind_journal_frames(), phys.frame_pool_reuses())
}

/// Profile and capacity of the boot-cache reference workload: small on
/// purpose — three boots of a 64 MiB Zen 2 system, first builds the
/// template, the next two hit it.
const BOOT_REFERENCE_PHYS: u64 = 1 << 26;

/// Boot the same `(profile, phys_bytes)` key three times through an
/// *isolated* [`phantom_kernel::BootCache`] — never the process-global
/// one, so the count is identical however many cached boots other
/// experiments performed — and return the cache's hit counter
/// (canonically 2). Pure function of the workload.
pub fn boot_cache_reference() -> u64 {
    let cache = phantom_kernel::BootCache::new();
    for seed in [1u64, 2, 3] {
        cache
            .boot(UarchProfile::zen2(), BOOT_REFERENCE_PHYS, seed)
            .expect("reference boot succeeds");
    }
    cache.hits()
}

/// Eviction sets the probe-arena reference workload re-arms.
const ARENA_REFERENCE_SETS: usize = 6;

/// Install a probe arena on a fresh machine and re-arm it across
/// `ARENA_REFERENCE_SETS` L1I sets, returning the machine's re-arm
/// instrumentation counter. Uses a private machine, so the count never
/// depends on what the shipped scenarios armed. Pure function of the
/// workload.
pub fn probe_arena_reference() -> u64 {
    let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
    let arena = phantom_sidechannel::ProbeArena::install(
        &mut m,
        VirtAddr::new(0x6000_0000),
        phantom_sidechannel::ProbeLevel::L1I,
    )
    .expect("reference arena installs");
    for set in 0..ARENA_REFERENCE_SETS {
        arena.arm(&mut m, set).expect("reference arena arms");
    }
    m.probe_rearms()
}

/// Host wall-clock A/B of the same workload with the decode cache
/// enabled vs disabled, in seconds. Host-volatile — `host` section
/// only.
pub fn decode_cache_wall_ab() -> (f64, f64) {
    let measure = |enabled: bool| -> f64 {
        let mut m = reference_machine();
        m.set_decode_cache_enabled(enabled);
        let start = Instant::now();
        for _ in 0..8 {
            let mut fresh = reference_machine();
            fresh.set_decode_cache_enabled(enabled);
            fresh.run(REFERENCE_STEPS).expect("reference workload runs");
        }
        start.elapsed().as_secs_f64()
    };
    (measure(true), measure(false))
}

/// Run every experiment on `runner` and assemble the snapshot.
///
/// # Errors
///
/// Propagates the first experiment failure.
pub fn collect_snapshot(
    runner: &TrialRunner,
    cfg: &BenchConfig,
) -> Result<BenchSnapshot, RunnerError> {
    let mut wall: Vec<(String, f64)> = Vec::new();

    let t = timed(runner, |r| run_table1_on(r, cfg.seed))?;
    let table1: Vec<Table1Record> = t.result.iter().map(Table1Record::from).collect();
    wall.push(("table1".into(), t.wall.as_secs_f64()));

    let step = if cfg.full { 0x40 } else { 0x200 };
    let mut figure6 = Vec::new();
    for profile in [UarchProfile::zen2(), UarchProfile::zen4()] {
        let name = profile.name.clone();
        let t = timed(runner, |r| run_figure6_on(r, profile.clone(), step))?;
        figure6.push(Figure6Record {
            uarch: name.to_string(),
            step,
            points: t.result,
        });
        wall.push((format!("figure6 {name}"), t.wall.as_secs_f64()));
    }

    let samples = if cfg.full { 48 } else { 24 };
    let start = Instant::now();
    let figure7 = Figure7Record::from(&run_figure7(samples, cfg.seed));
    wall.push(("figure7".into(), start.elapsed().as_secs_f64()));

    let bits = if cfg.full { 4096 } else { 128 };
    let t = timed(runner, |r| run_table2_on(r, bits, cfg.seed))?;
    let table2: Vec<CovertRecord> = t.result.iter().map(CovertRecord::from).collect();
    wall.push(("table2".into(), t.wall.as_secs_f64()));

    let runs = if cfg.full { 10 } else { 2 };
    let slots = if cfg.full { 0 } else { 16 };
    let mut table3 = Vec::new();
    for p in [
        UarchProfile::zen2(),
        UarchProfile::zen3(),
        UarchProfile::zen4(),
    ] {
        let name = p.name.clone();
        let t = timed(runner, |r| {
            run_table3_on(r, p.clone(), runs, slots, cfg.seed + 100)
        })?;
        table3.push(SlotTableRecord {
            uarch: name.to_string(),
            runs: t.result.iter().map(SlotRunRecord::from).collect(),
        });
        wall.push((format!("table3 {name}"), t.wall.as_secs_f64()));
    }

    let mut table4 = Vec::new();
    for p in [UarchProfile::zen1(), UarchProfile::zen2()] {
        let name = p.name.clone();
        let t = timed(runner, |r| {
            run_table4_on(r, p.clone(), runs, slots, cfg.seed + 200)
        })?;
        table4.push(SlotTableRecord {
            uarch: name.to_string(),
            runs: t.result.iter().map(SlotRunRecord::from).collect(),
        });
        wall.push((format!("table4 {name}"), t.wall.as_secs_f64()));
    }

    let table5_configs: [(UarchProfile, u64); 2] = if cfg.full {
        [
            (UarchProfile::zen1(), 8 << 30),
            (UarchProfile::zen2(), 64 << 30),
        ]
    } else {
        [
            (UarchProfile::zen1(), 1 << 30),
            (UarchProfile::zen2(), 2 << 30),
        ]
    };
    let mut table5 = Vec::new();
    for (p, bytes) in table5_configs {
        let name = p.name.clone();
        let t = timed(runner, |r| {
            run_table5_on(r, p.clone(), bytes, runs, cfg.seed + 300)
        })?;
        table5.push(PhysAddrTableRecord {
            uarch: name.to_string(),
            memory_gib: bytes >> 30,
            runs: t.result.iter().map(PhysAddrRunRecord::from).collect(),
        });
        wall.push((format!("table5 {name}"), t.wall.as_secs_f64()));
    }

    let bytes = if cfg.full { 4096 } else { 32 };
    let mut mds = Vec::new();
    for p in [UarchProfile::zen1(), UarchProfile::zen2()] {
        let name = p.name.clone();
        let t = timed(runner, |r| {
            run_mds_on(r, p.clone(), bytes, runs, cfg.seed + 400)
        })?;
        mds.push(MdsTableRecord {
            uarch: name.to_string(),
            runs: t.result.iter().map(MdsRunRecord::from).collect(),
        });
        wall.push((format!("mds {name}"), t.wall.as_secs_f64()));
    }

    let sweep_cfg = if cfg.full {
        NoiseSweepConfig {
            seed: cfg.seed + 500,
            ..Default::default()
        }
    } else {
        NoiseSweepConfig::quick(cfg.seed + 500)
    };
    let t = timed(runner, |r| run_noise_sweep_on(r, &sweep_cfg))?;
    let noise_sweep: Vec<NoiseSweepRecord> = t.result.iter().map(NoiseSweepRecord::from).collect();
    wall.push(("noise_sweep".into(), t.wall.as_secs_f64()));

    let pht_bits = if cfg.full { 4096 } else { 128 };
    let t = timed(runner, |r| run_pht_channel_on(r, pht_bits, cfg.seed + 600))?;
    let pht_channel: Vec<PhtChannelRecord> = t.result.iter().map(PhtChannelRecord::from).collect();
    wall.push(("pht_channel".into(), t.wall.as_secs_f64()));

    let mut o4 = Vec::new();
    for p in [UarchProfile::zen1(), UarchProfile::zen2()] {
        let name = p.name.clone();
        let outcome = o4_suppress_bp_on_non_br(p)?;
        o4.push(O4Record {
            uarch: name.to_string(),
            baseline: StageFlags::from(&outcome.baseline),
            suppressed: StageFlags::from(&outcome.suppressed),
        });
    }

    let o5 = O5Record {
        transient_fetch_observed: o5_auto_ibrs_fetch(cfg.seed)?,
    };

    let mut software = Vec::new();
    for (name, profile, check) in [
        (
            "lfence",
            UarchProfile::zen2(),
            lfence_gadget_protection as fn(UarchProfile) -> _,
        ),
        (
            "rsb_stuffing",
            UarchProfile::zen2(),
            rsb_stuffing_protection,
        ),
        ("sls_padding", UarchProfile::zen1(), sls_padding_protection),
    ] {
        let uarch = profile.name.clone();
        let (unprotected, protected) = check(profile)?;
        software.push(SoftwareRecord {
            name: name.to_string(),
            uarch: uarch.to_string(),
            unprotected,
            protected,
        });
    }

    let t = timed(runner, |r| {
        Ok::<_, RunnerError>(suppress_overhead_on(r, UarchProfile::zen2()))
    })?;
    let overhead = OverheadRecord::from(&t.result);
    wall.push(("overhead".into(), t.wall.as_secs_f64()));

    let corpus = phantom::gadgets::generate_corpus(&phantom::gadgets::CorpusConfig::default());
    let gadgets = GadgetRecord::from(&phantom::gadgets::census(&corpus));

    let (hits, misses) = decode_cache_reference();
    let (tlb_hits, tlb_misses) = tlb_reference();
    let (cow_faults, cow_frames_shared, restore_frames_copied) = cow_reference();
    let (rewind_journal_frames, frame_pool_reuses) = rewind_pool_reference();
    let boot_cache_hits = boot_cache_reference();
    let probe_arena_rearms = probe_arena_reference();
    let perf = PerfRecord {
        decode_cache_hits: hits,
        decode_cache_misses: misses,
        decodes_avoided: hits,
        tlb_hits,
        tlb_misses,
        cow_faults,
        cow_frames_shared,
        restore_frames_copied,
        // Deterministic like the reference counters: every shipped
        // scenario's probes succeed first try, so the canonical value
        // is 0 and any retry shows up as a baseline diff.
        trial_retries: runner.trial_retries(),
        boot_cache_hits,
        rewind_journal_frames,
        frame_pool_reuses,
        probe_arena_rearms,
    };

    let host = if cfg.host_meta {
        let (enabled_seconds, disabled_seconds) = decode_cache_wall_ab();
        Some(HostMeta {
            threads: runner.threads() as u64,
            wall_seconds: wall
                .into_iter()
                .map(|(experiment, seconds)| ExperimentWall {
                    experiment,
                    seconds,
                })
                .collect(),
            decode_cache_wall: Some(DecodeCacheWall {
                enabled_seconds,
                disabled_seconds,
            }),
        })
    } else {
        None
    };

    Ok(BenchSnapshot {
        meta: RunMeta {
            profile: if cfg.full { "full" } else { "quick" }.to_string(),
            seed: cfg.seed,
        },
        table1,
        figure6,
        figure7,
        table2,
        table3,
        table4,
        table5,
        mds,
        o4,
        o5,
        software,
        overhead,
        gadgets,
        perf,
        noise_sweep: Some(noise_sweep),
        pht_channel: Some(pht_channel),
        host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_workload_is_deterministic_and_cache_friendly() {
        let (h1, m1) = decode_cache_reference();
        let (h2, m2) = decode_cache_reference();
        assert_eq!((h1, m1), (h2, m2));
        assert!(h1 > m1 * 100, "hot loop: {h1} hits vs {m1} misses");
    }

    #[test]
    fn tlb_reference_is_deterministic_and_hit_dominated() {
        let (h1, m1) = tlb_reference();
        let (h2, m2) = tlb_reference();
        assert_eq!((h1, m1), (h2, m2));
        assert!(h1 > m1 * 100, "hot loop: {h1} hits vs {m1} misses");
    }

    #[test]
    fn cow_reference_is_deterministic_and_counts_only_dirty_frames() {
        let a = cow_reference();
        let b = cow_reference();
        assert_eq!(a, b);
        let (cow_faults, shared, copied) = a;
        // Each round unshares exactly the stored-to data pages, and
        // each restore copies exactly those back.
        assert_eq!(cow_faults, COW_DIRTY_PAGES * COW_ROUNDS as u64);
        assert_eq!(copied, COW_DIRTY_PAGES * COW_ROUNDS as u64);
        // After the final restore every resident frame is shared with
        // the snapshot again.
        assert!(shared >= COW_DIRTY_PAGES, "{shared} frames shared");
    }

    #[test]
    fn rewind_pool_reference_is_deterministic_and_counts_exact_multiples() {
        let a = rewind_pool_reference();
        let b = rewind_pool_reference();
        assert_eq!(a, b);
        let (journal_frames, pool_reuses) = a;
        // Every round dirties exactly the stored-to data pages, and the
        // journal rewinds exactly those.
        assert_eq!(journal_frames, COW_DIRTY_PAGES * COW_ROUNDS as u64);
        // The pool is empty on the first round's rewind; every later
        // round recycles all of its retired frames.
        assert_eq!(pool_reuses, COW_DIRTY_PAGES * (COW_ROUNDS as u64 - 1));
    }

    #[test]
    fn boot_cache_reference_is_deterministic_and_isolated() {
        // Three same-key boots: one template build, two hits — however
        // many cached boots the rest of the process performed.
        assert_eq!(boot_cache_reference(), 2);
        assert_eq!(boot_cache_reference(), 2);
    }

    #[test]
    fn probe_arena_reference_counts_every_rearm() {
        let a = probe_arena_reference();
        assert_eq!(a, ARENA_REFERENCE_SETS as u64);
        assert_eq!(probe_arena_reference(), a);
    }

    #[test]
    fn reference_workload_results_do_not_depend_on_the_cache() {
        let mut cached = reference_machine();
        cached.run(REFERENCE_STEPS).unwrap();
        let mut uncached = reference_machine();
        uncached.set_decode_cache_enabled(false);
        uncached.run(REFERENCE_STEPS).unwrap();
        assert_eq!(cached.cycles(), uncached.cycles());
        assert_eq!(cached.reg(Reg::R0), uncached.reg(Reg::R0));
        assert_eq!(cached.reg(Reg::R2), uncached.reg(Reg::R2));
        assert_eq!(uncached.decode_cache_stats(), (0, 0));
    }
}
