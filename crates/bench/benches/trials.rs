//! End-to-end trials/sec for the campaign hot loop. The measured unit
//! is [`campaign::run_job`] — boot, checkpoint, fork, rewind-per-bit,
//! adaptive decode — i.e. exactly what a campaign spends its time on.
//! Numbers are recorded in `EXPERIMENTS.md` §trace-engine; per-layer
//! attribution comes from `perfbench/run.py --trace 1`.
//!
//! Also prints a one-shot per-scenario hit/bailout-rate table (not a
//! timed benchmark) so the EXPERIMENTS.md replay-rate columns come from
//! the same probe loop the channels run, and a steady-state stepping
//! A/B of the trace engine that flips it per machine through
//! `Machine::set_trace_cache_enabled`. Environment variables cannot
//! A/B inside one process: boot templates freeze what they read at
//! their first boot.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use phantom::primitives::{p1_probe_scored, p2_probe_scored, PrimitiveConfig};
use phantom::runner::TrialRunner;
use phantom::{UarchProfile, UarchRegistry};
use phantom_bench::campaign::{self, CampaignConfig, CampaignScenario};
use phantom_isa::asm::Assembler;
use phantom_isa::inst::AluOp;
use phantom_isa::{Inst, Reg};
use phantom_kernel::System;
use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::Machine;
use phantom_sidechannel::NoiseModel;

/// The default campaign grid (all uarches × both channels × all noise
/// points) scaled to criterion-iteration size by lowering bits per job.
fn mix(bits: usize) -> CampaignConfig {
    let registry = UarchRegistry::with_builtins();
    let mut cfg = CampaignConfig::default_grid(&registry);
    cfg.bits = bits;
    cfg
}

/// One representative job per scenario (zen2, quiet noise), 64 bits:
/// per-scenario trials/sec.
fn bench_per_scenario(c: &mut Criterion) {
    let cfg = mix(64);
    let jobs = campaign::jobs(&cfg);
    let mut group = c.benchmark_group("trials/zen2");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cfg.bits as u64));
    for scenario in [CampaignScenario::Fetch, CampaignScenario::Execute] {
        let job = jobs
            .iter()
            .find(|j| j.uarch_key == "zen2" && j.scenario == scenario && j.noise.axis == "quiet")
            .expect("zen2 quiet job exists in the default grid");
        group.bench_function(scenario.as_str(), |b| {
            let runner = TrialRunner::with_threads(1);
            b.iter(|| campaign::run_job(&runner, &cfg, job).expect("job runs"));
        });
    }
    group.finish();
}

/// The whole default mix — every job in the default grid at 8 bits per
/// job — as one iteration.
fn bench_default_mix(c: &mut Criterion) {
    let cfg = mix(8);
    let jobs = campaign::jobs(&cfg);
    let mut group = c.benchmark_group("trials/default_mix");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cfg.total_trials() as u64));
    group.bench_function("all_jobs", |b| {
        let runner = TrialRunner::with_threads(1);
        b.iter(|| {
            for job in &jobs {
                campaign::run_job(&runner, &cfg, job).expect("job runs");
            }
        });
    });
    group.finish();
}

/// Replay-rate report: run each channel's real probe loop (the same
/// primitives the covert scenarios call) for 256 rewound trials on one
/// machine and print hits / bailouts / invalidations. Not a timed
/// benchmark — criterion ignores it; the table feeds EXPERIMENTS.md.
fn report_trace_rates(_c: &mut Criterion) {
    for scenario in [CampaignScenario::Fetch, CampaignScenario::Execute] {
        let seed = 0x7ace;
        let boot_salt = match scenario {
            CampaignScenario::Fetch => 0xc0de,
            CampaignScenario::Execute => 0xe8ec,
            // The PHT channel probes predictor state, not caches, so it
            // has no trace-replay rate to report.
            CampaignScenario::Pht => unreachable!("loop covers the covert scenarios only"),
        };
        let mut sys =
            System::new(UarchProfile::zen2(), 1 << 30, seed ^ boot_salt).expect("system boots");
        let attacker = VirtAddr::new(0x5000_0000);
        let cfg = PrimitiveConfig::for_system(&sys, attacker);
        // Same target geometry as the covert-channel scenarios.
        let (victim, gadget, t1) = match scenario {
            CampaignScenario::Fetch => (
                sys.image().listing1_nop,
                VirtAddr::new(0),
                sys.image().base + 0x2000 + 43 * 64,
            ),
            CampaignScenario::Execute => (
                sys.image().listing2_call,
                sys.image().listing3_gadget,
                sys.layout().physmap_base() + 0x10_0000 + 29 * 64,
            ),
            CampaignScenario::Pht => unreachable!("loop covers the covert scenarios only"),
        };
        let snap = sys.machine_mut().checkpoint();
        let mut noise = NoiseModel::quiet(seed);
        let trials = 256u64;
        for _ in 0..trials {
            snap.rewind(sys.machine_mut());
            match scenario {
                CampaignScenario::Fetch => p1_probe_scored(&mut sys, &cfg, victim, t1, &mut noise),
                CampaignScenario::Execute => {
                    p2_probe_scored(&mut sys, &cfg, victim, gadget, t1, &mut noise)
                }
                CampaignScenario::Pht => unreachable!("loop covers the covert scenarios only"),
            }
            .expect("probe runs");
        }
        let (hits, bailouts, invalidations) = sys.machine().trace_stats();
        let total = hits + bailouts;
        println!(
            "trace-rates {}: {trials} trials -> {hits} hits, {bailouts} bailouts \
             ({:.1}% replayed), {invalidations} invalidations",
            scenario.as_str(),
            if total > 0 {
                100.0 * hits as f64 / total as f64
            } else {
                0.0
            },
        );
    }
}

/// Steady-state stepping A/B: the same straight-line hot loop the
/// decode-cache snapshot uses, stepped 20k architectural instructions
/// per round, arms strictly alternated *within one process* and the
/// per-arm minimum taken. On a noisy shared host, sequential criterion
/// bench IDs drift by more than the effect size; alternation is the
/// only layout in which both arms see the same interference. Printed,
/// not criterion-timed, for exactly that reason.
fn report_steady_state(_c: &mut Criterion) {
    const STEPS: u64 = 20_000;
    const ROUNDS: usize = 12;
    let build = || {
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
        let blob = a.finish().expect("hot loop assembles");
        m.load_blob(&blob, PageFlags::USER_TEXT)
            .expect("hot loop fits");
        m.set_pc(VirtAddr::new(blob.base));
        m
    };
    let mut best = [f64::INFINITY; 2]; // [off, on]
    let mut machines: Vec<Machine> = (0..2)
        .map(|arm| {
            let mut m = build();
            m.set_trace_cache_enabled(arm == 1);
            m.run(STEPS).expect("warmup runs"); // warm caches + trace heat
            m
        })
        .collect();
    for _ in 0..ROUNDS {
        for (arm, m) in machines.iter_mut().enumerate() {
            let t = Instant::now();
            m.run(STEPS).expect("hot loop runs");
            let ns = t.elapsed().as_secs_f64() * 1e9 / STEPS as f64;
            best[arm] = best[arm].min(ns);
        }
    }
    println!(
        "steady-state stepping (hot loop, min of {ROUNDS} alternated rounds): \
         trace=off {:.1} ns/step, trace=on {:.1} ns/step ({:.2}x)",
        best[0],
        best[1],
        best[0] / best[1]
    );
}

criterion_group!(
    benches,
    report_trace_rates,
    report_steady_state,
    bench_per_scenario,
    bench_default_mix
);
criterion_main!(benches);
