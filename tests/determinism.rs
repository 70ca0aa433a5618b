//! The trial runner's determinism contract, end to end: with the same
//! seeds (experiment seed and the NoiseModel stream it derives), the
//! rendered report output is byte-identical whether the trials run on
//! one worker thread or many. Trial sharding is contiguous and
//! order-preserving, and every probe is a pure function of the
//! post-train state and its own `Trial`, so thread count can never
//! change a published number.

use phantom::covert::{execute_channel_on, fetch_channel_on, table2_on, CovertConfig};
use phantom::experiment::table1_on;
use phantom::report;
use phantom::report::json::BenchSnapshot;
use phantom::report::value::JsonValue;
use phantom::runner::{trial_seed, Scenario, ScenarioError, Trial, TrialRunner};
use phantom::{UarchProfile, UarchRegistry};
use phantom_bench::campaign::{self, CampaignConfig, CampaignScenario};
use phantom_bench::{collect_snapshot, BenchConfig};

#[test]
fn table1_report_is_byte_identical_across_thread_counts() {
    let profiles = [UarchProfile::zen2(), UarchProfile::zen3()];
    let one = table1_on(&TrialRunner::with_threads(1), &profiles, 5).unwrap();
    let many = table1_on(&TrialRunner::with_threads(8), &profiles, 5).unwrap();
    assert_eq!(report::render_table1(&one), report::render_table1(&many));
}

#[test]
fn table2_report_is_byte_identical_across_thread_counts() {
    let config = CovertConfig { bits: 48, seed: 13 };
    let one = table2_on(&TrialRunner::with_threads(1), config).unwrap();
    let many = table2_on(&TrialRunner::with_threads(6), config).unwrap();
    assert_eq!(report::render_table2(&one), report::render_table2(&many));
}

#[test]
fn channel_results_match_field_by_field_across_thread_counts() {
    let config = CovertConfig { bits: 40, seed: 21 };
    for threads in [2, 3, 7] {
        let base =
            fetch_channel_on(&TrialRunner::with_threads(1), UarchProfile::zen4(), config).unwrap();
        let sharded = fetch_channel_on(
            &TrialRunner::with_threads(threads),
            UarchProfile::zen4(),
            config,
        )
        .unwrap();
        assert_eq!(base.accuracy, sharded.accuracy, "{threads} threads");
        assert_eq!(base.seconds, sharded.seconds, "{threads} threads");
        assert_eq!(base.bits_per_sec, sharded.bits_per_sec, "{threads} threads");
    }
    let base =
        execute_channel_on(&TrialRunner::with_threads(1), UarchProfile::zen1(), config).unwrap();
    let sharded =
        execute_channel_on(&TrialRunner::with_threads(5), UarchProfile::zen1(), config).unwrap();
    assert_eq!(base.accuracy, sharded.accuracy);
    assert_eq!(base.seconds, sharded.seconds);
}

/// The canonical `repro bench` snapshot — every experiment, serialized
/// — is byte-identical at 1 and 8 worker threads. This is the
/// machine-readable analogue of the rendered-report tests above, and
/// what makes a committed `BENCH_phantom.json` diffable across hosts.
#[test]
fn bench_snapshot_json_is_byte_identical_across_thread_counts() {
    let cfg = BenchConfig::default();
    let one = collect_snapshot(&TrialRunner::with_threads(1), &cfg)
        .unwrap()
        .to_json_string();
    let eight = collect_snapshot(&TrialRunner::with_threads(8), &cfg)
        .unwrap()
        .to_json_string();
    assert_eq!(one, eight, "snapshot bytes depend on thread count");
}

/// A full snapshot — which embeds every record type in `report::json`,
/// including the host section — survives serialize → parse → compare.
#[test]
fn bench_snapshot_round_trips_through_json() {
    let cfg = BenchConfig {
        host_meta: true,
        ..BenchConfig::default()
    };
    let snapshot = collect_snapshot(&TrialRunner::with_threads(2), &cfg).unwrap();
    assert!(snapshot.host.is_some(), "host section requested");
    let text = snapshot.to_json_string();
    let reparsed = BenchSnapshot::from_json_str(&text).unwrap();
    assert_eq!(snapshot, reparsed);
    assert_eq!(text, reparsed.to_json_string());
}

/// The noise sweep shards one trial per sweep point, and each point
/// derives its NoiseModel stream from the scenario seed — so the
/// adaptive decoder's accuracy, probe spend, and abstention counts are
/// identical at any thread count, knob by knob.
#[test]
fn noise_sweep_is_identical_across_thread_counts() {
    let cfg = phantom::ablation::NoiseSweepConfig::quick(31);
    let one = phantom::ablation::noise_sweep_on(&TrialRunner::with_threads(1), &cfg).unwrap();
    let eight = phantom::ablation::noise_sweep_on(&TrialRunner::with_threads(8), &cfg).unwrap();
    assert_eq!(one.len(), eight.len());
    for (a, b) in one.iter().zip(&eight) {
        assert_eq!(a.axis, b.axis);
        assert_eq!(a.value, b.value);
        assert_eq!(a.accuracy, b.accuracy, "{} = {}", a.axis, a.value);
        assert_eq!(a.probes, b.probes, "{} = {}", a.axis, a.value);
        assert_eq!(a.abstentions, b.abstentions, "{} = {}", a.axis, a.value);
        assert_eq!(
            a.mean_confidence, b.mean_confidence,
            "{} = {}",
            a.axis, a.value
        );
    }
}

/// A scenario built to *maximize* completion-order skew: trial `i`
/// sleeps `(trials - i)` milliseconds before returning, so on a
/// multi-worker pool the LAST trial finishes FIRST and the completion
/// order is roughly the reverse of the claim order. If the runner
/// folded samples in completion order — or let worker identity leak
/// into a sample — the rendered JSONL would differ between 1 and 8
/// workers. It must not: samples are slotted by trial index, and each
/// sample is a pure function of its `Trial`.
struct SlowProbe {
    trials: usize,
}

impl Scenario for SlowProbe {
    type State = ();
    type Checkpoint = ();
    type Sample = JsonValue;
    type Output = String;

    fn trials(&self) -> usize {
        self.trials
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

    fn probe(&self, (): &mut (), trial: Trial) -> Result<JsonValue, ScenarioError> {
        // Adversarial skew: early trials are the slowest.
        let ms = (self.trials - trial.index) as u64;
        std::thread::sleep(std::time::Duration::from_millis(ms));
        let mut rec = JsonValue::object();
        rec.set("trial", JsonValue::Uint(trial.index as u64))
            .set("seed", JsonValue::Uint(trial.seed));
        Ok(rec)
    }

    fn score(&self, samples: Vec<JsonValue>) -> String {
        samples
            .iter()
            .map(|s| s.to_compact_string() + "\n")
            .collect()
    }
}

/// Byte-identical JSONL under adversarially skewed completion order:
/// the slow-probe scenario reverses finish order on a pool, yet the
/// folded stream matches the single-worker run byte for byte, with
/// trial indices in order and per-trial seeds unchanged.
#[test]
fn jsonl_is_byte_identical_under_reversed_completion_order() {
    let scenario = SlowProbe { trials: 24 };
    let seed = 99;
    let one = TrialRunner::with_threads(1).run(&scenario, seed).unwrap();
    let eight = TrialRunner::with_threads(8).run(&scenario, seed).unwrap();
    assert_eq!(one, eight, "JSONL bytes depend on worker count");
    for (i, line) in one.lines().enumerate() {
        let v = phantom::report::value::parse(line).unwrap();
        assert_eq!(v.get("trial").unwrap().as_u64().unwrap(), i as u64);
        assert_eq!(
            v.get("seed").unwrap().as_u64().unwrap(),
            trial_seed(seed, i)
        );
    }
}

fn small_campaign() -> CampaignConfig {
    let registry = UarchRegistry::with_builtins();
    let mut cfg = CampaignConfig::default_grid(&registry);
    cfg.uarches.truncate(2);
    cfg.scenarios = vec![CampaignScenario::Fetch, CampaignScenario::Execute];
    cfg.noise.truncate(3);
    cfg.bits = 24;
    cfg.seed = 7;
    cfg
}

fn run_to_string(threads: usize, cfg: &CampaignConfig, skip: usize, seeded: &str) -> String {
    let mut buf = seeded.as_bytes().to_vec();
    campaign::run_campaign(
        &TrialRunner::with_threads(threads),
        cfg,
        skip,
        &mut buf,
        &mut |_, _, _| {},
    )
    .unwrap();
    String::from_utf8(buf).unwrap()
}

/// The campaign JSONL stream — the `repro serve` payload — is
/// byte-identical at 1 and 8 worker threads.
#[test]
fn campaign_jsonl_is_byte_identical_across_worker_counts() {
    let cfg = small_campaign();
    let one = run_to_string(1, &cfg, 0, "");
    let eight = run_to_string(8, &cfg, 0, "");
    assert_eq!(one, eight, "campaign bytes depend on worker count");
    assert_eq!(one.lines().count(), campaign::jobs(&cfg).len());
}

/// Kill-and-resume reproduces the uninterrupted file byte for byte,
/// even when the truncation tears a record mid-line and the resumed
/// run uses a different worker count than the original.
#[test]
fn campaign_resume_reproduces_uninterrupted_bytes() {
    let cfg = small_campaign();
    let jobs = campaign::jobs(&cfg);
    let full = run_to_string(1, &cfg, 0, "");

    for cut in [1, full.len() / 3, full.len() / 2, full.len() - 2] {
        let rp = campaign::resume_prefix(&full[..cut], &jobs);
        let resumed = run_to_string(8, &cfg, rp.done, &rp.prefix);
        assert_eq!(resumed, full, "resume from byte {cut} diverged");
    }
}

/// The TLB and copy-on-write hot-path counters in the snapshot's perf
/// section come from fixed single-machine reference workloads, never
/// from the sharded trial loop — so 1 worker thread and 8 must produce
/// identical, non-zero counters. Non-zero matters: a counter that
/// reads 0 on both sides would make the regression gate vacuous.
#[test]
fn perf_counters_are_identical_at_1_and_8_threads() {
    let cfg = BenchConfig::default();
    let one = collect_snapshot(&TrialRunner::with_threads(1), &cfg)
        .unwrap()
        .perf;
    let eight = collect_snapshot(&TrialRunner::with_threads(8), &cfg)
        .unwrap()
        .perf;
    assert_eq!(one, eight, "perf counters depend on thread count");
    assert!(one.tlb_hits > 0, "tlb reference produced no hits");
    assert!(one.tlb_misses > 0, "tlb reference produced no misses");
    assert!(one.cow_faults > 0, "cow reference unshared no frames");
    assert!(one.cow_frames_shared > 0, "cow reference shares no frames");
    assert!(
        one.restore_frames_copied > 0,
        "cow reference restored no frames"
    );
}

// ---------------------------------------------------------------------
// Self-modifying code through the runner: decode-cache coherence must
// hold across rewinds and be worker-count-invisible.
// ---------------------------------------------------------------------

/// A trial that executes a program which overwrites its own hot inner
/// function mid-run: `f` returns 1 for 24 calls, gets patched to return
/// 2 by an architectural store, runs 24 more calls, halts (r3 = 72).
/// Every trial rewinds the fork and re-runs, so each worker's decode
/// cache is rewound with the fork and invalidated by the patch again —
/// any coherence slip shows up as a sample diverging by worker or
/// trial.
struct SelfModifyingTrials {
    trials: usize,
}

impl SelfModifyingTrials {
    fn boot() -> Result<phantom_pipeline::Machine, ScenarioError> {
        use phantom_isa::asm::Assembler;
        use phantom_isa::inst::AluOp;
        use phantom_isa::{Inst, Reg};
        use phantom_mem::{PageFlags, VirtAddr};

        let mut m = phantom_pipeline::Machine::new(UarchProfile::zen2(), 1 << 26);
        let f_addr = 0x40_0200u64;
        let mut patch = Vec::new();
        phantom_isa::encode::encode_into(
            &Inst::MovImm {
                dst: Reg::R0,
                imm: 2,
            },
            &mut patch,
        )?;
        phantom_isa::encode::encode_into(&Inst::Ret, &mut patch)?;
        patch.resize(8, 0x90);
        let patch = u64::from_le_bytes(patch[..8].try_into().unwrap());

        let mut a = Assembler::new(0x40_0000);
        for (reg, imm) in [(Reg::R6, 1), (Reg::R5, 24), (Reg::R4, 0)] {
            a.push(Inst::MovImm { dst: reg, imm });
        }
        a.label("loop1");
        a.call("f");
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R3,
            src: Reg::R0,
        });
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R4,
            src: Reg::R6,
        });
        a.push(Inst::Cmp {
            a: Reg::R4,
            b: Reg::R5,
        });
        a.jb("loop1");
        a.push(Inst::MovImm {
            dst: Reg::R1,
            imm: patch,
        });
        a.push(Inst::MovImm {
            dst: Reg::R2,
            imm: f_addr,
        });
        a.push(Inst::Store {
            base: Reg::R2,
            disp: 0,
            src: Reg::R1,
        });
        a.push(Inst::MovImm {
            dst: Reg::R4,
            imm: 0,
        });
        a.label("loop2");
        a.call("f");
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R3,
            src: Reg::R0,
        });
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R4,
            src: Reg::R6,
        });
        a.push(Inst::Cmp {
            a: Reg::R4,
            b: Reg::R5,
        });
        a.jb("loop2");
        a.push(Inst::Halt);
        a.org(f_addr);
        a.label("f");
        a.push(Inst::MovImm {
            dst: Reg::R0,
            imm: 1,
        });
        a.push(Inst::Ret);
        a.push(Inst::NopN { len: 8 });
        let blob = a.finish()?;
        m.load_blob(&blob, PageFlags::USER_TEXT | PageFlags::WRITE)?;
        let stack = VirtAddr::new(0x7000_0000);
        m.map_range(stack, 0x4000, PageFlags::USER_DATA)?;
        m.set_reg(Reg::SP, 0x7000_4000 - 64);
        m.set_pc(VirtAddr::new(blob.base));
        Ok(m)
    }
}

impl Scenario for SelfModifyingTrials {
    type State = (phantom_pipeline::Machine, phantom_pipeline::Checkpoint);
    type Checkpoint = phantom_pipeline::Checkpoint;
    type Sample = (u64, u64);
    type Output = Vec<(u64, u64)>;

    fn trials(&self) -> usize {
        self.trials
    }

    fn setup(&self) -> Result<Self::State, ScenarioError> {
        let mut m = Self::boot()?;
        let ck = m.checkpoint();
        Ok((m, ck))
    }

    fn checkpoint(&self, state: Self::State) -> Result<Self::Checkpoint, ScenarioError> {
        Ok(state.1)
    }

    fn fork(&self, ck: &Self::Checkpoint) -> Result<Self::State, ScenarioError> {
        Ok((ck.fork(), ck.clone()))
    }

    fn probe(&self, state: &mut Self::State, _trial: Trial) -> Result<Self::Sample, ScenarioError> {
        let (m, ck) = state;
        ck.rewind(m);
        let exit = m.run(100_000)?;
        assert_eq!(exit, phantom_pipeline::RunExit::Halted);
        Ok((m.reg(phantom_isa::Reg::R3), m.cycles()))
    }

    fn score(&self, samples: Vec<Self::Sample>) -> Self::Output {
        samples
    }
}

#[test]
fn self_modifying_trials_are_identical_across_thread_counts() {
    let scenario = SelfModifyingTrials { trials: 32 };
    let one = TrialRunner::with_threads(1).run(&scenario, 7).unwrap();
    let eight = TrialRunner::with_threads(8).run(&scenario, 7).unwrap();
    assert_eq!(one, eight, "1-worker and 8-worker runs agree");
    for (i, (r3, cycles)) in one.iter().enumerate() {
        assert_eq!(*r3, 72, "trial {i}: stale code survived the patch");
        assert_eq!(*cycles, one[0].1, "trial {i}: cycle-identical trials");
    }
}

// ---------------------------------------------------------------------
// Cross-layer parity: the production probe stack (boot-image cache,
// standing probe arena, journaled rewind, frame pool) against the
// reference stack (fresh boot, a per-trial `PrimeProbe` mapping).
// ---------------------------------------------------------------------

/// One covert-channel receiver: a booted system checkpointed with the
/// Table 2 channel geometry, as `phantom::covert` sets it up.
struct Receiver {
    sys: phantom_kernel::System,
    cfg: phantom::primitives::PrimitiveConfig,
    snap: phantom_pipeline::Checkpoint,
    kind: phantom::covert::CovertKind,
    t1: phantom_mem::VirtAddr,
    t0: phantom_mem::VirtAddr,
    victim: phantom_mem::VirtAddr,
    gadget: phantom_mem::VirtAddr,
}

impl Receiver {
    /// Boot the receiver. `fast` selects the production stack:
    /// `System::new_cached` plus a `ProbeArena` installed before the
    /// checkpoint. Otherwise a fresh `System::new` with no arena, so
    /// every probe maps its own eviction set.
    fn boot(profile: &UarchProfile, kind: phantom::covert::CovertKind, fast: bool) -> Receiver {
        use phantom::covert::CovertKind;
        use phantom::primitives::PrimitiveConfig;
        use phantom_kernel::System;
        use phantom_mem::VirtAddr;
        use phantom_sidechannel::{ProbeArena, ProbeLevel};

        let seed = 0x9a1 ^ kind as u64;
        let mut sys = if fast {
            System::new_cached(profile.clone(), 1 << 30, seed)
        } else {
            System::new(profile.clone(), 1 << 30, seed)
        }
        .expect("system boots");
        let attacker = VirtAddr::new(0x5000_0000);
        let mut cfg = PrimitiveConfig::for_system(&sys, attacker);
        if fast {
            let arena = match kind {
                CovertKind::Fetch => {
                    ProbeArena::install(sys.machine_mut(), attacker, ProbeLevel::L1I)
                }
                CovertKind::Execute => {
                    ProbeArena::install(sys.machine_mut(), attacker + 0x20_0000, ProbeLevel::L1D)
                }
            }
            .expect("arena installs");
            cfg = cfg.with_arena(arena);
        }
        let (t1, t0, victim, gadget) = match kind {
            CovertKind::Fetch => {
                let t1 = sys.image().base + 0x2000 + 43 * 64;
                let t0 = VirtAddr::new(t1.raw() ^ 0x2000_0000);
                (t1, t0, sys.image().listing1_nop, VirtAddr::new(0))
            }
            CovertKind::Execute => {
                let t1 = sys.layout().physmap_base() + 0x10_0000 + 29 * 64;
                let t0 = VirtAddr::new(t1.raw() ^ 0x2_0000_0000);
                (
                    t1,
                    t0,
                    sys.image().listing2_call,
                    sys.image().listing3_gadget,
                )
            }
        };
        let snap = sys.machine_mut().checkpoint();
        Receiver {
            sys,
            cfg,
            snap,
            kind,
            t1,
            t0,
            victim,
            gadget,
        }
    }

    /// Rewind to the checkpoint and probe one bit: the scored reading,
    /// then the cycle counter and PMU the trial left behind.
    fn trial(
        &mut self,
        bit: bool,
        noise: &mut phantom_sidechannel::NoiseModel,
    ) -> (
        phantom_sidechannel::Reading,
        u64,
        phantom_cache::PerfCounters,
    ) {
        use phantom::covert::CovertKind;
        use phantom::primitives::{p1_probe_scored, p2_probe_scored};

        self.snap.rewind(self.sys.machine_mut());
        let target = if bit { self.t1 } else { self.t0 };
        let reading = match self.kind {
            CovertKind::Fetch => {
                p1_probe_scored(&mut self.sys, &self.cfg, self.victim, target, noise)
            }
            CovertKind::Execute => p2_probe_scored(
                &mut self.sys,
                &self.cfg,
                self.victim,
                self.gadget,
                target,
                noise,
            ),
        }
        .expect("probe runs");
        let m = self.sys.machine();
        (reading, m.cycles(), m.pmu().clone())
    }
}

/// Every host-throughput path is invisible to the guest: on every
/// builtin uarch and both covert channels, 32 rewound trials through
/// the production stack produce the same scores, cycle counts and PMU
/// counters as the reference stack, trial by trial, under the same
/// noise stream.
#[test]
fn production_probe_stack_matches_the_fresh_boot_reference() {
    use phantom::covert::CovertKind;

    let noise = phantom_sidechannel::NoiseModel::realistic(0);
    for profile in UarchRegistry::with_builtins().profiles() {
        for kind in [CovertKind::Fetch, CovertKind::Execute] {
            let mut reference = Receiver::boot(&profile, kind, false);
            let mut fast = Receiver::boot(&profile, kind, true);
            for trial in 0..32 {
                let seed = trial_seed(0x9a1, trial);
                let bit = seed & 1 == 1;
                let want = reference.trial(bit, &mut noise.reseeded(seed));
                let got = fast.trial(bit, &mut noise.reseeded(seed));
                assert_eq!(got, want, "{} {kind:?} trial {trial}", profile.name);
            }
            // Not vacuous: the fast arm re-armed its arena every trial,
            // the reference mapped fresh eviction sets instead.
            assert!(fast.sys.machine().probe_rearms() >= 32);
            assert_eq!(reference.sys.machine().probe_rearms(), 0);
        }
    }
}
