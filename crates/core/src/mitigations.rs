//! §6.3 / §8 — mitigation analysis: `SuppressBPOnNonBr` (observation
//! O4), AutoIBRS (observation O5), IBPB, and the mitigation overhead
//! measurement (the paper's UnixBench run, reproduced over a synthetic
//! workload suite).

use phantom_bpu::MsrState;
use phantom_isa::asm::Assembler;
use phantom_isa::encode::{encode, encode_all};
use phantom_isa::inst::AluOp;
use phantom_isa::{BranchKind, Inst, Reg};
use phantom_kernel::System;
use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::{Machine, UarchProfile};
use phantom_sidechannel::NoiseModel;

use crate::channel::ChannelError;
use crate::experiment::{run_combo_msr, ComboOutcome, TrainKind, VictimKind, NOPS_THEN_HALT};
use crate::primitives::{p1_detect_executable, PrimitiveConfig, PrimitiveError};
use crate::runner::{ScenarioError, TrialRunner};

/// The O4 experiment: the non-branch victim column with and without
/// `SuppressBPOnNonBr`.
#[derive(Debug, Clone)]
pub struct O4Outcome {
    /// Baseline (bit clear).
    pub baseline: ComboOutcome,
    /// With the MSR bit set.
    pub suppressed: ComboOutcome,
}

/// Re-run the `jmp*`-trains-non-branch experiment on `profile` with the
/// `SuppressBPOnNonBr` bit set, against the unmitigated baseline.
///
/// Expected (O4): execution is blocked, **but fetch and decode are
/// not** — the bit does not prevent PhantomJMPs from entering the
/// pipeline.
///
/// # Errors
///
/// Returns [`ChannelError`] on experiment setup failure.
pub fn o4_suppress_bp_on_non_br(profile: UarchProfile) -> Result<O4Outcome, ChannelError> {
    let baseline = run_combo_msr(
        profile.clone(),
        TrainKind::JmpInd,
        VictimKind::NonBranch,
        0,
        Some(MsrState::none()),
    )?;
    let suppressed = run_combo_msr(
        profile,
        TrainKind::JmpInd,
        VictimKind::NonBranch,
        0,
        Some(MsrState {
            suppress_bp_on_non_br: true,
            ..MsrState::none()
        }),
    )?;
    Ok(O4Outcome {
        baseline,
        suppressed,
    })
}

/// The O5 experiment: with AutoIBRS enabled on Zen 4, user-mode training
/// still triggers transient *fetch* of a cross-privilege branch target.
///
/// Returns whether the kernel-mode transient fetch was observed (the
/// paper's answer: yes — P1 is unaffected).
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup failure.
pub fn o5_auto_ibrs_fetch(seed: u64) -> Result<bool, PrimitiveError> {
    let mut sys = System::new_cached(UarchProfile::zen4(), 1 << 30, seed)
        .map_err(|e| PrimitiveError(e.to_string()))?;
    assert!(
        sys.machine().bpu().msr().auto_ibrs,
        "hardened Zen 4 boots with AutoIBRS on"
    );
    let mut noise = NoiseModel::quiet(seed);
    let cfg = PrimitiveConfig::for_system(&sys, VirtAddr::new(0x5000_0000));
    let victim = sys.image().listing1_nop;
    let mapped = sys.image().base + 0x1000;
    p1_detect_executable(&mut sys, &cfg, victim, mapped, &mut noise)
}

/// The IBPB experiment (§8.2): flushing all prediction state between
/// user and kernel stops every primitive. Returns whether any signal
/// survived the barrier (expected: none).
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup failure.
pub fn ibpb_blocks_p1(seed: u64) -> Result<bool, PrimitiveError> {
    let mut sys = System::new_cached(UarchProfile::zen3(), 1 << 30, seed)
        .map_err(|e| PrimitiveError(e.to_string()))?;
    let mut noise = NoiseModel::quiet(seed);
    let cfg = PrimitiveConfig::for_system(&sys, VirtAddr::new(0x5000_0000));
    let victim = sys.image().listing1_nop;
    let target = sys.image().base + 0x1000;

    // Train, then issue IBPB (as a kernel-entry barrier would), then run
    // the victim and probe — paired with a same-set baseline (target
    // shifted out of the monitored set) so the kernel's own footprint
    // cancels.
    let set = ((target.raw() >> 6) & 63) as usize;
    let pp = phantom_sidechannel::PrimeProbe::new_l1i(
        sys.machine_mut(),
        VirtAddr::new(0x5000_0000),
        set,
    )
    .map_err(|e| PrimitiveError(e.to_string()))?;
    let mut measure = |sys: &mut System, t: VirtAddr| -> Result<usize, PrimitiveError> {
        sys.train_user_branch(cfg.user_alias(victim), BranchKind::Indirect, t)
            .map_err(|e| PrimitiveError(e.to_string()))?;
        sys.machine_mut().bpu_mut().ibpb();
        pp.prime(sys.machine_mut())
            .map_err(|e| PrimitiveError(e.to_string()))?;
        sys.getpid().map_err(|e| PrimitiveError(e.to_string()))?;
        Ok(pp
            .probe(sys.machine_mut(), &mut noise)
            .map_err(|e| PrimitiveError(e.to_string()))?
            .evictions)
    };
    let signal = measure(&mut sys, target)?;
    let baseline = measure(&mut sys, VirtAddr::new(target.raw() ^ 0x800))?;
    Ok(signal > baseline)
}

// ---------------------------------------------------------------------
// Software mitigations (§8.2).
// ---------------------------------------------------------------------

/// lfence-at-the-gadget (§8.2): placing a speculation barrier at the
/// *entry of the disclosure gadget* stops the transient load even inside
/// a Zen 1/2 phantom window. Returns (unprotected leaked, protected
/// leaked) — the experiment behind "placing lfence where bad speculation
/// may occur … minimizes the speculation window", and behind the caveat
/// that *finding* all such sites is the hard part.
///
/// # Errors
///
/// Returns [`ChannelError`] on setup failure.
pub fn lfence_gadget_protection(profile: UarchProfile) -> Result<(bool, bool), ChannelError> {
    let run = |protected: bool| -> Result<bool, ChannelError> {
        let mut m = Machine::new(profile.clone(), 1 << 24);
        let text = PageFlags::USER_TEXT | PageFlags::WRITE;
        let x = VirtAddr::new(0x40_0ac0);
        let gadget = VirtAddr::new(0x48_0b40);
        m.map_range(x.page_base(), 0x1000, text)
            .map_err(|e| ChannelError(e.to_string()))?;
        m.map_range(gadget.page_base(), 0x1000, text)
            .map_err(|e| ChannelError(e.to_string()))?;
        m.map_range(VirtAddr::new(0x60_0000), 64, PageFlags::USER_DATA)
            .map_err(|e| ChannelError(e.to_string()))?;
        m.set_reg(Reg::R8, 0x60_0000);

        // Gadget: [lfence;] load [R8]; hlt.
        let mut g = Assembler::new(gadget.raw());
        if protected {
            g.push(Inst::Lfence);
        }
        g.push(Inst::Load {
            dst: Reg::R9,
            base: Reg::R8,
            disp: 0,
        });
        g.push(Inst::Halt);
        m.load_blob(&g.finish().map_err(|e| ChannelError(e.to_string()))?, text)
            .map_err(|e| ChannelError(e.to_string()))?;

        // Train jmp* -> gadget, then make the victim a nop.
        m.poke(
            x,
            &encode_all(&[Inst::JmpInd { src: Reg::R11 }, Inst::Halt])?,
        );
        m.set_reg(Reg::R11, gadget.raw());
        m.set_pc(x);
        m.run(8).map_err(|e| ChannelError(e.to_string()))?;
        m.poke(x, &encode_all(&NOPS_THEN_HALT)?);
        m.caches_mut().flush_all();

        m.set_pc(x);
        let (_, reports) = m
            .run_collecting(8)
            .map_err(|e| ChannelError(e.to_string()))?;
        Ok(reports
            .first()
            .is_some_and(|r| !r.loads_dispatched.is_empty()))
    };
    Ok((run(false)?, run(true)?))
}

/// RSB stuffing (§2.4): overwriting return predictions with dummy
/// targets. Modeled as an RSB flush before the victim runs: a
/// ret-trained phantom prediction then has no target to steer to.
/// Returns (unprotected fetched, protected fetched).
///
/// # Errors
///
/// Returns [`ChannelError`] on setup failure.
pub fn rsb_stuffing_protection(profile: UarchProfile) -> Result<(bool, bool), ChannelError> {
    let run = |stuffed: bool| -> Result<bool, ChannelError> {
        let mut m = Machine::new(profile.clone(), 1 << 24);
        let text = PageFlags::USER_TEXT | PageFlags::WRITE;
        let x = VirtAddr::new(0x40_0ac0);
        m.map_range(x.page_base(), 0x1000, text)
            .map_err(|e| ChannelError(e.to_string()))?;
        m.map_range(VirtAddr::new(0x7000_0000), 0x4000, PageFlags::USER_DATA)
            .map_err(|e| ChannelError(e.to_string()))?;

        // Train a ret at X (stack pre-loaded), leaving a Ret-kind BTB
        // entry, and plant an RSB entry via a call.
        let stack_top = 0x7000_3f00u64;
        m.set_reg(Reg::SP, stack_top);
        m.poke(x, &encode_all(&[Inst::Ret, Inst::Halt])?);
        m.poke_u64(VirtAddr::new(stack_top), x.raw() + 8);
        m.poke(x + 8, encode(&Inst::Halt)?.as_bytes());
        m.set_pc(x);
        m.run(4).map_err(|e| ChannelError(e.to_string()))?;
        m.bpu_mut().rsb_mut().push(VirtAddr::new(0x48_0b40));
        m.map_range(VirtAddr::new(0x48_0000), 0x1000, text)
            .map_err(|e| ChannelError(e.to_string()))?;
        m.poke(
            VirtAddr::new(0x48_0b40),
            &encode_all(&[Inst::Nop, Inst::Halt])?,
        );

        if stuffed {
            // RSB stuffing overwrites the poisoned entries; a flush is
            // the strongest form.
            m.bpu_mut().rsb_mut().flush();
        }

        // Victim: a nop at X; the Ret-kind prediction pops the RSB.
        m.poke(x, &encode_all(&NOPS_THEN_HALT)?);
        m.caches_mut().flush_all();
        m.set_pc(x);
        let (_, reports) = m
            .run_collecting(8)
            .map_err(|e| ChannelError(e.to_string()))?;
        Ok(reports.first().is_some_and(|r| r.fetched))
    };
    Ok((run(false)?, run(true)?))
}

/// Straight-line-speculation padding: compilers place `int3`/speculation
/// stoppers after returns so the sequential transient path dies
/// immediately. Returns (unpadded loads dispatched, padded loads
/// dispatched) for an unpredicted `ret` followed by a load.
///
/// # Errors
///
/// Returns [`ChannelError`] on setup failure.
pub fn sls_padding_protection(profile: UarchProfile) -> Result<(bool, bool), ChannelError> {
    let run = |padded: bool| -> Result<bool, ChannelError> {
        let mut m = Machine::new(profile.clone(), 1 << 24);
        let text = PageFlags::USER_TEXT | PageFlags::WRITE;
        let x = VirtAddr::new(0x40_0b00);
        m.map_range(x.page_base(), 0x1000, text)
            .map_err(|e| ChannelError(e.to_string()))?;
        m.map_range(VirtAddr::new(0x60_0000), 64, PageFlags::USER_DATA)
            .map_err(|e| ChannelError(e.to_string()))?;
        m.map_range(VirtAddr::new(0x7000_0000), 0x4000, PageFlags::USER_DATA)
            .map_err(|e| ChannelError(e.to_string()))?;
        m.set_reg(Reg::R8, 0x60_0000);
        let stack_top = 0x7000_3f00u64;
        m.set_reg(Reg::SP, stack_top);
        m.poke_u64(VirtAddr::new(stack_top), 0x40_0f00);
        m.map_range(VirtAddr::new(0x40_0f00), 16, text)
            .map_err(|e| ChannelError(e.to_string()))?;
        m.poke(VirtAddr::new(0x40_0f00), encode(&Inst::Halt)?.as_bytes());

        // ret; [lfence pad;] load [R8]; hlt — the load is dead code that
        // only straight-line speculation can reach.
        let mut a = Assembler::new(x.raw());
        a.push(Inst::Ret);
        if padded {
            a.push(Inst::Lfence);
        }
        a.push(Inst::Load {
            dst: Reg::R9,
            base: Reg::R8,
            disp: 0,
        });
        a.push(Inst::Halt);
        m.load_blob(&a.finish().map_err(|e| ChannelError(e.to_string()))?, text)
            .map_err(|e| ChannelError(e.to_string()))?;

        m.set_pc(x);
        let (_, reports) = m
            .run_collecting(8)
            .map_err(|e| ChannelError(e.to_string()))?;
        Ok(reports
            .first()
            .is_some_and(|r| !r.loads_dispatched.is_empty()))
    };
    Ok((run(false)?, run(true)?))
}

// ---------------------------------------------------------------------
// Mitigation overhead (the §6.3 UnixBench substitute).
// ---------------------------------------------------------------------

/// One synthetic workload: a named program and its iteration count.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (suite reporting).
    pub name: &'static str,
    program: fn(&mut Assembler),
    iterations: u64,
}

fn arith_loop(a: &mut Assembler) {
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R1,
        src: Reg::R2,
    });
    a.push(Inst::Alu {
        op: AluOp::Xor,
        dst: Reg::R2,
        src: Reg::R1,
    });
    a.push(Inst::Shl {
        dst: Reg::R1,
        amount: 1,
    });
    a.push(Inst::Shr {
        dst: Reg::R1,
        amount: 1,
    });
}

fn branchy(a: &mut Assembler) {
    // A data-dependent branch diamond.
    a.push(Inst::Cmp {
        a: Reg::R1,
        b: Reg::R2,
    });
    a.jcc_cond(phantom_isa::Cond::Below, "wl_then");
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R1,
        src: Reg::R3,
    });
    a.jmp("wl_join");
    a.label("wl_then");
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R2,
        src: Reg::R3,
    });
    a.label("wl_join");
}

fn memory_stride(a: &mut Assembler) {
    a.push(Inst::Load {
        dst: Reg::R4,
        base: Reg::R8,
        disp: 0,
    });
    a.push(Inst::Load {
        dst: Reg::R5,
        base: Reg::R8,
        disp: 512,
    });
    a.push(Inst::Store {
        base: Reg::R8,
        disp: 1024,
        src: Reg::R4,
    });
}

fn call_heavy(a: &mut Assembler) {
    a.call("wl_fn");
    a.jmp("wl_after");
    a.label("wl_fn");
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R6,
        src: Reg::R3,
    });
    a.push(Inst::Ret);
    a.label("wl_after");
}

fn mixed(a: &mut Assembler) {
    a.push(Inst::Load {
        dst: Reg::R4,
        base: Reg::R8,
        disp: 64,
    });
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R1,
        src: Reg::R4,
    });
    a.push(Inst::Cmp {
        a: Reg::R1,
        b: Reg::R2,
    });
    a.jcc_cond(phantom_isa::Cond::Ne, "wl_skip");
    a.push(Inst::Nop);
    a.label("wl_skip");
}

/// A large straight-line code footprint (~1.5x the µop cache capacity, so every pass thrashes it),
/// so a steady fraction of fetches takes the decoder path — UnixBench's
/// big-binary behavior, and where the SuppressBPOnNonBr confirmation
/// bubble actually costs cycles.
fn big_code(a: &mut Assembler) {
    for i in 0..12000u64 {
        if i % 5 == 0 {
            a.push(Inst::NopN { len: 8 });
        } else {
            a.push(Inst::Alu {
                op: AluOp::Add,
                dst: Reg::R4,
                src: Reg::R3,
            });
        }
    }
}

/// The synthetic suite standing in for UnixBench.
pub fn workload_suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "arith",
            program: arith_loop,
            iterations: 400,
        },
        Workload {
            name: "branchy",
            program: branchy,
            iterations: 300,
        },
        Workload {
            name: "memory",
            program: memory_stride,
            iterations: 300,
        },
        Workload {
            name: "calls",
            program: call_heavy,
            iterations: 250,
        },
        Workload {
            name: "mixed",
            program: mixed,
            iterations: 300,
        },
        Workload {
            name: "bigcode",
            program: big_code,
            iterations: 4,
        },
    ]
}

fn run_workload(
    profile: &UarchProfile,
    wl: &Workload,
    suppress: bool,
) -> Result<u64, ScenarioError> {
    let mut m = Machine::new(profile.clone(), 1 << 24);
    if suppress {
        m.write_msr(MsrState {
            suppress_bp_on_non_br: true,
            ..MsrState::none()
        });
    }
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::MovImm {
        dst: Reg::R0,
        imm: wl.iterations,
    });
    a.push(Inst::MovImm {
        dst: Reg::R3,
        imm: 1,
    });
    a.push(Inst::MovImm {
        dst: Reg::R8,
        imm: 0x60_0000,
    });
    a.label("wl_top");
    (wl.program)(&mut a);
    a.push(Inst::Alu {
        op: AluOp::Sub,
        dst: Reg::R0,
        src: Reg::R3,
    });
    a.push(Inst::MovImm {
        dst: Reg::R7,
        imm: 0,
    });
    a.push(Inst::Cmp {
        a: Reg::R0,
        b: Reg::R7,
    });
    a.jcc_cond(phantom_isa::Cond::Ne, "wl_top");
    a.push(Inst::Halt);
    let blob = a.finish()?;
    m.load_blob(&blob, PageFlags::USER_TEXT)?;
    m.map_range(VirtAddr::new(0x60_0000), 0x2000, PageFlags::USER_DATA)?;
    m.map_range(VirtAddr::new(0x7000_0000), 0x4000, PageFlags::USER_DATA)?;
    m.set_reg(Reg::SP, 0x7000_4000 - 64);
    m.set_pc(VirtAddr::new(blob.base));
    m.run(40 * wl.iterations + 8000 * wl.iterations + 100)?;
    Ok(m.cycles())
}

/// Overhead measurement result.
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// Per-workload (name, baseline cycles, suppressed cycles).
    pub per_workload: Vec<(&'static str, u64, u64)>,
    /// Geometric-mean overhead, in percent (the paper measured 0.69%
    /// single-core).
    pub geomean_overhead_pct: f64,
}

/// Measure the cycle overhead of `SuppressBPOnNonBr` over the workload
/// suite, geomean over workloads (like the paper's UnixBench runs),
/// with one runner trial per workload, each measuring the
/// baseline/suppressed cycle pair on fresh machines.
///
/// # Errors
///
/// Returns the first workload that fails to assemble, map or run.
pub fn suppress_overhead_on(
    runner: &TrialRunner,
    profile: UarchProfile,
) -> Result<OverheadResult, ScenarioError> {
    let suite = workload_suite();
    let per_workload = runner.map(suite.len(), 0, |trial| {
        let wl = &suite[trial.index];
        let base = run_workload(&profile, wl, false)?;
        let supp = run_workload(&profile, wl, true)?;
        Ok((wl.name, base, supp))
    })?;
    let log_sum: f64 = per_workload
        .iter()
        .map(|&(_, base, supp)| (supp as f64 / base as f64).ln())
        .sum();
    let geomean = (log_sum / per_workload.len().max(1) as f64).exp();
    Ok(OverheadResult {
        per_workload,
        geomean_overhead_pct: (geomean - 1.0) * 100.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn o4_blocks_execute_but_not_fetch_or_decode() {
        let o = o4_suppress_bp_on_non_br(UarchProfile::zen2()).unwrap();
        assert!(
            o.baseline.executed,
            "unmitigated Zen 2 executes phantom targets"
        );
        assert!(o.suppressed.fetched, "O4: IF not prevented");
        assert!(o.suppressed.decoded, "O4: ID not prevented");
        assert!(!o.suppressed.executed, "O4: EX prevented");
    }

    #[test]
    fn o4_bit_does_not_exist_on_zen1() {
        // §8.1 problem ①: the MSR is unsupported on Zen 1, so even the
        // "suppressed" run executes.
        let o = o4_suppress_bp_on_non_br(UarchProfile::zen1()).unwrap();
        assert!(o.suppressed.executed, "Zen 1 has no SuppressBPOnNonBr");
    }

    #[test]
    fn o5_auto_ibrs_does_not_stop_cross_privilege_fetch() {
        assert!(o5_auto_ibrs_fetch(1).unwrap(), "O5: IF despite AutoIBRS");
    }

    #[test]
    fn ibpb_stops_the_signal() {
        assert!(
            !ibpb_blocks_p1(2).unwrap(),
            "IBPB flushes the injected entry"
        );
    }

    #[test]
    fn suppress_overhead_is_small_but_nonzero() {
        let r = suppress_overhead_on(&TrialRunner::new(), UarchProfile::zen2()).unwrap();
        assert!(r.geomean_overhead_pct > 0.0, "{}", r.geomean_overhead_pct);
        assert!(
            r.geomean_overhead_pct < 5.0,
            "sub-5% like the paper's 0.69%: {}",
            r.geomean_overhead_pct
        );
        assert_eq!(r.per_workload.len(), 6);
        for (name, base, supp) in &r.per_workload {
            assert!(supp >= base, "{name}: suppression never speeds things up");
        }
    }

    #[test]
    fn lfence_in_the_gadget_stops_phantom_execution() {
        let (unprotected, protected) = lfence_gadget_protection(UarchProfile::zen2()).unwrap();
        assert!(
            unprotected,
            "baseline: the phantom window executes the load"
        );
        assert!(!protected, "lfence at the gadget entry stops it");
    }

    #[test]
    fn rsb_stuffing_removes_the_phantom_target() {
        let (unprotected, protected) = rsb_stuffing_protection(UarchProfile::zen2()).unwrap();
        assert!(unprotected, "poisoned RSB steers the ret-trained phantom");
        assert!(!protected, "stuffed RSB leaves the prediction targetless");
    }

    #[test]
    fn sls_padding_kills_the_straight_line_load() {
        let (unpadded, padded) = sls_padding_protection(UarchProfile::zen1()).unwrap();
        assert!(unpadded, "Zen 1 executes the straight line past ret");
        assert!(!padded, "a barrier after ret stops the dead-code load");
    }
}
