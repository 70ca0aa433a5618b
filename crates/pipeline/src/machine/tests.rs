//! Machine tests: architectural semantics, speculation classification and
//! transient side effects.

use phantom_isa::asm::Assembler;
use phantom_isa::{Inst, Reg};
use phantom_mem::{AccessKind, FaultReason, PageFlags, PrivilegeLevel, VirtAddr};

use crate::machine::{Machine, MachineError, RunExit};
use crate::profile::UarchProfile;
use crate::resteer::ResteerKind;

fn machine(profile: UarchProfile) -> Machine {
    Machine::new(profile, 1 << 26)
}

fn load_user(m: &mut Machine, asm: &Assembler) -> phantom_isa::asm::Blob {
    let blob = asm.finish().expect("assemble");
    m.load_blob(&blob, PageFlags::USER_TEXT | PageFlags::WRITE)
        .expect("load");
    blob
}

/// Set up a user stack and return its top.
fn with_stack(m: &mut Machine) -> u64 {
    let stack_base = VirtAddr::new(0x7000_0000);
    m.map_range(stack_base, 0x4000, PageFlags::USER_DATA)
        .unwrap();
    let top = 0x7000_4000 - 64;
    m.set_reg(Reg::SP, top);
    top
}

#[test]
fn arithmetic_and_moves_execute() {
    let mut m = machine(UarchProfile::zen2());
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::MovImm {
        dst: Reg::R0,
        imm: 10,
    });
    a.push(Inst::MovImm {
        dst: Reg::R1,
        imm: 32,
    });
    a.push(Inst::Alu {
        op: phantom_isa::inst::AluOp::Add,
        dst: Reg::R0,
        src: Reg::R1,
    });
    a.push(Inst::Shl {
        dst: Reg::R0,
        amount: 1,
    });
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    m.set_pc(VirtAddr::new(blob.base));
    assert_eq!(m.run(100).unwrap(), RunExit::Halted);
    assert_eq!(m.reg(Reg::R0), 84);
}

#[test]
fn loads_and_stores_roundtrip_through_memory() {
    let mut m = machine(UarchProfile::zen3());
    let data = VirtAddr::new(0x50_0000);
    m.map_range(data, 0x1000, PageFlags::USER_DATA).unwrap();
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::MovImm {
        dst: Reg::R1,
        imm: data.raw(),
    });
    a.push(Inst::MovImm {
        dst: Reg::R2,
        imm: 0xdead_beef,
    });
    a.push(Inst::Store {
        base: Reg::R1,
        disp: 0x10,
        src: Reg::R2,
    });
    a.push(Inst::Load {
        dst: Reg::R3,
        base: Reg::R1,
        disp: 0x10,
    });
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    m.set_pc(VirtAddr::new(blob.base));
    m.run(100).unwrap();
    assert_eq!(m.reg(Reg::R3), 0xdead_beef);
    assert_eq!(m.peek_u64(data + 0x10), 0xdead_beef);
}

#[test]
fn call_and_ret_use_the_stack() {
    let mut m = machine(UarchProfile::zen2());
    let mut a = Assembler::new(0x40_0000);
    a.call("fun");
    a.push(Inst::MovImm {
        dst: Reg::R0,
        imm: 7,
    });
    a.push(Inst::Halt);
    a.label("fun");
    a.push(Inst::MovImm {
        dst: Reg::R1,
        imm: 9,
    });
    a.push(Inst::Ret);
    let blob = load_user(&mut m, &a);
    with_stack(&mut m);
    m.set_pc(VirtAddr::new(blob.base));
    assert_eq!(m.run(100).unwrap(), RunExit::Halted);
    assert_eq!(m.reg(Reg::R0), 7);
    assert_eq!(m.reg(Reg::R1), 9);
}

#[test]
fn conditional_branches_follow_flags() {
    let mut m = machine(UarchProfile::zen4());
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::MovImm {
        dst: Reg::R0,
        imm: 1,
    });
    a.push(Inst::MovImm {
        dst: Reg::R1,
        imm: 2,
    });
    a.push(Inst::Cmp {
        a: Reg::R0,
        b: Reg::R1,
    });
    a.jb("less");
    a.push(Inst::MovImm {
        dst: Reg::R2,
        imm: 111,
    });
    a.push(Inst::Halt);
    a.label("less");
    a.push(Inst::MovImm {
        dst: Reg::R2,
        imm: 222,
    });
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    m.set_pc(VirtAddr::new(blob.base));
    m.run(100).unwrap();
    assert_eq!(m.reg(Reg::R2), 222, "1 < 2 takes the branch");
}

#[test]
fn syscall_round_trip() {
    let mut m = machine(UarchProfile::zen3());
    // Kernel: set R5 and sysret.
    let mut k = Assembler::new(0xffff_ffff_8100_0000);
    k.push(Inst::MovImm {
        dst: Reg::R5,
        imm: 0x1234,
    });
    k.push(Inst::Sysret);
    let kblob = k.finish().unwrap();
    m.load_blob(&kblob, PageFlags::KERNEL_TEXT).unwrap();
    m.set_syscall_entry(Some(VirtAddr::new(kblob.base)));

    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::Syscall);
    a.push(Inst::MovImm {
        dst: Reg::R6,
        imm: 1,
    });
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    m.set_pc(VirtAddr::new(blob.base));
    assert_eq!(m.run(100).unwrap(), RunExit::Halted);
    assert_eq!(m.reg(Reg::R5), 0x1234, "kernel ran");
    assert_eq!(m.reg(Reg::R6), 1, "returned to user");
    assert_eq!(m.level(), PrivilegeLevel::User);
}

#[test]
fn user_cannot_execute_kernel_text() {
    let mut m = machine(UarchProfile::zen3());
    let mut k = Assembler::new(0xffff_ffff_8100_0000);
    k.push(Inst::Halt);
    let kblob = k.finish().unwrap();
    m.load_blob(&kblob, PageFlags::KERNEL_TEXT).unwrap();
    m.set_pc(VirtAddr::new(kblob.base));
    m.set_level(PrivilegeLevel::User);
    let err = m.run(10).unwrap_err();
    match err {
        MachineError::Fault(f) => assert_eq!(f.reason, FaultReason::Privilege),
        other => panic!("expected fault, got {other:?}"),
    }
}

#[test]
fn fault_handler_catches_user_faults() {
    let mut m = machine(UarchProfile::zen2());
    let mut a = Assembler::new(0x40_0000);
    // Jump into unmapped space; the handler should catch it.
    a.push(Inst::MovImm {
        dst: Reg::R0,
        imm: 0xdead_0000,
    });
    a.push(Inst::JmpInd { src: Reg::R0 });
    a.org(0x40_0100);
    a.label("handler");
    a.push(Inst::MovImm {
        dst: Reg::R1,
        imm: 0x5151,
    });
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    m.set_fault_handler(Some(VirtAddr::new(blob.addr("handler"))));
    m.set_pc(VirtAddr::new(blob.base));
    assert_eq!(m.run(100).unwrap(), RunExit::Halted);
    assert_eq!(m.reg(Reg::R1), 0x5151);
    assert!(m.last_fault().is_some());
}

#[test]
fn faulting_branch_still_trains_the_btb() {
    // The §6.2 page-fault training technique: jmp* to a kernel address
    // from user mode faults, but the BTB keeps the edge.
    let mut m = machine(UarchProfile::zen3());
    let kernel_target = VirtAddr::new(0xffff_ffff_8100_0ac0);
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::MovImm {
        dst: Reg::R0,
        imm: kernel_target.raw(),
    });
    a.label("branch");
    a.push(Inst::JmpInd { src: Reg::R0 });
    a.org(0x40_0100);
    a.label("handler");
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    m.set_fault_handler(Some(VirtAddr::new(blob.addr("handler"))));
    m.set_pc(VirtAddr::new(blob.base));
    m.run(100).unwrap();
    let hit = m.bpu().btb().lookup(VirtAddr::new(blob.addr("branch")));
    let hit = hit.expect("BTB trained despite fault");
    assert_eq!(hit.target, Some(kernel_target));
}

// ---------------------------------------------------------------------
// Speculation behavior.
// ---------------------------------------------------------------------

/// Build the Figure 4/5 experiment: training run executes `jmp* -> C`,
/// victim run executes nops at an aliasing address (same address here;
/// same-address aliasing is the simplest class member).
fn phantom_on_nop(profile: UarchProfile) -> (Machine, crate::transient::TransientReport) {
    let mut m = machine(profile);
    let a_branch = 0x40_0ac0u64; // branch source A
    let c_target = 0x44_0b00u64; // target C

    // Code at A: jmp* r0 -> C (training), then halt at fallthrough.
    let mut a = Assembler::new(0x40_0a00);
    a.org(a_branch);
    a.push(Inst::JmpInd { src: Reg::R0 });
    a.push(Inst::Halt);
    let blob = a.finish().unwrap();
    let m2 = &mut m;
    m2.load_blob(&blob, PageFlags::USER_TEXT).unwrap();

    // Target C: a load (the EX signal) then halt.
    let mut c = Assembler::new(c_target);
    c.push(Inst::Load {
        dst: Reg::R9,
        base: Reg::R8,
        disp: 0,
    });
    c.push(Inst::Halt);
    let cblob = c.finish().unwrap();
    m.load_blob(&cblob, PageFlags::USER_TEXT).unwrap();

    // Data the load in C touches.
    let probe = VirtAddr::new(0x60_0000);
    m.map_range(probe, 0x1000, PageFlags::USER_DATA).unwrap();
    m.set_reg(Reg::R8, probe.raw());

    // Victim code B: nops at the SAME alias class (same address, fresh
    // semantics thanks to poke). First, train: run the jmp*.
    m.set_reg(Reg::R0, c_target);
    m.set_pc(VirtAddr::new(a_branch));
    m.run(10).unwrap();

    // Replace the branch with nops: the victim instruction is a non
    // branch, but the BTB still predicts jmp* -> C.
    m.poke(VirtAddr::new(a_branch), &[0x90, 0x90, 0xf4]); // nop nop hlt

    // Flush target cache state so transient effects are visible.
    m.caches_mut().flush_all();
    m.uop_cache_mut().flush_all();

    // Victim run.
    m.set_pc(VirtAddr::new(a_branch));
    let (_, reports) = m.run_collecting(10).unwrap();
    let report = reports.into_iter().next().expect("misprediction observed");
    (m, report)
}

#[test]
fn phantom_fetch_and_decode_on_all_uarchs() {
    for profile in UarchProfile::all() {
        let name = profile.name.clone();
        let (m, report) = phantom_on_nop(profile);
        assert!(report.fetched, "O1: transient fetch on {name}");
        assert!(report.decoded, "O2: transient decode on {name}");
        // The I-cache now holds C's line; the µop cache holds its set.
        let c_pa = m
            .page_table()
            .translate(
                VirtAddr::new(0x44_0b00),
                phantom_mem::AccessKind::Execute,
                PrivilegeLevel::Supervisor,
            )
            .unwrap();
        assert!(m.caches().probe_l1i(c_pa.raw()), "I-cache filled on {name}");
        assert!(
            m.uop_cache().lookup(0x44_0b00),
            "uop cache filled on {name}"
        );
    }
}

#[test]
fn phantom_execute_only_on_zen1_and_zen2() {
    for profile in UarchProfile::all() {
        let name = profile.name.clone();
        let expect_exec = matches!(name.as_str(), "Zen" | "Zen 2");
        let (m, report) = phantom_on_nop(profile);
        assert_eq!(
            !report.loads_dispatched.is_empty(),
            expect_exec,
            "O3: transient execute on {name}"
        );
        if expect_exec {
            assert_eq!(report.loads_dispatched[0], VirtAddr::new(0x60_0000));
            let pa = m
                .page_table()
                .translate(
                    VirtAddr::new(0x60_0000),
                    phantom_mem::AccessKind::Read,
                    PrivilegeLevel::Supervisor,
                )
                .unwrap();
            assert!(m.caches().probe_l1d(pa.raw()), "D-cache filled on {name}");
        }
    }
}

#[test]
fn suppress_bp_on_non_br_gates_execute_only() {
    // O4: with the MSR set on Zen 2, non-branch victims no longer
    // execute the target, but IF and ID still happen.
    let mut profile = UarchProfile::zen2();
    profile.name = "Zen 2".into(); // unchanged; explicitness
    let (_, baseline) = phantom_on_nop(profile.clone());
    assert!(!baseline.loads_dispatched.is_empty());

    // Re-run with the bit set. Build the same experiment inline.
    let mut m = machine(UarchProfile::zen2());
    m.write_msr(phantom_bpu::MsrState {
        suppress_bp_on_non_br: true,
        ..Default::default()
    });
    let a_branch = 0x40_0ac0u64;
    let c_target = 0x44_0b00u64;
    let mut a = Assembler::new(0x40_0a00);
    a.org(a_branch);
    a.push(Inst::JmpInd { src: Reg::R0 });
    a.push(Inst::Halt);
    m.load_blob(&a.finish().unwrap(), PageFlags::USER_TEXT)
        .unwrap();
    let mut c = Assembler::new(c_target);
    c.push(Inst::Load {
        dst: Reg::R9,
        base: Reg::R8,
        disp: 0,
    });
    c.push(Inst::Halt);
    m.load_blob(&c.finish().unwrap(), PageFlags::USER_TEXT)
        .unwrap();
    m.map_range(VirtAddr::new(0x60_0000), 0x1000, PageFlags::USER_DATA)
        .unwrap();
    m.set_reg(Reg::R8, 0x60_0000);
    m.set_reg(Reg::R0, c_target);
    m.set_pc(VirtAddr::new(a_branch));
    m.run(10).unwrap();
    m.poke(VirtAddr::new(a_branch), &[0x90, 0x90, 0xf4]);
    m.caches_mut().flush_all();
    m.set_pc(VirtAddr::new(a_branch));
    let (_, reports) = m.run_collecting(10).unwrap();
    let report = &reports[0];
    assert!(report.fetched && report.decoded, "O4: IF/ID not prevented");
    assert!(report.loads_dispatched.is_empty(), "O4: EX prevented");
}

#[test]
fn suppress_bit_does_not_exist_on_zen1() {
    let mut m = machine(UarchProfile::zen1());
    let effective = m.write_msr(phantom_bpu::MsrState {
        suppress_bp_on_non_br: true,
        ..Default::default()
    });
    assert!(
        !effective.suppress_bp_on_non_br,
        "§8.1: not supported on Zen 1"
    );
}

#[test]
fn correct_predictions_cause_no_transient_path() {
    // A stable jmp* repeatedly jumping to the same target: after
    // training, no mispredictions.
    let mut m = machine(UarchProfile::zen2());
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::JmpInd { src: Reg::R0 });
    a.label("next");
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    m.set_reg(Reg::R0, blob.addr("next"));
    // Training run (misfetch on first encounter is fine).
    m.set_pc(VirtAddr::new(blob.base));
    m.run(10).unwrap();
    // Trained run: no misprediction events.
    let before = m.pmu().read(phantom_cache::Event::BranchMispredict);
    m.set_pc(VirtAddr::new(blob.base));
    let (_, reports) = m.run_collecting(10).unwrap();
    assert_eq!(m.pmu().read(phantom_cache::Event::BranchMispredict), before);
    assert!(reports.is_empty());
}

#[test]
fn wrong_indirect_target_is_a_spectre_window() {
    // Train jmp* to T1, then run it with T2 in the register: backend
    // resteer, wide window, transient execution at T1 on EVERY uarch.
    for profile in UarchProfile::all() {
        let name = profile.name.clone();
        let is_intel_blind = profile.indirect_victim_blind;
        let mut m = machine(profile);
        let mut a = Assembler::new(0x40_0000);
        a.push(Inst::JmpInd { src: Reg::R0 });
        a.label("t2");
        a.push(Inst::Halt);
        a.org(0x40_0800);
        a.label("t1");
        a.push(Inst::Load {
            dst: Reg::R9,
            base: Reg::R8,
            disp: 0,
        });
        a.push(Inst::Halt);
        let blob = load_user(&mut m, &a);
        m.map_range(VirtAddr::new(0x60_0000), 0x1000, PageFlags::USER_DATA)
            .unwrap();
        m.set_reg(Reg::R8, 0x60_0000);
        // Train to t1.
        m.set_reg(Reg::R0, blob.addr("t1"));
        m.set_pc(VirtAddr::new(blob.base));
        m.run(10).unwrap();
        // Victim run to t2: prediction says t1.
        m.caches_mut().flush_all();
        m.set_reg(Reg::R0, blob.addr("t2"));
        m.set_pc(VirtAddr::new(blob.base));
        let (_, reports) = m.run_collecting(10).unwrap();
        if is_intel_blind {
            // The blind spot applies to jmp* victims on old Intel parts.
            continue;
        }
        let report = reports.first().expect("misprediction");
        assert_eq!(
            report.window.unwrap().resteer,
            ResteerKind::Backend,
            "{name}"
        );
        assert!(
            !report.loads_dispatched.is_empty(),
            "Spectre executes on {name}"
        );
    }
}

#[test]
fn straight_line_speculation_past_a_return() {
    // ret trained as non-branch (i.e. untrained): sequential bytes after
    // the ret are transiently fetched/decoded.
    let mut m = machine(UarchProfile::zen1());
    let mut a = Assembler::new(0x40_0000);
    a.call("fun");
    a.push(Inst::Halt);
    a.org(0x40_0200);
    a.label("fun");
    a.push(Inst::Ret);
    // Sequential bytes after ret: a load that should NOT architecturally
    // run.
    a.push(Inst::Load {
        dst: Reg::R9,
        base: Reg::R8,
        disp: 0,
    });
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    with_stack(&mut m);
    m.map_range(VirtAddr::new(0x61_0000), 0x1000, PageFlags::USER_DATA)
        .unwrap();
    m.set_reg(Reg::R8, 0x61_0000);
    m.set_pc(VirtAddr::new(blob.base));
    let (_, reports) = m.run_collecting(20).unwrap();
    // The first ret encounter has no prediction: SLS fires.
    let sls = reports
        .iter()
        .find(|r| r.target == Some(VirtAddr::new(blob.addr("fun") + 1)))
        .expect("SLS report");
    assert!(sls.fetched && sls.decoded);
    // Zen 1 executes the straight line: the load dispatches.
    assert!(!sls.loads_dispatched.is_empty(), "SLS executes on Zen 1");
    // Architecturally R9 must be untouched.
    assert_eq!(m.reg(Reg::R9), 0);
}

#[test]
fn transient_fetch_fails_on_nx_target() {
    // P1's discriminator: a phantom steer to a mapped but non-executable
    // target fills nothing.
    let mut m = machine(UarchProfile::zen2());
    let a_branch = 0x40_0ac0u64;
    let nx_target = 0x58_0000u64;
    let mut a = Assembler::new(a_branch);
    a.push(Inst::JmpInd { src: Reg::R0 });
    a.push(Inst::Halt);
    m.load_blob(&a.finish().unwrap(), PageFlags::USER_TEXT)
        .unwrap();
    m.map_range(VirtAddr::new(nx_target), 0x1000, PageFlags::USER_DATA)
        .unwrap(); // NX

    // Train by jumping to an executable trampoline first? No — train the
    // BTB directly: branch to the NX target faults at fetch, but trains.
    let mut h = Assembler::new(0x40_2000);
    h.push(Inst::Halt);
    let hblob = h.finish().unwrap();
    m.load_blob(&hblob, PageFlags::USER_TEXT).unwrap();
    m.set_fault_handler(Some(VirtAddr::new(hblob.base)));
    m.set_reg(Reg::R0, nx_target);
    m.set_pc(VirtAddr::new(a_branch));
    m.run(10).unwrap();

    // Victim: nops at the branch address.
    m.poke(VirtAddr::new(a_branch), &[0x90, 0x90, 0xf4]);
    m.caches_mut().flush_all();
    m.set_pc(VirtAddr::new(a_branch));
    let (_, reports) = m.run_collecting(10).unwrap();
    let report = &reports[0];
    assert!(!report.fetched, "NX target cannot be transiently fetched");
    let pa = m
        .page_table()
        .translate(
            VirtAddr::new(nx_target),
            phantom_mem::AccessKind::Read,
            PrivilegeLevel::Supervisor,
        )
        .unwrap();
    assert!(!m.caches().probe_l1i(pa.raw()), "I-cache unaffected");
}

#[test]
fn run_exits_on_step_limit() {
    let mut m = machine(UarchProfile::zen2());
    let mut a = Assembler::new(0x40_0000);
    a.label("spin");
    a.jmp("spin");
    let blob = load_user(&mut m, &a);
    m.set_pc(VirtAddr::new(blob.base));
    assert_eq!(m.run(50).unwrap(), RunExit::StepLimit);
}

#[test]
fn invalid_bytes_error() {
    let mut m = machine(UarchProfile::zen2());
    m.map_range(VirtAddr::new(0x40_0000), 0x1000, PageFlags::USER_TEXT)
        .unwrap();
    m.poke(VirtAddr::new(0x40_0000), &[0xCC]);
    m.set_pc(VirtAddr::new(0x40_0000));
    assert!(matches!(
        m.run(10),
        Err(MachineError::InvalidInstruction { byte: 0xCC, .. })
    ));
}

#[test]
fn cycles_advance_monotonically() {
    let mut m = machine(UarchProfile::zen2());
    let mut a = Assembler::new(0x40_0000);
    a.nops(10);
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    m.set_pc(VirtAddr::new(blob.base));
    let c0 = m.cycles();
    m.run(100).unwrap();
    assert!(m.cycles() > c0 + 10);
}

#[test]
fn truncated_code_at_mapping_edge_errors() {
    // A multi-byte instruction whose tail runs off the last mapped page.
    let mut m = machine(UarchProfile::zen2());
    m.map_range(
        VirtAddr::new(0x40_0000),
        0x1000,
        PageFlags::USER_TEXT | PageFlags::WRITE,
    )
    .unwrap();
    // MovImm is 10 bytes; place its opcode 2 bytes before the page end.
    m.poke(VirtAddr::new(0x40_0ffe), &[0xB8, 0x00]);
    m.set_pc(VirtAddr::new(0x40_0ffe));
    assert!(matches!(m.run(4), Err(MachineError::TruncatedCode(_))));
}

#[test]
fn sysret_without_syscall_errors() {
    let mut m = machine(UarchProfile::zen2());
    m.map_range(
        VirtAddr::new(0x40_0000),
        0x1000,
        PageFlags::USER_TEXT | PageFlags::WRITE,
    )
    .unwrap();
    m.poke(VirtAddr::new(0x40_0000), &[0x07]); // sysret
    m.set_pc(VirtAddr::new(0x40_0000));
    assert!(matches!(m.run(4), Err(MachineError::SysretWithoutSyscall)));
}

#[test]
fn syscall_without_entry_errors() {
    let mut m = machine(UarchProfile::zen2());
    m.map_range(
        VirtAddr::new(0x40_0000),
        0x1000,
        PageFlags::USER_TEXT | PageFlags::WRITE,
    )
    .unwrap();
    m.poke(VirtAddr::new(0x40_0000), &[0x05]); // syscall
    m.set_pc(VirtAddr::new(0x40_0000));
    assert!(matches!(m.run(4), Err(MachineError::NoSyscallEntry)));
}

#[test]
fn map_range_same_flags_is_idempotent() {
    let mut m = machine(UarchProfile::zen2());
    let va = VirtAddr::new(0x40_0000);
    m.map_range(va, 0x2000, PageFlags::USER_DATA).unwrap();
    m.poke_u64(va, 0xfeed);
    let frames = m.phys().resident_frames();
    // Overlapping remap with identical flags: a no-op, data survives.
    m.map_range(va, 0x2000, PageFlags::USER_DATA).unwrap();
    assert_eq!(m.peek_u64(va), 0xfeed);
    assert_eq!(m.phys().resident_frames(), frames);
}

#[test]
fn map_range_flag_mismatch_errors_and_keeps_old_flags() {
    let mut m = machine(UarchProfile::zen2());
    let va = VirtAddr::new(0x40_0000);
    // An NX data page must not silently become executable: that is the
    // exact X-vs-NX distinction primitives P1/P2 measure.
    m.map_range(va, 0x1000, PageFlags::USER_DATA).unwrap();
    let err = m.map_range(va, 0x1000, PageFlags::USER_TEXT).unwrap_err();
    match err {
        MachineError::FlagMismatch {
            va: at,
            existing,
            requested,
        } => {
            assert_eq!(at, va);
            assert_eq!(existing, PageFlags::USER_DATA);
            assert_eq!(requested, PageFlags::USER_TEXT);
        }
        other => panic!("expected FlagMismatch, got {other:?}"),
    }
    assert_eq!(m.page_table().flags_of(va), Some(PageFlags::USER_DATA));
}

#[test]
fn map_range_flag_mismatch_is_atomic() {
    let mut m = machine(UarchProfile::zen2());
    // Pre-map only the *second* page of a two-page range with other
    // flags: the whole map_range must fail without mapping page one.
    let first = VirtAddr::new(0x40_0000);
    let second = VirtAddr::new(0x40_1000);
    m.map_range(second, 0x1000, PageFlags::USER_TEXT).unwrap();
    assert!(matches!(
        m.map_range(first, 0x2000, PageFlags::USER_DATA),
        Err(MachineError::FlagMismatch { .. })
    ));
    assert_eq!(m.page_table().flags_of(first), None, "nothing half-mapped");
}

#[test]
fn unmap_range_frees_the_virtual_range_for_remapping() {
    let mut m = machine(UarchProfile::zen2());
    let va = VirtAddr::new(0x40_0000);
    m.map_range(va, 0x2000, PageFlags::USER_DATA).unwrap();
    assert_eq!(m.unmap_range(va, 0x2000), 2);
    assert_eq!(m.page_table().flags_of(va), None);
    // The range can now be remapped with different flags.
    m.map_range(va, 0x2000, PageFlags::USER_TEXT).unwrap();
    assert_eq!(m.page_table().flags_of(va), Some(PageFlags::USER_TEXT));
    assert_eq!(m.unmap_range(VirtAddr::new(0x9000_0000), 0x1000), 0);
}

#[test]
fn decode_cache_hits_do_not_change_results_or_timing() {
    // Run the same loop twice, cache on and off: identical registers,
    // cycles and PMU state, but the cached run decodes each pc once.
    let run = |cached: bool| -> (u64, u64, (u64, u64)) {
        let mut m = machine(UarchProfile::zen2());
        m.set_decode_cache_enabled(cached);
        let mut a = Assembler::new(0x40_0000);
        a.push(Inst::MovImm {
            dst: Reg::R0,
            imm: 0,
        });
        a.push(Inst::MovImm {
            dst: Reg::R1,
            imm: 1,
        });
        a.label("loop_top");
        a.push(Inst::Alu {
            op: phantom_isa::inst::AluOp::Add,
            dst: Reg::R0,
            src: Reg::R1,
        });
        a.jmp("loop_top");
        let blob = load_user(&mut m, &a);
        m.set_pc(VirtAddr::new(blob.base));
        m.run(1000).unwrap();
        (m.reg(Reg::R0), m.cycles(), m.decode_cache_stats())
    };
    let (r_off, cycles_off, stats_off) = run(false);
    let (r_on, cycles_on, stats_on) = run(true);
    assert_eq!(r_off, r_on);
    assert_eq!(cycles_off, cycles_on);
    assert_eq!(stats_off, (0, 0), "disabled cache never counts");
    let (hits, misses) = stats_on;
    assert!(
        hits > 900,
        "hot loop mostly hits: {hits} hits, {misses} misses"
    );
    // One miss per distinct pc, plus at most a few wrong-path decodes.
    assert!(misses <= 8, "misses bounded by distinct pcs: {misses}");
}

#[test]
fn decode_cache_invalidates_on_self_modifying_store() {
    // Store over the instruction stream: the next decode must see the
    // new bytes, not a stale cached instruction.
    let mut m = machine(UarchProfile::zen2());
    let code = VirtAddr::new(0x40_0000);
    m.map_range(code, 0x1000, PageFlags::USER_TEXT | PageFlags::WRITE)
        .unwrap();
    // Target instruction at code+0x100: mov r0, 1 — warm the cache.
    let mut warm = Vec::new();
    phantom_isa::encode::encode_into(
        &Inst::MovImm {
            dst: Reg::R0,
            imm: 1,
        },
        &mut warm,
    )
    .unwrap();
    warm.push(0xF4); // hlt
    m.poke(code + 0x100, &warm);
    m.set_pc(code + 0x100);
    m.run(4).unwrap();
    assert_eq!(m.reg(Reg::R0), 1);

    // Overwrite the target with `mov r0, 2` via an architectural store
    // of the first 8 encoded bytes.
    let mut new_bytes = Vec::new();
    phantom_isa::encode::encode_into(
        &Inst::MovImm {
            dst: Reg::R0,
            imm: 2,
        },
        &mut new_bytes,
    )
    .unwrap();
    new_bytes.push(0xF4);
    new_bytes.resize(8, 0x90);
    let patch = u64::from_le_bytes(new_bytes[..8].try_into().unwrap());
    let mut a = Assembler::new(code.raw());
    a.push(Inst::MovImm {
        dst: Reg::R1,
        imm: patch,
    });
    a.push(Inst::MovImm {
        dst: Reg::R2,
        imm: code.raw() + 0x100,
    });
    a.push(Inst::Store {
        base: Reg::R2,
        disp: 0,
        src: Reg::R1,
    });
    a.push(Inst::Halt);
    let blob = a.finish().unwrap();
    m.poke(VirtAddr::new(blob.base), &blob.bytes);
    m.set_pc(VirtAddr::new(blob.base));
    m.run(10).unwrap();

    // Re-run the patched instruction: must observe the new immediate.
    m.set_pc(code + 0x100);
    m.run(4).unwrap();
    assert_eq!(m.reg(Reg::R0), 2, "stale decode survived a code store");
}

#[test]
fn decode_cache_is_privilege_aware() {
    // The same pc decodes differently per privilege level only through
    // translation; caching keys on (pc, level) so a supervisor decode
    // is never served to user mode.
    let mut m = machine(UarchProfile::zen2());
    let code = VirtAddr::new(0x40_0000);
    m.map_range(code, 0x1000, PageFlags::KERNEL_TEXT).unwrap();
    m.poke(code, &[0xF4]); // hlt
    m.set_level(PrivilegeLevel::Supervisor);
    m.set_pc(code);
    m.run(2).unwrap(); // caches (code, supervisor)
    m.set_level(PrivilegeLevel::User);
    m.set_pc(code);
    // User fetch of supervisor-only page faults (no handler => error),
    // it must NOT be served from the supervisor's cached decode.
    assert!(matches!(m.run(2), Err(MachineError::Fault(_))));
}

#[test]
fn sinks_stay_attached_and_observing_across_restore() {
    use crate::events::{EventSink, PipelineEvent};

    struct CountRetired(u64);
    impl EventSink for CountRetired {
        fn on_event(&mut self, event: &PipelineEvent) {
            if matches!(event, PipelineEvent::Retired { .. }) {
                self.0 += 1;
            }
        }
    }

    let mut m = machine(UarchProfile::zen2());
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::MovImm {
        dst: Reg::R0,
        imm: 7,
    });
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    m.set_pc(VirtAddr::new(blob.base));

    let id = m.attach_sink(CountRetired(0));
    let snap = m.snapshot();
    m.run(4).unwrap();
    m.restore(&snap);
    // The sink survives the rewind and keeps observing the replay.
    m.run(4).unwrap();
    let sink = m
        .detach_sink_as::<CountRetired>(id)
        .expect("still attached");
    assert_eq!(sink.0, 4, "retirements observed before AND after restore");
}

#[test]
fn restore_rewinds_memory_written_after_the_checkpoint() {
    let mut m = machine(UarchProfile::zen2());
    let data = VirtAddr::new(0x6000_0000);
    m.map_range(data, 0x3000, PageFlags::USER_DATA).unwrap();
    m.poke_u64(data, 0x1111);

    let snap = m.snapshot();
    // Dirty one page after the checkpoint, leave the others shared.
    m.poke_u64(data, 0x2222);
    m.poke_u64(data + 0x2000, 0x3333);
    m.restore(&snap);

    assert_eq!(m.peek_u64(data), 0x1111);
    assert_eq!(m.peek_u64(data + 0x2000), 0);
    // Restore copies back only the dirtied frames.
    assert!(m.phys().restore_frames_copied() >= 2);

    // A second divergence from the same snapshot also rewinds.
    m.poke_u64(data + 0x1000, 0x4444);
    m.restore(&snap);
    assert_eq!(m.peek_u64(data + 0x1000), 0);
    assert_eq!(m.peek_u64(data), 0x1111);
}

/// A machine (and therefore a checkpoint) can be shared by reference
/// across threads — the foundation of the fork-per-worker runner.
#[test]
fn machine_and_checkpoint_are_sync() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Machine>();
    assert_sync::<crate::machine::Checkpoint>();
}

#[test]
fn forks_share_the_base_and_diverge_privately() {
    let mut m = machine(UarchProfile::zen2());
    let data = VirtAddr::new(0x6000_0000);
    m.map_range(data, 0x2000, PageFlags::USER_DATA).unwrap();
    m.poke_u64(data, 0xba5e);
    let ck = m.into_checkpoint();

    let mut a = ck.fork();
    let mut b = ck.fork();
    assert_eq!(a.peek_u64(data), 0xba5e, "forks see the base state");
    a.poke_u64(data, 0xaaaa);
    b.poke_u64(data, 0xbbbb);
    assert_eq!(a.peek_u64(data), 0xaaaa);
    assert_eq!(b.peek_u64(data), 0xbbbb, "sibling writes never alias");
    assert!(
        a.phys().cow_faults() >= 1,
        "the fork's write unshared a frame"
    );

    // Rewind either fork and the base state is back — O(dirty frames).
    ck.rewind(&mut a);
    assert_eq!(a.peek_u64(data), 0xba5e);
    assert_eq!(
        b.peek_u64(data),
        0xbbbb,
        "rewinding one fork leaves siblings"
    );
}

#[test]
fn forks_probe_identically_across_worker_threads() {
    let mut m = machine(UarchProfile::zen2());
    let mut asm = Assembler::new(0x40_0000);
    asm.push(Inst::MovImm {
        dst: Reg::R0,
        imm: 5,
    });
    asm.push(Inst::MovImm {
        dst: Reg::R1,
        imm: 37,
    });
    asm.push(Inst::Alu {
        op: phantom_isa::inst::AluOp::Add,
        dst: Reg::R0,
        src: Reg::R1,
    });
    asm.push(Inst::Halt);
    let blob = load_user(&mut m, &asm);
    m.set_pc(VirtAddr::new(blob.base));
    let ck = m.into_checkpoint();

    let outcomes: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut fork = ck.fork();
                    fork.run(100).expect("fork runs");
                    (fork.reg(Reg::R0), fork.cycles())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (r0, cycles) in &outcomes {
        assert_eq!(*r0, 42);
        assert_eq!(*cycles, outcomes[0].1, "forks are cycle-identical");
    }
}

// ---------------------------------------------------------------------
// Panic-path hardening: unresolved branch targets, straddling stack
// reads, and consecutive-fault reporting must fault, never panic.
// ---------------------------------------------------------------------

#[test]
fn branch_without_a_resolved_target_faults_instead_of_panicking() {
    // Only hand-built streams fed straight into `execute` can reach a
    // branch with `actual_target: None` — the decoder materializes
    // direct targets and the indirect/return paths resolve theirs.
    // Each of the five branch kinds must surface a precise
    // `NotExecutable` fault at the branch, not a panic.
    use phantom_isa::Cond;
    let branches = [
        Inst::Jmp { disp: 0 },
        Inst::Jcc {
            cond: Cond::Eq,
            disp: 0,
        },
        Inst::JmpInd { src: Reg::R0 },
        Inst::Call { disp: 0 },
        Inst::CallInd { src: Reg::R0 },
    ];
    let pc = VirtAddr::new(0x40_0000);
    for inst in branches {
        let mut m = machine(UarchProfile::zen2());
        let err = m
            .execute(inst, pc, inst.len() as u64, true, None, None)
            .expect_err("no handler: the fault surfaces as an error");
        match err {
            MachineError::Fault(f) => {
                assert_eq!(f.addr, pc, "{inst:?} faults at the branch itself");
                assert_eq!(f.access, AccessKind::Execute);
                assert_eq!(f.reason, FaultReason::NotExecutable);
            }
            other => panic!("{inst:?}: expected fault, got {other:?}"),
        }
    }

    // With a user-mode handler registered the same condition is
    // recoverable: redirect, record, keep running.
    let mut m = machine(UarchProfile::zen2());
    let handler = VirtAddr::new(0x41_0000);
    m.set_level(PrivilegeLevel::User);
    m.set_fault_handler(Some(handler));
    let halted = m
        .execute(Inst::Jmp { disp: 0 }, pc, 5, true, None, None)
        .expect("handled fault is not an error");
    assert!(!halted);
    assert_eq!(m.pc(), handler, "redirected to the handler");
    assert_eq!(m.last_fault().unwrap().addr, pc);
}

#[test]
fn ret_straddling_into_an_unmapped_page_faults_at_the_page_start() {
    // SP sits 4 bytes below an unmapped page, so the 8-byte
    // return-address read straddles the virtual boundary. It must
    // resolve as a fault naming the unmapped page — not silently read
    // whatever physical frame happens to follow the mapped one.
    let mut m = machine(UarchProfile::zen2());
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::Ret);
    a.org(0x40_0100);
    a.label("handler");
    a.push(Inst::Halt);
    let blob = load_user(&mut m, &a);
    let stack = VirtAddr::new(0x7000_0000);
    m.map_range(stack, 0x1000, PageFlags::USER_DATA).unwrap();
    m.set_reg(Reg::SP, 0x7000_1000 - 4);
    m.set_fault_handler(Some(VirtAddr::new(blob.addr("handler"))));
    m.set_pc(VirtAddr::new(blob.base));
    assert_eq!(m.run(10).unwrap(), RunExit::Halted);
    let fault = m.last_fault().expect("straddling ret faulted");
    assert_eq!(
        fault.addr,
        VirtAddr::new(0x7000_1000),
        "fault names the unmapped page, not the (mapped) stack pointer"
    );
    assert_eq!(fault.reason, FaultReason::NotPresent);
}

#[test]
fn consecutive_fetch_faults_report_the_most_recent_fault() {
    // The fault handler itself is unmapped, so every handler redirect
    // immediately faults again on fetch. The machine must keep
    // redirecting (no panic, no stale report): the caught fault handed
    // back by `handle_fault` — and `last_fault` — always name the most
    // recent faulting address.
    let mut m = machine(UarchProfile::zen2());
    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::MovImm {
        dst: Reg::R0,
        imm: 0xdead_0000,
    });
    a.push(Inst::JmpInd { src: Reg::R0 });
    let blob = load_user(&mut m, &a);
    let handler = VirtAddr::new(0x66_0000); // never mapped
    m.set_fault_handler(Some(handler));
    m.set_pc(VirtAddr::new(blob.base));
    assert_eq!(m.run(6).unwrap(), RunExit::StepLimit);
    let fault = m.last_fault().unwrap();
    assert_eq!(fault.addr, handler, "second fault replaced the first");
    assert_eq!(fault.access, AccessKind::Execute);
    assert_eq!(m.pc(), handler, "still parked on the handler redirect");
}

// ---------------------------------------------------------------------
// Decode cache: self-modifying-code coherence and bit-identity.
// ---------------------------------------------------------------------

/// Record every pipeline event verbatim (cycle stamps included), for
/// byte-identical stream comparison across machine configurations.
struct RecordEvents(Vec<crate::events::PipelineEvent>);
impl crate::events::EventSink for RecordEvents {
    fn on_event(&mut self, event: &crate::events::PipelineEvent) {
        self.0.push(*event);
    }
}

/// A program whose hot inner function gets patched by its own store
/// mid-run: call `f` (returns 1 in r0) 24 times accumulating into r3,
/// overwrite `f`'s immediate with 2 through an architectural store,
/// call it 24 more times, halt. Correct final r3 is 24*1 + 24*2 = 72 —
/// a stale decode yields 48.
fn self_modifying_program(m: &mut Machine) {
    let f_addr = 0x40_0200u64;
    let mut patch = Vec::new();
    phantom_isa::encode::encode_into(
        &Inst::MovImm {
            dst: Reg::R0,
            imm: 2,
        },
        &mut patch,
    )
    .unwrap();
    phantom_isa::encode::encode_into(&Inst::Ret, &mut patch).unwrap();
    patch.resize(8, 0x90);
    let patch = u64::from_le_bytes(patch[..8].try_into().unwrap());

    let mut a = Assembler::new(0x40_0000);
    a.push(Inst::MovImm {
        dst: Reg::R6,
        imm: 1,
    });
    a.push(Inst::MovImm {
        dst: Reg::R5,
        imm: 24,
    });
    a.push(Inst::MovImm {
        dst: Reg::R4,
        imm: 0,
    });
    a.label("loop1");
    a.call("f");
    a.push(Inst::Alu {
        op: phantom_isa::inst::AluOp::Add,
        dst: Reg::R3,
        src: Reg::R0,
    });
    a.push(Inst::Alu {
        op: phantom_isa::inst::AluOp::Add,
        dst: Reg::R4,
        src: Reg::R6,
    });
    a.push(Inst::Cmp {
        a: Reg::R4,
        b: Reg::R5,
    });
    a.jb("loop1");
    // Patch f's `mov r0, 1` to `mov r0, 2` with one 8-byte store.
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
        op: phantom_isa::inst::AluOp::Add,
        dst: Reg::R3,
        src: Reg::R0,
    });
    a.push(Inst::Alu {
        op: phantom_isa::inst::AluOp::Add,
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
    a.push(Inst::NopN { len: 8 }); // patch slot slack past the ret
    let blob = load_user(m, &a);
    with_stack(m);
    m.set_pc(VirtAddr::new(blob.base));
}

#[test]
fn smc_over_a_hot_loop_stays_coherent_and_bit_identical() {
    // The self-modifying program must (a) observe its own store — the
    // decode cache drops the patched code — and (b) produce a
    // byte-identical event stream, cycle count and PMU state whether
    // the decode cache is on or off.
    let run = |cached: bool| {
        let mut m = machine(UarchProfile::zen2());
        m.set_decode_cache_enabled(cached);
        self_modifying_program(&mut m);
        let id = m.attach_sink(RecordEvents(Vec::new()));
        assert_eq!(m.run(100_000).unwrap(), RunExit::Halted);
        let events = m.detach_sink_as::<RecordEvents>(id).unwrap().0;
        (
            m.reg(Reg::R3),
            m.cycles(),
            m.pmu().clone(),
            events,
            m.decode_cache_stats(),
        )
    };
    let (r3_off, cycles_off, pmu_off, events_off, stats_off) = run(false);
    let (r3_on, cycles_on, pmu_on, events_on, stats_on) = run(true);

    assert_eq!(r3_off, 72, "uncached machine observes the patch");
    assert_eq!(r3_on, 72, "cached machine observes the patch");
    assert_eq!(cycles_off, cycles_on, "cycle-identical");
    assert_eq!(pmu_off, pmu_on, "PMU-identical");
    assert_eq!(events_off, events_on, "event-stream-identical");
    assert_eq!(stats_off, (0, 0), "disabled cache never counts");
    assert!(stats_on.0 > 0, "hot loops decoded from the cache");
}

#[test]
fn decode_cache_is_invisible_across_snapshot_restore() {
    // Snapshot mid-loop, run on, rewind, run to completion — with the
    // decode cache on and off. Registers, cycles, PMU and the full
    // event stream must match bit for bit.
    let run = |cached: bool| {
        let mut m = machine(UarchProfile::zen2());
        m.set_decode_cache_enabled(cached);
        let mut a = Assembler::new(0x40_0000);
        a.push(Inst::MovImm {
            dst: Reg::R0,
            imm: 0,
        });
        a.push(Inst::MovImm {
            dst: Reg::R1,
            imm: 1,
        });
        a.push(Inst::MovImm {
            dst: Reg::R2,
            imm: 64,
        });
        a.label("loop_top");
        a.push(Inst::Alu {
            op: phantom_isa::inst::AluOp::Add,
            dst: Reg::R0,
            src: Reg::R1,
        });
        a.push(Inst::Cmp {
            a: Reg::R0,
            b: Reg::R2,
        });
        a.jb("loop_top");
        a.push(Inst::Halt);
        let blob = load_user(&mut m, &a);
        m.set_pc(VirtAddr::new(blob.base));

        let id = m.attach_sink(RecordEvents(Vec::new()));
        m.run(40).unwrap(); // get the loop hot
        let snap = m.snapshot();
        m.run(50).unwrap(); // diverge past the checkpoint
        m.restore(&snap);
        assert_eq!(m.run(100_000).unwrap(), RunExit::Halted);
        let events = m.detach_sink_as::<RecordEvents>(id).unwrap().0;
        (
            m.reg(Reg::R0),
            m.cycles(),
            m.pmu().clone(),
            events,
            m.decode_cache_stats(),
        )
    };
    let (r0_off, cycles_off, pmu_off, events_off, _) = run(false);
    let (r0_on, cycles_on, pmu_on, events_on, stats_on) = run(true);
    assert_eq!(r0_off, 64);
    assert_eq!(r0_on, 64);
    assert_eq!(cycles_off, cycles_on, "cycle-identical across rewind");
    assert_eq!(pmu_off, pmu_on, "PMU-identical across rewind");
    assert_eq!(
        events_off, events_on,
        "event-stream-identical across rewind"
    );
    assert!(stats_on.0 > 0, "the hot loop decoded from the cache");
}
