//! The execute stage: architectural instruction semantics, branch
//! resolution and predictor training.

use phantom_bpu::Prediction;
use phantom_isa::{BranchKind, Inst, Reg};
use phantom_mem::{AccessKind, FaultReason, PageFault, PrivilegeLevel, VirtAddr};

use crate::events::PipelineEvent;

use super::{Machine, MachineError};

impl Machine {
    /// Redirect to the registered user-mode fault handler, or surface
    /// the fault as a [`MachineError`]. On the handled path the caught
    /// fault is returned (and recorded in `last_fault`) so callers can
    /// report it without re-reading machine state.
    pub(super) fn handle_fault(&mut self, fault: PageFault) -> Result<PageFault, MachineError> {
        self.last_fault = Some(fault);
        if self.level == PrivilegeLevel::User {
            if let Some(handler) = self.fault_handler {
                self.pc = handler;
                // Signal delivery is expensive.
                self.cycles += 2000;
                return Ok(fault);
            }
        }
        Err(MachineError::Fault(fault))
    }

    /// A branch reached execute with no resolved target — only possible
    /// for hand-built instruction streams fed straight into
    /// [`Machine::execute`], since the decoder always materializes
    /// direct targets and the indirect/return paths resolve theirs from
    /// registers or the stack. Treat it as a fetch of an unrunnable
    /// instruction: a precise `NotExecutable` fault at the branch
    /// itself, through the normal fault machinery (handler redirect in
    /// user mode, [`MachineError::Fault`] otherwise) — never a panic.
    fn branch_without_target(&mut self, pc: VirtAddr) -> Result<bool, MachineError> {
        let fault = PageFault {
            addr: pc,
            access: AccessKind::Execute,
            reason: FaultReason::NotExecutable,
        };
        self.handle_fault(fault)?;
        Ok(false)
    }

    /// Resolve (taken, target) for the instruction before executing it.
    pub(super) fn resolve_branch(
        &mut self,
        inst: &Inst,
        pc: VirtAddr,
    ) -> Result<(bool, Option<VirtAddr>), MachineError> {
        Ok(match inst {
            Inst::Jmp { .. } | Inst::Call { .. } => {
                (true, inst.direct_target(pc.raw()).map(VirtAddr::new))
            }
            Inst::Jcc { cond, .. } => {
                let taken = cond.eval(self.zf, self.sf, self.cf);
                let target = if taken {
                    inst.direct_target(pc.raw()).map(VirtAddr::new)
                } else {
                    None
                };
                (taken, target)
            }
            Inst::JmpInd { src } | Inst::CallInd { src } => {
                (true, Some(VirtAddr::new(self.reg(*src))))
            }
            Inst::Ret => {
                // Architectural return address from the stack. The
                // virtual-boundary read matters: a stack pointer a few
                // bytes below an unmapped page must resolve as a fault
                // at execute, not a silent straddle into whatever frame
                // happens to sit next door physically.
                let sp = VirtAddr::new(self.reg(Reg::SP));
                match self.read_u64_virt(sp, AccessKind::Read, self.level) {
                    Ok(ret) => (true, Some(VirtAddr::new(ret))),
                    Err(_) => (true, None), // stack fault resolves at execute
                }
            }
            _ => (false, None),
        })
    }

    /// Architecturally execute `inst`. Returns whether the machine
    /// halted.
    pub(super) fn execute(
        &mut self,
        inst: Inst,
        pc: VirtAddr,
        len: u64,
        taken: bool,
        actual_target: Option<VirtAddr>,
        pred: Option<&Prediction>,
    ) -> Result<bool, MachineError> {
        let mut next = pc + len;
        match inst {
            Inst::Nop | Inst::NopN { .. } => {}
            Inst::MovImm { .. }
            | Inst::MovReg { .. }
            | Inst::Alu { .. }
            | Inst::Shr { .. }
            | Inst::Shl { .. }
            | Inst::AndImm { .. }
            | Inst::Cmp { .. } => {
                register_op(
                    inst,
                    &mut self.regs,
                    &mut self.zf,
                    &mut self.sf,
                    &mut self.cf,
                );
            }
            Inst::Load { dst, base, disp } => {
                let addr = VirtAddr::new(self.reg(base).wrapping_add(disp as i64 as u64));
                match self.translate_charged(addr, AccessKind::Read) {
                    Ok(pa) => {
                        let (lvl, lat) = self.caches.access_data(pa.raw());
                        self.emit(PipelineEvent::DataAccess {
                            va: addr,
                            level: lvl,
                        });
                        self.cycles += lat;
                        let v = self.phys.read_u64(pa);
                        self.set_reg(dst, v);
                    }
                    Err(fault) => {
                        self.handle_fault(fault)?;
                        return Ok(false);
                    }
                }
            }
            Inst::Store { base, disp, src } => {
                let addr = VirtAddr::new(self.reg(base).wrapping_add(disp as i64 as u64));
                match self.translate_charged(addr, AccessKind::Write) {
                    Ok(pa) => {
                        let (lvl, lat) = self.caches.access_data(pa.raw());
                        self.emit(PipelineEvent::DataAccess {
                            va: addr,
                            level: lvl,
                        });
                        self.cycles += lat;
                        let v = self.reg(src);
                        self.note_code_write(pa);
                        self.phys.write_u64(pa, v);
                    }
                    Err(fault) => {
                        self.handle_fault(fault)?;
                        return Ok(false);
                    }
                }
            }
            Inst::Clflush { addr } => {
                let va = VirtAddr::new(self.reg(addr));
                match self.translate_fast(va, AccessKind::Read, self.level) {
                    Ok(pa) => {
                        self.caches.flush_line(pa.raw());
                        self.cycles += 40;
                    }
                    Err(fault) => {
                        self.handle_fault(fault)?;
                        return Ok(false);
                    }
                }
            }
            Inst::Lfence | Inst::Mfence => self.cycles += 8,
            Inst::Jmp { .. }
            | Inst::Jcc { .. }
            | Inst::JmpInd { .. }
            | Inst::Call { .. }
            | Inst::CallInd { .. } => {
                let kind = inst.kind();
                if kind == BranchKind::Cond {
                    self.bpu.train_direction(pc, taken);
                }
                // Only a conditional branch falls through.
                if taken || kind != BranchKind::Cond {
                    let Some(target) = actual_target else {
                        return self.branch_without_target(pc);
                    };
                    self.bpu
                        .train_smt(pc, kind, target, self.level, self.thread);
                    if matches!(kind, BranchKind::Call | BranchKind::CallInd) {
                        self.push_return(pc + len)?;
                        self.bpu.rsb_mut().push(pc + len);
                    }
                    next = target;
                }
            }
            Inst::Ret => {
                let sp = VirtAddr::new(self.reg(Reg::SP));
                match self.read_u64_virt(sp, AccessKind::Read, self.level) {
                    Ok(ret) => {
                        let target = VirtAddr::new(ret);
                        self.set_reg(Reg::SP, sp.raw() + 8);
                        self.bpu
                            .train_smt(pc, BranchKind::Ret, target, self.level, self.thread);
                        // Keep the RSB in sync if the predictor did not
                        // already pop for this return.
                        if !matches!(pred, Some(p) if p.kind == BranchKind::Ret) {
                            self.bpu.rsb_mut().pop();
                        }
                        next = target;
                    }
                    Err(fault) => {
                        self.handle_fault(fault)?;
                        return Ok(false);
                    }
                }
            }
            Inst::Syscall => {
                let entry = self.syscall_entry.ok_or(MachineError::NoSyscallEntry)?;
                self.syscall_return = Some((pc + len, self.level));
                self.level = PrivilegeLevel::Supervisor;
                self.cycles += 100; // mode switch cost
                next = entry;
            }
            Inst::Sysret => {
                let (ret, lvl) = self
                    .syscall_return
                    .take()
                    .ok_or(MachineError::SysretWithoutSyscall)?;
                self.level = lvl;
                self.cycles += 100;
                next = ret;
            }
            Inst::Halt => {
                self.halted = true;
                return Ok(true);
            }
            Inst::Invalid { .. } => unreachable!("rejected before execute"),
        }
        self.pc = next;
        Ok(false)
    }

    fn push_return(&mut self, ret: VirtAddr) -> Result<(), MachineError> {
        let sp = VirtAddr::new(self.reg(Reg::SP).wrapping_sub(8));
        match self.translate_fast(sp, AccessKind::Write, self.level) {
            Ok(pa) => {
                self.note_code_write(pa);
                self.phys.write_u64(pa, ret.raw());
                self.set_reg(Reg::SP, sp.raw());
                Ok(())
            }
            Err(fault) => {
                self.handle_fault(fault)?;
                Ok(())
            }
        }
    }
}

/// Apply `inst` to a register file and its flags, for the instructions
/// whose only effect is there (`MovImm`, `MovReg`, `Alu`, `Shr`, `Shl`,
/// `AndImm`, `Cmp`); any other instruction changes nothing. The
/// architectural path and the wrong path both execute them through this.
#[inline]
pub(super) fn register_op(
    inst: Inst,
    regs: &mut [u64; 16],
    zf: &mut bool,
    sf: &mut bool,
    cf: &mut bool,
) {
    let r = |reg: Reg| usize::from(reg.index());
    match inst {
        Inst::MovImm { dst, imm } => regs[r(dst)] = imm,
        Inst::MovReg { dst, src } => regs[r(dst)] = regs[r(src)],
        Inst::Alu { op, dst, src } => regs[r(dst)] = op.apply(regs[r(dst)], regs[r(src)]),
        Inst::Shr { dst, amount } => regs[r(dst)] >>= amount,
        Inst::Shl { dst, amount } => regs[r(dst)] <<= amount,
        Inst::AndImm { dst, imm } => regs[r(dst)] &= u64::from(imm),
        Inst::Cmp { a, b } => {
            let (av, bv) = (regs[r(a)], regs[r(b)]);
            *zf = av == bv;
            *cf = av < bv;
            *sf = (av.wrapping_sub(bv) as i64) < 0;
        }
        _ => {}
    }
}
