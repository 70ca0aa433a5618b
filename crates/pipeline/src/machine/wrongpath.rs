//! The squashed wrong path: transient fetch, decode, and a bounded
//! number of executed µops, with nested phantom steering (§7.4).

use phantom_isa::Inst;
use phantom_mem::{AccessKind, VirtAddr};

use crate::events::PipelineEvent;
use crate::transient::{TransientReport, TransientWindow};

use super::execute::register_op;
use super::fetch::LineSet;
use super::Machine;

impl Machine {
    /// Simulate the squashed wrong path: transient fetch, decode and a
    /// bounded number of µops, with nested phantom steering.
    pub fn run_transient(&mut self, start: VirtAddr, window: TransientWindow) -> TransientReport {
        let mut report = TransientReport {
            target: Some(start),
            window: Some(window),
            ..TransientReport::none()
        };
        if !window.fetch {
            return report;
        }

        // Transient fetch of the target line. An inaccessible target
        // (unmapped / NX / supervisor-only from user) fills nothing —
        // primitive P1's signal.
        let mut lines = LineSet::new();
        if !self.transient_touch(start, window.decode, &mut lines) {
            return report;
        }
        report.fetched = true;
        if !window.decode {
            return report;
        }
        report.decoded = true;

        // Decode the first fetch block's worth of lines at the target.
        let block = self.profile.fetch_block;
        let mut off = 64 - (start.raw() & 63);
        while off < block {
            self.transient_touch(start + off, true, &mut lines);
            off += 64;
        }

        if window.exec_uops == 0 {
            return report;
        }

        // Transient execution over a copy of the register file — the
        // wrong path sees the victim's live registers (that is P3).
        let mut tregs = self.regs;
        let (mut tzf, mut tsf, mut tcf) = (self.zf, self.sf, self.cf);
        let mut tpc = start;
        let mut budget = window.exec_uops;

        while budget > 0 {
            if !self.transient_touch(tpc, true, &mut lines) {
                break;
            }
            let (inst, len) = match self.cached_decode(tpc) {
                Some(pair) => pair,
                None => break,
            };
            budget -= 1;

            // Nested phantom steer: the BTB may claim this transient
            // instruction is a branch of a different kind (§7.4 nests
            // PHANTOM inside a Spectre window this way).
            if let Some(hit) = self.bpu.btb().lookup(tpc) {
                if hit.kind != inst.kind() {
                    if let Some(nested_target) = hit.target {
                        report.nested_phantom = true;
                        self.emit(PipelineEvent::PhantomSteer {
                            pc: tpc,
                            target: nested_target,
                        });
                        // The inner window is a frontend resteer: fetch +
                        // decode always; execute only with a phantom
                        // budget (Zen 1/2).
                        self.transient_touch(nested_target, true, &mut lines);
                        if self.profile.phantom_exec_uops == 0 {
                            break;
                        }
                        budget = budget.min(self.profile.phantom_exec_uops);
                        tpc = nested_target;
                        continue;
                    }
                }
            }

            report.executed_uops += 1;
            self.emit(PipelineEvent::WrongPathUop { pc: tpc });
            match inst {
                Inst::Nop | Inst::NopN { .. } => tpc = tpc + len,
                Inst::MovImm { .. }
                | Inst::MovReg { .. }
                | Inst::Alu { .. }
                | Inst::Shr { .. }
                | Inst::Shl { .. }
                | Inst::AndImm { .. }
                | Inst::Cmp { .. } => {
                    register_op(inst, &mut tregs, &mut tzf, &mut tsf, &mut tcf);
                    tpc = tpc + len;
                }
                Inst::Load { dst, base, disp } => {
                    let addr = VirtAddr::new(
                        tregs[usize::from(base.index())].wrapping_add(disp as i64 as u64),
                    );
                    // A dispatched load cannot be aborted: it fills the
                    // D-cache even though the path is squashed.
                    match self.translate_fast(addr, AccessKind::Read, self.level) {
                        Ok(pa) => {
                            let (lvl, _) = self.caches.access_data(pa.raw());
                            self.emit(PipelineEvent::TransientLoad {
                                va: addr,
                                level: lvl,
                            });
                            report.loads_dispatched.push(addr);
                            tregs[usize::from(dst.index())] = self.phys.read_u64(pa);
                        }
                        Err(_) => {
                            // Faulting transient loads return no data and
                            // fill nothing.
                            tregs[usize::from(dst.index())] = 0;
                        }
                    }
                    tpc = tpc + len;
                }
                Inst::Store { .. } => {
                    // Stores never commit transiently; they occupy the
                    // store buffer and are dropped at squash.
                    tpc = tpc + len;
                }
                Inst::Jcc { cond, .. } if !cond.eval(tzf, tsf, tcf) => tpc = tpc + len,
                Inst::Jmp { .. } | Inst::Call { .. } | Inst::Jcc { .. } => {
                    // Every direct branch has a target, so the walk never
                    // stops here.
                    let Some(target) = inst.direct_target(tpc.raw()) else {
                        break;
                    };
                    tpc = VirtAddr::new(target);
                }
                Inst::JmpInd { src } | Inst::CallInd { src } => {
                    tpc = VirtAddr::new(tregs[usize::from(src.index())]);
                }
                // Barriers, privilege transitions and everything else end
                // the transient path.
                Inst::Ret
                | Inst::Lfence
                | Inst::Mfence
                | Inst::Clflush { .. }
                | Inst::Syscall
                | Inst::Sysret
                | Inst::Halt
                | Inst::Invalid { .. } => break,
            }
        }
        report
    }
}
