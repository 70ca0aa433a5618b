//! The commit stage: the step loop tying fetch, decode, speculation and
//! execute together, and the retirement events.

use phantom_isa::Inst;

use crate::events::PipelineEvent;
use crate::resteer::{classify_predicted, classify_unpredicted, ResteerKind, SpeculationVerdict};
use crate::transient::TransientReport;

use super::{Machine, MachineError, RunExit, StepOutcome};

impl Machine {
    /// Execute one architectural instruction, resolving the speculation
    /// the frontend performed around it.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] on unhandled faults, invalid
    /// instructions, or missing syscall wiring.
    pub fn step(&mut self) -> Result<StepOutcome, MachineError> {
        let pc = self.pc;

        // --- Instruction fetch (architectural). ---
        if let Err(fault) = self.arch_fetch(pc) {
            // handle_fault hands the caught fault back explicitly — no
            // re-reading `last_fault`, which a nested fault path could
            // in principle have rewritten between set and read.
            let caught = self.handle_fault(fault)?;
            self.emit(PipelineEvent::FaultCaught {
                pc,
                fault: caught,
                cycles: self.cycles,
            });
            return Ok(StepOutcome {
                pc,
                inst: Inst::Nop,
                transient: None,
                halted: false,
                caught_fault: Some(caught),
            });
        }

        // --- Decode and µop dispatch. ---
        let (inst, len) = self.decode_at(pc)?;
        self.uop_dispatch(pc);

        // --- Pre-decode prediction for this instruction's span. ---
        let pred = self.bpu.predict_window(pc, len, self.level, self.thread);

        // --- Resolve architectural branch semantics. ---
        let (taken, actual_target) = self.resolve_branch(&inst, pc)?;

        // --- Classify and run the wrong path. ---
        let verdict = match &pred {
            Some(p) => classify_predicted(p, &inst, actual_target, taken),
            None => classify_unpredicted(&inst, pc, taken),
        };
        let transient = match verdict {
            SpeculationVerdict::Mispredicted {
                resteer,
                transient_target,
            } => {
                self.emit(PipelineEvent::Resteer {
                    pc,
                    kind: resteer,
                    target: transient_target,
                });
                match resteer {
                    ResteerKind::Frontend => self.cycles += self.profile.frontend_resteer_latency,
                    ResteerKind::Backend => self.cycles += self.profile.backend_resteer_latency,
                }
                let window = self.window_for(&inst, pred.as_ref(), resteer);
                Some(match transient_target {
                    Some(target) => self.run_transient(target, window),
                    None => TransientReport {
                        window: Some(window),
                        ..TransientReport::none()
                    },
                })
            }
            _ => None,
        };

        // --- Architectural execute and retire. ---
        let halted = self.execute(inst, pc, len, taken, actual_target, pred.as_ref())?;
        self.cycles += 1;
        self.emit(PipelineEvent::Retired {
            pc,
            inst,
            cycles: self.cycles,
        });

        Ok(StepOutcome {
            pc,
            inst,
            transient,
            halted,
            caught_fault: None,
        })
    }

    /// Run until halt or `max_steps`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MachineError`] from [`Machine::step`].
    pub fn run(&mut self, max_steps: u64) -> Result<RunExit, MachineError> {
        for _ in 0..max_steps {
            if self.step()?.halted {
                return Ok(RunExit::Halted);
            }
        }
        Ok(RunExit::StepLimit)
    }

    /// Run, collecting every transient report produced on the way, in
    /// program order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MachineError`] from [`Machine::step`].
    pub fn run_collecting(
        &mut self,
        max_steps: u64,
    ) -> Result<(RunExit, Vec<TransientReport>), MachineError> {
        let mut reports = Vec::new();
        for _ in 0..max_steps {
            let out = self.step()?;
            if let Some(t) = out.transient {
                reports.push(t);
            }
            if out.halted {
                return Ok((RunExit::Halted, reports));
            }
        }
        Ok((RunExit::StepLimit, reports))
    }
}
