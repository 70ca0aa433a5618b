//! Pipeline event tracing: a bounded record of what the frontend
//! believed, what the decoder found, and what got squashed.
//!
//! [`TraceSink`] is an [`EventSink`]: it listens to the machine's event
//! bus and distills the raw [`PipelineEvent`] stream into one
//! [`TraceEvent`] per retirement. [`Tracer`] is the convenience wrapper
//! that attaches the sink around [`Machine::step`](crate::Machine::step)
//! calls. Useful for debugging experiments and for teaching — the
//! `pipeline_trace` example renders a phantom misprediction instruction
//! by instruction.

use std::collections::VecDeque;

use phantom_isa::Inst;
use phantom_mem::VirtAddr;

use crate::events::{EventSink, PipelineEvent};
use crate::machine::{Machine, MachineError};
use crate::resteer::ResteerKind;

/// One distilled pipeline step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sequence number.
    pub seq: u64,
    /// Architectural PC.
    pub pc: VirtAddr,
    /// The decoded instruction.
    pub inst: Inst,
    /// Cycle count after the step.
    pub cycles: u64,
    /// Misprediction squashed this step, if any.
    pub resteer: Option<ResteerKind>,
    /// Where the wrong path went.
    pub transient_target: Option<VirtAddr>,
    /// Deepest stage the wrong path reached ("-", "IF", "ID", "EX").
    pub transient_stage: &'static str,
    /// Wrong-path loads dispatched.
    pub transient_loads: usize,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>4}] {} {:<24}",
            self.seq,
            self.pc,
            self.inst.to_string()
        )?;
        match (self.resteer, self.transient_target) {
            (Some(kind), Some(target)) => write!(
                f,
                " !! {} resteer; wrong path -> {} reached {} ({} loads)",
                match kind {
                    ResteerKind::Frontend => "frontend",
                    ResteerKind::Backend => "backend",
                },
                target,
                self.transient_stage,
                self.transient_loads
            ),
            (Some(kind), None) => write!(
                f,
                " !! {} resteer; no target served",
                match kind {
                    ResteerKind::Frontend => "frontend",
                    ResteerKind::Backend => "backend",
                }
            ),
            _ => Ok(()),
        }
    }
}

/// Per-step speculation facts accumulated between retirements.
#[derive(Debug, Clone, Default)]
struct Pending {
    resteer: Option<ResteerKind>,
    target: Option<VirtAddr>,
    fetched: bool,
    decoded: bool,
    executed: bool,
    loads: usize,
}

impl Pending {
    fn stage(&self) -> &'static str {
        if self.executed || self.loads > 0 {
            "EX"
        } else if self.decoded {
            "ID"
        } else if self.fetched {
            "IF"
        } else {
            "-"
        }
    }
}

/// An [`EventSink`] that folds the pipeline event stream into
/// [`TraceEvent`]s, one per retirement (or caught fetch fault).
///
/// A `capacity` of zero means unbounded; otherwise the sink keeps the
/// most recent `capacity` events as a ring.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    seq: u64,
    pending: Pending,
}

impl TraceSink {
    /// A sink keeping only the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> TraceSink {
        TraceSink {
            capacity,
            ..TraceSink::default()
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter()
    }

    /// Drop recorded events (sequence numbers keep counting).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    fn flush(&mut self, pc: VirtAddr, inst: Inst, cycles: u64) {
        let pending = std::mem::take(&mut self.pending);
        if self.capacity > 0 && self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(TraceEvent {
            seq: self.seq,
            pc,
            inst,
            cycles,
            resteer: pending.resteer,
            transient_target: pending.target,
            transient_stage: pending.stage(),
            transient_loads: pending.loads,
        });
        self.seq += 1;
    }
}

impl EventSink for TraceSink {
    fn on_event(&mut self, event: &PipelineEvent) {
        match *event {
            PipelineEvent::Resteer { kind, target, .. } => {
                self.pending.resteer = Some(kind);
                self.pending.target = target;
            }
            PipelineEvent::FetchLine {
                transient: true, ..
            } => self.pending.fetched = true,
            PipelineEvent::UopCacheFill {
                transient: true, ..
            } => self.pending.decoded = true,
            PipelineEvent::TransientLoad { .. } => self.pending.loads += 1,
            PipelineEvent::WrongPathUop { .. } => self.pending.executed = true,
            PipelineEvent::Retired { pc, inst, cycles } => self.flush(pc, inst, cycles),
            PipelineEvent::FaultCaught { pc, cycles, .. } => self.flush(pc, Inst::Nop, cycles),
            _ => {}
        }
    }
}

/// A bounded step recorder over a [`Machine`].
///
/// Owns a [`TraceSink`] and attaches it to the machine's event bus for
/// the duration of each [`Tracer::run`] call.
///
/// # Examples
///
/// ```
/// use phantom_isa::{asm::Assembler, Inst, Reg};
/// use phantom_mem::PageFlags;
/// use phantom_pipeline::{Machine, Tracer, UarchProfile};
///
/// let mut m = Machine::new(UarchProfile::zen2(), 1 << 20);
/// let mut a = Assembler::new(0x40_0000);
/// a.push(Inst::Nop);
/// a.push(Inst::Halt);
/// m.load_blob(&a.finish()?, PageFlags::USER_TEXT)?;
/// m.set_pc(0x40_0000u64.into());
///
/// let mut tracer = Tracer::new(64);
/// tracer.run(&mut m, 10)?;
/// assert_eq!(tracer.render().lines().count(), 2); // nop + hlt
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    sink: TraceSink,
}

impl Tracer {
    /// A tracer keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Tracer {
        assert!(capacity > 0, "capacity must be nonzero");
        Tracer {
            sink: TraceSink::with_capacity(capacity),
        }
    }

    /// Attach the sink to `machine`, run `f`, and take the sink back.
    fn observed<T>(
        &mut self,
        machine: &mut Machine,
        f: impl FnOnce(&mut Machine) -> Result<T, MachineError>,
    ) -> Result<T, MachineError> {
        let id = machine.attach_sink(std::mem::take(&mut self.sink));
        let result = f(machine);
        // `f` only steps or runs the machine, and neither detaches a
        // sink, so the one attached above is still there under `id`.
        #[allow(clippy::expect_used)]
        let sink = machine
            .detach_sink_as::<TraceSink>(id)
            .expect("tracer sink attached");
        self.sink = *sink;
        result
    }

    /// Step the machine once, recording the event.
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`] from the machine.
    #[cfg(test)]
    pub fn step(
        &mut self,
        machine: &mut Machine,
    ) -> Result<crate::machine::StepOutcome, MachineError> {
        self.observed(machine, Machine::step)
    }

    /// Run until halt or `max_steps`, recording every step.
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`] from the machine.
    pub fn run(&mut self, machine: &mut Machine, max_steps: u64) -> Result<(), MachineError> {
        self.observed(machine, |m| {
            for _ in 0..max_steps {
                if m.step()?.halted {
                    break;
                }
            }
            Ok(())
        })
    }

    /// The recorded events, oldest first.
    #[cfg(test)]
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.sink.events()
    }

    /// Only the events where a misprediction was squashed.
    #[cfg(test)]
    pub fn mispredictions(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.sink.events().filter(|e| e.resteer.is_some())
    }

    /// Render the whole trace, one event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.sink.events() {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Clear recorded events (sequence numbers keep counting).
    pub fn clear(&mut self) {
        self.sink.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_isa::asm::Assembler;
    use phantom_isa::encode::encode_all;
    use phantom_isa::Reg;
    use phantom_mem::PageFlags;

    use crate::profile::UarchProfile;

    fn traced_phantom() -> (Tracer, Machine) {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let text = PageFlags::USER_TEXT | PageFlags::WRITE;
        let x = VirtAddr::new(0x40_0ac0);
        let c = VirtAddr::new(0x48_0b40);
        m.map_range(x.page_base(), 0x1000, text).unwrap();
        m.map_range(c.page_base(), 0x1000, text).unwrap();
        m.map_range(VirtAddr::new(0x60_0000), 64, PageFlags::USER_DATA)
            .unwrap();
        m.set_reg(Reg::R8, 0x60_0000);
        let mut g = Assembler::new(c.raw());
        g.push(Inst::Load {
            dst: Reg::R9,
            base: Reg::R8,
            disp: 0,
        });
        g.push(Inst::Halt);
        m.load_blob(&g.finish().unwrap(), text).unwrap();
        m.poke(
            x,
            &encode_all(&[Inst::JmpInd { src: Reg::R11 }, Inst::Halt]).unwrap(),
        );
        m.set_reg(Reg::R11, c.raw());
        m.set_pc(x);
        m.run(8).unwrap();
        m.poke(x, &encode_all(&[Inst::Nop, Inst::Nop, Inst::Halt]).unwrap());
        m.set_pc(x);
        (Tracer::new(32), m)
    }

    #[test]
    fn trace_captures_the_phantom_resteer() {
        let (mut tracer, mut m) = traced_phantom();
        tracer.run(&mut m, 8).unwrap();
        let mispredicts: Vec<_> = tracer.mispredictions().collect();
        assert_eq!(mispredicts.len(), 1);
        let e = mispredicts[0];
        assert_eq!(e.resteer, Some(ResteerKind::Frontend));
        assert_eq!(e.transient_target, Some(VirtAddr::new(0x48_0b40)));
        assert_eq!(e.transient_stage, "EX");
        assert_eq!(e.transient_loads, 1);
        assert_eq!(e.inst, Inst::Nop, "the victim was a nop");
    }

    #[test]
    fn render_is_one_line_per_event() {
        let (mut tracer, mut m) = traced_phantom();
        tracer.run(&mut m, 8).unwrap();
        let rendered = tracer.render();
        assert_eq!(rendered.lines().count(), tracer.events().count());
        assert!(rendered.contains("frontend resteer"));
    }

    #[test]
    fn capacity_bounds_the_ring() {
        let mut m = Machine::new(UarchProfile::zen3(), 1 << 20);
        let mut a = Assembler::new(0x40_0000);
        a.nops(20);
        a.push(Inst::Halt);
        m.load_blob(&a.finish().unwrap(), PageFlags::USER_TEXT)
            .unwrap();
        m.set_pc(VirtAddr::new(0x40_0000));
        let mut tracer = Tracer::new(4);
        tracer.run(&mut m, 40).unwrap();
        assert_eq!(tracer.events().count(), 4);
        // The kept events are the most recent ones.
        assert_eq!(tracer.events().last().unwrap().inst, Inst::Halt);
    }

    #[test]
    fn sink_detaches_between_calls() {
        let (mut tracer, mut m) = traced_phantom();
        assert_eq!(m.sink_count(), 0);
        tracer.step(&mut m).unwrap();
        assert_eq!(m.sink_count(), 0, "tracer takes its sink back");
        assert_eq!(tracer.events().count(), 1);
    }

    #[test]
    fn trace_agrees_with_step_outcomes() {
        // The event-stream distillation must match what StepOutcome
        // reports directly.
        let (mut tracer, mut m) = traced_phantom();
        let outcome = tracer.step(&mut m).unwrap();
        let e = tracer.events().next().unwrap().clone();
        assert_eq!(e.pc, outcome.pc);
        assert_eq!(e.inst, outcome.inst);
        let report = outcome.transient.expect("phantom fired");
        assert_eq!(e.transient_stage, report.deepest_stage());
        assert_eq!(e.transient_loads, report.loads_dispatched.len());
        assert_eq!(e.transient_target, report.target);
        assert_eq!(e.cycles, m.cycles());
    }
}
