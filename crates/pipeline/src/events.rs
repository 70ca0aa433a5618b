//! The typed pipeline event bus.
//!
//! Every observable thing the simulated pipeline does — an I-cache line
//! touched by fetch, a µop-cache fill or dispatch, a resteer, a
//! transient load, a retirement — is emitted as a [`PipelineEvent`].
//! Consumers implement [`EventSink`] and attach themselves to a
//! [`Machine`](crate::Machine) with
//! [`attach_sink`](crate::Machine::attach_sink); the machine itself
//! never knows who is listening.
//!
//! Two sinks ship with the workspace:
//!
//! * [`PerfCounters`] — the PMU is a pure function of the event stream
//!   (the machine keeps one attached implicitly; see [`count`]).
//! * [`TraceSink`](crate::trace::TraceSink) — distills the stream into
//!   per-retirement [`TraceEvent`](crate::TraceEvent)s.
//!
//! Adding a new observation channel means implementing [`EventSink`] in
//! one module and attaching it — no machine changes. See `DESIGN.md`
//! for a worked example.

use std::any::Any;
use std::fmt;

use phantom_cache::{Event as PmuEvent, Level, PerfCounters};
use phantom_isa::Inst;
use phantom_mem::{PageFault, VirtAddr};

use crate::resteer::ResteerKind;

/// One observable pipeline occurrence.
///
/// Events carry the *architectural* facts (addresses, cache levels,
/// transient-ness); counter and timing policy live in the sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineEvent {
    /// Instruction fetch touched the line holding `va` and found it at
    /// `level`. `transient: true` means the touch happened on a
    /// squashed (wrong-path) fetch.
    FetchLine {
        /// Virtual address fetched.
        va: VirtAddr,
        /// Hierarchy level that served the line.
        level: Level,
        /// Whether this was a wrong-path fetch.
        transient: bool,
    },
    /// The architectural frontend dispatched µops for `pc`, either from
    /// the µop cache (`hit`) or from the decoder.
    UopDispatch {
        /// Instruction address.
        pc: VirtAddr,
        /// µop-cache hit (vs. decoder path).
        hit: bool,
    },
    /// The decode stage filled the µop cache for `va`.
    UopCacheFill {
        /// Filled address.
        va: VirtAddr,
        /// Whether the fill came from a wrong-path decode.
        transient: bool,
    },
    /// A misprediction was detected and the pipeline was resteered.
    Resteer {
        /// The mispredicted instruction.
        pc: VirtAddr,
        /// Frontend (decoder-detected, PHANTOM) or backend
        /// (execute-detected, Spectre).
        kind: ResteerKind,
        /// Where the wrong path went, if a target was served.
        target: Option<VirtAddr>,
    },
    /// Inside a transient window, the BTB steered fetch to a nested
    /// phantom target (§7.4).
    PhantomSteer {
        /// Transient PC the BTB lied about.
        pc: VirtAddr,
        /// The nested wrong-path target.
        target: VirtAddr,
    },
    /// An architectural data access (load or store) resolved at `level`.
    DataAccess {
        /// Accessed virtual address.
        va: VirtAddr,
        /// Hierarchy level that served it.
        level: Level,
    },
    /// A wrong-path load was dispatched; it fills the D-cache even
    /// though the path is squashed.
    TransientLoad {
        /// Load address.
        va: VirtAddr,
        /// Hierarchy level that served it.
        level: Level,
    },
    /// One wrong-path µop issued to the backend.
    WrongPathUop {
        /// Transient PC.
        pc: VirtAddr,
    },
    /// An instruction retired. Always the last event of a successful
    /// [`step`](crate::Machine::step).
    Retired {
        /// Retired instruction's address.
        pc: VirtAddr,
        /// The instruction.
        inst: Inst,
        /// Total elapsed machine cycles after retirement.
        cycles: u64,
    },
    /// An architectural fetch fault was caught by the registered
    /// handler; the step ends without a retirement.
    FaultCaught {
        /// Faulting PC.
        pc: VirtAddr,
        /// The fault.
        fault: PageFault,
        /// Total elapsed machine cycles after signal delivery.
        cycles: u64,
    },
}

/// A consumer of [`PipelineEvent`]s.
///
/// `Any + Send + Sync` so sinks can cross thread boundaries with the
/// machine — including sharing a checkpointed machine by reference
/// across worker threads (see
/// [`Checkpoint`](crate::machine::Checkpoint)) — and be
/// recovered by concrete type via
/// [`detach_sink_as`](crate::Machine::detach_sink_as). Sinks are only
/// ever *called* through `&mut self` from the owning machine's step
/// loop, so `Sync` costs implementors nothing beyond not caching
/// thread-local state in `Rc`/`Cell`-style fields.
pub trait EventSink: Any + Send + Sync {
    /// Observe one event. Called synchronously from inside the step.
    fn on_event(&mut self, event: &PipelineEvent);
}

/// Handle to an attached sink, for later detachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SinkId(u64);

/// Ordered registry of attached sinks. Owned by the machine; dispatch
/// preserves attachment order.
#[derive(Default)]
pub struct EventBus {
    sinks: Vec<(SinkId, Box<dyn EventSink>)>,
    next: u64,
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> EventBus {
        EventBus::default()
    }

    /// Attach a sink; returns its handle.
    pub fn attach(&mut self, sink: Box<dyn EventSink>) -> SinkId {
        let id = SinkId(self.next);
        self.next += 1;
        self.sinks.push((id, sink));
        id
    }

    /// Detach and return the sink behind `id`, if attached.
    pub fn detach(&mut self, id: SinkId) -> Option<Box<dyn EventSink>> {
        let at = self.sinks.iter().position(|(sid, _)| *sid == id)?;
        Some(self.sinks.remove(at).1)
    }

    /// Deliver one event to every attached sink, in attachment order.
    /// The zero-sink case returns before touching the sink list — the
    /// machine emits on every fetch, dispatch and retire, and most runs
    /// never attach a sink, so this is the hot path.
    #[inline]
    pub fn dispatch(&mut self, event: &PipelineEvent) {
        if self.sinks.is_empty() {
            return;
        }
        for (_, sink) in &mut self.sinks {
            sink.on_event(event);
        }
    }

    /// Number of attached sinks.
    #[inline]
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sinks are attached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl fmt::Debug for EventBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBus")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// Cloning a bus yields an *empty* bus: sinks are observation state,
/// not machine state, so snapshots and clones never carry them.
impl Clone for EventBus {
    fn clone(&self) -> Self {
        EventBus::new()
    }
}

/// The PMU counter policy: which counters a given event bumps.
///
/// This is the single place event → counter mapping lives; the machine
/// applies it to its built-in PMU on every emit, and an external
/// [`PerfCounters`] attached as a sink sees identical updates.
#[inline]
pub fn count(pmu: &mut PerfCounters, event: &PipelineEvent) {
    match *event {
        PipelineEvent::FetchLine { level, .. } => {
            if level == Level::Memory {
                pmu.bump(PmuEvent::IcacheMiss);
            }
        }
        PipelineEvent::UopDispatch { hit: true, .. } => {
            pmu.bump(PmuEvent::OpCacheHit);
            pmu.bump(PmuEvent::UopsFromOpCache);
        }
        PipelineEvent::UopDispatch { hit: false, .. } => {
            pmu.bump(PmuEvent::OpCacheMiss);
            pmu.bump(PmuEvent::UopsFromDecoder);
        }
        PipelineEvent::UopCacheFill { transient, .. } => {
            // The architectural fill is already accounted by the
            // decoder-path dispatch; only wrong-path decodes add µops.
            if transient {
                pmu.bump(PmuEvent::UopsFromDecoder);
            }
        }
        PipelineEvent::Resteer { kind, .. } => {
            pmu.bump(PmuEvent::BranchMispredict);
            pmu.bump(match kind {
                ResteerKind::Frontend => PmuEvent::ResteerFrontend,
                ResteerKind::Backend => PmuEvent::ResteerBackend,
            });
        }
        PipelineEvent::PhantomSteer { .. } => {}
        PipelineEvent::DataAccess { level, .. } => {
            if level == Level::Memory {
                pmu.bump(PmuEvent::DcacheMiss);
            }
        }
        PipelineEvent::TransientLoad { level, .. } => {
            if level == Level::Memory {
                pmu.bump(PmuEvent::DcacheMiss);
            }
            pmu.bump(PmuEvent::LoadsDispatched);
        }
        PipelineEvent::WrongPathUop { .. } => pmu.bump(PmuEvent::WrongPathUops),
        PipelineEvent::Retired { .. } => pmu.bump(PmuEvent::InstRetired),
        PipelineEvent::FaultCaught { .. } => {}
    }
}

/// A detached [`PerfCounters`] is itself a sink: attach one to mirror
/// the machine's built-in PMU (e.g. to count only a probe phase).
impl EventSink for PerfCounters {
    fn on_event(&mut self, event: &PipelineEvent) {
        count(self, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter(usize);
    impl EventSink for Counter {
        fn on_event(&mut self, _: &PipelineEvent) {
            self.0 += 1;
        }
    }

    fn retired() -> PipelineEvent {
        PipelineEvent::Retired {
            pc: VirtAddr::new(0x1000),
            inst: Inst::Nop,
            cycles: 7,
        }
    }

    #[test]
    fn attach_dispatch_detach_round_trip() {
        let mut bus = EventBus::new();
        let id = bus.attach(Box::new(Counter::default()));
        assert_eq!(bus.len(), 1);
        bus.dispatch(&retired());
        bus.dispatch(&retired());
        let sink = bus.detach(id).expect("attached");
        let any: Box<dyn Any> = sink;
        let counter = any.downcast::<Counter>().expect("a Counter");
        assert_eq!(counter.0, 2);
        assert!(bus.is_empty());
        assert!(bus.detach(id).is_none());
    }

    #[test]
    fn clone_drops_sinks() {
        let mut bus = EventBus::new();
        bus.attach(Box::new(Counter::default()));
        assert!(bus.clone().is_empty());
    }

    #[test]
    fn perf_counters_sink_matches_count_policy() {
        let mut direct = PerfCounters::new();
        let mut sink = PerfCounters::new();
        let events = [
            retired(),
            PipelineEvent::UopDispatch {
                pc: VirtAddr::new(0),
                hit: false,
            },
            PipelineEvent::Resteer {
                pc: VirtAddr::new(0),
                kind: ResteerKind::Frontend,
                target: None,
            },
            PipelineEvent::TransientLoad {
                va: VirtAddr::new(0x40),
                level: Level::Memory,
            },
        ];
        for ev in &events {
            count(&mut direct, ev);
            sink.on_event(ev);
        }
        for ev in [
            PmuEvent::InstRetired,
            PmuEvent::OpCacheMiss,
            PmuEvent::UopsFromDecoder,
            PmuEvent::BranchMispredict,
            PmuEvent::ResteerFrontend,
            PmuEvent::LoadsDispatched,
            PmuEvent::DcacheMiss,
        ] {
            assert_eq!(direct.read(ev), sink.read(ev), "{ev:?}");
        }
        assert_eq!(sink.read(PmuEvent::LoadsDispatched), 1);
        assert_eq!(sink.read(PmuEvent::DcacheMiss), 1);
    }
}
