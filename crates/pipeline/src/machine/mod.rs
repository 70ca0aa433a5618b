//! The simulated CPU: architectural execution with pre-decode
//! speculation modeling.
//!
//! The machine is split along pipeline stages, each in its own module;
//! every stage reports what it does through the typed event bus in
//! [`crate::events`]:
//!
//! * `fetch` — architectural and wrong-path instruction fetch,
//!   I-cache/TLB timing.
//! * `decode` — instruction decode, µop-cache dispatch, and the
//!   transient-window policy derived from decode-time information.
//! * `execute` — architectural semantics, branch resolution and
//!   predictor training.
//! * `wrongpath` — the squashed speculative path (transient fetch,
//!   decode and bounded execute, with nested phantom steering).
//! * `commit` — the step loop tying the stages together and retiring
//!   instructions.
//! * `snapshot` — cheap whole-machine checkpoints for trial runners.

mod commit;
mod decode;
mod execute;
mod fetch;
mod memory;
mod snapshot;
mod wrongpath;

use std::sync::Arc;

pub use snapshot::{Checkpoint, MachineSnapshot};

#[cfg(test)]
pub(crate) use fetch::LineSet;

use phantom_bpu::{Bpu, MsrState};
use phantom_cache::{CacheHierarchy, PerfCounters, UopCache};
use phantom_isa::{Inst, Reg};
use phantom_mem::phys::OutOfFrames;
use phantom_mem::{PageFault, PageTable, PhysMemory, PrivilegeLevel, Tlb, VirtAddr};

use crate::events::{EventBus, EventSink, PipelineEvent, SinkId};
use crate::profile::UarchProfile;
use crate::transient::TransientReport;

/// Fatal machine conditions (as opposed to architectural page faults,
/// which a registered handler can catch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// An unhandled page fault (no fault handler registered, or the
    /// fault occurred in supervisor mode).
    Fault(PageFault),
    /// Decoded an [`Inst::Invalid`] byte.
    InvalidInstruction {
        /// Where.
        pc: VirtAddr,
        /// The offending byte.
        byte: u8,
    },
    /// `syscall` executed but no kernel entry point is configured.
    NoSyscallEntry,
    /// `sysret` without a pending `syscall`.
    SysretWithoutSyscall,
    /// Physical memory exhausted while mapping.
    OutOfMemory(OutOfFrames),
    /// The code bytes at PC were truncated (ran off a mapping).
    TruncatedCode(VirtAddr),
    /// [`Machine::map_range`] hit a page already mapped with different
    /// flags. Remapping NX memory as executable (or vice versa) is
    /// exactly the X-vs-NX distinction primitives P1/P2 probe, so it
    /// must never happen silently.
    FlagMismatch {
        /// First mismatching page.
        va: VirtAddr,
        /// Flags the page is currently mapped with.
        existing: phantom_mem::PageFlags,
        /// Flags the caller asked for.
        requested: phantom_mem::PageFlags,
    },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Fault(pf) => write!(f, "unhandled {pf}"),
            MachineError::InvalidInstruction { pc, byte } => {
                write!(f, "invalid instruction byte {byte:#04x} at {pc}")
            }
            MachineError::NoSyscallEntry => f.write_str("syscall with no kernel entry configured"),
            MachineError::SysretWithoutSyscall => f.write_str("sysret without pending syscall"),
            MachineError::OutOfMemory(e) => write!(f, "{e}"),
            MachineError::TruncatedCode(pc) => write!(f, "truncated code bytes at {pc}"),
            MachineError::FlagMismatch {
                va,
                existing,
                requested,
            } => write!(
                f,
                "page {va} already mapped with flags {existing} (requested {requested})"
            ),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<OutOfFrames> for MachineError {
    fn from(e: OutOfFrames) -> Self {
        MachineError::OutOfMemory(e)
    }
}

/// Shape of every machine's (timing-only) TLB.
const TLB_SETS: usize = 64;
const TLB_WAYS: usize = 8;

/// The result of one architectural step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// PC of the stepped instruction.
    pub pc: VirtAddr,
    /// The instruction.
    pub inst: Inst,
    /// The transient (wrong-path) activity this step triggered, if any.
    pub transient: Option<TransientReport>,
    /// Whether the machine halted.
    pub halted: bool,
    /// An architectural fault that was *caught* by the registered
    /// handler this step (the handler is now the PC).
    pub caught_fault: Option<PageFault>,
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// A `hlt` retired.
    Halted,
    /// The step budget was exhausted.
    StepLimit,
}

/// The simulated CPU.
///
/// See the [crate-level docs](crate) for the speculation model and an
/// example. Cloning a machine copies all architectural and
/// microarchitectural state but none of the attached event sinks (see
/// [`EventBus`]); [`Machine::snapshot`] has the same semantics.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Shared: the profile never changes after construction, so
    /// clones and rewinds bump a pointer instead of copying it.
    profile: Arc<UarchProfile>,
    bpu: Bpu,
    caches: CacheHierarchy,
    uop_cache: UopCache,
    pmu: PerfCounters,
    phys: PhysMemory,
    page_table: PageTable,
    /// Timing-only TLB: translation correctness always comes from the
    /// page table; a TLB miss just charges page-walk latency. (This is
    /// deliberately conservative — stale-entry semantics cannot arise.)
    tlb: Tlb,
    regs: [u64; 16],
    zf: bool,
    sf: bool,
    cf: bool,
    pc: VirtAddr,
    level: PrivilegeLevel,
    thread: u8,
    cycles: u64,
    syscall_entry: Option<VirtAddr>,
    syscall_return: Option<(VirtAddr, PrivilegeLevel)>,
    fault_handler: Option<VirtAddr>,
    last_fault: Option<PageFault>,
    halted: bool,
    bus: EventBus,
    /// Memoized `(pc, privilege) → (inst, len)` decodes; timing- and
    /// event-invisible, and kept warm across [`restore`] minus what the
    /// rewind invalidates (see [`decode`]).
    ///
    /// [`restore`]: Machine::restore
    decode_cache: decode::DecodeCache,
    /// Probe-arena re-arms (see `phantom_sidechannel::ProbeArena`):
    /// host instrumentation, deliberately preserved across [`restore`].
    ///
    /// [`restore`]: Machine::restore
    probe_rearms: u64,
}

impl Machine {
    /// Create a machine with `phys_bytes` of physical memory, all
    /// mitigation MSRs off. Cache shapes and latencies come from the
    /// profile (`profile.cache`, `profile.uop_geometry`), so a machine
    /// built from a custom [`UarchSpec`](crate::spec::UarchSpec) models
    /// that spec's hierarchy everywhere.
    pub fn new(profile: UarchProfile, phys_bytes: u64) -> Machine {
        let bpu = Bpu::with_schemes(
            profile.btb_scheme.clone(),
            profile.cbp_scheme.clone(),
            MsrState::none(),
        );
        let caches = CacheHierarchy::new(profile.cache);
        let uop_cache = UopCache::with_geometry(profile.uop_geometry);
        Machine {
            profile: Arc::new(profile),
            bpu,
            caches,
            uop_cache,
            pmu: PerfCounters::new(),
            phys: PhysMemory::new(phys_bytes),
            page_table: PageTable::new(),
            tlb: Tlb::new(TLB_SETS, TLB_WAYS),
            regs: [0; 16],
            zf: false,
            sf: false,
            cf: false,
            pc: VirtAddr::new(0),
            level: PrivilegeLevel::User,
            thread: 0,
            cycles: 0,
            syscall_entry: None,
            syscall_return: None,
            fault_handler: None,
            last_fault: None,
            halted: false,
            bus: EventBus::new(),
            decode_cache: decode::DecodeCache::new(),
            probe_rearms: 0,
        }
    }

    /// Return the machine to what [`Machine::new`]`(profile,
    /// phys_bytes)` builds, in place. Observably identical to
    /// `*self = Machine::new(profile, phys_bytes)`: every state element,
    /// timing, counter and event of later runs is the same, and attached
    /// sinks are dropped (a new machine has none). What it saves is
    /// the large tables. The caches, the µop cache and the CBP reset
    /// through their [`RowStore`](phantom_mem::RowStore)s: the sets
    /// written since the last reset are cleared in place, any other set
    /// chunk that may differ is pointed at the store's shared cold
    /// chunk, and another shape builds a table of cold chunks (see
    /// [`SetAssocCache::reset`](phantom_cache::SetAssocCache::reset)
    /// and [`Cbp::reset`](phantom_bpu::Cbp::reset)). The BTB and RSB
    /// are rebuilt, and physical memory, the page table, the TLB,
    /// the registers and the decode cache start fresh, as in `new`.
    pub fn reset(&mut self, profile: UarchProfile, phys_bytes: u64) {
        // Destructured so that a new field cannot be left out.
        let Machine {
            profile: shared,
            bpu,
            caches,
            uop_cache,
            pmu,
            phys,
            page_table,
            tlb,
            regs,
            zf,
            sf,
            cf,
            pc,
            level,
            thread,
            cycles,
            syscall_entry,
            syscall_return,
            fault_handler,
            last_fault,
            halted,
            bus,
            decode_cache,
            probe_rearms,
        } = self;
        bpu.reset(
            profile.btb_scheme.clone(),
            profile.cbp_scheme.clone(),
            MsrState::none(),
        );
        caches.reset(profile.cache);
        uop_cache.reset(profile.uop_geometry);
        *shared = Arc::new(profile);
        *pmu = PerfCounters::new();
        *phys = PhysMemory::new(phys_bytes);
        *page_table = PageTable::new();
        tlb.reset();
        *regs = [0; 16];
        *zf = false;
        *sf = false;
        *cf = false;
        *pc = VirtAddr::new(0);
        *level = PrivilegeLevel::User;
        *thread = 0;
        *cycles = 0;
        *syscall_entry = None;
        *syscall_return = None;
        *fault_handler = None;
        *last_fault = None;
        *halted = false;
        *bus = EventBus::new();
        *decode_cache = decode::DecodeCache::new();
        *probe_rearms = 0;
    }

    // ----- event bus ---------------------------------------------------

    /// Attach an observation sink; every [`PipelineEvent`] the pipeline
    /// emits is delivered to it until detached.
    pub fn attach_sink<S: EventSink>(&mut self, sink: S) -> SinkId {
        self.bus.attach(Box::new(sink))
    }

    /// Detach the sink behind `id` and downcast it to its concrete
    /// type. Returns `None` if `id` is not attached or the type does
    /// not match.
    pub fn detach_sink_as<S: EventSink>(&mut self, id: SinkId) -> Option<Box<S>> {
        let sink = self.bus.detach(id)?;
        let any: Box<dyn std::any::Any> = sink;
        any.downcast::<S>().ok()
    }

    /// Number of attached sinks.
    #[cfg(test)]
    pub fn sink_count(&self) -> usize {
        self.bus.len()
    }

    /// Emit one event: applies the PMU counter policy, then fans out to
    /// every attached sink. The common case — no sinks attached — skips
    /// the dynamic dispatch loop entirely.
    #[inline]
    pub(crate) fn emit(&mut self, event: PipelineEvent) {
        crate::events::count(&mut self.pmu, &event);
        if !self.bus.is_empty() {
            self.bus.dispatch(&event);
        }
    }

    // ----- accessors -------------------------------------------------

    /// The active microarchitecture profile.
    pub fn profile(&self) -> &UarchProfile {
        &self.profile
    }

    /// The branch prediction unit.
    pub fn bpu(&self) -> &Bpu {
        &self.bpu
    }

    /// The branch prediction unit, mutably (training, IBPB, MSRs).
    pub fn bpu_mut(&mut self) -> &mut Bpu {
        &mut self.bpu
    }

    /// The cache hierarchy.
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// The cache hierarchy, mutably (priming, flushing, probing).
    pub fn caches_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.caches
    }

    /// The µop cache.
    pub fn uop_cache(&self) -> &UopCache {
        &self.uop_cache
    }

    /// The µop cache, mutably.
    pub fn uop_cache_mut(&mut self) -> &mut UopCache {
        &mut self.uop_cache
    }

    /// Performance counters.
    pub fn pmu(&self) -> &PerfCounters {
        &self.pmu
    }

    /// Physical memory.
    pub fn phys(&self) -> &PhysMemory {
        &self.phys
    }

    /// Probe-arena re-arms performed on this machine (its forks start
    /// from the fork point's count; rewinds preserve it).
    pub fn probe_rearms(&self) -> u64 {
        self.probe_rearms
    }

    /// Record one probe-arena re-arm. Called by
    /// `phantom_sidechannel::ProbeArena::arm`; host instrumentation
    /// only.
    pub fn count_probe_rearm(&mut self) {
        self.probe_rearms += 1;
    }

    /// Physical memory, mutably. Conservatively invalidates the decode
    /// cache: raw writes could rewrite code bytes.
    pub fn phys_mut(&mut self) -> &mut PhysMemory {
        self.decode_cache.invalidate();
        &mut self.phys
    }

    /// The page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The page table, mutably (the §6.2 PTE-flag tricks).
    /// Conservatively invalidates the decode cache: mapping or flag
    /// changes can alter what decodes.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        self.decode_cache.invalidate();
        &mut self.page_table
    }

    /// The (timing-only) TLB.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// The TLB, mutably (flushes on context switches in experiments).
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Charge extra cycles (harness-level costs like reboots).
    pub fn add_cycles(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Current program counter.
    #[cfg(test)]
    pub fn pc(&self) -> VirtAddr {
        self.pc
    }

    /// Set the program counter.
    pub fn set_pc(&mut self, pc: VirtAddr) {
        self.pc = pc;
        self.halted = false;
    }

    /// Current privilege level.
    pub fn level(&self) -> PrivilegeLevel {
        self.level
    }

    /// Force the privilege level (test setup).
    pub fn set_level(&mut self, level: PrivilegeLevel) {
        self.level = level;
    }

    /// Switch the SMT thread id.
    pub fn set_thread(&mut self, thread: u8) {
        self.thread = thread;
    }

    /// Read a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[usize::from(r.index())]
    }

    /// Write a register.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[usize::from(r.index())] = value;
    }

    /// The most recent architectural fault (caught or not).
    #[cfg(test)]
    pub fn last_fault(&self) -> Option<PageFault> {
        self.last_fault
    }

    /// The current flags `(zf, sf, cf)`.
    #[cfg(test)]
    pub fn flags(&self) -> (bool, bool, bool) {
        (self.zf, self.sf, self.cf)
    }

    /// Force the flags (test/experiment setup; architecturally flags are
    /// produced by `cmp`).
    pub fn set_flags(&mut self, zf: bool, sf: bool, cf: bool) {
        self.zf = zf;
        self.sf = sf;
        self.cf = cf;
    }

    /// Register a user-mode fault handler (the attacker's SIGSEGV
    /// handler, used to survive training branches into the kernel).
    pub fn set_fault_handler(&mut self, handler: Option<VirtAddr>) {
        self.fault_handler = handler;
    }

    /// Configure the kernel entry point `syscall` jumps to.
    pub fn set_syscall_entry(&mut self, entry: Option<VirtAddr>) {
        self.syscall_entry = entry;
    }

    /// Write the mitigation MSRs. Unsupported bits are clamped off, as on
    /// real parts (`SuppressBPOnNonBr` does not exist on Zen 1, AutoIBRS
    /// only on Zen 4). Returns the effective state.
    pub fn write_msr(&mut self, requested: MsrState) -> MsrState {
        let effective = MsrState {
            suppress_bp_on_non_br: requested.suppress_bp_on_non_br
                && self.profile.supports_suppress_bp_on_non_br,
            auto_ibrs: requested.auto_ibrs && self.profile.supports_auto_ibrs,
            eibrs_tagging: requested.eibrs_tagging
                && self.profile.vendor == crate::profile::Vendor::Intel,
            stibp: requested.stibp,
        };
        self.bpu.set_msr(effective);
        effective
    }

    // ----- decode cache ----------------------------------------------

    /// Decode-cache `(hits, misses)` since construction. Hits are steps
    /// (architectural or transient) that skipped code-byte translation
    /// and decode entirely. Host instrumentation, like
    /// [`Machine::probe_rearms`]: a fork starts from its checkpoint's
    /// counts and a rewind keeps the live ones.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        self.decode_cache.stats()
    }

    /// Enable or disable the decoded-instruction cache (enabled by
    /// default). Disabled is the uncached reference the coherence tests
    /// compare the cache against — results are identical either way,
    /// only host wall-clock changes.
    pub fn set_decode_cache_enabled(&mut self, enabled: bool) {
        self.decode_cache.set_enabled(enabled);
    }

    /// Always `(0, 0, 0)`: the trace-replay engine these counters
    /// described is gone. Kept only because the benchmark harness
    /// (`perfbench/`) still reads it; it goes away with the next
    /// declared benchmark change.
    pub fn trace_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }
}

#[cfg(test)]
mod tests;
