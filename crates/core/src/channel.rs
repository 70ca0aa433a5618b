//! Observation channels (§5.1, Figure 5): detecting how far a phantom
//! path advanced in the pipeline *without relying on transient
//! execution*.
//!
//! * [`IfChannel`] — Figure 5 A: flush the candidate target line from
//!   the I-cache, run the victim, then time an instruction fetch of the
//!   line. A fast fetch means the frontend transiently fetched it.
//! * [`IdChannel`] — Figure 5 B: prime one µop-cache set by executing a
//!   series of 7 direct jumps spaced 4096 bytes apart (all mapping to
//!   the set), run the victim, re-run the series while sampling the
//!   µop-cache hit counter. A missing way means the victim's phantom
//!   target was *decoded*.
//! * [`ExChannel`] — flush a data line the phantom path would load, run
//!   the victim, time a reload. A fast reload means a wrong-path load
//!   dispatched (transient execution).

use phantom_cache::Event;
use phantom_isa::asm::{AsmError, Assembler};
use phantom_isa::encode::EncodeError;
use phantom_isa::Inst;
use phantom_mem::{AccessKind, PageFlags, PrivilegeLevel, VirtAddr};
use phantom_pipeline::Machine;
use phantom_sidechannel::{NoiseModel, Reading};

/// Number of jumps in the µop-cache priming series (the paper uses 7).
pub const JMP_SERIES_LEN: usize = 7;

/// Errors from channel construction.
#[derive(Debug)]
pub struct ChannelError(pub String);

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "observation channel setup failed: {}", self.0)
    }
}

impl std::error::Error for ChannelError {}

impl From<EncodeError> for ChannelError {
    fn from(e: EncodeError) -> ChannelError {
        ChannelError(e.to_string())
    }
}

impl From<AsmError> for ChannelError {
    fn from(e: AsmError) -> ChannelError {
        ChannelError(e.to_string())
    }
}

/// The Instruction Fetch observation channel (I-cache timing).
///
/// Works on targets the observer can fetch architecturally (same
/// privilege); the cross-privilege attacks use Prime+Probe instead.
#[derive(Debug, Clone, Copy)]
pub struct IfChannel {
    target: VirtAddr,
}

impl IfChannel {
    /// Observe fetches of the line containing `target`.
    pub fn new(target: VirtAddr) -> IfChannel {
        IfChannel { target }
    }

    /// Arm: flush the target's line from the hierarchy.
    pub fn arm(&self, machine: &mut Machine) {
        if let Ok(pa) = machine.page_table().translate(
            self.target,
            AccessKind::Read,
            PrivilegeLevel::Supervisor,
        ) {
            machine.caches_mut().flush_line(pa.raw());
        }
    }

    /// Probe: time an instruction fetch of the target line. Returns
    /// `true` when the line was already cached (i.e. the victim's
    /// phantom path fetched it).
    pub fn observe(&self, machine: &mut Machine, noise: &mut NoiseModel) -> bool {
        self.observe_scored(machine, noise).hit
    }

    /// [`observe`](Self::observe) as a confidence-scored [`Reading`]:
    /// the margin from the hit threshold is normalized against the
    /// memory latency. An untranslatable target yields
    /// [`Reading::none`].
    pub fn observe_scored(&self, machine: &mut Machine, noise: &mut NoiseModel) -> Reading {
        let Ok(pa) =
            machine
                .page_table()
                .translate(self.target, AccessKind::Execute, PrivilegeLevel::User)
        else {
            return Reading::none();
        };
        let (_, latency) = machine.caches_mut().access_inst(pa.raw());
        machine.add_cycles(latency);
        let cfg = *machine.caches().config();
        let threshold = cfg.l1_latency + cfg.l2_latency + noise.jitter_cycles;
        Reading::classify(noise.jitter(latency), threshold, cfg.memory_latency)
    }
}

/// The Instruction Decode observation channel (µop-cache counters).
#[derive(Debug, Clone, Copy)]
pub struct IdChannel {
    series_start: VirtAddr,
}

impl IdChannel {
    /// Install the priming jmp-series: [`JMP_SERIES_LEN`] direct forward
    /// jumps at `series_base + i*4096 + page_offset`, each jumping to the
    /// next, ending in `hlt`. All series instructions map to the
    /// µop-cache set selected by `page_offset` (bits \[11:6\]).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError`] if mapping or assembly fails.
    pub fn install(
        machine: &mut Machine,
        series_base: VirtAddr,
        page_offset: u64,
    ) -> Result<IdChannel, ChannelError> {
        if !series_base.is_aligned(4096) {
            return Err(ChannelError("series base must be page aligned".into()));
        }
        if page_offset >= 4096 - 64 {
            return Err(ChannelError(
                "page offset must leave room for a jump".into(),
            ));
        }
        let mut a = Assembler::new(series_base.raw() + page_offset);
        for i in 0..JMP_SERIES_LEN {
            a.label(format!("j{i}"));
            a.jmp(format!("j{}", i + 1));
            // Jump lands 4096 bytes ahead at the same page offset.
            a.org(series_base.raw() + (i as u64 + 1) * 4096 + page_offset);
        }
        a.label(format!("j{JMP_SERIES_LEN}"));
        a.push(Inst::Halt);
        let blob = a.finish().map_err(|e| ChannelError(e.to_string()))?;
        machine
            .load_blob(&blob, PageFlags::USER_TEXT)
            .map_err(|e| ChannelError(e.to_string()))?;
        Ok(IdChannel {
            series_start: VirtAddr::new(series_base.raw() + page_offset),
        })
    }

    /// The µop-cache set this channel monitors.
    #[cfg(test)]
    pub fn set(&self) -> usize {
        phantom_cache::CacheGeometry::uop_cache().set_index(self.series_start.raw())
    }

    fn run_series(machine: &mut Machine, start: VirtAddr) -> (u64, u64) {
        let before = machine.pmu().snapshot();
        machine.set_pc(start);
        // The series is the channel's own mapped code: direct jumps
        // ending in `hlt`, which runs within its step budget.
        #[allow(clippy::expect_used)]
        machine
            .run(2 * JMP_SERIES_LEN as u64 + 4)
            .expect("series runs to hlt");
        (
            before.delta(machine.pmu(), Event::OpCacheHit),
            before.delta(machine.pmu(), Event::OpCacheMiss),
        )
    }

    /// Prime: execute the series until its lines occupy the monitored
    /// set (two passes settle replacement and train the series' own
    /// branches).
    pub fn prime(&self, machine: &mut Machine) {
        for _ in 0..2 {
            Self::run_series(machine, self.series_start);
        }
    }

    /// Sample: re-execute the series and return `(op-cache hits,
    /// op-cache misses)` for the pass. After [`IdChannel::prime`], all
    /// eight dispatches hit; a miss means a phantom decode evicted a
    /// way.
    pub fn sample(&self, machine: &mut Machine) -> (u64, u64) {
        Self::run_series(machine, self.series_start)
    }
}

/// The alternative transient-execution observation channel of §5.1:
/// port contention. "While observing execution port contention is
/// possible, the signal is less reliable than observing memory access."
///
/// Modeled through the `wrong_path_uops` performance counter (execution
/// ports occupied by squashed µops), sampled before/after the victim —
/// the same sampling discipline as the ID channel. Unlike [`ExChannel`],
/// this fires for *any* wrong-path dispatch, loads or not.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub struct PortChannel {
    armed: Option<phantom_cache::perf::PerfSnapshot>,
}

#[cfg(test)]
impl PortChannel {
    /// A fresh, unarmed channel.
    pub fn new() -> PortChannel {
        PortChannel::default()
    }

    /// Arm: snapshot the counter before the victim runs.
    pub fn arm(&mut self, machine: &Machine) {
        self.armed = Some(machine.pmu().snapshot());
    }

    /// Observe: how many wrong-path µops dispatched since arming.
    ///
    /// # Panics
    ///
    /// Panics if the channel was never armed (a harness bug).
    pub fn observe(&self, machine: &Machine) -> u64 {
        // Documented above: observing an unarmed channel is a harness
        // bug.
        #[allow(clippy::expect_used)]
        let snap = self
            .armed
            .expect("PortChannel must be armed before observing");
        snap.delta(machine.pmu(), Event::WrongPathUops)
    }
}

/// The transient-execution observation channel (D-cache timing).
#[derive(Debug, Clone, Copy)]
pub struct ExChannel {
    probe: VirtAddr,
}

impl ExChannel {
    /// Observe wrong-path loads of the line containing `probe` (a
    /// user-readable data address the phantom target's load touches).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError`] if the probe page cannot be mapped.
    pub fn install(machine: &mut Machine, probe: VirtAddr) -> Result<ExChannel, ChannelError> {
        machine
            .map_range(probe, 64, PageFlags::USER_DATA)
            .map_err(|e| ChannelError(e.to_string()))?;
        Ok(ExChannel { probe })
    }

    /// Arm: flush the probe line.
    pub fn arm(&self, machine: &mut Machine) {
        phantom_sidechannel::flush(machine, self.probe);
    }

    /// Probe: time a reload. `true` means the wrong path loaded it.
    pub fn observe(&self, machine: &mut Machine, noise: &mut NoiseModel) -> bool {
        self.observe_scored(machine, noise).hit
    }

    /// [`observe`](Self::observe) as a confidence-scored [`Reading`].
    pub fn observe_scored(&self, machine: &mut Machine, noise: &mut NoiseModel) -> Reading {
        let latency = phantom_sidechannel::reload(machine, self.probe, noise);
        let cfg = *machine.caches().config();
        let threshold = cfg.l1_latency + cfg.l2_latency + noise.jitter_cycles;
        Reading::classify(latency, threshold, cfg.memory_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_isa::encode::encode_all;
    use phantom_isa::Reg;
    use phantom_pipeline::UarchProfile;

    #[test]
    fn if_channel_distinguishes_fetched_from_cold() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let mut noise = NoiseModel::quiet(0);
        let target = VirtAddr::new(0x30_0b40);
        m.map_range(target, 64, PageFlags::USER_TEXT).unwrap();
        let ch = IfChannel::new(target);
        ch.arm(&mut m);
        assert!(!ch.observe(&mut m, &mut noise), "cold line");
        // A fetch of the line (as a phantom path would do)…
        let pa = m
            .page_table()
            .translate(target, AccessKind::Execute, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_inst(pa.raw());
        // Flush-and-refetch cycle: arm() then fetch then observe.
        ch.arm(&mut m);
        m.caches_mut().access_inst(pa.raw());
        assert!(ch.observe(&mut m, &mut noise), "fetched line is fast");
    }

    #[test]
    fn id_channel_sees_a_phantom_decode_in_its_set() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 26);
        let ch = IdChannel::install(&mut m, VirtAddr::new(0x70_0000), 0xac0).unwrap();
        ch.prime(&mut m);
        let (hits, misses) = ch.sample(&mut m);
        assert_eq!(misses, 0, "primed series all hits");
        assert!(hits >= JMP_SERIES_LEN as u64);
        // Simulate a phantom decode into the same set: fill a line at an
        // aliasing address (what run_transient does).
        ch.prime(&mut m);
        m.uop_cache_mut().fill(0xdead_0ac0);
        let (_, misses) = ch.sample(&mut m);
        assert!(misses >= 1, "eviction visible as op-cache miss");
        // A decode into a DIFFERENT set is invisible.
        ch.prime(&mut m);
        m.uop_cache_mut().fill(0xdead_0b00);
        let (_, misses) = ch.sample(&mut m);
        assert_eq!(misses, 0);
    }

    #[test]
    fn ex_channel_detects_wrong_path_loads() {
        let mut m = Machine::new(UarchProfile::zen1(), 1 << 24);
        let mut noise = NoiseModel::quiet(0);
        let probe = VirtAddr::new(0x60_0000);
        let ch = ExChannel::install(&mut m, probe).unwrap();
        ch.arm(&mut m);
        assert!(!ch.observe(&mut m, &mut noise));
        // A load (as a dispatched wrong-path load would).
        ch.arm(&mut m);
        let pa = m
            .page_table()
            .translate(probe, AccessKind::Read, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_data(pa.raw());
        assert!(ch.observe(&mut m, &mut noise));
    }

    #[test]
    fn scored_observation_grades_the_boolean() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let mut noise = NoiseModel::quiet(0);
        let target = VirtAddr::new(0x31_0b80);
        m.map_range(target, 64, PageFlags::USER_TEXT).unwrap();
        let ch = IfChannel::new(target);
        ch.arm(&mut m);
        let cold = ch.observe_scored(&mut m, &mut noise);
        assert!(!cold.hit);
        assert!(cold.confidence.value() > 0.0, "{cold:?}");
        let pa = m
            .page_table()
            .translate(target, AccessKind::Execute, PrivilegeLevel::User)
            .unwrap();
        ch.arm(&mut m);
        m.caches_mut().access_inst(pa.raw());
        let warm = ch.observe_scored(&mut m, &mut noise);
        assert!(warm.hit);
        assert!(warm.confidence.value() > 0.0, "{warm:?}");
        // An unmapped target carries no information.
        let none = IfChannel::new(VirtAddr::new(0xdead_0000)).observe_scored(&mut m, &mut noise);
        assert_eq!(none, Reading::none());
    }

    #[test]
    fn id_channel_rejects_bad_layout() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        assert!(IdChannel::install(&mut m, VirtAddr::new(0x70_0001), 0xac0).is_err());
        assert!(IdChannel::install(&mut m, VirtAddr::new(0x70_0000), 0xfe0).is_err());
    }

    #[test]
    fn id_channel_set_matches_page_offset() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 26);
        let ch = IdChannel::install(&mut m, VirtAddr::new(0x72_0000), 0xac0).unwrap();
        assert_eq!(ch.set(), (0xac0 >> 6) & 63);
        assert_eq!(ch.series_start.raw() & 0xfff, 0xac0);
    }

    #[test]
    fn port_channel_counts_wrong_path_dispatch() {
        // Build the standard phantom scenario on Zen 2 (executes) and
        // Zen 4 (squashes): the port channel separates them without any
        // cache probing.
        for (profile, expect_uops) in [(UarchProfile::zen2(), true), (UarchProfile::zen4(), false)]
        {
            let name = profile.name.clone();
            let mut m = Machine::new(profile, 1 << 24);
            let text = PageFlags::USER_TEXT | PageFlags::WRITE;
            let x = VirtAddr::new(0x40_0ac0);
            let c = VirtAddr::new(0x48_0b40);
            m.map_range(x.page_base(), 0x1000, text).unwrap();
            m.map_range(c.page_base(), 0x1000, text).unwrap();
            m.map_range(VirtAddr::new(0x60_0000), 64, PageFlags::USER_DATA)
                .unwrap();
            m.set_reg(Reg::R8, 0x60_0000);
            let load = Inst::Load {
                dst: Reg::R9,
                base: Reg::R8,
                disp: 0,
            };
            m.poke(c, &encode_all(&[load, Inst::Halt]).unwrap());
            m.poke(
                x,
                &encode_all(&[Inst::JmpInd { src: Reg::R11 }, Inst::Halt]).unwrap(),
            );
            m.set_reg(Reg::R11, c.raw());
            m.set_pc(x);
            m.run(8).unwrap();
            m.poke(x, &encode_all(&[Inst::Nop, Inst::Nop, Inst::Halt]).unwrap());

            let mut port = PortChannel::new();
            port.arm(&m);
            m.set_pc(x);
            m.run(8).unwrap();
            let uops = port.observe(&m);
            assert_eq!(uops > 0, expect_uops, "{name}: {uops} wrong-path uops");
        }
    }
}
