//! Prime+Probe on the L1I, L1D and L2 caches.
//!
//! A probe pass has two halves. The machine half touches every way and
//! yields its raw latency ([`PrimeProbe::probe_latencies`]); the noise
//! half ([`ProbeScale::score`]) draws the pass's noise and classifies
//! those latencies. The live pass ([`PrimeProbe::probe_scored`]) runs
//! both interleaved, because a spurious eviction the noise rolls
//! flushes the way before it is touched. A pass that rolls none touches
//! the machine exactly as the machine half alone does, so its latencies
//! can be recorded once and scored again against any later noise stream.

use std::ops::Deref;

use phantom_cache::HierarchyConfig;
use phantom_mem::{AccessKind, PageFlags, PhysAddr, PrivilegeLevel, VirtAddr};
use phantom_pipeline::Machine;

use crate::noise::NoiseModel;
use crate::reading::Reading;

/// Which cache a [`PrimeProbe`] instance targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeLevel {
    /// L1 instruction cache (the §7.1 channel).
    L1I,
    /// L1 data cache.
    L1D,
    /// Unified L2 (the §7.2 channel; needs 2 MiB physically contiguous
    /// backing).
    L2,
}

/// Result of one probe pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResult {
    /// Total measured cycles over all ways.
    pub cycles: u64,
    /// How many primed ways were found evicted.
    pub evictions: usize,
}

/// The most ways one [`PrimeProbe`] spans. A probe keeps its lines
/// inline, so building or arming one allocates nothing. Every builtin
/// cache level has 8 ways; a wider level fails to build with a
/// [`BuildError`].
pub const MAX_PROBE_WAYS: usize = 32;

/// An eviction-set line and its physical address under the probe's
/// page-table version (`None`: it did not translate then).
type Line = (VirtAddr, Option<PhysAddr>);

/// Each way's raw latency from one probe pass, in probe order (the
/// reverse of prime order), before any noise: what
/// [`PrimeProbe::probe_latencies`] measures and [`ProbeScale::score`]
/// reads. Kept inline, like the probe's lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayLatencies {
    ways: usize,
    cycles: [u64; MAX_PROBE_WAYS],
}

impl Deref for WayLatencies {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.cycles[..self.ways]
    }
}

/// How a probe pass classifies one way's latency: above `hit_threshold`
/// the way was evicted. `span`, the gap between a resident line and one
/// refilled from the next level, normalizes margins into confidences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeScale {
    hit_threshold: u64,
    span: u64,
}

impl ProbeScale {
    /// The scale of a `level` probe on caches with `cfg`'s latencies,
    /// its hit boundary widened by `jitter_cycles` (the noise model's
    /// jitter amplitude).
    pub fn new(level: ProbeLevel, cfg: &HierarchyConfig, jitter_cycles: u64) -> ProbeScale {
        let (hit_threshold, span) = match level {
            // An evicted L1 line refills from L2: the hit/miss gap is
            // the L2 latency.
            ProbeLevel::L1I | ProbeLevel::L1D => (cfg.l1_latency + jitter_cycles, cfg.l2_latency),
            // Probing L2: a resident line costs at most an L1 miss + L2
            // hit; anything above that came from memory.
            ProbeLevel::L2 => (
                cfg.l1_latency + cfg.l2_latency + jitter_cycles,
                cfg.memory_latency,
            ),
        };
        ProbeScale {
            hit_threshold,
            span,
        }
    }

    /// Score one probe pass of `ways` ways, drawing from `noise` in the
    /// live pass's order. For each way, in probe order: the
    /// spurious-eviction roll; then `latency(way, spurious)`, the way's
    /// raw latency (after that eviction, if one was rolled); then its
    /// jitter; then, only above the hit boundary, the missed-signal
    /// roll. The live pass measures `latency` on the machine, a replay
    /// returns recorded latencies, and an `Err` ends the pass.
    ///
    /// The [`Reading`] covers the whole pass: `hit` means at least one
    /// eviction, the margin is the *weakest* per-way distance from the
    /// hit boundary, and the confidence normalizes that margin against
    /// the span.
    ///
    /// # Errors
    ///
    /// Returns the first error `latency` returns.
    pub fn score<E>(
        &self,
        noise: &mut NoiseModel,
        ways: usize,
        mut latency: impl FnMut(usize, bool) -> Result<u64, E>,
    ) -> Result<(ProbeResult, Reading), E> {
        let ProbeScale {
            hit_threshold,
            span,
        } = *self;
        let mut cycles = 0;
        let mut evictions = 0;
        let mut min_margin = u64::MAX;
        for way in 0..ways {
            // Noise: spurious pre-probe eviction of this way.
            let spurious = noise.rolls_spurious_evict();
            let mut latency = noise.jitter(latency(way, spurious)?);
            // Noise: a genuinely evicted way re-fetched before the probe
            // (prefetcher interference) reads back as a hit. The roll is
            // conditional on an eviction so quiet streams are untouched.
            if latency > hit_threshold && noise.rolls_missed_signal() {
                latency = hit_threshold;
            }
            cycles += latency;
            let margin = if latency > hit_threshold {
                evictions += 1;
                latency - hit_threshold
            } else {
                // A surviving line's distance from the eviction class:
                // how far below a refill-from-below it measured.
                (hit_threshold + span).saturating_sub(latency)
            };
            min_margin = min_margin.min(margin);
        }
        let margin = if min_margin == u64::MAX {
            0
        } else {
            min_margin
        };
        let result = ProbeResult { cycles, evictions };
        let reading = Reading {
            hit: evictions > 0,
            cycles,
            margin,
            confidence: crate::reading::Confidence::from_margin(margin, span),
        };
        Ok((result, reading))
    }
}

/// A Prime+Probe eviction set for one cache set.
///
/// Construction maps attacker memory; `prime` fills the target set with
/// attacker lines; `probe` re-touches them, counting evictions by
/// latency. The probe re-primes as a side effect (touching reloads the
/// lines), matching how the loop is used in practice.
///
/// Construction (and [`ProbeArena::arm`]) also translates every line
/// once. A touch reuses that physical address while the page table's
/// [`version`](phantom_mem::PageTable::version) is the one it was
/// resolved under, which proves the translation unchanged, and walks
/// the table again otherwise, so a line unmapped since still fails with
/// [`ProbeError`].
#[derive(Debug, Clone)]
pub struct PrimeProbe {
    level: ProbeLevel,
    /// The first `ways` slots: each line, in prime order, and its
    /// physical address under page-table version `version`.
    lines: [Line; MAX_PROBE_WAYS],
    ways: usize,
    version: u64,
}

/// The translation every probe touch makes: a user read.
fn translate_line(machine: &Machine, va: VirtAddr) -> Result<PhysAddr, ProbeError> {
    machine
        .page_table()
        .translate(va, AccessKind::Read, PrivilegeLevel::User)
        .map_err(|e| ProbeError {
            line: va,
            reason: e.to_string(),
        })
}

/// Error from eviction-set construction.
#[derive(Debug)]
pub struct BuildError(pub String);

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "prime+probe construction failed: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// Refuse an eviction set wider than a probe holds.
fn check_ways(ways: usize) -> Result<(), BuildError> {
    if ways > MAX_PROBE_WAYS {
        return Err(BuildError(format!(
            "{ways} ways exceed the {MAX_PROBE_WAYS} a probe holds"
        )));
    }
    Ok(())
}

/// Recoverable error from a prime or probe pass: an eviction-set line
/// became unmeasurable mid-run (the victim workload unmapped its page).
/// The trial that hit it can be retried from fresh state instead of
/// aborting the whole experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeError {
    /// The eviction-set line that could not be measured.
    pub line: VirtAddr,
    /// Why the measurement failed.
    pub reason: String,
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "eviction-set line {} unmeasurable: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ProbeError {}

impl PrimeProbe {
    /// Build an L1I eviction set for `set` using pages at
    /// `attacker_base` (mapped user-executable).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if mapping fails or the set index is out
    /// of range.
    pub fn new_l1i(
        machine: &mut Machine,
        attacker_base: VirtAddr,
        set: usize,
    ) -> Result<PrimeProbe, BuildError> {
        Self::new_l1(machine, attacker_base, set, ProbeLevel::L1I)
    }

    /// Build an L1D eviction set for `set` using pages at
    /// `attacker_base` (mapped user-writable).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if mapping fails or the set index is out
    /// of range.
    pub fn new_l1d(
        machine: &mut Machine,
        attacker_base: VirtAddr,
        set: usize,
    ) -> Result<PrimeProbe, BuildError> {
        Self::new_l1(machine, attacker_base, set, ProbeLevel::L1D)
    }

    fn new_l1(
        machine: &mut Machine,
        attacker_base: VirtAddr,
        set: usize,
        level: ProbeLevel,
    ) -> Result<PrimeProbe, BuildError> {
        let geometry = match level {
            ProbeLevel::L1I => machine.caches().config().l1i,
            ProbeLevel::L1D => machine.caches().config().l1d,
            ProbeLevel::L2 => unreachable!(),
        };
        if set >= geometry.sets {
            return Err(BuildError(format!("set {set} out of range")));
        }
        if !attacker_base.is_aligned(4096) {
            return Err(BuildError("attacker base must be page aligned".into()));
        }
        check_ways(geometry.ways)?;
        let flags = match level {
            ProbeLevel::L1I => PageFlags::USER_TEXT,
            _ => PageFlags::USER_DATA,
        };
        // One page per way; the in-page offset selects the set (VIPT:
        // VA bits [11:6] == PA bits [11:6] for 4 KiB pages).
        let mut mapped_here = Vec::new();
        for way in 0..geometry.ways {
            let page = attacker_base + (way as u64) * 4096;
            let fresh = machine.page_table().flags_of(page).is_none();
            if let Err(e) = machine.map_range(page, 4096, flags) {
                // Unwind the pages *this* construction mapped (and only
                // those — pre-mapped arena pages the loop no-op'd over
                // belong to the caller), so a failed build does not leak
                // a partial probe buffer into the address space.
                for &leaked in &mapped_here {
                    machine.unmap_range(leaked, 4096);
                }
                return Err(BuildError(e.to_string()));
            }
            if fresh {
                mapped_here.push(page);
            }
        }
        let lines = (0..geometry.ways).map(|way| {
            attacker_base + (way as u64) * 4096 + (set as u64) * geometry.line_size as u64
        });
        PrimeProbe::resolved(machine, level, lines)
    }

    /// The probe over `lines`, each translated once against the current
    /// page table.
    fn resolved(
        machine: &Machine,
        level: ProbeLevel,
        lines: impl ExactSizeIterator<Item = VirtAddr>,
    ) -> Result<PrimeProbe, BuildError> {
        check_ways(lines.len())?;
        let mut probe = PrimeProbe {
            level,
            lines: [(VirtAddr::new(0), None); MAX_PROBE_WAYS],
            ways: lines.len(),
            version: machine.page_table().version(),
        };
        for (slot, va) in probe.lines.iter_mut().zip(lines) {
            *slot = (va, translate_line(machine, va).ok());
        }
        Ok(probe)
    }

    /// The armed lines, in prime order.
    fn armed(&self) -> &[Line] {
        &self.lines[..self.ways]
    }

    /// Build an L2 eviction set for `set` over a 2 MiB huge page at
    /// `huge_base` (mapped user-writable with physically contiguous
    /// backing, like a transparent huge page).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the huge page cannot be allocated.
    #[cfg(test)]
    pub fn new_l2(
        machine: &mut Machine,
        huge_base: VirtAddr,
        set: usize,
    ) -> Result<PrimeProbe, BuildError> {
        let geometry = machine.caches().config().l2;
        if set >= geometry.sets {
            return Err(BuildError(format!("set {set} out of range")));
        }
        if !huge_base.is_aligned(2 * 1024 * 1024) {
            return Err(BuildError("huge base must be 2 MiB aligned".into()));
        }
        if machine
            .page_table()
            .translate(huge_base, AccessKind::Read, PrivilegeLevel::User)
            .is_err()
        {
            let frame = machine
                .phys_mut()
                .alloc_huge()
                .map_err(|e| BuildError(e.to_string()))?;
            machine
                .page_table_mut()
                .map_2m(huge_base, frame, PageFlags::USER_DATA);
        }
        // Lines with the same L2 set repeat every sets*line bytes of
        // physical address; a 2 MiB huge page gives the attacker control
        // of PA bits [20:0], enough for ways * stride.
        let stride = (geometry.sets * geometry.line_size) as u64;
        if stride * geometry.ways as u64 > 2 * 1024 * 1024 {
            return Err(BuildError("L2 too large for one huge page".into()));
        }
        let lines = (0..geometry.ways)
            .map(|w| huge_base + w as u64 * stride + (set as u64) * geometry.line_size as u64);
        PrimeProbe::resolved(machine, ProbeLevel::L2, lines)
    }

    /// The targeted cache.
    #[cfg(test)]
    pub fn level(&self) -> ProbeLevel {
        self.level
    }

    /// The eviction-set line addresses, in prime order.
    #[cfg(test)]
    pub fn lines(&self) -> impl ExactSizeIterator<Item = VirtAddr> + '_ {
        self.armed().iter().map(|&(va, _)| va)
    }

    /// The physical address of `line`: the one resolved at construction
    /// while the page table is unchanged since, else a fresh walk.
    fn phys(&self, machine: &Machine, line: Line) -> Result<PhysAddr, ProbeError> {
        match line {
            (_, Some(pa)) if machine.page_table().version() == self.version => Ok(pa),
            (va, _) => translate_line(machine, va),
        }
    }

    /// Test oracle: this probe with no resolved addresses, so every
    /// touch walks the page table (the implementation before the
    /// addresses were cached).
    #[cfg(test)]
    pub(crate) fn walking(&self) -> PrimeProbe {
        let mut walking = self.clone();
        for line in &mut walking.lines {
            line.1 = None;
        }
        walking
    }

    fn touch(&self, machine: &mut Machine, line: Line) -> Result<u64, ProbeError> {
        let pa = self.phys(machine, line)?;
        let (_, latency) = match self.level {
            ProbeLevel::L1I => machine.caches_mut().access_inst(pa.raw()),
            ProbeLevel::L1D | ProbeLevel::L2 => machine.caches_mut().access_data(pa.raw()),
        };
        machine.add_cycles(latency);
        Ok(latency)
    }

    /// Fill the set with attacker lines.
    ///
    /// # Errors
    ///
    /// Returns a [`ProbeError`] if an eviction-set page was unmapped
    /// out from under the set (the trial is retryable from fresh
    /// state).
    pub fn prime(&self, machine: &mut Machine) -> Result<(), ProbeError> {
        // Two passes settle LRU state.
        for _ in 0..2 {
            for &line in self.armed() {
                self.touch(machine, line)?;
            }
        }
        Ok(())
    }

    /// Measure: re-touch every line, classifying each as evicted when
    /// its (jittered) latency exceeds the L1/L2 hit boundary.
    ///
    /// # Errors
    ///
    /// Returns a [`ProbeError`] if an eviction-set page was unmapped
    /// mid-run — recoverable, so the runner can retry the trial instead
    /// of crashing.
    pub fn probe(
        &self,
        machine: &mut Machine,
        noise: &mut NoiseModel,
    ) -> Result<ProbeResult, ProbeError> {
        Ok(self.probe_scored(machine, noise)?.0)
    }

    /// [`probe`](Self::probe), plus a confidence-scored [`Reading`] for
    /// the whole pass (see [`ProbeScale::score`]): the live pass, whose
    /// noise flushes each way it rolls a spurious eviction for before
    /// touching it.
    ///
    /// # Errors
    ///
    /// Returns a [`ProbeError`] if an eviction-set page was unmapped
    /// mid-run.
    pub fn probe_scored(
        &self,
        machine: &mut Machine,
        noise: &mut NoiseModel,
    ) -> Result<(ProbeResult, Reading), ProbeError> {
        let scale = ProbeScale::new(self.level, machine.caches().config(), noise.jitter_cycles);
        let lines = self.armed();
        // Probe in reverse traversal order: under LRU, probing in prime
        // order cascades (each refill evicts the next line to probe and a
        // single victim access reads as a whole-set eviction). Reverse
        // traversal refreshes surviving lines before reaching the victim
        // slot, so exactly the displaced ways read as misses.
        scale.score(noise, lines.len(), |way, spurious| {
            let line = lines[lines.len() - 1 - way];
            if spurious {
                let pa = self.phys(machine, line)?;
                machine.caches_mut().flush_line(pa.raw());
            }
            self.touch(machine, line)
        })
    }

    /// The machine half of a probe pass: touch every way in probe order
    /// (as [`probe_scored`](Self::probe_scored) does) and return each
    /// raw latency, with no noise drawn and no line flushed. A live pass
    /// whose noise rolls no spurious eviction leaves the machine exactly
    /// as this does, and [`ProbeScale::score`] over these latencies with
    /// that pass's noise gives that pass's result.
    ///
    /// # Errors
    ///
    /// Returns a [`ProbeError`] if an eviction-set page was unmapped
    /// mid-run.
    pub fn probe_latencies(&self, machine: &mut Machine) -> Result<WayLatencies, ProbeError> {
        let mut latencies = WayLatencies {
            ways: self.ways,
            cycles: [0; MAX_PROBE_WAYS],
        };
        for (slot, &line) in latencies.cycles.iter_mut().zip(self.armed().iter().rev()) {
            *slot = self.touch(machine, line)?;
        }
        Ok(latencies)
    }

    /// Test oracle: the live pass as one loop, before it was split into
    /// a machine half and a noise half.
    #[cfg(test)]
    pub(crate) fn probe_scored_unsplit(
        &self,
        machine: &mut Machine,
        noise: &mut NoiseModel,
    ) -> Result<(ProbeResult, Reading), ProbeError> {
        let cfg = *machine.caches().config();
        let (hit_threshold, span) = match self.level {
            ProbeLevel::L1I | ProbeLevel::L1D => {
                (cfg.l1_latency + noise.jitter_cycles, cfg.l2_latency)
            }
            ProbeLevel::L2 => (
                cfg.l1_latency + cfg.l2_latency + noise.jitter_cycles,
                cfg.memory_latency,
            ),
        };
        let mut cycles = 0;
        let mut evictions = 0;
        let mut min_margin = u64::MAX;
        for &line in self.armed().iter().rev() {
            if noise.rolls_spurious_evict() {
                let pa = self.phys(machine, line)?;
                machine.caches_mut().flush_line(pa.raw());
            }
            let mut latency = noise.jitter(self.touch(machine, line)?);
            if latency > hit_threshold && noise.rolls_missed_signal() {
                latency = hit_threshold;
            }
            cycles += latency;
            let margin = if latency > hit_threshold {
                evictions += 1;
                latency - hit_threshold
            } else {
                (hit_threshold + span).saturating_sub(latency)
            };
            min_margin = min_margin.min(margin);
        }
        let margin = if min_margin == u64::MAX {
            0
        } else {
            min_margin
        };
        Ok((
            ProbeResult { cycles, evictions },
            Reading {
                hit: evictions > 0,
                cycles,
                margin,
                confidence: crate::reading::Confidence::from_margin(margin, span),
            },
        ))
    }
}

/// A persistent probe arena: the attacker pages an L1 eviction set
/// lives in, mapped **once** (typically before a checkpoint is taken)
/// and re-armed in place every trial.
///
/// [`PrimeProbe::new_l1i`]/[`new_l1d`](PrimeProbe::new_l1d) walk
/// `map_range` over every way page on each construction; with the
/// arena's pages already mapped those walks are pure no-ops, so
/// [`arm`](ProbeArena::arm) skips them entirely and just lays the
/// eviction set out over the standing mapping. Because `map_range` over
/// an identically-flagged mapped page charges no cycles, bumps no
/// page-table version and allocates no frame, an armed probe is
/// byte-identical to a freshly constructed one — the arena removes host
/// work only.
///
/// The descriptor is `Copy`: it holds addresses and geometry, never
/// machine state, so it can ride in a config struct across forks while
/// the mapping itself lives in the (checkpointed) machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeArena {
    level: ProbeLevel,
    base: VirtAddr,
    ways: usize,
    sets: usize,
    line_size: usize,
}

impl ProbeArena {
    /// Map the arena for `level` at `base` (one page per way, same
    /// flags as the corresponding `PrimeProbe` constructor) and return
    /// its descriptor. Install before checkpointing so every fork
    /// inherits the standing mapping.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if `base` is unaligned or mapping fails;
    /// a failed install unwinds the pages it mapped.
    pub fn install(
        machine: &mut Machine,
        base: VirtAddr,
        level: ProbeLevel,
    ) -> Result<ProbeArena, BuildError> {
        let geometry = match level {
            ProbeLevel::L1I => machine.caches().config().l1i,
            ProbeLevel::L1D => machine.caches().config().l1d,
            ProbeLevel::L2 => {
                return Err(BuildError("L2 probes use huge pages, not arenas".into()))
            }
        };
        // Building set 0 maps exactly the arena pages (and unwinds them
        // if anything fails); the probe handle itself is discarded.
        PrimeProbe::new_l1(machine, base, 0, level)?;
        Ok(ProbeArena {
            level,
            base,
            ways: geometry.ways,
            sets: geometry.sets,
            line_size: geometry.line_size,
        })
    }

    /// The cache the arena's eviction sets target.
    pub fn level(&self) -> ProbeLevel {
        self.level
    }

    /// Re-arm: lay out the eviction set for `set` over the standing
    /// mapping, without touching the page table or the heap (the probe
    /// keeps its lines inline). Counts one re-arm on the machine's
    /// `probe_rearms` instrumentation counter.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if `set` is out of range or an arena page
    /// is no longer mapped (the arena must be re-installed — e.g. after
    /// rewinding past its install point).
    pub fn arm(&self, machine: &mut Machine, set: usize) -> Result<PrimeProbe, BuildError> {
        if set >= self.sets {
            return Err(BuildError(format!("set {set} out of range")));
        }
        let lines = (0..self.ways)
            .map(|way| self.base + (way as u64) * 4096 + (set as u64) * self.line_size as u64);
        let probe = PrimeProbe::resolved(machine, self.level, lines)?;
        // A line that translated lies on a mapped page; only the others
        // need the page looked up.
        for &(line, pa) in probe.armed() {
            if pa.is_none() && machine.page_table().flags_of(line).is_none() {
                return Err(BuildError(format!(
                    "arena page {} is not mapped (arena not installed?)",
                    line.page_base()
                )));
            }
        }
        machine.count_probe_rearm();
        Ok(probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_pipeline::UarchProfile;

    fn machine() -> Machine {
        Machine::new(UarchProfile::zen2(), 1 << 26)
    }

    #[test]
    fn unprobed_set_reports_no_evictions() {
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        let pp = PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0000), 5).unwrap();
        pp.prime(&mut m).unwrap();
        let r = pp.probe(&mut m, &mut noise).unwrap();
        assert_eq!(r.evictions, 0);
    }

    #[test]
    fn victim_access_to_the_set_is_detected() {
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        let set = 9;
        let pp = PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0000), set).unwrap();
        pp.prime(&mut m).unwrap();
        // "Victim": one access mapping to the same L1D set.
        let victim = VirtAddr::new(0x6000_0000 + set as u64 * 64);
        m.map_range(victim, 64, PageFlags::USER_DATA).unwrap();
        let pa = m
            .page_table()
            .translate(victim, AccessKind::Read, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_data(pa.raw());
        let r = pp.probe(&mut m, &mut noise).unwrap();
        assert_eq!(r.evictions, 1);
    }

    #[test]
    fn other_sets_are_unaffected() {
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        let pp = PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0000), 9).unwrap();
        pp.prime(&mut m).unwrap();
        // Victim touches a different set.
        let victim = VirtAddr::new(0x6000_0000 + 10 * 64);
        m.map_range(victim, 64, PageFlags::USER_DATA).unwrap();
        let pa = m
            .page_table()
            .translate(victim, AccessKind::Read, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_data(pa.raw());
        assert_eq!(pp.probe(&mut m, &mut noise).unwrap().evictions, 0);
    }

    #[test]
    fn l1i_channel_sees_instruction_fetches() {
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        let set = 43; // page offset 43*64 = 0xac0, the paper's favourite
        let pp = PrimeProbe::new_l1i(&mut m, VirtAddr::new(0x5000_0000), set).unwrap();
        pp.prime(&mut m).unwrap();
        let victim = VirtAddr::new(0x6000_0ac0);
        m.map_range(victim, 64, PageFlags::USER_TEXT).unwrap();
        let pa = m
            .page_table()
            .translate(victim, AccessKind::Execute, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_inst(pa.raw());
        assert_eq!(pp.probe(&mut m, &mut noise).unwrap().evictions, 1);
        // Data accesses to the same line do NOT evict L1I ways.
        pp.prime(&mut m).unwrap();
        m.caches_mut().access_data(pa.raw());
        assert_eq!(pp.probe(&mut m, &mut noise).unwrap().evictions, 0);
    }

    #[test]
    fn l2_channel_detects_misses_through_hugepage_sets() {
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        let set = 700;
        let pp = PrimeProbe::new_l2(&mut m, VirtAddr::new(0x4000_0000), set).unwrap();
        pp.prime(&mut m).unwrap();
        assert_eq!(pp.probe(&mut m, &mut noise).unwrap().evictions, 0);
        // Victim: 8 distinct-tag L2 accesses to the same set (enough to
        // evict at least one attacker way from the 8-way set).
        let g2 = m.caches().config().l2;
        for i in 0..8u64 {
            let pa = g2.compose(0x4_0000 + i, set);
            m.caches_mut().access_data(pa);
        }
        pp.prime(&mut m).unwrap(); // reset
        for i in 8..16u64 {
            let pa = g2.compose(0x4_0000 + i, set);
            m.caches_mut().access_data(pa);
        }
        let r = pp.probe(&mut m, &mut noise).unwrap();
        assert!(r.evictions > 0, "victim L2 pressure visible");
    }

    #[test]
    fn noise_produces_false_positives_at_the_configured_rate() {
        let mut m = machine();
        let mut noise = NoiseModel::realistic(3);
        let pp = PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0000), 2).unwrap();
        let mut false_pos = 0;
        let rounds = 300;
        for _ in 0..rounds {
            pp.prime(&mut m).unwrap();
            if pp.probe(&mut m, &mut noise).unwrap().evictions > 0 {
                false_pos += 1;
            }
        }
        assert!(false_pos > 0, "some spurious evictions expected");
        assert!(false_pos < rounds / 2, "but not a majority: {false_pos}");
    }

    #[test]
    fn unmapped_line_is_a_recoverable_error_not_a_panic() {
        // Regression: the victim unmapping an eviction-set page mid-run
        // used to abort the whole trial via `.expect(...)`.
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        let base = VirtAddr::new(0x5000_0000);
        let pp = PrimeProbe::new_l1d(&mut m, base, 5).unwrap();
        pp.prime(&mut m).unwrap();
        // "Victim workload" unmaps one of the attacker's pages.
        m.unmap_range(base, 4096);
        let err = pp.probe(&mut m, &mut noise).unwrap_err();
        assert_eq!(err.line, base + 5 * 64);
        assert!(pp.prime(&mut m).is_err(), "prime surfaces it too");
        // Remapping recovers: the set can be rebuilt and probed again.
        let pp = PrimeProbe::new_l1d(&mut m, base, 5).unwrap();
        pp.prime(&mut m).unwrap();
        assert_eq!(pp.probe(&mut m, &mut noise).unwrap().evictions, 0);
    }

    #[test]
    fn scored_probe_matches_probe_and_scores_margins() {
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        let set = 9;
        let pp = PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0000), set).unwrap();
        pp.prime(&mut m).unwrap();
        // Quiet, untouched set: full-confidence "no signal".
        let (r, reading) = pp.probe_scored(&mut m, &mut noise).unwrap();
        assert_eq!(r.evictions, 0);
        assert!(!reading.hit);
        assert_eq!(reading.cycles, r.cycles);
        let cfg = *m.caches().config();
        assert_eq!(reading.margin, cfg.l2_latency, "survivor margin = L2 gap");
        assert_eq!(reading.confidence, crate::reading::Confidence::FULL);
        // A victim touch: the eviction reads with full confidence too
        // (an L2 refill sits a whole L2 latency past the hit boundary).
        pp.prime(&mut m).unwrap();
        let victim = VirtAddr::new(0x6000_0000 + set as u64 * 64);
        m.map_range(victim, 64, PageFlags::USER_DATA).unwrap();
        let pa = m
            .page_table()
            .translate(victim, AccessKind::Read, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_data(pa.raw());
        let (r, reading) = pp.probe_scored(&mut m, &mut noise).unwrap();
        assert_eq!(r.evictions, 1);
        assert!(reading.hit);
        assert!(reading.margin > 0);
    }

    #[test]
    fn missed_signal_hides_real_evictions_at_the_configured_rate() {
        // The missed-signal knob must actually suppress detections: with
        // the rate at 1.0 every real eviction reads back as a hit.
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        noise.missed_signal = 1.0;
        let set = 9;
        let pp = PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0000), set).unwrap();
        pp.prime(&mut m).unwrap();
        let victim = VirtAddr::new(0x6000_0000 + set as u64 * 64);
        m.map_range(victim, 64, PageFlags::USER_DATA).unwrap();
        let pa = m
            .page_table()
            .translate(victim, AccessKind::Read, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_data(pa.raw());
        let r = pp.probe(&mut m, &mut noise).unwrap();
        assert_eq!(r.evictions, 0, "missed signal hides the eviction");
        // And with the knob off the same setup detects it.
        let mut quiet = NoiseModel::quiet(0);
        pp.prime(&mut m).unwrap();
        m.caches_mut().access_data(pa.raw());
        assert_eq!(pp.probe(&mut m, &mut quiet).unwrap().evictions, 1);
    }

    #[test]
    fn build_errors_on_bad_inputs() {
        let mut m = machine();
        assert!(PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0000), 999).is_err());
        assert!(PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0001), 0).is_err());
        assert!(PrimeProbe::new_l2(&mut m, VirtAddr::new(0x1000), 0).is_err());
    }

    #[test]
    fn a_cache_wider_than_a_probe_fails_to_build_and_maps_nothing() {
        let mut profile = UarchProfile::zen2();
        profile.cache.l1d = phantom_cache::CacheGeometry::new(1, MAX_PROBE_WAYS + 1, 64);
        let mut m = Machine::new(profile, 1 << 26);
        let base = VirtAddr::new(0x5000_0000);
        assert!(PrimeProbe::new_l1d(&mut m, base, 0).is_err());
        assert!(ProbeArena::install(&mut m, base, ProbeLevel::L1D).is_err());
        assert!(m.page_table().flags_of(base).is_none());
    }

    #[test]
    fn failed_build_unmaps_its_partial_probe_buffer() {
        // Regression: a mid-construction `map_range` failure used to
        // leave the already-mapped way pages behind.
        let mut m = machine();
        let base = VirtAddr::new(0x5000_0000);
        // Poison way 3 with conflicting flags so the build fails there.
        m.map_range(base + 3 * 4096, 4096, PageFlags::USER_DATA)
            .unwrap();
        assert!(PrimeProbe::new_l1i(&mut m, base, 5).is_err());
        for way in 0..3u64 {
            assert!(
                m.page_table().flags_of(base + way * 4096).is_none(),
                "way {way} page leaked by the failed build"
            );
        }
        // The page the build did not create is untouched.
        assert_eq!(
            m.page_table().flags_of(base + 3 * 4096),
            Some(PageFlags::USER_DATA)
        );
    }

    #[test]
    fn failed_build_keeps_preexisting_mappings() {
        // Pages that were already mapped compatibly (an installed
        // arena, say) belong to the caller: the unwind must not touch
        // them.
        let mut m = machine();
        let base = VirtAddr::new(0x5000_0000);
        m.map_range(base, 2 * 4096, PageFlags::USER_TEXT).unwrap();
        m.map_range(base + 3 * 4096, 4096, PageFlags::USER_DATA)
            .unwrap();
        assert!(PrimeProbe::new_l1i(&mut m, base, 5).is_err());
        for way in 0..2u64 {
            assert_eq!(
                m.page_table().flags_of(base + way * 4096),
                Some(PageFlags::USER_TEXT),
                "pre-existing way {way} page must survive the unwind"
            );
        }
        assert!(m.page_table().flags_of(base + 2 * 4096).is_none());
    }

    #[test]
    fn armed_probe_equals_a_fresh_construction() {
        let mut fresh = machine();
        let mut arena_m = machine();
        let base = VirtAddr::new(0x5000_0000);
        let arena = ProbeArena::install(&mut arena_m, base, ProbeLevel::L1I).unwrap();
        for set in [0usize, 9, 43] {
            let a = PrimeProbe::new_l1i(&mut fresh, base, set).unwrap();
            let b = arena.arm(&mut arena_m, set).unwrap();
            assert_eq!(a.level(), b.level());
            assert!(a.lines().eq(b.lines()));
        }
        assert_eq!(arena_m.probe_rearms(), 3);
        assert_eq!(fresh.probe_rearms(), 0);
    }

    #[test]
    fn armed_probe_detects_the_victim_like_a_fresh_one() {
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        let set = 9;
        let arena =
            ProbeArena::install(&mut m, VirtAddr::new(0x5000_0000), ProbeLevel::L1D).unwrap();
        let pp = arena.arm(&mut m, set).unwrap();
        pp.prime(&mut m).unwrap();
        let victim = VirtAddr::new(0x6000_0000 + set as u64 * 64);
        m.map_range(victim, 64, PageFlags::USER_DATA).unwrap();
        let pa = m
            .page_table()
            .translate(victim, AccessKind::Read, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_data(pa.raw());
        assert_eq!(pp.probe(&mut m, &mut noise).unwrap().evictions, 1);
    }

    #[test]
    fn arm_requires_the_standing_mapping() {
        let mut m = machine();
        let base = VirtAddr::new(0x5000_0000);
        let arena = ProbeArena::install(&mut m, base, ProbeLevel::L1D).unwrap();
        assert!(arena.arm(&mut m, 999).is_err(), "set out of range");
        m.unmap_range(base, 4096);
        assert!(arena.arm(&mut m, 0).is_err(), "arena page gone");
        // Arenas survive checkpoint rewinds taken after the install.
        let mut m = machine();
        let arena = ProbeArena::install(&mut m, base, ProbeLevel::L1D).unwrap();
        let snap = m.checkpoint();
        snap.rewind(&mut m);
        assert!(arena.arm(&mut m, 0).is_ok());
    }

    #[test]
    fn arena_rejects_l2() {
        let mut m = machine();
        assert!(ProbeArena::install(&mut m, VirtAddr::new(0x4000_0000), ProbeLevel::L2).is_err());
    }
}
