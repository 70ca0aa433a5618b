//! Performance counters.
//!
//! The ID observation channel (paper §5.1) samples µop-cache events such
//! as `de_dis_uops_from_decoder.opcache_dispatched` (Zen 2),
//! `op_cache_hit_miss.op_cache_hit` (Zen 3/4) and `idq.dsb_cycles`
//! (Intel). We model a small registry of named monotone counters that the
//! pipeline increments and experiments sample before/after a step.

use std::fmt;

/// A countable microarchitectural event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// µop-cache hit (`op_cache_hit_miss.op_cache_hit`).
    OpCacheHit,
    /// µop-cache miss (`op_cache_hit_miss.op_cache_miss`).
    OpCacheMiss,
    /// µops dispatched from the legacy decoder
    /// (`de_dis_uops_from_decoder`).
    UopsFromDecoder,
    /// µops dispatched from the µop cache
    /// (`de_dis_uops_from_decoder.opcache_dispatched` / `idq.dsb_uops`).
    UopsFromOpCache,
    /// Instruction-cache miss.
    IcacheMiss,
    /// Data-cache (L1D) miss.
    DcacheMiss,
    /// Unified L2 miss.
    L2Miss,
    /// Any branch misprediction detected (frontend or backend).
    BranchMispredict,
    /// Resteer issued by the decoder (decoder-detectable misprediction —
    /// the Phantom case).
    ResteerFrontend,
    /// Resteer issued at execute (the conventional Spectre case).
    ResteerBackend,
    /// Instructions retired.
    InstRetired,
    /// Cycles elapsed.
    Cycles,
    /// Loads dispatched to the memory subsystem (including squashed ones —
    /// "there is no mechanism to abort a dispatched memory request").
    LoadsDispatched,
    /// Wrong-path µops that dispatched to execution ports before a
    /// squash — the quantity behind port-contention observation (§5.1).
    WrongPathUops,
}

impl Event {
    /// All events, for iteration and display.
    pub const ALL: [Event; 14] = [
        Event::OpCacheHit,
        Event::OpCacheMiss,
        Event::UopsFromDecoder,
        Event::UopsFromOpCache,
        Event::IcacheMiss,
        Event::DcacheMiss,
        Event::L2Miss,
        Event::BranchMispredict,
        Event::ResteerFrontend,
        Event::ResteerBackend,
        Event::InstRetired,
        Event::Cycles,
        Event::LoadsDispatched,
        Event::WrongPathUops,
    ];

    fn index(self) -> usize {
        match self {
            Event::OpCacheHit => 0,
            Event::OpCacheMiss => 1,
            Event::UopsFromDecoder => 2,
            Event::UopsFromOpCache => 3,
            Event::IcacheMiss => 4,
            Event::DcacheMiss => 5,
            Event::L2Miss => 6,
            Event::BranchMispredict => 7,
            Event::ResteerFrontend => 8,
            Event::ResteerBackend => 9,
            Event::InstRetired => 10,
            Event::Cycles => 11,
            Event::LoadsDispatched => 12,
            Event::WrongPathUops => 13,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Event::OpCacheHit => "op_cache_hit_miss.op_cache_hit",
            Event::OpCacheMiss => "op_cache_hit_miss.op_cache_miss",
            Event::UopsFromDecoder => "de_dis_uops_from_decoder",
            Event::UopsFromOpCache => "de_dis_uops_from_decoder.opcache_dispatched",
            Event::IcacheMiss => "icache_miss",
            Event::DcacheMiss => "dcache_miss",
            Event::L2Miss => "l2_miss",
            Event::BranchMispredict => "branch_mispredict",
            Event::ResteerFrontend => "resteer.frontend",
            Event::ResteerBackend => "resteer.backend",
            Event::InstRetired => "inst_retired",
            Event::Cycles => "cycles",
            Event::LoadsDispatched => "loads_dispatched",
            Event::WrongPathUops => "wrong_path_uops",
        };
        f.write_str(s)
    }
}

/// A bank of monotone event counters with before/after sampling.
///
/// # Examples
///
/// ```
/// use phantom_cache::{Event, PerfCounters};
/// let mut pmu = PerfCounters::new();
/// let before = pmu.read(Event::OpCacheMiss);
/// pmu.add(Event::OpCacheMiss, 3);
/// assert_eq!(pmu.read(Event::OpCacheMiss) - before, 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfCounters {
    counts: [u64; 14],
}

impl PerfCounters {
    /// All counters zero.
    pub fn new() -> PerfCounters {
        PerfCounters::default()
    }

    /// Current value of `event`.
    pub fn read(&self, event: Event) -> u64 {
        self.counts[event.index()]
    }

    /// Add `n` occurrences of `event`.
    pub fn add(&mut self, event: Event, n: u64) {
        self.counts[event.index()] += n;
    }

    /// Add one occurrence of `event`.
    pub fn bump(&mut self, event: Event) {
        self.add(event, 1);
    }

    /// Snapshot all counters (for delta measurement around a step).
    pub fn snapshot(&self) -> PerfSnapshot {
        PerfSnapshot {
            counts: self.counts,
        }
    }

    /// Reset all counters to zero.
    #[cfg(test)]
    pub fn reset(&mut self) {
        self.counts = [0; 14];
    }
}

impl fmt::Display for PerfCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in Event::ALL {
            writeln!(f, "{e}: {}", self.read(e))?;
        }
        Ok(())
    }
}

/// A point-in-time copy of the counters; subtract from a later state to
/// get per-step deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfSnapshot {
    counts: [u64; 14],
}

impl PerfSnapshot {
    /// The delta of `event` between this snapshot and the current
    /// counters.
    pub fn delta(&self, now: &PerfCounters, event: Event) -> u64 {
        now.read(event) - self.counts[event.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_zero_and_accumulate() {
        let mut pmu = PerfCounters::new();
        for e in Event::ALL {
            assert_eq!(pmu.read(e), 0);
        }
        pmu.bump(Event::IcacheMiss);
        pmu.add(Event::IcacheMiss, 2);
        assert_eq!(pmu.read(Event::IcacheMiss), 3);
        assert_eq!(pmu.read(Event::DcacheMiss), 0);
    }

    #[test]
    fn snapshot_deltas() {
        let mut pmu = PerfCounters::new();
        pmu.add(Event::OpCacheHit, 10);
        let snap = pmu.snapshot();
        pmu.add(Event::OpCacheHit, 5);
        pmu.add(Event::OpCacheMiss, 2);
        assert_eq!(snap.delta(&pmu, Event::OpCacheHit), 5);
        assert_eq!(snap.delta(&pmu, Event::OpCacheMiss), 2);
    }

    #[test]
    fn reset_zeroes() {
        let mut pmu = PerfCounters::new();
        pmu.add(Event::Cycles, 100);
        pmu.reset();
        assert_eq!(pmu.read(Event::Cycles), 0);
    }

    #[test]
    fn event_names_match_vendor_counters() {
        assert_eq!(
            Event::UopsFromOpCache.to_string(),
            "de_dis_uops_from_decoder.opcache_dispatched"
        );
        assert_eq!(
            Event::OpCacheHit.to_string(),
            "op_cache_hit_miss.op_cache_hit"
        );
    }
}
