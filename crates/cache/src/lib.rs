//! Cache models for the Phantom reproduction.
//!
//! Phantom's observation channels (paper §5.1, Figure 3) are built on
//! three microarchitectural structures, all modeled here:
//!
//! 1. the **instruction cache** — transient *fetch* of a phantom target
//!    fills an I-cache line, observable with Prime+Probe/timing;
//! 2. the **µop cache** — transient *decode* fills µop-cache ways,
//!    observable via performance-counter deltas;
//! 3. the **data cache** — transient *execution* of a load fills a D-cache
//!    line, observable with Prime+Probe or Flush+Reload.
//!
//! The [`SetAssocCache`] model is generic over geometry and replacement
//! policy; [`CacheHierarchy`] wires L1I/L1D and an inclusive L2 together
//! with hit/miss latencies; [`UopCache`] models the 64-set, 8-way
//! decoded-µop cache the paper reverse engineered ("always 64 8-way sets,
//! selected by the lower 12 bits of the instruction's virtual address");
//! [`perf::PerfCounters`] provides the counters used by the ID channel.
//!
//! # Examples
//!
//! ```
//! use phantom_cache::{CacheGeometry, Replacement, SetAssocCache};
//!
//! let mut l1 = SetAssocCache::new(CacheGeometry::l1(), Replacement::Lru);
//! assert!(!l1.access(0x1000).hit);
//! assert!(l1.access(0x1000).hit); // second touch hits
//! l1.flush_line(0x1000);
//! assert!(!l1.probe(0x1000));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod geometry;
pub mod hierarchy;
pub mod perf;
pub mod setassoc;
pub mod uopcache;

pub use geometry::CacheGeometry;
pub use hierarchy::{CacheHierarchy, HierarchyConfig, Level};
pub use perf::{Event, PerfCounters};
pub use setassoc::{AccessOutcome, Replacement, SetAssocCache};
pub use uopcache::UopCache;

#[cfg(test)]
mod nested_model;
#[cfg(test)]
mod proptests;
