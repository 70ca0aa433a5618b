//! Cache side channels on the simulated machine.
//!
//! The paper's observation channels and exploits rest on two classic
//! techniques, implemented here against the simulated hierarchy:
//!
//! * [`PrimeProbe`] — fill a cache set with attacker lines, let the
//!   victim run, re-measure; evictions mean the victim touched the set.
//!   Used on L1I for kernel-image KASLR (§7.1) and on L2 (with 2 MiB
//!   huge pages for physical contiguity) for physmap KASLR (§7.2);
//! * Flush+Reload ([`flush`], then [`reload`]) — flush a shared line, let
//!   the victim run, time a reload; fast means the victim touched it.
//!   Used once physmap is known (§7.4).
//!
//! Timing is the simulator's deterministic latency plus a seeded
//! [`NoiseModel`] (jitter + spurious evictions), so accuracy numbers
//! below 100% arise the same way they do on hardware — from measurement
//! noise — while staying reproducible. The §7.3 noise-overcoming score
//! is in [`score`].
//!
//! # Examples
//!
//! ```
//! use phantom_pipeline::{Machine, UarchProfile};
//! use phantom_sidechannel::{NoiseModel, PrimeProbe};
//! use phantom_mem::VirtAddr;
//!
//! let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
//! let mut noise = NoiseModel::quiet(7);
//! let pp = PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0000), 13)?;
//! pp.prime(&mut m)?;
//! let baseline = pp.probe(&mut m, &mut noise)?;
//! assert_eq!(baseline.evictions, 0, "nothing touched the set");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod flush_reload;
pub mod noise;
pub mod prime_probe;
pub mod reading;
pub mod score;

pub use flush_reload::{flush, reload};
pub use noise::NoiseModel;
pub use prime_probe::{
    BuildError, PrimeProbe, ProbeArena, ProbeError, ProbeLevel, ProbeResult, ProbeScale,
    WayLatencies,
};
pub use reading::{Confidence, Reading, VoteTally};
pub use score::{bounded_score, SCORE_CLAMP};

#[cfg(test)]
mod evict_time;
#[cfg(test)]
mod proptests;
#[cfg(test)]
mod threshold;
