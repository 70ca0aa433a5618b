//! **Phantom: Exploiting Decoder-detectable Mispredictions** — a full
//! reproduction of the MICRO '23 paper on a simulated microarchitecture.
//!
//! Recent AMD and Intel CPUs consult the branch predictor *before the
//! current instruction is decoded*. The BTB — indexed purely by fetch
//! address — can claim that *any* instruction is a branch of any kind
//! going anywhere. The decoder eventually notices and resteers the
//! frontend, but by then the phantom target has been fetched
//! (observation O1), decoded (O2), and on Zen 1/2 even executed far
//! enough to dispatch one load (O3). This crate implements the paper's
//! pipeline:
//!
//! * [`channel`] — the §5.1 observation channels that detect how far a
//!   mispredicted path advanced: I-cache timing (IF), µop-cache
//!   performance counters (ID), D-cache probing (EX);
//! * [`experiment`] — the §5.2 training × victim sweep that generates
//!   **Table 1**, and the **Figure 6** µop-cache page-offset sweep;
//! * [`collide`] — §6.2: brute-force collision search (which fails on
//!   Zen 3, as in the paper) and the solver-driven recovery of the
//!   **Figure 7** cross-privilege BTB functions;
//! * [`primitives`] — the attacker primitives **P1** (detect mapped
//!   executable memory), **P2** (detect mapped non-executable memory)
//!   and **P3** (leak register values);
//! * [`covert`] — the §6.4 covert channels (**Table 2**);
//! * [`decode`] — the confidence-driven adaptive bit decoder the covert
//!   channels use to spend extra probes only on noisy bits;
//! * [`attacks`] — the §7 end-to-end exploits: kernel-image KASLR
//!   (**Table 3**), physmap KASLR (**Table 4**), physical-address
//!   derandomization (**Table 5**) and the MDS-gadget kernel leak
//!   (§7.4);
//! * [`mitigations`] — §6.3/§8: `SuppressBPOnNonBr` (O4), AutoIBRS
//!   (O5), IBPB, and the mitigation overhead measurement;
//! * [`spectre`] — the baseline: conventional Spectre-V2 and the
//!   window-width comparison the paper draws against it;
//! * [`gadgets`] — the §9.1 gadget-count comparison (Spectre vs
//!   MDS-style single-load gadgets);
//! * [`report`] — plain-text rendering of every table and figure.
//!
//! # Examples
//!
//! ```
//! use phantom::experiment::{run_combo, TrainKind, VictimKind};
//! use phantom_pipeline::UarchProfile;
//!
//! // A nop trained as an indirect branch: fetched and decoded on Zen 3,
//! // but not executed.
//! let outcome = run_combo(UarchProfile::zen3(), TrainKind::JmpInd, VictimKind::NonBranch, 0)?;
//! assert_eq!(outcome.stage(), "ID");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ablation;
pub mod attacks;
pub mod channel;
pub mod collide;
pub mod covert;
pub mod decode;
pub mod experiment;
pub mod gadgets;
pub mod mitigations;
pub mod primitives;
pub mod property;
pub mod report;
pub mod runner;
pub mod spectre;

pub use experiment::{run_combo, table1_on, Stage};
pub use phantom_pipeline::{IStr, SpecError, UarchProfile, UarchRegistry, UarchSpec};

/// Convenience re-exports for experiment and attack code.
///
/// ```
/// use phantom::prelude::*;
/// let o = run_combo(UarchProfile::zen2(), TrainKind::JmpInd, VictimKind::NonBranch, 0)?;
/// assert_eq!(o.stage(), "EX");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub mod prelude {
    pub use crate::attacks::{
        break_kaslr_image, break_physmap, find_physical_address, leak_kernel_memory,
        KaslrImageConfig, MdsLeakConfig, PhysAddrConfig, PhysmapConfig,
    };
    pub use crate::channel::{ExChannel, IdChannel, IfChannel};
    pub use crate::decode::{decode_adaptive, DecodeOutcome, Decoded, DecoderConfig};
    pub use crate::experiment::{run_combo, table1_on, Stage, TrainKind, VictimKind};
    pub use crate::primitives::{p1_detect_executable, p2_detect_mapped, PrimitiveConfig};
    pub use crate::UarchProfile;
    pub use phantom_kernel::System;
    pub use phantom_mem::VirtAddr;
    pub use phantom_sidechannel::NoiseModel;
}
