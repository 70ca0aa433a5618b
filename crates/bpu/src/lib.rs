//! Branch prediction unit for the Phantom reproduction.
//!
//! The paper's core mechanism: the BTB is consulted **before decode**,
//! keyed only by the fetch address, and serves three things the frontend
//! trusts blindly — whether a branch exists at an address, what *kind* of
//! branch it is, and where it goes. All three are attacker-trainable:
//!
//! * the **kind** stored is whatever instruction *trained* the entry
//!   ("the training instruction always determines the prediction
//!   semantics of the victim instruction", §5.2);
//! * **direct** targets are stored PC-relative, so an aliased victim at a
//!   different address is steered to a *shifted* target C′ (§5.2);
//! * the index/tag are XOR folds of address bits ([`hashfn`]), so
//!   attacker-chosen user addresses can **alias kernel addresses** —
//!   the Zen 3/4 fold family is the paper's Figure 7, reproduced by the
//!   solver in `phantom-gf2`.
//!
//! The crate also models the RSB (return target prediction), a
//! spec-driven conditional-branch predictor ([`cbp`] — set-indexed,
//! history-mixed direction counters whose index/tag hashes are GF(2)
//! folds just like the BTB's) and the mitigation MSRs
//! (`SuppressBPOnNonBr`, AutoIBRS, eIBRS, STIBP, IBPB) whose incomplete
//! coverage is the subject of §6.3 and §8.
//!
//! # Examples
//!
//! ```
//! use phantom_bpu::{Bpu, BtbScheme, CbpScheme, MsrState};
//! use phantom_isa::BranchKind;
//! use phantom_mem::{PrivilegeLevel, VirtAddr};
//!
//! let mut bpu = Bpu::with_schemes(BtbScheme::zen34(), CbpScheme::legacy(), MsrState::default());
//! // Train an indirect branch at A -> C.
//! bpu.train(
//!     VirtAddr::new(0x40_1000),
//!     BranchKind::Indirect,
//!     VirtAddr::new(0x40_8000),
//!     PrivilegeLevel::User,
//! );
//! // The victim at an aliasing address reuses the entry — even if the
//! // instruction there is not a branch at all.
//! let pred = bpu
//!     .predict_window(VirtAddr::new(0x40_1000), 32, PrivilegeLevel::User, 0)
//!     .expect("prediction served");
//! assert_eq!(pred.kind, BranchKind::Indirect);
//! assert_eq!(pred.target, Some(VirtAddr::new(0x40_8000)));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod btb;
pub mod cbp;
pub mod hashfn;
pub mod msr;
pub mod predict;
pub mod rsb;

pub use btb::{Btb, BtbEntry, BtbScheme};
pub use cbp::{Cbp, CbpScheme, MixedFold};
pub use hashfn::{parity_fold, FoldFamily, FoldFn, SignatureTable};
pub use msr::MsrState;
pub use predict::{Bpu, Prediction};
pub use rsb::Rsb;

#[cfg(test)]
mod proptests;
