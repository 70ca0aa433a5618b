//! A compact, x86-like instruction set for the Phantom reproduction.
//!
//! Phantom attacks hinge on *decoder-detectable mispredictions*: the branch
//! predictor claims an instruction is a branch of some type, and only the
//! decode stage — by actually parsing the raw bytes — can discover the
//! mismatch. For that story to be faithful, the simulated CPU must fetch
//! *bytes* and decode them. This crate provides:
//!
//! * [`Inst`] — the instruction table (branches, loads, stores, ALU,
//!   fences, nop sleds, …): one row per instruction gives its opcode,
//!   operand layout, [`BranchKind`] and text,
//! * [`encode`](encode::encode_into) / [`decode`](decode::decode) — a
//!   byte-true variable-length encoding, total on arbitrary byte input
//!   (unknown bytes decode to [`Inst::Invalid`], as on real hardware where
//!   any byte sequence decodes to *something* or faults),
//! * [`asm::Assembler`] — a tiny two-pass assembler with labels
//!   for building the code blobs used by experiments and the simulated
//!   kernel.
//!
//! # Examples
//!
//! ```
//! use phantom_isa::{asm::Assembler, Inst, Reg};
//!
//! let mut a = Assembler::new(0x1000);
//! a.label("top");
//! a.push(Inst::MovImm { dst: Reg::R1, imm: 42 });
//! a.jmp("top");
//! let blob = a.finish().expect("labels resolve");
//! let (inst, len) = phantom_isa::decode::decode(&blob.bytes).expect("non-empty");
//! assert_eq!(inst, Inst::MovImm { dst: Reg::R1, imm: 42 });
//! assert_eq!(len, 10);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod asm;
pub mod decode;
pub mod encode;
pub mod inst;
pub mod kind;
pub mod reg;
mod slot;

pub use asm::Assembler;
pub use inst::{Cond, Inst};
pub use kind::BranchKind;
pub use reg::Reg;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;
