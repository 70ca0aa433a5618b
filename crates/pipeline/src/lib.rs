//! A decoupled frontend/backend CPU pipeline simulator exhibiting
//! speculation **before instruction decode** — the mechanism behind
//! PHANTOM (MICRO '23).
//!
//! # Model
//!
//! Real hardware runs fetch, decode and execute as asynchronous modules
//! joined by queues (paper Figure 2). We simulate the *architectural*
//! instruction stream step by step and, at every step, resolve what the
//! frontend would have done **before decoding**: it queries the BTB with
//! nothing but the fetch address. If the BTB claims a branch lives here,
//! the frontend steers to the predicted target immediately; the target
//! then advances through the pipeline until a *resteer* squashes it:
//!
//! * **frontend resteer** — the decoder discovers the prediction
//!   contradicts the actual instruction bytes (kind mismatch, or a direct
//!   branch with a different displacement). Short window. This is
//!   PHANTOM speculation;
//! * **backend resteer** — the mismatch is only discoverable at execute
//!   (wrong indirect target, wrong conditional direction, wrong return
//!   address). Long window. This is conventional Spectre.
//!
//! How far the squashed path advanced — fetch (I-cache fill), decode
//! (µop-cache fill), execute (non-abortable load dispatch) — is decided
//! by comparing per-stage latencies against the resteer latency of the
//! active [`UarchProfile`]. Zen 1/2's slow decoder resteer lets a load
//! dispatch (observation O3); Zen 3/4 and Intel squash first.
//!
//! # Examples
//!
//! ```
//! use phantom_pipeline::{Machine, UarchProfile};
//! use phantom_isa::{asm::Assembler, Inst, Reg};
//! use phantom_mem::PageFlags;
//!
//! let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
//! let mut a = Assembler::new(0x40_0000);
//! a.push(Inst::MovImm { dst: Reg::R0, imm: 42 });
//! a.push(Inst::Halt);
//! let blob = a.finish()?;
//! m.load_blob(&blob, PageFlags::USER_TEXT)?;
//! m.set_pc(blob.base.into());
//! m.run(100)?;
//! assert_eq!(m.reg(phantom_isa::Reg::R0), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod events;
pub mod intern;
pub mod machine;
pub mod profile;
pub mod resteer;
pub mod spec;
pub mod templates;
pub mod trace;
pub mod transient;

#[cfg(test)]
mod proptests;

pub use events::{EventSink, PipelineEvent, SinkId};
pub use intern::IStr;
pub use machine::{Checkpoint, Machine, MachineError, MachineSnapshot, RunExit, StepOutcome};
pub use profile::{UarchProfile, Vendor};
pub use resteer::{ResteerKind, SpeculationVerdict};
pub use spec::{SpecError, UarchRegistry, UarchSpec};
pub use templates::TemplateStore;
pub use trace::{TraceEvent, TraceSink, Tracer};
pub use transient::{TransientReport, TransientWindow};
