//! Workspace root crate for the Phantom (MICRO '23) reproduction.
//!
//! This crate only hosts the workspace-level integration tests (in
//! `tests/`) and the runnable examples (in `examples/`). All functionality
//! lives in the member crates under `crates/`; see [`phantom`] for the
//! top-level API implementing the paper's contribution.
//!
//! # Examples
//!
//! ```
//! // The root crate re-exports nothing; use the member crates directly.
//! use phantom::UarchProfile;
//! assert_eq!(UarchProfile::all().len(), 8);
//! ```

pub use phantom as core;
