//! GF(2) linear algebra and XOR-function recovery.
//!
//! The paper (§6.2) reverse engineers the Zen 3/4 cross-privilege BTB
//! indexing functions by collecting user-space addresses that collide
//! with a kernel address and feeding the Z3 SMT solver an equation
//! system: find coefficients `x0..x47` such that the XOR of the selected
//! address bits takes the same value for every colliding address, with
//! at most `n` coefficients set (gradually increasing `n`; results at
//! `n = 4`).
//!
//! XOR functions are linear over GF(2), so the SMT solver is overkill:
//! the constraint "f(K) = f(A)" for a linear `f` is exactly
//! "f(K ^ A) = 0", and the set of all such `f` is the **dual** of the
//! span of the difference vectors. This crate substitutes Z3 with plain
//! Gaussian elimination plus the paper's bounded-weight enumeration,
//! recovering the same Figure 7 family.
//!
//! # Examples
//!
//! ```
//! use phantom_gf2::BitMatrix;
//! let m = BitMatrix::from_rows(48, &[0b011, 0b110, 0b101]);
//! assert_eq!(m.rank(), 2); // third row is the sum of the first two
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod matrix;
pub mod recover;
pub mod span;

pub use matrix::BitMatrix;
pub use recover::{recover_functions, RecoveredFunction, RecoveryConfig};
pub use span::Span;

#[cfg(test)]
mod proptests;
