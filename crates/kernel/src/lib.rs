//! A simulated Linux kernel for the Phantom exploits.
//!
//! The paper's end-to-end attacks (§7) run against Linux 5.19 on real
//! AMD parts; this crate substitutes a minimal kernel built on the
//! [`phantom_pipeline::Machine`]:
//!
//! * **KASLR layout** ([`layout`]) — the kernel image occupies one of
//!   488 slots, physmap one of 25 600 (counts from the paper's §7.1/§7.2
//!   citing TagBleed);
//! * **kernel image** ([`image`]) — a syscall dispatcher plus the exact
//!   gadget shapes of the paper's Listings 1–3 at their published image
//!   offsets: the `getpid()` nop at `0xf6520`, the `__fdget_pos()` call
//!   site at `0x41db60`, and the one-load disclosure gadget at
//!   `0x41da52`;
//! * **kernel module** ([`module`]) — the MDS gadget of Listing 4 and
//!   the nops-plus-return probe target used for BTB reverse engineering;
//! * **system wrapper** ([`system`]) — wires the machine, maps physmap
//!   (non-executable direct map of physical memory), provides syscall
//!   invocation from a user stub and the user-to-kernel BTB training
//!   helper (branch, fault, catch).
//!
//! # Examples
//!
//! ```
//! use phantom_kernel::System;
//! use phantom_pipeline::UarchProfile;
//!
//! let mut sys = System::new(UarchProfile::zen3(), 1 << 30, 42)?;
//! sys.getpid()?;
//! assert_eq!(sys.machine().reg(phantom_isa::Reg::R1), phantom_kernel::image::FAKE_PID);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod boot_cache;
pub mod image;
pub mod layout;
pub mod module;
pub mod system;

pub use boot_cache::{BootCache, BootTemplate};
pub use image::KernelImage;
pub use layout::KaslrLayout;
pub use module::KernelModule;
pub use system::{System, SystemCheckpoint, SystemError};

/// Syscall numbers (Linux x86-64 values where they exist).
pub mod sysno {
    /// `getpid()` — executes the Listing 1 path.
    pub const GETPID: u64 = 39;
    /// `readv(fd, iov, iovcnt)` — executes the Listing 2 path with the
    /// second argument flowing into `R12`.
    pub const READV: u64 = 19;
    /// The kernel module's `read_data(user_index, reload_hint)` ioctl
    /// (Listing 4).
    pub const MODULE_READ_DATA: u64 = 1000;
    /// Invoke the kernel module's nops-plus-return probe function (the
    /// reverse-engineering target K of §6.2).
    pub const MODULE_PROBE: u64 = 1001;
}

#[cfg(test)]
mod proptests;
