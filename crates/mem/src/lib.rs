//! Memory substrate for the Phantom reproduction: sparse physical memory,
//! page tables with permission bits, and address-space layout helpers.
//!
//! The Phantom exploits depend on precise memory-system semantics:
//!
//! * **Executability gates instruction fetch** — a speculative fetch only
//!   populates the I-cache if the target page is present *and executable*
//!   (primitive P1 distinguishes mapped-executable from everything else);
//! * **Presence gates data loads** — a transient load fills the D-cache
//!   only if the page is present (primitive P2 detects mapped,
//!   non-executable memory such as physmap);
//! * **Privilege separation** — user code touching supervisor pages
//!   faults architecturally but the BTB may still be trained by the
//!   attempt (the page-fault-and-catch training technique of §6.2).
//!
//! # Examples
//!
//! ```
//! use phantom_mem::{AccessKind, PageFlags, PageTable, PhysAddr, PhysMemory, PrivilegeLevel, VirtAddr};
//!
//! let mut phys = PhysMemory::new(1 << 30); // 1 GiB
//! let frame = phys.alloc_frame().unwrap();
//! let mut pt = PageTable::new();
//! pt.map_4k(VirtAddr::new(0x1000), frame, PageFlags::PRESENT | PageFlags::WRITE | PageFlags::USER);
//!
//! let pa = pt
//!     .translate(VirtAddr::new(0x1234), AccessKind::Read, PrivilegeLevel::User)
//!     .unwrap();
//! assert_eq!(pa, PhysAddr::new(frame.raw() + 0x234));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod addr;
pub mod fault;
pub mod hash;
pub mod paging;
pub mod phys;
pub mod rows;
pub mod tlb;

pub use addr::{PhysAddr, VirtAddr, HUGE_PAGE_SHIFT, HUGE_PAGE_SIZE, PAGE_SHIFT, PAGE_SIZE};
pub use fault::{AccessKind, FaultReason, PageFault};
pub use hash::{IntHasher, IntMap, IntSet};
pub use paging::{PageFlags, PageTable, PrivilegeLevel};
pub use phys::PhysMemory;
pub use rows::RowStore;
pub use tlb::{Tlb, TlbEntry, TlbSlot};

#[cfg(test)]
mod flat_model;
#[cfg(test)]
mod nested_tlb;
#[cfg(test)]
mod proptests;
