//! Virtual and physical address newtypes.

use std::fmt;
use std::ops::{Add, Sub};

/// Page size in bytes (4 KiB, like x86-64 base pages).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Huge-page size in bytes (2 MiB transparent huge pages, used by the
/// physmap attack for L2 Prime+Probe, §7.2).
pub const HUGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;
/// log2 of [`HUGE_PAGE_SIZE`].
pub const HUGE_PAGE_SHIFT: u32 = 21;

macro_rules! addr_type {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Wrap a raw address.
            pub const fn new(raw: u64) -> $name {
                $name(raw)
            }

            /// The raw address value.
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Byte offset within the 4 KiB page.
            pub const fn page_offset(self) -> u64 {
                self.0 & (PAGE_SIZE - 1)
            }

            /// The page number (address >> 12).
            pub const fn page_number(self) -> u64 {
                self.0 >> PAGE_SHIFT
            }

            /// Address rounded down to the containing 4 KiB page.
            pub const fn page_base(self) -> $name {
                $name(self.0 & !(PAGE_SIZE - 1))
            }

            /// Address rounded down to the containing 2 MiB huge page.
            pub const fn huge_page_base(self) -> $name {
                $name(self.0 & !(HUGE_PAGE_SIZE - 1))
            }

            /// Value of address bit `n` (0 or 1).
            pub const fn bit(self, n: u32) -> u64 {
                (self.0 >> n) & 1
            }

            /// Returns the address with bit `n` flipped.
            #[cfg(test)]
            pub const fn flip_bit(self, n: u32) -> $name {
                $name(self.0 ^ (1 << n))
            }

            /// Whether the address is aligned to `align` (a power of two).
            pub const fn is_aligned(self, align: u64) -> bool {
                self.0 & (align - 1) == 0
            }
        }

        impl Add<u64> for $name {
            type Output = $name;
            fn add(self, rhs: u64) -> $name {
                $name(self.0.wrapping_add(rhs))
            }
        }

        impl Sub<u64> for $name {
            type Output = $name;
            fn sub(self, rhs: u64) -> $name {
                $name(self.0.wrapping_sub(rhs))
            }
        }

        impl Sub<$name> for $name {
            type Output = u64;
            fn sub(self, rhs: $name) -> u64 {
                self.0.wrapping_sub(rhs.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> $name {
                $name(raw)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl fmt::Octal for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Octal::fmt(&self.0, f)
            }
        }
    };
}

addr_type! {
    /// A virtual address.
    ///
    /// # Examples
    ///
    /// ```
    /// use phantom_mem::VirtAddr;
    /// let va = VirtAddr::new(0xffff_8000_0123_4abc);
    /// assert_eq!(va.page_offset(), 0xabc);
    /// assert_eq!(va.bit(12), 0);
    /// ```
    VirtAddr
}

addr_type! {
    /// A physical address.
    ///
    /// # Examples
    ///
    /// ```
    /// use phantom_mem::PhysAddr;
    /// let pa = PhysAddr::new(0x4_2000);
    /// assert_eq!(pa.page_number(), 0x42);
    /// assert!(pa.is_aligned(0x1000));
    /// ```
    PhysAddr
}

impl VirtAddr {
    /// Whether this is a canonical kernel-half address (bit 47 set, as in
    /// the paper's BTB functions, which all involve `b47`).
    pub const fn is_kernel_half(self) -> bool {
        self.bit(47) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        let va = VirtAddr::new(0x1234);
        assert_eq!(va.page_offset(), 0x234);
        assert_eq!(va.page_number(), 1);
        assert_eq!(va.page_base(), VirtAddr::new(0x1000));
    }

    #[test]
    fn huge_page_base_masks_21_bits() {
        let va = VirtAddr::new(0x40_1234);
        assert_eq!(va.huge_page_base(), VirtAddr::new(0x40_0000));
        assert_eq!(VirtAddr::new(0x1f_ffff).huge_page_base(), VirtAddr::new(0));
    }

    #[test]
    fn bit_ops() {
        let va = VirtAddr::new(1 << 47);
        assert_eq!(va.bit(47), 1);
        assert_eq!(va.bit(46), 0);
        assert_eq!(va.flip_bit(47), VirtAddr::new(0));
        assert!(va.is_kernel_half());
        assert!(!VirtAddr::new(0x7fff_ffff_ffff).is_kernel_half());
    }

    #[test]
    fn arithmetic_wraps() {
        let va = VirtAddr::new(u64::MAX);
        assert_eq!((va + 1).raw(), 0);
        assert_eq!(VirtAddr::new(0x2000) - VirtAddr::new(0x1000), 0x1000);
    }

    #[test]
    fn formatting() {
        let pa = PhysAddr::new(0xbeef);
        assert_eq!(pa.to_string(), "0xbeef");
        assert_eq!(format!("{pa:x}"), "beef");
        assert_eq!(format!("{pa:b}"), format!("{:b}", 0xbeefu64));
    }
}
