//! XOR-fold address hash functions for BTB indexing.
//!
//! BTBs compress 48-bit virtual addresses into a small index + tag by
//! XOR-folding groups of address bits. Each function is the parity of a
//! set of bit positions; we represent one function as a 64-bit mask and a
//! family of functions as a vector of masks. Two addresses *alias* (can
//! hit the same BTB entry) when they agree on the low untranslated bits
//! and on the output of every fold function — this is the structure the
//! paper's §6.2 reverse engineering recovers as Figure 7.

use std::fmt;

use phantom_mem::VirtAddr;

/// Parity of `addr & mask` — the value of one XOR-fold function.
///
/// # Examples
///
/// ```
/// use phantom_bpu::parity_fold;
/// // b47 ^ b35 ^ b23 over an address with b47 and b23 set = 0.
/// let addr = (1u64 << 47) | (1 << 23);
/// assert_eq!(parity_fold(addr, (1 << 47) | (1 << 35) | (1 << 23)), 0);
/// assert_eq!(parity_fold(addr, 1 << 47), 1);
/// ```
pub fn parity_fold(addr: u64, mask: u64) -> u64 {
    u64::from((addr & mask).count_ones() & 1)
}

/// One XOR-fold function: the parity of the address bits selected by
/// `mask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FoldFn {
    /// Selected bit positions.
    pub mask: u64,
}

impl FoldFn {
    /// Build from explicit bit positions.
    ///
    /// # Examples
    ///
    /// ```
    /// use phantom_bpu::FoldFn;
    /// let f = FoldFn::of_bits(&[47, 35, 23]);
    /// assert_eq!(f.mask, (1u64 << 47) | (1 << 35) | (1 << 23));
    /// ```
    pub fn of_bits(bits: &[u32]) -> FoldFn {
        FoldFn {
            mask: bits.iter().fold(0, |m, b| m | (1u64 << b)),
        }
    }

    /// Evaluate the function on an address (0 or 1).
    pub fn eval(&self, addr: VirtAddr) -> u64 {
        parity_fold(addr.raw(), self.mask)
    }

    /// The bit positions this function selects, ascending.
    pub fn bits(&self) -> Vec<u32> {
        (0..64).filter(|b| self.mask >> b & 1 == 1).collect()
    }
}

impl fmt::Display for FoldFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = self.bits();
        let mut first = true;
        for b in bits.iter().rev() {
            if !first {
                write!(f, " ^ ")?;
            }
            write!(f, "b{b}")?;
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

/// A family of fold functions — the full alias signature of an address
/// above the untranslated bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldFamily {
    fns: Vec<FoldFn>,
}

impl FoldFamily {
    /// Build a family from fold functions.
    pub fn new(fns: Vec<FoldFn>) -> FoldFamily {
        assert!(fns.len() <= 32, "at most 32 fold functions supported");
        FoldFamily { fns }
    }

    /// The paper's Figure 7 family (ground truth of the Zen 3/4
    /// cross-privilege BTB hash we plant for the solver to recover):
    /// twelve functions, each folding `b47` with three lower bits at a
    /// 12-bit stride.
    pub fn zen34() -> FoldFamily {
        FoldFamily::new(vec![
            FoldFn::of_bits(&[47, 35, 23]),
            FoldFn::of_bits(&[47, 36, 24, 12]),
            FoldFn::of_bits(&[47, 37, 25, 13]),
            FoldFn::of_bits(&[47, 38, 26, 14]),
            FoldFn::of_bits(&[47, 39, 26, 13]),
            FoldFn::of_bits(&[47, 39, 27, 15]),
            FoldFn::of_bits(&[47, 40, 28, 16]),
            FoldFn::of_bits(&[47, 41, 29, 17]),
            FoldFn::of_bits(&[47, 42, 30, 18]),
            FoldFn::of_bits(&[47, 43, 31, 19]),
            FoldFn::of_bits(&[47, 44, 32, 20]),
            FoldFn::of_bits(&[47, 45, 33, 21]),
            // The published family covers neither b22 nor b34/b46 — yet
            // real Zen 3 distinguishes addresses differing in those bits
            // (488 distinct KASLR slots are told apart). §6.2 attributes
            // the gap to "overlapping functions … that may not involve
            // bit 47, or use address bits we did not consider". We model
            // one such function with weight 5, deliberately outside the
            // paper's n = 4 solver bound, so Figure 7 recovery still
            // returns exactly the twelve published functions.
            FoldFn::of_bits(&[46, 34, 22, 14, 12]),
        ])
    }

    /// A Retbleed-style fold family for Zen 1/2: two-term folding of bits
    /// \[12..35\] only. Bits ≥ 36 — including `b47` — are untagged, which
    /// is why user/kernel BTB collisions are easy to construct on these
    /// parts (Retbleed) and why the paper's Zen 3 results, where every
    /// function gained a `b47` term, required fresh reverse engineering.
    pub fn zen12() -> FoldFamily {
        FoldFamily::new(
            (0..12)
                .map(|i| FoldFn::of_bits(&[12 + i, 24 + i]))
                .collect(),
        )
    }

    /// The fold functions.
    pub fn fns(&self) -> &[FoldFn] {
        &self.fns
    }

    /// Number of functions (signature width in bits).
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the family is empty (degenerate: everything aliases).
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// The alias signature of an address: one bit per function.
    pub fn signature(&self, addr: VirtAddr) -> u32 {
        self.fns
            .iter()
            .enumerate()
            .fold(0, |sig, (i, f)| sig | ((f.eval(addr) as u32) << i))
    }

    /// The family compiled to byte-indexed lookup tables: same
    /// signatures, but 8 loads and XORs per address instead of one
    /// masked popcount per function. Worth building when one family
    /// signs many addresses, as the §6.2 collision search does.
    ///
    /// # Examples
    ///
    /// ```
    /// use phantom_bpu::FoldFamily;
    /// use phantom_mem::VirtAddr;
    /// let fam = FoldFamily::zen34();
    /// let table = fam.signature_table();
    /// let a = VirtAddr::new(0xffff_ffff_8124_6ac0);
    /// assert_eq!(table.signature(a), fam.signature(a));
    /// ```
    pub fn signature_table(&self) -> SignatureTable {
        let mut rows = Box::new([[0u32; 256]; 8]);
        for (byte, row) in rows.iter_mut().enumerate() {
            // Signatures are GF(2)-linear in the address, so each entry
            // is the XOR of a smaller entry and one single-bit entry.
            for v in 1..256usize {
                let low = v & v.wrapping_neg();
                row[v] = if v == low {
                    self.signature(VirtAddr::new((v as u64) << (8 * byte)))
                } else {
                    row[v & (v - 1)] ^ row[low]
                };
            }
        }
        SignatureTable { rows }
    }

    /// Whether two addresses alias under this family **and** share their
    /// low 12 (untranslated) bits — the collision criterion of §6.2.
    pub fn aliases(&self, a: VirtAddr, b: VirtAddr) -> bool {
        a.raw() & 0xfff == b.raw() & 0xfff && self.signature(a) == self.signature(b)
    }

    /// An XOR pattern that, applied to any address, preserves the alias
    /// signature (every function sees an even number of flips) while
    /// flipping `b47` — i.e. a user⇄kernel collision pattern like the
    /// paper's `K ^ 0xffffbff800000000`. Returns `None` if the family
    /// has no such pattern over bits 12–47 together with the canonical
    /// sign-extension bits 48–63.
    #[cfg(test)]
    pub fn cross_privilege_pattern(&self) -> Option<u64> {
        // Search greedily: start with bit 47 plus sign extension, then
        // for every violated function flip one of its other bits; since
        // functions overlap, iterate to a fixed point over a bounded
        // number of passes.
        let mut pattern: u64 = 0xffff_0000_0000_0000 | (1 << 47);
        for _ in 0..64 {
            let mut fixed_all = true;
            for f in &self.fns {
                if parity_fold(pattern, f.mask) == 1 {
                    // Flip the highest selected bit below 47 not yet set.
                    let candidate = f
                        .bits()
                        .into_iter()
                        .rfind(|&b| b < 47 && pattern >> b & 1 == 0);
                    match candidate {
                        Some(b) => {
                            pattern |= 1 << b;
                            fixed_all = false;
                        }
                        None => return None,
                    }
                }
            }
            if fixed_all {
                return Some(pattern);
            }
        }
        None
    }
}

impl fmt::Display for FoldFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, func) in self.fns.iter().enumerate() {
            writeln!(f, "f{i} = {func}")?;
        }
        Ok(())
    }
}

/// A [`FoldFamily`] compiled by [`FoldFamily::signature_table`]: one
/// 256-entry row per address byte, holding the signature of that byte
/// alone. The signature of an address is the XOR of its bytes' entries.
#[derive(Debug, Clone)]
pub struct SignatureTable {
    rows: Box<[[u32; 256]; 8]>,
}

impl SignatureTable {
    /// The alias signature of an address; equal to
    /// [`FoldFamily::signature`] of the family it was compiled from.
    #[inline]
    pub fn signature(&self, addr: VirtAddr) -> u32 {
        let bytes = addr.raw().to_le_bytes();
        self.rows
            .iter()
            .zip(bytes)
            .fold(0, |sig, (row, b)| sig ^ row[usize::from(b)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_fold_counts_selected_bits() {
        assert_eq!(parity_fold(0b1011, 0b1111), 1);
        assert_eq!(parity_fold(0b1011, 0b0011), 0);
        assert_eq!(parity_fold(0, u64::MAX), 0);
    }

    #[test]
    fn zen34_family_matches_figure7() {
        let fam = FoldFamily::zen34();
        assert_eq!(fam.len(), 13, "12 published + 1 supplementary");
        // f0 = b47 ^ b35 ^ b23.
        assert_eq!(fam.fns()[0].bits(), vec![23, 35, 47]);
        // Every PUBLISHED function involves b47 (the paper's key finding
        // vs Zen 2); the supplementary weight-5 fold does not.
        for f in &fam.fns()[..12] {
            assert_eq!(f.mask >> 47 & 1, 1, "{f}");
        }
        assert_eq!(fam.fns()[12].bits().len(), 5);
    }

    #[test]
    fn paper_xor_patterns_alias_on_zen34() {
        let fam = FoldFamily::zen34();
        let k = VirtAddr::new(0xffff_ffff_8124_6520); // a "kernel" address
        for pattern in [0xffff_bff8_0000_0000u64, 0xffff_8003_ff80_0000] {
            let user = VirtAddr::new(k.raw() ^ pattern);
            assert!(!user.is_kernel_half(), "{user} should be a user address");
            assert!(fam.aliases(k, user), "pattern {pattern:#x} must alias");
        }
    }

    #[test]
    fn single_bit_flips_do_not_alias_on_zen34() {
        let fam = FoldFamily::zen34();
        let k = VirtAddr::new(0xffff_ffff_8124_6520);
        // Flipping up to 6 arbitrary high bits rarely preserves the
        // signature — this is why the paper's brute force failed. Spot
        // check a few specific flips.
        for b in [47u32, 40, 35, 24, 13] {
            assert!(
                !fam.aliases(k, VirtAddr::new(k.raw() ^ 1 << b)),
                "single flip of b{b}"
            );
        }
    }

    #[test]
    fn derived_cross_privilege_pattern_works() {
        for fam in [FoldFamily::zen34(), FoldFamily::zen12()] {
            if let Some(p) = fam.cross_privilege_pattern() {
                let k = VirtAddr::new(0xffff_ffff_8860_0000);
                let u = VirtAddr::new(k.raw() ^ p);
                assert!(fam.aliases(k, u), "pattern {p:#x}");
                assert!(!u.is_kernel_half());
            } else {
                panic!("no cross-privilege pattern found");
            }
        }
    }

    #[test]
    fn zen12_has_no_b47_dependence() {
        let fam = FoldFamily::zen12();
        for f in fam.fns() {
            assert_eq!(f.mask >> 47 & 1, 0);
        }
        // Kernel/user pairs differing only in bits >= 36 alias directly.
        let k = VirtAddr::new(0xffff_ffff_8124_6000);
        let u = VirtAddr::new(k.raw() & 0xf_ffff_ffff);
        assert!(fam.aliases(k, u));
    }

    #[test]
    fn signature_fits_function_count() {
        let fam = FoldFamily::zen34();
        let sig = fam.signature(VirtAddr::new(u64::MAX));
        assert!(sig < 1 << fam.len());
    }

    #[test]
    fn display_formats_like_the_paper() {
        let f = FoldFn::of_bits(&[47, 35, 23]);
        assert_eq!(f.to_string(), "b47 ^ b35 ^ b23");
    }
}
