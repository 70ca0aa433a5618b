//! Branch History Buffer: footprints of recent control-flow edges.
//!
//! §2.1: "Branch History Buffers (BHBs) contain footprints of recently
//! encountered control-flow edges, and are used to index Branch Target
//! Buffers … The BPU selects the target by matching a tag of the current
//! BHB with the tag from one of the targets."
//!
//! We model the BHB as a shift register folding (source, target) edge
//! bits, exposing a bounded-width *tag*. The machine updates it on every
//! taken branch; multi-target BTB selection (the BHI attack surface,
//! cited as \[8\]) keys per-entry targets off this tag. Phantom itself
//! does not depend on BHB state — its predictions fire regardless of
//! history — which this crate's tests pin down.

use phantom_mem::VirtAddr;

/// A folding branch-history shift register.
///
/// # Examples
///
/// ```
/// use phantom_bpu::Bhb;
/// use phantom_mem::VirtAddr;
/// let mut bhb = Bhb::new();
/// let empty = bhb.raw();
/// bhb.record(VirtAddr::new(0x1234), VirtAddr::new(0x2468));
/// assert_ne!(bhb.raw(), empty);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bhb {
    state: u64,
}

/// Number of meaningful bits in a BHB history tag.
pub const BHB_TAG_BITS: u32 = 16;

impl Bhb {
    /// An empty history.
    pub fn new() -> Bhb {
        Bhb { state: 0 }
    }

    /// Record one taken control-flow edge. The footprint folds low
    /// source and target bits, shifted in two bits at a time — old edges
    /// age out after ~32 branches, like real BHBs.
    pub fn record(&mut self, source: VirtAddr, target: VirtAddr) {
        let footprint = (source.raw() >> 2) ^ (target.raw() >> 1);
        self.state = (self.state << 2) ^ (footprint & 0x3f);
    }

    /// The current history tag (bounded to [`BHB_TAG_BITS`]).
    #[cfg(test)]
    pub fn tag(&self) -> u16 {
        let folded = self.state ^ (self.state >> 16) ^ (self.state >> 32) ^ (self.state >> 48);
        (folded & ((1 << BHB_TAG_BITS) - 1)) as u16
    }

    /// Clear the history (context switch / IBPB).
    pub fn flush(&mut self) {
        self.state = 0;
    }

    /// The raw shift-register state (reverse-engineering experiments).
    pub fn raw(&self) -> u64 {
        self.state
    }
}

impl Default for Bhb {
    fn default() -> Bhb {
        Bhb::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(n: u64) -> (VirtAddr, VirtAddr) {
        (
            VirtAddr::new(0x40_0000 + n * 64),
            VirtAddr::new(0x50_0000 + n * 128),
        )
    }

    #[test]
    fn distinct_histories_give_distinct_tags() {
        let mut a = Bhb::new();
        let mut b = Bhb::new();
        let (s1, t1) = edge(1);
        let (s2, t2) = edge(2);
        a.record(s1, t1);
        b.record(s2, t2);
        assert_ne!(a.tag(), b.tag());
    }

    #[test]
    fn history_order_matters() {
        let mut ab = Bhb::new();
        let mut ba = Bhb::new();
        let (s1, t1) = edge(1);
        let (s2, t2) = edge(2);
        ab.record(s1, t1);
        ab.record(s2, t2);
        ba.record(s2, t2);
        ba.record(s1, t1);
        assert_ne!(ab.tag(), ba.tag(), "the BHB is a sequence footprint");
    }

    #[test]
    fn same_history_same_tag() {
        let mut a = Bhb::new();
        let mut b = Bhb::new();
        for i in 0..10 {
            let (s, t) = edge(i);
            a.record(s, t);
            b.record(s, t);
        }
        assert_eq!(a.tag(), b.tag());
    }

    #[test]
    fn old_edges_age_out() {
        // Two histories differing only in an edge >32 branches ago
        // converge to the same tag (2 bits shift per edge over 64 bits).
        let mut a = Bhb::new();
        let mut b = Bhb::new();
        let (sx, tx) = edge(99);
        a.record(sx, tx);
        for i in 0..40 {
            let (s, t) = edge(i);
            a.record(s, t);
            b.record(s, t);
        }
        assert_eq!(a.tag(), b.tag(), "stale edge shifted out");
    }

    #[test]
    fn flush_restores_empty() {
        let mut a = Bhb::new();
        let (s, t) = edge(3);
        a.record(s, t);
        a.flush();
        assert_eq!(a, Bhb::new());
    }

    #[test]
    fn tag_fits_declared_width() {
        let mut a = Bhb::new();
        for i in 0..100 {
            let (s, t) = edge(i);
            a.record(s, t);
            assert!(u32::from(a.tag()) < 1 << BHB_TAG_BITS);
        }
    }
}
