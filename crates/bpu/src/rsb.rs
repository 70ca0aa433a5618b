//! Return Stack Buffer (RSB / Return Address Stack).
//!
//! A small circular stack of recent call sites used to predict `ret`
//! targets without waiting for the architectural stack load (§2.1). When
//! a victim instruction is *trained as* a return (the `ret`-training rows
//! of Table 1), the frontend pops this structure — so the predicted
//! target is "the most recent call site", not the trained target C.

use phantom_mem::VirtAddr;

/// A fixed-depth return stack buffer.
///
/// Overflow wraps around (oldest entries are overwritten); underflow
/// returns `None` (some real parts then fall back to the BTB, which we
/// leave to the caller).
///
/// # Examples
///
/// ```
/// use phantom_bpu::Rsb;
/// use phantom_mem::VirtAddr;
/// let mut rsb = Rsb::new(16);
/// rsb.push(VirtAddr::new(0x1005));
/// assert_eq!(rsb.pop(), Some(VirtAddr::new(0x1005)));
/// assert_eq!(rsb.pop(), None);
/// ```
#[derive(Debug)]
pub struct Rsb {
    entries: Vec<VirtAddr>,
    depth: usize,
    top: usize,
    live: usize,
}

/// Hand-written so [`clone_from`](Clone::clone_from) — the per-trial
/// rewind — reuses the entry buffer instead of reallocating it.
impl Clone for Rsb {
    fn clone(&self) -> Rsb {
        Rsb {
            entries: self.entries.clone(),
            depth: self.depth,
            top: self.top,
            live: self.live,
        }
    }

    fn clone_from(&mut self, source: &Rsb) {
        self.entries.clone_from(&source.entries);
        self.depth = source.depth;
        self.top = source.top;
        self.live = source.live;
    }
}

impl Rsb {
    /// Create an RSB holding `depth` entries (16 or 32 on real parts).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Rsb {
        assert!(depth > 0, "RSB depth must be nonzero");
        Rsb {
            entries: vec![VirtAddr::new(0); depth],
            depth,
            top: 0,
            live: 0,
        }
    }

    /// Record a call site's return address.
    pub fn push(&mut self, ret_addr: VirtAddr) {
        self.entries[self.top] = ret_addr;
        self.top = (self.top + 1) % self.depth;
        self.live = (self.live + 1).min(self.depth);
    }

    /// Predict a return target (consumes the entry).
    pub fn pop(&mut self) -> Option<VirtAddr> {
        if self.live == 0 {
            return None;
        }
        self.top = (self.top + self.depth - 1) % self.depth;
        self.live -= 1;
        Some(self.entries[self.top])
    }

    /// Peek at the next prediction without consuming it.
    pub fn peek(&self) -> Option<VirtAddr> {
        if self.live == 0 {
            return None;
        }
        Some(self.entries[(self.top + self.depth - 1) % self.depth])
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the RSB is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Clear all entries (IBPB-style flush, or RSB stuffing with dummy
    /// targets modeled as a flush).
    pub fn flush(&mut self) {
        self.live = 0;
        self.top = 0;
    }
}

#[cfg(test)]
impl Rsb {
    /// Test-only: whether every field equals `other`'s.
    pub(crate) fn same_state(&self, other: &Rsb) -> bool {
        self.entries == other.entries
            && self.depth == other.depth
            && self.top == other.top
            && self.live == other.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut rsb = Rsb::new(4);
        for i in 1..=3u64 {
            rsb.push(VirtAddr::new(i * 0x100));
        }
        assert_eq!(rsb.pop(), Some(VirtAddr::new(0x300)));
        assert_eq!(rsb.pop(), Some(VirtAddr::new(0x200)));
        assert_eq!(rsb.pop(), Some(VirtAddr::new(0x100)));
        assert_eq!(rsb.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut rsb = Rsb::new(2);
        rsb.push(VirtAddr::new(1));
        rsb.push(VirtAddr::new(2));
        rsb.push(VirtAddr::new(3)); // overwrites 1
        assert_eq!(rsb.pop(), Some(VirtAddr::new(3)));
        assert_eq!(rsb.pop(), Some(VirtAddr::new(2)));
        assert_eq!(rsb.pop(), None, "entry 1 was overwritten");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut rsb = Rsb::new(4);
        rsb.push(VirtAddr::new(7));
        assert_eq!(rsb.peek(), Some(VirtAddr::new(7)));
        assert_eq!(rsb.len(), 1);
        assert_eq!(rsb.pop(), Some(VirtAddr::new(7)));
    }

    #[test]
    fn flush_empties() {
        let mut rsb = Rsb::new(4);
        rsb.push(VirtAddr::new(1));
        rsb.flush();
        assert!(rsb.is_empty());
        assert_eq!(rsb.pop(), None);
    }
}
