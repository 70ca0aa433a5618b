//! The Branch Target Buffer.
//!
//! Entries are keyed by the *alias class* of the branch-source address:
//! its low 12 (untranslated) bits plus the XOR-fold signature of the
//! high bits ([`crate::hashfn::FoldFamily`]). Any address in the same
//! alias class reuses the entry — the attacker's training address and
//! the kernel victim address need not be equal, only alias-equal (§6.2).
//!
//! Each entry stores the **trained branch kind** and the target, which
//! for direct branches is kept PC-relative ("the branch predictor serves
//! direct branch targets as PC-relative", §5.2).

use phantom_isa::BranchKind;
use phantom_mem::{PrivilegeLevel, VirtAddr};

use crate::hashfn::FoldFamily;

#[cfg(test)]
pub(crate) mod map_model;

/// How the BTB keys entries for a given microarchitecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtbScheme {
    /// XOR-fold family for the address bits above the page offset.
    pub family: FoldFamily,
    /// Associativity per alias class.
    pub ways: usize,
    /// Whether entries are tagged with the privilege mode that trained
    /// them, making cross-privilege reuse impossible (modeled for the
    /// Intel parts: "the Intel processors we tested do not re-use a
    /// user-injected prediction in kernel mode", §6).
    pub privilege_tagged: bool,
}

impl BtbScheme {
    /// Zen 3 / Zen 4 scheme: the Figure 7 fold family.
    pub fn zen34() -> BtbScheme {
        BtbScheme {
            family: FoldFamily::zen34(),
            ways: 2,
            privilege_tagged: false,
        }
    }

    /// Zen 1 / Zen 2 scheme: Retbleed-style folding without `b47`.
    pub fn zen12() -> BtbScheme {
        BtbScheme {
            family: FoldFamily::zen12(),
            ways: 2,
            privilege_tagged: false,
        }
    }

    /// Intel scheme: same structural folding as Zen 1/2 but with
    /// privilege-tagged entries.
    pub fn intel() -> BtbScheme {
        BtbScheme {
            family: FoldFamily::zen12(),
            ways: 2,
            privilege_tagged: true,
        }
    }

    /// Compact one-line descriptor for CLI listings, the BTB sibling of
    /// [`CbpScheme::summary`](crate::CbpScheme::summary): fold-function
    /// count x ways, with a `+priv` marker for privilege-tagged parts.
    #[must_use]
    pub fn summary(&self) -> String {
        let tag = if self.privilege_tagged { " +priv" } else { "" };
        format!("{}fx{}{tag}", self.family.len(), self.ways)
    }
}

/// The target representation stored in an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoredTarget {
    /// Absolute target (indirect branches, returns are RSB-served).
    Abs(VirtAddr),
    /// Displacement from the *source address* (direct branches): applying
    /// the entry at an aliased source yields a shifted target C′.
    Rel(i64),
}

/// One BTB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbEntry {
    /// Low 12 bits of the source address (within-page position).
    pub page_offset: u16,
    /// Fold signature of the source address's high bits.
    pub signature: u32,
    /// The branch kind that trained the entry.
    pub kind: BranchKind,
    /// Privilege mode at training time.
    pub trained_at: PrivilegeLevel,
    /// SMT thread that trained the entry.
    pub thread: u8,
    /// The trained target.
    target: StoredTarget,
    lru: u64,
}

impl BtbEntry {
    /// The predicted target when the entry serves `source`.
    fn target_at(&self, source: VirtAddr) -> VirtAddr {
        match self.target {
            StoredTarget::Abs(t) => t,
            StoredTarget::Rel(d) => VirtAddr::new(source.raw().wrapping_add(d as u64)),
        }
    }
}

/// A raw prediction out of the BTB: where in the fetch window the
/// predicted branch source sits, what kind it is, and its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtbHit {
    /// The predicted branch-source address.
    pub source: VirtAddr,
    /// Trained branch kind.
    pub kind: BranchKind,
    /// Predicted target (`None` for `ret`, which the RSB serves).
    pub target: Option<VirtAddr>,
    /// Privilege mode that trained the entry (for IBRS-style gating).
    pub trained_at: PrivilegeLevel,
    /// SMT thread that trained the entry (for STIBP gating).
    pub thread: u8,
}

/// Page offsets per fetch page: one bucket slot each.
const PAGE_OFFSETS: usize = 4096;

/// The Branch Target Buffer.
///
/// Buckets are kept in page-offset order, one per offset that holds an
/// entry. A 4,096-bit occupancy bitmap answers "no bucket here" with one
/// bit test, which is most bytes of a fetch window, and a bucket's
/// position is the number of occupied offsets below it (a per-word
/// prefix count plus one popcount), so there is no map to hash or copy.
/// Bucket vectors past the live ones are spares: a flush or rewind
/// keeps their allocations for the next new offset.
///
/// # Examples
///
/// ```
/// use phantom_bpu::{Btb, BtbScheme};
/// use phantom_isa::BranchKind;
/// use phantom_mem::{PrivilegeLevel, VirtAddr};
///
/// let mut btb = Btb::new(BtbScheme::zen34());
/// let a = VirtAddr::new(0x0000_1000_0000_0ac0);
/// btb.train(a, BranchKind::Indirect, VirtAddr::new(0x5000), PrivilegeLevel::User, 0);
/// let hit = btb.lookup(a).expect("trained entry");
/// assert_eq!(hit.kind, BranchKind::Indirect);
/// assert_eq!(hit.target, Some(VirtAddr::new(0x5000)));
/// ```
#[derive(Debug)]
pub struct Btb {
    scheme: BtbScheme,
    /// Bit `o % 64` of word `o / 64` is set when page offset `o` has a
    /// bucket.
    occupied: [u64; PAGE_OFFSETS / 64],
    /// `below[w]`: occupied offsets in words `0..w`.
    below: [u16; PAGE_OFFSETS / 64],
    /// `buckets[..live]`: the non-empty buckets in page-offset order
    /// (fold signatures disambiguate within one); the rest are spares.
    buckets: Vec<Vec<BtbEntry>>,
    live: usize,
    clock: u64,
}

impl Btb {
    /// An empty BTB with the given scheme.
    pub fn new(scheme: BtbScheme) -> Btb {
        Btb {
            scheme,
            occupied: [0; PAGE_OFFSETS / 64],
            below: [0; PAGE_OFFSETS / 64],
            buckets: Vec::new(),
            live: 0,
            clock: 0,
        }
    }

    /// The indexing scheme.
    pub fn scheme(&self) -> &BtbScheme {
        &self.scheme
    }

    /// Whether page offset `page_offset` has a bucket: one bit test.
    #[inline]
    fn occupied(&self, page_offset: u16) -> bool {
        self.occupied[usize::from(page_offset >> 6)] >> (page_offset & 63) & 1 == 1
    }

    /// Where page offset `page_offset`'s bucket sits (or would sit)
    /// among the live ones: the occupied offsets below it.
    #[inline]
    fn rank(&self, page_offset: u16) -> usize {
        let word = usize::from(page_offset >> 6);
        let below_in_word = self.occupied[word] & ((1 << (page_offset & 63)) - 1);
        usize::from(self.below[word]) + below_in_word.count_ones() as usize
    }

    /// The bucket at `page_offset`, if it has one.
    #[inline]
    fn bucket(&self, page_offset: u16) -> Option<&[BtbEntry]> {
        if !self.occupied(page_offset) {
            return None;
        }
        Some(&self.buckets[self.rank(page_offset)])
    }

    /// The bucket at `page_offset`, made (empty) if it has none: a spare
    /// vector moves into place, so no allocation while spares last.
    fn bucket_mut(&mut self, page_offset: u16) -> &mut Vec<BtbEntry> {
        let rank = self.rank(page_offset);
        if !self.occupied(page_offset) {
            if self.live == self.buckets.len() {
                self.buckets.push(Vec::new());
            }
            self.buckets[rank..=self.live].rotate_right(1);
            self.buckets[rank].clear();
            self.live += 1;
            let word = usize::from(page_offset >> 6);
            self.occupied[word] |= 1 << (page_offset & 63);
            for below in &mut self.below[word + 1..] {
                *below += 1;
            }
        }
        &mut self.buckets[rank]
    }

    /// Record a resolved branch: source address, decoded kind, resolved
    /// target. Overwrites an aliasing entry; otherwise inserts, evicting
    /// LRU beyond the per-class associativity.
    pub fn train(
        &mut self,
        source: VirtAddr,
        kind: BranchKind,
        target: VirtAddr,
        level: PrivilegeLevel,
        thread: u8,
    ) {
        self.clock += 1;
        let page_offset = (source.raw() & 0xfff) as u16;
        let signature = self.scheme.family.signature(source);
        let entry = BtbEntry {
            page_offset,
            signature,
            kind,
            trained_at: level,
            thread,
            target: if kind.target_is_relative() {
                StoredTarget::Rel(target.raw().wrapping_sub(source.raw()) as i64)
            } else {
                StoredTarget::Abs(target)
            },
            lru: self.clock,
        };
        let privilege_tagged = self.scheme.privilege_tagged;
        let ways = self.scheme.ways;
        let bucket = self.bucket_mut(page_offset);
        // Alias match: same signature (and privilege when tagged).
        if let Some(existing) = bucket
            .iter_mut()
            .find(|e| e.signature == signature && (!privilege_tagged || e.trained_at == level))
        {
            *existing = entry;
            return;
        }
        if bucket.len() >= ways {
            // Evict LRU within the bucket.
            if let Some(pos) = bucket
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
            {
                bucket.remove(pos);
            }
        }
        bucket.push(entry);
    }

    /// Look up a prediction for a potential branch source at `source`.
    /// Matching is purely address-based — the caller has *not decoded*
    /// anything yet.
    pub fn lookup(&self, source: VirtAddr) -> Option<BtbHit> {
        // Bucket first: most window bytes have no entry at their page
        // offset at all, and the fold signature is only worth computing
        // once a bucket exists.
        let bucket = self.bucket((source.raw() & 0xfff) as u16)?;
        let signature = self.scheme.family.signature(source);
        let entry = bucket.iter().find(|e| e.signature == signature)?;
        Some(BtbHit {
            source,
            kind: entry.kind,
            target: (entry.kind != BranchKind::Ret).then(|| entry.target_at(source)),
            trained_at: entry.trained_at,
            thread: entry.thread,
        })
    }

    /// Every hit in the fetch window `[base, base+len)`, in address
    /// order: [`Btb::lookup`] at each byte, where a byte whose page
    /// offset has no bucket costs one bit test.
    pub fn window_hits(&self, base: VirtAddr, len: u64) -> impl Iterator<Item = BtbHit> + '_ {
        (0..len)
            .map(move |off| base + off)
            .filter(|source| self.occupied((source.raw() & 0xfff) as u16))
            .filter_map(|source| self.lookup(source))
    }

    /// Empty the BTB for `scheme` in place, as `*self = Btb::new(scheme)`
    /// would, keeping the bucket vectors as spares.
    pub fn reset(&mut self, scheme: BtbScheme) {
        self.flush();
        self.scheme = scheme;
        self.clock = 0;
    }

    /// Remove every entry (IBPB). The bucket vectors stay as spares.
    pub fn flush(&mut self) {
        self.occupied = [0; PAGE_OFFSETS / 64];
        self.below = [0; PAGE_OFFSETS / 64];
        self.live = 0;
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.buckets[..self.live].iter().map(Vec::len).sum()
    }

    /// Whether the BTB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// Hand-written so [`clone_from`](Clone::clone_from) — the per-trial
/// rewind — copies the source's buckets into the vectors this BTB
/// already has (live or spare) instead of reallocating them, and skips
/// the scheme when it already matches. A clone carries no spares.
impl Clone for Btb {
    fn clone(&self) -> Btb {
        Btb {
            scheme: self.scheme.clone(),
            occupied: self.occupied,
            below: self.below,
            buckets: self.buckets[..self.live].to_vec(),
            live: self.live,
            clock: self.clock,
        }
    }

    fn clone_from(&mut self, source: &Btb) {
        if self.scheme != source.scheme {
            self.scheme = source.scheme.clone();
        }
        self.occupied = source.occupied;
        self.below = source.below;
        let live = &source.buckets[..source.live];
        let reused = live.len().min(self.buckets.len());
        for (mine, theirs) in self.buckets.iter_mut().zip(&live[..reused]) {
            mine.clone_from(theirs);
        }
        self.buckets.extend_from_slice(&live[reused..]);
        self.live = source.live;
        self.clock = source.clock;
    }
}

#[cfg(test)]
impl Btb {
    /// Test-only: whether every field equals `other`'s, spare bucket
    /// vectors aside.
    pub(crate) fn same_state(&self, other: &Btb) -> bool {
        self.scheme == other.scheme
            && self.occupied == other.occupied
            && self.below == other.below
            && self.buckets[..self.live] == other.buckets[..other.live]
            && self.clock == other.clock
    }

    /// Test-only: every entry, in page-offset then bucket order.
    pub(crate) fn entries(&self) -> Vec<BtbEntry> {
        self.buckets[..self.live].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_simple(btb: &mut Btb, src: u64, kind: BranchKind, tgt: u64) {
        btb.train(
            VirtAddr::new(src),
            kind,
            VirtAddr::new(tgt),
            PrivilegeLevel::User,
            0,
        );
    }

    #[test]
    fn exact_source_lookup() {
        let mut btb = Btb::new(BtbScheme::zen34());
        train_simple(&mut btb, 0x10_0ac0, BranchKind::Indirect, 0x55_0000);
        let hit = btb.lookup(VirtAddr::new(0x10_0ac0)).unwrap();
        assert_eq!(hit.target, Some(VirtAddr::new(0x55_0000)));
        assert_eq!(hit.kind, BranchKind::Indirect);
    }

    #[test]
    fn aliased_source_reuses_entry() {
        let mut btb = Btb::new(BtbScheme::zen34());
        let k = VirtAddr::new(0xffff_ffff_8124_6ac0);
        let u = VirtAddr::new(k.raw() ^ 0xffff_bff8_0000_0000);
        // Train at the *user* aliasing address...
        btb.train(
            u,
            BranchKind::Indirect,
            VirtAddr::new(0x5000),
            PrivilegeLevel::User,
            0,
        );
        // ...and the kernel victim address hits.
        let hit = btb.lookup(k).expect("cross-privilege alias");
        assert_eq!(hit.target, Some(VirtAddr::new(0x5000)));
        assert_eq!(hit.trained_at, PrivilegeLevel::User);
    }

    #[test]
    fn non_aliasing_address_misses() {
        let mut btb = Btb::new(BtbScheme::zen34());
        train_simple(&mut btb, 0x10_0ac0, BranchKind::Indirect, 0x5000);
        // Same page offset, different high bits that change the signature.
        assert!(btb.lookup(VirtAddr::new(0x10_0ac0 ^ (1 << 23))).is_none());
        // Different page offset entirely.
        assert!(btb.lookup(VirtAddr::new(0x10_0ac8)).is_none());
    }

    #[test]
    fn direct_targets_shift_with_the_source() {
        let mut btb = Btb::new(BtbScheme::zen12());
        // Train jmp at A=0x40_0ac0 -> C=0x40_1000 (disp +0x540).
        train_simple(&mut btb, 0x40_0ac0, BranchKind::Direct, 0x40_1000);
        // Victim B aliases A (zen12: flip b12+b24+b36-preserving bits);
        // easiest alias: same address (exact hit) at another "instance".
        // Check the PC-relative application: look up at B != A in the
        // same alias class.
        let a = VirtAddr::new(0x40_0ac0);
        let b = VirtAddr::new(a.raw() ^ (1 << 12) ^ (1 << 24)); // f0 sees two flips
        assert!(btb.scheme().family.aliases(a, b));
        let hit = btb.lookup(b).unwrap();
        // Predicted target is B + 0x540 (C'), not C.
        assert_eq!(hit.target, Some(VirtAddr::new(b.raw() + 0x540)));
    }

    #[test]
    fn ret_entries_have_no_btb_target() {
        let mut btb = Btb::new(BtbScheme::zen12());
        train_simple(&mut btb, 0x1234, BranchKind::Ret, 0x9999);
        let hit = btb.lookup(VirtAddr::new(0x1234)).unwrap();
        assert_eq!(hit.kind, BranchKind::Ret);
        assert_eq!(hit.target, None, "ret targets come from the RSB");
    }

    #[test]
    fn training_overwrites_kind() {
        let mut btb = Btb::new(BtbScheme::zen34());
        train_simple(&mut btb, 0x2000, BranchKind::Direct, 0x3000);
        train_simple(&mut btb, 0x2000, BranchKind::Indirect, 0x4000);
        let hit = btb.lookup(VirtAddr::new(0x2000)).unwrap();
        assert_eq!(hit.kind, BranchKind::Indirect);
        assert_eq!(hit.target, Some(VirtAddr::new(0x4000)));
        assert_eq!(btb.len(), 1, "aliasing train replaces, not duplicates");
    }

    #[test]
    fn privilege_tagging_blocks_cross_mode_reuse() {
        let mut btb = Btb::new(BtbScheme::intel());
        let k = VirtAddr::new(0xffff_ffff_8124_6ac0);
        // Find a user alias under the zen12 family (clear untagged bits
        // >= 36, including b47).
        let u = VirtAddr::new(k.raw() & 0xf_ffff_ffff);
        assert!(btb.scheme().family.aliases(k, u));
        btb.train(
            u,
            BranchKind::Indirect,
            VirtAddr::new(0x5000),
            PrivilegeLevel::User,
            0,
        );
        // Address-wise the entry aliases, but the scheme tags privilege:
        // lookup finds the entry, and the *caller* must compare modes.
        // The Bpu layer filters; at the raw BTB layer the entry carries
        // its training mode.
        let hit = btb.lookup(k).unwrap();
        assert_eq!(hit.trained_at, PrivilegeLevel::User);
    }

    #[test]
    fn window_scan_finds_first_source_in_order() {
        let mut btb = Btb::new(BtbScheme::zen12());
        train_simple(&mut btb, 0x1010, BranchKind::Direct, 0x9000);
        train_simple(&mut btb, 0x1008, BranchKind::Indirect, 0x8000);
        let hit = btb.window_hits(VirtAddr::new(0x1000), 32).next().unwrap();
        assert_eq!(hit.source, VirtAddr::new(0x1008), "address order wins");
        assert!(btb.window_hits(VirtAddr::new(0x1020), 32).next().is_none());
    }

    #[test]
    fn associativity_evicts_lru() {
        let mut btb = Btb::new(BtbScheme::zen34());
        // Three sources with the same page offset, distinct signatures.
        let a = 0x00_0ac0u64;
        let b = a ^ (1 << 23); // changes f0 only
        let c = a ^ (1 << 24); // changes f1 only
        train_simple(&mut btb, a, BranchKind::Indirect, 0x1000);
        train_simple(&mut btb, b, BranchKind::Indirect, 0x2000);
        train_simple(&mut btb, c, BranchKind::Indirect, 0x3000); // evicts a (2 ways)
        assert!(btb.lookup(VirtAddr::new(a)).is_none());
        assert!(btb.lookup(VirtAddr::new(b)).is_some());
        assert!(btb.lookup(VirtAddr::new(c)).is_some());
    }

    #[test]
    fn flush_clears_everything() {
        let mut btb = Btb::new(BtbScheme::zen34());
        train_simple(&mut btb, 0x2000, BranchKind::Direct, 0x3000);
        btb.flush();
        assert!(btb.is_empty());
        assert!(btb.lookup(VirtAddr::new(0x2000)).is_none());
    }

    #[test]
    fn retraining_the_same_kind_replaces_the_target() {
        let mut btb = Btb::new(BtbScheme::zen12());
        train_simple(&mut btb, 0x2000, BranchKind::Indirect, 0x9000);
        train_simple(&mut btb, 0x2000, BranchKind::Indirect, 0xa000);
        let hit = btb.lookup(VirtAddr::new(0x2000)).unwrap();
        assert_eq!(hit.target, Some(VirtAddr::new(0xa000)));
    }

    #[test]
    fn summary_is_compact() {
        assert_eq!(BtbScheme::zen34().summary(), "13fx2");
        assert_eq!(BtbScheme::intel().summary(), "12fx2 +priv");
    }
}
