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
use phantom_mem::{IntMap, PrivilegeLevel, VirtAddr};

use crate::hashfn::FoldFamily;

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
    /// Primary target slot: (BHB tag at training time, target).
    target: (u16, StoredTarget),
    /// Optional secondary target slot — §2.1: "BTB entries can serve
    /// multiple targets … the BPU selects the target by matching a tag
    /// of the current BHB".
    alt_target: Option<(u16, StoredTarget)>,
    lru: u64,
}

impl BtbEntry {
    fn resolve(stored: StoredTarget, source: VirtAddr) -> VirtAddr {
        match stored {
            StoredTarget::Abs(t) => t,
            StoredTarget::Rel(d) => VirtAddr::new(source.raw().wrapping_add(d as u64)),
        }
    }

    /// The predicted target when this entry fires at `source` (primary
    /// slot). Returns `None` for `ret`-kind entries (the RSB provides
    /// those).
    pub fn target_at(&self, source: VirtAddr) -> Option<VirtAddr> {
        Some(Self::resolve(self.target.1, source))
    }

    /// The predicted target under a specific BHB history tag: the slot
    /// whose training tag matches wins; otherwise the primary (most
    /// recently trained) slot serves.
    pub fn target_for_history(&self, source: VirtAddr, bhb_tag: u16) -> Option<VirtAddr> {
        if let Some((tag, stored)) = self.alt_target {
            if tag == bhb_tag && self.target.0 != bhb_tag {
                return Some(Self::resolve(stored, source));
            }
        }
        Some(Self::resolve(self.target.1, source))
    }

    /// Whether the entry currently holds two targets.
    pub fn is_multi_target(&self) -> bool {
        self.alt_target.is_some()
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

/// The Branch Target Buffer.
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
    /// Entries bucketed by page offset; fold signatures disambiguate.
    buckets: IntMap<u16, Vec<BtbEntry>>,
    clock: u64,
}

impl Btb {
    /// An empty BTB with the given scheme.
    pub fn new(scheme: BtbScheme) -> Btb {
        Btb {
            scheme,
            buckets: IntMap::default(),
            clock: 0,
        }
    }

    /// The indexing scheme.
    pub fn scheme(&self) -> &BtbScheme {
        &self.scheme
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
        self.train_with_history(source, kind, target, level, thread, 0);
    }

    /// [`Btb::train`] under an explicit BHB history tag. Retraining an
    /// aliasing entry with a *different* tag keeps the old target in the
    /// secondary slot, so the entry serves per-history targets.
    pub fn train_with_history(
        &mut self,
        source: VirtAddr,
        kind: BranchKind,
        target: VirtAddr,
        level: PrivilegeLevel,
        thread: u8,
        bhb_tag: u16,
    ) {
        self.clock += 1;
        let page_offset = (source.raw() & 0xfff) as u16;
        let signature = self.scheme.family.signature(source);
        let stored = if kind.target_is_relative() {
            StoredTarget::Rel(target.raw().wrapping_sub(source.raw()) as i64)
        } else {
            StoredTarget::Abs(target)
        };
        let privilege_tagged = self.scheme.privilege_tagged;
        let ways = self.scheme.ways;
        let clock = self.clock;
        let bucket = self.buckets.entry(page_offset).or_default();
        // Alias match: same signature (and privilege when tagged).
        if let Some(existing) = bucket
            .iter_mut()
            .find(|e| e.signature == signature && (!privilege_tagged || e.trained_at == level))
        {
            // Same kind, different history: demote the old target to the
            // secondary slot instead of forgetting it (§2.1 multi-target
            // entries). A kind change always replaces the whole entry.
            let alt_target = if existing.kind == kind && existing.target.0 != bhb_tag {
                Some(existing.target)
            } else {
                None
            };
            *existing = BtbEntry {
                page_offset,
                signature,
                kind,
                trained_at: level,
                thread,
                target: (bhb_tag, stored),
                alt_target,
                lru: clock,
            };
            return;
        }
        let entry = BtbEntry {
            page_offset,
            signature,
            kind,
            trained_at: level,
            thread,
            target: (bhb_tag, stored),
            alt_target: None,
            lru: clock,
        };
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
        self.lookup_with_history(source, 0)
    }

    /// [`Btb::lookup`] under an explicit BHB history tag (selects among
    /// multi-target entry slots).
    pub fn lookup_with_history(&self, source: VirtAddr, bhb_tag: u16) -> Option<BtbHit> {
        let page_offset = (source.raw() & 0xfff) as u16;
        // Bucket first: most window bytes have no entry at their page
        // offset at all, and the fold signature is only worth computing
        // once a bucket exists.
        let bucket = self.buckets.get(&page_offset)?;
        let signature = self.scheme.family.signature(source);
        let entry = bucket.iter().find(|e| e.signature == signature)?;
        let target = if entry.kind == BranchKind::Ret {
            None
        } else {
            entry.target_for_history(source, bhb_tag)
        };
        Some(BtbHit {
            source,
            kind: entry.kind,
            target,
            trained_at: entry.trained_at,
            thread: entry.thread,
        })
    }

    /// Scan a fetch window `[base, base+len)` for the first predicted
    /// branch source, in address order. This is the pre-decode BTB query
    /// the fetch unit performs for every block.
    pub fn lookup_window(&self, base: VirtAddr, len: u64) -> Option<BtbHit> {
        (0..len).find_map(|off| self.lookup(base + off))
    }

    /// Remove every entry (IBPB).
    pub fn flush(&mut self) {
        self.buckets.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Whether the BTB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Hand-written so [`clone_from`](Clone::clone_from) — the per-trial
/// rewind — reuses the bucket table instead of reallocating it, and
/// skips the scheme when it already matches.
impl Clone for Btb {
    fn clone(&self) -> Btb {
        Btb {
            scheme: self.scheme.clone(),
            buckets: self.buckets.clone(),
            clock: self.clock,
        }
    }

    fn clone_from(&mut self, source: &Btb) {
        if self.scheme != source.scheme {
            self.scheme = source.scheme.clone();
        }
        self.buckets.clone_from(&source.buckets);
        self.clock = source.clock;
    }
}

#[cfg(test)]
impl Btb {
    /// Test-only: whether every field equals `other`'s.
    pub(crate) fn same_state(&self, other: &Btb) -> bool {
        self.scheme == other.scheme && self.buckets == other.buckets && self.clock == other.clock
    }
}

impl crate::state::PredictorState for Btb {
    fn name(&self) -> &'static str {
        "btb"
    }

    fn capacity(&self) -> usize {
        // One bucket per page offset, `ways` entries each.
        4096 * self.scheme.ways
    }

    fn live_entries(&self) -> usize {
        self.len()
    }

    fn flush(&mut self) {
        Btb::flush(self);
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
        let hit = btb.lookup_window(VirtAddr::new(0x1000), 32).unwrap();
        assert_eq!(hit.source, VirtAddr::new(0x1008), "address order wins");
        assert!(btb.lookup_window(VirtAddr::new(0x1020), 32).is_none());
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
}

#[cfg(test)]
mod multi_target_tests {
    use super::*;

    fn train_hist(btb: &mut Btb, src: u64, tgt: u64, tag: u16) {
        btb.train_with_history(
            VirtAddr::new(src),
            BranchKind::Indirect,
            VirtAddr::new(tgt),
            PrivilegeLevel::User,
            0,
            tag,
        );
    }

    #[test]
    fn two_histories_two_targets() {
        // §2.1: one entry serves per-history targets.
        let mut btb = Btb::new(BtbScheme::zen34());
        let src = 0x40_0ac0;
        train_hist(&mut btb, src, 0x1000, 7);
        train_hist(&mut btb, src, 0x2000, 9);
        let at = |tag: u16| {
            btb.lookup_with_history(VirtAddr::new(src), tag)
                .unwrap()
                .target
                .unwrap()
                .raw()
        };
        assert_eq!(at(7), 0x1000, "old history tag serves the old target");
        assert_eq!(at(9), 0x2000, "new history tag serves the new target");
        // An unknown history falls back to the most recent target.
        assert_eq!(at(42), 0x2000);
    }

    #[test]
    fn kind_change_discards_the_secondary_slot() {
        let mut btb = Btb::new(BtbScheme::zen34());
        let src = 0x40_0ac0;
        train_hist(&mut btb, src, 0x1000, 7);
        // Retrain as a direct branch: the indirect slot must not survive.
        btb.train_with_history(
            VirtAddr::new(src),
            BranchKind::Direct,
            VirtAddr::new(0x3000),
            PrivilegeLevel::User,
            0,
            9,
        );
        let hit = btb.lookup_with_history(VirtAddr::new(src), 7).unwrap();
        assert_eq!(hit.kind, BranchKind::Direct);
        assert_eq!(hit.target, Some(VirtAddr::new(0x3000)));
    }

    #[test]
    fn same_history_retrain_stays_single_target() {
        let mut btb = Btb::new(BtbScheme::zen34());
        let src = 0x40_0ac0;
        train_hist(&mut btb, src, 0x1000, 7);
        train_hist(&mut btb, src, 0x2000, 7);
        assert_eq!(
            btb.lookup_with_history(VirtAddr::new(src), 7)
                .unwrap()
                .target,
            Some(VirtAddr::new(0x2000))
        );
    }

    #[test]
    fn default_tag_paths_are_unchanged() {
        // The default train/lookup pair behaves exactly like a
        // single-target BTB (tag 0 everywhere) — the Phantom machinery
        // runs on this path.
        let mut btb = Btb::new(BtbScheme::zen12());
        btb.train(
            VirtAddr::new(0x2000),
            BranchKind::Indirect,
            VirtAddr::new(0x9000),
            PrivilegeLevel::User,
            0,
        );
        btb.train(
            VirtAddr::new(0x2000),
            BranchKind::Indirect,
            VirtAddr::new(0xa000),
            PrivilegeLevel::User,
            0,
        );
        let hit = btb.lookup(VirtAddr::new(0x2000)).unwrap();
        assert_eq!(hit.target, Some(VirtAddr::new(0xa000)));
    }

    #[test]
    fn summary_is_compact() {
        assert_eq!(BtbScheme::zen34().summary(), "13fx2");
        assert_eq!(BtbScheme::intel().summary(), "12fx2 +priv");
    }
}
