//! The conditional-branch predictor (CBP): a set-indexed, history-mixed
//! table of saturating direction counters.
//!
//! The seed shipped a flat textbook gshare table; the CBP is
//! spec-driven instead: the set index and (optional) tag are
//! GF(2) fold functions over the branch PC *and* the global history
//! register, and the geometry — index width, associativity, counter
//! width, history length — is plain data ([`CbpScheme`]). The default
//! [`CbpScheme::legacy`] reproduces the seed table bit-for-bit (pinned
//! by golden prediction vectors in the tests); non-x86
//! schemes (the Apple-M1-style predictor with PC-bit folding that makes
//! *out-of-place* conditional mistraining possible) are just different
//! data, loadable from `phantom-uarch-spec` text.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use phantom_mem::VirtAddr;

use crate::hashfn::{parity_fold, FoldFn};
use crate::state::PredictorState;

/// Source of rewind-epoch tokens (see [`Cbp::begin_epoch`]); same
/// contract as the set-associative caches' tokens: two CBPs hold equal
/// tokens only when one was cloned from the other with no epoch
/// boundary in between.
static CBP_EPOCHS: AtomicU64 = AtomicU64::new(1);

fn next_epoch_token() -> u64 {
    CBP_EPOCHS.fetch_add(1, Ordering::Relaxed)
}

/// One CBP index-bit function: the XOR of a parity over branch-PC bits
/// and a parity over global-history bits.
///
/// # Examples
///
/// ```
/// use phantom_bpu::MixedFold;
/// use phantom_mem::VirtAddr;
/// // bit = b3 ^ h0
/// let f = MixedFold { pc: 1 << 3, hist: 1 };
/// assert_eq!(f.eval(VirtAddr::new(0b1000), 0), 1);
/// assert_eq!(f.eval(VirtAddr::new(0b1000), 1), 0);
/// assert_eq!(f.to_string(), "b3 ^ h0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MixedFold {
    /// Selected branch-PC bit positions.
    pub pc: u64,
    /// Selected history-register bit positions (bit 0 = most recent
    /// outcome).
    pub hist: u64,
}

impl MixedFold {
    /// Evaluate the fold on a branch PC under a history value (0 or 1).
    pub fn eval(&self, pc: VirtAddr, ghr: u64) -> u64 {
        parity_fold(pc.raw(), self.pc) ^ parity_fold(ghr, self.hist)
    }
}

impl fmt::Display for MixedFold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for b in (0..64).rev() {
            if self.pc >> b & 1 == 1 {
                if !first {
                    write!(f, " ^ ")?;
                }
                write!(f, "b{b}")?;
                first = false;
            }
        }
        for b in (0..64).rev() {
            if self.hist >> b & 1 == 1 {
                if !first {
                    write!(f, " ^ ")?;
                }
                write!(f, "h{b}")?;
                first = false;
            }
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

/// How a CBP indexes, tags and sizes its direction counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbpScheme {
    /// One [`MixedFold`] per set-index bit; the table has
    /// `2^index.len()` sets.
    pub index: Vec<MixedFold>,
    /// PC fold functions forming the per-entry tag. Empty means the
    /// table is untagged — every PC mapping to a set *is* that set's
    /// counter, the classic gshare aliasing that BranchSpectre-style
    /// attacks read.
    pub tag: Vec<FoldFn>,
    /// Associativity. Untagged schemes must be direct-mapped.
    pub ways: usize,
    /// Saturating-counter width in bits (direction threshold sits at
    /// the counter midpoint).
    pub counter_bits: u32,
    /// Global-history length: outcomes older than this fall off the
    /// register.
    pub history_bits: u32,
}

impl CbpScheme {
    /// The seed PHT as a scheme: 4096 sets × 1 way, untagged, 2-bit
    /// counters, 8 bits of history. Index bit `i` is PC bit `i+1` XOR
    /// history bit `i` (history covers only the low 8 index bits) —
    /// exactly `((pc >> 1) ^ ghr) & 0xfff`.
    pub fn legacy() -> CbpScheme {
        CbpScheme {
            index: (0..12)
                .map(|i| MixedFold {
                    pc: 1 << (i + 1),
                    hist: if i < 8 { 1 << i } else { 0 },
                })
                .collect(),
            tag: Vec::new(),
            ways: 1,
            counter_bits: 2,
            history_bits: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        1 << self.index.len()
    }

    /// Total counter capacity (sets × ways).
    pub fn capacity(&self) -> usize {
        self.sets() * self.ways
    }

    /// The set index of `pc` under history `ghr`.
    pub fn index_of(&self, pc: VirtAddr, ghr: u64) -> usize {
        self.index
            .iter()
            .enumerate()
            .fold(0, |idx, (i, f)| idx | ((f.eval(pc, ghr) as usize) << i))
    }

    /// The tag of `pc` (0 for untagged schemes).
    pub fn tag_of(&self, pc: VirtAddr) -> u32 {
        self.tag
            .iter()
            .enumerate()
            .fold(0, |t, (i, f)| t | ((f.eval(pc) as u32) << i))
    }

    /// Whether two branch PCs collide in this CBP under history `ghr`:
    /// same set index *and* same tag. This is the out-of-place
    /// mistraining criterion — under the legacy untagged scheme PCs
    /// 2 bytes apart already collide, while a tagged M1-style scheme
    /// only admits collisions its fold family cannot distinguish.
    pub fn aliases(&self, a: VirtAddr, b: VirtAddr, ghr: u64) -> bool {
        self.index_of(a, ghr) == self.index_of(b, ghr) && self.tag_of(a) == self.tag_of(b)
    }

    /// The counter value meaning "weakly not-taken" (reset state).
    pub fn reset_counter(&self) -> u8 {
        ((1u32 << (self.counter_bits - 1)) - 1) as u8
    }

    /// Counter values at or above this predict taken.
    pub fn taken_threshold(&self) -> u8 {
        (1u32 << (self.counter_bits - 1)) as u8
    }

    /// The saturation maximum.
    pub fn max_counter(&self) -> u8 {
        ((1u32 << self.counter_bits) - 1) as u8
    }

    /// Structural validity — the `CacheGeometry::try_new` pattern: a
    /// description of the violated constraint instead of a panic, for
    /// the uarch-spec layer to wrap with a field name.
    /// (Full-rank checks on the fold families need GF(2) elimination and
    /// live in the spec layer, which has `phantom-gf2`.)
    pub fn validate(&self) -> Result<(), String> {
        if self.index.is_empty() {
            return Err("cbp needs at least one index fold".to_string());
        }
        if self.index.len() > 24 {
            return Err(format!(
                "at most 24 cbp index folds supported (got {})",
                self.index.len()
            ));
        }
        if self.ways == 0 {
            return Err("cbp ways must be nonzero".to_string());
        }
        if self.tag.is_empty() && self.ways != 1 {
            return Err(format!(
                "an untagged cbp must be direct-mapped (got {} ways)",
                self.ways
            ));
        }
        if self.counter_bits == 0 || self.counter_bits > 8 {
            return Err(format!(
                "cbp counter bits must be in 1..=8 (got {})",
                self.counter_bits
            ));
        }
        if self.history_bits > 32 {
            return Err(format!(
                "at most 32 cbp history bits supported (got {})",
                self.history_bits
            ));
        }
        let hist_mask = (1u64 << self.history_bits) - 1;
        for (i, f) in self.index.iter().enumerate() {
            if f.pc == 0 && f.hist == 0 {
                return Err(format!("cbp index fold {i} selects no bits"));
            }
            if f.hist & !hist_mask != 0 {
                return Err(format!(
                    "cbp index fold {i} mixes history bits beyond the {}-bit register",
                    self.history_bits
                ));
            }
        }
        for (i, f) in self.tag.iter().enumerate() {
            if f.mask == 0 {
                return Err(format!("cbp tag fold {i} selects no bits"));
            }
        }
        Ok(())
    }

    /// A one-line geometry summary for CLI listings, e.g.
    /// `4096x1 c2 h8` (sets × ways, counter bits, history bits, `+tag`
    /// when the scheme tags entries).
    pub fn summary(&self) -> String {
        let tag = if self.tag.is_empty() { "" } else { " +tag" };
        format!(
            "{}x{} c{} h{}{tag}",
            self.sets(),
            self.ways,
            self.counter_bits,
            self.history_bits
        )
    }
}

/// One CBP entry: a direction counter plus (for tagged schemes) its
/// allocation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CbpEntry {
    tag: u32,
    counter: u8,
    valid: bool,
    lru: u64,
}

/// The conditional-branch predictor.
///
/// Rewinds are journaled like `phantom_cache::SetAssocCache`'s:
/// [`begin_epoch`](Cbp::begin_epoch) opens an epoch before the CBP is
/// cloned into a checkpoint, every update flags the one set it writes,
/// and [`restore_from`](Cbp::restore_from) copies back only the
/// flagged sets instead of the whole table (64 KiB for the legacy
/// scheme).
///
/// # Examples
///
/// ```
/// use phantom_bpu::{Cbp, CbpScheme};
/// use phantom_mem::VirtAddr;
///
/// let mut cbp = Cbp::new(CbpScheme::legacy());
/// let pc = VirtAddr::new(0x40_1000);
/// assert!(!cbp.predict(pc), "reset state is weakly not-taken");
/// cbp.update(pc, true);
/// // History shifted, but the counter at the *new* index is untouched;
/// // train along the same history path to flip the prediction.
/// ```
#[derive(Debug, Clone)]
pub struct Cbp {
    scheme: CbpScheme,
    entries: Vec<CbpEntry>,
    ghr: u64,
    clock: u64,
    /// Epoch token shared with the checkpoint this CBP was cloned from
    /// (if any). Equal tokens guarantee every set *not* flagged dirty
    /// still holds the checkpoint's exact contents.
    epoch_token: u64,
    /// Per-set "written since the current epoch opened" flags, one bit
    /// per set (bit `i % 64` of word `i / 64`).
    dirty: Vec<u64>,
    /// Indices flagged in `dirty`, in first-write order.
    dirty_sets: Vec<u32>,
}

impl Cbp {
    /// A CBP in reset state.
    ///
    /// # Panics
    ///
    /// Panics if the scheme fails [`CbpScheme::validate`].
    pub fn new(scheme: CbpScheme) -> Cbp {
        match Cbp::try_new(scheme) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Cbp::new`], for spec-provided schemes.
    pub fn try_new(scheme: CbpScheme) -> Result<Cbp, String> {
        scheme.validate()?;
        let reset = CbpEntry {
            tag: 0,
            counter: scheme.reset_counter(),
            // Untagged tables have no allocation state: every counter
            // exists from reset. Tagged ways allocate on first update.
            valid: scheme.tag.is_empty(),
            lru: 0,
        };
        let entries = vec![reset; scheme.capacity()];
        let sets = scheme.sets();
        Ok(Cbp {
            scheme,
            entries,
            ghr: 0,
            clock: 0,
            epoch_token: next_epoch_token(),
            dirty: vec![0; sets.div_ceil(64)],
            dirty_sets: Vec::new(),
        })
    }

    /// The indexing scheme.
    pub fn scheme(&self) -> &CbpScheme {
        &self.scheme
    }

    /// The current global history register.
    pub fn ghr(&self) -> u64 {
        self.ghr
    }

    fn set_range(&self, idx: usize) -> std::ops::Range<usize> {
        let base = idx * self.scheme.ways;
        base..base + self.scheme.ways
    }

    /// Predicted direction for a conditional at `pc` under the current
    /// history. Pure: no counter, LRU or history state is touched.
    pub fn predict(&self, pc: VirtAddr) -> bool {
        let idx = self.scheme.index_of(pc, self.ghr);
        let tag = self.scheme.tag_of(pc);
        let threshold = self.scheme.taken_threshold();
        self.entries[self.set_range(idx)]
            .iter()
            .find(|e| e.valid && e.tag == tag)
            .is_some_and(|e| e.counter >= threshold)
    }

    /// The counter currently serving `pc` (under the live history), or
    /// `None` when no way holds a matching allocation. Introspection
    /// for tests and attack calibration.
    pub fn counter(&self, pc: VirtAddr) -> Option<u8> {
        let idx = self.scheme.index_of(pc, self.ghr);
        let tag = self.scheme.tag_of(pc);
        self.entries[self.set_range(idx)]
            .iter()
            .find(|e| e.valid && e.tag == tag)
            .map(|e| e.counter)
    }

    /// Record a resolved conditional outcome: saturate the counter the
    /// pre-update history selects, then shift the outcome into the
    /// history register.
    pub fn update(&mut self, pc: VirtAddr, taken: bool) {
        let idx = self.scheme.index_of(pc, self.ghr);
        let tag = self.scheme.tag_of(pc);
        let max = self.scheme.max_counter();
        let reset = self.scheme.reset_counter();
        self.clock += 1;
        let clock = self.clock;
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.dirty[word] & bit == 0 {
            self.dirty[word] |= bit;
            self.dirty_sets.push(idx as u32);
        }
        let range = self.set_range(idx);
        let set = &mut self.entries[range];
        let entry = match set.iter_mut().find(|e| e.valid && e.tag == tag) {
            Some(e) => e,
            None => {
                // Allocate: an invalid way first, else the LRU victim.
                let victim = set
                    .iter_mut()
                    .min_by_key(|e| (e.valid, e.lru))
                    .expect("ways is nonzero");
                *victim = CbpEntry {
                    tag,
                    counter: reset,
                    valid: true,
                    lru: clock,
                };
                victim
            }
        };
        if taken {
            entry.counter = (entry.counter + 1).min(max);
        } else {
            entry.counter = entry.counter.saturating_sub(1);
        }
        entry.lru = clock;
        let hist_mask = (1u64 << self.scheme.history_bits).wrapping_sub(1);
        self.ghr = ((self.ghr << 1) | u64::from(taken)) & hist_mask;
    }

    /// Open a new rewind epoch: draw a fresh token and forget the
    /// dirty-set log. Call on the live CBP immediately before cloning
    /// it into a checkpoint; the clone shares the token, and every
    /// later update of the live CBP lands in its dirty log.
    pub fn begin_epoch(&mut self) {
        self.epoch_token = next_epoch_token();
        for &i in &self.dirty_sets {
            self.dirty[i as usize / 64] = 0;
        }
        self.dirty_sets.clear();
    }

    /// Rewind to `snap`. When `snap` shares this CBP's epoch token and
    /// has itself written nothing since the epoch opened (the
    /// [`begin_epoch`](Cbp::begin_epoch)-then-clone protocol), only
    /// the sets updated since then are copied back. Any other snapshot
    /// — a foreign one, or any after a [`flush`](Cbp::flush) — falls
    /// back to a full copy and adopts its token and log. Either way
    /// the result is bit-identical to `*self = snap.clone()`.
    pub fn restore_from(&mut self, snap: &Cbp) {
        if self.epoch_token == snap.epoch_token && snap.dirty_sets.is_empty() {
            let ways = self.scheme.ways;
            for &i in &self.dirty_sets {
                let i = i as usize;
                let span = i * ways..(i + 1) * ways;
                self.entries[span.clone()].copy_from_slice(&snap.entries[span]);
                self.dirty[i / 64] = 0;
            }
            self.dirty_sets.clear();
        } else {
            if self.scheme != snap.scheme {
                self.scheme = snap.scheme.clone();
            }
            self.entries.clone_from(&snap.entries);
            self.epoch_token = snap.epoch_token;
            self.dirty.clone_from(&snap.dirty);
            self.dirty_sets.clone_from(&snap.dirty_sets);
        }
        self.ghr = snap.ghr;
        self.clock = snap.clock;
    }

    /// Reset every counter, allocation and the history register (IBPB).
    /// Every set changes, so the rewind journal is abandoned: the next
    /// [`restore_from`](Cbp::restore_from) does a full copy.
    pub fn flush(&mut self) {
        self.begin_epoch();
        let reset = CbpEntry {
            tag: 0,
            counter: self.scheme.reset_counter(),
            valid: self.scheme.tag.is_empty(),
            lru: 0,
        };
        self.entries.fill(reset);
        self.ghr = 0;
        self.clock = 0;
    }

    /// Entries holding trained content: allocated ways for tagged
    /// schemes, counters moved off reset for untagged ones.
    pub fn len(&self) -> usize {
        let reset = self.scheme.reset_counter();
        if self.scheme.tag.is_empty() {
            self.entries.iter().filter(|e| e.counter != reset).count()
        } else {
            self.entries.iter().filter(|e| e.valid).count()
        }
    }

    /// Whether no entry holds trained content.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Test-only accessors for the rewind proptests.
#[cfg(test)]
impl Cbp {
    /// Whether every predictive field (scheme, counters, allocations,
    /// history and clock) equals `other`'s;
    /// the journal bookkeeping is not compared.
    pub(crate) fn same_state(&self, other: &Cbp) -> bool {
        self.scheme == other.scheme
            && self.entries == other.entries
            && self.ghr == other.ghr
            && self.clock == other.clock
    }

    /// Length of the dirty-set log.
    pub(crate) fn dirty_len(&self) -> usize {
        self.dirty_sets.len()
    }
}

impl PredictorState for Cbp {
    fn name(&self) -> &'static str {
        "cbp"
    }

    fn capacity(&self) -> usize {
        self.scheme.capacity()
    }

    fn live_entries(&self) -> usize {
        self.len()
    }

    fn flush(&mut self) {
        Cbp::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(raw: u64) -> VirtAddr {
        VirtAddr::new(raw)
    }

    /// The legacy CBP's predictions over the 4096-step xorshift stream
    /// of `legacy_scheme_matches_the_seed_pht_golden_vectors`, one bit
    /// per step (bit `i % 64` of word `i / 64`). Captured from the flat
    /// gshare PHT the seed shipped (`((pc >> 1) ^ ghr) & 0xfff`, 2-bit
    /// counters, 8 history bits) before that model was deleted.
    #[rustfmt::skip]
    const SEED_PHT_PREDICTIONS: [u64; 64] = [
        0x0000_0000_0000_0000, 0x0004_0000_0000_0200, 0x0000_0000_0000_0000, 0x0000_0000_0000_0522,
        0x0180_0000_0800_4000, 0x0000_0001_0000_1010, 0x0000_0000_0000_0012, 0x0002_2000_0000_0088,
        0x0000_0200_0800_0001, 0x0000_0010_0001_0000, 0x0000_0000_0000_0000, 0x0040_1000_0800_1000,
        0x0019_0000_0000_0100, 0x0800_4800_0000_0000, 0x4400_8030_0000_0000, 0x4800_2061_0880_0400,
        0x2200_1040_0200_0041, 0x4020_0280_0010_4120, 0x0300_0000_8808_0020, 0x0020_0001_0001_0200,
        0x2000_0434_8010_1008, 0xc040_8830_0840_4000, 0x4000_4003_8004_0100, 0x1048_0200_1202_1040,
        0x0000_a080_0080_4040, 0x0805_0000_0980_0200, 0x0844_0030_0280_0001, 0x0004_0000_00c0_18a0,
        0x0444_2050_0800_4114, 0x0c08_c194_0405_1002, 0xc220_9800_0410_8000, 0x1080_a0c8_1c08_0400,
        0x0605_0c00_9020_8080, 0x0152_0007_4890_402a, 0x0012_0088_1110_2480, 0x0b44_0808_1f02_0800,
        0x0400_a70a_40e0_4081, 0x1201_0141_80ac_0000, 0x4018_0760_8004_0000, 0x1322_a601_22a4_4000,
        0x8009_6008_8902_9800, 0x0700_6000_5004_0104, 0x9100_4189_b600_1010, 0xf000_4304_681b_180a,
        0x0600_8000_40f1_0000, 0x0028_2e04_6004_4046, 0x0905_206a_0184_3004, 0xc059_1000_8011_0480,
        0x0508_6480_5414_2029, 0x8895_1141_c981_2201, 0x0201_0000_9d11_4850, 0x3040_3246_0e11_0001,
        0x0040_0583_0883_3140, 0x0b11_480a_1818_8048, 0x5481_6e28_0003_4440, 0x0284_4149_0402_010c,
        0x2c40_5500_2009_0000, 0x0820_3080_605e_1510, 0x5403_a098_2080_1406, 0x040c_5240_0402_2488,
        0x1456_84a9_4402_0270, 0x2800_0cc9_8910_5c18, 0xe300_1239_0012_d805, 0x2180_0521_a020_1213,
    ];

    #[test]
    fn legacy_scheme_matches_the_seed_pht_golden_vectors() {
        // The refactor's ground truth: drive the spec-driven legacy CBP
        // with the outcome stream the seed PHT was recorded on and
        // demand its prediction at every step.
        let mut cbp = Cbp::new(CbpScheme::legacy());
        let mut x = 0x243f_6a88_85a3_08d3u64; // xorshift, deterministic
        for i in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = pc(0x40_0000 + (x & 0xffff));
            let taken = x >> 17 & 1 == 1;
            let want = SEED_PHT_PREDICTIONS[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(cbp.predict(a), want, "predict diverged at step {i}");
            cbp.update(a, taken);
        }
    }

    #[test]
    fn legacy_index_is_the_gshare_formula() {
        let s = CbpScheme::legacy();
        for (a, ghr) in [(0x40_1234u64, 0u64), (0xffff_ffff_8124_6ac0, 0xa5)] {
            let expect = ((a >> 1) ^ (ghr & 0xff)) as usize & 4095;
            assert_eq!(s.index_of(pc(a), ghr), expect);
        }
    }

    #[test]
    fn reset_state_predicts_not_taken() {
        let cbp = Cbp::new(CbpScheme::legacy());
        assert!(!cbp.predict(pc(0x1000)));
        assert!(cbp.is_empty());
    }

    #[test]
    fn saturating_training_flips_and_unflips() {
        let mut cbp = Cbp::new(CbpScheme::legacy());
        let a = pc(0x40_1000);
        // Hold history constant by reading the counter through the
        // scheme directly: train along whatever index the live history
        // selects each step; after enough taken outcomes the counter at
        // the *stable* history (all-taken pattern) saturates.
        for _ in 0..16 {
            cbp.update(a, true);
        }
        assert!(cbp.predict(a), "saturated taken");
        for _ in 0..16 {
            cbp.update(a, false);
        }
        assert!(!cbp.predict(a), "trained back down");
    }

    #[test]
    fn tagged_scheme_separates_colliding_pcs() {
        // Two PCs in the same set but with different tags get their own
        // ways; the untagged legacy scheme would share one counter.
        let mut scheme = CbpScheme::legacy();
        scheme.tag = vec![FoldFn::of_bits(&[20]), FoldFn::of_bits(&[21])];
        scheme.ways = 2;
        let mut cbp = Cbp::new(scheme);
        let a = pc(0x40_1000);
        let b = pc(0x40_1000 | 1 << 20); // same index bits, different tag
        assert_eq!(cbp.scheme().index_of(a, 0), cbp.scheme().index_of(b, 0));
        assert_ne!(cbp.scheme().tag_of(a), cbp.scheme().tag_of(b));
        // Interleave: a trained taken, b trained not-taken, same set.
        for _ in 0..8 {
            cbp.update(a, true);
            cbp.update(b, false);
        }
        assert!(cbp.predict(a));
        assert!(!cbp.predict(b));
    }

    #[test]
    fn untagged_collisions_share_the_counter() {
        let mut cbp = Cbp::new(CbpScheme::legacy());
        let a = pc(0x40_1000);
        let b = pc(a.raw() | 1 << 20); // legacy index ignores b20: collides
        assert!(cbp.scheme().aliases(a, b, cbp.ghr()));
        for _ in 0..16 {
            cbp.update(a, true);
        }
        assert!(cbp.predict(b), "out-of-place training through the alias");
    }

    #[test]
    fn validate_rejects_degenerate_schemes() {
        let ok = CbpScheme::legacy();
        assert!(ok.validate().is_ok());
        let mut s = ok.clone();
        s.index.clear();
        assert!(s.validate().unwrap_err().contains("index fold"));
        let mut s = ok.clone();
        s.ways = 0;
        assert!(s.validate().unwrap_err().contains("ways"));
        let mut s = ok.clone();
        s.ways = 2; // untagged + associative
        assert!(s.validate().unwrap_err().contains("direct-mapped"));
        let mut s = ok.clone();
        s.counter_bits = 0;
        assert!(s.validate().unwrap_err().contains("counter bits"));
        let mut s = ok.clone();
        s.index[0] = MixedFold { pc: 0, hist: 0 };
        assert!(s.validate().unwrap_err().contains("selects no bits"));
        let mut s = ok;
        s.index[0].hist = 1 << 20; // beyond the 8-bit register
        assert!(s.validate().unwrap_err().contains("history"));
    }

    #[test]
    fn predictor_state_surface() {
        let mut cbp = Cbp::new(CbpScheme::legacy());
        assert_eq!(PredictorState::name(&cbp), "cbp");
        assert_eq!(PredictorState::capacity(&cbp), 4096);
        assert_eq!(PredictorState::live_entries(&cbp), 0);
        cbp.update(pc(0x1000), true);
        assert_eq!(PredictorState::live_entries(&cbp), 1);
        PredictorState::flush(&mut cbp);
        assert!(cbp.is_empty());
    }

    #[test]
    fn mixed_fold_displays_pc_then_history_terms() {
        let f = MixedFold {
            pc: (1 << 13) | (1 << 3),
            hist: 1 << 1,
        };
        assert_eq!(f.to_string(), "b13 ^ b3 ^ h1");
        assert_eq!(MixedFold { pc: 0, hist: 0 }.to_string(), "0");
    }

    #[test]
    fn summary_is_compact() {
        assert_eq!(CbpScheme::legacy().summary(), "4096x1 c2 h8");
    }
}
