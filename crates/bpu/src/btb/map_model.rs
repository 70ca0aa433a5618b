//! Test-only reference model: the BTB with its buckets in an
//! `IntMap<page offset, Vec<entry>>`, as it was before [`super::Btb`]
//! kept them in page-offset order behind an occupancy bitmap with
//! spare vectors for rewinds. `proptests.rs` checks the two agree on
//! every entry, window scan and count over random training, flush and
//! rewind sequences. The implementation below is kept as it was, with
//! its doc comments dropped and, like [`super::Btb`], a single target
//! per entry.

use phantom_isa::BranchKind;
use phantom_mem::{IntMap, PrivilegeLevel, VirtAddr};

use super::{BtbEntry, BtbHit, BtbScheme, StoredTarget};

#[derive(Debug)]
pub(crate) struct MapBtb {
    scheme: BtbScheme,
    buckets: IntMap<u16, Vec<BtbEntry>>,
    clock: u64,
}

impl MapBtb {
    pub(crate) fn new(scheme: BtbScheme) -> MapBtb {
        MapBtb {
            scheme,
            buckets: IntMap::default(),
            clock: 0,
        }
    }

    pub(crate) fn train(
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
            *existing = BtbEntry {
                page_offset,
                signature,
                kind,
                trained_at: level,
                thread,
                target: stored,
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
            target: stored,
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

    pub(crate) fn lookup(&self, source: VirtAddr) -> Option<BtbHit> {
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
            Some(entry.target_at(source))
        };
        Some(BtbHit {
            source,
            kind: entry.kind,
            target,
            trained_at: entry.trained_at,
            thread: entry.thread,
        })
    }

    pub(crate) fn lookup_window(&self, base: VirtAddr, len: u64) -> Option<BtbHit> {
        (0..len).find_map(|off| self.lookup(base + off))
    }

    pub(crate) fn flush(&mut self) {
        self.buckets.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for MapBtb {
    fn clone(&self) -> MapBtb {
        MapBtb {
            scheme: self.scheme.clone(),
            buckets: self.buckets.clone(),
            clock: self.clock,
        }
    }

    fn clone_from(&mut self, source: &MapBtb) {
        if self.scheme != source.scheme {
            self.scheme = source.scheme.clone();
        }
        self.buckets.clone_from(&source.buckets);
        self.clock = source.clock;
    }
}

impl MapBtb {
    /// Every entry, in page-offset then bucket order.
    pub(crate) fn entries(&self) -> Vec<BtbEntry> {
        let mut offsets: Vec<u16> = self.buckets.keys().copied().collect();
        offsets.sort_unstable();
        offsets
            .iter()
            .flat_map(|o| self.buckets[o].iter().copied())
            .collect()
    }
}
