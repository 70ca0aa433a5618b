//! Test-only reference model: the TLB with one `Vec` per set, as it
//! was before [`crate::Tlb`] stored its sets flat (`sets × ways` slots
//! plus a fill count per set). `proptests.rs` checks the two agree on
//! every lookup, peek, counter and occupancy over random operation
//! sequences, rewinds included. The implementation below is kept as it
//! was, with its doc comments dropped.

use crate::addr::{PhysAddr, VirtAddr};
use crate::paging::PageFlags;
use crate::tlb::TlbEntry;

#[derive(Debug)]
pub(crate) struct NestedTlb {
    sets: Vec<Vec<(TlbEntry, u64)>>,
    ways: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Clone for NestedTlb {
    fn clone(&self) -> NestedTlb {
        NestedTlb {
            sets: self.sets.clone(),
            ways: self.ways,
            clock: self.clock,
            hits: self.hits,
            misses: self.misses,
        }
    }

    fn clone_from(&mut self, source: &NestedTlb) {
        self.sets.clone_from(&source.sets);
        self.ways = source.ways;
        self.clock = source.clock;
        self.hits = source.hits;
        self.misses = source.misses;
    }
}

impl NestedTlb {
    pub(crate) fn new(sets: usize, ways: usize) -> NestedTlb {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        NestedTlb {
            sets: vec![Vec::new(); sets],
            ways,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.sets.len() - 1)
    }

    pub(crate) fn lookup(&mut self, va: VirtAddr, asid: u16) -> Option<TlbEntry> {
        self.clock += 1;
        let vpn = va.page_number();
        let clock = self.clock;
        let set = self.set_of(vpn);
        if let Some((entry, stamp)) = self.sets[set]
            .iter_mut()
            .find(|(e, _)| e.vpn == vpn && e.asid == asid)
        {
            *stamp = clock;
            self.hits += 1;
            return Some(*entry);
        }
        self.misses += 1;
        None
    }

    pub(crate) fn peek(&self, va: VirtAddr, asid: u16) -> Option<&TlbEntry> {
        let vpn = va.page_number();
        let set = self.set_of(vpn);
        self.sets[set]
            .iter()
            .find(|(e, _)| e.vpn == vpn && e.asid == asid)
            .map(|(e, _)| e)
    }

    pub(crate) fn insert(
        &mut self,
        va: VirtAddr,
        frame: PhysAddr,
        flags: PageFlags,
        asid: u16,
        pt_version: u64,
    ) {
        self.clock += 1;
        let vpn = va.page_number();
        let set = self.set_of(vpn);
        let ways = self.ways;
        let clock = self.clock;
        let entries = &mut self.sets[set];
        if let Some((e, stamp)) = entries
            .iter_mut()
            .find(|(e, _)| e.vpn == vpn && e.asid == asid)
        {
            *e = TlbEntry {
                vpn,
                frame: frame.page_base(),
                flags,
                asid,
                pt_version,
            };
            *stamp = clock;
            return;
        }
        if entries.len() >= ways {
            if let Some(pos) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
            {
                entries.remove(pos);
            }
        }
        entries.push((
            TlbEntry {
                vpn,
                frame: frame.page_base(),
                flags,
                asid,
                pt_version,
            },
            clock,
        ));
    }

    pub(crate) fn refresh(
        &mut self,
        va: VirtAddr,
        asid: u16,
        frame: PhysAddr,
        flags: PageFlags,
        pt_version: u64,
    ) {
        let vpn = va.page_number();
        let set = self.set_of(vpn);
        if let Some((e, _)) = self.sets[set]
            .iter_mut()
            .find(|(e, _)| e.vpn == vpn && e.asid == asid)
        {
            e.frame = frame.page_base();
            e.flags = flags;
            e.pt_version = pt_version;
        }
    }

    pub(crate) fn invalidate_page(&mut self, va: VirtAddr, asid: u16) {
        let vpn = va.page_number();
        let set = self.set_of(vpn);
        self.sets[set].retain(|(e, _)| !(e.vpn == vpn && e.asid == asid));
    }

    pub(crate) fn invalidate_asid(&mut self, asid: u16) {
        for set in &mut self.sets {
            set.retain(|(e, _)| e.asid != asid);
        }
    }

    pub(crate) fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    pub(crate) fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}
