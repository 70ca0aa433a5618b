//! Boot-image cache: stamp out booted systems without re-running boot.
//!
//! A campaign boots one [`System`] per job — same microarchitecture,
//! same physical-memory size, different KASLR seed — and the boot
//! itself (machine construction, kernel assembly, blob loading, the
//! physmap walk) dominates short jobs. But everything a boot produces
//! is seed-independent *except* three things: where KASLR placed the
//! image and physmap, and the planted secret bytes. So boot once per
//! `(profile, phys_bytes)` into an immortal **template** at a canonical
//! layout, and per seed:
//!
//! 1. clone the template machine: physical frames, the page-table maps
//!    and (the template being sealed) every cache, µop-cache and CBP
//!    set chunk stay `Arc`-shared (copy-on-write) with the template,
//!    so what is copied is the frame map (one `Arc` per 64-frame
//!    chunk, about 17 for a 1 GiB machine, plus the dirty-frame
//!    journal), one pointer per 16-set chunk, the TLB, the BTB and
//!    small state — no set, no per-frame work and no page-table
//!    entry;
//! 2. rebase the image's 4 KiB and the physmap's 2 MiB page-table
//!    entries from the canonical bases to the seed's randomized bases
//!    (same frames, same flags — see
//!    [`PageTable::rebase_4k_range`](phantom_mem::PageTable::rebase_4k_range)).
//!    Each map holds extents (runs of pages on consecutive frames with
//!    equal flags), and a boot's kernel half is two of them (image,
//!    module) and its physmap one, so the rebase moves three extents,
//!    not 1,568 entries: each touched map is rebuilt from its few
//!    extents into a fresh allocation, and the user half stays shared;
//! 3. re-plant the seed's secret and re-point the syscall entry. The
//!    secret's 4,096 drawn bytes are now the largest piece of an
//!    instance.
//!
//! The result is observationally identical to [`System::new`] with the
//! same seed: the image blob is position-independent (its branches are
//! `rel32`; the only absolute immediate targets the unrandomized
//! module), physical frame allocation order is deterministic so every
//! VA translates to the same PA either way, and the template is never
//! executed, so its caches, TLB, predictors and cycle counter are as
//! cold as a fresh boot's. `boot_matches_a_fresh_boot` checks this
//! end-to-end; the campaign determinism suite pins it at the
//! trial-output level.
//!
//! The cache is a [`TemplateStore`], process-global behind
//! [`System::new_cached`], the only production boot path (attack
//! sweeps that boot once per trial go through it too); [`System::new`]
//! stays as the fresh-boot reference it is
//! tested against. Per-instance [`BootCache`] values serve tests and
//! counter plumbing that need isolation.
//!
//! A template is a frozen machine: every instance stamped from it
//! inherits exactly the state its construction produced. Machine
//! construction reads no environment, so nothing outside the explicit
//! boot arguments can make a template differ from a fresh boot.

use std::sync::Arc;

use phantom_mem::{HUGE_PAGE_SIZE, PAGE_SIZE};
use phantom_pipeline::{TemplateStore, UarchProfile};

use crate::layout::KaslrLayout;
use crate::module::secret_for;
use crate::system::{System, SystemError};

/// One canonical boot, cloned and rebased per seed.
///
/// The template system is booted at [`KaslrLayout::fixed`]`(0, 0)` and
/// never executed; [`BootTemplate::instantiate`] clones it per seed.
#[derive(Debug)]
pub struct BootTemplate {
    system: System,
    /// 4 KiB pages the image blob occupies at the canonical base.
    image_pages: u64,
    /// 2 MiB physmap entries (physical capacity / huge-page size).
    physmap_entries: u64,
}

impl BootTemplate {
    /// Boot the canonical template for one `(profile, phys_bytes)`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the underlying boot fails.
    pub fn new(profile: UarchProfile, phys_bytes: u64) -> Result<BootTemplate, SystemError> {
        // The template's own seed is irrelevant: everything
        // seed-dependent is replaced at instantiation.
        let mut system = System::with_layout(profile, phys_bytes, 0, KaslrLayout::fixed(0, 0))?;
        // Instances clone the machine: let them share every set.
        system.machine_mut().seal();
        let image_base = system.layout().image_base();
        let mut image_pages = 0;
        while system
            .machine()
            .page_table()
            .flags_of(image_base + image_pages * PAGE_SIZE)
            .is_some()
        {
            image_pages += 1;
        }
        let physmap_entries = system.machine().phys().capacity() / HUGE_PAGE_SIZE;
        Ok(BootTemplate {
            system,
            image_pages,
            physmap_entries,
        })
    }

    /// Stamp out a system for `seed`, observationally identical to
    /// `System::new(profile, phys_bytes, seed)`.
    ///
    /// Infallible: the canonical boot already did everything that can
    /// fail, and rebasing moves existing mappings.
    pub fn instantiate(&self, seed: u64) -> System {
        let layout = KaslrLayout::randomize(seed);
        let canonical = self.system.layout();
        let mut machine = self.system.machine().clone();
        machine.page_table_mut().rebase_4k_range(
            canonical.image_base(),
            layout.image_base(),
            self.image_pages,
        );
        machine.page_table_mut().rebase_2m_range(
            canonical.physmap_base(),
            layout.physmap_base(),
            self.physmap_entries,
        );
        let image = self.system.image().rebased(layout.image_base());
        machine.set_syscall_entry(Some(image.entry));
        // Re-plant the seed's secret (module space is unrandomized, so
        // the address is the template's; the write CoW-unshares the
        // frame from the template).
        let secret = secret_for(seed);
        machine.poke(self.system.module().secret, &secret);
        System::assemble(machine, layout, image, *self.system.module(), secret, seed)
    }
}

/// A set of boot templates keyed by `(phys_bytes, profile)`, with hit
/// accounting: a [`TemplateStore`] of [`BootTemplate`]s.
///
/// [`System::new_cached`] goes through the process-global instance;
/// constructing a private one isolates the hit counters (the bench
/// snapshot references do this to stay deterministic).
#[derive(Debug, Default)]
pub struct BootCache {
    templates: TemplateStore<(u64, UarchProfile), BootTemplate>,
}

impl BootCache {
    /// An empty cache.
    pub const fn new() -> BootCache {
        BootCache {
            templates: TemplateStore::new(),
        }
    }

    /// Boot a system for `seed`, building the `(profile, phys_bytes)`
    /// template on first use and cloning it afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the template boot fails.
    pub fn boot(
        &self,
        profile: UarchProfile,
        phys_bytes: u64,
        seed: u64,
    ) -> Result<System, SystemError> {
        Ok(self.template_for(profile, phys_bytes)?.instantiate(seed))
    }

    /// Boots served from an existing template.
    pub fn hits(&self) -> u64 {
        self.templates.hits()
    }

    /// Boots that had to build a template first.
    pub fn misses(&self) -> u64 {
        self.templates.misses()
    }

    fn template_for(
        &self,
        profile: UarchProfile,
        phys_bytes: u64,
    ) -> Result<Arc<BootTemplate>, SystemError> {
        let key = (phys_bytes, profile);
        self.templates
            .get_or_build(&key, || BootTemplate::new(key.1.clone(), phys_bytes))
    }
}

/// The process-global cache behind [`System::new_cached`].
pub fn global() -> &'static BootCache {
    static GLOBAL: BootCache = BootCache::new();
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sysno;
    use phantom_isa::Reg;
    use phantom_mem::{AccessKind, PageFlags, PhysAddr, PrivilegeLevel, VirtAddr};
    use proptest::prelude::*;

    const PHYS: u64 = 1 << 26;

    /// Supervisor read translation and flags at `va` — everything a
    /// page-table entry decides.
    fn pte_view(
        m: &phantom_pipeline::Machine,
        va: VirtAddr,
    ) -> (Option<PageFlags>, Option<PhysAddr>) {
        let pt = m.page_table();
        let pa = pt.translate(va, AccessKind::Read, PrivilegeLevel::Supervisor);
        (pt.flags_of(va), pa.ok())
    }

    /// The first seed whose image lands on `slot`: slot 0 is the
    /// canonical slot (a no-op image rebase), slot 1 the one above it
    /// (source and destination ranges overlap).
    fn slot_seed(slot: u64) -> u64 {
        (0u64..)
            .find(|&s| KaslrLayout::randomize(s).image_slot == slot)
            .unwrap()
    }

    /// Every entry of both 4 KiB halves and of the huge map of an
    /// instance equals a fresh boot's, at the production memory size.
    fn assert_same_page_table(cache: &BootCache, seed: u64) {
        let phys = 1 << 30;
        let fresh = System::new(UarchProfile::zen3(), phys, seed).unwrap();
        let cached = cache.boot(UarchProfile::zen3(), phys, seed).unwrap();
        let [fresh, cached] = [fresh, cached].map(|sys| sys.machine().page_table().entry_lists());
        for (map, (want, got)) in ["user 4k", "kernel 4k", "2M"]
            .iter()
            .zip(fresh.iter().zip(&cached))
        {
            assert!(!want.is_empty(), "{map} map is empty (seed {seed})");
            assert!(
                want == got,
                "{map} entries differ from a fresh boot's (seed {seed})"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A boot-template instance's page table is a fresh boot's,
        /// entry for entry.
        #[test]
        fn instance_page_table_equals_a_fresh_boot(seed in any::<u64>()) {
            static CACHE: BootCache = BootCache::new();
            assert_same_page_table(&CACHE, seed);
        }
    }

    #[test]
    fn instance_page_table_equals_a_fresh_boot_on_the_edge_slots() {
        let cache = BootCache::new();
        for seed in [slot_seed(0), slot_seed(1)] {
            assert_same_page_table(&cache, seed);
        }
    }

    #[test]
    fn boot_matches_a_fresh_boot() {
        let cache = BootCache::new();
        let template = cache.template_for(UarchProfile::zen2(), PHYS).unwrap();
        let canonical = KaslrLayout::fixed(0, 0);
        // Besides arbitrary seeds, the two edge slots.
        for seed in [11u64, 0xc0de, 7_777_777, slot_seed(0), slot_seed(1)] {
            let mut fresh = System::new(UarchProfile::zen2(), PHYS, seed).unwrap();
            let mut cached = cache.boot(UarchProfile::zen2(), PHYS, seed).unwrap();

            // Ground truth matches.
            assert_eq!(cached.layout(), fresh.layout(), "seed {seed}");
            assert_eq!(cached.image(), fresh.image());
            assert_eq!(cached.module(), fresh.module());
            assert_eq!(cached.secret(), fresh.secret());
            assert_eq!(cached.boot_seed(), fresh.boot_seed());

            // Same bytes behind the randomized mappings.
            let probe_points = [
                fresh.image().entry,
                fresh.image().listing1_nop,
                fresh.image().listing3_gadget,
                fresh.module().secret,
                fresh.layout().physmap_base(),
            ];
            for va in probe_points {
                assert_eq!(
                    cached.machine().try_peek(va, 32).unwrap(),
                    fresh.machine().try_peek(va, 32).unwrap(),
                    "bytes at {va} (seed {seed})"
                );
            }
            // Same physical placement (frame allocation order is
            // deterministic, and rebasing preserves frames).
            for va in probe_points {
                let translate = |m: &phantom_pipeline::Machine| {
                    m.page_table()
                        .translate(
                            va,
                            phantom_mem::AccessKind::Read,
                            PrivilegeLevel::Supervisor,
                        )
                        .unwrap()
                };
                assert_eq!(translate(cached.machine()), translate(fresh.machine()));
            }

            // Every image page and every physmap huge page (plus the
            // page past each range) translates exactly as on a fresh
            // boot, at the seed's bases and at the canonical ones.
            let image_pages = template.image_pages;
            let physmap_entries = template.physmap_entries;
            assert!(image_pages > 0 && physmap_entries > 0);
            for layout in [fresh.layout(), canonical] {
                for i in 0..=image_pages {
                    let va = layout.image_base() + i * PAGE_SIZE;
                    assert_eq!(
                        pte_view(cached.machine(), va),
                        pte_view(fresh.machine(), va),
                        "image page {i} at {va} (seed {seed})"
                    );
                }
                for i in 0..=physmap_entries {
                    let va = layout.physmap_base() + i * HUGE_PAGE_SIZE;
                    assert_eq!(
                        pte_view(cached.machine(), va),
                        pte_view(fresh.machine(), va),
                        "physmap page {i} at {va} (seed {seed})"
                    );
                }
            }

            // The canonical ranges are fully vacated: every canonical
            // page the seed's own range does not cover is unmapped.
            let image = fresh.layout().image_base().raw()
                ..fresh.layout().image_base().raw() + image_pages * PAGE_SIZE;
            for i in 0..image_pages {
                let va = canonical.image_base() + i * PAGE_SIZE;
                if !image.contains(&va.raw()) {
                    assert_eq!(pte_view(cached.machine(), va), (None, None), "{va}");
                }
            }
            if fresh.layout().physmap_slot != 0 {
                for i in 0..physmap_entries {
                    let va = canonical.physmap_base() + i * HUGE_PAGE_SIZE;
                    assert_eq!(pte_view(cached.machine(), va), (None, None), "{va}");
                }
            }
            assert_eq!(
                cached.machine().page_table().entry_lists(),
                fresh.machine().page_table().entry_lists()
            );

            // Identical behavior and timing.
            assert_eq!(cached.machine().cycles(), fresh.machine().cycles());
            cached.getpid().unwrap();
            fresh.getpid().unwrap();
            assert_eq!(cached.machine().reg(Reg::R1), fresh.machine().reg(Reg::R1));
            assert_eq!(cached.machine().cycles(), fresh.machine().cycles());
            cached.syscall(sysno::MODULE_READ_DATA, &[8, 0]).unwrap();
            fresh.syscall(sysno::MODULE_READ_DATA, &[8, 0]).unwrap();
            assert_eq!(cached.machine().reg(Reg::R3), fresh.machine().reg(Reg::R3));
            assert_eq!(cached.machine().cycles(), fresh.machine().cycles());
        }
    }

    #[test]
    fn instantiations_do_not_disturb_each_other_or_the_template() {
        let cache = BootCache::new();
        let mut a = cache.boot(UarchProfile::zen2(), PHYS, 21).unwrap();
        let mut b = cache.boot(UarchProfile::zen2(), PHYS, 22).unwrap();
        // Writes through one instance's physmap stay private to it.
        // (High physical address: below capacity, above every blob the
        // boot loads, so untouched instances read zeroes there.)
        let pa = 0x300_4242u64;
        let a_slot = a.layout().physmap_base() + pa;
        a.machine_mut().poke_u64(a_slot, 0x1111);
        let b_slot = b.layout().physmap_base() + pa;
        b.machine_mut().poke_u64(b_slot, 0x2222);
        assert_eq!(
            a.machine().phys().read_u64(phantom_mem::PhysAddr::new(pa)),
            0x1111
        );
        assert_eq!(
            b.machine().phys().read_u64(phantom_mem::PhysAddr::new(pa)),
            0x2222
        );
        // And a third instantiation still sees pristine memory.
        let c = cache.boot(UarchProfile::zen2(), PHYS, 23).unwrap();
        assert_eq!(
            c.machine().phys().read_u64(phantom_mem::PhysAddr::new(pa)),
            0
        );
    }

    #[test]
    fn hits_and_misses_count_template_reuse() {
        let cache = BootCache::new();
        cache.boot(UarchProfile::zen2(), PHYS, 1).unwrap();
        cache.boot(UarchProfile::zen2(), PHYS, 2).unwrap();
        cache.boot(UarchProfile::zen2(), PHYS, 3).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (1, 2));
        // A different phys size (or profile) is a different template.
        cache.boot(UarchProfile::zen2(), PHYS * 2, 4).unwrap();
        cache.boot(UarchProfile::zen3(), PHYS, 5).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (3, 2));
        cache.boot(UarchProfile::zen3(), PHYS, 6).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (3, 3));
    }

    #[test]
    fn new_cached_goes_through_the_global_cache() {
        // Can't assert on the global counters (other tests share them);
        // assert the observable contract instead.
        let mut a = System::new_cached(UarchProfile::zen4(), PHYS, 404).unwrap();
        let mut b = System::new(UarchProfile::zen4(), PHYS, 404).unwrap();
        assert_eq!(a.layout(), b.layout());
        assert_eq!(a.secret(), b.secret());
        a.getpid().unwrap();
        b.getpid().unwrap();
        assert_eq!(a.machine().cycles(), b.machine().cycles());
    }
}
