//! Property-based tests for the cache models.

use proptest::prelude::*;

use crate::geometry::CacheGeometry;
use crate::hierarchy::{CacheHierarchy, HierarchyConfig};
use crate::nested_model::NestedSetAssocCache;
use crate::setassoc::{Replacement, SetAssocCache};

fn arb_geometry() -> impl Strategy<Value = CacheGeometry> {
    (0u32..6, 1usize..9, 5u32..8).prop_map(|(sets_log, ways, line_log)| {
        CacheGeometry::new(1 << sets_log, ways, 1 << line_log)
    })
}

fn arb_replacement() -> impl Strategy<Value = Replacement> {
    prop_oneof![
        Just(Replacement::Lru),
        Just(Replacement::TreePlru),
        Just(Replacement::Fifo)
    ]
}

/// One step of the flat-vs-nested differential test.
#[derive(Debug, Clone)]
enum Op {
    Access(u64),
    FlushLine(u64),
    FlushAll,
    /// `begin_epoch` on the live cache, then clone it into a snapshot.
    Snapshot,
    /// Clone the live cache without opening an epoch: a snapshot that
    /// shares the live token but may have logged sets of its own.
    PlainClone,
    /// `restore_from` one of the snapshots taken so far. The newest one
    /// shares the live cache's epoch token (the dirty-set path); older
    /// ones, plain clones, or any after a foreign restore, take the
    /// full-copy path.
    Restore(usize),
    /// `restore_from` an independently built cache (a foreign token),
    /// filled with these addresses.
    RestoreForeign(Vec<u64>),
    /// `reset` the live cache, alternately to another geometry and
    /// policy and back to the first; the model is rebuilt by `new`.
    Reset,
    /// `seal` the live cache (the model has nothing to seal).
    Seal,
    /// Clone one of the snapshots taken so far, access these addresses
    /// in the clone and keep it as another snapshot: a fork written
    /// through, which must not show in the snapshot or its siblings.
    Fork(usize, Vec<u64>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let addr = 0u64..1 << 14;
    (
        0u8..21,
        addr.clone(),
        any::<usize>(),
        proptest::collection::vec(addr, 0..24),
    )
        .prop_map(|(kind, addr, i, addrs)| match kind {
            0..=7 => Op::Access(addr),
            8 | 9 => Op::FlushLine(addr),
            10 => Op::FlushAll,
            11 | 12 => Op::Snapshot,
            13 | 14 => Op::Restore(i),
            15 => Op::RestoreForeign(addrs),
            16 => Op::PlainClone,
            17 | 18 => Op::Seal,
            19 => Op::Fork(i, addrs),
            _ => Op::Reset,
        })
}

/// Every observable of the flat cache equals the nested model's (equal
/// `set_contents` everywhere also pins every `probe`).
fn assert_agree(flat: &SetAssocCache, nested: &NestedSetAssocCache) -> Result<(), TestCaseError> {
    prop_assert_eq!(flat.geometry(), nested.geometry());
    prop_assert_eq!(flat.hits(), nested.hits());
    prop_assert_eq!(flat.misses(), nested.misses());
    for set in 0..flat.geometry().sets {
        prop_assert_eq!(flat.set_occupancy(set), nested.set_occupancy(set));
        prop_assert_eq!(flat.set_contents(set), nested.set_contents(set));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The copy-on-write row cache is observationally identical to the
    /// nested one-`Vec`-per-set layout it replaced, for every policy,
    /// geometry and op sequence — including clones taken under the
    /// epoch protocol or without it, seals, forks written through
    /// (whose writes must not reach the snapshot they share sets
    /// with, nor its other forks), restores through both the dirty-set
    /// and the full-copy paths (each equal in every line and counter to
    /// a clone of the snapshot), and resets, whose model is a new
    /// cache.
    #[test]
    fn flat_cache_matches_nested_model(
        geometry in arb_geometry(),
        replacement in arb_replacement(),
        other_geometry in arb_geometry(),
        other_replacement in arb_replacement(),
        ops in proptest::collection::vec(arb_op(), 1..160),
    ) {
        let mut flat = SetAssocCache::new(geometry, replacement);
        let mut nested = NestedSetAssocCache::new(geometry, replacement);
        let mut snaps: Vec<(SetAssocCache, NestedSetAssocCache)> = Vec::new();
        let mut resets = 0;
        for op in ops {
            match op {
                Op::Access(a) => {
                    prop_assert_eq!(flat.access(a), nested.access(a));
                    prop_assert_eq!(flat.probe(a), nested.probe(a));
                }
                Op::FlushLine(a) => {
                    prop_assert_eq!(flat.flush_line(a), nested.flush_line(a));
                    prop_assert_eq!(flat.probe(a), nested.probe(a));
                }
                Op::FlushAll => {
                    flat.flush_all();
                    nested.flush_all();
                }
                Op::Snapshot => {
                    flat.begin_epoch();
                    nested.begin_epoch();
                    snaps.push((flat.clone(), nested.clone()));
                }
                Op::PlainClone => snaps.push((flat.clone(), nested.clone())),
                Op::Restore(i) => {
                    if !snaps.is_empty() {
                        let (fs, ns) = &snaps[i % snaps.len()];
                        flat.restore_from(fs);
                        nested.restore_from(ns);
                        prop_assert!(flat == *fs, "restore differs from a clone");
                    }
                }
                Op::RestoreForeign(addrs) => {
                    let mut fs = SetAssocCache::new(geometry, replacement);
                    let mut ns = NestedSetAssocCache::new(geometry, replacement);
                    for &a in &addrs {
                        prop_assert_eq!(fs.access(a), ns.access(a));
                    }
                    flat.restore_from(&fs);
                    nested.restore_from(&ns);
                    prop_assert!(flat == fs, "restore differs from a clone");
                }
                Op::Reset => {
                    let (g, r) = if resets % 2 == 0 {
                        (other_geometry, other_replacement)
                    } else {
                        (geometry, replacement)
                    };
                    resets += 1;
                    flat.reset(g, r);
                    nested = NestedSetAssocCache::new(g, r);
                }
                Op::Seal => {
                    flat.seal();
                    prop_assert_eq!(flat.owned_chunks(), 0);
                }
                Op::Fork(i, addrs) => {
                    if !snaps.is_empty() {
                        let (mut ff, mut nf) = snaps[i % snaps.len()].clone();
                        for &a in &addrs {
                            prop_assert_eq!(ff.access(a), nf.access(a));
                        }
                        snaps.push((ff, nf));
                    }
                }
            }
            assert_agree(&flat, &nested)?;
            for (fs, ns) in &snaps {
                assert_agree(fs, ns)?;
            }
        }
    }
}

proptest! {
    /// An access sequence never leaves more than `ways` valid lines in a
    /// set, and every probe of a just-accessed address hits.
    #[test]
    fn occupancy_bounded_and_recent_access_present(
        geometry in arb_geometry(),
        replacement in arb_replacement(),
        addrs in proptest::collection::vec(0u64..1 << 20, 1..200),
    ) {
        let mut c = SetAssocCache::new(geometry, replacement);
        for &a in &addrs {
            c.access(a);
            prop_assert!(c.probe(a), "just-inserted line must be present");
        }
        for s in 0..geometry.sets {
            prop_assert!(c.set_occupancy(s) <= geometry.ways);
        }
        prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
    }

    /// Eviction reports are exact: the evicted line really disappears,
    /// and nothing else in the set does.
    #[test]
    fn evictions_are_reported_exactly(
        replacement in arb_replacement(),
        addrs in proptest::collection::vec(0u64..1 << 16, 1..200),
    ) {
        let geometry = CacheGeometry::new(4, 2, 64);
        let mut c = SetAssocCache::new(geometry, replacement);
        let mut model = std::collections::BTreeSet::new();
        for &a in &addrs {
            let line = geometry.line_base(a);
            let out = c.access(a);
            prop_assert_eq!(out.hit, model.contains(&line));
            model.insert(line);
            if let Some(victim) = out.evicted {
                prop_assert!(model.remove(&victim), "evicted line {victim:#x} was not resident");
                prop_assert!(!c.probe(victim));
            }
        }
        // The model and the cache agree on final contents.
        for &line in &model {
            prop_assert!(c.probe(line), "line {line:#x} lost without eviction report");
        }
    }

    /// LRU property: in an over-full set, the most recently touched
    /// `ways` distinct lines are always resident.
    #[test]
    fn lru_keeps_most_recent_ways(
        touches in proptest::collection::vec(0u64..16, 1..100),
    ) {
        let geometry = CacheGeometry::new(1, 4, 64);
        let mut c = SetAssocCache::new(geometry, Replacement::Lru);
        let mut recency: Vec<u64> = Vec::new();
        for &t in &touches {
            let addr = t * 64;
            c.access(addr);
            recency.retain(|&x| x != addr);
            recency.push(addr);
        }
        for &addr in recency.iter().rev().take(4) {
            prop_assert!(c.probe(addr), "recently used {addr:#x} evicted");
        }
    }

    /// compose() is a right inverse of (set_index, tag).
    #[test]
    fn compose_inverts_indexing(geometry in arb_geometry(), addr in any::<u64>()) {
        let set = geometry.set_index(addr);
        let tag = geometry.tag(addr);
        let rebuilt = geometry.compose(tag, set);
        prop_assert_eq!(rebuilt, geometry.line_base(addr));
        prop_assert_eq!(geometry.set_index(rebuilt), set);
        prop_assert_eq!(geometry.tag(rebuilt), tag);
    }

    /// Flushing a line is exact: only that line disappears.
    #[test]
    fn flush_is_precise(addrs in proptest::collection::hash_set(0u64..1 << 14, 2..20)) {
        let geometry = CacheGeometry::new(64, 8, 64);
        let mut c = SetAssocCache::new(geometry, Replacement::Lru);
        let lines: Vec<u64> = addrs.iter().map(|&a| geometry.line_base(a)).collect();
        for &a in &addrs {
            c.access(a);
        }
        let victim = *lines.first().unwrap();
        c.flush_line(victim);
        prop_assert!(!c.probe(victim));
        for &l in &lines[1..] {
            if l != victim {
                prop_assert!(c.probe(l), "flush of {victim:#x} clobbered {l:#x}");
            }
        }
    }

    /// Inclusivity invariant: after any access sequence, every line
    /// resident in L1I or L1D is also resident in L2.
    #[test]
    fn l2_is_inclusive_of_both_l1s(
        accesses in proptest::collection::vec((any::<bool>(), 0u64..1 << 18), 1..300),
    ) {
        let mut h = CacheHierarchy::new(HierarchyConfig::default());
        let line = |a: u64| a & !63;
        let mut touched = std::collections::BTreeSet::new();
        for &(inst, addr) in &accesses {
            if inst {
                h.access_inst(addr);
            } else {
                h.access_data(addr);
            }
            touched.insert(line(addr));
        }
        for &l in &touched {
            if h.l1i().probe(l) || h.l1d().probe(l) {
                prop_assert!(h.l2().probe(l), "line {l:#x} in L1 but not L2");
            }
        }
    }

    /// Latency ordering is stable under any interleaving: an L1-resident
    /// line is always at least as fast as an L2-resident one, which beats
    /// memory.
    #[test]
    fn latency_ordering_invariant(addr in 0u64..1 << 16) {
        let mut h = CacheHierarchy::new(HierarchyConfig::default());
        let (_, mem) = h.access_data(addr);
        let (_, l1) = h.access_data(addr);
        prop_assert!(l1 < mem);
        // Evict from L1 only (not L2): next access is an L2 hit.
        let g = h.config().l1d;
        let set = g.set_index(addr);
        for i in 1..=g.ways as u64 {
            h.access_data(g.compose(g.tag(addr) + i * 1024, set));
        }
        if !h.l1d().probe(addr) && h.l2().probe(addr) {
            let (_, l2) = h.access_data(addr);
            prop_assert!(l1 < l2 && l2 < mem);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fused `access_if_present` (one set search) is `probe`
    /// followed, on a hit, by `access`, under every policy: same answer,
    /// and afterwards equal lines, replacement state and counters. So
    /// `UopCache::dispatch_lookup` equals the probe-then-access oracle
    /// it replaced, hit and miss counts included, over interleaved
    /// fills.
    #[test]
    fn fused_dispatch_lookup_matches_probe_then_access(
        geometry in arb_geometry(),
        replacement in arb_replacement(),
        ops in proptest::collection::vec((any::<bool>(), 0u64..1 << 13), 1..200),
    ) {
        use crate::uopcache::UopCache;
        let mut fused = SetAssocCache::new(geometry, replacement);
        let mut oracle = fused.clone();
        let mut uop = UopCache::with_geometry(geometry);
        let mut uop_oracle = uop.clone();
        for (fill, addr) in ops {
            if fill {
                prop_assert_eq!(fused.access(addr), oracle.access(addr));
                prop_assert_eq!(uop.fill(addr), uop_oracle.fill(addr));
            } else {
                let hit = oracle.probe(addr);
                if hit {
                    oracle.access(addr);
                }
                prop_assert_eq!(fused.access_if_present(addr), hit);
                prop_assert_eq!(uop.dispatch_lookup(addr), uop_oracle.dispatch_lookup_by_probe(addr));
            }
            prop_assert!(fused == oracle);
            prop_assert!(uop == uop_oracle);
        }
    }
}
