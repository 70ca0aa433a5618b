//! Property-based tests for the side channels.

use proptest::prelude::*;

use phantom_mem::{AccessKind, PageFlags, PrivilegeLevel, VirtAddr};
use phantom_pipeline::{Machine, UarchProfile};

use crate::noise::NoiseModel;
use crate::prime_probe::PrimeProbe;
use crate::score::bounded_score;

fn machine() -> Machine {
    Machine::new(UarchProfile::zen2(), 1 << 26)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Prime+Probe soundness under arbitrary victim activity: the probe
    /// detects an eviction if and only if the victim touched the
    /// monitored L1D set with at least one access (noise off).
    #[test]
    fn prime_probe_detects_exactly_set_touches(
        set in 0usize..64,
        victim_sets in proptest::collection::vec(0usize..64, 0..6),
    ) {
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        let pp = PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0000), set).unwrap();
        pp.prime(&mut m).unwrap();
        // Victim: one access per listed set, distinct lines.
        for (i, &vs) in victim_sets.iter().enumerate() {
            let va = VirtAddr::new(0x6000_0000 + (i as u64) * 0x1000 + (vs as u64) * 64);
            m.map_range(va, 64, PageFlags::USER_DATA).unwrap();
            let pa = m
                .page_table()
                .translate(va, AccessKind::Read, PrivilegeLevel::User)
                .unwrap();
            m.caches_mut().access_data(pa.raw());
        }
        let touched = victim_sets.iter().filter(|&&vs| vs == set).count();
        let r = pp.probe(&mut m, &mut noise).unwrap();
        prop_assert_eq!(r.evictions, touched.min(8), "set {} victims {:?}", set, victim_sets);
    }

    /// Probing is self-restoring: immediately probing again after a
    /// probe reports a clean set (the probe re-primes by touching).
    #[test]
    fn probe_is_self_restoring(set in 0usize..64) {
        let mut m = machine();
        let mut noise = NoiseModel::quiet(0);
        let pp = PrimeProbe::new_l1d(&mut m, VirtAddr::new(0x5000_0000), set).unwrap();
        pp.prime(&mut m).unwrap();
        // Disturb.
        let va = VirtAddr::new(0x6000_0000 + (set as u64) * 64);
        m.map_range(va, 64, PageFlags::USER_DATA).unwrap();
        let pa = m.page_table().translate(va, AccessKind::Read, PrivilegeLevel::User).unwrap();
        m.caches_mut().access_data(pa.raw());
        let first = pp.probe(&mut m, &mut noise).unwrap();
        prop_assert!(first.evictions > 0);
        let second = pp.probe(&mut m, &mut noise).unwrap();
        prop_assert_eq!(second.evictions, 0, "probe restored the set");
    }

    /// The §7.3 score is monotone in the signal: adding cycles to any
    /// probe measurement never lowers the score.
    #[test]
    fn bounded_score_is_monotone(
        baseline in proptest::collection::vec(0u64..500, 1..64),
        bumps in proptest::collection::vec(0u64..50, 1..64),
    ) {
        let n = baseline.len().min(bumps.len());
        let base = &baseline[..n];
        let mut bumped = base.to_vec();
        for (b, d) in bumped.iter_mut().zip(&bumps[..n]) {
            *b += d;
        }
        let s0 = bounded_score(base, base);
        let s1 = bounded_score(&bumped, base);
        prop_assert_eq!(s0, 0, "identical measurements score zero");
        prop_assert!(s1 >= s0);
        // And the clamp bounds it.
        prop_assert!(s1 <= 10 * n as i64);
    }

    /// Noise determinism: two models with the same seed agree on every
    /// decision, regardless of parameters order of use.
    #[test]
    fn noise_streams_are_reproducible(seed in any::<u64>(), queries in 1usize..50) {
        let mut a = NoiseModel::realistic(seed);
        let mut b = NoiseModel::realistic(seed);
        for i in 0..queries {
            prop_assert_eq!(a.jitter(100 + i as u64), b.jitter(100 + i as u64));
            prop_assert_eq!(a.rolls_spurious_evict(), b.rolls_spurious_evict());
            prop_assert_eq!(a.rolls_missed_signal(), b.rolls_missed_signal());
        }
    }
}

/// One step of the cached-address Prime+Probe check.
#[derive(Debug, Clone)]
enum PpOp {
    Prime,
    /// A victim data access to L1D set `set`, tag `tag`.
    Victim(usize, u64),
    /// Unmap eviction-set way `way`'s page.
    Unmap(usize),
    /// Map eviction-set way `way`'s page again (fresh frame).
    Remap(usize),
    /// Map an unrelated page: the table version moves, no line does.
    MapElsewhere(u64),
    Probe,
}

fn arb_pp_ops() -> impl Strategy<Value = Vec<PpOp>> {
    let op = (0u8..12, 0usize..64, 0u64..16).prop_map(|(k, i, t)| match k {
        0 | 1 => PpOp::Prime,
        2..=4 => PpOp::Victim(i, t),
        5 => PpOp::Unmap(i % 8),
        6 => PpOp::Remap(i % 8),
        7 => PpOp::MapElsewhere(t),
        _ => PpOp::Probe,
    });
    proptest::collection::vec(op, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A probe that reuses the physical addresses it resolved when it
    /// was built is the probe that walks the page table on every touch:
    /// two identical machines, one driven through each, return the same
    /// prime and probe results (the same `ProbeError` once a way's page
    /// is unmapped between prime and probe, and the same readings after
    /// it is mapped again to another frame) and end with equal cycles
    /// and caches, under realistic noise with spurious
    /// evictions. Covers L1I, L1D and armed arena probes.
    #[test]
    fn cached_line_addresses_match_the_walk(
        level in 0u8..3,
        set in 0usize..64,
        seed in any::<u64>(),
        ops in arb_pp_ops(),
    ) {
        use crate::prime_probe::ProbeArena;
        let base = VirtAddr::new(0x5000_0000);
        let mut cached_m = machine();
        let pp = match level {
            0 => PrimeProbe::new_l1d(&mut cached_m, base, set).unwrap(),
            1 => PrimeProbe::new_l1i(&mut cached_m, base, set).unwrap(),
            _ => {
                let arena = ProbeArena::install(&mut cached_m, base, crate::ProbeLevel::L1D).unwrap();
                arena.arm(&mut cached_m, set).unwrap()
            }
        };
        let mut walk_m = cached_m.clone();
        let walking = pp.walking();
        let flags = if level == 1 { PageFlags::USER_TEXT } else { PageFlags::USER_DATA };
        let mut noise = (NoiseModel::realistic(seed), NoiseModel::realistic(seed));
        for op in ops {
            match op {
                PpOp::Prime => prop_assert_eq!(pp.prime(&mut cached_m), walking.prime(&mut walk_m)),
                PpOp::Victim(vs, tag) => {
                    let va = VirtAddr::new(0x6000_0000 + tag * 0x1000 + vs as u64 * 64);
                    for m in [&mut cached_m, &mut walk_m] {
                        m.map_range(va, 64, PageFlags::USER_DATA).unwrap();
                        let pa = m.page_table().translate(va, AccessKind::Read, PrivilegeLevel::User).unwrap();
                        m.caches_mut().access_data(pa.raw());
                    }
                }
                PpOp::Unmap(way) => {
                    for m in [&mut cached_m, &mut walk_m] {
                        m.unmap_range(base + way as u64 * 4096, 4096);
                    }
                }
                PpOp::Remap(way) => {
                    for m in [&mut cached_m, &mut walk_m] {
                        m.map_range(base + way as u64 * 4096, 4096, flags).unwrap();
                    }
                }
                PpOp::MapElsewhere(page) => {
                    for m in [&mut cached_m, &mut walk_m] {
                        m.map_range(VirtAddr::new(0x7000_0000 + page * 4096), 4096, flags).unwrap();
                    }
                }
                PpOp::Probe => prop_assert_eq!(
                    pp.probe_scored(&mut cached_m, &mut noise.0),
                    walking.probe_scored(&mut walk_m, &mut noise.1)
                ),
            }
            prop_assert_eq!(cached_m.cycles(), walk_m.cycles());
            prop_assert!(cached_m.caches() == walk_m.caches());
        }
    }
}

/// Quiet, realistic, wide jitter, or frequent spurious evictions and
/// missed signals.
fn noise(kind: u8, seed: u64) -> NoiseModel {
    let mut noise = NoiseModel::realistic(seed);
    match kind {
        0 => return NoiseModel::quiet(seed),
        1 => {}
        2 => noise.jitter_cycles = 6,
        _ => {
            noise.spurious_evict = 0.2;
            noise.missed_signal = 0.3;
        }
    }
    noise
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The live probe pass, built from a machine half and a noise half,
    /// is the one-loop pass it replaced: the same results, cycles and
    /// caches, with the noise streams left in step. And a pass whose
    /// noise rolls no spurious eviction scores the same from the
    /// machine half's raw latencies, which leave the machine as the
    /// live pass does. Covers L1I, L1D and L2 probes.
    #[test]
    fn split_probe_pass_matches_the_unsplit_one(
        level in 0u8..3,
        set in 0usize..64,
        seed in any::<u64>(),
        noise_kind in 0u8..4,
        rounds in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0u64..16), 0..4),
            1..6,
        ),
    ) {
        use crate::prime_probe::ProbeScale;
        use crate::ProbeLevel;
        let mut live = machine();
        let (pp, probe_level) = match level {
            0 => (PrimeProbe::new_l1d(&mut live, VirtAddr::new(0x5000_0000), set).unwrap(), ProbeLevel::L1D),
            1 => (PrimeProbe::new_l1i(&mut live, VirtAddr::new(0x5000_0000), set).unwrap(), ProbeLevel::L1I),
            _ => (PrimeProbe::new_l2(&mut live, VirtAddr::new(0x4000_0000), set).unwrap(), ProbeLevel::L2),
        };
        let mut unsplit = live.clone();
        let mut noise = (noise(noise_kind, seed), noise(noise_kind, seed));
        for victims in rounds {
            for m in [&mut live, &mut unsplit] {
                pp.prime(m).unwrap();
                for &(vs, tag) in &victims {
                    let va = VirtAddr::new(0x6000_0000 + tag * 0x1000 + vs as u64 * 64);
                    m.map_range(va, 64, PageFlags::USER_DATA).unwrap();
                    let pa = m.page_table().translate(va, AccessKind::Read, PrivilegeLevel::User).unwrap();
                    m.caches_mut().access_data(pa.raw());
                }
            }
            let (mut raw, mut replay_noise) = (live.clone(), noise.0.clone());
            let scored = pp.probe_scored(&mut live, &mut noise.0).unwrap();
            prop_assert_eq!(scored, pp.probe_scored_unsplit(&mut unsplit, &mut noise.1).unwrap());
            prop_assert_eq!(live.cycles(), unsplit.cycles());
            prop_assert!(live.caches() == unsplit.caches());
            prop_assert_eq!(noise.0.jitter(1000), noise.1.jitter(1000));

            let latencies = pp.probe_latencies(&mut raw).unwrap();
            let scale = ProbeScale::new(probe_level, live.caches().config(), replay_noise.jitter_cycles);
            let replayed = scale.score(&mut replay_noise, latencies.len(), |way, spurious| {
                if spurious { Err(()) } else { Ok(latencies[way]) }
            });
            if let Ok(replayed) = replayed {
                prop_assert_eq!(replayed, scored);
                prop_assert_eq!(raw.cycles(), live.cycles());
                prop_assert!(raw.caches() == live.caches());
            }
        }
    }
}
