//! Property-based tests for the branch prediction structures.

use proptest::prelude::*;

use phantom_isa::BranchKind;
use phantom_mem::{PrivilegeLevel, VirtAddr};

use crate::btb::{Btb, BtbScheme};
use crate::hashfn::{FoldFamily, FoldFn};
use crate::rsb::Rsb;

fn arb_kind() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::Direct),
        Just(BranchKind::Indirect),
        Just(BranchKind::Cond),
        Just(BranchKind::Call),
        Just(BranchKind::CallInd),
        Just(BranchKind::Ret),
    ]
}

proptest! {
    /// Aliasing is an equivalence: reflexive and symmetric, and XORing a
    /// signature-preserving pattern is involutive.
    #[test]
    fn aliasing_is_symmetric(addr in any::<u64>(), other in any::<u64>()) {
        let fam = FoldFamily::zen34();
        let a = VirtAddr::new(addr);
        let b = VirtAddr::new(other);
        prop_assert!(fam.aliases(a, a));
        prop_assert_eq!(fam.aliases(a, b), fam.aliases(b, a));
    }

    /// The paper's two public XOR collision patterns preserve aliasing
    /// for ANY base address.
    #[test]
    fn figure7_patterns_alias_everywhere(addr in any::<u64>()) {
        let fam = FoldFamily::zen34();
        let a = VirtAddr::new(addr);
        for pattern in [0xffff_bff8_0000_0000u64, 0xffff_8003_ff80_0000] {
            prop_assert!(fam.aliases(a, VirtAddr::new(addr ^ pattern)));
        }
    }

    /// After training a source, looking it up always returns the trained
    /// kind, and for indirect branches the trained target.
    #[test]
    fn btb_lookup_returns_last_training(
        src in any::<u64>(),
        tgt in any::<u64>(),
        kind in arb_kind(),
    ) {
        let mut btb = Btb::new(BtbScheme::zen34());
        btb.train(VirtAddr::new(src), kind, VirtAddr::new(tgt), PrivilegeLevel::User, 0);
        let hit = btb.lookup(VirtAddr::new(src)).expect("just trained");
        prop_assert_eq!(hit.kind, kind);
        match kind {
            BranchKind::Ret => prop_assert_eq!(hit.target, None),
            BranchKind::Direct | BranchKind::Call =>
                prop_assert_eq!(hit.target, Some(VirtAddr::new(tgt))),
            _ => prop_assert_eq!(hit.target, Some(VirtAddr::new(tgt))),
        }
    }

    /// Direct targets are PC-relative: for any aliasing pair (a, b),
    /// target(b) - b == target(a) - a.
    #[test]
    fn direct_targets_are_pc_relative(src in any::<u64>(), disp in any::<i32>()) {
        let mut btb = Btb::new(BtbScheme::zen34());
        let a = VirtAddr::new(src);
        let b = VirtAddr::new(src ^ 0xffff_bff8_0000_0000); // aliases a
        let tgt = VirtAddr::new(src.wrapping_add(disp as i64 as u64));
        btb.train(a, BranchKind::Direct, tgt, PrivilegeLevel::User, 0);
        let hit = btb.lookup(b).expect("aliasing entry");
        let predicted = hit.target.unwrap();
        prop_assert_eq!(
            predicted.raw().wrapping_sub(b.raw()),
            tgt.raw().wrapping_sub(a.raw())
        );
    }

    /// The RSB is a bounded LIFO: popping returns pushes in reverse
    /// order, truncated to the most recent `depth`.
    #[test]
    fn rsb_is_a_bounded_lifo(
        depth in 1usize..32,
        pushes in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let mut rsb = Rsb::new(depth);
        for &p in &pushes {
            rsb.push(VirtAddr::new(p));
        }
        let expected: Vec<u64> = pushes.iter().rev().take(depth).copied().collect();
        let mut got = Vec::new();
        while let Some(v) = rsb.pop() {
            got.push(v.raw());
        }
        prop_assert_eq!(got, expected);
    }

    /// BTB lookups never fabricate entries: an untrained alias class
    /// misses.
    #[test]
    fn untouched_btb_never_hits(addrs in proptest::collection::vec(any::<u64>(), 1..50)) {
        let btb = Btb::new(BtbScheme::zen34());
        for a in addrs {
            prop_assert!(btb.lookup(VirtAddr::new(a)).is_none());
        }
    }

    /// Fold signatures are linear: sig(a ^ p) == sig(a) ^ sig_of_pattern(p)
    /// where sig_of_pattern is the signature of the pattern alone.
    #[test]
    fn signatures_are_gf2_linear(a in any::<u64>(), p in any::<u64>()) {
        let fam = FoldFamily::zen34();
        let sig_a = fam.signature(VirtAddr::new(a));
        let sig_p = fam.signature(VirtAddr::new(p));
        let sig_ap = fam.signature(VirtAddr::new(a ^ p));
        prop_assert_eq!(sig_ap, sig_a ^ sig_p);
    }

    /// A single selected-bit flip always changes the signature of a
    /// function that selects it (sanity of FoldFn::eval).
    #[test]
    fn selected_bit_flip_flips_parity(addr in any::<u64>(), bit in 0u32..48) {
        let f = FoldFn::of_bits(&[bit]);
        let a = VirtAddr::new(addr);
        prop_assert_ne!(f.eval(a), f.eval(a.flip_bit(bit)));
    }
}

// ----- journaled CBP / BPU rewinds against `*self = snap.clone()` -----

use crate::cbp::{Cbp, CbpScheme, MixedFold};
use crate::msr::MsrState;
use crate::predict::Bpu;

/// The M1-Firestorm-style tagged 2-way scheme of
/// `examples/uarch/m1_firestorm.spec`.
fn m1f_scheme() -> CbpScheme {
    CbpScheme {
        index: (0..10)
            .map(|i| MixedFold {
                pc: (1u64 << (i + 2)) | (1u64 << (i + 12)),
                hist: 1u64 << i,
            })
            .collect(),
        tag: (22..28).map(|b| FoldFn { mask: 1u64 << b }).collect(),
        ways: 2,
        counter_bits: 2,
        history_bits: 16,
    }
}

/// A random valid scheme, as a spec mutation might produce: few sets
/// (so updates collide and sets are rewritten), optional tags with up
/// to 3 ways, 1–3 counter bits, up to 8 history bits.
fn arb_mutated_scheme() -> impl Strategy<Value = CbpScheme> {
    (
        proptest::collection::vec((1u64..1 << 8, any::<u8>()), 1..6),
        proptest::collection::vec(1u64..1 << 12, 0..3),
        1usize..4,
        1u32..4,
        0u32..9,
    )
        .prop_map(|(index, tag, ways, counter_bits, history_bits)| {
            let hist_mask = (1u64 << history_bits) - 1;
            let tag: Vec<FoldFn> = tag.into_iter().map(|m| FoldFn { mask: m << 2 }).collect();
            CbpScheme {
                index: index
                    .into_iter()
                    .map(|(pc, h)| MixedFold {
                        pc: pc << 1,
                        hist: u64::from(h) & hist_mask,
                    })
                    .collect(),
                ways: if tag.is_empty() { 1 } else { ways },
                tag,
                counter_bits,
                history_bits,
            }
        })
}

fn arb_cbp_scheme() -> impl Strategy<Value = CbpScheme> {
    prop_oneof![
        Just(CbpScheme::legacy()),
        Just(m1f_scheme()),
        arb_mutated_scheme(),
    ]
}

/// One step of the rewind model check.
#[derive(Debug, Clone)]
enum RewindOp {
    /// Resolve a conditional at a PC drawn from a small pool (so sets
    /// repeat), with this outcome.
    Update(u16, bool),
    /// IBPB mid-epoch.
    Flush,
    /// Open an epoch and take a checkpoint (the machine's protocol).
    Checkpoint,
    /// Clone without opening an epoch: a snapshot whose own dirty log
    /// may be non-empty.
    PlainClone,
    /// Rewind to snapshot `i % snapshots.len()`.
    Rewind(usize),
    /// Rewind to a snapshot of an unrelated predictor (foreign token).
    Foreign,
}

fn arb_rewind_ops() -> impl Strategy<Value = Vec<RewindOp>> {
    // The selector weights updates 6, rewinds 3, checkpoints 2 and the
    // rest 1 each.
    let op =
        (0u8..14, any::<u16>(), any::<bool>(), any::<usize>()).prop_map(|(k, p, t, i)| match k {
            0..=5 => RewindOp::Update(p, t),
            6 => RewindOp::Flush,
            7 | 8 => RewindOp::Checkpoint,
            9 => RewindOp::PlainClone,
            10..=12 => RewindOp::Rewind(i),
            _ => RewindOp::Foreign,
        });
    proptest::collection::vec(op, 1..120)
}

/// A branch PC from the op's pool index: spread over the low and the
/// tag bits so both index and tag folds see variation.
fn pool_pc(p: u16) -> VirtAddr {
    let p = u64::from(p);
    VirtAddr::new(0x40_0000 + ((p & 0xff) << 1) + ((p >> 8) << 22))
}

/// Every observable of `cbp` at the probe PCs.
fn cbp_view(cbp: &Cbp, probes: &[u16]) -> (Vec<(bool, Option<u8>)>, usize, u64) {
    let at = probes
        .iter()
        .map(|&p| (cbp.predict(pool_pc(p)), cbp.counter(pool_pc(p))))
        .collect();
    (at, cbp.len(), cbp.ghr())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The journaled `Cbp::restore_from` is `*self = snap.clone()`:
    /// after every rewind the live CBP equals a fresh clone of the
    /// snapshot in every field and every observable (`predict`,
    /// `counter`, `len`, `ghr`), and a shadow CBP that
    /// only ever rewinds by cloning agrees with it after every step.
    /// Covers the legacy, the tagged 2-way (m1f-style) and mutated
    /// schemes, flushes mid-epoch, repeated rewinds to the same and to
    /// older checkpoints, snapshots with a dirty log of their own, and
    /// foreign-token snapshots (including another scheme's). The dirty
    /// log never outgrows the table.
    #[test]
    fn journaled_cbp_rewind_matches_clone(
        scheme in arb_cbp_scheme(),
        foreign_scheme in arb_cbp_scheme(),
        ops in arb_rewind_ops(),
        probes in proptest::collection::vec(any::<u16>(), 1..24),
    ) {
        let mut live = Cbp::new(scheme.clone());
        let mut shadow = Cbp::new(scheme);
        let mut foreign = Cbp::new(foreign_scheme);
        foreign.update(pool_pc(1), true);
        let mut snaps: Vec<(Cbp, Cbp)> = Vec::new();
        for op in ops {
            let target = match op {
                RewindOp::Update(p, taken) => {
                    live.update(pool_pc(p), taken);
                    shadow.update(pool_pc(p), taken);
                    None
                }
                RewindOp::Flush => {
                    live.flush();
                    shadow.flush();
                    None
                }
                RewindOp::Checkpoint => {
                    live.begin_epoch();
                    snaps.push((live.clone(), shadow.clone()));
                    None
                }
                RewindOp::PlainClone => {
                    snaps.push((live.clone(), shadow.clone()));
                    None
                }
                RewindOp::Rewind(i) if !snaps.is_empty() => {
                    let (snap, shadow_snap) = &snaps[i % snaps.len()];
                    Some((snap, shadow_snap))
                }
                RewindOp::Rewind(_) => None,
                RewindOp::Foreign => Some((&foreign, &foreign)),
            };
            if let Some((snap, shadow_snap)) = target {
                live.restore_from(snap);
                prop_assert!(live.same_state(&snap.clone()), "rewind differs from a clone");
                shadow = shadow_snap.clone();
            }
            prop_assert!(live.dirty_len() <= live.scheme().sets());
            prop_assert_eq!(cbp_view(&live, &probes), cbp_view(&shadow, &probes));
        }
    }
}

/// One step of the whole-BPU rewind model check.
#[derive(Debug, Clone)]
enum BpuOp {
    /// Train the BTB at a pool PC.
    Train(u16, BranchKind, u16),
    /// Resolve a conditional at a pool PC.
    Direction(u16, bool),
    /// Push a call site onto the RSB.
    Push(u16),
    /// Serve a prediction over a window at a pool PC (may pop the RSB).
    Predict(u16),
    /// Record a taken edge in the BHB.
    Edge(u16, u16),
    /// Toggle the mitigation MSRs.
    Msr(u8),
    /// IBPB: flush every structure mid-epoch.
    Ibpb,
    /// Open an epoch and take a checkpoint.
    Checkpoint,
    /// Rewind to checkpoint `i % checkpoints.len()`.
    Rewind(usize),
    /// Rewind to an unrelated BPU's snapshot (foreign token).
    Foreign,
}

fn arb_bpu_ops() -> impl Strategy<Value = Vec<BpuOp>> {
    let op = (
        0u8..16,
        any::<u16>(),
        arb_kind(),
        any::<u16>(),
        any::<usize>(),
    )
        .prop_map(|(k, p, kind, q, i)| match k {
            0..=2 => BpuOp::Train(p, kind, q),
            3..=6 => BpuOp::Direction(p, q & 1 == 1),
            7 => BpuOp::Push(q),
            8 | 9 => BpuOp::Predict(p),
            10 => BpuOp::Edge(p, q),
            11 => BpuOp::Msr(q as u8),
            12 => BpuOp::Ibpb,
            13 => BpuOp::Checkpoint,
            14 => BpuOp::Rewind(i),
            _ => BpuOp::Foreign,
        });
    proptest::collection::vec(op, 1..120)
}

/// Every observable of `bpu` at the probe PCs: served predictions (on
/// a scratch copy, since serving may pop the RSB), directions, BTB
/// hits, RSB top and occupancy, BHB tag and MSRs.
fn bpu_view(bpu: &Bpu, probes: &[u16]) -> Vec<String> {
    let mut scratch = bpu.clone();
    let mut seen: Vec<String> = probes
        .iter()
        .map(|&p| {
            let pc = pool_pc(p);
            format!(
                "{:?} {} {:?}",
                scratch.predict_window(pc, 8, PrivilegeLevel::User, 0),
                bpu.predict_direction(pc),
                bpu.btb().lookup(pc),
            )
        })
        .collect();
    seen.push(format!(
        "{:?} {} {} {:?} {}",
        bpu.rsb().peek(),
        bpu.rsb().len(),
        bpu.bhb().tag(),
        bpu.msr(),
        bpu.btb().len(),
    ));
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The in-place `Bpu::restore_from` (journaled CBP, `clone_from`
    /// BTB and RSB, copied BHB and MSRs) is `*self = snap.clone()`:
    /// after every rewind the live BPU equals a fresh clone of the
    /// snapshot in every field, and a shadow BPU that only rewinds by
    /// cloning serves the same predictions after every step. Covers
    /// the legacy, m1f-style and mutated CBP schemes, IBPB mid-epoch,
    /// repeated rewinds and foreign-token snapshots.
    #[test]
    fn in_place_bpu_rewind_matches_clone(
        scheme in arb_cbp_scheme(),
        ops in arb_bpu_ops(),
        probes in proptest::collection::vec(any::<u16>(), 1..16),
    ) {
        let mut live = Bpu::with_schemes(BtbScheme::zen34(), scheme.clone(), MsrState::none());
        let mut shadow = live.clone();
        let mut foreign = Bpu::with_schemes(BtbScheme::zen12(), scheme, MsrState::none());
        foreign.train_direction(pool_pc(2), true);
        foreign.train(pool_pc(3), BranchKind::Indirect, pool_pc(4), PrivilegeLevel::User);
        let mut snaps: Vec<(Bpu, Bpu)> = Vec::new();
        for op in ops {
            let mut target = None;
            for bpu in [&mut live, &mut shadow] {
                match op {
                    BpuOp::Train(p, kind, q) => {
                        bpu.train(pool_pc(p), kind, pool_pc(q), PrivilegeLevel::User);
                    }
                    BpuOp::Direction(p, taken) => bpu.train_direction(pool_pc(p), taken),
                    BpuOp::Push(q) => bpu.rsb_mut().push(pool_pc(q)),
                    BpuOp::Predict(p) => {
                        bpu.predict_window(pool_pc(p), 8, PrivilegeLevel::User, 0);
                    }
                    BpuOp::Edge(p, q) => bpu.record_edge(pool_pc(p), pool_pc(q)),
                    BpuOp::Msr(bits) => bpu.set_msr(MsrState {
                        suppress_bp_on_non_br: bits & 1 != 0,
                        auto_ibrs: bits & 2 != 0,
                        eibrs_tagging: bits & 4 != 0,
                        stibp: bits & 8 != 0,
                    }),
                    BpuOp::Ibpb => bpu.ibpb(),
                    BpuOp::Checkpoint | BpuOp::Rewind(_) | BpuOp::Foreign => {}
                }
            }
            match op {
                BpuOp::Checkpoint => {
                    live.begin_epoch();
                    snaps.push((live.clone(), shadow.clone()));
                }
                BpuOp::Rewind(i) if !snaps.is_empty() => target = Some(&snaps[i % snaps.len()]),
                BpuOp::Foreign => {
                    live.restore_from(&foreign);
                    prop_assert!(live.same_state(&foreign.clone()), "foreign rewind differs from a clone");
                    shadow = foreign.clone();
                }
                _ => {}
            }
            if let Some((snap, shadow_snap)) = target {
                live.restore_from(snap);
                prop_assert!(live.same_state(&snap.clone()), "rewind differs from a clone");
                shadow = shadow_snap.clone();
            }
            prop_assert!(live.cbp().dirty_len() <= live.cbp().scheme().sets());
            prop_assert_eq!(bpu_view(&live, &probes), bpu_view(&shadow, &probes));
        }
    }
}
