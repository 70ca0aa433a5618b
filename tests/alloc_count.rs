//! Heap allocations on the trial hot path, counted by a counting global
//! allocator.
//!
//! Every covert-channel vote repeats the same few steps on a rewound
//! machine, so the host cost of one trial is the cost of one simulated
//! instruction and one probe. These tests pin how many heap allocations
//! the trial paths make: none for a warm rewound `Machine::run` whose
//! wrong path fetches and decodes, an exact count for one warm covert
//! probe (none on the fetch channel), none for a warm PHT-lane trial
//! (which replays its calibrated rounds), and none for a warm quiet
//! covert trial (which replays its fork's recorded votes). A change that
//! adds an allocation to any of these paths fails here, however small
//! its share of wall time.
//!
//! The counter is per thread, so tests running in parallel do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use phantom::attacks::{pht_channel_decoded_on, PhtChannelConfig};
use phantom::covert::{
    execute_channel_decoded_on, fetch_channel_decoded_on, CovertConfig, CovertKind,
};
use phantom::decode::DecoderConfig;
use phantom::primitives::{p1_probe_scored, p2_probe_scored, PrimitiveConfig};
use phantom::runner::TrialRunner;
use phantom::UarchProfile;
use phantom_isa::asm::Assembler;
use phantom_isa::encode::encode_all;
use phantom_isa::{BranchKind, Inst, Reg};
use phantom_kernel::System;
use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::Machine;
use phantom_sidechannel::{NoiseModel, ProbeArena, ProbeLevel};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation on
/// the calling thread.
struct Counting;

fn count() {
    // `try_with`: the slot is const-initialized and needs no
    // destructor, but an allocation during thread teardown must never
    // panic inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a plain thread-local `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations it made.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// The Figure 4 victim on `profile`: a `jmp*` trained at `x` towards a
/// load at `c`, then overwritten with nops, so the next run from `x`
/// takes a phantom misprediction into `c`. Returns the machine
/// checkpointed just before that victim run.
fn phantom_victim(profile: UarchProfile) -> (Machine, phantom_pipeline::Checkpoint) {
    let mut m = Machine::new(profile, 1 << 24);
    let text = PageFlags::USER_TEXT | PageFlags::WRITE;
    let x = VirtAddr::new(0x40_0ac0);
    let c = VirtAddr::new(0x48_0b40);
    m.map_range(x.page_base(), 0x1000, text).unwrap();
    m.map_range(VirtAddr::new(0x60_0000), 64, PageFlags::USER_DATA)
        .unwrap();
    m.set_reg(Reg::R8, 0x60_0000);
    let mut g = Assembler::new(c.raw());
    g.push(Inst::Load {
        dst: Reg::R9,
        base: Reg::R8,
        disp: 0,
    });
    g.push(Inst::Halt);
    m.load_blob(&g.finish().unwrap(), text).unwrap();
    let mut t = Assembler::new(x.raw());
    t.push(Inst::JmpInd { src: Reg::R11 });
    t.push(Inst::Halt);
    m.load_blob(&t.finish().unwrap(), text).unwrap();
    m.set_reg(Reg::R11, c.raw());
    m.set_pc(x);
    m.run(8).unwrap();
    m.poke(x, &encode_all(&[Inst::Nop, Inst::Nop, Inst::Halt]).unwrap());
    m.set_pc(x);
    let snap = m.checkpoint();
    (m, snap)
}

#[test]
fn a_warm_rewound_run_with_a_decoding_wrong_path_allocates_nothing() {
    // Zen 4: the phantom wrong path reaches ID (fetch and decode, no
    // execute).
    let (mut m, snap) = phantom_victim(UarchProfile::zen4());
    // Not vacuous: stepping the victim takes a misprediction whose
    // wrong path fetches and decodes.
    let mut decoded = false;
    for _ in 0..8 {
        let out = m.step().unwrap();
        decoded |= out.transient.is_some_and(|t| t.fetched && t.decoded);
        if out.halted {
            break;
        }
    }
    assert!(decoded, "the victim run takes a decoding wrong path");
    let warm_cycles = m.cycles();
    for _ in 0..3 {
        snap.rewind(&mut m);
        let (exit, allocations) = allocations_in(|| m.run(8).unwrap());
        assert_eq!(exit, phantom_pipeline::RunExit::Halted);
        assert_eq!(
            m.cycles(),
            warm_cycles,
            "a rewound run repeats the warm one"
        );
        assert_eq!(allocations, 0, "a warm rewound run allocated");
    }
}

/// A covert receiver as `phantom::covert` sets one up: a cached boot,
/// a standing probe arena and the training stub, checkpointed.
struct Receiver {
    sys: System,
    cfg: PrimitiveConfig,
    snap: phantom_pipeline::Checkpoint,
    targets: [VirtAddr; 2],
    victim: VirtAddr,
    gadget: VirtAddr,
}

impl Receiver {
    fn boot(profile: UarchProfile, kind: CovertKind) -> Receiver {
        let mut sys = System::new_cached(profile, 1 << 30, 0x5eed).unwrap();
        let attacker = VirtAddr::new(0x5000_0000);
        let arena = match kind {
            CovertKind::Fetch => ProbeArena::install(sys.machine_mut(), attacker, ProbeLevel::L1I),
            CovertKind::Execute => {
                ProbeArena::install(sys.machine_mut(), attacker + 0x20_0000, ProbeLevel::L1D)
            }
        }
        .unwrap();
        let cfg = PrimitiveConfig::for_system(&sys, attacker).with_arena(arena);
        let (t1, flip, victim, gadget) = match kind {
            CovertKind::Fetch => (
                sys.image().base + 0x2000 + 43 * 64,
                0x2000_0000,
                sys.image().listing1_nop,
                VirtAddr::new(0),
            ),
            CovertKind::Execute => (
                sys.layout().physmap_base() + 0x10_0000 + 29 * 64,
                0x2_0000_0000,
                sys.image().listing2_call,
                sys.image().listing3_gadget,
            ),
        };
        sys.plant_user_branch(cfg.user_alias(victim), BranchKind::Indirect, t1)
            .unwrap();
        let snap = sys.machine_mut().checkpoint();
        Receiver {
            sys,
            cfg,
            snap,
            targets: [t1, VirtAddr::new(t1.raw() ^ flip)],
            victim,
            gadget,
        }
    }

    /// One trial's probe: rewind, then arm → train → prime → victim
    /// syscall → probe.
    fn probe(&mut self, kind: CovertKind, target: VirtAddr, noise: &mut NoiseModel) -> bool {
        self.snap.rewind(self.sys.machine_mut());
        let reading = match kind {
            CovertKind::Fetch => {
                p1_probe_scored(&mut self.sys, &self.cfg, self.victim, target, noise)
            }
            CovertKind::Execute => p2_probe_scored(
                &mut self.sys,
                &self.cfg,
                self.victim,
                self.gadget,
                target,
                noise,
            ),
        };
        reading.unwrap().hit
    }
}

#[test]
fn a_warm_covert_probe_makes_a_fixed_number_of_allocations() {
    // Per pair of probes (one at each sender target), after a warm-up:
    // an armed eviction set keeps its lines inline, so only the execute
    // channel allocates: its probe at the mapped target lists its one
    // transient load. That channel's syscall writes the kernel stack,
    // so its rewinds copy pages back, which allocates nothing in
    // release builds; debug builds also check each of those rewinds
    // against a full dirty-frame scan, which lists the pages it finds.
    const PAIRS: u64 = 8;
    let scans = if cfg!(debug_assertions) { 2 } else { 0 };
    for (profile, kind, per_pair) in [
        (UarchProfile::zen2(), CovertKind::Fetch, 0),
        (UarchProfile::zen4(), CovertKind::Fetch, 0),
        (UarchProfile::zen2(), CovertKind::Execute, 1 + scans),
    ] {
        let name = format!("{} {kind:?}", profile.name);
        let mut rx = Receiver::boot(profile, kind);
        let mut noise = NoiseModel::quiet(0);
        for target in rx.targets {
            rx.probe(kind, target, &mut noise);
        }
        let (hits, allocations) = allocations_in(|| {
            let mut hits = 0;
            for _ in 0..PAIRS {
                for target in rx.targets {
                    hits += u64::from(rx.probe(kind, target, &mut noise));
                }
            }
            hits
        });
        // Not vacuous: the mapped target reads as a hit, the hole not.
        assert_eq!(hits, PAIRS, "{name}");
        assert_eq!(
            allocations,
            per_pair * PAIRS,
            "{name}: allocations over {PAIRS} probe pairs"
        );
    }
}

#[test]
fn a_warm_pht_trial_allocates_nothing() {
    // A PHT job allocates its sample list and the runner's bookkeeping
    // once, whatever its size; its trials replay the profile's
    // calibrated rounds and allocate nothing. So once the profile is
    // calibrated, a job of many bits allocates exactly what a job of
    // one bit does. One worker keeps every allocation on this thread.
    let runner = TrialRunner::with_threads(1);
    let job = |bits: usize| {
        let (profile, decoder) = (UarchProfile::zen2(), DecoderConfig::default());
        let noise = NoiseModel::realistic(3);
        let config = PhtChannelConfig { bits, seed: 3 };
        allocations_in(|| pht_channel_decoded_on(&runner, profile, config, noise, decoder).unwrap())
    };
    job(1);
    let (one, base) = job(1);
    let (many, allocations) = job(256);
    // Not vacuous: the long job decodes every bit, with more votes.
    assert_eq!((one.bits, many.bits), (1, 256));
    assert!(many.probes > 256 && many.accuracy > 0.9, "{many:?}");
    assert_eq!(allocations, base, "255 more warm PHT trials allocated");
}

#[test]
fn a_quiet_covert_job_allocates_the_same_at_64_and_256_bits() {
    // A covert job allocates its set-up, its sample list and the
    // runner's bookkeeping once, whatever its size, and its fork records
    // each (sender bit, vote index) the first time a trial casts it.
    // Every later quiet trial replays recorded votes and allocates
    // nothing, so a job of 256 bits allocates exactly what a job of 64
    // bits does. One worker keeps every allocation on this thread.
    let runner = TrialRunner::with_threads(1);
    for (profile, kind) in [
        (UarchProfile::zen2(), CovertKind::Fetch),
        (UarchProfile::zen4(), CovertKind::Fetch),
        (UarchProfile::zen2(), CovertKind::Execute),
    ] {
        let name = format!("{} {kind:?}", profile.name);
        let job = |bits: usize| {
            let (profile, decoder) = (profile.clone(), DecoderConfig::default());
            let config = CovertConfig { bits, seed: 3 };
            let noise = NoiseModel::quiet(config.seed);
            allocations_in(|| match kind {
                CovertKind::Fetch => {
                    fetch_channel_decoded_on(&runner, profile, config, noise, decoder).unwrap()
                }
                CovertKind::Execute => {
                    execute_channel_decoded_on(&runner, profile, config, noise, decoder).unwrap()
                }
            })
        };
        job(64);
        let (short, base) = job(64);
        let (long, allocations) = job(256);
        // Not vacuous: both jobs decode every bit in one two-vote round.
        for r in [&short, &long] {
            assert!(r.accuracy > 0.99, "{name}: {r:?}");
            assert_eq!(r.probes, 2 * r.bits as u64, "{name}: {r:?}");
        }
        assert_eq!(
            allocations, base,
            "{name}: 192 more warm quiet covert trials allocated"
        );
    }
}
