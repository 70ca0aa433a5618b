//! Property-based tests for the machine, centered on the property the
//! whole paper rests on: speculation is **architecturally invisible**.
//! However badly the BTB is poisoned, the committed register file,
//! flags, and memory contents must be identical to an unpoisoned run —
//! the *only* traces are microarchitectural (caches, µop cache,
//! counters), which is precisely what makes Phantom a side channel and
//! not a correctness bug.

use proptest::prelude::*;

use phantom_isa::encode::encode_all;
use phantom_isa::inst::AluOp;
use phantom_isa::{BranchKind, Cond, Inst, Reg};
use phantom_mem::{PageFlags, PrivilegeLevel, VirtAddr};

use phantom_cache::PerfCounters;

use crate::events::{EventSink, PipelineEvent};
use crate::machine::Machine;
use crate::profile::UarchProfile;

const TEXT_BASE: u64 = 0x40_0000;
const DATA_BASE: u64 = 0x60_0000;
const STACK_TOP: u64 = 0x7000_3f00;

/// A random, always-terminating program: straight-line arithmetic,
/// loads/stores into a mapped window, short forward branches, calls to
/// a tiny leaf, ending in `hlt`.
fn arb_program() -> impl Strategy<Value = Vec<Inst>> {
    let step = prop_oneof![
        (0u8..8, 0u8..8)
            .prop_map(|(d, s)| vec![Inst::Alu {
                op: AluOp::Add,
                dst: Reg::from_index(d).expect("in range"),
                src: Reg::from_index(s).expect("in range"),
            }])
            .boxed(),
        (0u8..8, any::<u32>())
            .prop_map(|(d, imm)| vec![Inst::MovImm {
                dst: Reg::from_index(d).expect("in range"),
                imm: u64::from(imm),
            }])
            .boxed(),
        (0u8..8, 0u16..0x380)
            .prop_map(|(d, off)| vec![Inst::Load {
                dst: Reg::from_index(d).expect("in range"),
                base: Reg::R8,
                disp: i32::from(off),
            }])
            .boxed(),
        (0u8..8, 0u16..0x380)
            .prop_map(|(s, off)| vec![Inst::Store {
                base: Reg::R8,
                disp: i32::from(off),
                src: Reg::from_index(s).expect("in range"),
            }])
            .boxed(),
        (0u8..8, 0u8..8)
            .prop_map(|(a, b)| vec![Inst::Cmp {
                a: Reg::from_index(a).expect("in range"),
                b: Reg::from_index(b).expect("in range"),
            }])
            .boxed(),
        // A self-contained branch diamond: the conditional skips exactly
        // its 10-byte landing pad, so the taken edge never lands
        // mid-instruction.
        Just(vec![
            Inst::Jcc {
                cond: Cond::Eq,
                disp: 10
            },
            Inst::NopN { len: 10 },
        ])
        .boxed(),
        Just(vec![Inst::Nop]).boxed(),
        Just(vec![Inst::Lfence]).boxed(),
    ];
    proptest::collection::vec(step, 1..30).prop_map(|chunks| chunks.concat())
}

/// Garbage to poison the BTB with before the run.
#[derive(Debug, Clone)]
struct Poison {
    /// Offset into the program text where a fake branch is trained.
    source_off: u16,
    /// Fake branch kind.
    kind: u8,
    /// Fake target selector: low bits pick inside text, data (NX), or
    /// nowhere.
    target_sel: u8,
    target_off: u16,
}

fn arb_poison() -> impl Strategy<Value = Vec<Poison>> {
    proptest::collection::vec(
        (any::<u16>(), 0u8..4, 0u8..3, any::<u16>()).prop_map(
            |(source_off, kind, target_sel, target_off)| Poison {
                source_off,
                kind,
                target_sel,
                target_off,
            },
        ),
        0..12,
    )
}

/// Physical memory of every machine these tests build.
const PHYS: u64 = 1 << 24;

fn build_machine(profile: &UarchProfile, program: &[Inst]) -> Machine {
    let mut m = Machine::new(profile.clone(), PHYS);
    install_program(&mut m, program);
    m
}

/// Map the text, data and stack windows, write `program` (plus a
/// `hlt`) at the text base and point the PC at it.
fn install_program(m: &mut Machine, program: &[Inst]) {
    let bytes = encode_all(program.iter().chain(&[Inst::Halt])).expect("encodable");
    m.map_range(
        VirtAddr::new(TEXT_BASE),
        0x4000,
        PageFlags::USER_TEXT | PageFlags::WRITE,
    )
    .expect("text maps");
    m.poke(VirtAddr::new(TEXT_BASE), &bytes);
    m.map_range(VirtAddr::new(DATA_BASE), 0x1000, PageFlags::USER_DATA)
        .expect("data maps");
    m.map_range(VirtAddr::new(0x7000_0000), 0x4000, PageFlags::USER_DATA)
        .expect("stack maps");
    m.set_reg(Reg::R8, DATA_BASE);
    m.set_reg(Reg::SP, STACK_TOP);
    m.set_pc(VirtAddr::new(TEXT_BASE));
}

fn poison_btb(m: &mut Machine, program_len: u64, poisons: &[Poison]) {
    for p in poisons {
        let source = VirtAddr::new(TEXT_BASE + u64::from(p.source_off) % program_len.max(1));
        let kind = match p.kind {
            0 => BranchKind::Indirect,
            1 => BranchKind::Direct,
            2 => BranchKind::Cond,
            _ => BranchKind::Ret,
        };
        let target = match p.target_sel {
            0 => VirtAddr::new(TEXT_BASE + u64::from(p.target_off) % 0x3f00),
            1 => VirtAddr::new(DATA_BASE + u64::from(p.target_off) % 0xf00),
            _ => VirtAddr::new(0xdead_0000 + u64::from(p.target_off)),
        };
        m.bpu_mut()
            .train(source, kind, target, PrivilegeLevel::User);
        if kind == BranchKind::Cond {
            // Make the fake conditional predict taken too.
            for _ in 0..8 {
                m.bpu_mut().train_direction(source, true);
            }
        }
    }
}

fn final_state(m: &Machine) -> (Vec<u64>, (bool, bool, bool), Vec<u8>) {
    let regs = Reg::ALL.iter().map(|&r| m.reg(r)).collect();
    let data = m.try_peek(VirtAddr::new(DATA_BASE), 0x400).unwrap();
    (regs, m.flags(), data)
}

/// Records every pipeline event a machine emits.
struct Recorder(Vec<PipelineEvent>);

impl EventSink for Recorder {
    fn on_event(&mut self, event: &PipelineEvent) {
        self.0.push(*event);
    }
}

/// What the sealing proptest compares: architectural state, PC and
/// cycles, with the event stream that produced them; then the PMU, the
/// TLB's hit/miss counts and the physical-memory counters.
type Observation = (
    (Vec<u64>, (bool, bool, bool), Vec<u8>, VirtAddr, u64),
    Vec<PipelineEvent>,
    (PerfCounters, u64, u64, [u64; 5], Vec<u8>),
);

fn observe(m: &Machine, events: Vec<PipelineEvent>) -> Observation {
    let (regs, flags, data) = final_state(m);
    let phys = m.phys();
    (
        (regs, flags, data, m.pc(), m.cycles()),
        events,
        (
            m.pmu().clone(),
            m.tlb().hits(),
            m.tlb().misses(),
            [
                phys.cow_faults(),
                phys.restore_frames_copied(),
                phys.rewind_journal_frames(),
                phys.frame_pool_reuses(),
                phys.cow_frames_shared(),
            ],
            m.try_peek(VirtAddr::new(STACK_TOP - 0x100), 0x200).unwrap(),
        ),
    )
}

/// Run up to `steps` instructions (stopping at `hlt`) with a recorder
/// attached, and observe the result.
fn observe_run(m: &mut Machine, steps: usize) -> Observation {
    let id = m.attach_sink(Recorder(Vec::new()));
    for _ in 0..steps {
        if m.step().expect("steps").halted {
            break;
        }
    }
    let events = m
        .detach_sink_as::<Recorder>(id)
        .expect("recorder attached")
        .0;
    observe(m, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Non-interference: a clean run and a BTB-poisoned run of the same
    /// program commit identical architectural state, on every profile
    /// class (phantom-executing Zen 2 and squash-early Zen 4).
    #[test]
    fn speculation_never_changes_architecture(
        program in arb_program(),
        poisons in arb_poison(),
    ) {
        for profile in [UarchProfile::zen2(), UarchProfile::zen4()] {
            let mut clean = build_machine(&profile, &program);
            clean.run(400).expect("clean run terminates");
            let clean_state = final_state(&clean);

            let mut poisoned = build_machine(&profile, &program);
            let program_len = encode_all(&program).expect("encodable").len() as u64 + 1;
            poison_btb(&mut poisoned, program_len, &poisons);
            poisoned.run(400).expect("poisoned run terminates");
            let poisoned_state = final_state(&poisoned);

            prop_assert_eq!(&clean_state, &poisoned_state, "profile {}", profile.name);
        }
    }

    /// Determinism: the same program on the same profile commits the
    /// same state and the same cycle count, twice.
    #[test]
    fn machine_is_deterministic(program in arb_program()) {
        let profile = UarchProfile::zen3();
        let mut a = build_machine(&profile, &program);
        a.run(400).expect("terminates");
        let mut b = build_machine(&profile, &program);
        b.run(400).expect("terminates");
        prop_assert_eq!(final_state(&a), final_state(&b));
        prop_assert_eq!(a.cycles(), b.cycles());
    }

    /// Profile-independence of architecture: Zen 1 and Intel 13 disagree
    /// on every latency and window parameter, but commit identical
    /// architectural results.
    #[test]
    fn architecture_is_profile_independent(program in arb_program()) {
        let mut a = build_machine(&UarchProfile::zen1(), &program);
        a.run(400).expect("terminates");
        let mut b = build_machine(&UarchProfile::intel13(), &program);
        b.run(400).expect("terminates");
        prop_assert_eq!(final_state(&a), final_state(&b));
    }

    /// Snapshot/restore round-trips the full machine: architectural
    /// state (registers, flags, memory), cycle counter, PMU, BTB and
    /// µop cache. Verified structurally (direct lookups before and
    /// after the rewind) and behaviourally (the restored machine's
    /// continuation commits exactly what the original's did).
    #[test]
    fn snapshot_restore_round_trips(
        program in arb_program(),
        poisons in arb_poison(),
        prefix in 0usize..40,
    ) {
        use phantom_cache::Event;

        let profile = UarchProfile::zen2();
        let mut m = build_machine(&profile, &program);
        let program_len = encode_all(&program).expect("encodable").len() as u64 + 1;
        poison_btb(&mut m, program_len, &poisons);

        // Run a prefix so the caches, µop cache and PMU hold state.
        for _ in 0..prefix {
            if m.step().expect("steps").halted {
                break;
            }
        }
        let snap = m.snapshot();

        // Capture direct views of the state at the snapshot point.
        let at_snap = (final_state(&m), m.cycles(), m.pc());
        let probe_vas: Vec<VirtAddr> =
            (0..32).map(|i| VirtAddr::new(TEXT_BASE + i * 0x40)).collect();
        let btb_view: Vec<_> =
            probe_vas.iter().map(|&va| m.bpu().btb().lookup(va)).collect();
        let uop_view: Vec<bool> =
            probe_vas.iter().map(|&va| m.uop_cache().lookup(va.raw())).collect();
        let pmu_events = [
            Event::OpCacheHit,
            Event::OpCacheMiss,
            Event::IcacheMiss,
            Event::BranchMispredict,
            Event::InstRetired,
        ];
        let pmu_view: Vec<u64> = pmu_events.iter().map(|&e| m.pmu().read(e)).collect();

        // Continuation A on the original machine.
        m.run(400).expect("terminates");
        let end_a = (final_state(&m), m.cycles());

        // Rewind; every captured view must match the snapshot point.
        m.restore(&snap);
        prop_assert_eq!(&(final_state(&m), m.cycles(), m.pc()), &at_snap);
        let btb_after: Vec<_> =
            probe_vas.iter().map(|&va| m.bpu().btb().lookup(va)).collect();
        prop_assert_eq!(btb_view, btb_after, "BTB state survives the rewind");
        let uop_after: Vec<bool> =
            probe_vas.iter().map(|&va| m.uop_cache().lookup(va.raw())).collect();
        prop_assert_eq!(uop_view, uop_after, "uop-cache state survives the rewind");
        let pmu_after: Vec<u64> = pmu_events.iter().map(|&e| m.pmu().read(e)).collect();
        prop_assert_eq!(pmu_view, pmu_after, "PMU state survives the rewind");

        // Continuation B must replay A exactly.
        m.run(400).expect("terminates");
        prop_assert_eq!(end_a, (final_state(&m), m.cycles()));
    }

    /// Sealing by move ([`Machine::into_checkpoint`]) is sealing by
    /// clone ([`Machine::checkpoint`]): after `prefix` steps, one copy
    /// of a BTB-poisoned machine is sealed each way; forks of the two
    /// checkpoints commit, time, count and emit the same run, and
    /// rewind to the same state — after which they replay it again.
    #[test]
    fn move_sealed_checkpoint_matches_clone_sealed(
        program in arb_program(),
        poisons in arb_poison(),
        prefix in 0usize..40,
        steps in 1usize..400,
    ) {
        let profile = UarchProfile::zen2();
        let mut m = build_machine(&profile, &program);
        let program_len = encode_all(&program).expect("encodable").len() as u64 + 1;
        poison_btb(&mut m, program_len, &poisons);
        for _ in 0..prefix {
            if m.step().expect("steps").halted {
                break;
            }
        }
        let mut cloned = m.clone();
        let by_clone = cloned.checkpoint();
        drop(cloned);
        let by_move = m.into_checkpoint();

        let mut forks = [by_clone.fork(), by_move.fork()];
        let views = forks.each_mut().map(|fork| observe_run(fork, steps));
        prop_assert_eq!(&views[0], &views[1], "forks diverge");

        by_clone.rewind(&mut forks[0]);
        by_move.rewind(&mut forks[1]);
        let rewound = forks.each_ref().map(|fork| observe(fork, Vec::new()));
        prop_assert_eq!(&rewound[0], &rewound[1], "rewinds diverge");
        let replays = forks.each_mut().map(|fork| observe_run(fork, steps));
        prop_assert_eq!(&replays[0], &replays[1], "replays diverge");
        // The replay after the rewind is the first run again (the
        // physical-memory counters aside: they count the rewind).
        prop_assert_eq!(&replays[1].0, &views[1].0);
        prop_assert_eq!(&replays[1].1, &views[1].1);
    }

    /// Transient side effects are bounded: every wrong-path load in the
    /// reports stays within the address space the victim could touch
    /// (mapped pages); squashed stores never reach memory (covered by
    /// non-interference, asserted directly here via report contents).
    #[test]
    fn transient_reports_are_conservative(
        program in arb_program(),
        poisons in arb_poison(),
    ) {
        let profile = UarchProfile::zen2();
        let mut m = build_machine(&profile, &program);
        let program_len = encode_all(&program).expect("encodable").len() as u64 + 1;
        poison_btb(&mut m, program_len, &poisons);
        let mut steps = 0;
        loop {
            let out = m.step().expect("steps");
            if let Some(t) = &out.transient {
                for load in &t.loads_dispatched {
                    // A dispatched load implies a successful translation.
                    prop_assert!(
                        m.page_table()
                            .translate(*load, phantom_mem::AccessKind::Read, PrivilegeLevel::User)
                            .is_ok(),
                        "squashed load at unmapped {load}"
                    );
                }
            }
            steps += 1;
            if out.halted || steps > 400 {
                break;
            }
        }
    }
}

/// What follows the first code page in `page_chunked_code_reads_match_the_per_byte_oracle`.
const SECOND_PAGES: [Option<PageFlags>; 5] = [
    None,                         // unmapped
    Some(PageFlags::USER_DATA),   // NX
    Some(PageFlags::KERNEL_TEXT), // supervisor-only
    Some(PageFlags::USER_TEXT),   // executable from either level
    Some(PageFlags::KERNEL_DATA), // NX and supervisor-only
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `read_code_bytes` (one translation and one slice copy per page)
    /// reads exactly what the per-byte oracle reads, truncating at the
    /// same byte, for PCs in the last 20 bytes of a page followed by an
    /// unmapped, NX, supervisor-only or executable page, from user and
    /// supervisor mode, with the second page's frame written or never
    /// materialized.
    #[test]
    fn page_chunked_code_reads_match_the_per_byte_oracle(
        back in 1u64..21,
        n in 0usize..24,
        second in 0usize..SECOND_PAGES.len(),
        supervisor in any::<bool>(),
        bytes in proptest::collection::vec(any::<u8>(), 40),
        write_second in any::<bool>(),
    ) {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let page = VirtAddr::new(TEXT_BASE);
        let end = page + 0x1000;
        m.map_range(page, 0x1000, PageFlags::USER_TEXT).expect("maps");
        m.poke(end - 20, &bytes[..20]);
        if let Some(flags) = SECOND_PAGES[second] {
            m.map_range(end, 0x1000, flags).expect("maps");
            if write_second {
                m.poke(end, &bytes[20..]);
            }
        }
        if supervisor {
            m.set_level(PrivilegeLevel::Supervisor);
        }
        let pc = end - back;
        let mut out = vec![0; n];
        let read = m.read_code_bytes(pc, &mut out);
        prop_assert_eq!(&out[..read], &m.read_code_bytes_per_byte(pc, n)[..]);
    }
}

/// One step of a rewound-trial workload for
/// `decode_cache_survives_rewinds_invisibly`. Pages are indices into
/// the text's four pages and the four slots after them; offsets index
/// [`TRIAL_OFFSETS`], so pokes, jumps and the program entry (page 0,
/// offset 0) keep meeting at the same addresses.
#[derive(Debug, Clone)]
enum TrialOp {
    /// Push a checkpoint.
    Checkpoint,
    /// Map fresh pages (a no-op where already mapped alike).
    Map { page: u64, text: bool },
    /// Unmap a page.
    Unmap { page: u64 },
    /// Unmap a page, then map a fresh executable one in its place.
    Remap { page: u64 },
    /// Poke one of [`POKES`], or the bytes already there, into a mapped
    /// page.
    Poke {
        page: u64,
        off: usize,
        which: usize,
        identical: bool,
    },
    /// Point the PC into a page.
    Jump { page: u64, off: usize },
    /// Point the program's store base (`R8`) at the program's own
    /// code, so its stores rewrite it, or back at the data page.
    StoreIntoCode(bool),
    /// Change a page's flags through `page_table_mut`.
    SetFlags { page: u64, which: usize },
    /// Rewind to the outstanding checkpoint picked by this index.
    Rewind(usize),
}

/// Pages the trial ops touch: the four text pages, then fresh slots.
const TRIAL_PAGES: u64 = 8;
/// Offsets the trial ops poke and jump to; the last straddles into the
/// next page.
const TRIAL_OFFSETS: [u64; 4] = [0, 0x40, 0x7f0, 0xffc];
/// Instructions a trial pokes into code.
const POKES: [Inst; 4] = [
    Inst::Nop,
    Inst::MovImm {
        dst: Reg::R0,
        imm: 7,
    },
    Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R1,
        src: Reg::R0,
    },
    Inst::Halt,
];
const TRIAL_FLAGS: [PageFlags; 3] = [
    PageFlags::USER_TEXT,
    PageFlags::USER_DATA,
    PageFlags::KERNEL_TEXT,
];

fn arb_trial_op() -> impl Strategy<Value = TrialOp> {
    // Half the ops aim at the program's own page.
    let page = || prop_oneof![Just(0), 0..TRIAL_PAGES];
    let off = || 0..TRIAL_OFFSETS.len();
    let poke = || {
        (page(), off(), 0..POKES.len(), any::<bool>()).prop_map(|(page, off, which, identical)| {
            TrialOp::Poke {
                page,
                off,
                which,
                identical,
            }
        })
    };
    let rewind = || (0usize..4).prop_map(TrialOp::Rewind);
    // No weights in `prop_oneof!`: pokes and rewinds are listed twice
    // to come up more often.
    prop_oneof![
        Just(TrialOp::Checkpoint),
        (page(), any::<bool>()).prop_map(|(page, text)| TrialOp::Map { page, text }),
        page().prop_map(|page| TrialOp::Unmap { page }),
        page().prop_map(|page| TrialOp::Remap { page }),
        poke(),
        poke(),
        (page(), off()).prop_map(|(page, off)| TrialOp::Jump { page, off }),
        any::<bool>().prop_map(TrialOp::StoreIntoCode),
        (page(), 0..TRIAL_FLAGS.len()).prop_map(|(page, which)| TrialOp::SetFlags { page, which }),
        rewind(),
        rewind(),
    ]
}

/// What the rewound-trial proptest compares after every op: each step's
/// result, then registers, flags, PC, cycles and the PMU.
type TrialTrace = Vec<(
    Vec<Result<crate::machine::StepOutcome, crate::machine::MachineError>>,
    Vec<u64>,
    (bool, bool, bool),
    VirtAddr,
    u64,
    PerfCounters,
)>;

/// Play `ops` on a fresh machine running `program`, with the decode
/// cache on or off: apply each op, then step the machine the op's
/// count of times, restarting at the program entry after a `hlt` or
/// an error. Return the per-op trace and the event stream.
fn play_trials(
    program: &[Inst],
    ops: &[(TrialOp, usize)],
    cached: bool,
) -> (TrialTrace, Vec<PipelineEvent>) {
    let mut m = build_machine(&UarchProfile::zen2(), program);
    m.set_decode_cache_enabled(cached);
    // Caught faults land on a `hlt` at the top of the text, so an
    // unmapped or NX page ends a run instead of erroring every step.
    let handler = VirtAddr::new(TEXT_BASE + 0x3ff0);
    m.poke(handler, &encode_all(&[Inst::Halt]).expect("encodable"));
    m.set_fault_handler(Some(handler));
    let id = m.attach_sink(Recorder(Vec::new()));
    let mut snaps = Vec::new();
    let mut trace = TrialTrace::new();
    let page_va = |page: u64| VirtAddr::new(TEXT_BASE + page * 0x1000);
    for &(ref op, run) in ops {
        match *op {
            TrialOp::Checkpoint => snaps.push(m.snapshot()),
            TrialOp::Map { page, text } => {
                let flags = if text {
                    PageFlags::USER_TEXT | PageFlags::WRITE
                } else {
                    PageFlags::USER_DATA
                };
                // A page mapped with other flags refuses the remap,
                // alike in both arms.
                let _ = m.map_range(page_va(page), 0x1000, flags);
            }
            TrialOp::Unmap { page } => {
                m.unmap_range(page_va(page), 0x1000);
            }
            TrialOp::Remap { page } => {
                m.unmap_range(page_va(page), 0x1000);
                m.map_range(
                    page_va(page),
                    0x1000,
                    PageFlags::USER_TEXT | PageFlags::WRITE,
                )
                .expect("the page was just unmapped");
            }
            TrialOp::Poke {
                page,
                off,
                which,
                identical,
            } => {
                let va = page_va(page) + TRIAL_OFFSETS[off];
                let mut bytes = Vec::new();
                phantom_isa::encode::encode_into(&POKES[which], &mut bytes).expect("encodable");
                if m.try_peek(va, bytes.len()).is_ok() {
                    if identical {
                        bytes = m.try_peek(va, bytes.len()).unwrap();
                    }
                    m.poke(va, &bytes);
                }
            }
            TrialOp::Jump { page, off } => m.set_pc(page_va(page) + TRIAL_OFFSETS[off]),
            TrialOp::StoreIntoCode(into_code) => {
                m.set_reg(Reg::R8, if into_code { TEXT_BASE } else { DATA_BASE });
            }
            TrialOp::SetFlags { page, which } => {
                m.page_table_mut()
                    .set_flags(page_va(page), TRIAL_FLAGS[which]);
            }
            TrialOp::Rewind(i) => {
                if !snaps.is_empty() {
                    let snap = &snaps[i % snaps.len()];
                    m.restore(snap);
                }
            }
        }
        let mut steps = Vec::new();
        for _ in 0..run {
            let step = m.step();
            let done = !matches!(&step, Ok(out) if !out.halted);
            steps.push(step);
            if done {
                m.set_pc(VirtAddr::new(TEXT_BASE));
            }
        }
        let regs = Reg::ALL.iter().map(|&r| m.reg(r)).collect();
        trace.push((steps, regs, m.flags(), m.pc(), m.cycles(), m.pmu().clone()));
    }
    let events = m
        .detach_sink_as::<Recorder>(id)
        .expect("recorder attached")
        .0;
    (trace, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The decode cache survives rewinds invisibly: random sequences
    /// of checkpoints, runs, fresh mappings, unmappings, code pokes
    /// (changed and identical bytes), architectural stores into code,
    /// page-flag changes and rewinds to any outstanding checkpoint
    /// produce the same step results, registers, flags, PC, cycles,
    /// PMU and event stream with the cache on as with it off.
    #[test]
    fn decode_cache_survives_rewinds_invisibly(
        program in arb_program(),
        ops in proptest::collection::vec((arb_trial_op(), 0usize..40), 1..32),
    ) {
        let (trace_on, events_on) = play_trials(&program, &ops, true);
        let (trace_off, events_off) = play_trials(&program, &ops, false);
        prop_assert_eq!(trace_on, trace_off);
        prop_assert_eq!(events_on, events_off);
    }
}

/// Zen 2 with a smaller L2 and µop cache and another replacement
/// policy, from spec text: a reset to it reallocates every cache.
fn reshaped_profile() -> UarchProfile {
    let text = crate::spec::UarchSpec::zen2()
        .to_text()
        .replace("cache.l2 1024 8 64", "cache.l2 512 4 64")
        .replace("cache.uop 64 8 64", "cache.uop 32 8 64")
        .replace("cache.replacement lru", "cache.replacement fifo");
    let spec = crate::spec::parse_specs(&text)
        .expect("the reshaped spec parses")
        .remove(0);
    assert_eq!(spec.cache.l2.sets, 512, "the L2 line was rewritten");
    assert_eq!(spec.cache.uop.sets, 32, "the µop line was rewritten");
    spec.profile()
}

/// The tagged 2-way CBP of `examples/uarch/m1_firestorm.spec`.
fn m1f_profile() -> UarchProfile {
    crate::spec::parse_specs(include_str!("../../../examples/uarch/m1_firestorm.spec"))
        .expect("the example spec parses")
        .remove(0)
        .profile()
}

/// A profile to reset a machine to: a builtin (all share one cache and
/// CBP shape), a validated mutant of one, the reshaped Zen 2 or m1f.
fn arb_reset_target() -> impl Strategy<Value = UarchProfile> {
    prop_oneof![
        (0..8usize).prop_map(|i| crate::spec::UarchSpec::builtins()[i].profile()),
        (0..8usize, any::<u64>()).prop_map(|(i, seed)| {
            let base = crate::spec::UarchSpec::builtins().swap_remove(i);
            crate::spec::mutate::mutate_spec(&base, seed)
                .unwrap_or(base)
                .profile()
        }),
        Just(()).prop_map(|()| reshaped_profile()),
        Just(()).prop_map(|()| m1f_profile()),
    ]
}

/// Every cache, predictor and TLB view the reset proptest compares
/// (the µop cache it compares whole, by equality): each cache level's
/// shape, counts and per-set contents, the CBP's
/// trained entries, history and counters and the BTB's and RSB's
/// contents at every text line, the MSRs, and the TLB's counts and
/// occupancy.
fn structure_view(m: &Machine) -> Vec<String> {
    let mut view = vec![format!("{:?}", m.profile())];
    let caches = m.caches();
    for cache in [caches.l1i(), caches.l1d(), caches.l2()] {
        let g = cache.geometry();
        view.push(format!("{g:?} {} {}", cache.hits(), cache.misses()));
        for set in 0..g.sets {
            let mut lines = cache.set_contents(set);
            lines.sort_unstable();
            view.push(format!("{lines:x?}"));
        }
    }
    let bpu = m.bpu();
    let (cbp, btb) = (bpu.cbp(), bpu.btb());
    view.push(format!(
        "cbp {} {} {}; btb {}; rsb {} {:?}; msr {:?}",
        cbp.scheme().summary(),
        cbp.len(),
        cbp.ghr(),
        btb.len(),
        bpu.rsb().len(),
        bpu.rsb().peek(),
        bpu.msr(),
    ));
    for off in (0..0x4000).step_by(2) {
        let pc = VirtAddr::new(TEXT_BASE + off);
        view.push(format!("{:?} {:?}", cbp.counter(pc), btb.lookup(pc)));
    }
    let tlb = m.tlb();
    view.push(format!("tlb {} {} {}", tlb.hits(), tlb.misses(), tlb.len()));
    view
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Machine::reset` is `Machine::new`: a machine reset to one
    /// profile, run on a BTB-poisoned program A, then reset to another
    /// profile shows the same caches, predictors and TLB as a new
    /// machine of that profile, and then runs a poisoned program B with
    /// the same architectural result, cycles, PMU, TLB and memory
    /// counters, event stream and final structures. Targets cover
    /// builtins (the in-place reset of touched sets), mutants, another
    /// cache geometry and policy, and the tagged 2-way CBP (both of
    /// which reallocate). Between the resets a snapshot may open an
    /// epoch, with or without a rewind to it, which makes the reset
    /// clear every set instead of the ones it logged.
    #[test]
    fn reset_matches_a_new_machine(
        a in arb_program(),
        poison_a in arb_poison(),
        b in arb_program(),
        poison_b in arb_poison(),
        targets in (arb_reset_target(), arb_reset_target()),
        epoch_prefix in (0u8..3, 0usize..40),
    ) {
        let ((first, second), (epoch, prefix)) = (targets, epoch_prefix);
        let mut m = Machine::new(UarchProfile::zen2(), PHYS);
        m.reset(first, PHYS);
        install_program(&mut m, &a);
        let len_a = encode_all(&a).expect("encodable").len() as u64 + 1;
        poison_btb(&mut m, len_a, &poison_a);
        for _ in 0..prefix {
            if m.step().expect("steps").halted {
                break;
            }
        }
        let snap = (epoch > 0).then(|| m.snapshot());
        m.run(400).expect("program A terminates");
        if let (Some(snap), 2) = (&snap, epoch) {
            m.restore(snap);
        }

        m.reset(second.clone(), PHYS);
        let mut fresh = Machine::new(second, PHYS);
        prop_assert_eq!(structure_view(&m), structure_view(&fresh), "reset state differs");
        prop_assert!(m.uop_cache() == fresh.uop_cache(), "reset uop cache differs");

        let len_b = encode_all(&b).expect("encodable").len() as u64 + 1;
        for machine in [&mut m, &mut fresh] {
            install_program(machine, &b);
            poison_btb(machine, len_b, &poison_b);
        }
        let (reset_run, fresh_run) = (observe_run(&mut m, 400), observe_run(&mut fresh, 400));
        prop_assert_eq!(reset_run, fresh_run, "program B runs differ");
        prop_assert_eq!(structure_view(&m), structure_view(&fresh), "state after program B differs");
        prop_assert!(m.uop_cache() == fresh.uop_cache(), "uop cache after program B differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wrong path's inline line set de-duplicates exactly like the
    /// `IntSet` it replaced, below, at and past its inline capacity
    /// (where it spills to the heap).
    #[test]
    fn inline_line_set_matches_int_set(lines in proptest::collection::vec(0u64..40, 0..80)) {
        let mut inline = crate::machine::LineSet::new();
        let mut oracle = phantom_mem::IntSet::default();
        for line in lines {
            prop_assert_eq!(inline.insert(line << 6), oracle.insert(line << 6));
        }
    }
}
