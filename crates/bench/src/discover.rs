//! Adversarial auto-discovery over the (program × spec) space.
//!
//! The hand-written Table 1 sweep asks a fixed question: five canonical
//! victims, five canonical trainings, eight builtin parts, training
//! always *in place*. This module asks the open-ended one — *which*
//! (victim program, microarchitecture, training placement) triples
//! produce a decoder-detectable misprediction whose wrong path reaches
//! stage ≥ ID? A seeded fuzzer drives three mutation axes at once:
//!
//! * **programs** — random [`ProgOp`] sequences assembled at the victim
//!   site with [`phantom_isa::Assembler`]; malformed candidates
//!   (undefined labels, backwards `org`, oversized displacements) are
//!   *rejected candidates counted by reason*, not crashes — the
//!   structured [`AsmError`] paths exist precisely so a fuzzer can lean
//!   on them;
//! * **specs** — builtin `phantom-uarch-spec v1` parts mutated within
//!   validation bounds by [`mutate_spec`];
//! * **placement** — the training site is `V ^ δ` for a BTB alias
//!   delta δ solved from the spec's fold functions
//!   ([`alias_delta`]), so out-of-place training through real BTB
//!   aliasing is part of the search space.
//!
//! The leak property is checked over the event bus with
//! [`LeakProbe`] and cross-checked against the
//! [`TransientReport`](phantom_pipeline::TransientReport) ground
//! truth; any disagreement is flagged on the finding. For δ ≠ 0 the
//! alias oracle ([`oracle_confirms`]) checks that δ flips only the
//! translated bits 12–46 and keeps every fold parity of the spec's own
//! BTB, proving the alias is structural rather than a lucky eviction.
//! Alias signatures are XOR-linear, so that check is exact: the
//! paper's §6.2 procedure of sampling colliders and solving for the
//! fold functions over GF(2) could only agree with it or, short of
//! samples, refute a real alias, and it survives in the tests as the
//! reference the check is held to.
//!
//! Findings are minimized (delta-debug the instruction sequence, then
//! shrink the spec toward its base builtin with
//! [`shrink_candidates`]) and can be serialized as
//! `phantom-fuzz-case v1` text files — the committed regression corpus
//! under `tests/corpus/` that `tests/e2e_discover.rs` replays.
//!
//! Determinism contract: a case is a pure function of its trial seed,
//! evaluation is a pure function of the case, and the JSONL report is
//! a pure function of the (trial-ordered) samples — so `repro
//! discover` output is byte-identical across runs and worker counts,
//! like every other runner in this crate.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phantom::experiment::TrainKind;
use phantom::property::LeakProbe;
use phantom::report::json::SCHEMA;
use phantom::report::value::JsonValue;
use phantom::runner::{Scenario, ScenarioError, Trial, TrialRunner};
use phantom::Stage;
use phantom_gf2::BitMatrix;
use phantom_isa::asm::AsmError;
use phantom_isa::encode::{encode_all, NOP_LENS};
use phantom_isa::{Assembler, Cond, Inst, Reg};
use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::spec::mutate::{matches_base, mutate_spec, shrink_candidates};
use phantom_pipeline::spec::{parse_specs, SPEC_HEADER};
use phantom_pipeline::{Machine, UarchProfile, UarchRegistry, UarchSpec};

use crate::RunnerError;

/// Header line of the corpus text format.
pub const CASE_HEADER: &str = "phantom-fuzz-case v1";

// The fixed geography, mirroring `phantom::experiment`'s standard
// layout: victim site V, phantom target C (load payload), halt island
// F, the RSB call site, the probe data page, and the stack.
const VICTIM: u64 = 0x40_0ac0;
const TARGET: u64 = 0x48_0b40;
const HALT: u64 = 0x4c_0000;
const CALL_SITE: u64 = 0x4a_0b3b;
const PROBE: u64 = 0x60_0000;
const STACK_BASE: u64 = 0x7000_0000;
const STACK_TOP: u64 = 0x7000_4000 - 64;
/// Span mapped (and writable) at the victim site; programs longer than
/// this are rejected candidates.
const PROG_SPAN: u64 = 0x2000;
/// Distance from a training site to its direct-branch target — the
/// same V→C displacement the Table 1 harness uses, kept constant so
/// the phantom steer at V lands on the payload whether the BTB stores
/// targets absolutely or PC-relatively.
const DIRECT_SPAN: u64 = TARGET - VICTIM;
/// Canonical 47-bit user virtual address space bound.
const VA_LIMIT: u64 = 1 << 47;
/// The translated bits a training delta may flip: bits 12–46. The page
/// offset stays (the BTB indexes it directly) and so does b47 (the
/// user/kernel half). [`alias_delta`] draws only from this domain.
const DELTA_DOMAIN: u64 = 0x0000_7fff_ffff_f000;
/// Physical memory of every case's machine.
const CASE_PHYS: u64 = 1 << 26;

/// One instruction-sequence gene. The closed set keeps the corpus text
/// format total: every op serializes with [`op_text`] and parses back
/// with [`parse_op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgOp {
    /// Single-byte `nop`.
    Nop,
    /// Multi-byte nop of the given encoded length (3–15).
    NopN(u8),
    /// `ret` — pops the planted return address.
    Ret,
    /// `load r9, [r8]` — r8 holds the probe page.
    Load,
    /// `jmp* r11` — r11 holds the halt island.
    JmpInd,
    /// Define local label `Ln` here.
    Label(u8),
    /// `jmp Ln` — undefined labels are rejected candidates.
    Jmp(u8),
    /// `jb Ln` — CF is clear on the victim run, so never taken.
    Jcc(u8),
    /// `call Ln`.
    Call(u8),
    /// `org` to the given offset from the victim site; backwards moves
    /// are rejected candidates.
    Org(u16),
}

/// Canonical text form of one op (one corpus line, sans indent).
#[must_use]
pub fn op_text(op: ProgOp) -> String {
    match op {
        ProgOp::Nop => "nop".into(),
        ProgOp::NopN(n) => format!("nopn {n}"),
        ProgOp::Ret => "ret".into(),
        ProgOp::Load => "load".into(),
        ProgOp::JmpInd => "jmp_ind".into(),
        ProgOp::Label(l) => format!("label {l}"),
        ProgOp::Jmp(l) => format!("jmp {l}"),
        ProgOp::Jcc(l) => format!("jcc {l}"),
        ProgOp::Call(l) => format!("call {l}"),
        ProgOp::Org(o) => format!("org {o:#x}"),
    }
}

/// Parse one op line (inverse of [`op_text`]).
///
/// # Errors
///
/// Returns a message naming the unparsable token.
pub fn parse_op(line: &str) -> Result<ProgOp, String> {
    let mut parts = line.split_whitespace();
    let head = parts.next().ok_or("empty op line")?;
    let arg = parts.next();
    if parts.next().is_some() {
        return Err(format!("trailing tokens on op line {line:?}"));
    }
    let num = |what: &str| -> Result<u64, String> {
        let raw = arg.ok_or_else(|| format!("`{head}` needs a {what}"))?;
        parse_u64(raw).ok_or_else(|| format!("bad {what} {raw:?}"))
    };
    let op = match head {
        "nop" => ProgOp::Nop,
        "nopn" => {
            let n = num("length")?;
            match u8::try_from(n) {
                Ok(len) if NOP_LENS.contains(&len) => ProgOp::NopN(len),
                _ => return Err(format!("nopn length {n} outside {NOP_LENS:?}")),
            }
        }
        "ret" => ProgOp::Ret,
        "load" => ProgOp::Load,
        "jmp_ind" => ProgOp::JmpInd,
        "label" => ProgOp::Label(label_id(num("label id")?)?),
        "jmp" => ProgOp::Jmp(label_id(num("label id")?)?),
        "jcc" => ProgOp::Jcc(label_id(num("label id")?)?),
        "call" => ProgOp::Call(label_id(num("label id")?)?),
        "org" => {
            let o = num("offset")?;
            if o >= PROG_SPAN {
                return Err(format!("org offset {o:#x} outside the victim span"));
            }
            ProgOp::Org(o as u16)
        }
        other => return Err(format!("unknown op {other:?}")),
    };
    match (op, arg) {
        (ProgOp::Nop | ProgOp::Ret | ProgOp::Load | ProgOp::JmpInd, Some(extra)) => {
            Err(format!("`{head}` takes no argument, found {extra:?}"))
        }
        _ => Ok(op),
    }
}

fn label_id(n: u64) -> Result<u8, String> {
    if n < 8 {
        Ok(n as u8)
    } else {
        Err(format!("label id {n} outside 0..8"))
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Assemble an op sequence at `base`, with a terminating `hlt`.
///
/// # Errors
///
/// Returns the assembler's structured [`AsmError`] for malformed
/// sequences — the fuzzer counts these as rejected candidates.
pub fn assemble_ops(base: u64, ops: &[ProgOp]) -> Result<Vec<u8>, AsmError> {
    let mut a = Assembler::new(base);
    for &op in ops {
        match op {
            ProgOp::Nop => a.push(Inst::Nop),
            ProgOp::NopN(n) => a.push(Inst::NopN { len: n }),
            ProgOp::Ret => a.push(Inst::Ret),
            ProgOp::Load => a.push(Inst::Load {
                dst: Reg::R9,
                base: Reg::R8,
                disp: 0,
            }),
            ProgOp::JmpInd => a.push(Inst::JmpInd { src: Reg::R11 }),
            ProgOp::Label(l) => a.label(format!("L{l}")),
            ProgOp::Jmp(l) => a.jmp(format!("L{l}")),
            ProgOp::Jcc(l) => a.jb(format!("L{l}")),
            ProgOp::Call(l) => a.call(format!("L{l}")),
            ProgOp::Org(o) => a.org(base + u64::from(o)),
        };
    }
    a.push(Inst::Halt);
    Ok(a.finish()?.bytes)
}

/// Stable identifier for a training kind in records and corpus files.
#[must_use]
pub fn train_id(train: TrainKind) -> &'static str {
    match train {
        TrainKind::JmpInd => "jmp_ind",
        TrainKind::Jmp => "jmp",
        TrainKind::Jcc => "jcc",
        TrainKind::Ret => "ret",
        TrainKind::NonBranch => "non_branch",
    }
}

/// Inverse of [`train_id`].
#[must_use]
pub fn train_from_id(s: &str) -> Option<TrainKind> {
    Some(match s {
        "jmp_ind" => TrainKind::JmpInd,
        "jmp" => TrainKind::Jmp,
        "jcc" => TrainKind::Jcc,
        "ret" => TrainKind::Ret,
        "non_branch" => TrainKind::NonBranch,
        _ => return None,
    })
}

/// One point in the (program × spec × placement) search space.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Key of the builtin the spec derives from.
    pub base_key: String,
    /// The spec under test (a builtin, or a validated mutant of one).
    pub spec: UarchSpec,
    /// Whether `spec` differs from the builtin `base_key` names.
    pub mutated: bool,
    /// How the predictor is trained before the victim run.
    pub train: TrainKind,
    /// XOR between the training site and the victim site (0 = the
    /// classic in-place Table 1 setup). Non-zero deltas are BTB alias
    /// vectors solved from the spec's fold functions.
    pub delta: u64,
    /// The victim program installed at V.
    pub ops: Vec<ProgOp>,
    /// The trial seed the case was generated from.
    pub seed: u64,
}

/// Solve the spec's BTB fold functions for a non-trivial alias delta:
/// a vector δ over translated bits 12–46 with every restricted fold
/// parity zero, so training at `V ^ δ` populates the entry that serves
/// predictions at `V`. Returns `None` when the restricted nullspace is
/// trivial. Pure function of `(spec, seed)`.
#[must_use]
pub fn alias_delta(spec: &UarchSpec, seed: u64) -> Option<u64> {
    let masked: Vec<u64> = spec.btb.folds.iter().map(|f| f & DELTA_DOMAIN).collect();
    let basis: Vec<u64> = BitMatrix::from_rows(47, &masked)
        .orthogonal_basis()
        .into_iter()
        .filter(|v| *v != 0 && v & 0xfff == 0)
        .collect();
    if basis.is_empty() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // A random non-empty basis combination, so repeated draws explore
    // the whole alias class rather than one vector.
    let mut delta = basis[rng.gen_range(0..basis.len())];
    for v in &basis {
        if rng.gen_bool(0.25) {
            delta ^= v;
        }
    }
    if delta == 0 {
        delta = basis[0];
    }
    debug_assert!(spec
        .btb
        .folds
        .iter()
        .all(|f| (delta & f).count_ones().is_multiple_of(2)));
    Some(delta)
}

/// Generate the case for one trial. Pure function of `seed`.
#[must_use]
pub fn generate_case(seed: u64) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let builtins = UarchRegistry::builtin().specs();
    let base = builtins[rng.gen_range(0..builtins.len())].clone();
    let (spec, mutated) = if rng.gen_bool(0.5) {
        let mutation_seed = rng.gen::<u64>();
        match mutate_spec(&base, mutation_seed) {
            Some(m) => (m, true),
            None => (base.clone(), false),
        }
    } else {
        (base.clone(), false)
    };
    let train = [
        TrainKind::JmpInd,
        TrainKind::Jmp,
        TrainKind::Jcc,
        TrainKind::Ret,
    ][rng.gen_range(0..4usize)];
    let delta = if rng.gen_bool(0.5) {
        let delta_seed = rng.gen::<u64>();
        alias_delta(&spec, delta_seed).unwrap_or(0)
    } else {
        0
    };
    let ops = random_ops(&mut rng);
    FuzzCase {
        base_key: base.key.clone(),
        spec,
        mutated,
        train,
        delta,
        ops,
        seed,
    }
}

fn random_ops(rng: &mut StdRng) -> Vec<ProgOp> {
    let count = rng.gen_range(1..6usize);
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        ops.push(match rng.gen_range(0..13u32) {
            0 | 1 => ProgOp::Nop,
            2 => ProgOp::NopN(rng.gen_range(NOP_LENS)),
            3 | 4 => ProgOp::Ret,
            5 => ProgOp::Load,
            6 | 7 => ProgOp::JmpInd,
            8 => ProgOp::Label(rng.gen_range(0..2u8)),
            9 => ProgOp::Jmp(rng.gen_range(0..2u8)),
            10 => ProgOp::Jcc(rng.gen_range(0..2u8)),
            11 => ProgOp::Org(rng.gen_range(0..0x1800u16)),
            _ => ProgOp::Call(rng.gen_range(0..2u8)),
        });
    }
    ops
}

/// What one victim run showed, by both vantage points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeakObservation {
    /// Deepest stage per the event-bus [`LeakProbe`].
    pub stage: Stage,
    /// Deepest stage per the machine's `TransientReport` ground truth.
    pub truth: Stage,
    /// The two vantage points disagree — itself a finding (a channel
    /// or probe bug).
    pub disagreement: bool,
}

/// The evaluation of one fuzz case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The program never assembled (structured [`AsmError`] slug) or
    /// the geography was impossible; counted by reason.
    Rejected(String),
    /// The machine faulted mid-run.
    Faulted(String),
    /// Ran clean; the leak property did not hold.
    Quiet(Stage),
    /// The leak property held.
    Leak(LeakObservation),
}

struct PageMapper {
    mapped: BTreeSet<u64>,
}

impl PageMapper {
    fn new() -> PageMapper {
        PageMapper {
            mapped: BTreeSet::new(),
        }
    }

    /// Map every page of `[base, base+len)` not already mapped.
    fn ensure(
        &mut self,
        m: &mut Machine,
        base: u64,
        len: u64,
        flags: PageFlags,
    ) -> Result<(), String> {
        let first = base & !0xfff;
        let last = (base + len - 1) & !0xfff;
        let mut page = first;
        loop {
            if self.mapped.insert(page) {
                m.map_range(VirtAddr::new(page), 0x1000, flags)
                    .map_err(|e| e.to_string())?;
            }
            if page == last {
                break;
            }
            page += 0x1000;
        }
        Ok(())
    }
}

/// The signal payload the trained branches steer to: a load of `[r8]`,
/// then `hlt`.
const PAYLOAD: [Inst; 2] = [
    Inst::Load {
        dst: Reg::R9,
        base: Reg::R8,
        disp: 0,
    },
    Inst::Halt,
];

/// Evaluate one case: train at `V ^ δ`, install the candidate program
/// at `V`, run, and read the leak property off the event bus. Pure
/// function of the case; candidate-induced failures come back as
/// [`CaseOutcome::Rejected`] / [`CaseOutcome::Faulted`], never panics.
/// Each call builds one cold machine; the discover scenario and the
/// minimizer reset one machine per worker instead, with the same
/// outcome.
#[must_use]
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    match victim_program(case) {
        Ok(bytes) => run_program(
            &mut Machine::new(case.spec.profile(), CASE_PHYS),
            case,
            &bytes,
        ),
        Err(slug) => CaseOutcome::Rejected(slug.into()),
    }
}

/// [`run_case`] on a reused machine: `m` is reset to the case's spec
/// ([`Machine::reset`], observably a new machine) instead of a new one
/// being built.
fn run_case_on(m: &mut Machine, case: &FuzzCase) -> CaseOutcome {
    match victim_program(case) {
        Ok(bytes) => {
            m.reset(case.spec.profile(), CASE_PHYS);
            run_program(m, case, &bytes)
        }
        Err(slug) => CaseOutcome::Rejected(slug.into()),
    }
}

/// The case's victim program, or the slug it is rejected under before
/// any machine runs.
fn victim_program(case: &FuzzCase) -> Result<Vec<u8>, &'static str> {
    let bytes = assemble_ops(VICTIM, &case.ops).map_err(|e| asm_reject_slug(&e))?;
    if bytes.len() as u64 > PROG_SPAN {
        return Err("program-too-large");
    }
    if (VICTIM ^ case.delta).wrapping_add(DIRECT_SPAN) >= VA_LIMIT {
        return Err("train-site-out-of-range");
    }
    Ok(bytes)
}

/// Train, install `bytes` and run the victim on `m`, a machine in the
/// state `Machine::new(case.spec.profile(), CASE_PHYS)` builds.
fn run_program(m: &mut Machine, case: &FuzzCase, bytes: &[u8]) -> CaseOutcome {
    let train_site = VICTIM ^ case.delta;
    let mut pages = PageMapper::new();
    let text = PageFlags::USER_TEXT | PageFlags::WRITE;
    let mut geography = || -> Result<(), String> {
        // The program begins mid-page at V and may `org` forward up to
        // PROG_SPAN, so the mapping must cover [V, V + PROG_SPAN), not
        // just PROG_SPAN bytes from the page base.
        pages.ensure(m, VICTIM & !0xfff, (VICTIM & 0xfff) + PROG_SPAN, text)?;
        pages.ensure(m, train_site & !0xfff, 0x1000, text)?;
        pages.ensure(m, TARGET & !0xfff, 0x1000, text)?;
        pages.ensure(m, HALT & !0xfff, 0x1000, text)?;
        pages.ensure(m, CALL_SITE & !0xfff, 0x1000, text)?;
        pages.ensure(m, PROBE, 0x1000, PageFlags::USER_DATA)?;
        pages.ensure(m, STACK_BASE, 0x4000, PageFlags::USER_DATA)?;
        if matches!(case.train, TrainKind::Jmp | TrainKind::Jcc) {
            pages.ensure(m, (train_site + DIRECT_SPAN) & !0xfff, 0x1000, text)?;
        }
        Ok(())
    };
    if let Err(e) = geography() {
        return CaseOutcome::Faulted(format!("map: {e}"));
    }

    m.set_reg(Reg::R8, PROBE);

    // --- Train at the (possibly aliased) site. ----------------------
    let x = VirtAddr::new(train_site);
    let code = |insts: &[Inst]| encode_all(insts).map_err(|e| e.to_string());
    let aimed = |branch: Inst, pc: u64, target: u64| {
        branch.with_target(pc, target).map_err(|e| e.to_string())
    };
    let train_result: Result<(), String> = (|| {
        m.poke(VirtAddr::new(TARGET), &code(&PAYLOAD)?);
        m.poke(VirtAddr::new(HALT), &code(&[Inst::Halt])?);
        match case.train {
            TrainKind::JmpInd => {
                m.poke(x, &code(&[Inst::JmpInd { src: Reg::R11 }, Inst::Halt])?);
                m.set_reg(Reg::R11, TARGET);
                m.set_reg(Reg::SP, STACK_TOP);
                m.set_pc(x);
                m.run(8).map_err(|e| e.to_string())?;
            }
            TrainKind::Jmp => {
                m.poke(VirtAddr::new(train_site + DIRECT_SPAN), &code(&PAYLOAD)?);
                let jmp = aimed(Inst::Jmp { disp: 0 }, train_site, train_site + DIRECT_SPAN)?;
                m.poke(x, &code(&[jmp, Inst::Halt])?);
                m.set_pc(x);
                m.run(8).map_err(|e| e.to_string())?;
            }
            TrainKind::Jcc => {
                m.poke(VirtAddr::new(train_site + DIRECT_SPAN), &code(&PAYLOAD)?);
                let jcc = Inst::Jcc {
                    cond: Cond::Eq,
                    disp: 0,
                };
                let jcc = aimed(jcc, train_site, train_site + DIRECT_SPAN)?;
                m.poke(x, &code(&[jcc, Inst::Halt])?);
                for _ in 0..10 {
                    m.set_flags(true, false, false);
                    m.set_pc(x);
                    m.run(8).map_err(|e| e.to_string())?;
                }
            }
            TrainKind::Ret => {
                m.poke(x, &code(&[Inst::Ret, Inst::Halt])?);
                m.set_reg(Reg::SP, STACK_TOP);
                m.poke_u64(VirtAddr::new(STACK_TOP), TARGET);
                m.set_pc(x);
                m.run(8).map_err(|e| e.to_string())?;
                // Plant the RSB: execute a call near the victim so the
                // predicted return target is the payload after it.
                let call = aimed(Inst::Call { disp: 0 }, CALL_SITE, HALT)?;
                m.poke(VirtAddr::new(CALL_SITE), &code(&[call])?);
                let ret_site = CALL_SITE + call.len() as u64;
                m.poke(VirtAddr::new(ret_site), &code(&PAYLOAD)?);
                m.set_reg(Reg::SP, STACK_TOP);
                m.set_pc(VirtAddr::new(CALL_SITE));
                m.run(4).map_err(|e| e.to_string())?;
            }
            TrainKind::NonBranch => {}
        }
        Ok(())
    })();
    if let Err(e) = train_result {
        return CaseOutcome::Faulted(format!("train: {e}"));
    }

    // --- Install the candidate program and run the victim. ----------
    m.poke(VirtAddr::new(VICTIM), bytes);
    m.set_reg(Reg::R11, HALT);
    m.set_reg(Reg::SP, STACK_TOP - 128);
    m.poke_u64(VirtAddr::new(STACK_TOP - 128), HALT);
    m.set_flags(true, false, false);

    let sink = m.attach_sink(LeakProbe::new());
    m.set_pc(VirtAddr::new(VICTIM));
    let run = m.run_collecting(24);
    let Some(probe) = m.detach_sink_as::<LeakProbe>(sink) else {
        return CaseOutcome::Faulted("victim: leak probe detached".into());
    };
    let reports = match run {
        Ok((_, reports)) => reports,
        Err(e) => return CaseOutcome::Faulted(format!("victim: {e}")),
    };

    let truth = reports
        .iter()
        .map(|r| {
            if !r.loads_dispatched.is_empty() {
                Stage::Ex
            } else if r.decoded {
                Stage::Id
            } else if r.fetched {
                Stage::If
            } else {
                Stage::None
            }
        })
        .max()
        .unwrap_or(Stage::None);
    let stage = probe.deepest_stage();
    if !probe.verdict() {
        return CaseOutcome::Quiet(stage);
    }
    CaseOutcome::Leak(LeakObservation {
        stage,
        truth,
        disagreement: stage != truth,
    })
}

fn asm_reject_slug(e: &AsmError) -> &'static str {
    match e {
        AsmError::UndefinedLabel { .. } => "undefined-label",
        AsmError::DuplicateLabel { .. } => "duplicate-label",
        AsmError::DispOverflow { .. } => "disp-overflow",
        AsmError::OrgBackwards { .. } => "org-backwards",
        AsmError::OrgTooFar { .. } => "org-too-far",
        _ => "encode",
    }
}

/// Confirmation that a non-zero delta is a structural BTB alias: δ lies
/// in the translated bits 12–46 and every fold function of the spec's
/// own BTB sees an even number of its flips, so training at `V ^ δ`
/// fills the entry that serves `V`. An in-place case (δ = 0) is
/// trivially confirmed. A δ outside bits 12–46 is refuted: no collider
/// in that domain can witness it, and discover never draws one.
///
/// Alias signatures are XOR-linear (§6.2), so the fold parities settle
/// the question exactly. On that domain the paper's procedure — sample
/// colliders, solve for the fold functions over GF(2), check that every
/// recovered function annihilates δ — can only agree with this answer
/// or, on too few samples, spuriously refute a real alias; the test
/// module keeps it as the reference this predicate is checked against.
#[must_use]
pub fn oracle_confirms(case: &FuzzCase) -> bool {
    case.delta == 0
        || (case.delta & !DELTA_DOMAIN == 0
            && case
                .spec
                .btb
                .scheme()
                .family
                .aliases(VirtAddr::new(VICTIM ^ case.delta), VirtAddr::new(VICTIM)))
}

fn builtin_by_key(key: &str) -> Option<UarchSpec> {
    UarchRegistry::builtin()
        .specs()
        .iter()
        .find(|s| s.key == key)
        .cloned()
}

/// Minimize a leaky case: delta-debug the op sequence (greedy removal
/// to a fixpoint), then shrink the spec toward its base builtin,
/// keeping every step that still leaks. Pure function of the case, so
/// minimization is deterministic. Every candidate runs on one machine,
/// reset between candidates.
#[must_use]
pub fn minimize_case(case: &FuzzCase) -> FuzzCase {
    minimize(&mut Machine::new(case.spec.profile(), CASE_PHYS), case).0
}

/// [`minimize_case`] on `m`, plus the observation of the last candidate
/// it accepted. `None` means it accepted none, so the caller's
/// observation of the input still describes the minimum; either way
/// the minimum needs no further run.
fn minimize(m: &mut Machine, case: &FuzzCase) -> (FuzzCase, Option<LeakObservation>) {
    minimize_with(case, |c| run_case_on(m, c))
}

/// The minimizer over any evaluation of a candidate: the reused
/// machine's in production, cold [`run_case`] as the tests' reference.
fn minimize_with(
    case: &FuzzCase,
    mut run: impl FnMut(&FuzzCase) -> CaseOutcome,
) -> (FuzzCase, Option<LeakObservation>) {
    let mut leak = |c: &FuzzCase| match run(c) {
        CaseOutcome::Leak(obs) => Some(obs),
        _ => None,
    };
    let mut cur = case.clone();
    let mut seen = None;
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < cur.ops.len() {
            let mut cand = cur.clone();
            cand.ops.remove(i);
            if let Some(obs) = leak(&cand) {
                cur = cand;
                seen = Some(obs);
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    if cur.mutated {
        if let Some(base) = builtin_by_key(&cur.base_key) {
            loop {
                let mut advanced = false;
                for spec in shrink_candidates(&cur.spec, &base) {
                    let mut cand = cur.clone();
                    cand.spec = spec;
                    if let Some(obs) = leak(&cand) {
                        cur = cand;
                        seen = Some(obs);
                        advanced = true;
                        break;
                    }
                }
                if !advanced {
                    break;
                }
            }
            // Only the derived key and name change here, and a run
            // reads neither.
            if matches_base(&cur.spec, &base) {
                cur.spec = base;
                cur.mutated = false;
            }
        }
    }
    (cur, seen)
}

/// True when the case sits outside the hand-written Table 1 grid:
/// a mutated spec, an out-of-place training delta, or a victim program
/// that is not one of the five canonical single-instruction victims.
#[must_use]
pub fn beyond_table1(case: &FuzzCase) -> bool {
    if case.mutated || case.delta != 0 {
        return true;
    }
    !matches!(
        case.ops.as_slice(),
        [] | [ProgOp::Nop] | [ProgOp::NopN(_)] | [ProgOp::Ret] | [ProgOp::JmpInd]
    )
}

/// A minimized, double-checked leak the fuzzer discovered.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Trial index that produced the case.
    pub index: usize,
    /// The minimized case.
    pub case: FuzzCase,
    /// Deepest stage per the event-bus probe.
    pub stage: Stage,
    /// Deepest stage per the `TransientReport` ground truth.
    pub truth: Stage,
    /// The probe and the ground truth disagree.
    pub disagreement: bool,
    /// The alias oracle confirms the (possibly aliased) placement.
    pub oracle_confirmed: bool,
    /// Outside the Table 1 grid.
    pub beyond_table1: bool,
}

/// Aggregated output of one discovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoverReport {
    /// Trials evaluated.
    pub budget: usize,
    /// Base seed of the run.
    pub seed: u64,
    /// Minimized leaks, in trial order.
    pub findings: Vec<Finding>,
    /// Trials that ran clean without leaking.
    pub quiet: usize,
    /// Trials whose program never assembled, by reason slug.
    pub rejected: BTreeMap<String, usize>,
    /// Trials that faulted mid-run, by reason.
    pub faulted: usize,
}

impl DiscoverReport {
    /// Total rejected candidates across all reasons.
    #[must_use]
    pub fn rejected_total(&self) -> usize {
        self.rejected.values().sum()
    }
}

enum Disposition {
    Leak(Box<Finding>),
    Quiet,
    Rejected(String),
    Faulted,
}

/// Fuzz configuration: trial budget and base seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscoverConfig {
    /// Number of (program × spec) candidates to evaluate.
    pub budget: usize,
    /// Base seed; each trial's case derives from
    /// `phantom::runner::trial_seed(seed, index)`.
    pub seed: u64,
}

struct DiscoverScenario {
    cfg: DiscoverConfig,
}

impl Scenario for DiscoverScenario {
    /// The worker's one machine: every case's first run and all of its
    /// minimizer candidates reset it to their spec.
    type State = Machine;
    /// Nothing is shared: each worker builds its own machine.
    type Checkpoint = ();
    type Sample = Disposition;
    type Output = DiscoverReport;

    fn trials(&self) -> usize {
        self.cfg.budget
    }

    fn setup(&self) -> Result<Machine, ScenarioError> {
        // A case resets the machine to its own spec before it runs, and
        // the first such reset allocates the full-size tables, so a run
        // whose cases are all rejected never builds them.
        Ok(Machine::new(UarchProfile::minimal(), CASE_PHYS))
    }

    fn checkpoint(&self, _: Machine) -> Result<(), ScenarioError> {
        // Dropped, not kept for `fork` to copy: with that copy alive for
        // the whole run, the peak RSS over one-case runs was 0.1-0.2 MiB
        // higher.
        Ok(())
    }

    fn fork(&self, (): &()) -> Result<Machine, ScenarioError> {
        self.setup()
    }

    fn probe(&self, m: &mut Machine, trial: Trial) -> Result<Disposition, ScenarioError> {
        let case = generate_case(trial.seed);
        Ok(match run_case_on(m, &case) {
            CaseOutcome::Rejected(reason) => Disposition::Rejected(reason),
            CaseOutcome::Faulted(_) => Disposition::Faulted,
            CaseOutcome::Quiet(_) => Disposition::Quiet,
            CaseOutcome::Leak(obs) => {
                // Evaluation is a pure function of the case, on a reset
                // machine as on a new one, so the last leaking run the
                // minimizer saw is the minimum's.
                let (min, seen) = minimize(m, &case);
                let obs = seen.unwrap_or(obs);
                Disposition::Leak(Box::new(Finding {
                    index: trial.index,
                    oracle_confirmed: oracle_confirms(&min),
                    beyond_table1: beyond_table1(&min),
                    stage: obs.stage,
                    truth: obs.truth,
                    disagreement: obs.disagreement,
                    case: min,
                }))
            }
        })
    }

    fn score(&self, samples: Vec<Disposition>) -> DiscoverReport {
        let mut report = DiscoverReport {
            budget: self.cfg.budget,
            seed: self.cfg.seed,
            findings: Vec::new(),
            quiet: 0,
            rejected: BTreeMap::new(),
            faulted: 0,
        };
        for sample in samples {
            match sample {
                Disposition::Leak(f) => report.findings.push(*f),
                Disposition::Quiet => report.quiet += 1,
                Disposition::Rejected(reason) => {
                    *report.rejected.entry(reason).or_insert(0) += 1;
                }
                Disposition::Faulted => report.faulted += 1,
            }
        }
        report
    }
}

/// Run a discovery campaign on `runner`. Output is byte-identical at
/// any worker count.
///
/// # Errors
///
/// Propagates scenario failures.
pub fn run_discover_on(
    runner: &TrialRunner,
    cfg: DiscoverConfig,
) -> Result<DiscoverReport, RunnerError> {
    runner.run(&DiscoverScenario { cfg }, cfg.seed)
}

/// Render the report as `phantom-bench/v1` JSONL: one `discover`
/// record per finding plus a trailing `discover-summary` record. Pure
/// function of the report; carries no wall-clock data.
#[must_use]
pub fn discover_jsonl(report: &DiscoverReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let mut o = JsonValue::object();
        o.set("schema", JsonValue::Str(SCHEMA.into()))
            .set("kind", JsonValue::Str("discover".into()))
            .set("index", JsonValue::Uint(f.index as u64))
            .set("base", JsonValue::Str(f.case.base_key.clone()))
            .set("uarch", JsonValue::Str(f.case.spec.key.clone()))
            .set("mutated", JsonValue::Bool(f.case.mutated))
            .set("train", JsonValue::Str(train_id(f.case.train).into()))
            .set("delta", JsonValue::Uint(f.case.delta))
            .set(
                "prog",
                JsonValue::Str(
                    f.case
                        .ops
                        .iter()
                        .map(|&op| op_text(op))
                        .collect::<Vec<_>>()
                        .join("; "),
                ),
            )
            .set("stage", JsonValue::Str(f.stage.to_string()))
            .set("truth", JsonValue::Str(f.truth.to_string()))
            .set("disagreement", JsonValue::Bool(f.disagreement))
            .set("oracle", JsonValue::Bool(f.oracle_confirmed))
            .set("beyond_table1", JsonValue::Bool(f.beyond_table1));
        out.push_str(&o.to_compact_string());
        out.push('\n');
    }
    let mut reasons = JsonValue::object();
    for (slug, count) in &report.rejected {
        reasons.set(slug.as_str(), JsonValue::Uint(*count as u64));
    }
    let mut s = JsonValue::object();
    s.set("schema", JsonValue::Str(SCHEMA.into()))
        .set("kind", JsonValue::Str("discover-summary".into()))
        .set("seed", JsonValue::Uint(report.seed))
        .set("budget", JsonValue::Uint(report.budget as u64))
        .set("leaks", JsonValue::Uint(report.findings.len() as u64))
        .set(
            "beyond_table1",
            JsonValue::Uint(report.findings.iter().filter(|f| f.beyond_table1).count() as u64),
        )
        .set("quiet", JsonValue::Uint(report.quiet as u64))
        .set("rejected", JsonValue::Uint(report.rejected_total() as u64))
        .set("faulted", JsonValue::Uint(report.faulted as u64))
        .set("reasons", reasons);
    out.push_str(&s.to_compact_string());
    out.push('\n');
    out
}

/// A corpus entry: the case plus the stage its leak must reach.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCase {
    /// The (program × spec × placement) point to replay.
    pub case: FuzzCase,
    /// Minimum stage the replayed leak must reach.
    pub expect: Stage,
}

/// Serialize a case as a `phantom-fuzz-case v1` corpus file. Mutant
/// specs embed their full `uarch` block (exactly as
/// [`UarchSpec::to_block`] prints it) after the program.
#[must_use]
pub fn case_to_text(case: &FuzzCase, expect: Stage) -> String {
    let mut out = String::new();
    out.push_str(CASE_HEADER);
    out.push('\n');
    out.push_str(&format!("base {}\n", case.base_key));
    out.push_str(&format!("seed {:#x}\n", case.seed));
    out.push_str(&format!("train {}\n", train_id(case.train)));
    out.push_str(&format!("delta {:#x}\n", case.delta));
    out.push_str(&format!("expect {expect}\n"));
    out.push_str("prog {\n");
    for &op in &case.ops {
        out.push_str(&format!("  {}\n", op_text(op)));
    }
    out.push_str("}\n");
    if case.mutated {
        out.push('\n');
        out.push_str(&case.spec.to_block());
    }
    out
}

/// Parse a `phantom-fuzz-case v1` corpus file (inverse of
/// [`case_to_text`]). Embedded `uarch` blocks go through the real spec
/// parser, so a malformed block reports the same structured errors the
/// spec loader does.
///
/// # Errors
///
/// Returns a message naming the offending line or field.
pub fn parse_case(text: &str) -> Result<ReplayCase, String> {
    let mut lines = text.lines();
    let header = lines
        .by_ref()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .ok_or("empty corpus file")?;
    if header != CASE_HEADER {
        return Err(format!("expected header {CASE_HEADER:?}, found {header:?}"));
    }

    let mut base_key: Option<String> = None;
    let mut seed = 0u64;
    let mut train: Option<TrainKind> = None;
    let mut delta = 0u64;
    let mut expect: Option<Stage> = None;
    let mut in_prog = false;
    for line in lines.by_ref() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "prog {" {
            in_prog = true;
            break;
        }
        let (key, value) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("bad field line {line:?}"))?;
        let value = value.trim();
        match key {
            "base" => base_key = Some(value.to_string()),
            "seed" => seed = parse_u64(value).ok_or_else(|| format!("bad seed {value:?}"))?,
            "train" => {
                train = Some(train_from_id(value).ok_or_else(|| format!("bad train {value:?}"))?);
            }
            "delta" => delta = parse_u64(value).ok_or_else(|| format!("bad delta {value:?}"))?,
            "expect" => {
                expect = Some(match value {
                    "IF" => Stage::If,
                    "ID" => Stage::Id,
                    "EX" => Stage::Ex,
                    other => return Err(format!("bad expect stage {other:?}")),
                });
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    if !in_prog {
        return Err("missing `prog {` block".into());
    }
    let mut ops = Vec::new();
    let mut closed = false;
    for line in lines.by_ref() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "}" {
            closed = true;
            break;
        }
        ops.push(parse_op(line)?);
    }
    if !closed {
        return Err("unterminated `prog {` block".into());
    }

    let base_key = base_key.ok_or("missing `base` field")?;
    let base = builtin_by_key(&base_key).ok_or_else(|| format!("unknown base {base_key:?}"))?;
    let rest: String = lines.collect::<Vec<_>>().join("\n");
    let (spec, mutated) = if rest.trim().is_empty() {
        (base, false)
    } else {
        let specs = parse_specs(&format!("{SPEC_HEADER}\n{rest}")).map_err(|e| e.to_string())?;
        let spec = specs
            .into_iter()
            .next()
            .ok_or("embedded spec section has no uarch block")?;
        (spec, true)
    };
    Ok(ReplayCase {
        case: FuzzCase {
            base_key,
            spec,
            mutated,
            train: train.ok_or("missing `train` field")?,
            delta,
            ops,
            seed,
        },
        expect: expect.ok_or("missing `expect` field")?,
    })
}

/// Replay one corpus entry: the case must still leak to at least the
/// recorded stage, and for aliased placements the alias oracle must
/// still confirm.
///
/// # Errors
///
/// Returns a message describing the regression.
pub fn replay_case(entry: &ReplayCase) -> Result<LeakObservation, String> {
    match run_case(&entry.case) {
        CaseOutcome::Leak(obs) => {
            if obs.stage < entry.expect {
                return Err(format!(
                    "leak regressed: reached {} but corpus expects {}",
                    obs.stage, entry.expect
                ));
            }
            if !oracle_confirms(&entry.case) {
                return Err(format!(
                    "alias oracle no longer confirms delta {:#x} on {}",
                    entry.case.delta, entry.case.spec.key
                ));
            }
            Ok(obs)
        }
        other => Err(format!("case no longer leaks: {other:?}")),
    }
}

/// Write up to `max` deduplicated corpus files for the report's
/// oracle-confirmed findings, beyond-Table-1 entries first. File names
/// are a pure function of the findings. Returns the written paths.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_corpus(
    dir: &Path,
    report: &DiscoverReport,
    max: usize,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut seen = BTreeSet::new();
    let mut paths = Vec::new();
    let beyond = report.findings.iter().filter(|f| f.beyond_table1);
    let grid = report.findings.iter().filter(|f| !f.beyond_table1);
    for f in beyond.chain(grid) {
        if paths.len() >= max {
            break;
        }
        if !f.oracle_confirmed {
            continue;
        }
        let prog: Vec<String> = f.case.ops.iter().map(|&op| op_text(op)).collect();
        let sig = format!(
            "{}|{}|{}|{:x}|{}",
            f.case.spec.key,
            train_id(f.case.train),
            f.case.mutated,
            f.case.delta,
            prog.join(";")
        );
        if !seen.insert(sig) {
            continue;
        }
        let name = format!(
            "{:04}-{}-{}.case",
            f.index,
            f.case.base_key,
            train_id(f.case.train)
        );
        let path = dir.join(name);
        std::fs::write(&path, case_to_text(&f.case, f.stage))?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom::collide::{collect_collisions, BtbOracle, CollisionOracle};
    use phantom_gf2::{recover_functions, RecoveryConfig, Span};
    use proptest::prelude::*;

    #[test]
    fn ops_round_trip_through_text() {
        let all = [
            ProgOp::Nop,
            ProgOp::NopN(7),
            ProgOp::Ret,
            ProgOp::Load,
            ProgOp::JmpInd,
            ProgOp::Label(1),
            ProgOp::Jmp(0),
            ProgOp::Jcc(1),
            ProgOp::Call(0),
            ProgOp::Org(0x140),
        ];
        for op in all {
            assert_eq!(parse_op(&op_text(op)), Ok(op), "{}", op_text(op));
        }
        assert!(parse_op("frobnicate").is_err());
        assert!(parse_op("nopn 2").is_err());
        assert!(parse_op("org 0x2000").is_err());
        assert!(parse_op("nop 3").is_err());
    }

    #[test]
    fn malformed_programs_are_rejections_not_panics() {
        // An undefined label and a backwards org both come back as
        // structured rejections — the satellite bug fixes this fuzzer
        // leans on.
        let jmp = run_case(&FuzzCase {
            ops: vec![ProgOp::Jmp(0)],
            ..known_leaky(TrainKind::JmpInd)
        });
        assert_eq!(jmp, CaseOutcome::Rejected("undefined-label".into()));
        let org = run_case(&FuzzCase {
            ops: vec![ProgOp::Nop, ProgOp::Org(0)],
            ..known_leaky(TrainKind::JmpInd)
        });
        assert_eq!(org, CaseOutcome::Rejected("org-backwards".into()));
    }

    fn known_leaky(train: TrainKind) -> FuzzCase {
        FuzzCase {
            base_key: "zen3".into(),
            spec: UarchSpec::zen3(),
            mutated: false,
            train,
            delta: 0,
            ops: vec![ProgOp::Nop],
            seed: 1,
        }
    }

    #[test]
    fn canonical_in_place_case_leaks_at_id_on_zen3() {
        match run_case(&known_leaky(TrainKind::JmpInd)) {
            CaseOutcome::Leak(obs) => {
                assert_eq!(obs.stage, Stage::Id);
                assert!(!obs.disagreement, "probe and ground truth agree");
            }
            other => panic!("expected a leak, got {other:?}"),
        }
    }

    #[test]
    fn alias_delta_is_a_real_collision() {
        for (spec, seed) in [(UarchSpec::zen3(), 3u64), (UarchSpec::zen1(), 9)] {
            let delta = alias_delta(&spec, seed).expect("nullspace is non-trivial");
            assert_ne!(delta, 0);
            assert_eq!(delta & 0xfff, 0, "page offset preserved");
            assert!(delta < VA_LIMIT, "b47 untouched");
            let mut oracle = BtbOracle::new(spec.btb.scheme());
            assert!(
                oracle.collides(VirtAddr::new(VICTIM ^ delta), VirtAddr::new(VICTIM)),
                "delta {delta:#x} must alias on {}",
                spec.key
            );
        }
    }

    #[test]
    fn out_of_place_training_leaks_and_oracle_confirms() {
        let spec = UarchSpec::zen3();
        let delta = alias_delta(&spec, 3).expect("zen3 has alias freedom");
        let case = FuzzCase {
            delta,
            ..known_leaky(TrainKind::JmpInd)
        };
        match run_case(&case) {
            CaseOutcome::Leak(obs) => assert!(obs.stage >= Stage::Id),
            other => panic!("aliased training should still leak, got {other:?}"),
        }
        assert!(oracle_confirms(&case), "structural alias must confirm");
        // A non-alias delta must be refuted by the behavioural check.
        let bogus = FuzzCase {
            delta: 1 << 13,
            ..known_leaky(TrainKind::JmpInd)
        };
        assert!(
            !oracle_confirms(&bogus),
            "zen3 folds reject a lone bit flip"
        );
    }

    /// Collisions the paper's procedure samples before it solves for
    /// the fold functions. Enough to span the alias nullspace (dimension
    /// ≤ 35 − rank ≈ 22 for the builtins): with fewer, the solver
    /// recovers spurious low-weight functions that are orthogonal only
    /// to the sampled differences, and the procedure wrongly refutes
    /// real aliases.
    const ORACLE_SAMPLES: usize = 32;

    /// Seeds the procedure's collision sampling apart from the case's
    /// other draws.
    const ORACLE_SALT: u64 = 0x6f72_6163;

    /// The colliders of V the procedure samples for `case`.
    fn sampled_colliders(case: &FuzzCase, samples: usize) -> Vec<u64> {
        let mut oracle = BtbOracle::new(case.spec.btb.scheme());
        collect_collisions(
            &mut oracle,
            VirtAddr::new(VICTIM),
            samples,
            case.seed ^ ORACLE_SALT,
        )
    }

    /// The §6.2 / Figure 7 procedure [`oracle_confirms`] replaced: the
    /// spec's own BTB must serve `V` after training at `V ^ δ`, and the
    /// functions recovered from `samples` sampled colliders must all
    /// annihilate δ.
    fn confirms_within(case: &FuzzCase, samples: usize) -> bool {
        if case.delta == 0 {
            return true;
        }
        let mut oracle = BtbOracle::new(case.spec.btb.scheme());
        if !oracle.collides(VirtAddr::new(VICTIM ^ case.delta), VirtAddr::new(VICTIM)) {
            return false;
        }
        let colliders = sampled_colliders(case, samples);
        let functions = recover_functions(&[(VICTIM, colliders)], RecoveryConfig::default());
        functions.iter().all(|f| f.eval(case.delta) == 0)
    }

    /// A builtin or mutated spec with a delta that is the spec's own
    /// alias, a random flip of the translated bits (rarely an alias),
    /// the base builtin's alias carried onto a mutant, or one of those
    /// pushed out of the delta domain: a nonzero page offset, or b47 set
    /// together with random sign-extension bits.
    fn arb_oracle_case() -> impl Strategy<Value = FuzzCase> {
        (
            0..8usize,
            any::<bool>(),
            0u8..3,
            0u8..4,
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(i, mutate, kind, escape, draw, seed)| {
                let base = UarchSpec::builtins().swap_remove(i);
                let spec = mutate
                    .then(|| mutate_spec(&base, draw.rotate_left(17)))
                    .flatten()
                    .unwrap_or_else(|| base.clone());
                let random = (draw & DELTA_DOMAIN).max(1 << 12);
                let delta = match kind {
                    0 => alias_delta(&spec, draw),
                    1 => Some(random),
                    _ => alias_delta(&base, draw),
                }
                .unwrap_or(random);
                let delta = match escape {
                    0 => delta | (draw.rotate_left(29) & 0xfff).max(1),
                    1 => delta | 1 << 47 | (draw.rotate_left(41) & 0xffff_0000_0000_0000),
                    _ => delta,
                };
                FuzzCase {
                    mutated: spec != base,
                    base_key: base.key.clone(),
                    spec,
                    delta,
                    seed,
                    ..known_leaky(TrainKind::JmpInd)
                }
            })
    }

    #[test]
    fn exact_oracle_refutes_deltas_outside_the_domain() {
        let spec = UarchSpec::zen3();
        let delta = alias_delta(&spec, 3).expect("zen3 has alias freedom");
        let case = |delta| FuzzCase {
            delta,
            ..known_leaky(TrainKind::JmpInd)
        };
        assert!(oracle_confirms(&case(delta)));
        // The fold masks stop at b47, so bits 48–63 leave every
        // signature alone; the domain still refutes them.
        assert!(!oracle_confirms(&case(delta | 1 << 50)));
        assert!(!oracle_confirms(&case(1 << 50)));
        assert!(!oracle_confirms(&case(delta | 0x40)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The exact verdict never confirms what the sampled procedure
        /// refutes, and the sampled procedure departs from it only by a
        /// spurious refutation: the behavioural check passed, and δ lies
        /// outside the span of the differences it sampled, so the solver
        /// recovered a function that annihilates the sample but not δ.
        /// Budgets of 4 and 8 are too few to span an alias class, so
        /// those refutations are exercised too.
        #[test]
        fn exact_verdict_matches_the_sampled_procedure(
            case in arb_oracle_case(),
            budget in 0..3usize,
        ) {
            let samples = [4, 8, ORACLE_SAMPLES][budget];
            let exact = oracle_confirms(&case);
            let sampled = confirms_within(&case, samples);
            let label = format!("{} delta {:#x} seed {}", case.spec.key, case.delta, case.seed);
            prop_assert!(exact || !sampled, "sampled confirms, exact refutes: {}", label);
            if exact != sampled {
                prop_assert_eq!(case.delta & !DELTA_DOMAIN, 0, "{}", label);
                let mut oracle = BtbOracle::new(case.spec.btb.scheme());
                prop_assert!(
                    oracle.collides(VirtAddr::new(VICTIM ^ case.delta), VirtAddr::new(VICTIM)),
                    "the sampled procedure refuted a non-collision: {}",
                    label
                );
                let mut differences = Span::new();
                for c in sampled_colliders(&case, samples) {
                    differences.insert(c ^ VICTIM);
                }
                prop_assert!(
                    !differences.contains(case.delta),
                    "refuted a delta inside the sampled span: {}",
                    label
                );
            }
        }

        /// A worker machine that has just run, and minimized, an
        /// unrelated case of another base spec evaluates the next case
        /// exactly as a cold machine does.
        #[test]
        fn a_reused_machine_evaluates_like_a_cold_one(seed in any::<u64>(), other in any::<u64>()) {
            let case = generate_case(seed);
            let mut m = worker_after_another_case(&case, other);
            prop_assert_eq!(run_case_on(&mut m, &case), run_case(&case));
        }

        /// The minimizer's recorded observation is the minimum's: when
        /// it returns `None` the input's own observation is, and in both
        /// cases a fresh run of the minimum agrees. Minimizing on a
        /// worker machine that has already run another case returns
        /// exactly what minimizing with a cold machine per candidate
        /// does, and `minimize_case` is the same minimum.
        #[test]
        fn minimize_returns_the_observation_of_its_minimum(seed in any::<u64>(), other in any::<u64>()) {
            let case = generate_case(seed);
            if let CaseOutcome::Leak(first) = run_case(&case) {
                let mut m = worker_after_another_case(&case, other);
                let (min, seen) = minimize(&mut m, &case);
                prop_assert_eq!(minimize_with(&case, run_case), (min.clone(), seen));
                prop_assert_eq!(run_case(&min), CaseOutcome::Leak(seen.unwrap_or(first)));
                prop_assert_eq!(minimize_case(&case), min);
            }
        }
    }

    /// A discover worker's machine after it ran the first case from
    /// `seed` on whose base spec differs from `case`'s, and minimized
    /// it if it leaked.
    fn worker_after_another_case(case: &FuzzCase, seed: u64) -> Machine {
        let mut m = DiscoverScenario {
            cfg: DiscoverConfig { budget: 1, seed: 0 },
        }
        .setup()
        .expect("a new machine");
        let prior = (0..)
            .map(|k| generate_case(seed.wrapping_add(k)))
            .find(|c| c.base_key != case.base_key)
            .expect("the generator draws every builtin");
        if let CaseOutcome::Leak(_) = run_case_on(&mut m, &prior) {
            minimize(&mut m, &prior);
        }
        m
    }

    #[test]
    fn minimizer_strips_junk_and_keeps_the_leak() {
        let noisy = FuzzCase {
            ops: vec![ProgOp::Nop, ProgOp::NopN(5), ProgOp::Nop],
            ..known_leaky(TrainKind::JmpInd)
        };
        assert!(matches!(run_case(&noisy), CaseOutcome::Leak(_)));
        let min = minimize_case(&noisy);
        assert!(min.ops.is_empty(), "a bare hlt still leaks: {:?}", min.ops);
        assert!(matches!(run_case(&min), CaseOutcome::Leak(_)));
        // Determinism: minimizing twice gives the same case.
        assert_eq!(min, minimize_case(&noisy));
    }

    #[test]
    fn generate_case_is_pure_in_the_seed() {
        for seed in [0u64, 1, 0xdead_beef] {
            assert_eq!(generate_case(seed), generate_case(seed));
        }
        assert_ne!(generate_case(1), generate_case(2));
    }

    #[test]
    fn corpus_text_round_trips() {
        let plain = known_leaky(TrainKind::Ret);
        let text = case_to_text(&plain, Stage::Id);
        let back = parse_case(&text).expect("parses");
        assert_eq!(back.case, plain);
        assert_eq!(back.expect, Stage::Id);

        let mutant = FuzzCase {
            spec: mutate_spec(&UarchSpec::zen3(), 7).expect("seed 7 mutates"),
            mutated: true,
            ops: vec![ProgOp::Label(0), ProgOp::Nop, ProgOp::Jcc(0)],
            delta: 0x40_0000,
            ..known_leaky(TrainKind::Jcc)
        };
        let text = case_to_text(&mutant, Stage::Ex);
        let back = parse_case(&text).expect("mutant parses");
        assert_eq!(back.case, mutant);

        // A corrupted embedded spec block reports the spec parser's
        // structured error, not a panic.
        let broken = text.replace("uarch zen3-m", "uarch zen3-m {\nuarch nested-");
        assert!(parse_case(&broken).is_err());
    }

    #[test]
    fn discover_jsonl_is_byte_identical_across_worker_counts() {
        let cfg = DiscoverConfig {
            budget: 6,
            seed: 11,
        };
        let one = run_discover_on(&TrialRunner::with_threads(1), cfg).unwrap();
        let four = run_discover_on(&TrialRunner::with_threads(4), cfg).unwrap();
        assert_eq!(discover_jsonl(&one), discover_jsonl(&four));
        assert_eq!(
            one.findings.len() + one.quiet + one.rejected_total() + one.faulted,
            cfg.budget
        );
    }
}
