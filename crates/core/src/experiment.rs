//! The §5.2 experiment harness: every asymmetric training × victim
//! combination, observed through the §5.1 channels — **Table 1** — plus
//! the **Figure 6** µop-cache page-offset sweep.

use phantom_isa::encode::{encode, encode_all};
use phantom_isa::{Cond, Inst, Reg};
use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::{Machine, TransientReport, UarchProfile};
use phantom_sidechannel::NoiseModel;

use crate::channel::{ChannelError, ExChannel, IdChannel, IfChannel};
use crate::runner::TrialRunner;

/// The instruction used to *train* the predictor (§5.2's five rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainKind {
    /// `jmp*` — indirect jump.
    JmpInd,
    /// `jmp` — direct jump.
    Jmp,
    /// `jcc` — conditional branch (trained taken).
    Jcc,
    /// `ret`.
    Ret,
    /// Nop sled — no branch trained at all.
    NonBranch,
}

impl TrainKind {
    /// All training rows in the paper's order.
    pub const ALL: [TrainKind; 5] = [
        TrainKind::JmpInd,
        TrainKind::Jmp,
        TrainKind::Jcc,
        TrainKind::Ret,
        TrainKind::NonBranch,
    ];
}

impl std::fmt::Display for TrainKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrainKind::JmpInd => "jmp*",
            TrainKind::Jmp => "jmp",
            TrainKind::Jcc => "jcc",
            TrainKind::Ret => "ret",
            TrainKind::NonBranch => "non branch",
        };
        f.write_str(s)
    }
}

/// The instruction actually at the victim site (§5.2's five columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimKind {
    /// `jmp*`.
    JmpInd,
    /// `jmp`.
    Jmp,
    /// `jcc` (taken at the victim run).
    Jcc,
    /// `ret`.
    Ret,
    /// Nop sled.
    NonBranch,
}

impl VictimKind {
    /// All victim columns in the paper's order.
    pub const ALL: [VictimKind; 5] = [
        VictimKind::JmpInd,
        VictimKind::Jmp,
        VictimKind::Jcc,
        VictimKind::Ret,
        VictimKind::NonBranch,
    ];

    /// The victim instruction; a direct one still has to be aimed
    /// ([`Inst::with_target`]).
    fn inst(self) -> Inst {
        match self {
            VictimKind::JmpInd => Inst::JmpInd { src: Reg::R11 },
            VictimKind::Jmp => Inst::Jmp { disp: 0 },
            VictimKind::Jcc => Inst::Jcc {
                cond: Cond::Eq,
                disp: 0,
            },
            VictimKind::Ret => Inst::Ret,
            VictimKind::NonBranch => Inst::Nop,
        }
    }

    fn len(self) -> u64 {
        self.inst().len() as u64
    }
}

impl std::fmt::Display for VictimKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VictimKind::JmpInd => "jmp*",
            VictimKind::Jmp => "jmp",
            VictimKind::Jcc => "jcc",
            VictimKind::Ret => "ret",
            VictimKind::NonBranch => "non branch",
        };
        f.write_str(s)
    }
}

/// The deepest stage a combination's wrong path reached, as measured
/// through the observation channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// No signal on any channel.
    None,
    /// I-cache signal only.
    If,
    /// µop-cache signal (implies fetch).
    Id,
    /// D-cache signal (implies fetch + decode).
    Ex,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::None => "-",
            Stage::If => "IF",
            Stage::Id => "ID",
            Stage::Ex => "EX",
        };
        f.write_str(s)
    }
}

/// The measured outcome of one training × victim combination.
#[derive(Debug, Clone)]
pub struct ComboOutcome {
    /// Training instruction.
    pub train: TrainKind,
    /// Victim instruction.
    pub victim: VictimKind,
    /// Microarchitecture name.
    pub uarch: phantom_pipeline::IStr,
    /// IF channel fired.
    pub fetched: bool,
    /// ID channel fired.
    pub decoded: bool,
    /// EX channel fired.
    pub executed: bool,
    /// Ground-truth transient reports from the victim run (for
    /// validating the channels themselves).
    pub reports: Vec<TransientReport>,
}

impl ComboOutcome {
    /// The deepest measured stage as a Table 1 cell string.
    pub fn stage(&self) -> &'static str {
        self.stage_enum().into()
    }

    /// The deepest measured stage.
    pub fn stage_enum(&self) -> Stage {
        if self.executed {
            Stage::Ex
        } else if self.decoded {
            Stage::Id
        } else if self.fetched {
            Stage::If
        } else {
            Stage::None
        }
    }
}

impl From<Stage> for &'static str {
    fn from(s: Stage) -> &'static str {
        match s {
            Stage::None => "-",
            Stage::If => "IF",
            Stage::Id => "ID",
            Stage::Ex => "EX",
        }
    }
}

/// Fixed experiment geography (user-space, single process — §5.1 notes
/// user-space aliasing suffices for the observation channels).
struct Layout {
    /// Victim/branch site for BTB-trained combinations.
    x_trained: VirtAddr,
    /// Phantom target C (holds the signal payload).
    c: VirtAddr,
    /// Architectural continuation target F.
    f: VirtAddr,
    /// Call site whose return address is the RSB-served target R for
    /// ret-training (R = the end of the call at call_site).
    call_site: VirtAddr,
    /// Probe data address the payload load touches.
    probe: VirtAddr,
    /// ID-channel jmp-series base.
    series_base: VirtAddr,
    /// Page offset shared by C, R and the series (selects the µop set).
    signal_offset: u64,
}

impl Layout {
    fn standard() -> Layout {
        Layout {
            x_trained: VirtAddr::new(0x40_0ac0),
            c: VirtAddr::new(0x48_0b40),
            f: VirtAddr::new(0x4c_0000),
            call_site: VirtAddr::new(0x4a_0b3b), // ret addr = 0x4a_0b40
            probe: VirtAddr::new(0x60_0000),
            series_base: VirtAddr::new(0x70_0000),
            signal_offset: 0xb40,
        }
    }

    /// The victim site: trained combinations confuse the trained branch
    /// site; non-branch training (straight-line speculation) places the
    /// victim so its *sequential* bytes begin exactly at a fresh line
    /// with the signal offset.
    fn victim_site(&self, train: TrainKind, victim: VictimKind) -> VirtAddr {
        match train {
            TrainKind::NonBranch => VirtAddr::new(0x40_0000 + self.signal_offset - victim.len()),
            _ => self.x_trained,
        }
    }

    /// Where the wrong-path signal payload lives for a given training
    /// row (C for BTB targets, R for RSB-served returns, the sequential
    /// line for straight-line speculation).
    fn signal_site(&self, train: TrainKind, victim: VictimKind) -> VirtAddr {
        match train {
            TrainKind::Ret => self.return_site(),
            TrainKind::NonBranch => self.victim_site(train, victim) + victim.len(),
            _ => self.c,
        }
    }

    /// R: the return address the call at `call_site` pushes.
    fn return_site(&self) -> VirtAddr {
        self.call_site + Inst::Call { disp: 0 }.len() as u64
    }
}

/// The signal payload: a load of `[R8]` (the EX signal) that also, by
/// being fetched and decoded at its address, provides the IF and ID
/// signals. Ends in `hlt`.
const PAYLOAD: [Inst; 2] = [
    Inst::Load {
        dst: Reg::R9,
        base: Reg::R8,
        disp: 0,
    },
    Inst::Halt,
];

/// A non-branch victim: two nops and a `hlt`.
pub(crate) const NOPS_THEN_HALT: [Inst; 3] = [Inst::Nop, Inst::Nop, Inst::Halt];

/// Run one training × victim combination on a fresh machine and measure
/// it through the observation channels.
///
/// # Errors
///
/// Returns [`ChannelError`] if experiment memory cannot be set up.
pub fn run_combo(
    profile: UarchProfile,
    train: TrainKind,
    victim: VictimKind,
    seed: u64,
) -> Result<ComboOutcome, ChannelError> {
    run_combo_msr(profile, train, victim, seed, None)
}

/// [`run_combo`] with an explicit mitigation-MSR state (for the §6.3
/// re-runs: `SuppressBPOnNonBr`, AutoIBRS).
///
/// # Errors
///
/// Returns [`ChannelError`] if experiment memory cannot be set up.
pub fn run_combo_msr(
    profile: UarchProfile,
    train: TrainKind,
    victim: VictimKind,
    seed: u64,
    msr: Option<phantom_bpu::MsrState>,
) -> Result<ComboOutcome, ChannelError> {
    let uarch = profile.name.clone();
    let mut m = Machine::new(profile, 1 << 26);
    if let Some(msr) = msr {
        m.write_msr(msr);
    }
    let mut noise = NoiseModel::quiet(seed);
    let lay = Layout::standard();

    let x = lay.victim_site(train, victim);
    let signal = lay.signal_site(train, victim);

    // --- Map and fill the geography. --------------------------------
    let text = PageFlags::USER_TEXT | PageFlags::WRITE;
    m.map_range(x.page_base(), 0x2000, text)
        .map_err(|e| ChannelError(e.to_string()))?;
    m.map_range(lay.c.page_base(), 0x1000, text)
        .map_err(|e| ChannelError(e.to_string()))?;
    m.map_range(lay.f.page_base(), 0x1000, text)
        .map_err(|e| ChannelError(e.to_string()))?;
    m.map_range(lay.call_site.page_base(), 0x1000, text)
        .map_err(|e| ChannelError(e.to_string()))?;
    // Stack.
    let stack_top = 0x7000_4000 - 64;
    m.map_range(VirtAddr::new(0x7000_0000), 0x4000, PageFlags::USER_DATA)
        .map_err(|e| ChannelError(e.to_string()))?;

    // Payload at C and at the RSB return site; F is a plain halt.
    m.poke(lay.c, &encode_all(&PAYLOAD)?);
    m.poke(lay.return_site(), &encode_all(&PAYLOAD)?);
    m.poke(lay.f, encode(&Inst::Halt)?.as_bytes());

    // --- Channels. ----------------------------------------------------
    let if_ch = IfChannel::new(signal);
    let id_ch = IdChannel::install(&mut m, lay.series_base, lay.signal_offset)?;
    let ex_ch = ExChannel::install(&mut m, lay.probe)?;
    m.set_reg(Reg::R8, lay.probe.raw());

    // --- Train. ---------------------------------------------------------
    match train {
        TrainKind::JmpInd => {
            m.poke(
                x,
                &encode_all(&[Inst::JmpInd { src: Reg::R11 }, Inst::Halt])?,
            );
            m.set_reg(Reg::R11, lay.c.raw());
            m.set_reg(Reg::SP, stack_top);
            m.set_pc(x);
            m.run(8).map_err(|e| ChannelError(e.to_string()))?;
        }
        TrainKind::Jmp => {
            let jmp = Inst::Jmp { disp: 0 }.with_target(x.raw(), lay.c.raw())?;
            m.poke(x, &encode_all(&[jmp, Inst::Halt])?);
            m.set_pc(x);
            m.run(8).map_err(|e| ChannelError(e.to_string()))?;
        }
        TrainKind::Jcc => {
            let jcc = Inst::Jcc {
                cond: Cond::Eq,
                disp: 0,
            }
            .with_target(x.raw(), lay.c.raw())?;
            m.poke(x, &encode_all(&[jcc, Inst::Halt])?);
            // Train the direction predictor thoroughly toward taken.
            for _ in 0..10 {
                m.set_flags(true, false, false);
                m.set_pc(x);
                m.run(8).map_err(|e| ChannelError(e.to_string()))?;
            }
        }
        TrainKind::Ret => {
            m.poke(x, &encode_all(&[Inst::Ret, Inst::Halt])?);
            m.set_reg(Reg::SP, stack_top);
            m.poke_u64(VirtAddr::new(stack_top), lay.c.raw());
            m.set_pc(x);
            m.run(8).map_err(|e| ChannelError(e.to_string()))?;
        }
        TrainKind::NonBranch => {
            // No training: the predictor knows nothing about X.
        }
    }

    // For ret training, the victim-run prediction pops the RSB: plant a
    // known "most recent call site" by executing a call.
    if train == TrainKind::Ret {
        let helper = lay.f; // a hlt: the call never returns in this run
        let call = Inst::Call { disp: 0 }.with_target(lay.call_site.raw(), helper.raw())?;
        m.poke(lay.call_site, encode(&call)?.as_bytes());
        m.set_reg(Reg::SP, stack_top);
        m.set_pc(lay.call_site);
        m.run(4).map_err(|e| ChannelError(e.to_string()))?;
    }

    // --- Install the victim instruction at X. ---------------------------
    let vic_inst = victim.inst().with_target(x.raw(), lay.f.raw())?;
    // Straight-line payload already lives right after the victim for the
    // non-branch-training rows; otherwise halt the fallthrough.
    let fallthrough: &[Inst] = if train == TrainKind::NonBranch {
        &PAYLOAD
    } else {
        &[Inst::NopN { len: 3 }, Inst::Halt]
    };
    m.poke(x, &encode_all([&vic_inst].into_iter().chain(fallthrough))?);

    // Victim-run register/stack state.
    m.set_reg(Reg::R11, lay.f.raw()); // victim jmp* goes to F
    m.set_reg(Reg::SP, stack_top - 128);
    m.poke_u64(VirtAddr::new(stack_top - 128), lay.f.raw()); // victim ret -> F
    m.set_flags(true, false, false); // victim jcc is taken (to F)

    // --- Arm, run, observe. ----------------------------------------------
    id_ch.prime(&mut m);
    if_ch.arm(&mut m);
    ex_ch.arm(&mut m);

    m.set_pc(x);
    let (_, reports) = m
        .run_collecting(16)
        .map_err(|e| ChannelError(e.to_string()))?;

    let (_, id_misses) = id_ch.sample(&mut m);
    let fetched = if_ch.observe(&mut m, &mut noise);
    let executed = ex_ch.observe(&mut m, &mut noise);
    let decoded = id_misses > 0;

    Ok(ComboOutcome {
        train,
        victim,
        uarch,
        fetched,
        decoded,
        executed,
        reports,
    })
}

/// All 22 asymmetric variants of §5.2: the 20 off-diagonal pairs plus
/// `jmp`/`jcc` trained with a *different displacement* than the victim
/// (which this harness realizes naturally: training targets C, the
/// victim's own displacement targets F).
pub fn asymmetric_combos() -> Vec<(TrainKind, VictimKind)> {
    let mut out = Vec::new();
    for train in TrainKind::ALL {
        for victim in VictimKind::ALL {
            let symmetric = matches!(
                (train, victim),
                (TrainKind::JmpInd, VictimKind::JmpInd)
                    | (TrainKind::Ret, VictimKind::Ret)
                    | (TrainKind::NonBranch, VictimKind::NonBranch)
            );
            if !symmetric {
                out.push((train, victim));
            }
        }
    }
    out
}

/// One Table 1 cell: the stage each microarchitecture reached.
#[derive(Debug, Clone)]
pub struct Table1Cell {
    /// Training row.
    pub train: TrainKind,
    /// Victim column.
    pub victim: VictimKind,
    /// Per-uarch deepest stage, in [`UarchProfile::all`] order.
    pub stages: Vec<(phantom_pipeline::IStr, Stage)>,
}

/// Run the full Table 1 sweep over the given microarchitectures: one
/// trial per (training × victim × microarchitecture) cell, each on a
/// fresh machine, sharded across the runner's workers.
///
/// # Errors
///
/// Returns [`ChannelError`] if any combination fails to set up.
pub fn table1_on(
    runner: &TrialRunner,
    profiles: &[UarchProfile],
    seed: u64,
) -> Result<Vec<Table1Cell>, ChannelError> {
    let combos = asymmetric_combos();
    let stages = runner
        .map(combos.len() * profiles.len(), seed, |trial| {
            let (train, victim) = combos[trial.index / profiles.len()];
            let profile = profiles[trial.index % profiles.len()].clone();
            let name = profile.name.clone();
            Ok((name, run_combo(profile, train, victim, seed)?.stage_enum()))
        })
        .map_err(|e| ChannelError(e.to_string()))?;
    Ok(combos
        .iter()
        .zip(stages.chunks(profiles.len().max(1)))
        .map(|(&(train, victim), stages)| Table1Cell {
            train,
            victim,
            stages: stages.to_vec(),
        })
        .collect())
}

/// One Figure 6 data point: µop-cache misses observed when C sits at a
/// given page offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure6Point {
    /// Page offset of the phantom target C.
    pub offset: u64,
    /// µop-cache hits when re-running the priming series.
    pub hits: u64,
    /// µop-cache misses (the signal: nonzero only at the matching
    /// offset).
    pub misses: u64,
}

/// The Figure 6 sweep: non-branch victim trained with `jmp*`, target C
/// placed at every page offset, one trial on a fresh machine each; the
/// ID channel (series fixed at `series_offset`) only fires when C's
/// offset matches.
///
/// # Errors
///
/// Returns [`ChannelError`] on setup failure.
pub fn figure6_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    series_offset: u64,
    step: u64,
) -> Result<Vec<Figure6Point>, ChannelError> {
    let mut offsets: Vec<u64> = (0..4096 - 64).step_by(step.max(64) as usize).collect();
    // The series offset itself (0xac0 = 43 * 64; 43 is prime, so coarse
    // steps never land on it) must be part of the sweep — it is the
    // point the whole figure exists to show.
    if !offsets.contains(&series_offset) {
        offsets.push(series_offset);
        offsets.sort_unstable();
    }
    runner
        .map(offsets.len(), 0, |trial| {
            Ok(figure6_point(
                &profile,
                offsets[trial.index],
                series_offset,
            )?)
        })
        .map_err(|e| ChannelError(e.to_string()))
}

/// Measure one Figure 6 offset on a fresh machine.
fn figure6_point(
    profile: &UarchProfile,
    offset: u64,
    series_offset: u64,
) -> Result<Figure6Point, ChannelError> {
    let mut m = Machine::new(profile.clone(), 1 << 26);
    let text = PageFlags::USER_TEXT | PageFlags::WRITE;
    // The victim site must not itself alias the monitored µop set
    // (its own architectural decode would read as signal).
    let x = VirtAddr::new(0x40_0908);
    let c = VirtAddr::new(0x48_0000 + offset);
    m.map_range(x.page_base(), 0x1000, text)
        .map_err(|e| ChannelError(e.to_string()))?;
    m.map_range(c.page_base(), 0x1000, text)
        .map_err(|e| ChannelError(e.to_string()))?;
    m.poke(c, &encode_all(&PAYLOAD)?);
    m.map_range(VirtAddr::new(0x60_0000), 64, PageFlags::USER_DATA)
        .map_err(|e| ChannelError(e.to_string()))?;
    m.set_reg(Reg::R8, 0x60_0000);

    let id_ch = IdChannel::install(&mut m, VirtAddr::new(0x70_0000), series_offset)?;

    // Train jmp* -> C, then replace with nops (the non-branch victim).
    m.poke(
        x,
        &encode_all(&[Inst::JmpInd { src: Reg::R11 }, Inst::Halt])?,
    );
    m.set_reg(Reg::R11, c.raw());
    m.set_pc(x);
    m.run(8).map_err(|e| ChannelError(e.to_string()))?;
    m.poke(x, &encode_all(&NOPS_THEN_HALT)?);

    id_ch.prime(&mut m);
    m.set_pc(x);
    m.run(8).map_err(|e| ChannelError(e.to_string()))?;
    let (hits, misses) = id_ch.sample(&mut m);
    Ok(Figure6Point {
        offset,
        hits,
        misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_two_asymmetric_variants() {
        // §5.2: "The asymmetric combinations of these comprise 22
        // possible variants".
        assert_eq!(asymmetric_combos().len(), 22);
    }

    #[test]
    fn nop_victim_trained_indirect_reaches_id_on_zen3() {
        let o = run_combo(
            UarchProfile::zen3(),
            TrainKind::JmpInd,
            VictimKind::NonBranch,
            0,
        )
        .unwrap();
        assert!(o.fetched, "O1");
        assert!(o.decoded, "O2");
        assert!(!o.executed, "no EX on Zen 3");
        assert_eq!(o.stage(), "ID");
    }

    #[test]
    fn nop_victim_trained_indirect_reaches_ex_on_zen2() {
        let o = run_combo(
            UarchProfile::zen2(),
            TrainKind::JmpInd,
            VictimKind::NonBranch,
            0,
        )
        .unwrap();
        assert_eq!(o.stage(), "EX", "O3: Zen 2 executes phantom targets");
    }

    #[test]
    fn ret_victim_trained_indirect_is_phantom() {
        // Retbleed-style confusion observed through the channels.
        for (profile, expect) in [(UarchProfile::zen1(), "EX"), (UarchProfile::zen4(), "ID")] {
            let o = run_combo(profile, TrainKind::JmpInd, VictimKind::Ret, 0).unwrap();
            assert_eq!(o.stage(), expect);
        }
    }

    #[test]
    fn ret_training_signals_at_the_call_site() {
        // "The return target will not be to C, but to the most recent
        // call site."
        let o = run_combo(
            UarchProfile::zen2(),
            TrainKind::Ret,
            VictimKind::NonBranch,
            0,
        )
        .unwrap();
        assert!(o.fetched && o.decoded);
        // Ground truth: the transient target is the planted call site's
        // return address, not C.
        let report = o.reports.first().expect("misprediction");
        assert_eq!(report.target, Some(VirtAddr::new(0x4a_0b40)));
    }

    #[test]
    fn non_branch_training_gives_straight_line_speculation() {
        let o = run_combo(
            UarchProfile::zen1(),
            TrainKind::NonBranch,
            VictimKind::Ret,
            0,
        )
        .unwrap();
        assert!(
            o.fetched && o.decoded,
            "SLS fetches/decodes the straight line"
        );
        assert!(o.executed, "Zen 1 executes it (Spectre-SLS)");
        let o4 = run_combo(
            UarchProfile::zen4(),
            TrainKind::NonBranch,
            VictimKind::Ret,
            0,
        )
        .unwrap();
        assert!(!o4.executed, "Zen 4 squashes before execute");
    }

    #[test]
    fn channels_agree_with_ground_truth() {
        // The honest cache/counter channels must match the simulator's
        // internal transient reports.
        for profile in [UarchProfile::zen2(), UarchProfile::zen4()] {
            for (train, victim) in [
                (TrainKind::JmpInd, VictimKind::NonBranch),
                (TrainKind::Jmp, VictimKind::NonBranch),
                (TrainKind::JmpInd, VictimKind::Jmp),
            ] {
                let o = run_combo(profile.clone(), train, victim, 0).unwrap();
                let truth = o.reports.first().cloned().unwrap_or_default();
                assert_eq!(
                    o.fetched, truth.fetched,
                    "{train}x{victim} on {}",
                    profile.name
                );
                assert_eq!(
                    o.decoded, truth.decoded,
                    "{train}x{victim} on {}",
                    profile.name
                );
                assert_eq!(
                    o.executed,
                    !truth.loads_dispatched.is_empty(),
                    "{train}x{victim} on {}",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn figure6_signal_only_at_matching_offset() {
        let points = figure6_on(&TrialRunner::new(), UarchProfile::zen2(), 0xac0, 0x200).unwrap();
        assert!(
            points.iter().any(|p| p.offset == 0xac0),
            "sweep includes 0xac0"
        );
        for p in &points {
            if p.offset == 0xac0 {
                assert!(p.misses > 0, "signal at the matching offset");
            } else {
                assert_eq!(p.misses, 0, "offset {:#x} must be silent", p.offset);
            }
        }
    }

    #[test]
    fn negative_control_training_elsewhere_gives_no_signal() {
        // §5.1: "complementary negative testing using a training branch
        // that does not alias with the victim". Train a jmp* at a source
        // whose alias class differs from the victim's: no channel fires.
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 26);
        let text = PageFlags::USER_TEXT | PageFlags::WRITE;
        let lay = Layout::standard();
        let victim = lay.x_trained;
        let other = VirtAddr::new(victim.raw() + 0x100); // different page offset
        m.map_range(victim.page_base(), 0x1000, text).unwrap();
        m.map_range(lay.c.page_base(), 0x1000, text).unwrap();
        m.poke(lay.c, &encode_all(&PAYLOAD).unwrap());
        let id_ch = IdChannel::install(&mut m, lay.series_base, lay.signal_offset).unwrap();
        let ex_ch = ExChannel::install(&mut m, lay.probe).unwrap();
        let if_ch = IfChannel::new(lay.c);
        m.set_reg(Reg::R8, lay.probe.raw());
        let mut noise = NoiseModel::quiet(0);

        // Train at `other`, not at the victim.
        m.poke(
            other,
            &encode_all(&[Inst::JmpInd { src: Reg::R11 }, Inst::Halt]).unwrap(),
        );
        m.set_reg(Reg::R11, lay.c.raw());
        m.set_pc(other);
        m.run(8).unwrap();

        // Victim nops at the real site.
        m.poke(victim, &encode_all(&NOPS_THEN_HALT).unwrap());
        id_ch.prime(&mut m);
        if_ch.arm(&mut m);
        ex_ch.arm(&mut m);
        m.set_pc(victim);
        let (_, reports) = m.run_collecting(8).unwrap();
        assert!(
            reports.is_empty(),
            "no misprediction at a non-aliasing victim"
        );
        let (_, misses) = id_ch.sample(&mut m);
        assert_eq!(misses, 0);
        assert!(!if_ch.observe(&mut m, &mut noise));
        assert!(!ex_ch.observe(&mut m, &mut noise));
    }

    #[test]
    fn combos_are_deterministic_per_seed() {
        for (t, v) in [
            (TrainKind::JmpInd, VictimKind::NonBranch),
            (TrainKind::Ret, VictimKind::Jmp),
        ] {
            let a = run_combo(UarchProfile::zen3(), t, v, 5).unwrap();
            let b = run_combo(UarchProfile::zen3(), t, v, 5).unwrap();
            assert_eq!(a.fetched, b.fetched);
            assert_eq!(a.decoded, b.decoded);
            assert_eq!(a.executed, b.executed);
        }
    }

    #[test]
    fn direct_training_signals_at_c_prime_not_c() {
        // Figure 5 A with B != A: "we create a copy of C to C\u{2032}, which we
        // allocate to an address that has the same relative distance from
        // the victim instruction as C has from the training instruction."
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 26);
        let text = PageFlags::USER_TEXT | PageFlags::WRITE;
        // A and B alias under zen12 (two high-bit flips hit no fold fn).
        let a_site = VirtAddr::new(0x40_0ac0);
        let b_site = VirtAddr::new(a_site.raw() ^ (1 << 38)); // untagged bit
        assert!(m.bpu().btb().scheme().family.aliases(a_site, b_site));
        let c = VirtAddr::new(0x48_0b40);
        let c_prime = VirtAddr::new(b_site.raw().wrapping_add(c - a_site));
        m.map_range(a_site.page_base(), 0x1000, text).unwrap();
        m.map_range(b_site.page_base(), 0x1000, text).unwrap();
        m.map_range(c.page_base(), 0x1000, text).unwrap();
        m.map_range(c_prime.page_base(), 0x1000, text).unwrap();
        m.map_range(VirtAddr::new(0x60_0000), 64, PageFlags::USER_DATA)
            .unwrap();
        m.set_reg(Reg::R8, 0x60_0000);
        m.poke(c, &encode_all(&PAYLOAD).unwrap());
        m.poke(c_prime, &encode_all(&PAYLOAD).unwrap());

        // Train a direct jmp at A -> C.
        let jmp = Inst::Jmp { disp: 0 }
            .with_target(a_site.raw(), c.raw())
            .unwrap();
        m.poke(a_site, &encode_all(&[jmp, Inst::Halt]).unwrap());
        m.set_pc(a_site);
        m.run(8).unwrap();

        // Victim: nops at B. Flush both candidate targets.
        m.poke(b_site, &encode_all(&NOPS_THEN_HALT).unwrap());
        m.caches_mut().flush_all();
        m.set_pc(b_site);
        let (_, reports) = m.run_collecting(8).unwrap();
        let report = reports.first().expect("phantom fires at the alias");
        assert_eq!(
            report.target,
            Some(c_prime),
            "the PC-relative entry steers to C\u{2032}, not C"
        );
        // And only C'\u{2019}s line entered the I-cache.
        let pa = |va: VirtAddr, m: &Machine| {
            m.page_table()
                .translate(
                    va,
                    phantom_mem::AccessKind::Execute,
                    phantom_mem::PrivilegeLevel::User,
                )
                .unwrap()
                .raw()
        };
        assert!(m.caches().l1i().probe(pa(c_prime, &m)));
        assert!(!m.caches().l1i().probe(pa(c, &m)), "C itself stays cold");
    }
}
