//! BranchSpectre-style leakage through the conditional-branch
//! predictor: recover a victim's secret-dependent branch *outcome* by
//! reading the PHT counter it left behind — no cache probe anywhere.
//!
//! The attacker finds an **out-of-place alias**: a probe PC that the
//! CBP cannot tell apart from the victim PC. Which PCs alias is pure
//! spec data — under the legacy gshare scheme any PC differing only in
//! bits the index folds ignore collides; under an M1-Firestorm-style
//! scheme two PCs differing in *both* bits of one folded index pair
//! collide even though each bit alone would select a different set.
//! [`out_of_place_cbp_aliases`] derives candidates from the
//! [`CbpScheme`] instead of hardcoding either family.
//!
//! The channel: the victim executes its conditional once (outcome =
//! the secret bit), nudging the shared 2-bit counter up or down from a
//! known baseline. The attacker re-aligns the global history register
//! (so the probe indexes the same set the victim updated), then times
//! its own aliased conditional with not-taken flags. If the counter
//! says "taken", the planted BTB entry steers fetch down the taken
//! path and the resolved not-taken direction forces a resteer — a
//! calibrated cycle penalty. If the counter says "not taken", no steer
//! is served and the probe runs clean. The cycle delta *is* the
//! secret. Votes go through [`decode_adaptive`] exactly like the
//! Table 2 covert channels, so noisy probes escalate and ties abstain.
//!
//! A round starts at a rewind point that restores all model state, so
//! it is a pure function of the calibrated world and the secret bit.
//! Calibration simulates both rounds once per profile and records their
//! cycles; every vote replays its secret's round under fresh noise, and
//! no trial runs a simulated step.

use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phantom_bpu::CbpScheme;
use phantom_isa::asm::Assembler;
use phantom_isa::{Cond, Inst};
use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::{Checkpoint, Machine, RunExit, TemplateStore, UarchProfile};
use phantom_sidechannel::{NoiseModel, Reading};

use crate::decode::{decode_adaptive, Decoded, DecoderConfig};
use crate::primitives::PrimitiveError;
use crate::runner::{Scenario, ScenarioError, Trial, TrialRunner};

/// Candidate out-of-place aliases of `victim` under `scheme`, nearest
/// first: PCs on a *different page* that the CBP indexes and tags
/// identically. Single-bit flips are tried before folded two-bit
/// flips, so an untagged scheme with unused upper bits (the legacy
/// gshare PHT) yields a far-bit alias, while a scheme that folds PC
/// bit pairs into each index bit (M1 Firestorm) yields the folded
/// pair. Flips stay below bit 24 to keep candidates near the victim.
///
/// Aliasing is history-independent — both PCs see the same GHR, so
/// the history parity cancels out of the comparison.
pub fn out_of_place_cbp_aliases(scheme: &CbpScheme, victim: VirtAddr) -> Vec<VirtAddr> {
    let mut found = Vec::new();
    let mut consider = |mask: u64| {
        // Same-page candidates would overlap the victim's stub.
        if mask >> 12 == 0 {
            return;
        }
        let cand = VirtAddr::new(victim.raw() ^ mask);
        if scheme.aliases(victim, cand, 0) {
            found.push(cand);
        }
    };
    for bit in 12..24 {
        consider(1 << bit);
    }
    for lo in 2..24 {
        for hi in (lo + 1)..24 {
            consider((1 << lo) | (1 << hi));
        }
    }
    found
}

/// The first (nearest) out-of-place alias, if the scheme admits one.
pub fn out_of_place_cbp_alias(scheme: &CbpScheme, victim: VirtAddr) -> Option<VirtAddr> {
    out_of_place_cbp_aliases(scheme, victim).into_iter().next()
}

/// Configuration of a PHT-channel run.
#[derive(Debug, Clone, Copy)]
pub struct PhtChannelConfig {
    /// Number of secret bits to recover.
    pub bits: usize,
    /// RNG seed (secret bit pattern + measurement noise).
    pub seed: u64,
}

impl Default for PhtChannelConfig {
    fn default() -> PhtChannelConfig {
        PhtChannelConfig {
            bits: 4096,
            seed: 0,
        }
    }
}

/// One PHT-channel row (Table-2-style numbers, but the observable is
/// predictor state, not cache state).
#[derive(Debug, Clone)]
pub struct PhtChannelResult {
    /// Microarchitecture name.
    pub uarch: phantom_pipeline::IStr,
    /// Tested part.
    pub model: phantom_pipeline::IStr,
    /// XOR distance between victim and probe PC (the out-of-place
    /// flip the scheme admitted).
    pub flip_mask: u64,
    /// Bits recovered.
    pub bits: usize,
    /// Fraction decoded correctly (abstentions count as wrong).
    pub accuracy: f64,
    /// Simulated wall-clock seconds for the whole recovery.
    pub seconds: f64,
    /// Throughput in bits per second.
    pub bits_per_sec: f64,
    /// Total probes cast across all bits.
    pub probes: u64,
    /// Bits the decoder abstained on.
    pub abstentions: usize,
    /// Mean per-bit decode confidence.
    pub mean_confidence: f64,
}

/// The victim conditional's PC. Fixed, so a calibrated world depends
/// on the profile alone.
const VICTIM: VirtAddr = VirtAddr::new(0x40_0000);

/// Calibrated PHT worlds, one per profile: everything
/// [`PhtScenario::calibrate`] finds is a function of the profile, so a
/// process calibrates each profile once and every later job shares the
/// template.
type PhtTemplates = TemplateStore<UarchProfile, PhtState>;

/// The process-global store behind [`pht_channel_decoded_on`].
static PHT_TEMPLATES: PhtTemplates = TemplateStore::new();

/// The PHT channel as a trial scenario: one trial per secret bit.
struct PhtScenario<'t> {
    profile: UarchProfile,
    config: PhtChannelConfig,
    noise_proto: NoiseModel,
    decoder: DecoderConfig,
    /// Where `setup` gets its calibrated world: a template store, or
    /// `None` to calibrate cold every time (the reference the store is
    /// tested against).
    templates: Option<&'t PhtTemplates>,
    /// The probe PC `setup`'s world was calibrated with, for `score`.
    probe: OnceLock<VirtAddr>,
}

/// A calibrated world: the alias, the probe-cycle signature of the two
/// counter states, and the round calibration simulated for each secret.
/// No machine: a rewound round is pure, so a trial needs only these
/// numbers. Every job and worker on a profile shares its one template.
#[derive(Debug)]
struct PhtState {
    /// Out-of-place probe conditional aliasing the victim in the CBP.
    probe: VirtAddr,
    /// Calibrated probe-cycle threshold between the two counter
    /// states, the separation span, and which side means "taken".
    threshold: u64,
    span: u64,
    taken_is_slow: bool,
    /// The round with the victim not taken (`[0]`) and taken (`[1]`).
    rounds: [Round; 2],
}

/// What one victim → re-align → timed probe round costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Round {
    /// The timed probe's cycles, which the attacker reads.
    probe_cycles: u64,
    /// The whole round's cycles from the rewind point: the vote's cost.
    total_cycles: u64,
}

/// One decoded bit and the simulated cycles its trial consumed.
struct PhtSample {
    correct: bool,
    abstained: bool,
    probes: u32,
    confidence: f64,
    cycles: u64,
}

/// Lay down a two-instruction conditional stub at `base`:
/// `jeq taken; halt; taken: halt`.
fn load_branch_stub(machine: &mut Machine, base: VirtAddr) -> Result<(), ScenarioError> {
    let mut a = Assembler::new(base.raw());
    a.jcc_cond(Cond::Eq, "taken");
    a.push(Inst::Halt);
    a.label("taken");
    a.push(Inst::Halt);
    let blob = a.finish().map_err(|e| PrimitiveError(e.to_string()))?;
    machine
        .load_blob(&blob, PageFlags::USER_TEXT | PageFlags::WRITE)
        .map_err(|e| PrimitiveError(e.to_string()))?;
    Ok(())
}

/// Execute the conditional at `pc` once with the given outcome.
fn run_branch(machine: &mut Machine, pc: VirtAddr, taken: bool) -> Result<(), ScenarioError> {
    machine.set_flags(taken, false, false);
    machine.set_pc(pc);
    match machine.run(64).map_err(|e| PrimitiveError(e.to_string()))? {
        RunExit::Halted => Ok(()),
        other => Err(PrimitiveError(format!("branch stub did not halt: {other:?}")).into()),
    }
}

/// Drive the global history register back to all-zero by running the
/// aligner not-taken once per history bit.
fn align_history(
    machine: &mut Machine,
    aligner: VirtAddr,
    history_bits: u32,
) -> Result<(), ScenarioError> {
    for _ in 0..history_bits {
        run_branch(machine, aligner, false)?;
    }
    Ok(())
}

/// The machine a round runs on: the victim, probe and aligner stubs
/// loaded and the probe's BTB entry planted, checkpointed at the point
/// every round rewinds to.
struct Rig {
    machine: Machine,
    snap: Checkpoint,
    probe: VirtAddr,
    /// History-alignment conditional (always not-taken), chosen to
    /// never touch the victim's CBP set.
    aligner: VirtAddr,
    history_bits: u32,
}

impl Rig {
    /// Build the rig for `probe` on a fresh machine of `profile`.
    fn new(profile: &UarchProfile, probe: VirtAddr) -> Result<Rig, ScenarioError> {
        let scheme = &profile.cbp_scheme;
        let history_bits = scheme.history_bits;
        let mut machine = Machine::new(profile.clone(), 1 << 26);
        load_branch_stub(&mut machine, VICTIM)?;
        load_branch_stub(&mut machine, probe)?;

        // The aligner must never update the victim's CBP set. Every
        // alignment run is deterministic, so only the GHR values it
        // actually executes under matter: a one-hot history (the single
        // planted/victim taken bit draining out) or all-zero. It also
        // needs its own page, distinct from both branch stubs.
        let victim_set = scheme.index_of(VICTIM, 0);
        let live_ghrs: Vec<u64> = std::iter::once(0)
            .chain((0..history_bits).map(|j| 1u64 << j))
            .collect();
        let probe_page = probe.raw() >> 12;
        let aligner = (1..4096u64)
            .map(|k| VirtAddr::new(VICTIM.raw() ^ (k << 12)))
            .find(|&w| {
                w.raw() >> 12 != probe_page
                    && live_ghrs
                        .iter()
                        .all(|&g| scheme.index_of(w, g) != victim_set)
            })
            .ok_or_else(|| PrimitiveError("no safe aligner PC in range".into()))?;
        load_branch_stub(&mut machine, aligner)?;

        // Plant the probe's BTB entry (and push the shared counter to
        // its baseline) with one taken execution, then re-align.
        run_branch(&mut machine, probe, true)?;
        align_history(&mut machine, aligner, history_bits)?;
        Ok(Rig {
            snap: machine.checkpoint(),
            machine,
            probe,
            aligner,
            history_bits,
        })
    }

    /// One victim → re-align → timed probe round from the rewind
    /// point. Everything before the probe is untimed (the attacker only
    /// ever times its own code), but the round costs all of it.
    fn round(&mut self, secret: bool) -> Result<Round, ScenarioError> {
        self.snap.rewind(&mut self.machine);
        let start = self.machine.cycles();
        run_branch(&mut self.machine, VICTIM, secret)?;
        align_history(&mut self.machine, self.aligner, self.history_bits)?;
        let before = self.machine.cycles();
        run_branch(&mut self.machine, self.probe, false)?;
        let end = self.machine.cycles();
        Ok(Round {
            probe_cycles: end - before,
            total_cycles: end - start,
        })
    }
}

impl PhtScenario<'_> {
    fn uarch_salt(&self) -> u64 {
        self.profile.name.bytes().map(u64::from).sum::<u64>()
    }

    /// Build the calibrated world from scratch: try each out-of-place
    /// alias of the victim, nearest first, until one separates.
    fn calibrate(&self) -> Result<PhtState, ScenarioError> {
        for probe in out_of_place_cbp_aliases(&self.profile.cbp_scheme, VICTIM) {
            if let Some(state) = self.try_candidate(probe)? {
                return Ok(state);
            }
        }
        Err(PrimitiveError(format!(
            "no out-of-place CBP alias with timing separation on {}",
            self.profile.name
        ))
        .into())
    }

    /// Calibrate around one alias candidate: simulate the round for
    /// each secret once and keep their cycles; the machine goes away.
    /// Returns `None` when the candidate yields no timing separation
    /// (e.g. the pair also collides in the BTB and the victim's run
    /// destroys the planted entry).
    fn try_candidate(&self, probe: VirtAddr) -> Result<Option<PhtState>, ScenarioError> {
        let mut rig = Rig::new(&self.profile, probe)?;
        let taken = rig.round(true)?;
        let not_taken = rig.round(false)?;
        let (t, n) = (taken.probe_cycles, not_taken.probe_cycles);
        if t == n {
            return Ok(None);
        }
        let (slow, fast) = (t.max(n), t.min(n));
        Ok(Some(PhtState {
            probe,
            threshold: fast + (slow - fast) / 2,
            span: slow - fast,
            taken_is_slow: t > n,
            rounds: [not_taken, taken],
        }))
    }

    /// Decode one trial's bit. `round` gives the round a vote costs
    /// for the trial's secret; only the noise differs between votes.
    fn decode_bit<E>(
        &self,
        state: &PhtState,
        trial: Trial,
        mut round: impl FnMut(bool) -> Result<Round, E>,
    ) -> Result<PhtSample, E> {
        let mut rng = StdRng::seed_from_u64(trial.seed);
        let secret = rng.gen_bool(0.5);
        let mut noise = self.noise_proto.reseeded(trial.seed ^ self.uarch_salt());
        // The trial's honest cost is the sum over its rounds.
        let mut spent = 0u64;
        let outcome = decode_adaptive(&self.decoder, |_| {
            let round = round(secret)?;
            spent += round.total_cycles;
            // `Reading::classify` calls latencies at or below the
            // threshold hits; map "slow" back to "counter said taken".
            let cycles = noise.jitter(round.probe_cycles);
            let reading = Reading::classify(cycles, state.threshold, state.span);
            Ok((reading.hit != state.taken_is_slow, reading.confidence))
        })?;
        let (correct, abstained) = match outcome.decoded {
            Decoded::Bit(b) => (b == secret, false),
            Decoded::Abstain => (false, true),
        };
        Ok(PhtSample {
            correct,
            abstained,
            probes: outcome.probes,
            confidence: outcome.confidence.value(),
            cycles: spent,
        })
    }
}

impl Scenario for PhtScenario<'_> {
    type State = Arc<PhtState>;
    type Checkpoint = Arc<PhtState>;
    type Sample = PhtSample;
    type Output = PhtChannelResult;

    fn trials(&self) -> usize {
        self.config.bits
    }

    /// The profile's calibrated template, calibrated on first use (or
    /// cold when the scenario has no store). Setup, checkpoint and
    /// every fork hand on this one `Arc`: nothing is copied.
    fn setup(&self) -> Result<Arc<PhtState>, ScenarioError> {
        let template = match self.templates {
            Some(store) => store.get_or_build(&self.profile, || self.calibrate())?,
            None => Arc::new(self.calibrate()?),
        };
        // Every setup of one scenario yields the same world, so the
        // first one's probe stands for all.
        let _ = self.probe.set(template.probe);
        Ok(template)
    }

    fn checkpoint(&self, template: Arc<PhtState>) -> Result<Arc<PhtState>, ScenarioError> {
        Ok(template)
    }

    fn fork(&self, template: &Arc<PhtState>) -> Result<Arc<PhtState>, ScenarioError> {
        Ok(Arc::clone(template))
    }

    /// Every vote replays the recorded round of the trial's secret.
    fn probe(&self, state: &mut Arc<PhtState>, trial: Trial) -> Result<PhtSample, ScenarioError> {
        let state = &**state;
        let Ok(sample) = self.decode_bit(state, trial, |secret| {
            Ok::<_, Infallible>(state.rounds[usize::from(secret)])
        });
        Ok(sample)
    }

    fn score(&self, samples: Vec<PhtSample>) -> PhtChannelResult {
        let bits = samples.len();
        let correct = samples.iter().filter(|s| s.correct).count();
        let cycles: u64 = samples.iter().map(|s| s.cycles).sum();
        let probes: u64 = samples.iter().map(|s| u64::from(s.probes)).sum();
        let abstentions = samples.iter().filter(|s| s.abstained).count();
        let mean_confidence =
            samples.iter().map(|s| s.confidence).sum::<f64>() / bits.max(1) as f64;
        let seconds = self.profile.cycles_to_seconds(cycles);
        let flip_mask = self.probe.get().map_or(0, |p| p.raw() ^ VICTIM.raw());
        PhtChannelResult {
            uarch: self.profile.name.clone(),
            model: self.profile.model.clone(),
            flip_mask,
            bits,
            accuracy: correct as f64 / bits.max(1) as f64,
            seconds,
            bits_per_sec: bits as f64 / seconds,
            probes,
            abstentions,
            mean_confidence,
        }
    }
}

/// Run the PHT channel on one microarchitecture.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup failure or when the scheme
/// admits no out-of-place alias.
pub fn pht_channel_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    config: PhtChannelConfig,
) -> Result<PhtChannelResult, PrimitiveError> {
    let noise = NoiseModel::realistic(config.seed);
    pht_channel_decoded_on(runner, profile, config, noise, DecoderConfig::default())
}

/// [`pht_channel_on`] with explicit noise and decoder configs.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup failure.
pub fn pht_channel_decoded_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    config: PhtChannelConfig,
    noise: NoiseModel,
    decoder: DecoderConfig,
) -> Result<PhtChannelResult, PrimitiveError> {
    pht_channel_with(
        runner,
        Some(&PHT_TEMPLATES),
        profile,
        config,
        noise,
        decoder,
    )
}

/// [`pht_channel_decoded_on`] with an explicit template store, or none
/// to calibrate cold.
fn pht_channel_with(
    runner: &TrialRunner,
    templates: Option<&PhtTemplates>,
    profile: UarchProfile,
    config: PhtChannelConfig,
    noise: NoiseModel,
    decoder: DecoderConfig,
) -> Result<PhtChannelResult, PrimitiveError> {
    let scenario = PhtScenario {
        profile,
        config,
        noise_proto: noise,
        decoder,
        templates,
        probe: OnceLock::new(),
    };
    runner
        .run(&scenario, config.seed)
        .map_err(|e| PrimitiveError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    use phantom_pipeline::spec::mutate::mutate_spec;
    use phantom_pipeline::UarchSpec;
    use proptest::prelude::*;

    const SMALL: PhtChannelConfig = PhtChannelConfig { bits: 96, seed: 9 };

    #[test]
    fn legacy_alias_is_a_far_single_bit() {
        let scheme = CbpScheme::legacy();
        let v = VirtAddr::new(0x40_0000);
        let a = out_of_place_cbp_alias(&scheme, v).expect("legacy admits an alias");
        let flip = a.raw() ^ v.raw();
        assert_eq!(flip.count_ones(), 1, "single-bit flip, got {flip:#x}");
        assert!(flip >= 1 << 13, "outside the gshare index bits: {flip:#x}");
        assert!(scheme.aliases(v, a, 0));
    }

    #[test]
    fn recovers_the_secret_on_every_builtin_amd_part() {
        for p in UarchProfile::amd() {
            let name = p.name.clone();
            let r = pht_channel_on(&TrialRunner::new(), p, SMALL).unwrap();
            assert!(r.accuracy >= 0.9, "{name}: accuracy {}", r.accuracy);
            assert!(r.bits_per_sec > 0.0, "{name}");
            assert_eq!(r.flip_mask.count_ones(), 1, "{name}: far-bit alias");
        }
    }

    #[test]
    fn recovery_is_identical_at_any_thread_count() {
        let config = PhtChannelConfig { bits: 48, seed: 3 };
        let one =
            pht_channel_on(&TrialRunner::with_threads(1), UarchProfile::zen2(), config).unwrap();
        let eight =
            pht_channel_on(&TrialRunner::with_threads(8), UarchProfile::zen2(), config).unwrap();
        assert_eq!(one.accuracy, eight.accuracy);
        assert_eq!(one.seconds, eight.seconds);
        assert_eq!(one.probes, eight.probes);
        assert_eq!(one.abstentions, eight.abstentions);
        assert_eq!(one.mean_confidence, eight.mean_confidence);
    }

    #[test]
    fn the_channel_reads_predictor_state_not_caches() {
        // The probe's signal survives with every cache-noise knob wide
        // open because nothing in the measurement touches a primed
        // cache set — only branch-resteer timing.
        let mut noise = NoiseModel::realistic(7);
        noise.spurious_evict = 1.0;
        noise.missed_signal = 1.0;
        let r = pht_channel_decoded_on(
            &TrialRunner::with_threads(2),
            UarchProfile::zen3(),
            PhtChannelConfig { bits: 64, seed: 7 },
            noise,
            DecoderConfig::default(),
        )
        .unwrap();
        assert!(r.accuracy >= 0.9, "accuracy {}", r.accuracy);
    }

    const M1_SPEC: &str = include_str!("../../../../examples/uarch/m1_firestorm.spec");

    /// Every builtin plus the committed M1 Firestorm spec.
    fn profiles_with_m1() -> Vec<UarchProfile> {
        let mut registry = phantom_pipeline::UarchRegistry::with_builtins();
        let keys = registry
            .register_text(M1_SPEC)
            .expect("committed spec registers");
        let mut profiles = UarchProfile::all();
        profiles.extend(
            keys.iter()
                .map(|k| registry.get(k).expect("registered").profile()),
        );
        profiles
    }

    #[test]
    fn a_job_forked_from_the_template_equals_a_cold_calibration() {
        let config = PhtChannelConfig { bits: 24, seed: 5 };
        // One store for every profile, so a template served to the
        // wrong profile would show.
        let store = PhtTemplates::new();
        for profile in profiles_with_m1() {
            let name = profile.name.clone();
            let before = (store.misses(), store.hits());
            for threads in [1, 4] {
                let runner = TrialRunner::with_threads(threads);
                let run = |templates| {
                    let noise = NoiseModel::realistic(config.seed);
                    let decoder = DecoderConfig::default();
                    pht_channel_with(&runner, templates, profile.clone(), config, noise, decoder)
                        .unwrap()
                };
                let (cold, forked) = (run(None), run(Some(&store)));
                let what = format!("{name} at {threads} workers");
                assert_eq!(forked.accuracy, cold.accuracy, "{what}");
                assert_eq!(forked.seconds, cold.seconds, "{what}");
                assert_eq!(forked.probes, cold.probes, "{what}");
                assert_eq!(forked.abstentions, cold.abstentions, "{what}");
                assert_eq!(forked.mean_confidence, cold.mean_confidence, "{what}");
                assert_eq!(forked.flip_mask, cold.flip_mask, "{what}");
                assert_ne!(forked.flip_mask, 0, "{what}");
            }
            // The second job on the profile forked the first one's
            // template instead of calibrating again.
            assert_eq!(
                (store.misses(), store.hits()),
                (before.0 + 1, before.1 + 1),
                "{name}"
            );
        }
    }

    fn zen2_scenario(store: &PhtTemplates) -> PhtScenario<'_> {
        PhtScenario {
            profile: UarchProfile::zen2(),
            config: PhtChannelConfig { bits: 8, seed: 2 },
            noise_proto: NoiseModel::quiet(2),
            decoder: DecoderConfig::default(),
            templates: Some(store),
            probe: OnceLock::new(),
        }
    }

    /// A PHT job copies no machine: setup, checkpoint and every fork
    /// hand on the stored template `Arc`, and trials leave it shared.
    #[test]
    fn a_pht_job_copies_no_machine() {
        let store = PhtTemplates::new();
        let scenario = zen2_scenario(&store);
        let template = scenario.checkpoint(scenario.setup().unwrap()).unwrap();
        let stored = store
            .get_or_build(&scenario.profile, || scenario.calibrate())
            .unwrap();
        assert!(
            Arc::ptr_eq(&template, &stored),
            "setup hands on the template"
        );
        let mut fork = scenario.fork(&template).unwrap();
        for index in 0..8 {
            let trial = Trial {
                index,
                seed: index as u64,
            };
            scenario.probe(&mut fork, trial).unwrap();
        }
        assert!(Arc::ptr_eq(&fork, &template), "the fork is the template");
        assert_eq!(
            Arc::strong_count(&template),
            4,
            "store, setup, lookup, fork"
        );
    }

    /// A round from the rewind point is pure: interleaved rounds of
    /// both secrets each repeat what calibration recorded.
    #[test]
    fn a_rewound_round_repeats_the_recorded_one() {
        let store = PhtTemplates::new();
        for profile in profiles_with_m1() {
            let scenario = PhtScenario {
                profile,
                ..zen2_scenario(&store)
            };
            let state = scenario.setup().unwrap();
            let mut rig = Rig::new(&scenario.profile, state.probe).unwrap();
            for i in 0..16 {
                let secret = i % 3 != 1;
                let round = rig.round(secret).unwrap();
                assert_eq!(
                    round,
                    state.rounds[usize::from(secret)],
                    "{} round {i}",
                    scenario.profile.name
                );
            }
        }
    }

    /// The simulating oracle the replay is checked against: the same
    /// scenario, with every vote's round run on a machine.
    struct Simulating<'s, 't>(&'s PhtScenario<'t>);

    impl Scenario for Simulating<'_, '_> {
        type State = (Arc<PhtState>, Rig);
        type Checkpoint = Arc<PhtState>;
        type Sample = PhtSample;
        type Output = PhtChannelResult;

        fn trials(&self) -> usize {
            self.0.trials()
        }

        fn setup(&self) -> Result<Self::State, ScenarioError> {
            self.fork(&self.0.setup()?)
        }

        fn checkpoint(&self, (template, _): Self::State) -> Result<Arc<PhtState>, ScenarioError> {
            Ok(template)
        }

        fn fork(&self, template: &Arc<PhtState>) -> Result<Self::State, ScenarioError> {
            let rig = Rig::new(&self.0.profile, template.probe)?;
            Ok((Arc::clone(template), rig))
        }

        fn probe(
            &self,
            (template, rig): &mut Self::State,
            trial: Trial,
        ) -> Result<PhtSample, ScenarioError> {
            self.0
                .decode_bit(template, trial, |secret| rig.round(secret))
        }

        fn score(&self, samples: Vec<PhtSample>) -> PhtChannelResult {
            self.0.score(samples)
        }
    }

    /// Every builtin, the committed M1 Firestorm spec, or a seeded
    /// mutant of one of them.
    fn arb_profile() -> impl Strategy<Value = UarchProfile> {
        (0..9usize, any::<u64>(), any::<bool>()).prop_map(|(i, seed, mutate)| {
            let mut bases = UarchSpec::builtins();
            bases.extend(phantom_pipeline::spec::parse_specs(M1_SPEC).expect("committed spec"));
            let base = bases.swap_remove(i);
            let spec = if mutate {
                mutate_spec(&base, seed).unwrap_or(base)
            } else {
                base
            };
            spec.profile()
        })
    }

    /// Quiet, realistic, wide jitter, or every cache-noise knob open.
    fn noise(kind: u8, seed: u64) -> NoiseModel {
        let mut noise = NoiseModel::realistic(seed);
        match kind {
            0 => return NoiseModel::quiet(seed),
            1 => {}
            2 => noise.jitter_cycles = 6,
            _ => {
                noise.spurious_evict = 1.0;
                noise.missed_signal = 1.0;
            }
        }
        noise
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Replayed trials give exactly what simulating every vote
        /// gives: every result field, or the same error.
        #[test]
        fn replayed_trials_match_the_simulating_oracle(
            profile in arb_profile(),
            seed in any::<u64>(),
            bits in 1usize..64,
            noise_kind in 0u8..4,
            four_workers in any::<bool>(),
        ) {
            let store = PhtTemplates::new();
            let scenario = PhtScenario {
                profile,
                config: PhtChannelConfig { bits, seed },
                noise_proto: noise(noise_kind, seed),
                decoder: DecoderConfig::default(),
                templates: Some(&store),
                probe: OnceLock::new(),
            };
            let runner = TrialRunner::with_threads(if four_workers { 4 } else { 1 });
            let replayed = runner.run(&scenario, seed).map_err(|e| e.to_string());
            let simulated = runner.run(&Simulating(&scenario), seed).map_err(|e| e.to_string());
            prop_assert_eq!(format!("{replayed:?}"), format!("{simulated:?}"));
        }
    }

    #[test]
    fn quiet_bits_resolve_in_the_first_decode_round() {
        let config = PhtChannelConfig { bits: 32, seed: 11 };
        let r = pht_channel_decoded_on(
            &TrialRunner::with_threads(1),
            UarchProfile::zen2(),
            config,
            NoiseModel::quiet(config.seed),
            DecoderConfig::default(),
        )
        .unwrap();
        assert!(r.accuracy > 0.99, "{}", r.accuracy);
        assert_eq!(r.abstentions, 0);
        assert_eq!(r.probes, 2 * config.bits as u64);
    }
}
