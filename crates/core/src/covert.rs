//! §6.4 — covert channels over the P1 (fetch) and P2 (execute)
//! primitives: **Table 2**.
//!
//! The sender encodes each bit in the *choice of injected branch target*:
//! `T1` is a mapped kernel address, `T0` an unmapped one, both selecting
//! the same cache set. The receiver primes the set, invokes the kernel
//! victim, and probes: a slow probe means the phantom path touched the
//! set, i.e. the bit was 1.
//!
//! Each bit is an independent [`Scenario`] trial: the bit value and the
//! noise stream derive from the trial seed alone, and the probe casts
//! votes through the adaptive [`decode_adaptive`] decoder. That makes a
//! transfer embarrassingly parallel — and byte-identical at any thread
//! count.
//!
//! A vote arms the eviction set, trains the injected branch, primes,
//! runs the victim syscall and probes. Every trial votes from the
//! post-boot checkpoint, and the only noise that touches the machine is
//! a spurious eviction, so the *k*-th vote of a trial whose noise rolls
//! none is a pure function of the sender's target and *k* (DESIGN.md
//! §9.19). Each worker's fork therefore records, per sender bit, each
//! vote's raw way latencies and cycles the first time a trial casts it,
//! and later trials replay the record: they draw and apply their own
//! noise to the recorded latencies without simulating anything. A trial
//! rewinds the receiver only to *materialize* — at its first unrecorded
//! vote, or at a vote whose noise rolls a spurious eviction (which would
//! flush a way and leave the recorded trajectory). It then re-runs the
//! earlier votes and simulates from there: recording further votes in
//! the first case, voting live to its end and recording nothing in the
//! second.
//!
//! Decoding is confidence-driven: a single spurious eviction on a dead
//! set would flip a one-shot 0-bit to 1, so each bit is probed
//! repeatedly — but instead of a fixed vote count, the decoder stops
//! after two unanimous high-margin probes and escalates (up to the
//! schedule bound) only when the early votes tie or sit near the
//! calibrated threshold. Bits that stay tied are reported as
//! abstentions, never coin flips. The total probe cost is reflected
//! honestly in `bits_per_sec`.
//!
//! Setup boots through the boot-image cache and installs a standing
//! [`ProbeArena`]; the booted instance is then sealed by move as the
//! job's restore point ([`System::into_checkpoint`]) and each worker
//! forks one private copy. So a job makes two machine clones (the
//! instance and a fork), and neither copies a cache, µop-cache or CBP
//! set: set-up writes none, the instance and the seal share every set
//! chunk with the boot template, and a fork copies only the chunks
//! its trials write. Votes re-arm the probe buffer in place. The
//! training stub is planted before the seal too, so a vote maps nothing
//! and a rewind keeps the decode cache warm. The fresh-boot,
//! per-probe-mapping arm these replace survives only as the reference
//! in the root `determinism` tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phantom_isa::BranchKind;
use phantom_kernel::{System, SystemCheckpoint};
use phantom_mem::VirtAddr;
use phantom_pipeline::{Checkpoint, UarchProfile};
use phantom_sidechannel::{NoiseModel, ProbeArena, ProbeLevel, ProbeScale, Reading, WayLatencies};

use crate::decode::{decode_adaptive, Decoded, DecoderConfig};
use crate::primitives::{
    p1_probe_latencies, p1_probe_scored, p2_probe_latencies, p2_probe_scored, PrimitiveConfig,
    PrimitiveError,
};
use crate::runner::{Scenario, ScenarioError, Trial, TrialRunner};

/// Physical memory of the receiver's machine (its boot template is
/// keyed by this size and the profile).
pub const RECEIVER_PHYS_BYTES: u64 = 1 << 30;

/// Which primitive carries the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CovertKind {
    /// P1 — transient fetch, observed in the I-cache. All Zen parts.
    Fetch,
    /// P2 — transient data load, observed in the D-cache. Zen 1/2 only.
    Execute,
}

impl std::fmt::Display for CovertKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CovertKind::Fetch => f.write_str("fetch (P1)"),
            CovertKind::Execute => f.write_str("execute (P2)"),
        }
    }
}

/// Configuration of a covert-channel run.
#[derive(Debug, Clone, Copy)]
pub struct CovertConfig {
    /// Number of random bits to transfer (the paper uses 4096).
    pub bits: usize,
    /// RNG seed (bit pattern + measurement noise).
    pub seed: u64,
}

impl Default for CovertConfig {
    fn default() -> CovertConfig {
        CovertConfig {
            bits: 4096,
            seed: 0,
        }
    }
}

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct CovertResult {
    /// Microarchitecture name.
    pub uarch: phantom_pipeline::IStr,
    /// Tested part.
    pub model: phantom_pipeline::IStr,
    /// Channel kind.
    pub kind: CovertKind,
    /// Bits transferred.
    pub bits: usize,
    /// Fraction decoded correctly (abstentions count as wrong).
    pub accuracy: f64,
    /// Simulated wall-clock seconds for the whole transfer.
    pub seconds: f64,
    /// Throughput in bits per second.
    pub bits_per_sec: f64,
    /// Total probes cast across all bits (the decoder's real cost).
    pub probes: u64,
    /// Bits the decoder abstained on (tied through the full schedule).
    pub abstentions: usize,
    /// Mean per-bit decode confidence.
    pub mean_confidence: f64,
}

/// The covert-channel transfer as a trial scenario: one trial per bit.
struct ChannelScenario {
    profile: UarchProfile,
    config: CovertConfig,
    kind: CovertKind,
    /// Noise calibration; each trial reseeds it from its trial seed.
    noise_proto: NoiseModel,
    /// Per-bit vote escalation schedule and confidence floor.
    decoder: DecoderConfig,
}

/// Per-worker receiver state.
///
/// `setup` boots exactly one receiver; the runner seals it by move
/// into a [`ChannelSeal`] before any trial (the [`Scenario`] contract),
/// and every worker probes its own fork. A fork shares the boot-time
/// physical frames (and the `Arc`-held rewind point) copy-on-write, so
/// it costs one machine clone — never a reboot — and each trial's
/// dirty frames stay private to its worker.
enum ChannelState {
    /// The set-up receiver, which only the runner's seal consumes.
    Booted(System, ChannelGeometry),
    /// A worker's fork of the seal, with the seal's rewind point and the
    /// votes the fork's trials have recorded so far.
    Forked {
        sys: System,
        snap: Checkpoint,
        geometry: ChannelGeometry,
        /// For each sender bit (index 0 for `t0`, 1 for `t1`), vote
        /// `k`'s measurement on the recorded trajectory: rewind, then
        /// votes `0..=k` with no spurious eviction.
        record: [Vec<Vote>; 2],
    },
}

/// One recorded vote.
#[derive(Clone, Copy)]
struct Vote {
    /// Each way's raw probe latency.
    ways: WayLatencies,
    /// The simulated cycles the vote took.
    cycles: u64,
}

/// Where a trial's receiver stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Position {
    /// Wherever an earlier trial left it.
    Stale,
    /// Rewound, then votes `0..n` on the recorded trajectory: ready for
    /// vote `n`.
    At(u32),
    /// Off the recorded trajectory: a vote flushed a way, so the trial
    /// votes live to its end.
    Diverged,
}

/// One trial's view of its fork: the receiver, its rewind point and
/// the record for the trial's sender bit.
struct Replay<'f> {
    sys: &'f mut System,
    snap: &'f Checkpoint,
    geometry: &'f ChannelGeometry,
    votes: &'f mut Vec<Vote>,
    target: VirtAddr,
    at: Position,
}

impl Replay<'_> {
    /// Cast vote `k`, returning its reading and the simulated cycles it
    /// took. A recorded vote replays: `noise` is drawn and applied to
    /// the recorded latencies exactly as a live probe would, and the
    /// machine is not touched. An unrecorded vote is simulated and
    /// recorded first. A vote whose noise rolls a spurious eviction
    /// leaves the recorded trajectory, so it restores the noise, and
    /// this and every later vote of the trial run live.
    fn vote(&mut self, k: u32, noise: &mut NoiseModel) -> Result<(Reading, u64), ScenarioError> {
        if self.at != Position::Diverged {
            if k as usize == self.votes.len() {
                self.seek(k)?;
                let before = self.sys.machine().cycles();
                let ways = self.geometry.raw_vote(self.sys, self.target)?;
                let cycles = self.sys.machine().cycles() - before;
                self.votes.push(Vote { ways, cycles });
                self.at = Position::At(k + 1);
            }
            let vote = self.votes[k as usize];
            let start = noise.clone();
            let replayed = self
                .geometry
                .scale
                .score(noise, vote.ways.len(), |way, spurious| {
                    if spurious {
                        Err(())
                    } else {
                        Ok(vote.ways[way])
                    }
                });
            if let Ok((_, reading)) = replayed {
                return Ok((reading, vote.cycles));
            }
            *noise = start;
            self.seek(k)?;
            self.at = Position::Diverged;
        }
        let before = self.sys.machine().cycles();
        let reading = self.geometry.live_vote(self.sys, self.target, noise)?;
        Ok((reading, self.sys.machine().cycles() - before))
    }

    /// Put the receiver where vote `k` starts on the recorded
    /// trajectory: rewind and re-run votes `0..k`, unless it stands
    /// there already.
    fn seek(&mut self, k: u32) -> Result<(), ScenarioError> {
        if self.at != Position::At(k) {
            self.snap.rewind(self.sys.machine_mut());
            for _ in 0..k {
                self.geometry.raw_vote(self.sys, self.target)?;
            }
            self.at = Position::At(k);
        }
        Ok(())
    }
}

/// The sealed receiver: the set-up instance itself, as a fork point.
struct ChannelSeal {
    sys: SystemCheckpoint,
    geometry: ChannelGeometry,
}

/// What every fork of one receiver shares besides its machine: probe
/// configuration, sender targets and victim sites.
#[derive(Clone)]
struct ChannelGeometry {
    kind: CovertKind,
    cfg: PrimitiveConfig,
    /// How a probe reads its ways under the scenario's jitter.
    scale: ProbeScale,
    /// Sender target encoding a 1 (mapped) and a 0 (unmapped hole).
    t1: VirtAddr,
    t0: VirtAddr,
    /// Victim branch site (fetch: Listing 1 nop; execute: Listing 2
    /// call).
    victim: VirtAddr,
    /// Listing 3 gadget (execute channel only).
    gadget: VirtAddr,
}

impl ChannelGeometry {
    /// The sender's target for `bit`.
    fn target(&self, bit: bool) -> VirtAddr {
        if bit {
            self.t1
        } else {
            self.t0
        }
    }

    /// One vote from where the receiver stands: arm, train, prime, the
    /// victim syscall, and a probe that draws and applies `noise`.
    fn live_vote(
        &self,
        sys: &mut System,
        target: VirtAddr,
        noise: &mut NoiseModel,
    ) -> Result<Reading, PrimitiveError> {
        match self.kind {
            CovertKind::Fetch => p1_probe_scored(sys, &self.cfg, self.victim, target, noise),
            CovertKind::Execute => {
                p2_probe_scored(sys, &self.cfg, self.victim, self.gadget, target, noise)
            }
        }
    }

    /// [`live_vote`](Self::live_vote) without the noise: each way's raw
    /// probe latency. It moves the receiver as a live vote that rolls no
    /// spurious eviction does.
    fn raw_vote(&self, sys: &mut System, target: VirtAddr) -> Result<WayLatencies, PrimitiveError> {
        match self.kind {
            CovertKind::Fetch => p1_probe_latencies(sys, &self.cfg, self.victim, target),
            CovertKind::Execute => {
                p2_probe_latencies(sys, &self.cfg, self.victim, self.gadget, target)
            }
        }
    }
}

/// One decoded bit and the simulated cycles its trial consumed.
struct BitSample {
    correct: bool,
    abstained: bool,
    probes: u32,
    confidence: f64,
    cycles: u64,
}

impl ChannelScenario {
    fn uarch_salt(&self) -> u64 {
        self.profile.name.bytes().map(u64::from).sum::<u64>()
    }

    /// The sender's bit and the receiver's noise stream for `trial`.
    fn draw(&self, trial: Trial) -> (bool, NoiseModel) {
        let mut rng = StdRng::seed_from_u64(trial.seed);
        let bit = rng.gen_bool(0.5);
        (
            bit,
            self.noise_proto.reseeded(trial.seed ^ self.uarch_salt()),
        )
    }

    /// Decode `bit` from the votes `vote(k, noise)` casts, each returning
    /// its reading and the simulated cycles it took.
    fn decode(
        &self,
        bit: bool,
        mut noise: NoiseModel,
        mut vote: impl FnMut(u32, &mut NoiseModel) -> Result<(Reading, u64), ScenarioError>,
    ) -> Result<BitSample, ScenarioError> {
        let mut cycles = 0;
        let outcome = decode_adaptive(&self.decoder, |k| {
            let (reading, spent) = vote(k, &mut noise)?;
            cycles += spent;
            Ok::<_, ScenarioError>((reading.hit, reading.confidence))
        })?;
        let (correct, abstained) = match outcome.decoded {
            Decoded::Bit(b) => (b == bit, false),
            Decoded::Abstain => (false, true),
        };
        Ok(BitSample {
            correct,
            abstained,
            probes: outcome.probes,
            confidence: outcome.confidence.value(),
            cycles,
        })
    }
}

impl Scenario for ChannelScenario {
    type State = ChannelState;
    type Checkpoint = ChannelSeal;
    type Sample = BitSample;
    type Output = CovertResult;

    fn trials(&self) -> usize {
        self.config.bits
    }

    fn setup(&self) -> Result<ChannelState, ScenarioError> {
        let boot_salt = match self.kind {
            CovertKind::Fetch => 0xc0de,
            CovertKind::Execute => 0xe8ec,
        };
        let mut sys = System::new_cached(
            self.profile.clone(),
            RECEIVER_PHYS_BYTES,
            self.config.seed ^ boot_salt,
        )
        .map_err(|e| PrimitiveError(e.to_string()))?;
        let attacker = VirtAddr::new(0x5000_0000);
        // Standing probe mapping, installed *before* the checkpoint so
        // every trial re-arms it in place instead of re-mapping the
        // eviction buffer. Installing here consumes exactly the
        // physical frames the first per-trial `PrimeProbe` mapping
        // would have, so trial-visible addresses — and therefore trial
        // outputs — are unchanged; the root `determinism` suite checks
        // this against a fresh boot probing through per-trial mappings.
        let arena = match self.kind {
            CovertKind::Fetch => ProbeArena::install(sys.machine_mut(), attacker, ProbeLevel::L1I),
            CovertKind::Execute => {
                ProbeArena::install(sys.machine_mut(), attacker + 0x20_0000, ProbeLevel::L1D)
            }
        }
        .map_err(|e| PrimitiveError(e.to_string()))?;
        let scale = ProbeScale::new(
            arena.level(),
            sys.machine().caches().config(),
            self.noise_proto.jitter_cycles,
        );
        let cfg = PrimitiveConfig::for_system(&sys, attacker).with_arena(arena);
        let (t1, t0, victim, gadget) = match self.kind {
            CovertKind::Fetch => {
                // T1: executable kernel text; T0: the same low bits in an
                // unmapped region. Flipping bit 29 keeps T0 inside the
                // (sparsely occupied) image randomization range for every
                // slot — flipping bit 30 would land slot-0 boots inside
                // the kernel module, which is mapped.
                let t1 = sys.image().base + 0x2000 + 43 * 64;
                let t0 = VirtAddr::new(t1.raw() ^ 0x2000_0000);
                // The victim instruction (covert channels are
                // cooperative: the receiver knows where the kernel
                // speculates).
                (t1, t0, sys.image().listing1_nop, VirtAddr::new(0))
            }
            CovertKind::Execute => {
                // T1: a mapped physmap address; T0: same low bits,
                // unmapped slot.
                let t1 = sys.layout().physmap_base() + 0x10_0000 + 29 * 64;
                let t0 = VirtAddr::new(t1.raw() ^ 0x2_0000_0000);
                (
                    t1,
                    t0,
                    sys.image().listing2_call,
                    sys.image().listing3_gadget,
                )
            }
        };
        // The training stub (`jmp *r11; hlt` at the victim's user
        // alias) does not depend on the sender's target, so it is
        // planted once here, like the arena: it takes exactly the frames
        // the first per-trial plant would have, and trials then re-poke
        // identical bytes into a mapped page, leaving the user
        // page-table run shared with the seal and the decode cache warm
        // across rewinds (the same `determinism` test pins this).
        sys.plant_user_branch(cfg.user_alias(victim), BranchKind::Indirect, t1)
            .map_err(|e| PrimitiveError(e.to_string()))?;
        let geometry = ChannelGeometry {
            kind: self.kind,
            cfg,
            scale,
            t1,
            t0,
            victim,
            gadget,
        };
        Ok(ChannelState::Booted(sys, geometry))
    }

    fn checkpoint(&self, state: ChannelState) -> Result<ChannelSeal, ScenarioError> {
        let (sys, geometry) = match state {
            ChannelState::Booted(sys, geometry) => (sys, geometry),
            ChannelState::Forked { sys, geometry, .. } => (sys, geometry),
        };
        Ok(ChannelSeal {
            sys: sys.into_checkpoint(),
            geometry,
        })
    }

    fn fork(&self, seal: &ChannelSeal) -> Result<ChannelState, ScenarioError> {
        Ok(ChannelState::Forked {
            sys: seal.sys.fork(),
            snap: seal.sys.checkpoint().clone(),
            geometry: seal.geometry.clone(),
            record: [Vec::new(), Vec::new()],
        })
    }

    fn probe(&self, state: &mut ChannelState, trial: Trial) -> Result<BitSample, ScenarioError> {
        let ChannelState::Forked {
            sys,
            snap,
            geometry,
            record,
        } = state
        else {
            return Err("a receiver is probed only through a fork of its seal".into());
        };
        let (bit, noise) = self.draw(trial);
        let mut replay = Replay {
            sys,
            snap,
            geometry,
            votes: &mut record[usize::from(bit)],
            target: geometry.target(bit),
            at: Position::Stale,
        };
        self.decode(bit, noise, |k, noise| replay.vote(k, noise))
    }

    fn score(&self, samples: Vec<BitSample>) -> CovertResult {
        let bits = samples.len();
        let correct = samples.iter().filter(|s| s.correct).count();
        let cycles: u64 = samples.iter().map(|s| s.cycles).sum();
        let probes: u64 = samples.iter().map(|s| u64::from(s.probes)).sum();
        let abstentions = samples.iter().filter(|s| s.abstained).count();
        let mean_confidence =
            samples.iter().map(|s| s.confidence).sum::<f64>() / bits.max(1) as f64;
        let seconds = self.profile.cycles_to_seconds(cycles);
        CovertResult {
            uarch: self.profile.name.clone(),
            model: self.profile.model.clone(),
            kind: self.kind,
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

fn run_channel_on(
    runner: &TrialRunner,
    scenario: &ChannelScenario,
) -> Result<CovertResult, PrimitiveError> {
    runner
        .run(scenario, scenario.config.seed)
        .map_err(|e| PrimitiveError(e.to_string()))
}

/// Run the fetch (P1) covert channel on one microarchitecture, with
/// the paper's stressed sibling thread as noise.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn fetch_channel_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    config: CovertConfig,
) -> Result<CovertResult, PrimitiveError> {
    // Stress the sibling thread to stabilize the signal (§6.4 footnote).
    let noise = NoiseModel::with_smt_stress(config.seed);
    fetch_channel_decoded_on(runner, profile, config, noise, DecoderConfig::default())
}

/// [`fetch_channel_on`] with an explicit noise model (ablation sweeps)
/// and decoder config. The model's calibration knobs are kept; its
/// stream is reseeded per trial. `DecoderConfig::fixed(n)` reproduces
/// the legacy fixed majority vote, the default escalates adaptively.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn fetch_channel_decoded_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    config: CovertConfig,
    noise: NoiseModel,
    decoder: DecoderConfig,
) -> Result<CovertResult, PrimitiveError> {
    run_channel_on(
        runner,
        &ChannelScenario {
            profile,
            config,
            kind: CovertKind::Fetch,
            noise_proto: noise,
            decoder,
        },
    )
}

/// Run the execute (P2) covert channel (meaningful on Zen 1/2).
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn execute_channel_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    config: CovertConfig,
) -> Result<CovertResult, PrimitiveError> {
    // "Additional sibling thread workloads were unnecessary for the
    // tested parts" — plain realistic noise.
    let noise = NoiseModel::realistic(config.seed);
    execute_channel_decoded_on(runner, profile, config, noise, DecoderConfig::default())
}

/// [`execute_channel_on`] with explicit noise and decoder configs.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn execute_channel_decoded_on(
    runner: &TrialRunner,
    profile: UarchProfile,
    config: CovertConfig,
    noise: NoiseModel,
    decoder: DecoderConfig,
) -> Result<CovertResult, PrimitiveError> {
    run_channel_on(
        runner,
        &ChannelScenario {
            profile,
            config,
            kind: CovertKind::Execute,
            noise_proto: noise,
            decoder,
        },
    )
}

/// The full Table 2: fetch rows for all four Zen parts, execute rows
/// for Zen 1/2.
///
/// # Errors
///
/// Returns [`PrimitiveError`] if any row fails.
pub fn table2_on(
    runner: &TrialRunner,
    config: CovertConfig,
) -> Result<Vec<CovertResult>, PrimitiveError> {
    let mut rows = Vec::new();
    for profile in UarchProfile::amd() {
        let noise = NoiseModel::with_smt_stress(config.seed);
        let scenario = ChannelScenario {
            profile,
            config,
            kind: CovertKind::Fetch,
            noise_proto: noise,
            decoder: DecoderConfig::default(),
        };
        rows.push(run_channel_on(runner, &scenario)?);
    }
    for profile in [UarchProfile::zen1(), UarchProfile::zen2()] {
        let noise = NoiseModel::realistic(config.seed);
        let scenario = ChannelScenario {
            profile,
            config,
            kind: CovertKind::Execute,
            noise_proto: noise,
            decoder: DecoderConfig::default(),
        };
        rows.push(run_channel_on(runner, &scenario)?);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use phantom_bpu::Cbp;
    use phantom_cache::{CacheHierarchy, UopCache};
    use proptest::prelude::*;

    use super::*;

    const SMALL: CovertConfig = CovertConfig { bits: 96, seed: 9 };

    #[test]
    fn fetch_channel_is_accurate_on_all_zen() {
        for p in UarchProfile::amd() {
            let name = p.name.clone();
            let r = fetch_channel_on(&TrialRunner::new(), p, SMALL).unwrap();
            assert!(r.accuracy >= 0.85, "{name}: accuracy {}", r.accuracy);
            assert!(r.bits_per_sec > 0.0);
        }
    }

    #[test]
    fn execute_channel_works_on_zen12_not_zen3() {
        for p in [UarchProfile::zen1(), UarchProfile::zen2()] {
            let name = p.name.clone();
            let r = execute_channel_on(&TrialRunner::new(), p, SMALL).unwrap();
            assert!(r.accuracy >= 0.85, "{name}: accuracy {}", r.accuracy);
        }
        // On Zen 3 the phantom window never executes: the receiver sees
        // no signal and accuracy collapses to chance.
        let r = execute_channel_on(&TrialRunner::new(), UarchProfile::zen3(), SMALL).unwrap();
        assert!(
            r.accuracy < 0.75,
            "Zen 3 execute channel is dead: {}",
            r.accuracy
        );
    }

    fn scenario(profile: UarchProfile, kind: CovertKind) -> ChannelScenario {
        ChannelScenario {
            profile,
            config: CovertConfig { bits: 8, seed: 4 },
            kind,
            noise_proto: NoiseModel::quiet(4),
            decoder: DecoderConfig::default(),
        }
    }

    /// Channel set-up (a boot-template instance, the probe arena and
    /// the planted training stub) writes no cache, µop-cache or CBP
    /// set. That is why a sealed receiver and every fork of it can
    /// share all those sets with the boot template.
    #[test]
    fn channel_setup_leaves_caches_and_cbp_in_reset_state() {
        for kind in [CovertKind::Fetch, CovertKind::Execute] {
            for profile in UarchProfile::amd() {
                let what = format!("{} {kind}", profile.name);
                let Ok(ChannelState::Booted(sys, _)) = scenario(profile.clone(), kind).setup()
                else {
                    panic!("{what}: set-up failed");
                };
                let m = sys.machine();
                assert!(m.caches() == &CacheHierarchy::new(profile.cache), "{what}");
                assert!(
                    m.uop_cache() == &UopCache::with_geometry(profile.uop_geometry),
                    "{what}"
                );
                assert!(
                    m.bpu().cbp() == &Cbp::new(profile.cbp_scheme.clone()),
                    "{what}"
                );
                assert_eq!(m.owned_set_chunks(), 0, "{what}");
            }
        }
    }

    /// A fork of a sealed receiver shares every cache, µop-cache and
    /// CBP set with the seal and copies only the set chunks its trials
    /// write; the seal never sees those writes.
    #[test]
    fn a_receiver_fork_copies_only_the_sets_it_writes() {
        let machine = |state: &ChannelState| match state {
            ChannelState::Forked { sys, .. } => sys.machine().owned_set_chunks(),
            ChannelState::Booted(..) => panic!("not a fork"),
        };
        for kind in [CovertKind::Fetch, CovertKind::Execute] {
            let scenario = scenario(UarchProfile::zen2(), kind);
            let seal = scenario.checkpoint(scenario.setup().unwrap()).unwrap();
            let mut fork = scenario.fork(&seal).unwrap();
            assert_eq!(machine(&fork), 0, "{kind}: a fresh fork copies no set");
            for index in 0..8 {
                let trial = Trial {
                    index,
                    seed: index as u64,
                };
                scenario.probe(&mut fork, trial).unwrap();
            }
            let written = machine(&fork);
            assert!(
                (1..40).contains(&written),
                "{kind}: {written} chunks copied"
            );
            assert_eq!(
                machine(&scenario.fork(&seal).unwrap()),
                0,
                "{kind}: the seal is intact"
            );
        }
    }

    /// The simulating oracle the replay is checked against: the same
    /// scenario, with every vote of every trial simulated live on the
    /// rewound receiver.
    struct Simulating<'s>(&'s ChannelScenario);

    impl Scenario for Simulating<'_> {
        type State = ChannelState;
        type Checkpoint = ChannelSeal;
        type Sample = BitSample;
        type Output = CovertResult;

        fn trials(&self) -> usize {
            self.0.trials()
        }

        fn setup(&self) -> Result<ChannelState, ScenarioError> {
            self.0.setup()
        }

        fn checkpoint(&self, state: ChannelState) -> Result<ChannelSeal, ScenarioError> {
            self.0.checkpoint(state)
        }

        fn fork(&self, seal: &ChannelSeal) -> Result<ChannelState, ScenarioError> {
            self.0.fork(seal)
        }

        fn probe(
            &self,
            state: &mut ChannelState,
            trial: Trial,
        ) -> Result<BitSample, ScenarioError> {
            let ChannelState::Forked {
                sys,
                snap,
                geometry: g,
                ..
            } = state
            else {
                return Err("a receiver is probed only through a fork of its seal".into());
            };
            snap.rewind(sys.machine_mut());
            let (bit, noise) = self.0.draw(trial);
            let target = g.target(bit);
            self.0.decode(bit, noise, |_, noise| {
                let before = sys.machine().cycles();
                let reading = g.live_vote(sys, target, noise)?;
                Ok((reading, sys.machine().cycles() - before))
            })
        }

        fn score(&self, samples: Vec<BitSample>) -> CovertResult {
            self.0.score(samples)
        }
    }

    /// Votes are pure: from the rewound receiver, the `k`-th vote at a
    /// target measures what the production trials recorded for it,
    /// however votes at the two targets and rewinds interleave.
    #[test]
    fn a_rewound_vote_repeats_the_recorded_one() {
        for kind in [CovertKind::Fetch, CovertKind::Execute] {
            for profile in [UarchProfile::zen2(), UarchProfile::zen4()] {
                let what = format!("{} {kind}", profile.name);
                let scenario = ChannelScenario {
                    decoder: DecoderConfig::fixed(8),
                    ..scenario(profile, kind)
                };
                let seal = scenario.checkpoint(scenario.setup().unwrap()).unwrap();
                let mut fork = scenario.fork(&seal).unwrap();
                for index in 0..8 {
                    let seed = index as u64;
                    scenario.probe(&mut fork, Trial { index, seed }).unwrap();
                }
                let ChannelState::Forked {
                    mut sys,
                    snap,
                    geometry: g,
                    record,
                } = fork
                else {
                    panic!("{what}: not a fork");
                };
                assert!(record.iter().all(|votes| votes.len() == 8), "{what}");
                for round in 0..12u32 {
                    let bit = round % 3 != 1;
                    snap.rewind(sys.machine_mut());
                    for (k, vote) in record[usize::from(bit)].iter().enumerate() {
                        if k as u32 > round % 8 {
                            break;
                        }
                        let before = sys.machine().cycles();
                        let ways = g.raw_vote(&mut sys, g.target(bit)).unwrap();
                        let cycles = sys.machine().cycles() - before;
                        assert_eq!(ways, vote.ways, "{what}: round {round} vote {k}");
                        assert_eq!(cycles, vote.cycles, "{what}: round {round} vote {k}");
                    }
                }
            }
        }
    }

    /// Quiet, jittered, spurious evictions at a low rate and on every
    /// way, missed signals, and the two calibrated models.
    fn noise(kind: u8, seed: u64) -> NoiseModel {
        let mut noise = NoiseModel::quiet(seed);
        match kind {
            0 => {}
            1 => noise.jitter_cycles = 2,
            2 => noise.jitter_cycles = 6,
            3 => noise.spurious_evict = 0.04,
            4 => noise.spurious_evict = 1.0,
            5 => noise.missed_signal = 0.04,
            6 => return NoiseModel::realistic(seed),
            _ => return NoiseModel::with_smt_stress(seed),
        }
        noise
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Trials that replay recorded votes give exactly what
        /// simulating every vote gives: every result field, or the same
        /// error.
        #[test]
        fn replayed_covert_trials_match_the_simulating_oracle(
            zen in 0usize..4,
            execute in any::<bool>(),
            noise_kind in 0u8..8,
            bits in 1usize..64,
            seed in any::<u64>(),
            four_workers in any::<bool>(),
        ) {
            let scenario = ChannelScenario {
                profile: UarchProfile::amd().swap_remove(zen),
                config: CovertConfig { bits, seed },
                kind: if execute { CovertKind::Execute } else { CovertKind::Fetch },
                noise_proto: noise(noise_kind, seed),
                decoder: DecoderConfig::default(),
            };
            let runner = TrialRunner::with_threads(if four_workers { 4 } else { 1 });
            let replayed = runner.run(&scenario, seed).map_err(|e| e.to_string());
            let simulated = runner.run(&Simulating(&scenario), seed).map_err(|e| e.to_string());
            prop_assert_eq!(format!("{replayed:?}"), format!("{simulated:?}"));
        }
    }

    #[test]
    fn fetch_beats_chance_even_with_noise() {
        let r = fetch_channel_on(
            &TrialRunner::new(),
            UarchProfile::zen2(),
            CovertConfig { bits: 160, seed: 5 },
        )
        .unwrap();
        assert!(r.accuracy > 0.8);
        assert_eq!(r.bits, 160);
    }

    #[test]
    fn transfer_is_identical_at_any_thread_count() {
        let noise = NoiseModel::with_smt_stress(SMALL.seed);
        let scenario = ChannelScenario {
            profile: UarchProfile::zen3(),
            config: CovertConfig { bits: 48, seed: 3 },
            kind: CovertKind::Fetch,
            noise_proto: noise,
            decoder: DecoderConfig::default(),
        };
        let one = run_channel_on(&TrialRunner::with_threads(1), &scenario).unwrap();
        let four = run_channel_on(&TrialRunner::with_threads(4), &scenario).unwrap();
        assert_eq!(one.accuracy, four.accuracy);
        assert_eq!(one.seconds, four.seconds);
        assert_eq!(one.bits_per_sec, four.bits_per_sec);
        assert_eq!(one.probes, four.probes);
        assert_eq!(one.abstentions, four.abstentions);
        assert_eq!(one.mean_confidence, four.mean_confidence);
    }

    #[test]
    fn adaptive_decoder_beats_fixed_votes_under_realistic_noise() {
        // The tentpole claim: at equal or lower total probe cost, the
        // adaptive decoder matches or beats the legacy fixed 3-vote
        // majority under the realistic noise model.
        let config = CovertConfig { bits: 192, seed: 7 };
        let runner = TrialRunner::with_threads(2);
        let noise = NoiseModel::realistic(config.seed);
        let adaptive = fetch_channel_decoded_on(
            &runner,
            UarchProfile::zen2(),
            config,
            noise.reseeded(config.seed),
            DecoderConfig::default(),
        )
        .unwrap();
        let fixed = fetch_channel_decoded_on(
            &runner,
            UarchProfile::zen2(),
            config,
            noise.reseeded(config.seed),
            DecoderConfig::fixed(3),
        )
        .unwrap();
        assert!(
            adaptive.accuracy >= fixed.accuracy,
            "adaptive {} vs fixed {}",
            adaptive.accuracy,
            fixed.accuracy
        );
        assert!(
            adaptive.probes <= fixed.probes,
            "adaptive {} probes vs fixed {}",
            adaptive.probes,
            fixed.probes
        );
        assert_eq!(fixed.probes, 3 * config.bits as u64);
        assert!(adaptive.mean_confidence > 0.5);
    }

    #[test]
    fn quiet_bits_cost_two_probes_each() {
        let config = CovertConfig { bits: 64, seed: 11 };
        let r = fetch_channel_decoded_on(
            &TrialRunner::with_threads(1),
            UarchProfile::zen2(),
            config,
            NoiseModel::quiet(config.seed),
            DecoderConfig::default(),
        )
        .unwrap();
        assert!(r.accuracy > 0.99, "{}", r.accuracy);
        assert_eq!(r.abstentions, 0);
        // Without noise every bit resolves in the first (2-vote) round.
        assert_eq!(r.probes, 2 * config.bits as u64);
    }
}
