//! The campaign workloads: the default Zen grid driven job by job
//! through `phantom_bench::campaign::run_job`, and the traced mirror of
//! each job.
//!
//! The mirror re-drives a fetch/execute job through the same public
//! calls the channel scenario makes — cached boot, probe-arena install,
//! checkpoint, then per trial a rewind and `decode_adaptive` over the
//! scored P1/P2 probe — on the same `TrialRunner`, with a span around
//! every call. The PHT lane's scenario is private, so its jobs are
//! timed whole, at `pht_channel_decoded_on`. Each mirrored job renders
//! its record exactly as `run_job` does; the parity check compares the
//! bytes.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use phantom::attacks::{pht_channel_decoded_on, PhtChannelConfig, PhtChannelResult};
use phantom::decode::{decode_adaptive, Decoded, DecoderConfig};
use phantom::primitives::{p1_probe_scored, p2_probe_scored, PrimitiveConfig};
use phantom::report::json::SCHEMA;
use phantom::report::value::{parse, JsonValue};
use phantom::runner::{trial_seed, Scenario, ScenarioError, Trial, TrialRunner};
use phantom::{UarchProfile, UarchRegistry};
use phantom_bench::campaign::{jobs, run_job, CampaignConfig, CampaignScenario, Job};
use phantom_cache::Event;
use phantom_kernel::{boot_cache, System};
use phantom_mem::VirtAddr;
use phantom_pipeline::{Checkpoint, Machine};
use phantom_sidechannel::{NoiseModel, ProbeArena, ProbeLevel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ledger::{nanos, Ledger};
use crate::Pass;

/// Physical memory of every campaign receiver system.
const PHYS_BYTES: u64 = 1 << 30;

/// The campaign workload: its configs (run in order) and its runner.
pub struct Campaign {
    cfgs: Vec<CampaignConfig>,
    runner: TrialRunner,
}

impl Campaign {
    /// `campaign_wide`: the default grid over `seeds` consecutive
    /// campaign seeds at `bits` bits per job on one worker.
    pub fn wide(seed: u64, seeds: u64, bits: usize) -> Campaign {
        let registry = UarchRegistry::with_builtins();
        let cfgs = (0..seeds)
            .map(|k| {
                let mut cfg = CampaignConfig::default_grid(&registry);
                cfg.bits = bits;
                cfg.seed = seed.wrapping_add(k);
                cfg
            })
            .collect();
        Campaign {
            cfgs,
            runner: TrialRunner::with_threads(1),
        }
    }

    /// Build the boot template of every part the grid boots, so the
    /// timed jobs instantiate from the process-global boot cache.
    ///
    /// # Errors
    ///
    /// Returns the boot failure as text.
    pub fn warm(&self) -> Result<(), String> {
        for (_, profile) in &self.cfgs[0].uarches {
            System::new_cached(profile.clone(), PHYS_BYTES, 0).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Trials one pass runs.
    pub fn trials(&self) -> u64 {
        self.cfgs.iter().map(|c| c.total_trials() as u64).sum()
    }

    /// Every job of the workload, in emission order.
    fn jobs(&self) -> impl Iterator<Item = (&CampaignConfig, Job)> {
        self.cfgs
            .iter()
            .flat_map(|cfg| jobs(cfg).into_iter().map(move |job| (cfg, job)))
    }

    /// One untraced pass: every job through `run_job`, timed one by
    /// one, each record checked as it arrives.
    pub fn pass(&self) -> Pass {
        let mut pass = Pass::default();
        let mut totals = JobTotals::default();
        for (cfg, job) in self.jobs() {
            let t = Instant::now();
            let line = run_job(&self.runner, cfg, &job).map(|r| r.to_compact_string());
            pass.item_ms.push(nanos(t.elapsed()) as f64 / 1e6);
            pass.timed.push(true);
            pass.attempted += 1;
            match line {
                Ok(line) if record_is_valid(&line, &job) => {
                    totals.add_record(&line);
                    pass.jsonl.push_str(&line);
                    pass.jsonl.push('\n');
                }
                Ok(line) => {
                    eprintln!("perfbench: malformed record for {}: {line}", job.id);
                    pass.failed += 1;
                }
                Err(e) => {
                    eprintln!("perfbench: job {} failed: {e}", job.id);
                    pass.failed += 1;
                }
            }
        }
        pass.units = self.trials();
        pass.model = totals.model();
        pass
    }

    /// The traced run's reference: every job through `run_job` on the
    /// workload's runner. Returns each record line and its wall time.
    pub fn reference(&self) -> Result<Vec<(String, u64)>, String> {
        self.jobs()
            .map(|(cfg, job)| {
                let t = Instant::now();
                let line = run_job(&self.runner, cfg, &job)
                    .map_err(|e| format!("job {}: {e}", job.id))?
                    .to_compact_string();
                Ok((line, nanos(t.elapsed())))
            })
            .collect()
    }

    /// One traced pass of the mirror. `reference` holds the reference
    /// run's records and job wall times, in job order; a mirrored
    /// record that differs from its reference counts as a parity
    /// failure.
    pub fn mirror(&self, reference: &[(String, u64)]) -> Result<Traced, String> {
        let mut ledger = Ledger::default();
        let mut jsonl = String::new();
        let mut parity_failures = 0;
        let mut wall_ns = 0;
        let workers = self.runner.threads() as u64;
        let boot = boot_cache::global();
        let (hits, misses) = (boot.hits(), boot.misses());
        for ((cfg, job), (ref_line, ref_ns)) in self.jobs().zip(reference) {
            let seed = trial_seed(cfg.seed, job.index);
            let noise = job.noise.model(seed);
            let start = Instant::now();
            // Worker threads' time replaces the main thread's wait on
            // the pool in the traced thread time.
            let (mut worker_ns, mut pool_ns) = (0, 0);
            let metrics = if job.scenario == CampaignScenario::Pht {
                let r = ledger
                    .time("core.pht_job", || {
                        pht_channel_decoded_on(
                            &self.runner,
                            job.profile.clone(),
                            PhtChannelConfig {
                                bits: cfg.bits,
                                seed,
                            },
                            noise,
                            DecoderConfig::default(),
                        )
                    })
                    .map_err(|e| format!("job {}: {e}", job.id))?;
                JobMetrics::from(&r)
            } else {
                let scenario = ChannelMirror::new(&job, cfg.bits, seed, noise);
                let out = self
                    .runner
                    .run(&scenario, seed)
                    .map_err(|e| format!("job {}: {e}", job.id))?;
                ledger.merge(&out.ledger);
                ledger.merge(&scenario.spans.lock().expect("span lock"));
                ledger.count("ref_thread_ns", workers * ref_ns);
                (worker_ns, pool_ns) = (out.worker_ns, out.pool_ns);
                out.metrics
            };
            let line = ledger.time("bench.emit", || {
                job_record(cfg, &job, seed, &metrics).to_compact_string()
            });
            let job_ns = nanos(start.elapsed());
            wall_ns += job_ns;
            ledger.traced_ns += (job_ns + worker_ns).saturating_sub(pool_ns);
            ledger.count("bits", cfg.bits as u64);
            ledger.count("probes", metrics.probes);
            ledger.count("abstentions", metrics.abstentions as u64);
            if line != *ref_line {
                eprintln!("perfbench: mirror parity failure on {}:\n  run_job: {ref_line}\n  mirror:  {line}", job.id);
                parity_failures += 1;
            }
            jsonl.push_str(&line);
            jsonl.push('\n');
        }
        ledger.count("boot_cache_hits", boot.hits() - hits);
        ledger.count("boot_cache_misses", boot.misses() - misses);
        let reference_ns = reference.iter().map(|(_, ns)| ns).sum();
        Ok(Traced {
            ledger,
            jsonl,
            parity_failures,
            wall_ns,
            reference_ns,
        })
    }
}

/// One traced pass: the ledger, the mirrored records, and how many of
/// them differed from the reference run.
pub struct Traced {
    pub ledger: Ledger,
    pub jsonl: String,
    pub parity_failures: u64,
    /// Wall time of the traced pass.
    pub wall_ns: u64,
    /// Wall time of the untraced reference run of the same work.
    pub reference_ns: u64,
}

/// A record parses, carries the current schema, and names the job the
/// canonical order expects next.
fn record_is_valid(line: &str, job: &Job) -> bool {
    parse(line).is_ok_and(|v| {
        v.get("schema").and_then(JsonValue::as_str) == Some(SCHEMA)
            && v.get("job").and_then(JsonValue::as_str) == Some(job.id.as_str())
            && v.get("index").and_then(JsonValue::as_u64) == Some(job.index as u64)
    })
}

/// Modelled outputs summed over a pass's records.
#[derive(Default)]
struct JobTotals {
    bits: f64,
    correct_bits: f64,
    probes: f64,
    sim_seconds: f64,
}

impl JobTotals {
    fn add_record(&mut self, line: &str) {
        let Ok(v) = parse(line) else { return };
        let num = |key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        self.bits += num("bits");
        self.correct_bits += num("accuracy") * num("bits");
        self.probes += num("probes");
        self.sim_seconds += num("seconds");
    }

    fn model(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("accuracy", self.correct_bits / self.bits, "frac"),
            ("probes_per_bit", self.probes / self.bits, "probes/bit"),
            ("sim_bits_per_s", self.bits / self.sim_seconds, "bit/s"),
        ]
    }
}

/// The fields every campaign record reports.
struct JobMetrics {
    accuracy: f64,
    seconds: f64,
    bits_per_sec: f64,
    probes: u64,
    abstentions: usize,
    mean_confidence: f64,
}

impl From<&PhtChannelResult> for JobMetrics {
    fn from(r: &PhtChannelResult) -> JobMetrics {
        JobMetrics {
            accuracy: r.accuracy,
            seconds: r.seconds,
            bits_per_sec: r.bits_per_sec,
            probes: r.probes,
            abstentions: r.abstentions,
            mean_confidence: r.mean_confidence,
        }
    }
}

/// The record `run_job` emits for `job`, field for field.
fn job_record(cfg: &CampaignConfig, job: &Job, seed: u64, r: &JobMetrics) -> JsonValue {
    let mut rec = JsonValue::object();
    rec.set("schema", JsonValue::Str(SCHEMA.to_string()))
        .set("kind", JsonValue::Str("campaign".to_string()))
        .set("job", JsonValue::Str(job.id.clone()))
        .set("index", JsonValue::Uint(job.index as u64))
        .set("uarch", JsonValue::Str(job.uarch_key.clone()))
        .set(
            "scenario",
            JsonValue::Str(job.scenario.as_str().to_string()),
        )
        .set("noise_axis", JsonValue::Str(job.noise.axis.to_string()))
        .set("noise_value", JsonValue::Float(job.noise.value))
        .set("bits", JsonValue::Uint(cfg.bits as u64))
        .set("seed", JsonValue::Uint(seed))
        .set("accuracy", JsonValue::Float(r.accuracy))
        .set("seconds", JsonValue::Float(r.seconds))
        .set("bits_per_sec", JsonValue::Float(r.bits_per_sec))
        .set("probes", JsonValue::Uint(r.probes))
        .set("abstentions", JsonValue::Uint(r.abstentions as u64))
        .set("mean_confidence", JsonValue::Float(r.mean_confidence));
    rec
}

/// Per-trial machine counters, read before and after each trial.
/// The first `RESTORED` are part of the checkpointed state (a rewind
/// puts them back), so their trial delta starts after the rewind; the
/// rest persist across rewinds, so theirs includes the rewind itself.
const TRIAL_COUNTERS: [&str; 17] = [
    "inst_retired",
    "cycles",
    "icache_miss",
    "dcache_miss",
    "resteer_frontend",
    "branch_mispredict",
    "tlb_hits",
    "tlb_misses",
    "decode_cache_hits",
    "decode_cache_misses",
    "trace_hits",
    "trace_bailouts",
    "trace_invalidations",
    "cow_faults",
    "rewind_frames",
    "frame_pool_reuses",
    "probe_rearms",
];
const RESTORED: usize = 10;

fn machine_counters(m: &Machine) -> [u64; 17] {
    let pmu = m.pmu();
    let (decode_hits, decode_misses) = m.decode_cache_stats();
    let (trace_hits, trace_bailouts, trace_invalidations) = m.trace_stats();
    let phys = m.phys();
    [
        pmu.read(Event::InstRetired),
        m.cycles(),
        pmu.read(Event::IcacheMiss),
        pmu.read(Event::DcacheMiss),
        pmu.read(Event::ResteerFrontend),
        pmu.read(Event::BranchMispredict),
        m.tlb().hits(),
        m.tlb().misses(),
        decode_hits,
        decode_misses,
        trace_hits,
        trace_bailouts,
        trace_invalidations,
        phys.cow_faults(),
        phys.restore_frames_copied(),
        phys.frame_pool_reuses(),
        m.probe_rearms(),
    ]
}

/// The fetch/execute channel scenario, re-driven through public calls
/// with a span around each.
struct ChannelMirror {
    profile: UarchProfile,
    execute: bool,
    bits: usize,
    seed: u64,
    noise_proto: NoiseModel,
    decoder: DecoderConfig,
    /// Spans recorded once per job or per worker: boot, arena install,
    /// checkpoint, fork, and the teardown of every state.
    spans: Arc<Mutex<Ledger>>,
    /// When each worker's fork started, indexed by worker id.
    fork_starts: Mutex<Vec<Instant>>,
}

#[derive(Clone)]
struct MirrorState {
    sys: System,
    cfg: PrimitiveConfig,
    snap: Checkpoint,
    t1: VirtAddr,
    t0: VirtAddr,
    victim: VirtAddr,
    gadget: VirtAddr,
    worker: usize,
}

/// A mirror state whose drop is timed as a `pipeline.teardown` span:
/// the runner frees the checkpoint and every fork after the last trial,
/// and freeing a booted machine is real work.
#[derive(Clone)]
struct Timed {
    state: Option<MirrorState>,
    spans: Arc<Mutex<Ledger>>,
}

impl Drop for Timed {
    fn drop(&mut self) {
        let start = Instant::now();
        drop(self.state.take());
        let ns = nanos(start.elapsed());
        if let Ok(mut spans) = self.spans.lock() {
            spans.span("pipeline.teardown", ns);
        }
    }
}

struct BitSample {
    correct: bool,
    abstained: bool,
    probes: u32,
    confidence: f64,
    worker: usize,
    end: Instant,
    trial_ns: u64,
    rewind_ns: u64,
    decode_ns: u64,
    probe_ns: u64,
    counters: [u64; 17],
}

struct MirrorOutput {
    metrics: JobMetrics,
    ledger: Ledger,
    /// From the first fork to the last trial's end.
    pool_ns: u64,
    /// Summed lifetimes of the workers, fork to last trial.
    worker_ns: u64,
}

impl ChannelMirror {
    fn new(job: &Job, bits: usize, seed: u64, noise: NoiseModel) -> ChannelMirror {
        ChannelMirror {
            profile: job.profile.clone(),
            execute: job.scenario == CampaignScenario::Execute,
            bits,
            seed,
            noise_proto: noise,
            decoder: DecoderConfig::default(),
            spans: Arc::default(),
            fork_starts: Mutex::new(Vec::new()),
        }
    }

    fn uarch_salt(&self) -> u64 {
        self.profile.name.bytes().map(u64::from).sum::<u64>()
    }
}

impl Scenario for ChannelMirror {
    type State = Timed;
    type Checkpoint = Timed;
    type Sample = BitSample;
    type Output = MirrorOutput;

    fn trials(&self) -> usize {
        self.bits
    }

    fn setup(&self) -> Result<Timed, ScenarioError> {
        let mut ledger = Ledger::default();
        let boot_salt = if self.execute { 0xe8ec } else { 0xc0de };
        let mut sys = ledger
            .time("kernel.boot", || {
                System::new_cached(self.profile.clone(), PHYS_BYTES, self.seed ^ boot_salt)
            })
            .map_err(|e| e.to_string())?;
        let attacker = VirtAddr::new(0x5000_0000);
        let (arena_base, level) = if self.execute {
            (attacker + 0x20_0000, ProbeLevel::L1D)
        } else {
            (attacker, ProbeLevel::L1I)
        };
        let arena = ledger
            .time("sidechannel.arena_install", || {
                ProbeArena::install(sys.machine_mut(), arena_base, level)
            })
            .map_err(|e| e.to_string())?;
        let cfg = PrimitiveConfig::for_system(&sys, attacker).with_arena(arena);
        let (t1, t0, victim, gadget) = if self.execute {
            let t1 = sys.layout().physmap_base() + 0x10_0000 + 29 * 64;
            let t0 = VirtAddr::new(t1.raw() ^ 0x2_0000_0000);
            (
                t1,
                t0,
                sys.image().listing2_call,
                sys.image().listing3_gadget,
            )
        } else {
            let t1 = sys.image().base + 0x2000 + 43 * 64;
            let t0 = VirtAddr::new(t1.raw() ^ 0x2000_0000);
            (t1, t0, sys.image().listing1_nop, VirtAddr::new(0))
        };
        let snap = ledger.time("pipeline.checkpoint", || sys.machine_mut().checkpoint());
        self.spans.lock().expect("span lock").merge(&ledger);
        Ok(Timed {
            state: Some(MirrorState {
                sys,
                cfg,
                snap,
                t1,
                t0,
                victim,
                gadget,
                worker: 0,
            }),
            spans: Arc::clone(&self.spans),
        })
    }

    fn checkpoint(&self, state: Timed) -> Result<Timed, ScenarioError> {
        Ok(state)
    }

    fn fork(&self, checkpoint: &Timed) -> Result<Timed, ScenarioError> {
        let start = Instant::now();
        let mut fork = checkpoint.clone();
        let ns = nanos(start.elapsed());
        let mut starts = self.fork_starts.lock().expect("fork log lock");
        if let Some(state) = fork.state.as_mut() {
            state.worker = starts.len();
        }
        starts.push(start);
        self.spans
            .lock()
            .expect("span lock")
            .span("pipeline.fork", ns);
        Ok(fork)
    }

    fn probe(&self, st: &mut Timed, trial: Trial) -> Result<BitSample, ScenarioError> {
        let st = st.state.as_mut().ok_or("mirror state already dropped")?;
        let start = Instant::now();
        let before = machine_counters(st.sys.machine());
        st.snap.rewind(st.sys.machine_mut());
        let rewind_ns = nanos(start.elapsed());
        let rewound = machine_counters(st.sys.machine());
        let mut rng = StdRng::seed_from_u64(trial.seed);
        let bit = rng.gen_bool(0.5);
        let target = if bit { st.t1 } else { st.t0 };
        let mut noise = self.noise_proto.reseeded(trial.seed ^ self.uarch_salt());
        let mut probe_ns = 0;
        let sys = &mut st.sys;
        let decode_start = Instant::now();
        let outcome = decode_adaptive(&self.decoder, |_| {
            let t = Instant::now();
            let reading = if self.execute {
                p2_probe_scored(sys, &st.cfg, st.victim, st.gadget, target, &mut noise)
            } else {
                p1_probe_scored(sys, &st.cfg, st.victim, target, &mut noise)
            };
            probe_ns += nanos(t.elapsed());
            let reading = reading?;
            Ok::<_, ScenarioError>((reading.hit, reading.confidence))
        })?;
        let decode_ns = nanos(decode_start.elapsed()).saturating_sub(probe_ns);
        let after = machine_counters(st.sys.machine());
        let mut counters = [0; 17];
        for (i, c) in counters.iter_mut().enumerate() {
            let from = if i < RESTORED { rewound[i] } else { before[i] };
            *c = after[i].saturating_sub(from);
        }
        let (correct, abstained) = match outcome.decoded {
            Decoded::Bit(b) => (b == bit, false),
            Decoded::Abstain => (false, true),
        };
        let end = Instant::now();
        Ok(BitSample {
            correct,
            abstained,
            probes: outcome.probes,
            confidence: outcome.confidence.value(),
            worker: st.worker,
            end,
            trial_ns: nanos(end - start),
            rewind_ns,
            decode_ns,
            probe_ns,
            counters,
        })
    }

    fn score(&self, samples: Vec<BitSample>) -> MirrorOutput {
        let bits = samples.len();
        let correct = samples.iter().filter(|s| s.correct).count();
        let probes: u64 = samples.iter().map(|s| u64::from(s.probes)).sum();
        let abstentions = samples.iter().filter(|s| s.abstained).count();
        let mean_confidence =
            samples.iter().map(|s| s.confidence).sum::<f64>() / bits.max(1) as f64;

        let starts = std::mem::take(&mut *self.fork_starts.lock().expect("fork log lock"));
        let mut last_end: Vec<Instant> = starts.clone();
        let mut counters = [0u64; 17];
        let (mut rewind_ns, mut decode_ns, mut probe_ns, mut trial_ns) = (0, 0, 0, 0);
        for s in &samples {
            rewind_ns += s.rewind_ns;
            decode_ns += s.decode_ns;
            probe_ns += s.probe_ns;
            trial_ns += s.trial_ns;
            for (total, n) in counters.iter_mut().zip(s.counters) {
                *total += n;
            }
            last_end[s.worker] = last_end[s.worker].max(s.end);
        }
        let mut ledger = Ledger::default();
        ledger.add("pipeline.rewind", rewind_ns, bits as u64);
        ledger.add("core.decode", decode_ns, bits as u64);
        ledger.add("core.probe", probe_ns, probes);
        ledger.count("trials", bits as u64);
        ledger.count("trial_ns", trial_ns);
        for (name, n) in TRIAL_COUNTERS.iter().zip(counters) {
            ledger.count(name, n);
        }
        let worker_ns = starts
            .iter()
            .zip(&last_end)
            .map(|(&s, &e)| nanos(e - s))
            .sum();
        let pool_ns = match (starts.iter().min(), last_end.iter().max()) {
            (Some(&first), Some(&last)) => nanos(last - first),
            _ => 0,
        };
        let seconds = self.profile.cycles_to_seconds(counters[1]);
        MirrorOutput {
            metrics: JobMetrics {
                accuracy: correct as f64 / bits.max(1) as f64,
                seconds,
                bits_per_sec: bits as f64 / seconds,
                probes,
                abstentions,
                mean_confidence,
            },
            ledger,
            pool_ns,
            worker_ns,
        }
    }
}
