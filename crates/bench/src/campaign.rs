//! Fleet-scale covert-channel campaigns: a deterministic job grid,
//! streamed JSONL results, and byte-exact resume.
//!
//! A *campaign* is a batch of (uarch × scenario × noise-point) jobs.
//! Each job is one covert-channel transfer: the receiver system boots
//! once, the [`TrialRunner`] forks the post-boot checkpoint for every
//! bit, and the decoded result is emitted as a single-line
//! `phantom-bench/v1` JSONL record the moment the job completes.
//!
//! Determinism contract: the job list is a pure function of
//! [`CampaignConfig`], each job's seed is a pure function of the
//! campaign seed and the job index, and records carry **no wall-clock
//! data**. The output file is therefore byte-identical across runs,
//! worker counts, and interrupt/resume cycles — which is what makes
//! `--resume` a simple longest-valid-prefix check (see
//! [`resume_prefix`]) instead of a merge problem.

use std::io::Write;

use phantom::attacks::{pht_channel_decoded_on, PhtChannelConfig};
use phantom::covert::{execute_channel_decoded_on, fetch_channel_decoded_on, CovertConfig};
use phantom::decode::DecoderConfig;
use phantom::report::json::SCHEMA;
use phantom::report::value::{parse, JsonValue};
use phantom::runner::{trial_seed, TrialRunner};
use phantom::{UarchProfile, UarchRegistry};
use phantom_sidechannel::NoiseModel;

use crate::RunnerError;

/// Which covert channel a job drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignScenario {
    /// P1 fetch channel (all Zen parts).
    Fetch,
    /// P2 execute channel (live on Zen 1/2, dead elsewhere — dead rows
    /// are data too).
    Execute,
    /// PHT channel: BranchSpectre-style recovery through the
    /// conditional-branch predictor (no cache probe).
    Pht,
}

impl CampaignScenario {
    /// Stable identifier used in job ids and JSONL records.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignScenario::Fetch => "fetch",
            CampaignScenario::Execute => "execute",
            CampaignScenario::Pht => "pht",
        }
    }
}

/// One point on a noise axis. The axis names match the
/// [`NoiseModel`] calibration knobs; `quiet` is the all-zero origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisePoint {
    /// `quiet`, `jitter_cycles`, `spurious_evict`, or `missed_signal`.
    pub axis: &'static str,
    /// Knob value (cycles for jitter, probability otherwise; ignored
    /// for `quiet`).
    pub value: f64,
}

impl NoisePoint {
    /// Stable identifier used in job ids (`axis=value`).
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}={}", self.axis, self.value)
    }

    /// Build the noise model for this point: quiet calibration with a
    /// single knob raised. Unknown axes fall back to quiet so a
    /// hand-edited grid degrades loudly in the data, not as a panic.
    #[must_use]
    pub fn model(&self, seed: u64) -> NoiseModel {
        let mut noise = NoiseModel::quiet(seed);
        match self.axis {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            "jitter_cycles" => noise.jitter_cycles = self.value as u64,
            "spurious_evict" => noise.spurious_evict = self.value,
            "missed_signal" => noise.missed_signal = self.value,
            _ => {}
        }
        noise
    }
}

/// The default noise axis sample: the quiet origin plus two timing and
/// two classification perturbations, all inside the adaptive decoder's
/// recoverable range.
#[must_use]
pub fn default_noise_points() -> Vec<NoisePoint> {
    vec![
        NoisePoint {
            axis: "quiet",
            value: 0.0,
        },
        NoisePoint {
            axis: "jitter_cycles",
            value: 2.0,
        },
        NoisePoint {
            axis: "jitter_cycles",
            value: 6.0,
        },
        NoisePoint {
            axis: "spurious_evict",
            value: 0.04,
        },
        NoisePoint {
            axis: "missed_signal",
            value: 0.04,
        },
    ]
}

/// A full campaign: the cartesian grid of uarches × scenarios × noise
/// points, each transferring `bits` bits.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// (registry key, profile) pairs, in emission order.
    pub uarches: Vec<(String, UarchProfile)>,
    /// Channel kinds to drive.
    pub scenarios: Vec<CampaignScenario>,
    /// Noise points to sweep.
    pub noise: Vec<NoisePoint>,
    /// Bits per transfer (= trials per job).
    pub bits: usize,
    /// Campaign base seed; job seeds derive from it by index.
    pub seed: u64,
}

impl CampaignConfig {
    /// The default grid: all four Zen parts × both channels × the
    /// default five noise points × 256 bits = 40 jobs, 10240 trials.
    #[must_use]
    pub fn default_grid(registry: &UarchRegistry) -> CampaignConfig {
        let uarches = ["zen1", "zen2", "zen3", "zen4"]
            .iter()
            .filter_map(|key| {
                registry
                    .get(key)
                    .map(|spec| ((*key).to_string(), spec.profile()))
            })
            .collect();
        CampaignConfig {
            uarches,
            scenarios: vec![
                CampaignScenario::Fetch,
                CampaignScenario::Execute,
                CampaignScenario::Pht,
            ],
            noise: default_noise_points(),
            bits: 256,
            seed: 0,
        }
    }

    /// Total trial count across the grid.
    #[must_use]
    pub fn total_trials(&self) -> usize {
        self.uarches.len() * self.scenarios.len() * self.noise.len() * self.bits
    }
}

/// One unit of campaign work. `index` is the job's position in the
/// canonical emission order; `id` is its stable human-readable name.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in the canonical job sequence (drives the seed).
    pub index: usize,
    /// `"{uarch}/{scenario}/{axis}={value}"`.
    pub id: String,
    /// Registry key of the target uarch.
    pub uarch_key: String,
    /// Resolved profile.
    pub profile: UarchProfile,
    /// Channel kind.
    pub scenario: CampaignScenario,
    /// Noise point.
    pub noise: NoisePoint,
}

/// Expand a config into its canonical job sequence: uarch-major,
/// scenario, then noise point — matching the order records must appear
/// in the JSONL stream.
#[must_use]
pub fn jobs(cfg: &CampaignConfig) -> Vec<Job> {
    let mut out = Vec::with_capacity(cfg.uarches.len() * cfg.scenarios.len() * cfg.noise.len());
    for (uarch_key, profile) in &cfg.uarches {
        for &scenario in &cfg.scenarios {
            for &noise in &cfg.noise {
                let index = out.len();
                out.push(Job {
                    index,
                    id: format!("{uarch_key}/{}/{}", scenario.as_str(), noise.id()),
                    uarch_key: uarch_key.clone(),
                    profile: profile.clone(),
                    scenario,
                    noise,
                });
            }
        }
    }
    out
}

/// Run one job: boot the receiver once, fork the checkpoint per bit,
/// decode, and render the result as a single JSONL record. The record
/// deliberately excludes host wall-clock — `seconds` below is the
/// *simulated* transfer time, a pure function of the inputs.
///
/// # Errors
///
/// Returns [`RunnerError`] on setup or syscall failure inside the
/// channel.
pub fn run_job(
    runner: &TrialRunner,
    cfg: &CampaignConfig,
    job: &Job,
) -> Result<JsonValue, RunnerError> {
    let seed = trial_seed(cfg.seed, job.index);
    let covert = CovertConfig {
        bits: cfg.bits,
        seed,
    };
    let noise = job.noise.model(seed);
    let result = match job.scenario {
        CampaignScenario::Fetch => JobMetrics::from_covert(&fetch_channel_decoded_on(
            runner,
            job.profile.clone(),
            covert,
            noise,
            DecoderConfig::default(),
        )?),
        CampaignScenario::Execute => JobMetrics::from_covert(&execute_channel_decoded_on(
            runner,
            job.profile.clone(),
            covert,
            noise,
            DecoderConfig::default(),
        )?),
        CampaignScenario::Pht => JobMetrics::from_pht(&pht_channel_decoded_on(
            runner,
            job.profile.clone(),
            PhtChannelConfig {
                bits: cfg.bits,
                seed,
            },
            noise,
            DecoderConfig::default(),
        )?),
    };
    Ok(job_record(cfg, job, seed, &result))
}

/// The metric fields every campaign scenario reports, regardless of
/// which channel produced them. Both covert-channel and PHT-channel
/// results carry this exact set, so the JSONL record shape stays
/// uniform across the grid.
struct JobMetrics {
    accuracy: f64,
    seconds: f64,
    bits_per_sec: f64,
    probes: u64,
    abstentions: usize,
    mean_confidence: f64,
}

impl JobMetrics {
    fn from_covert(r: &phantom::covert::CovertResult) -> JobMetrics {
        JobMetrics {
            accuracy: r.accuracy,
            seconds: r.seconds,
            bits_per_sec: r.bits_per_sec,
            probes: r.probes,
            abstentions: r.abstentions,
            mean_confidence: r.mean_confidence,
        }
    }

    fn from_pht(r: &phantom::attacks::PhtChannelResult) -> JobMetrics {
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

/// How far a partial JSONL file got, and the exact bytes of its valid
/// prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumePoint {
    /// Number of leading jobs already completed (index of the first
    /// job still to run).
    pub done: usize,
    /// The validated prefix, byte-exact, ready to re-emit.
    pub prefix: String,
}

/// Find the longest valid prefix of a partial campaign file against the
/// expected job sequence. A line is valid iff it parses as JSON and its
/// `job` field names the next expected job id. The first invalid,
/// out-of-order, or truncated line — and everything after it — is
/// discarded; because the stream is append-only and in canonical
/// order, everything before it is exactly the completed work.
#[must_use]
pub fn resume_prefix(partial: &str, jobs: &[Job]) -> ResumePoint {
    let mut done = 0;
    let mut prefix = String::new();
    for line in partial.split_inclusive('\n') {
        let body = line.strip_suffix('\n');
        let Some(body) = body else {
            break; // final line lacks its newline: interrupted mid-write
        };
        if done >= jobs.len() {
            break;
        }
        let ok = parse(body)
            .ok()
            .and_then(|v| v.get("job").and_then(|j| j.as_str().map(String::from)))
            .is_some_and(|id| id == jobs[done].id);
        if !ok {
            break;
        }
        prefix.push_str(line);
        done += 1;
    }
    ResumePoint { done, prefix }
}

/// Run a campaign, streaming one record per line to `out` as each job
/// completes. The first `skip` jobs are assumed already present in the
/// output (resume); `progress` is called after every job with
/// (finished-count, total, job-id).
///
/// # Errors
///
/// Returns [`RunnerError`] if a job or a write fails. The stream is
/// flushed after every record, so an interrupted campaign leaves at
/// worst one torn final line — which [`resume_prefix`] drops.
pub fn run_campaign(
    runner: &TrialRunner,
    cfg: &CampaignConfig,
    skip: usize,
    out: &mut dyn Write,
    progress: &mut dyn FnMut(usize, usize, &str),
) -> Result<(), RunnerError> {
    let jobs = jobs(cfg);
    for job in jobs.iter().skip(skip) {
        let record = run_job(runner, cfg, job)?;
        out.write_all(record.to_compact_string().as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
        progress(job.index + 1, jobs.len(), &job.id);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> CampaignConfig {
        let registry = UarchRegistry::with_builtins();
        let mut cfg = CampaignConfig::default_grid(&registry);
        cfg.uarches.truncate(2);
        cfg.scenarios = vec![CampaignScenario::Fetch];
        cfg.noise.truncate(2);
        cfg.bits = 16;
        cfg
    }

    #[test]
    fn default_grid_hits_the_issue_floor() {
        let registry = UarchRegistry::with_builtins();
        let cfg = CampaignConfig::default_grid(&registry);
        assert_eq!(cfg.uarches.len(), 4);
        assert_eq!(jobs(&cfg).len(), 60);
        assert!(cfg.total_trials() >= 10_000, "{}", cfg.total_trials());
    }

    #[test]
    fn job_ids_are_stable_and_in_canonical_order() {
        let cfg = tiny_grid();
        let js = jobs(&cfg);
        assert_eq!(js.len(), 4);
        assert_eq!(js[0].id, "zen1/fetch/quiet=0");
        assert_eq!(js[1].id, "zen1/fetch/jitter_cycles=2");
        assert_eq!(js[2].id, "zen2/fetch/quiet=0");
        for (i, j) in js.iter().enumerate() {
            assert_eq!(j.index, i);
        }
    }

    #[test]
    fn campaign_streams_one_valid_record_per_job() {
        let cfg = tiny_grid();
        let runner = TrialRunner::new();
        let mut buf = Vec::new();
        run_campaign(&runner, &cfg, 0, &mut buf, &mut |_, _, _| {}).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for (line, job) in lines.iter().zip(jobs(&cfg)) {
            let v = parse(line).unwrap();
            assert_eq!(v.get("schema").unwrap().as_str().unwrap(), SCHEMA);
            assert_eq!(v.get("job").unwrap().as_str().unwrap(), job.id);
            assert!(v.get("accuracy").unwrap().as_f64().unwrap() > 0.9);
        }
    }

    #[test]
    fn resume_prefix_drops_torn_and_foreign_tails() {
        let cfg = tiny_grid();
        let js = jobs(&cfg);
        let runner = TrialRunner::new();
        let mut buf = Vec::new();
        run_campaign(&runner, &cfg, 0, &mut buf, &mut |_, _, _| {}).unwrap();
        let full = String::from_utf8(buf).unwrap();

        // Empty file: nothing done.
        assert_eq!(resume_prefix("", &js).done, 0);

        // Truncated mid-record: the torn line is dropped.
        let cut = full.len() * 5 / 8;
        let partial = &full[..cut];
        let rp = resume_prefix(partial, &js);
        assert!(rp.done < js.len());
        assert!(partial.starts_with(&rp.prefix));
        assert!(rp.prefix.ends_with('\n') || rp.prefix.is_empty());

        // A line whose job id is out of order stops the prefix.
        let mut lines: Vec<&str> = full.lines().collect();
        lines.swap(1, 2);
        let shuffled = lines.join("\n") + "\n";
        assert_eq!(resume_prefix(&shuffled, &js).done, 1);

        // Garbage stops the prefix.
        let garbled = format!("{}not json\n", rp.prefix);
        assert_eq!(resume_prefix(&garbled, &js).done, rp.done);

        // The full file resumes to completion.
        let rp = resume_prefix(&full, &js);
        assert_eq!(rp.done, js.len());
        assert_eq!(rp.prefix, full);
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_file_byte_for_byte() {
        let cfg = tiny_grid();
        let js = jobs(&cfg);
        let runner = TrialRunner::new();
        let mut buf = Vec::new();
        run_campaign(&runner, &cfg, 0, &mut buf, &mut |_, _, _| {}).unwrap();
        let full = String::from_utf8(buf).unwrap();

        let cut = full.len() / 2;
        let rp = resume_prefix(&full[..cut], &js);
        let mut resumed = rp.prefix.clone().into_bytes();
        run_campaign(&runner, &cfg, rp.done, &mut resumed, &mut |_, _, _| {}).unwrap();
        assert_eq!(String::from_utf8(resumed).unwrap(), full);
    }

    fn campaign_bytes(cfg: &CampaignConfig, threads: usize) -> String {
        let runner = TrialRunner::with_threads(threads);
        let mut buf = Vec::new();
        run_campaign(&runner, cfg, 0, &mut buf, &mut |_, _, _| {}).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn campaign_jsonl_is_byte_identical_across_worker_counts() {
        let cfg = tiny_grid();
        assert_eq!(
            campaign_bytes(&cfg, 1),
            campaign_bytes(&cfg, 8),
            "campaign records must not depend on the worker count"
        );
    }
}
