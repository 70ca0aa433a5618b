//! The trial runner: every repeated measurement in this crate — the
//! Table 1 sweep, the Table 2 covert channels, the Table 3–5 reboot
//! sweeps, the §7.4 leak, the mitigation-overhead suite — is expressed
//! as a [`Scenario`] and driven by a [`TrialRunner`].
//!
//! # The scenario contract
//!
//! A scenario splits an experiment into five phases:
//!
//! 1. [`setup`](Scenario::setup) — build the world (a machine or a
//!    booted [`System`](phantom_kernel::System), channels, geography)
//!    in its measured configuration. Called **once per run**, never
//!    per shard;
//! 2. [`checkpoint`](Scenario::checkpoint) — seal the set-up world
//!    into an immutable, thread-shareable fork point;
//! 3. [`fork`](Scenario::fork) — stamp out one worker's private copy
//!    of the checkpointed world. Must reproduce the post-setup state
//!    exactly;
//! 4. [`probe`](Scenario::probe) — one independent trial, producing a
//!    [`Scenario::Sample`];
//! 5. [`score`](Scenario::score) — fold all samples, **in trial
//!    order**, into the experiment's output.
//!
//! Worlds backed by a [`Machine`](phantom_pipeline::Machine) get the
//! fork for free: seal the set-up world by move
//! ([`Machine::into_checkpoint`](phantom_pipeline::Machine::into_checkpoint),
//! [`System::into_checkpoint`](phantom_kernel::System::into_checkpoint))
//! and fork it per worker, so a fork is one machine clone — its
//! physical frames shared copy-on-write, one pointer bump per 64-frame
//! chunk, and its cache, µop-cache and CBP sets shared the same way,
//! one pointer bump per 16-set chunk — instead of a reboot. Worlds
//! built once per key and never written by a trial (the PHT lane's
//! calibrated template, which holds numbers rather than a machine) use
//! the shared template itself as state and checkpoint, so `fork` is an
//! `Arc` clone.
//!
//! Sweeps that boot a fresh world inside every trial share no world at
//! all, so they are not scenarios: they pass a closure over the
//! [`Trial`] to [`TrialRunner::map`] and fold the samples they get back
//! (their boots are boot-template instances,
//! [`System::new_cached`](phantom_kernel::System::new_cached)).
//!
//! # Determinism across worker counts
//!
//! The runner distributes trials over a work-stealing pool of worker
//! threads, so results must not depend on which worker measures which
//! trial, nor on completion order. Three rules make that hold:
//!
//! * `setup` runs once and must be deterministic;
//! * every [`fork`](Scenario::fork) must be observationally identical
//!   to the post-setup state (a copy-on-write clone trivially is);
//! * `probe` must be a pure function of the forked state and the
//!   [`Trial`] (its per-trial seed is derived from the base seed and
//!   the trial index only). Scenarios whose probes mutate the world
//!   rewind it first with
//!   [`Machine::restore`](phantom_pipeline::Machine::restore) /
//!   [`Checkpoint::rewind`](phantom_pipeline::Checkpoint::rewind) or
//!   rebuild it from `trial.seed`.
//!
//! Samples are folded in trial-index order regardless of which worker
//! produced them, so a 1-worker run and an N-worker run — even with
//! adversarially skewed completion order — produce byte-identical
//! outputs (`tests/determinism.rs` enforces this for the shipped
//! scenarios and for [`TrialRunner::map`]).

use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A boxed, thread-portable error from scenario execution.
pub type ScenarioError = Box<dyn std::error::Error + Send + Sync>;

/// One independent repetition of a scenario's measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Trial number, `0..Scenario::trials()`.
    pub index: usize,
    /// Per-trial seed, a pure function of the runner's base seed and
    /// `index` (never of the worker count or claim order).
    pub seed: u64,
}

/// An experiment expressed as independent, repeatable trials.
pub trait Scenario: Sync {
    /// Per-worker world state, built by [`setup`](Scenario::setup) and
    /// stamped out per worker by [`fork`](Scenario::fork).
    type State: Send;
    /// The immutable fork point produced by
    /// [`checkpoint`](Scenario::checkpoint): shared by reference
    /// across worker threads, hence `Sync`.
    type Checkpoint: Sync;
    /// The result of one trial.
    type Sample: Send;
    /// The scored output of the whole run.
    type Output;

    /// Number of trials to run.
    fn trials(&self) -> usize;

    /// Build the world in its measured configuration. Called once per
    /// run; must be deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the world cannot be built.
    fn setup(&self) -> Result<Self::State, ScenarioError>;

    /// Seal the set-up world into the shared fork point.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the world cannot be sealed.
    fn checkpoint(&self, state: Self::State) -> Result<Self::Checkpoint, ScenarioError>;

    /// Stamp out one worker's private state from the checkpoint. Must
    /// be observationally identical to the post-setup state — the
    /// determinism contract above rests on it.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the fork cannot be built.
    fn fork(&self, checkpoint: &Self::Checkpoint) -> Result<Self::State, ScenarioError>;

    /// Run one trial. Must depend only on the forked state and `trial`
    /// (see the module docs on determinism).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] on measurement failure.
    fn probe(&self, state: &mut Self::State, trial: Trial) -> Result<Self::Sample, ScenarioError>;

    /// Fold the samples (in trial order) into the final output.
    fn score(&self, samples: Vec<Self::Sample>) -> Self::Output;
}

/// Runs a [`Scenario`]'s trials on a work-stealing worker pool.
///
/// `setup → checkpoint` run once; each worker forks a private
/// state from the checkpoint and claims trials one at a time from a
/// shared cursor, so a straggling trial never idles the other workers
/// behind a shard boundary. Samples are folded in trial-index order,
/// which keeps outputs byte-identical at any worker count.
///
/// Cloning a runner shares its [`trial_retries`](TrialRunner::trial_retries)
/// counter (the clone observes the same tally).
#[derive(Debug, Clone)]
pub struct TrialRunner {
    threads: usize,
    retries: Arc<AtomicU64>,
}

impl TrialRunner {
    /// A runner using all available cores. Binaries, examples and tests
    /// choose it; library code runs on the runner its caller passes.
    // No `Default`: a defaulted runner is a worker count nobody chose.
    #[allow(clippy::new_without_default)]
    pub fn new() -> TrialRunner {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        TrialRunner::with_threads(threads)
    }

    /// A runner with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> TrialRunner {
        TrialRunner {
            threads: threads.max(1),
            retries: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total bounded probe retries across this runner's lifetime: how
    /// many times a trial failed recoverably and was re-run on a fresh
    /// fork. Zero in a healthy run — the bench snapshot surfaces it so
    /// a scenario that silently leans on the retry path shows up in
    /// the regression gate.
    pub fn trial_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Run all trials of `scenario` and score them.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] from setup, checkpointing,
    /// forking or any probe (for probe errors, "first"
    /// means the lowest-index trial among the errors observed before
    /// the run aborted).
    pub fn run<S: Scenario>(
        &self,
        scenario: &S,
        base_seed: u64,
    ) -> Result<S::Output, ScenarioError> {
        let n = scenario.trials();
        let checkpoint = scenario.checkpoint(scenario.setup()?)?;
        let workers = self.threads.min(n.max(1));
        let samples = if workers == 1 {
            let mut state = scenario.fork(&checkpoint)?;
            let mut out = Vec::with_capacity(n);
            for index in 0..n {
                let trial = Trial {
                    index,
                    seed: trial_seed(base_seed, index),
                };
                out.push(self.probe_once(scenario, &checkpoint, &mut state, trial)?);
            }
            out
        } else {
            self.run_pool(scenario, &checkpoint, base_seed, n, workers)?
        };
        Ok(scenario.score(samples))
    }

    /// Run `probe` on trials `0..trials` and return the samples in
    /// trial order: the runner for sweeps whose trials share no world
    /// (each boots its own machine or system). The pool, the per-trial
    /// seeds, the one bounded retry and the
    /// [`trial_retries`](TrialRunner::trial_retries) tally are
    /// [`run`](TrialRunner::run)'s.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index probe error observed before the run
    /// aborted, as [`run`](TrialRunner::run) does.
    pub fn map<T: Send>(
        &self,
        trials: usize,
        base_seed: u64,
        probe: impl Fn(Trial) -> Result<T, ScenarioError> + Sync,
    ) -> Result<Vec<T>, ScenarioError> {
        self.run(
            &Stateless {
                trials,
                probe,
                sample: PhantomData,
            },
            base_seed,
        )
    }

    /// The work-stealing pool: `workers` threads race on an atomic
    /// trial cursor. Each claims the next unclaimed index, so skewed
    /// per-trial costs self-balance; the (index, sample) pairs are
    /// reassembled in index order afterwards.
    fn run_pool<S: Scenario>(
        &self,
        scenario: &S,
        checkpoint: &S::Checkpoint,
        base_seed: u64,
        n: usize,
        workers: usize,
    ) -> Result<Vec<S::Sample>, ScenarioError> {
        /// A worker's claimed-and-measured trials, or the trial index
        /// it died on (fork failures use `usize::MAX` so any real
        /// trial's error outranks them).
        type WorkerResult<T> = Result<Vec<(usize, T)>, (usize, ScenarioError)>;

        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let results: Vec<WorkerResult<S::Sample>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = match scenario.fork(checkpoint) {
                            Ok(state) => state,
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                return Err((usize::MAX, e));
                            }
                        };
                        let mut claimed: Vec<(usize, S::Sample)> = Vec::new();
                        while !abort.load(Ordering::Relaxed) {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            if index >= n {
                                break;
                            }
                            let trial = Trial {
                                index,
                                seed: trial_seed(base_seed, index),
                            };
                            match self.probe_once(scenario, checkpoint, &mut state, trial) {
                                Ok(sample) => claimed.push((index, sample)),
                                Err(e) => {
                                    abort.store(true, Ordering::Relaxed);
                                    return Err((index, e));
                                }
                            }
                        }
                        Ok(claimed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });

        let mut slots: Vec<Option<S::Sample>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut first_error: Option<(usize, ScenarioError)> = None;
        for result in results {
            match result {
                Ok(claimed) => {
                    for (index, sample) in claimed {
                        slots[index] = Some(sample);
                    }
                }
                Err((index, e)) => {
                    if first_error.as_ref().is_none_or(|(at, _)| index < *at) {
                        first_error = Some((index, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_error {
            return Err(e);
        }
        // Every index below `n` was claimed exactly once, and a worker
        // returns only after sampling each trial it claimed or with the
        // error that aborted the run.
        #[allow(clippy::expect_used)]
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every claimed trial produced a sample"))
            .collect())
    }

    /// One trial with the bounded retry: a probe can fail recoverably
    /// (e.g. an eviction-set page unmapped mid-measurement surfaces as
    /// a `ProbeError`), so re-fork a fresh world from the checkpoint
    /// once and retry the same trial. Determinism holds because a
    /// fresh fork is exactly the post-setup state the probe contract
    /// requires. A second failure is treated as systematic and
    /// propagated. Every retry is tallied in
    /// [`trial_retries`](TrialRunner::trial_retries).
    fn probe_once<S: Scenario>(
        &self,
        scenario: &S,
        checkpoint: &S::Checkpoint,
        state: &mut S::State,
        trial: Trial,
    ) -> Result<S::Sample, ScenarioError> {
        match scenario.probe(state, trial) {
            Ok(sample) => Ok(sample),
            Err(_first) => {
                self.retries.fetch_add(1, Ordering::Relaxed);
                *state = scenario.fork(checkpoint)?;
                scenario.probe(state, trial)
            }
        }
    }
}

/// [`TrialRunner::map`]'s scenario: no world to set up, seal or fork,
/// and the samples unchanged as the output.
struct Stateless<F, T> {
    trials: usize,
    probe: F,
    sample: PhantomData<fn() -> T>,
}

impl<F, T> Scenario for Stateless<F, T>
where
    F: Fn(Trial) -> Result<T, ScenarioError> + Sync,
    T: Send,
{
    type State = ();
    type Checkpoint = ();
    type Sample = T;
    type Output = Vec<T>;

    fn trials(&self) -> usize {
        self.trials
    }

    fn setup(&self) -> Result<(), ScenarioError> {
        Ok(())
    }

    fn checkpoint(&self, (): ()) -> Result<(), ScenarioError> {
        Ok(())
    }

    fn fork(&self, (): &()) -> Result<(), ScenarioError> {
        Ok(())
    }

    fn probe(&self, (): &mut (), trial: Trial) -> Result<T, ScenarioError> {
        (self.probe)(trial)
    }

    fn score(&self, samples: Vec<T>) -> Vec<T> {
        samples
    }
}

/// Derive the seed for trial `index` from the run's base seed. A pure
/// function of its arguments (SplitMix64 over both), so per-trial
/// randomness never depends on worker count or claim order.
pub fn trial_seed(base_seed: u64, index: usize) -> u64 {
    splitmix64(base_seed ^ splitmix64(0x5851_f42d_4c95_7f2d ^ index as u64))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scenario: each trial hashes its seed; score concatenates.
    struct Hashing {
        n: usize,
    }

    impl Scenario for Hashing {
        type State = u64;
        type Checkpoint = u64;
        type Sample = (usize, u64);
        type Output = Vec<(usize, u64)>;

        fn trials(&self) -> usize {
            self.n
        }

        fn setup(&self) -> Result<u64, ScenarioError> {
            Ok(17)
        }

        fn checkpoint(&self, state: u64) -> Result<u64, ScenarioError> {
            Ok(state)
        }

        fn fork(&self, checkpoint: &u64) -> Result<u64, ScenarioError> {
            Ok(*checkpoint)
        }

        fn probe(&self, state: &mut u64, trial: Trial) -> Result<(usize, u64), ScenarioError> {
            // Worker-local mutation is fine as long as the sample does
            // not depend on it; this checks the runner, not the rules.
            *state = state.wrapping_add(1);
            Ok((trial.index, trial.seed))
        }

        fn score(&self, samples: Vec<(usize, u64)>) -> Vec<(usize, u64)> {
            samples
        }
    }

    #[test]
    fn order_is_preserved_at_any_worker_count() {
        let base = TrialRunner::with_threads(1)
            .run(&Hashing { n: 23 }, 9)
            .unwrap();
        assert_eq!(base.len(), 23);
        for (i, &(index, seed)) in base.iter().enumerate() {
            assert_eq!(index, i);
            assert_eq!(seed, trial_seed(9, i));
        }
        for threads in [2, 3, 7, 64] {
            let pooled = TrialRunner::with_threads(threads)
                .run(&Hashing { n: 23 }, 9)
                .unwrap();
            assert_eq!(pooled, base, "{threads} workers");
        }
    }

    #[test]
    fn trial_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..100).map(|i| trial_seed(42, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "no per-trial seed collisions");
        assert_eq!(trial_seed(42, 7), trial_seed(42, 7));
        assert_ne!(trial_seed(42, 7), trial_seed(43, 7));
    }

    #[test]
    fn probe_errors_propagate() {
        // Trial 2 errors deterministically, so the one bounded retry
        // fails too and the error still reaches the caller.
        let failing = |trial: Trial| -> Result<(), ScenarioError> {
            if trial.index == 2 {
                return Err("trial 2 exploded".into());
            }
            Ok(())
        };
        for threads in [1, 4] {
            let runner = TrialRunner::with_threads(threads);
            let err = runner.map(4, 0, failing).unwrap_err();
            assert!(
                err.to_string().contains("trial 2"),
                "{threads} workers: {err}"
            );
            // Even the failed retry is tallied.
            assert_eq!(runner.trial_retries(), 1, "{threads} workers");
        }
    }

    /// A scenario whose trial 2 fails on the first attempt only —
    /// the shape of a recoverable `ProbeError`.
    struct FlakyOnce {
        attempts: std::sync::atomic::AtomicUsize,
        setups: std::sync::atomic::AtomicUsize,
        forks: std::sync::atomic::AtomicUsize,
    }

    impl FlakyOnce {
        fn new() -> FlakyOnce {
            FlakyOnce {
                attempts: std::sync::atomic::AtomicUsize::new(0),
                setups: std::sync::atomic::AtomicUsize::new(0),
                forks: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl Scenario for FlakyOnce {
        type State = u64;
        type Checkpoint = u64;
        type Sample = usize;
        type Output = Vec<usize>;

        fn trials(&self) -> usize {
            5
        }

        fn setup(&self) -> Result<u64, ScenarioError> {
            self.setups
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(7)
        }

        fn checkpoint(&self, state: u64) -> Result<u64, ScenarioError> {
            Ok(state)
        }

        fn fork(&self, checkpoint: &u64) -> Result<u64, ScenarioError> {
            self.forks.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(*checkpoint)
        }

        fn probe(&self, state: &mut u64, trial: Trial) -> Result<usize, ScenarioError> {
            assert_eq!(*state, 7, "retry re-forked the post-setup state");
            if trial.index == 2
                && self
                    .attempts
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                    == 0
            {
                return Err("eviction set unmapped mid-probe".into());
            }
            Ok(trial.index)
        }

        fn score(&self, samples: Vec<usize>) -> Vec<usize> {
            samples
        }
    }

    #[test]
    fn transient_probe_failure_is_retried_on_a_fresh_fork() {
        for threads in [1, 4] {
            let flaky = FlakyOnce::new();
            let runner = TrialRunner::with_threads(threads);
            let out = runner
                .run(&flaky, 0)
                .unwrap_or_else(|e| panic!("{threads} workers: {e}"));
            assert_eq!(out, vec![0, 1, 2, 3, 4], "{threads} workers");
            assert_eq!(
                flaky.setups.load(std::sync::atomic::Ordering::SeqCst),
                1,
                "{threads} workers: the world boots exactly once"
            );
            let workers = threads.min(5);
            assert_eq!(
                flaky.forks.load(std::sync::atomic::Ordering::SeqCst),
                workers + 1,
                "{threads} workers: one fork per worker plus one retry"
            );
            assert_eq!(runner.trial_retries(), 1, "{threads} workers");

            // The same flake under `map`: no world to re-fork, the same
            // one retry of the same trial.
            let attempts = std::sync::atomic::AtomicUsize::new(0);
            let runner = TrialRunner::with_threads(threads);
            let out = runner
                .map(5, 0, |trial| {
                    if trial.index == 2
                        && attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0
                    {
                        return Err("eviction set unmapped mid-probe".into());
                    }
                    Ok(trial.index)
                })
                .unwrap_or_else(|e| panic!("{threads} workers: {e}"));
            assert_eq!(out, (0..5).collect::<Vec<_>>(), "{threads} workers, map");
            assert_eq!(runner.trial_retries(), 1, "{threads} workers, map");
        }
    }

    #[test]
    fn retry_counter_is_shared_across_clones_and_runs() {
        let runner = TrialRunner::with_threads(2);
        let observer = runner.clone();
        assert_eq!(observer.trial_retries(), 0);
        runner.run(&FlakyOnce::new(), 0).unwrap();
        runner.run(&FlakyOnce::new(), 0).unwrap();
        assert_eq!(runner.trial_retries(), 2, "one retry per flaky run");
        assert_eq!(observer.trial_retries(), 2, "clones share the tally");
    }
}
