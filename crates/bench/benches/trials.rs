//! End-to-end trials/sec for the campaign hot loop. The measured unit
//! is [`campaign::run_job`] — boot, checkpoint, fork, rewind-per-bit,
//! adaptive decode — i.e. exactly what a campaign spends its time on.
//! End-to-end and per-layer numbers come from `perfbench/run.py`
//! (`--trace 1` for the per-layer ledger); see EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use phantom::runner::TrialRunner;
use phantom::UarchRegistry;
use phantom_bench::campaign::{self, CampaignConfig, CampaignScenario};

/// The default campaign grid (all uarches × both channels × all noise
/// points) scaled to criterion-iteration size by lowering bits per job.
fn mix(bits: usize) -> CampaignConfig {
    let registry = UarchRegistry::with_builtins();
    let mut cfg = CampaignConfig::default_grid(&registry);
    cfg.bits = bits;
    cfg
}

/// One representative job per scenario (zen2, quiet noise), 64 bits:
/// per-scenario trials/sec.
fn bench_per_scenario(c: &mut Criterion) {
    let cfg = mix(64);
    let jobs = campaign::jobs(&cfg);
    let mut group = c.benchmark_group("trials/zen2");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cfg.bits as u64));
    for scenario in [CampaignScenario::Fetch, CampaignScenario::Execute] {
        let job = jobs
            .iter()
            .find(|j| j.uarch_key == "zen2" && j.scenario == scenario && j.noise.axis == "quiet")
            .expect("zen2 quiet job exists in the default grid");
        group.bench_function(scenario.as_str(), |b| {
            let runner = TrialRunner::with_threads(1);
            b.iter(|| campaign::run_job(&runner, &cfg, job).expect("job runs"));
        });
    }
    group.finish();
}

/// The whole default mix — every job in the default grid at 8 bits per
/// job — as one iteration.
fn bench_default_mix(c: &mut Criterion) {
    let cfg = mix(8);
    let jobs = campaign::jobs(&cfg);
    let mut group = c.benchmark_group("trials/default_mix");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cfg.total_trials() as u64));
    group.bench_function("all_jobs", |b| {
        let runner = TrialRunner::with_threads(1);
        b.iter(|| {
            for job in &jobs {
                campaign::run_job(&runner, &cfg, job).expect("job runs");
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_per_scenario, bench_default_mix);
criterion_main!(benches);
