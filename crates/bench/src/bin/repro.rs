//! `repro` — regenerate every table and figure of the Phantom paper.
//!
//! ```text
//! repro table1            Table 1  (training x victim x uarch stages)
//! repro figure6           Figure 6 (uop-cache page-offset sweep)
//! repro figure7           Figure 7 (recovered BTB functions)
//! repro table2 [bits]     Table 2  (covert channel accuracy / rate)
//! repro table3 [runs]     Table 3  (kernel image KASLR)
//! repro table4 [runs]     Table 4  (physmap KASLR)
//! repro table5 [runs]     Table 5  (physical address)
//! repro mds [bytes]       §7.4     (MDS-gadget kernel leak)
//! repro o4                O4       (SuppressBPOnNonBr)
//! repro o5                O5       (AutoIBRS)
//! repro software          §8.2     (lfence / RSB stuffing / SLS padding)
//! repro spectre           baseline (conventional Spectre-V2 comparison)
//! repro ablation          design-parameter sweeps (latency / ways / noise)
//! repro noise-sweep [bits] noise-robustness sweep (adaptive channel
//!                         accuracy / probe spend per noise knob)
//! repro pht-channel [bits] BranchSpectre-style secret recovery through
//!                         the conditional predictor's counters
//! repro overhead          §6.3     (mitigation overhead suite)
//! repro gadgets           §9.1     (gadget census)
//! repro list-uarchs       registered microarchitectures
//! repro all               everything above, quick settings
//! ```
//!
//! `--spec <file>` registers user-defined uarch specs next to the
//! builtins (alone, it smoke-sweeps the file's uarches through
//! Figure 6); `--uarch <names>` picks Figure 6's sweep set (default:
//! the paper's zen2,zen4 plot).
//!
//! Environment: `PHANTOM_FULL=1` uses the paper's full protocol sizes
//! (all 488/25 600 slots, 4096 bits/bytes, 10–100 runs) — slow.
//! `PHANTOM_THREADS=n` pins the trial runner's thread count (default:
//! all cores); results are identical at any thread count.
//!
//! Tables render on stdout; per-sweep wall-clock notes go to stderr so
//! piped output stays byte-for-byte reproducible.

use std::path::{Path, PathBuf};

use phantom::ablation::NoiseSweepConfig;
use phantom::gadgets::{census, generate_corpus, CorpusConfig};
use phantom::mitigations::{
    lfence_gadget_protection, o4_suppress_bp_on_non_br, o5_auto_ibrs_fetch,
    rsb_stuffing_protection, sls_padding_protection, suppress_overhead_on,
};
use phantom::report;
use phantom::report::json::{
    diff, diff_noise_sweep, diff_pht_channel, document, BenchSnapshot, Json, NoiseSweepRecord,
    PhtChannelRecord, Regression, Tolerance,
};
use phantom::report::value::JsonValue;
use phantom::runner::TrialRunner;
use phantom::spectre::{spectre_v2_leak, window_comparison};
use phantom::{UarchProfile, UarchRegistry};
use phantom_bench::campaign::{self, CampaignConfig};
use phantom_bench::{
    collect_snapshot, run_figure6_on, run_figure7, run_mds_on, run_noise_sweep_on,
    run_pht_channel_on, run_table1_on, run_table2_on, run_table3_on, run_table4_on, run_table5_on,
    timed, BenchConfig, RunnerError,
};

const USAGE: &str = "\
usage: repro [command] [n] [flags]

  table1            Table 1  (training x victim x uarch stages)
  figure6           Figure 6 (uop-cache page-offset sweep;
                    default uarches zen2,zen4 — override with --uarch)
  figure7           Figure 7 (recovered BTB functions)
  table2 [bits]     Table 2  (covert channel accuracy / rate)
  table3 [runs]     Table 3  (kernel image KASLR)
  table4 [runs]     Table 4  (physmap KASLR)
  table5 [runs]     Table 5  (physical address)
  mds [bytes]       \u{a7}7.4     (MDS-gadget kernel leak)
  o4                O4       (SuppressBPOnNonBr)
  o5                O5       (AutoIBRS)
  software          \u{a7}8.2     (lfence / RSB stuffing / SLS padding)
  spectre           baseline (conventional Spectre-V2 comparison)
  ablation          design-parameter sweeps (latency / ways / noise)
  noise-sweep [bits] noise-robustness sweep (adaptive channel accuracy,
                    probe spend, abstentions per noise knob; --json
                    writes the records, --baseline gates the quiet end)
  pht-channel [bits] PHT channel: BranchSpectre-style secret recovery
                    through the conditional predictor's counters alone
                    (no cache probe), one row per builtin AMD part;
                    --json writes the records, --baseline gates accuracy
  overhead          \u{a7}6.3     (mitigation overhead suite)
  gadgets           \u{a7}9.1     (gadget census)
  serve             campaign service: run the (uarch x scenario x
                    noise-point) job grid — 60 jobs, 15360 trials by
                    default — streaming one JSONL record per job
  discover [budget] adversarial fuzz over the (program x spec) space:
                    seeded victim programs, mutated uarch specs and
                    aliased training sites, checked for decoder-
                    detectable mispredictions reaching stage >= ID,
                    minimized, GF(2)-confirmed, written as JSONL
  list-uarchs       list registered microarchitectures (builtins + --spec)
  bench             run everything, write a machine-readable snapshot
  all               everything above, quick settings (default)

flags:
  --uarch <names>     comma-separated uarch keys or display names
                      (repeatable); filters figure6's sweep and the
                      serve grid
  --spec <file>       register uarch specs from a phantom-uarch-spec v1
                      file (repeatable); files may carry an optional
                      `cbp` block describing the conditional predictor's
                      set-indexed, history-mixed geometry (omitting it
                      keeps the legacy per-PC table); alone, runs
                      figure6 over the file's uarches as a smoke sweep
  --workers <n>       trial-runner thread count for this invocation;
                      takes precedence over PHANTOM_THREADS (the env
                      var is not consulted — or validated — when
                      --workers is given)

flags (serve + discover):
  --out <path>        JSONL output path (default campaign.jsonl for
                      serve, discover.jsonl for discover)
  --seed <n>          base seed (default 0)

flags (discover):
  --corpus <dir>      also write the minimized, oracle-confirmed leaks
                      as phantom-fuzz-case v1 files under <dir>

flags (serve):
  --resume <path>     resume from a partial JSONL file: its longest
                      valid prefix is kept byte-for-byte, the torn or
                      foreign tail is dropped, and the remaining jobs
                      are re-run; the final file is byte-identical to
                      an uninterrupted run
  --bits <n>          bits per transfer, i.e. trials per job (default 256)
  --ab                instead of the grid, run one representative job
                      twice — forking the post-boot checkpoint per
                      trial vs re-booting per trial — and print both
                      wall-clocks

flags (bench; --json also implies bench when given alone):
  --json <path>       snapshot output path (default BENCH_phantom.json)
  --baseline <path>   diff against a committed snapshot; exit 1 on any
                      regression beyond tolerance
  --tolerance <pct>   uniform tolerance: accuracy may drop <pct>
                      percentage points, simulated cycles may grow
                      <pct> percent (default: 1pp accuracy, 5% cycles)
  --host-meta         include host-volatile metadata (threads, wall
                      clocks) in a `host` section; breaks byte
                      reproducibility across hosts, ignored by diffs

environment:
  PHANTOM_FULL=1     paper's full protocol sizes (slow); 0 or unset
                     selects the quick protocol, anything else exits 2
  PHANTOM_THREADS=n  pin the trial runner's thread count (overridden
                     by --workers); results are identical at any
                     thread count";

/// Print a CLI-usage complaint and exit 2 (the CLI-error code, as for
/// bad PHANTOM_THREADS). Never panics: a wrong invocation is the
/// user's error, not the program's.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// `PHANTOM_FULL`, parsed once per process: unset or `0` selects the
/// quick protocol, `1` the paper's full sizes. Any other value exits 2,
/// as a bad `PHANTOM_THREADS` does, rather than silently running the
/// quick protocol.
fn full() -> bool {
    static FULL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FULL.get_or_init(|| match std::env::var("PHANTOM_FULL") {
        Ok(v) if v == "1" => true,
        Ok(v) if v == "0" => false,
        Err(std::env::VarError::NotPresent) => false,
        Ok(v) => {
            eprintln!("invalid PHANTOM_FULL {v:?}: expected 0 or 1");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("invalid PHANTOM_FULL: {e}");
            std::process::exit(2);
        }
    })
}

fn runner() -> TrialRunner {
    match std::env::var("PHANTOM_THREADS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => TrialRunner::with_threads(n),
            _ => {
                eprintln!(
                    "invalid PHANTOM_THREADS {v:?}: expected a positive integer thread count"
                );
                std::process::exit(2);
            }
        },
        Err(std::env::VarError::NotPresent) => TrialRunner::new(),
        Err(e) => {
            eprintln!("invalid PHANTOM_THREADS: {e}");
            std::process::exit(2);
        }
    }
}

fn table1(r: &TrialRunner) -> Result<(), RunnerError> {
    let t = timed(r, |r| run_table1_on(r, 0))?;
    print!("{}", report::render_table1(&t.result));
    eprintln!("[table1: {}]", t.wall_note());
    Ok(())
}

/// Figure 6 over an explicit uarch set. The default mirrors the paper's
/// plot (Zen 2 and Zen 4); `--uarch` / `--spec` widen or narrow it.
fn figure6(r: &TrialRunner, profiles: &[UarchProfile]) -> Result<(), RunnerError> {
    for profile in profiles {
        let profile = profile.clone();
        let name = profile.name.clone();
        println!("[{name}]");
        let step = if full() { 0x40 } else { 0x100 };
        let t = timed(r, |r| run_figure6_on(r, profile.clone(), step))?;
        print!("{}", report::render_figure6(&t.result));
        eprintln!("[figure6 {name}: {}]", t.wall_note());
    }
    Ok(())
}

/// `list-uarchs`: every registered spec, builtin or loaded via `--spec`,
/// with compact BTB and CBP geometry descriptors so predictor changes
/// made in a spec's `cbp` block are visible at a glance.
fn list_uarchs(registry: &UarchRegistry) {
    println!(
        "{:<10} {:<26} {:<22} {:<6} {:<12} {:<20} phantom-exec-uops",
        "key", "name", "model", "vendor", "btb", "cbp"
    );
    for spec in registry.specs() {
        let profile = spec.profile();
        println!(
            "{:<10} {:<26} {:<22} {:<6} {:<12} {:<20} {}",
            spec.key,
            spec.name,
            spec.model,
            spec.vendor.to_string().to_ascii_lowercase(),
            profile.btb_scheme.summary(),
            profile.cbp_scheme.summary(),
            spec.phantom_exec_uops
        );
    }
}

fn figure7() {
    let samples = if full() { 48 } else { 24 };
    let start = std::time::Instant::now();
    let fig = run_figure7(samples, 0);
    print!("{}", report::render_figure7(&fig));
    eprintln!("[figure7: wall {:.2}s]", start.elapsed().as_secs_f64());
}

fn table2(r: &TrialRunner, bits: usize) -> Result<(), RunnerError> {
    let t = timed(r, |r| run_table2_on(r, bits, 0))?;
    print!("{}", report::render_table2(&t.result));
    eprintln!("[table2: {}]", t.wall_note());
    Ok(())
}

fn table3(r: &TrialRunner, runs: usize) -> Result<(), RunnerError> {
    let slots = if full() { 0 } else { 64 };
    for p in [
        UarchProfile::zen2(),
        UarchProfile::zen3(),
        UarchProfile::zen4(),
    ] {
        let name = p.name.clone();
        let t = timed(r, |r| run_table3_on(r, p.clone(), runs, slots, 100))?;
        print!("{}", report::render_table3(&name, &t.result));
        eprintln!("[table3 {name}: {}]", t.wall_note());
    }
    Ok(())
}

fn table4(r: &TrialRunner, runs: usize) -> Result<(), RunnerError> {
    let slots = if full() { 0 } else { 64 };
    for p in [UarchProfile::zen1(), UarchProfile::zen2()] {
        let name = p.name.clone();
        let t = timed(r, |r| run_table4_on(r, p.clone(), runs, slots, 200))?;
        print!("{}", report::render_table4(&name, &t.result));
        eprintln!("[table4 {name}: {}]", t.wall_note());
    }
    Ok(())
}

fn table5(r: &TrialRunner, runs: usize) -> Result<(), RunnerError> {
    // The paper pairs Zen 1 with 8 GiB and Zen 2 with 64 GiB.
    let configs: [(UarchProfile, u64); 2] = if full() {
        [
            (UarchProfile::zen1(), 8 << 30),
            (UarchProfile::zen2(), 64 << 30),
        ]
    } else {
        [
            (UarchProfile::zen1(), 1 << 30),
            (UarchProfile::zen2(), 4 << 30),
        ]
    };
    for (p, bytes) in configs {
        let name = p.name.clone();
        let t = timed(r, |r| run_table5_on(r, p.clone(), bytes, runs, 300))?;
        print!("{}", report::render_table5(&name, bytes >> 30, &t.result));
        eprintln!("[table5 {name}: {}]", t.wall_note());
    }
    Ok(())
}

fn mds(r: &TrialRunner, bytes: usize) -> Result<(), RunnerError> {
    let runs = if full() { 10 } else { 3 };
    for p in [UarchProfile::zen1(), UarchProfile::zen2()] {
        let name = p.name.clone();
        println!("[{name}] over {runs} reboots:");
        let t = timed(r, |r| run_mds_on(r, p.clone(), bytes, runs, 400))?;
        for row in &t.result {
            print!("  {}", report::render_mds(row));
        }
        eprintln!("[mds {name}: {}]", t.wall_note());
    }
    Ok(())
}

fn o4() -> Result<(), RunnerError> {
    for p in [UarchProfile::zen1(), UarchProfile::zen2()] {
        let name = p.name.clone();
        let o = o4_suppress_bp_on_non_br(p)?;
        println!(
            "O4 [{name}]: baseline {} -> suppressed {} (IF={}, ID={}, EX={})",
            o.baseline.stage(),
            o.suppressed.stage(),
            o.suppressed.fetched,
            o.suppressed.decoded,
            o.suppressed.executed,
        );
    }
    println!(
        "=> SuppressBPOnNonBr stops transient execution but not IF/ID (and is absent on Zen 1)."
    );
    Ok(())
}

fn o5() -> Result<(), RunnerError> {
    let fetched = o5_auto_ibrs_fetch(0)?;
    println!("O5 [Zen 4, AutoIBRS on]: cross-privilege transient fetch observed = {fetched}");
    println!("=> AutoIBRS does not prevent IF of cross-privilege branch targets (P1 unaffected).");
    Ok(())
}

fn software() -> Result<(), RunnerError> {
    let (u, p) = lfence_gadget_protection(UarchProfile::zen2())?;
    println!("lfence at gadget entry [Zen 2]: transient load unprotected={u} protected={p}");
    let (u, p) = rsb_stuffing_protection(UarchProfile::zen2())?;
    println!("RSB stuffing [Zen 2]:           phantom fetch unprotected={u} protected={p}");
    let (u, p) = sls_padding_protection(UarchProfile::zen1())?;
    println!("SLS padding [Zen]:              straight-line load unpadded={u} padded={p}");
    println!("=> software mitigations work where they are PLACED; §8.2's point is that");
    println!("   pre-decode speculation makes the set of placement sites intractable.");
    Ok(())
}

fn ablation() -> Result<(), RunnerError> {
    println!("resteer-latency sweep (Zen 2 shape):");
    for p in phantom::ablation::resteer_latency_sweep(&[4, 5, 6, 8, 10, 12, 16])? {
        println!(
            "  latency {:>2} cycles -> spare {:>2} uops -> {}",
            p.latency, p.spare_uops, p.stage
        );
    }
    println!("BTB associativity sweep (8 same-bucket entries):");
    for p in phantom::ablation::btb_associativity_sweep(&[1, 2, 4, 8], 8) {
        println!("  {} way(s) -> {:.0}% survive", p.ways, p.survival * 100.0);
    }
    println!("noise-accuracy curve (fetch channel, 128 bits):");
    for p in phantom::ablation::noise_accuracy_curve(&[0.0, 0.01, 0.03, 0.1, 0.3], 128, 1)? {
        println!(
            "  spurious {:>4.0}% -> accuracy {:.1}%",
            p.spurious_rate * 100.0,
            p.accuracy * 100.0
        );
    }
    Ok(())
}

/// The noise-robustness sweep (`noise-sweep`): the adaptive fetch
/// channel driven through each noise knob, one knob nonzero per point.
/// `--json` writes the records under the bench schema; `--baseline`
/// gates the quiet (`value == 0`) points against a committed snapshot
/// and exits 1 on regression, mirroring the `bench` diff gate.
fn noise_sweep(
    r: &TrialRunner,
    cfg: &NoiseSweepConfig,
    flags: &BenchFlags,
) -> Result<(), RunnerError> {
    let t = timed(r, |r| run_noise_sweep_on(r, cfg))?;
    print!("{}", report::render_noise_sweep(&t.result));
    eprintln!("[noise-sweep: {}]", t.wall_note());
    let records: Vec<NoiseSweepRecord> = t.result.iter().map(NoiseSweepRecord::from).collect();
    flags.write_section("noise-sweep", "noise_sweep", &records)?;
    if let Some((path, baseline, tol)) = flags.baseline()? {
        let base = baseline.noise_sweep.unwrap_or_default();
        let quiet = base.iter().filter(|p| p.is_quiet()).count();
        let regressions = diff_noise_sweep(&base, &records, &tol);
        let scope = format!("{quiet} quiet point(s)");
        gate(path, &tol, "quiet-end ", &scope, &regressions, || {});
    }
    Ok(())
}

/// The PHT channel (`pht-channel`): BranchSpectre-style secret recovery
/// through the conditional predictor's counters alone, one row per
/// builtin AMD part. `--json` writes the records under the bench
/// schema; `--baseline` gates per-uarch accuracy against a committed
/// snapshot and exits 1 on regression, mirroring the `bench` diff gate.
fn pht_channel(r: &TrialRunner, bits: usize, flags: &BenchFlags) -> Result<(), RunnerError> {
    let t = timed(r, |r| run_pht_channel_on(r, bits, 600))?;
    println!("PHT channel ({bits} bits, realistic noise, no cache probe):");
    println!(
        "  {:<26} {:>12} {:>9} {:>10} {:>8} {:>6} {:>6}",
        "uarch", "alias-flip", "accuracy", "bits/s", "probes", "abst", "conf"
    );
    for row in &t.result {
        println!(
            "  {:<26} {:>12} {:>8.1}% {:>10.0} {:>8} {:>6} {:>6.2}",
            row.uarch.as_str(),
            format!("{:#x}", row.flip_mask),
            row.accuracy * 100.0,
            row.bits_per_sec,
            row.probes,
            row.abstentions,
            row.mean_confidence,
        );
    }
    eprintln!("[pht-channel: {}]", t.wall_note());
    let records: Vec<PhtChannelRecord> = t.result.iter().map(PhtChannelRecord::from).collect();
    flags.write_section("pht-channel", "pht_channel", &records)?;
    if let Some((path, baseline, tol)) = flags.baseline()? {
        let base = baseline.pht_channel.unwrap_or_default();
        let regressions = diff_pht_channel(&base, &records, &tol);
        let scope = format!("{} baseline row(s)", base.len());
        gate(path, &tol, "pht-channel ", &scope, &regressions, || {});
    }
    Ok(())
}

fn spectre() -> Result<(), RunnerError> {
    println!("baseline: conventional Spectre-V2 vs PHANTOM windows");
    for p in UarchProfile::all() {
        let w = window_comparison(&p);
        let leak = if p.indirect_victim_blind {
            "n/a (blind)".to_string()
        } else {
            let r = spectre_v2_leak(p.clone(), 0x5c)?;
            if r.correct() {
                "leaks".into()
            } else {
                "fails".into()
            }
        };
        println!(
            "  {:<26} spectre {:>2} uops ({leak}), phantom {} uops",
            p.name, w.spectre_uops, w.phantom_uops
        );
    }
    Ok(())
}

fn overhead(r: &TrialRunner) -> Result<(), RunnerError> {
    let t = timed(r, |r| {
        Ok::<_, RunnerError>(suppress_overhead_on(r, UarchProfile::zen2()))
    })?;
    print!("{}", report::render_overhead(&t.result));
    eprintln!("[overhead: {}]", t.wall_note());
    Ok(())
}

fn gadgets() {
    let corpus = generate_corpus(&CorpusConfig::default());
    let c = census(&corpus);
    print!("{}", report::render_gadgets(&c));
}

/// CLI flags for the `serve` campaign service.
struct ServeFlags {
    out: PathBuf,
    resume: Option<PathBuf>,
    bits: Option<usize>,
    seed: u64,
    ab: bool,
}

/// The campaign service: expand the job grid, skip what a `--resume`
/// file already finished, and stream the rest as JSONL. All progress
/// goes to stderr; the output file carries records only.
fn serve(
    r: &TrialRunner,
    registry: &UarchRegistry,
    uarch_names: &[String],
    sf: &ServeFlags,
) -> Result<(), RunnerError> {
    let mut cfg = CampaignConfig::default_grid(registry);
    if !uarch_names.is_empty() {
        cfg.uarches = uarch_names
            .iter()
            .map(|name| match registry.get(name) {
                Some(spec) => (spec.key.clone(), spec.profile()),
                None => usage_error(&format!("unknown uarch {name:?} (see `repro list-uarchs`)")),
            })
            .collect();
    }
    if let Some(bits) = sf.bits {
        cfg.bits = bits;
    }
    cfg.seed = sf.seed;

    if sf.ab {
        let bits = cfg.bits.min(64);
        eprintln!("[serve --ab: {bits}-bit zen2 fetch transfer, quiet noise, both arms]");
        let ab = campaign::ab_compare(r, bits, cfg.seed)?;
        println!(
            "fork-per-trial: {:.3}s   boot-per-trial: {:.3}s   ({:.1}x slower)   accuracy {:.4} in both arms",
            ab.fork_secs,
            ab.boot_secs,
            ab.speedup(),
            ab.accuracy
        );
        return Ok(());
    }

    let jobs = campaign::jobs(&cfg);
    let (skip, prefix) = match &sf.resume {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage_error(&format!("--resume {}: {e}", path.display())));
            let rp = campaign::resume_prefix(&text, &jobs);
            eprintln!(
                "[serve: resuming from {} — {}/{} jobs already complete]",
                path.display(),
                rp.done,
                jobs.len()
            );
            (rp.done, rp.prefix)
        }
        None => (0, String::new()),
    };

    use std::io::Write;
    // Read the resume file before truncating the output: `--resume` and
    // `--out` may name the same path (resume in place).
    let file = std::fs::File::create(&sf.out)
        .unwrap_or_else(|e| usage_error(&format!("--out {}: {e}", sf.out.display())));
    let mut out = std::io::BufWriter::new(file);
    out.write_all(prefix.as_bytes())
        .map_err(|e| format!("write {}: {e}", sf.out.display()))?;

    let start = std::time::Instant::now();
    campaign::run_campaign(r, &cfg, skip, &mut out, &mut |done, total, id| {
        eprintln!("[serve: {done}/{total} {id}]");
    })?;
    eprintln!(
        "[serve: wrote {} — {} jobs, {} trials, {:.2}s on {} threads]",
        sf.out.display(),
        jobs.len(),
        cfg.total_trials(),
        start.elapsed().as_secs_f64(),
        r.threads()
    );
    Ok(())
}

/// CLI flags shared by `bench`, `noise-sweep` and `pht-channel`.
struct BenchFlags {
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: Option<f64>,
    host_meta: bool,
}

impl BenchFlags {
    /// The `--baseline` snapshot and the tolerance to gate against it,
    /// if a baseline was given.
    fn baseline(&self) -> Result<Option<(&Path, BenchSnapshot, Tolerance)>, RunnerError> {
        let Some(path) = &self.baseline else {
            return Ok(None);
        };
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let tol = self
            .tolerance
            .map_or_else(Tolerance::default, Tolerance::uniform);
        Ok(Some((path, BenchSnapshot::from_json_str(&text)?, tol)))
    }

    /// `--json` for a one-section command: write `records` as the `key`
    /// section of a snapshot-schema document.
    fn write_section(&self, cmd: &str, key: &str, records: &impl Json) -> Result<(), RunnerError> {
        if let Some(path) = &self.json {
            let mut body = JsonValue::object();
            body.set(key, records.to_json());
            write_document(path, body)?;
            eprintln!("[{cmd}: wrote {}]", path.display());
        }
        Ok(())
    }
}

/// Write `body` under the snapshot schema tag to `path`.
fn write_document(path: &Path, body: JsonValue) -> Result<(), RunnerError> {
    std::fs::write(path, document(body).to_pretty_string())
        .map_err(|e| format!("write {}: {e}", path.display()).into())
}

/// Print a gate's verdict: one clean line on stdout, or every
/// regression on stderr followed by `detail`, then exit 1.
fn gate(
    path: &Path,
    tol: &Tolerance,
    kind: &str,
    scope: &str,
    regressions: &[Regression],
    detail: impl FnOnce(),
) {
    if regressions.is_empty() {
        println!(
            "no {kind}regressions against {} (tolerance: {}pp accuracy, {scope})",
            path.display(),
            tol.accuracy_pp
        );
        return;
    }
    eprintln!(
        "{} regression(s) against {}:",
        regressions.len(),
        path.display()
    );
    for reg in regressions {
        eprintln!("  {reg}");
    }
    detail();
    std::process::exit(1);
}

fn bench(r: &TrialRunner, flags: &BenchFlags) -> Result<(), RunnerError> {
    let cfg = BenchConfig {
        full: full(),
        seed: 0,
        host_meta: flags.host_meta,
    };
    let start = std::time::Instant::now();
    let snap = collect_snapshot(r, &cfg)?;
    let path = flags
        .json
        .as_deref()
        .unwrap_or(Path::new("BENCH_phantom.json"));
    write_document(path, snap.to_json())?;
    eprintln!(
        "[bench: wrote {} in {:.2}s on {} threads]",
        path.display(),
        start.elapsed().as_secs_f64(),
        r.threads()
    );

    if let Some((path, baseline, tol)) = flags.baseline()? {
        let scope = format!("{}% cycles", tol.cycles_pct);
        gate(
            path,
            &tol,
            "",
            &scope,
            &diff(&baseline, &snap, &tol),
            || {
                // The raw hot-path counters make a hit-rate regression
                // diagnosable from CI logs alone.
                eprintln!("perf counters (baseline -> current):");
                let (base, cur) = (baseline.perf.to_json(), snap.perf.to_json());
                let JsonValue::Object(counters) = &base else {
                    return;
                };
                for (name, b) in counters {
                    let c = cur.get(name).unwrap_or(&JsonValue::Null);
                    let marker = if b == c { "" } else { "  <-- changed" };
                    eprintln!(
                        "  {name}: {} -> {}{marker}",
                        b.to_compact_string(),
                        c.to_compact_string()
                    );
                }
            },
        );
    }
    Ok(())
}

/// Run the discover fuzzer: evaluate `budget` seeded (program × spec)
/// candidates, print the findings, write the JSONL report, and
/// optionally emit the minimized corpus.
fn discover(
    r: &TrialRunner,
    budget: usize,
    seed: u64,
    out: &Path,
    corpus: Option<&Path>,
) -> Result<(), RunnerError> {
    use phantom_bench::discover::{discover_jsonl, run_discover_on, train_id, DiscoverConfig};

    let cfg = DiscoverConfig { budget, seed };
    let t = timed(r, |r| run_discover_on(r, cfg))?;
    let report = &t.result;
    println!("§fuzz — adversarial (program × spec) discovery, seed {seed}");
    println!(
        "{} trials: {} leaks ({} beyond the Table 1 grid), {} quiet, {} rejected, {} faulted",
        report.budget,
        report.findings.len(),
        report.findings.iter().filter(|f| f.beyond_table1).count(),
        report.quiet,
        report.rejected_total(),
        report.faulted,
    );
    for (slug, count) in &report.rejected {
        println!("  rejected[{slug}] = {count}");
    }
    for f in &report.findings {
        println!(
            "  #{:04} {:<14} train {:<8} delta {:#014x} stage {:<2} oracle {} {}",
            f.index,
            f.case.spec.key,
            train_id(f.case.train),
            f.case.delta,
            f.stage,
            if f.oracle_confirmed { "ok" } else { "??" },
            if f.beyond_table1 {
                "[beyond-table1]"
            } else {
                ""
            },
        );
    }
    std::fs::write(out, discover_jsonl(report))?;
    if let Some(dir) = corpus {
        let paths = phantom_bench::discover::write_corpus(dir, report, 16)?;
        println!(
            "[discover: wrote {} corpus case(s) under {}]",
            paths.len(),
            dir.display()
        );
    }
    println!("[discover: wrote {} — {}]", out.display(), t.wall_note());
    Ok(())
}

/// Commands that read the snapshot flags.
const GATED: &[&str] = &["bench", "noise-sweep", "pht-channel"];

/// Every flag: its name, whether it takes a value, and the commands
/// that read it (empty: every command). A flag given to any other
/// command is a usage error (exit 2), never a silent no-op.
const FLAGS: &[(&str, bool, &[&str])] = &[
    ("--uarch", true, &["figure6", "serve", "all"]),
    ("--spec", true, &[]),
    ("--workers", true, &[]),
    ("--out", true, &["serve", "discover"]),
    ("--seed", true, &["serve", "discover"]),
    ("--corpus", true, &["discover"]),
    ("--resume", true, &["serve"]),
    ("--bits", true, &["serve"]),
    ("--ab", false, &["serve"]),
    ("--json", true, GATED),
    ("--baseline", true, GATED),
    ("--tolerance", true, GATED),
    ("--host-meta", false, &["bench"]),
];

/// One flag occurrence: its [`FLAGS`] row and its value (empty for a
/// switch).
type Given = (
    &'static (&'static str, bool, &'static [&'static str]),
    String,
);

/// Split argv into positional words and flag occurrences, in order.
fn parse_args(mut args: impl Iterator<Item = String>) -> (Vec<String>, Vec<Given>) {
    let (mut positional, mut given) = (Vec::new(), Vec::new());
    while let Some(arg) = args.next() {
        match FLAGS.iter().find(|(name, ..)| *name == arg) {
            Some(row @ (name, true, _)) => match args.next() {
                Some(value) => given.push((row, value)),
                None => usage_error(&format!("{name} requires a value")),
            },
            Some(row) => given.push((row, String::new())),
            None => positional.push(arg),
        }
    }
    (positional, given)
}

/// Every value given for `name`, in order.
fn values<'a>(given: &'a [Given], name: &'a str) -> impl Iterator<Item = &'a str> {
    given
        .iter()
        .filter(move |(row, _)| row.0 == name)
        .map(|(_, value)| value.as_str())
}

/// The last value of `name` parsed as `T`; every value given must parse
/// and pass `valid`, or the CLI exits 2.
fn parsed<T: std::str::FromStr>(
    given: &[Given],
    name: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Option<T> {
    values(given, name)
        .map(|v| match v.parse::<T>() {
            Ok(x) if valid(&x) => x,
            _ => usage_error(&format!("invalid {name} {v:?}: expected {expected}")),
        })
        .last()
}

fn main() {
    let (positional, given) = parse_args(std::env::args().skip(1));
    let last = |name| values(&given, name).last().map(PathBuf::from);
    let has = |name| values(&given, name).next().is_some();

    // The registry resolves every uarch name: Table 1 builtins plus any
    // spec files the user loads.
    let mut registry = UarchRegistry::with_builtins();
    let mut spec_keys: Vec<String> = Vec::new();
    for path in values(&given, "--spec") {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => usage_error(&format!("--spec {path}: {e}")),
        };
        match registry.register_text(&text) {
            Ok(keys) => spec_keys.extend(keys),
            Err(e) => usage_error(&format!("--spec {path}: {e}")),
        }
    }

    let mut cmd = positional.first().map(String::as_str).unwrap_or("all");
    // `repro --json out.json` alone means: run the bench snapshot;
    // `repro --spec file.spec` alone means: smoke-sweep the file's
    // uarches through Figure 6.
    if cmd == "all" && (has("--json") || has("--baseline")) {
        cmd = "bench";
    } else if cmd == "all" && positional.is_empty() && !spec_keys.is_empty() {
        cmd = "figure6";
    }
    for ((name, _, commands), _) in &given {
        if let Some((last, rest)) = commands.split_last() {
            if !commands.contains(&cmd) {
                let list = match rest {
                    [] => format!("{last} command"),
                    _ => format!("{} and {last} commands", rest.join(", ")),
                };
                usage_error(&format!("{name} is only valid with the {list}"));
            }
        }
    }

    let uarch_names: Vec<String> = values(&given, "--uarch")
        .flat_map(|v| v.split(','))
        .map(|s| s.trim().to_string())
        .collect();
    let workers = parsed(
        &given,
        "--workers",
        "a positive integer thread count",
        |&n: &usize| n >= 1,
    );
    let seed = parsed(&given, "--seed", "an unsigned integer", |_: &u64| true).unwrap_or(0);
    let flags = BenchFlags {
        json: last("--json"),
        baseline: last("--baseline"),
        tolerance: parsed(
            &given,
            "--tolerance",
            "a non-negative percent",
            |p: &f64| *p >= 0.0 && p.is_finite(),
        ),
        host_meta: has("--host-meta"),
    };
    let serve_flags = ServeFlags {
        out: last("--out").unwrap_or_else(|| "campaign.jsonl".into()),
        resume: last("--resume"),
        bits: parsed(&given, "--bits", "a positive bit count", |&n: &usize| {
            n >= 1
        }),
        seed,
        ab: has("--ab"),
    };

    // Figure 6's sweep set: --uarch wins, then --spec file contents,
    // then the paper's zen2/zen4 plot.
    let figure6_profiles: Vec<UarchProfile> = if !uarch_names.is_empty() {
        uarch_names
            .iter()
            .map(|name| match registry.get(name) {
                Some(spec) => spec.profile(),
                None => {
                    let known: Vec<&str> =
                        registry.specs().iter().map(|s| s.key.as_str()).collect();
                    eprintln!(
                        "unknown uarch {name:?}; known: {} (see `repro list-uarchs`)",
                        known.join(", ")
                    );
                    std::process::exit(2);
                }
            })
            .collect()
    } else if !spec_keys.is_empty() {
        spec_keys
            .iter()
            .map(|key| {
                registry
                    .get(key)
                    .expect("just-registered key resolves")
                    .profile()
            })
            .collect()
    } else {
        vec![UarchProfile::zen2(), UarchProfile::zen4()]
    };

    let num = |i: usize, default: usize| -> usize {
        match positional.get(i) {
            None => default,
            Some(s) => match s.parse() {
                Ok(n) => n,
                Err(_) => usage_error(&format!(
                    "invalid count {s:?} for {}: expected a non-negative integer",
                    positional[0]
                )),
            },
        }
    };
    // Validate PHANTOM_FULL before any work, whichever command runs.
    full();
    // --workers wins outright; PHANTOM_THREADS is only consulted (and
    // only validated) when --workers is absent.
    let r = match workers {
        Some(n) => TrialRunner::with_threads(n),
        None => runner(),
    };

    let result: Result<(), RunnerError> = match cmd {
        "table1" => table1(&r),
        "serve" => serve(&r, &registry, &uarch_names, &serve_flags),
        "discover" => discover(
            &r,
            num(1, if full() { 512 } else { 64 }),
            seed,
            &last("--out").unwrap_or_else(|| "discover.jsonl".into()),
            last("--corpus").as_deref(),
        ),
        "figure6" => figure6(&r, &figure6_profiles),
        "list-uarchs" => {
            list_uarchs(&registry);
            Ok(())
        }
        "figure7" => {
            figure7();
            Ok(())
        }
        "table2" => table2(&r, num(1, if full() { 4096 } else { 256 })),
        "table3" => table3(&r, num(1, if full() { 100 } else { 5 })),
        "table4" => table4(&r, num(1, if full() { 10 } else { 3 })),
        "table5" => table5(&r, num(1, if full() { 100 } else { 3 })),
        "mds" => mds(&r, num(1, if full() { 4096 } else { 64 })),
        "bench" => bench(&r, &flags),
        "o4" => o4(),
        "o5" => o5(),
        "software" => software(),
        "spectre" => spectre(),
        "ablation" => ablation(),
        "noise-sweep" => {
            let mut cfg = if full() {
                NoiseSweepConfig {
                    seed: 500,
                    ..Default::default()
                }
            } else {
                NoiseSweepConfig::quick(500)
            };
            cfg.bits = num(1, cfg.bits);
            noise_sweep(&r, &cfg, &flags)
        }
        "pht-channel" => pht_channel(&r, num(1, if full() { 4096 } else { 128 }), &flags),
        "overhead" => overhead(&r),
        "gadgets" => {
            gadgets();
            Ok(())
        }
        // The scope check above leaves `all` no snapshot flags, so its
        // sweep and PHT steps write and gate nothing.
        "all" => table1(&r)
            .and_then(|()| figure6(&r, &figure6_profiles))
            .map(|()| figure7())
            .and_then(|()| table2(&r, 256))
            .and_then(|()| table3(&r, 3))
            .and_then(|()| table4(&r, 2))
            .and_then(|()| table5(&r, 2))
            .and_then(|()| mds(&r, 48))
            .and_then(|()| o4())
            .and_then(|()| o5())
            .and_then(|()| software())
            .and_then(|()| spectre())
            .and_then(|()| ablation())
            .and_then(|()| noise_sweep(&r, &NoiseSweepConfig::quick(500), &flags))
            .and_then(|()| pht_channel(&r, 128, &flags))
            .and_then(|()| overhead(&r))
            .map(|()| gadgets()),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => usage_error(&format!("unknown command {other:?}")),
    };

    if let Err(e) = result {
        eprintln!("repro {cmd} failed: {e}");
        std::process::exit(1);
    }
}
