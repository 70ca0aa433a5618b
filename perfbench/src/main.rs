//! The benchmark's measuring program.
//!
//! ```text
//! perfbench <setup|run|trace> --workload <campaign_wide|discover>
//!           --seed <n> --seeds <n> [--bits <n>]
//!           [--seconds <s>] [--jsonl <path>] [--ledger <path>]
//! ```
//!
//! `--seeds` consecutive seeds from `--seed` make up the workload: a
//! campaign over the default grid at `--bits` per job for each, or one
//! discover case for each.
//! Every mode first sets up what a user pays for once per process —
//! the uarch registry and, for campaigns, the boot templates in the
//! process-global boot cache — then prints `ready` on its own line.
//! `setup` stops there. `run` measures whole untraced passes of the
//! workload for about `--seconds`, checks every output, writes the
//! first pass's JSONL to `--jsonl`, and reports the fastest host time
//! of every job or case over the passes. `trace` runs the work once
//! untraced as a reference, then twice through the traced mirror, and
//! reports the per-layer ledger. The last line on stdout is one JSON
//! object; `run.py` turns it into the benchmark result.

mod campaign;
mod discover;
mod ledger;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use phantom::report::value::JsonValue;

use campaign::Campaign;
use discover::Discover;
use ledger::{ratio, Ledger, Row, SPAN_KINDS};

/// One untraced pass over a workload's work.
#[derive(Default)]
pub struct Pass {
    /// Trials (campaigns) or cases (discover) the pass ran.
    pub units: u64,
    /// Host time of each job or case, in order: each `run_job` or
    /// `run_discover_on` call.
    pub item_ms: Vec<f64>,
    /// Whether each item counts toward the latency metrics (a rejected
    /// discover candidate never reaches the simulator, so it does not).
    pub timed: Vec<bool>,
    /// The records the pass produced, as `repro` would write them.
    pub jsonl: String,
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic model outputs: (name, value, unit).
    pub model: Vec<(&'static str, f64, &'static str)>,
}

enum Workload {
    Campaign(Campaign),
    Discover(Discover),
}

impl Workload {
    fn pass(&self) -> Pass {
        match self {
            Workload::Campaign(c) => c.pass(),
            Workload::Discover(d) => d.pass(),
        }
    }
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seeds: u64,
    bits: usize,
    seconds: f64,
    jsonl: Option<PathBuf>,
    ledger: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench <setup|run|trace> --workload <campaign_wide|discover> --seed <n> --seeds <n> [--bits <n>] [--seconds <s>] [--jsonl <path>] [--ledger <path>]";

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag} {value:?}"))
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or(USAGE)?;
    if !matches!(mode.as_str(), "setup" | "run" | "trace") {
        return Err(format!("unknown mode {mode:?}\n{USAGE}"));
    }
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: 0,
        seeds: 0,
        bits: 0,
        seconds: 10.0,
        jsonl: None,
        ledger: None,
    };
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&flag, &value)?,
            "--seeds" => args.seeds = number(&flag, &value)?,
            "--bits" => args.bits = number(&flag, &value)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--jsonl" => args.jsonl = Some(value.into()),
            "--ledger" => args.ledger = Some(value.into()),
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.seeds == 0 {
        return Err(format!("--seeds must be positive\n{USAGE}"));
    }
    let workload = match args.workload.as_str() {
        "campaign_wide" => {
            if args.bits == 0 {
                return Err(format!("campaign_wide needs --bits\n{USAGE}"));
            }
            let c = Campaign::wide(args.seed, args.seeds, args.bits);
            c.warm()?;
            Workload::Campaign(c)
        }
        "discover" => {
            let d = Discover::new(args.seed, args.seeds);
            d.warm();
            Workload::Discover(d)
        }
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let mut stdout = std::io::stdout();
    writeln!(stdout, "ready")
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    match args.mode.as_str() {
        "run" => measure(&workload, &args),
        "trace" => trace(&workload, &args),
        _ => Ok(()),
    }
}

fn write_file(path: Option<&PathBuf>, text: &str) -> Result<(), String> {
    match path {
        Some(p) => std::fs::write(p, text).map_err(|e| format!("write {}: {e}", p.display())),
        None => Ok(()),
    }
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn floats(values: impl IntoIterator<Item = f64>) -> JsonValue {
    JsonValue::Array(values.into_iter().map(JsonValue::Float).collect())
}

/// `best[i] = min(best[i], new[i])`.
fn keep_fastest(best: &mut [f64], new: &[f64]) {
    for (b, &n) in best.iter_mut().zip(new) {
        *b = b.min(n);
    }
}

/// Untraced passes for about `--seconds`. Each pass's records are
/// compared with the first pass's as soon as it ends, and only the
/// fastest time of each item is kept, so memory does not grow with the
/// number of passes. `run.py` combines the fastest times across
/// processes.
fn measure(workload: &Workload, args: &Args) -> Result<(), String> {
    let start = Instant::now();
    let first = workload.pass();
    let mut items = first.item_ms.clone();
    let (mut attempted, mut failed) = (first.attempted, first.failed);
    let mut passes = 1;
    let mut max_rss_mb = 0.0;
    let mut last_s = start.elapsed().as_secs_f64();
    // A fresh process's first pass pays one-off costs (heap growth,
    // page faults), so make at least two; after that, start another
    // pass only if it should end within `--seconds`.
    while passes < 2 || start.elapsed().as_secs_f64() + last_s <= args.seconds {
        let t = Instant::now();
        let p = workload.pass();
        last_s = t.elapsed().as_secs_f64();
        passes += 1;
        attempted += p.attempted;
        failed += p.failed;
        if p.jsonl != first.jsonl {
            eprintln!("perfbench: a pass's records differ from the first pass's");
            failed += p.attempted;
        }
        keep_fastest(&mut items, &p.item_ms);
        if passes == 2 {
            // Peak memory after the same work on any host: two passes,
            // with the first one's records still held. Later passes
            // would only add to it if the program leaked.
            max_rss_mb = peak_rss_mb()?;
        }
    }
    write_file(args.jsonl.as_ref(), &first.jsonl)?;
    let mut model = JsonValue::object();
    for &(name, value, unit) in &first.model {
        let mut m = JsonValue::object();
        m.set("value", JsonValue::Float(value))
            .set("unit", JsonValue::Str(unit.into()));
        model.set(name, m);
    }
    let mut out = JsonValue::object();
    out.set("mode", JsonValue::Str("run".into()))
        .set("attempted", JsonValue::Uint(attempted))
        .set("failed", JsonValue::Uint(failed.min(attempted)))
        .set("passes", JsonValue::Uint(passes))
        .set("units_per_pass", JsonValue::Uint(first.units))
        .set("item_ms", floats(items))
        .set(
            "timed",
            JsonValue::Array(first.timed.iter().map(|&t| JsonValue::Bool(t)).collect()),
        )
        .set("max_rss_mb", JsonValue::Float(max_rss_mb))
        .set("model", model);
    println!("{}", out.to_compact_string());
    Ok(())
}

/// Two traced passes plus the reference run they are checked against.
struct TraceOutcome {
    ledgers: [Ledger; 2],
    jsonl: String,
    attempted: u64,
    failed: u64,
    /// Mean wall time of a traced pass, and of the untraced reference.
    traced_ns: u64,
    reference_ns: u64,
}

// A fresh process's first pass pays one-off heap growth, so both trace
// functions run the reference twice and keep the warm one: the tracing
// overhead then compares warm passes only.

fn trace_campaign(c: &Campaign) -> Result<TraceOutcome, String> {
    c.reference()?;
    let reference = c.reference()?;
    let a = c.mirror(&reference)?;
    let b = c.mirror(&reference)?;
    let jobs = reference.len() as u64;
    let mut failed = a.parity_failures.max(b.parity_failures);
    if a.jsonl != b.jsonl {
        eprintln!("perfbench: the two traced passes produced different records");
        failed = jobs;
    }
    Ok(TraceOutcome {
        traced_ns: (a.wall_ns + b.wall_ns) / 2,
        reference_ns: a.reference_ns,
        jsonl: a.jsonl,
        ledgers: [a.ledger, b.ledger],
        attempted: jobs,
        failed,
    })
}

fn trace_discover(d: &Discover) -> Result<TraceOutcome, String> {
    d.reference()?;
    let (reference, reference_ns) = d.reference()?;
    let (pa, la) = d.traced(&reference);
    let (pb, lb) = d.traced(&reference);
    let mut failed = pa.failed.max(pb.failed);
    if pa.jsonl != pb.jsonl {
        eprintln!("perfbench: the two traced passes produced different records");
        failed = pa.attempted;
    }
    Ok(TraceOutcome {
        traced_ns: (la.traced_ns + lb.traced_ns) / 2,
        ledgers: [la, lb],
        jsonl: pa.jsonl,
        attempted: pa.attempted,
        failed,
        reference_ns,
    })
}

/// The traced run: the per-layer ledger, its coverage, the tracing
/// overhead, and the count-stability check across the two passes.
fn trace(workload: &Workload, args: &Args) -> Result<(), String> {
    let t = match workload {
        Workload::Campaign(c) => trace_campaign(c)?,
        Workload::Discover(d) => trace_discover(d)?,
    };
    write_file(args.jsonl.as_ref(), &t.jsonl)?;
    let [a, b] = &t.ledgers;
    let mut both = a.clone();
    both.merge(b);
    let overhead = 1.0 - t.reference_ns as f64 / t.traced_ns.max(1) as f64;

    let rows_all = rows(&both);
    let mut mismatches = Vec::new();
    for (ra, rb) in rows(a).iter().zip(&rows(b)) {
        if ra.count_type && ra.value != rb.value {
            mismatches.push(format!("{}: {:?} vs {:?}", ra.name, ra.value, rb.value));
        }
    }
    for (kind, share) in SPAN_KINDS.iter().map(|k| (k, both.share(k))) {
        if share > 0.0 {
            println!("  share of traced time  {kind:<28} {:>8.2}%", share * 100.0);
        }
    }
    println!(
        "  unattributed {:.2}%   tracing overhead {:.2}% (traced vs untraced throughput)",
        both.unattributed_frac() * 100.0,
        overhead * 100.0
    );
    if mismatches.is_empty() {
        println!("  count-type metrics repeat exactly across both traced passes");
    } else {
        println!("  count-type metrics that differ between the traced passes:");
        for m in &mismatches {
            println!("    {m}");
        }
    }

    let mut per_layer = JsonValue::object();
    for kind in SPAN_KINDS {
        per_layer.set(&format!("{kind}_share"), JsonValue::Float(both.share(kind)));
    }
    per_layer
        .set(
            "bench.unattributed_frac",
            JsonValue::Float(both.unattributed_frac()),
        )
        .set("bench.trace_overhead_frac", JsonValue::Float(overhead))
        .set(
            "bench.count_mismatches",
            JsonValue::Uint(mismatches.len() as u64),
        );

    let mut ledger_file = JsonValue::object();
    let mut rows_json = JsonValue::object();
    for row in &rows_all {
        let mut r = JsonValue::object();
        r.set("value", row.value.map_or(JsonValue::Null, JsonValue::Float))
            .set("unit", JsonValue::Str(row.unit.into()));
        rows_json.set(row.name, r);
    }
    ledger_file
        .set("workload", JsonValue::Str(args.workload.clone()))
        .set("seed", JsonValue::Uint(args.seed))
        .set("passes", JsonValue::Array(vec![a.to_json(), b.to_json()]))
        .set("metrics", rows_json.clone())
        .set("per_layer", per_layer.clone())
        .set(
            "count_mismatches",
            JsonValue::Array(mismatches.into_iter().map(JsonValue::Str).collect()),
        );
    write_file(args.ledger.as_ref(), &ledger_file.to_pretty_string())?;

    let mut out = JsonValue::object();
    out.set("mode", JsonValue::Str("trace".into()))
        .set("attempted", JsonValue::Uint(t.attempted))
        .set("failed", JsonValue::Uint(t.failed.min(t.attempted)))
        .set("rows", rows_json)
        .set("per_layer", per_layer);
    println!("{}", out.to_compact_string());
    Ok(())
}

/// Every per-layer metric, computed from one ledger. A metric whose
/// layer does not run on the workload is `None`. Which end-to-end
/// metric each one should move is in `workloads.json`.
fn rows(l: &Ledger) -> Vec<Row> {
    let c = |name: &str| l.counter(name);
    let trials = c("trials");
    let per_trial = |name: &str| ratio(c(name), trials);
    let rate = |hit: &str, miss: &str| ratio(c(hit), c(hit) + c(miss));
    vec![
        Row::time("kernel.boot_us", l.mean_us("kernel.boot")),
        Row::count(
            "kernel.boot_cache_hit_rate",
            "frac",
            rate("boot_cache_hits", "boot_cache_misses"),
        ),
        Row::time(
            "sidechannel.arena_install_us",
            l.mean_us("sidechannel.arena_install"),
        ),
        Row::time("pipeline.checkpoint_us", l.mean_us("pipeline.checkpoint")),
        Row::time("pipeline.fork_us", l.mean_us("pipeline.fork")),
        Row::time("pipeline.teardown_us", l.mean_us("pipeline.teardown")),
        Row::time("bench.emit_us", l.mean_us("bench.emit")),
        Row::time("pipeline.rewind_us", l.mean_us("pipeline.rewind")),
        Row::time("core.probe_us", l.mean_us("core.probe")),
        Row::time("core.decode_us", l.mean_us("core.decode")),
        Row {
            name: "pipeline.ns_per_inst",
            unit: "ns",
            value: ratio(l.total("core.probe").ns, c("inst_retired")),
            count_type: false,
        },
        Row::count(
            "pipeline.trace_replay_rate",
            "frac",
            rate("trace_hits", "trace_bailouts"),
        ),
        Row::count(
            "pipeline.trace_invalidations_per_trial",
            "1/trial",
            per_trial("trace_invalidations"),
        ),
        Row::count(
            "pipeline.decode_cache_hit_rate",
            "frac",
            rate("decode_cache_hits", "decode_cache_misses"),
        ),
        Row::count("mem.tlb_hit_rate", "frac", rate("tlb_hits", "tlb_misses")),
        Row::count(
            "mem.cow_faults_per_trial",
            "1/trial",
            per_trial("cow_faults"),
        ),
        Row::count(
            "mem.rewind_frames_per_trial",
            "1/trial",
            per_trial("rewind_frames"),
        ),
        Row::count(
            "mem.frame_pool_reuses_per_trial",
            "1/trial",
            per_trial("frame_pool_reuses"),
        ),
        Row::count(
            "sidechannel.rearms_per_trial",
            "1/trial",
            per_trial("probe_rearms"),
        ),
        Row {
            name: "core.runner_efficiency",
            unit: "frac",
            value: ratio(c("trial_ns"), c("ref_thread_ns")),
            count_type: false,
        },
        Row::count(
            "core.probes_per_bit",
            "probes/bit",
            ratio(c("probes"), c("bits")),
        ),
        Row::count(
            "core.abstain_rate",
            "frac",
            ratio(c("abstentions"), c("bits")),
        ),
        Row::count(
            "pipeline.inst_per_trial",
            "1/trial",
            per_trial("inst_retired"),
        ),
        Row::count("pipeline.cycles_per_trial", "1/trial", per_trial("cycles")),
        Row::count(
            "pipeline.ipc",
            "inst/cycle",
            ratio(c("inst_retired"), c("cycles")),
        ),
        Row::count(
            "cache.icache_miss_per_trial",
            "1/trial",
            per_trial("icache_miss"),
        ),
        Row::count(
            "cache.dcache_miss_per_trial",
            "1/trial",
            per_trial("dcache_miss"),
        ),
        Row::count(
            "bpu.frontend_resteer_per_trial",
            "1/trial",
            per_trial("resteer_frontend"),
        ),
        Row::count(
            "bpu.mispredict_per_trial",
            "1/trial",
            per_trial("branch_mispredict"),
        ),
        Row::time("core.pht_job_us", l.mean_us("core.pht_job")),
        Row::time("pipeline.case_us", l.mean_us("pipeline.case")),
        Row::time("pipeline.machine_new_us", l.mean_us("pipeline.machine_new")),
        Row::time("isa.assemble_us", l.mean_us("isa.assemble")),
        Row::count(
            "isa.reject_rate",
            "frac",
            ratio(c("asm_rejects"), c("asm_attempts")),
        ),
        Row::time("bench.generate_us", l.mean_us("bench.generate")),
        Row::time("bench.minimize_us", l.mean_us("bench.minimize")),
        Row::time("gf2.oracle_us", l.mean_us("gf2.oracle")),
        Row::count("bench.leak_rate", "frac", ratio(c("leaks"), c("cases"))),
    ]
}
