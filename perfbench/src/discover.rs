//! The discover workload: the seeded (program × spec) fuzzer, one case
//! per seed, each case a `run_discover_on` call with budget 1 — the
//! call `repro discover` makes — so every untraced figure times the
//! library's own path, case by case.
//!
//! The traced run mirrors each case through the public calls the
//! discover scenario makes — `generate_case`, `run_case`, and for a
//! leak `minimize_case`, a re-run of the minimum, and
//! `oracle_confirms` — and its report must equal `run_discover_on`'s.
//! It adds two side calls per case that repeat work `run_case` does
//! internally, so their cost can be seen: the victim program's
//! assembly (`assemble_ops`, also the rejection check) and, for
//! programs that assemble, a cold `Machine::new` of the case's spec.
//! Their time shows up as tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use phantom::runner::{trial_seed, TrialRunner};
use phantom::UarchRegistry;
use phantom_bench::discover::{
    assemble_ops, beyond_table1, discover_jsonl, generate_case, minimize_case, oracle_confirms,
    run_case, run_discover_on, CaseOutcome, DiscoverConfig, DiscoverReport, Finding,
};
use phantom_pipeline::Machine;

use crate::ledger::{nanos, Ledger};
use crate::Pass;

/// The victim site `run_case` assembles candidate programs at.
const VICTIM: u64 = 0x40_0ac0;
/// Physical memory of each case's machine, as `run_case` builds it.
const CASE_PHYS: u64 = 1 << 26;

/// `discover`: `seeds` consecutive discover seeds with budget 1, one
/// worker. A case is the unit of latency, so each is its own call; on
/// one worker the runner's per-call cost (a unit set-up and fork, and
/// the report) is small next to a case.
pub struct Discover {
    cfgs: Vec<DiscoverConfig>,
    runner: TrialRunner,
}

/// Evaluation counts of one report.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    leaks: usize,
    quiet: usize,
    rejected: usize,
    faulted: usize,
}

impl Counts {
    fn of(report: &DiscoverReport) -> Counts {
        Counts {
            leaks: report.findings.len(),
            quiet: report.quiet,
            rejected: report.rejected_total(),
            faulted: report.faulted,
        }
    }
}

enum Disposition {
    Leak(Box<Finding>),
    Quiet,
    Rejected(String),
    Faulted,
}

/// Discover's deterministic model outputs over a pass's reports.
#[derive(Default)]
struct Yield {
    cases: usize,
    leaks: usize,
    beyond: usize,
    unconfirmed: usize,
}

impl Yield {
    fn add(&mut self, report: &DiscoverReport) {
        self.cases += report.budget;
        self.leaks += report.findings.len();
        self.beyond += report.findings.iter().filter(|f| f.beyond_table1).count();
        self.unconfirmed += report
            .findings
            .iter()
            .filter(|f| f.case.delta != 0 && !f.oracle_confirmed)
            .count();
    }

    fn model(&self) -> Vec<(&'static str, f64, &'static str)> {
        let per_kcase = 1000.0 / self.cases.max(1) as f64;
        vec![
            ("leaks_per_kcase", self.leaks as f64 * per_kcase, "1/kcase"),
            (
                "beyond_table1_per_kcase",
                self.beyond as f64 * per_kcase,
                "1/kcase",
            ),
            (
                "unconfirmed_alias_findings",
                self.unconfirmed as f64,
                "count",
            ),
        ]
    }
}

impl Discover {
    pub fn new(seed: u64, seeds: u64) -> Discover {
        Discover {
            cfgs: (0..seeds)
                .map(|k| DiscoverConfig {
                    budget: 1,
                    seed: seed.wrapping_add(k),
                })
                .collect(),
            runner: TrialRunner::with_threads(1),
        }
    }

    /// The set-up `repro discover` pays before its first case: the
    /// validated registry of builtin specs. Discover boots nothing
    /// ahead of time, so this is all of it.
    pub fn warm(&self) {
        drop(UarchRegistry::with_builtins());
    }

    /// One untraced pass: every case through `run_discover_on`, timed
    /// one by one. Only evaluated cases count toward latency: a
    /// rejected candidate never reaches the simulator.
    pub fn pass(&self) -> Pass {
        let mut pass = Pass::default();
        let mut outputs = Yield::default();
        for cfg in &self.cfgs {
            pass.attempted += cfg.budget as u64;
            let t = Instant::now();
            let report = run_discover_on(&self.runner, *cfg);
            pass.item_ms.push(nanos(t.elapsed()) as f64 / 1e6);
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: discover seed {} failed: {e}", cfg.seed);
                    pass.timed.push(true);
                    pass.failed += cfg.budget as u64;
                    continue;
                }
            };
            pass.timed.push(report.rejected_total() < report.budget);
            pass.jsonl.push_str(&discover_jsonl(&report));
            pass.failed += check(&report);
            outputs.add(&report);
        }
        pass.units = pass.attempted;
        pass.model = outputs.model();
        pass
    }

    /// One traced pass of the mirror, checked against the reference
    /// reports: its ledger and its records.
    pub fn traced(&self, reference: &[DiscoverReport]) -> (Pass, Ledger) {
        let mut ledger = Ledger::default();
        let mut pass = Pass::default();
        for (cfg, expected) in self.cfgs.iter().zip(reference) {
            pass.attempted += cfg.budget as u64;
            let start = Instant::now();
            let report = mirror(cfg, &mut ledger);
            let jsonl = ledger.time("bench.emit", || discover_jsonl(&report));
            ledger.traced_ns += nanos(start.elapsed());
            pass.jsonl.push_str(&jsonl);
            pass.failed += check(&report);
            ledger.count("leaks", report.findings.len() as u64);
            if report != *expected {
                eprintln!(
                    "perfbench: mirror parity failure on seed {}: run_discover {:?}, mirror {:?}",
                    cfg.seed,
                    Counts::of(expected),
                    Counts::of(&report)
                );
                pass.failed += cfg.budget as u64;
            }
        }
        ledger.count("cases", pass.attempted);
        (pass, ledger)
    }

    /// The traced run's reference: `run_discover_on` on one worker, per
    /// seed. Returns the reports and the total wall time.
    pub fn reference(&self) -> Result<(Vec<DiscoverReport>, u64), String> {
        let t = Instant::now();
        let reports = self
            .cfgs
            .iter()
            .map(|&cfg| run_discover_on(&self.runner, cfg))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        Ok((reports, nanos(t.elapsed())))
    }
}

/// Cases that failed the output check: faults, probe/ground-truth
/// disagreements, and — if the summary does not add up to the budget —
/// every case of the report.
fn check(report: &DiscoverReport) -> u64 {
    let c = Counts::of(report);
    if c.leaks + c.quiet + c.rejected + c.faulted != report.budget {
        eprintln!(
            "perfbench: discover summary {c:?} does not add up to {}",
            report.budget
        );
        return report.budget as u64;
    }
    let disagreements = report.findings.iter().filter(|f| f.disagreement).count();
    (c.faulted + disagreements) as u64
}

/// Every case of `cfg`, one at a time with spans around each call,
/// assembled into the report `run_discover_on` would give.
fn mirror(cfg: &DiscoverConfig, ledger: &mut Ledger) -> DiscoverReport {
    let mut report = DiscoverReport {
        budget: cfg.budget,
        seed: cfg.seed,
        findings: Vec::new(),
        quiet: 0,
        rejected: BTreeMap::new(),
        faulted: 0,
    };
    for index in 0..cfg.budget {
        match evaluate(cfg, index, ledger) {
            Disposition::Rejected(reason) => *report.rejected.entry(reason).or_insert(0) += 1,
            Disposition::Leak(f) => report.findings.push(*f),
            Disposition::Quiet => report.quiet += 1,
            Disposition::Faulted => report.faulted += 1,
        }
    }
    report
}

/// One case, exactly as the discover scenario's probe evaluates it,
/// plus the traced side calls.
fn evaluate(cfg: &DiscoverConfig, index: usize, l: &mut Ledger) -> Disposition {
    let case = l.time("bench.generate", || {
        generate_case(trial_seed(cfg.seed, index))
    });
    let assembled = l.time("isa.assemble", || assemble_ops(VICTIM, &case.ops));
    l.count("asm_attempts", 1);
    if assembled.is_ok() {
        l.time("pipeline.machine_new", || {
            drop(Machine::new(case.spec.profile(), CASE_PHYS));
        });
    } else {
        l.count("asm_rejects", 1);
    }
    match l.time("pipeline.case", || run_case(&case)) {
        CaseOutcome::Rejected(reason) => return Disposition::Rejected(reason),
        CaseOutcome::Faulted(_) => return Disposition::Faulted,
        CaseOutcome::Quiet(_) => return Disposition::Quiet,
        CaseOutcome::Leak(_) => {}
    }
    let min = l.time("bench.minimize", || minimize_case(&case));
    match l.time("pipeline.case", || run_case(&min)) {
        CaseOutcome::Leak(obs) => Disposition::Leak(Box::new(Finding {
            index,
            oracle_confirmed: l.time("gf2.oracle", || oracle_confirms(&min)),
            beyond_table1: beyond_table1(&min),
            stage: obs.stage,
            truth: obs.truth,
            disagreement: obs.disagreement,
            case: min,
        })),
        // The scenario counts a minimum that stopped leaking as a
        // fault.
        _ => Disposition::Faulted,
    }
}
