//! Baseline comparison: conventional Spectre-V2 vs PHANTOM.
//!
//! Three measurements side by side, per microarchitecture:
//! 1. the classic Spectre-V2 leak (two-load gadget, backend window) —
//!    works everywhere;
//! 2. the window-width gap between backend and frontend resteers;
//! 3. whether a phantom (frontend-resteered) path can still execute a
//!    load — the Zen 1/2 privilege the exploits build on.
//!
//! Each per-microarchitecture row is one trial of a closure passed to
//! [`TrialRunner::map`] — the runner every reboot-per-run sweep in the
//! workspace uses — and the rows shard across its threads. Row order
//! and contents are identical at any thread count.
//!
//! Run with: `cargo run --release --example spectre_vs_phantom`

use phantom::experiment::{run_combo, TrainKind, VictimKind};
use phantom::runner::TrialRunner;
use phantom::spectre::{spectre_v2_leak, window_comparison};
use phantom::UarchProfile;

struct Row {
    uarch: phantom::IStr,
    leak_ok: bool,
    spectre_uops: u32,
    phantom_uops: u32,
    phantom_executed: bool,
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let profiles = UarchProfile::amd();
    // One trial per microarchitecture; each boots its own machines.
    let rows = TrialRunner::new().map(profiles.len(), 0, |trial| {
        let profile = &profiles[trial.index];
        let leak = spectre_v2_leak(profile.clone(), 0x5C)?;
        let w = window_comparison(profile);
        let combo = run_combo(profile.clone(), TrainKind::JmpInd, VictimKind::NonBranch, 0)?;
        Ok(Row {
            uarch: profile.name.clone(),
            leak_ok: leak.correct(),
            spectre_uops: w.spectre_uops,
            phantom_uops: w.phantom_uops,
            phantom_executed: combo.executed,
        })
    })?;

    println!(
        "{:<10} {:>14} {:>16} {:>16} {:>14}",
        "uarch", "spectre leak", "spectre window", "phantom window", "phantom EX"
    );
    for r in rows {
        println!(
            "{:<10} {:>14} {:>13} uop {:>13} uop {:>14}",
            r.uarch,
            if r.leak_ok { "0x5c ok" } else { "failed" },
            r.spectre_uops,
            r.phantom_uops,
            r.phantom_executed,
        );
    }
    println!();
    println!("Conventional Spectre leaks on every part — its window closes at");
    println!("execute. PHANTOM's window closes at decode: an order of magnitude");
    println!("narrower, zero execution on Zen 3/4 — and yet §7 turns the crumbs");
    println!("(one fetch, one decode, at most one load) into full KASLR breaks");
    println!("and, nested inside a Spectre window, arbitrary kernel reads.");
    Ok(())
}
