//! A user-defined microarchitecture, end to end: parse a spec file,
//! register it, and compare it against its builtin ancestor.
//!
//! `examples/uarch/whatif.spec` describes "Zen 2F" — Zen 2 with Zen 4's
//! fast decode resteer and a phantom execute budget of zero. The paper
//! ties observation O3 (transient *execution* of phantom targets on
//! Zen 1/2) to their slow decoder-detected resteer; the model does not
//! derive one from the other, so the spec sets both fields, and the
//! what-if machine shows the attack demoted from EX to ID.
//!
//! Run with: `cargo run --example custom_uarch`

use phantom::experiment::{run_combo, TrainKind, VictimKind};
use phantom::{UarchProfile, UarchRegistry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/uarch/whatif.spec");
    let text = std::fs::read_to_string(path)?;

    let mut registry = UarchRegistry::with_builtins();
    let keys = registry.register_text(&text)?;
    println!("registered from whatif.spec: {}", keys.join(", "));

    println!(
        "\n{:<24} {:>15} {:>6} {:>6} {:>6} {:>7}",
        "microarchitecture", "resteer(cycles)", "IF", "ID", "EX", "stage"
    );
    for name in ["zen2", "zen2f"] {
        let spec = registry.get(name).expect("registered");
        let profile = spec.profile();
        let resteer = profile.frontend_resteer_latency;
        let o = run_combo(profile, TrainKind::JmpInd, VictimKind::NonBranch, 0)?;
        println!(
            "{:<24} {:>15} {:>6} {:>6} {:>6} {:>7}",
            o.uarch.as_str(),
            resteer,
            o.fetched,
            o.decoded,
            o.executed,
            o.stage()
        );
    }

    // The spec round-trips through the canonical printer.
    let whatif = registry.get("zen2f").expect("registered").clone();
    let reparsed = phantom_pipeline::spec::parse_specs(&whatif.to_text())?;
    assert_eq!(reparsed, vec![whatif]);
    println!("\nspec -> text -> spec round-trip: ok");

    // Sanity: the what-if really is stock Zen 2 apart from the resteer
    // and the phantom execute budget.
    let (zen2, zen2f) = (
        UarchProfile::zen2(),
        registry.get("zen2f").unwrap().profile(),
    );
    assert_eq!(zen2.btb_scheme, zen2f.btb_scheme);
    assert_eq!(zen2.cache, zen2f.cache);
    assert!(zen2f.frontend_resteer_latency < zen2.frontend_resteer_latency);
    Ok(())
}
