//! Cross-crate integration: the §6.4 covert channels stay inside the
//! paper's accuracy bands end to end.

use phantom::covert::{execute_channel_on, fetch_channel_on, table2_on, CovertConfig};
use phantom::runner::TrialRunner;
use phantom::UarchProfile;

const CFG: CovertConfig = CovertConfig {
    bits: 192,
    seed: 4096,
};

#[test]
fn fetch_channel_band_on_all_zen() {
    // Table 2-top band: 90.67%–100%.
    for profile in UarchProfile::amd() {
        let name = profile.name.clone();
        let r = fetch_channel_on(&TrialRunner::new(), profile, CFG).expect("channel");
        assert!(
            (0.85..=1.0).contains(&r.accuracy),
            "{name}: accuracy {} outside the Table 2 band",
            r.accuracy
        );
    }
}

#[test]
fn execute_channel_band_and_uarch_split() {
    // Table 2-bottom band on Zen 1/2…
    for profile in [UarchProfile::zen1(), UarchProfile::zen2()] {
        let name = profile.name.clone();
        let r = execute_channel_on(&TrialRunner::new(), profile, CFG).expect("channel");
        assert!(r.accuracy >= 0.85, "{name}: accuracy {}", r.accuracy);
    }
    // …and chance-level on Zen 4 (no phantom execution).
    let dead = execute_channel_on(&TrialRunner::new(), UarchProfile::zen4(), CFG).expect("channel");
    assert!(
        dead.accuracy < 0.7,
        "Zen 4 execute channel: {}",
        dead.accuracy
    );
}

#[test]
fn table2_emits_six_rows_in_paper_order() {
    let rows = table2_on(&TrialRunner::new(), CovertConfig { bits: 64, seed: 1 }).expect("table");
    assert_eq!(rows.len(), 6);
    let uarchs: Vec<&str> = rows.iter().map(|r| r.uarch.as_str()).collect();
    assert_eq!(uarchs, ["Zen", "Zen 2", "Zen 3", "Zen 4", "Zen", "Zen 2"]);
    assert!(rows[..4]
        .iter()
        .all(|r| format!("{}", r.kind).contains("fetch")));
    assert!(rows[4..]
        .iter()
        .all(|r| format!("{}", r.kind).contains("execute")));
    // Rates are simulated but finite and positive.
    assert!(rows
        .iter()
        .all(|r| r.bits_per_sec.is_finite() && r.bits_per_sec > 0.0));
}
