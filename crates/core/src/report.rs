//! Rendering of the paper's tables and figures: plain text here,
//! machine-readable JSON in [`json`] (built on the deterministic
//! value type in [`value`]).

pub mod json;
#[cfg(test)]
mod proptests;
pub mod value;

use crate::ablation::NoiseSweepPoint;
use crate::attacks::{KaslrImageResult, MdsLeakResult, PhysAddrResult, PhysmapResult};
use crate::collide::Figure7;
use crate::covert::CovertResult;
use crate::experiment::{Figure6Point, Table1Cell};
use crate::gadgets::GadgetCensus;
use crate::mitigations::OverheadResult;

fn rule(widths: &[usize]) -> String {
    let mut s = String::from("+");
    for w in widths {
        s.push_str(&"-".repeat(w + 2));
        s.push('+');
    }
    s
}

fn row(widths: &[usize], cells: &[String]) -> String {
    let mut s = String::from("|");
    for (w, c) in widths.iter().zip(cells) {
        s.push_str(&format!(" {c:<w$} |"));
    }
    s
}

/// Generic table renderer: header + rows, auto-sized columns.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    out.push_str(&rule(&widths));
    out.push('\n');
    out.push_str(&row(
        &widths,
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&rule(&widths));
    out.push('\n');
    for r in rows {
        out.push_str(&row(&widths, r));
        out.push('\n');
    }
    out.push_str(&rule(&widths));
    out.push('\n');
    out
}

/// Render Table 1: training × victim × microarchitecture stages.
pub fn render_table1(cells: &[Table1Cell]) -> String {
    let mut header = vec!["training", "victim"];
    let uarch_names: Vec<&str> = cells
        .first()
        .map(|c| c.stages.iter().map(|(n, _)| n.as_str()).collect())
        .unwrap_or_default();
    header.extend(uarch_names.iter());
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let mut r = vec![c.train.to_string(), c.victim.to_string()];
            r.extend(c.stages.iter().map(|(_, s)| s.to_string()));
            r
        })
        .collect();
    format!(
        "Table 1: deepest pipeline stage reached by each training x victim combination\n{}",
        render_table(&header, &rows)
    )
}

/// Render Table 2: covert-channel accuracy and rate.
pub fn render_table2(results: &[CovertResult]) -> String {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.kind.to_string(),
                r.uarch.to_string(),
                r.model.to_string(),
                format!("{:.2}%", r.accuracy * 100.0),
                format!("{:.0} bits/s", r.bits_per_sec),
            ]
        })
        .collect();
    format!(
        "Table 2: covert channel over {} bits (P1 fetch / P2 execute)\n{}",
        results.first().map_or(0, |r| r.bits),
        render_table(&["channel", "uarch", "model", "accuracy", "rate"], &rows)
    )
}

/// Render Table 3 rows (kernel-image KASLR runs).
pub fn render_table3(uarch: &str, runs: &[KaslrImageResult]) -> String {
    let correct = runs.iter().filter(|r| r.correct).count();
    let mut secs: Vec<f64> = runs.iter().map(|r| r.seconds).collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = secs.get(secs.len() / 2).copied().unwrap_or(0.0);
    format!(
        "Table 3 [{}]: kernel image KASLR — accuracy {}/{} ({:.0}%), median time {:.4}s (simulated)\n",
        uarch,
        correct,
        runs.len(),
        100.0 * correct as f64 / runs.len().max(1) as f64,
        median
    )
}

/// Render Table 4 rows (physmap KASLR runs).
pub fn render_table4(uarch: &str, runs: &[PhysmapResult]) -> String {
    let correct = runs.iter().filter(|r| r.correct).count();
    let mut secs: Vec<f64> = runs.iter().map(|r| r.seconds).collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = secs.get(secs.len() / 2).copied().unwrap_or(0.0);
    format!(
        "Table 4 [{}]: physmap KASLR — accuracy {}/{} ({:.0}%), median time {:.4}s (simulated)\n",
        uarch,
        correct,
        runs.len(),
        100.0 * correct as f64 / runs.len().max(1) as f64,
        median
    )
}

/// Render Table 5 rows (physical-address search runs).
pub fn render_table5(uarch: &str, memory_gib: u64, runs: &[PhysAddrResult]) -> String {
    let correct = runs.iter().filter(|r| r.correct).count();
    let mut secs: Vec<f64> = runs.iter().map(|r| r.seconds).collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = secs.get(secs.len() / 2).copied().unwrap_or(0.0);
    format!(
        "Table 5 [{} | {} GiB]: physical address — accuracy {}/{} ({:.0}%), median time {:.4}s (simulated)\n",
        uarch,
        memory_gib,
        correct,
        runs.len(),
        100.0 * correct as f64 / runs.len().max(1) as f64,
        median
    )
}

/// Render the Figure 6 sweep as an ASCII series.
pub fn render_figure6(points: &[Figure6Point]) -> String {
    let mut out = String::from("Figure 6: op-cache misses after the victim, by page offset of C\n");
    let max = points.iter().map(|p| p.misses).max().unwrap_or(1).max(1);
    for p in points {
        let bar = "#".repeat((p.misses * 40 / max) as usize);
        out.push_str(&format!("{:#06x} | {:>3} {}\n", p.offset, p.misses, bar));
    }
    out
}

/// Render the recovered Figure 7 functions in the paper's notation.
pub fn render_figure7(fig: &Figure7) -> String {
    let mut out = String::from("Figure 7: recovered cross-privilege BTB functions (Zen 3/4)\n");
    for (i, f) in fig.functions.iter().enumerate() {
        out.push_str(&format!("f{i} = {f}\n"));
    }
    out.push_str(&format!(
        "paper's XOR patterns (0xffffbff800000000, 0xffff8003ff800000) hold: {}\n",
        fig.paper_patterns_hold
    ));
    out
}

/// Render the §7.4 MDS leak result.
pub fn render_mds(r: &MdsLeakResult) -> String {
    format!(
        "MDS-gadget kernel leak: {} bytes, accuracy {:.1}%, signal {}, {:.1} B/s (simulated)\n",
        r.leaked.len(),
        r.accuracy * 100.0,
        if r.signal { "yes" } else { "no" },
        r.bytes_per_sec
    )
}

/// Render the noise-robustness sweep: adaptive covert-channel
/// accuracy, probe spend, and abstentions per noise knob setting.
pub fn render_noise_sweep(points: &[NoiseSweepPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.axis.to_string(),
                format!("{}", p.value),
                format!("{:.2}%", p.accuracy * 100.0),
                p.probes.to_string(),
                p.abstentions.to_string(),
                format!("{:.2}", p.mean_confidence),
            ]
        })
        .collect();
    format!(
        "Noise sweep: adaptive fetch channel, one knob swept per point\n{}",
        render_table(
            &[
                "knob",
                "value",
                "accuracy",
                "probes",
                "abstained",
                "mean conf"
            ],
            &rows
        )
    )
}

/// Render the gadget census (§9.1).
pub fn render_gadgets(c: &GadgetCensus) -> String {
    format!(
        "Gadget census: {} Spectre gadgets; +{} single-load MDS gadgets = {} with PHANTOM ({:.1}x)\n",
        c.spectre_gadgets,
        c.mds_gadgets,
        c.total_with_phantom,
        c.expansion_factor()
    )
}

/// Render the mitigation-overhead suite (§6.3).
pub fn render_overhead(r: &OverheadResult) -> String {
    let rows: Vec<Vec<String>> = r
        .per_workload
        .iter()
        .map(|(name, base, supp)| {
            vec![
                name.to_string(),
                base.to_string(),
                supp.to_string(),
                format!("{:+.3}%", (*supp as f64 / *base as f64 - 1.0) * 100.0),
            ]
        })
        .collect();
    format!(
        "SuppressBPOnNonBr overhead (geomean {:.2}%)\n{}",
        r.geomean_overhead_pct,
        render_table(
            &[
                "workload",
                "baseline cycles",
                "suppressed cycles",
                "overhead"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Stage;

    #[test]
    fn generic_table_renders_aligned() {
        let s = render_table(
            &["a", "bee"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(
            lines.iter().all(|l| l.len() == lines[0].len()),
            "aligned:\n{s}"
        );
    }

    #[test]
    fn table1_rendering_includes_all_uarchs() {
        let cells = vec![Table1Cell {
            train: crate::experiment::TrainKind::JmpInd,
            victim: crate::experiment::VictimKind::NonBranch,
            stages: vec![("Zen".into(), Stage::Ex), ("Zen 4".into(), Stage::Id)],
        }];
        let s = render_table1(&cells);
        assert!(s.contains("Zen 4"));
        assert!(s.contains("EX"));
        assert!(s.contains("non branch"));
    }

    #[test]
    fn figure6_bars_scale() {
        let points = vec![
            Figure6Point {
                offset: 0x0,
                hits: 8,
                misses: 0,
            },
            Figure6Point {
                offset: 0xac0,
                hits: 0,
                misses: 8,
            },
        ];
        let s = render_figure6(&points);
        assert!(s.contains("0x0ac0"));
        assert!(s.contains("########"));
    }

    #[test]
    fn attack_tables_render_accuracy_and_median() {
        use crate::attacks::KaslrImageResult;
        let runs = vec![
            KaslrImageResult {
                guessed_slot: 5,
                actual_slot: 5,
                correct: true,
                best_score: 12,
                confidence: 0.4,
                cycles: 1000,
                seconds: 0.5,
            },
            KaslrImageResult {
                guessed_slot: 3,
                actual_slot: 7,
                correct: false,
                best_score: 2,
                confidence: 0.0,
                cycles: 3000,
                seconds: 1.5,
            },
        ];
        let s = render_table3("Zen 3", &runs);
        assert!(s.contains("1/2"));
        assert!(s.contains("50%"));
        assert!(
            s.contains("1.5000s"),
            "median of [0.5, 1.5] at index 1: {s}"
        );
    }

    #[test]
    fn figure7_rendering_uses_paper_notation() {
        use phantom_gf2::RecoveredFunction;
        let fig = Figure7 {
            functions: vec![RecoveredFunction {
                mask: (1 << 47) | (1 << 35) | (1 << 23),
            }],
            samples_per_address: 10,
            paper_patterns_hold: true,
        };
        let s = render_figure7(&fig);
        assert!(s.contains("f0 = b47 ^ b35 ^ b23"));
        assert!(s.contains("hold: true"));
    }

    #[test]
    fn mds_rendering_summarizes() {
        use crate::attacks::MdsLeakResult;
        let r = MdsLeakResult {
            leaked: vec![1, 2, 3],
            accuracy: 1.0,
            signal: true,
            mean_confidence: 0.8,
            cycles: 100,
            seconds: 0.001,
            bytes_per_sec: 3000.0,
        };
        let s = render_mds(&r);
        assert!(s.contains("3 bytes"));
        assert!(s.contains("100.0%"));
        assert!(s.contains("signal yes"));
    }

    #[test]
    fn overhead_rendering_lists_workloads() {
        use crate::mitigations::OverheadResult;
        let r = OverheadResult {
            per_workload: vec![("arith", 1000, 1010), ("bigcode", 2000, 2040)],
            geomean_overhead_pct: 1.2,
        };
        let s = render_overhead(&r);
        assert!(s.contains("geomean 1.20%"));
        assert!(s.contains("bigcode"));
        assert!(s.contains("+2.000%"));
    }

    #[test]
    fn noise_sweep_rendering_lists_knobs() {
        let points = vec![NoiseSweepPoint {
            axis: "jitter_cycles",
            value: 4.0,
            accuracy: 0.984375,
            probes: 310,
            abstentions: 1,
            mean_confidence: 0.72,
        }];
        let s = render_noise_sweep(&points);
        assert!(s.contains("jitter_cycles"));
        assert!(s.contains("98.44%"));
        assert!(s.contains("310"));
    }

    #[test]
    fn gadget_rendering_shows_expansion() {
        use crate::gadgets::GadgetCensus;
        let c = GadgetCensus {
            spectre_gadgets: 183,
            mds_gadgets: 539,
            total_with_phantom: 722,
        };
        let s = render_gadgets(&c);
        assert!(s.contains("183"));
        assert!(s.contains("722"));
        assert!(s.contains("3.9x"));
    }
}
