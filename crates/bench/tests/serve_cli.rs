//! End-to-end tests of the `repro serve` campaign service through the
//! real binary: argument errors exit 2 with usage, the environment
//! changes nothing, and kill-then-`--resume` reproduces the
//! uninterrupted JSONL byte for byte.

use std::path::PathBuf;
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn repro(args: &[&str]) -> Output {
    Command::new(REPRO)
        .args(args)
        .output()
        .expect("spawn repro")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("phantom-serve-{name}-{}", std::process::id()));
    p
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A tiny grid: one uarch × 3 scenarios × 5 noise points = 15 jobs at
/// 2 bits each.
fn tiny_args(out: &str) -> Vec<&str> {
    vec![
        "serve",
        "--uarch",
        "zen2",
        "--bits",
        "2",
        "--out",
        out,
        "--workers",
        "2",
    ]
}

#[test]
fn bad_workers_exits_2_with_usage() {
    for bad in ["0", "-3", "many", ""] {
        let out = repro(&["serve", "--workers", bad]);
        assert_eq!(out.status.code(), Some(2), "--workers {bad:?}");
        let err = stderr(&out);
        assert!(err.contains("usage:"), "no usage text for {bad:?}: {err}");
        assert!(err.contains("--workers") || err.contains("requires a value"));
    }
    // Missing value entirely.
    let out = repro(&["serve", "--workers"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn serve_only_flags_on_other_commands_exit_2_with_usage() {
    for args in [
        &["table2", "--resume", "x.jsonl"][..],
        &["bench", "--bits", "8"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("only valid with the serve command"));
        assert!(stderr(&out).contains("usage:"));
    }
    // --out/--seed are shared by serve and discover; --corpus is
    // discover-only.
    let out = repro(&["all", "--out", "x.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("only valid with the serve and discover commands"));
    let out = repro(&["table2", "--corpus", "dir"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("only valid with the discover command"));
}

/// A zero count is a usage error, as `--bits 0` and `--workers 0`
/// are: scoring an empty run would print `NaN bits/s` and `0/0` rows.
/// Only discover takes 0 (an empty summary).
#[test]
fn zero_counts_exit_2_with_usage() {
    for cmd in [
        "table2",
        "table3",
        "table4",
        "table5",
        "mds",
        "pht-channel",
        "noise-sweep",
    ] {
        let out = repro(&[cmd, "0"]);
        assert_eq!(out.status.code(), Some(2), "{cmd} 0: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("expected a positive integer"), "{cmd}: {err}");
        assert!(err.contains("usage:"), "{cmd}: {err}");
    }
    let path = tmp("discover-0");
    let out = repro(&["discover", "0", "--out", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn unreadable_resume_file_exits_2_with_usage() {
    let out = repro(&["serve", "--resume", "/nonexistent/campaign.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--resume"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

/// `repro` reads no environment: with the retired `PHANTOM_THREADS`
/// and `PHANTOM_FULL` knobs set to garbage, a tiny campaign still
/// succeeds and writes the same bytes as a run in a clean environment.
#[test]
fn the_environment_changes_nothing() {
    let run = |name: &str, env: &[(&str, &str)]| {
        let path = tmp(name);
        let out = Command::new(REPRO)
            .args(tiny_args(path.to_str().unwrap()))
            .env_clear()
            .envs(env.iter().copied())
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(0), "{name}: {}", stderr(&out));
        let bytes = std::fs::read(&path).expect("campaign written");
        std::fs::remove_file(&path).ok();
        bytes
    };
    let clean = run("env-clean", &[]);
    let garbage = run(
        "env-garbage",
        &[("PHANTOM_THREADS", "banana"), ("PHANTOM_FULL", "yes")],
    );
    assert!(!clean.is_empty());
    assert!(clean == garbage, "environment changed the JSONL");
}

/// The flagship resume property through the real binary: run a small
/// campaign, truncate its output mid-file (tearing a record), resume
/// from the truncation, and require the final file to be byte-identical
/// to the uninterrupted one — across different worker counts.
#[test]
fn truncate_then_resume_is_byte_identical() {
    let full_path = tmp("full");
    let out = repro(&tiny_args(full_path.to_str().unwrap()));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let full = std::fs::read(&full_path).expect("campaign output exists");
    assert!(full.ends_with(b"\n"));
    assert_eq!(full.iter().filter(|&&b| b == b'\n').count(), 15);

    // Tear the file roughly in half, mid-record.
    let part_path = tmp("part");
    std::fs::write(&part_path, &full[..full.len() / 2]).unwrap();

    let resumed_path = tmp("resumed");
    let mut args = vec!["serve", "--uarch", "zen2", "--bits", "2", "--workers", "4"];
    let part = part_path.to_str().unwrap().to_string();
    let resumed = resumed_path.to_str().unwrap().to_string();
    args.extend(["--resume", &part, "--out", &resumed]);
    let out = repro(&args);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("resuming"),
        "no resume note: {}",
        stderr(&out)
    );

    let rejoined = std::fs::read(&resumed_path).unwrap();
    assert_eq!(rejoined, full, "resume diverged from uninterrupted run");

    for p in [&full_path, &part_path, &resumed_path] {
        std::fs::remove_file(p).ok();
    }
}

/// A resume file whose first line nests 100k arrays deep is a foreign
/// line like any other: the JSON reader refuses it with an error
/// instead of overflowing the stack, so the campaign restarts from job
/// 0, succeeds, and matches the uninterrupted run.
#[test]
fn deeply_nested_resume_line_restarts_from_job_0() {
    let full_path = tmp("deep-full");
    let out = repro(&tiny_args(full_path.to_str().unwrap()));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let full = std::fs::read(&full_path).expect("campaign output exists");

    let deep_path = tmp("deep");
    let mut deep = "[".repeat(100_000).into_bytes();
    deep.push(b'\n');
    deep.extend_from_slice(&full);
    std::fs::write(&deep_path, deep).unwrap();

    let resumed_path = tmp("deep-resumed");
    let mut args = tiny_args(resumed_path.to_str().unwrap());
    args.extend(["--resume", deep_path.to_str().unwrap()]);
    let out = repro(&args);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("0/15 jobs already complete"),
        "{}",
        stderr(&out)
    );
    assert_eq!(std::fs::read(&resumed_path).unwrap(), full);

    for p in [&full_path, &deep_path, &resumed_path] {
        std::fs::remove_file(p).ok();
    }
}

/// Every flag belongs to the commands that read it. The snapshot flags
/// (`--json`, `--baseline`, `--tolerance`) belong to bench, noise-sweep
/// and pht-channel, `--host-meta` to bench, and `--uarch` to figure6,
/// serve and all. Given to any other command they exit 2 with usage
/// instead of being silently dropped.
#[test]
fn scoped_flags_on_other_commands_exit_2_with_usage() {
    let snapshot = "the bench, noise-sweep and pht-channel commands";
    for (args, scope) in [
        (&["table1", "--baseline", "/nonexistent.json"][..], snapshot),
        (&["table1", "--json", "x.json"][..], snapshot),
        (&["serve", "--tolerance", "2"][..], snapshot),
        (&["noise-sweep", "--host-meta"][..], "the bench command"),
        (
            &["table2", "--uarch", "zen2"][..],
            "the figure6, serve and all commands",
        ),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(&format!("only valid with {scope}")), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
    // --full is read only by the commands whose sizes it sets.
    let out = repro(&["list-uarchs", "--full"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--full is only valid with the figure6, figure7"));
    // --spec and --workers are read by every command.
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/uarch/whatif.spec"
    );
    let out = repro(&["list-uarchs", "--workers", "1", "--spec", spec]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

/// A bare `--json`/`--baseline` still selects bench: the snapshot is
/// written, and an unreadable baseline is a run failure (exit 1), not
/// a usage error.
#[test]
fn bare_snapshot_flags_select_bench() {
    let path = tmp("bare-bench");
    let out = repro(&[
        "--json",
        path.to_str().unwrap(),
        "--baseline",
        "/nonexistent/baseline.json",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("repro bench failed"),
        "{}",
        stderr(&out)
    );
    let snap = std::fs::read_to_string(&path).expect("bench wrote the snapshot");
    assert!(snap.starts_with("{\n  \"schema\": \"phantom-bench/v1\""));
    std::fs::remove_file(&path).ok();
}

/// A baseline that nests too deep is a schema error (exit 1), not a
/// stack-overflow abort.
#[test]
fn deeply_nested_baseline_fails_cleanly() {
    let path = tmp("deep-baseline");
    std::fs::write(&path, "[".repeat(100_000)).unwrap();
    let out = repro(&["noise-sweep", "8", "--baseline", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("nesting too deep"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_file(&path).ok();
}

/// A spec whose tables would not fit in memory is a spec error (exit
/// 2), like any other invalid field — not an allocation abort (134)
/// when `--spec` builds its machine. The non-power-of-two case is the
/// control that always exited 2.
#[test]
fn oversized_spec_tables_exit_2() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/uarch/");
    for (file, from, to) in [
        ("whatif.spec", "cache.l1i 64 8 64", "cache.l1i 63 8 64"),
        (
            "whatif.spec",
            "cache.l1i 64 8 64",
            "cache.l1i 64 4294967295 64",
        ),
        ("m1_firestorm.spec", "cbp.ways 2", "cbp.ways 4294967295"),
    ] {
        let text = std::fs::read_to_string(format!("{dir}{file}")).unwrap();
        assert!(text.contains(from), "{file} has {from:?}");
        let path = tmp(&format!("oversized-{}", to.replace(' ', "_")));
        std::fs::write(&path, text.replace(from, to)).unwrap();
        for args in [
            vec!["list-uarchs", "--spec", path.to_str().unwrap()],
            vec!["--spec", path.to_str().unwrap()],
        ] {
            let out = repro(&args);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{to}: {args:?}: {}",
                stderr(&out)
            );
            assert!(
                stderr(&out).contains("invalid spec field"),
                "{to}: {}",
                stderr(&out)
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
