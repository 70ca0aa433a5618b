//! End-to-end tests of the `repro serve` campaign service through the
//! real binary: argument errors exit 2 with usage, `--workers` beats
//! `PHANTOM_THREADS`, and kill-then-`--resume` reproduces the
//! uninterrupted JSONL byte for byte.

use std::path::PathBuf;
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn repro(args: &[&str]) -> Output {
    Command::new(REPRO)
        .args(args)
        .env_remove("PHANTOM_THREADS")
        .env_remove("PHANTOM_FULL")
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
        &["bench", "--ab"][..],
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

#[test]
fn unreadable_resume_file_exits_2_with_usage() {
    let out = repro(&["serve", "--resume", "/nonexistent/campaign.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--resume"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

/// `--workers` takes precedence over `PHANTOM_THREADS`: with the flag
/// given, a garbage env value is never consulted, never validated, and
/// the run succeeds. Without the flag, the same env value is a CLI
/// error (exit 2).
#[test]
fn workers_flag_overrides_phantom_threads() {
    let path = tmp("precedence");
    let out = Command::new(REPRO)
        .args(tiny_args(path.to_str().unwrap()))
        .env("PHANTOM_THREADS", "banana")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("on 2 threads"), "{}", stderr(&out));

    let out = Command::new(REPRO)
        .args(["serve", "--uarch", "zen2", "--bits", "2"])
        .env("PHANTOM_THREADS", "banana")
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(2),
        "env must be validated sans flag"
    );
    assert!(stderr(&out).contains("PHANTOM_THREADS"));
    std::fs::remove_file(&path).ok();
}

/// `PHANTOM_FULL` accepts only unset, `0` or `1`: a value like `true`
/// or `yes` is a CLI error (exit 2) naming the variable, not a silent
/// fall-back to the quick protocol.
#[test]
fn phantom_full_is_validated() {
    let with_full = |value: &str| {
        Command::new(REPRO)
            .arg("list-uarchs")
            .env_remove("PHANTOM_THREADS")
            .env("PHANTOM_FULL", value)
            .output()
            .expect("spawn repro")
    };
    for bad in ["true", "yes", "2", ""] {
        let out = with_full(bad);
        assert_eq!(out.status.code(), Some(2), "PHANTOM_FULL={bad:?}");
        assert!(stderr(&out).contains("PHANTOM_FULL"), "{}", stderr(&out));
    }
    for good in ["0", "1"] {
        let out = with_full(good);
        assert_eq!(
            out.status.code(),
            Some(0),
            "PHANTOM_FULL={good:?}: {}",
            stderr(&out)
        );
    }
    assert_eq!(repro(&["list-uarchs"]).status.code(), Some(0), "unset");
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
