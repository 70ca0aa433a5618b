#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of the simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the measuring program
(perfbench/, a package of its own) and the `repro` CLI from source into
$CARGO_TARGET_DIR (default .bench_build), then:

* computes, once per workload and seed, the reference JSONL that
  `repro serve` / `repro discover` write for the same configuration
  (cached in the build directory);
* with --trace 0, times set-up in several fresh processes, runs the
  workload untraced for --seconds in one more fresh process, and
  reports every end-to-end metric;
* with --trace 1, runs the traced mirror and reports the per-layer
  ledger (the full ledger is written to the build directory).

Either way the workload's records must match the reference byte for
byte. The last line of stdout is the result as one JSON object.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = SPEC["workloads"]
MOVES = SPEC["per_layer_moves"]
# Fresh processes that only set up; with the measuring processes' own
# set-up they give the median `setup_s` reports.
SETUP_SAMPLES = 16
# The untraced measurement runs in fresh processes of about
# --seconds / PROCESSES each (at least two whole passes each).
PROCESSES = 2


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    """Build the measuring program and the `repro` CLI (no-ops once built)."""
    for manifest, extra in (("perfbench/Cargo.toml", []), ("crates/bench/Cargo.toml", ["--bin", "repro"])):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def size_flags(workload):
    """The workload's size from workloads.json, as perfbench flags."""
    return [arg for key, value in WORKLOADS[workload]["size"].items() for arg in (f"--{key}", str(value))]


def repro_commands(repro, workload, seed, out):
    """The `repro` invocations whose concatenated output the workload must reproduce."""
    size = WORKLOADS[workload]["size"]
    if workload == "campaign_wide":
        head = [repro, "serve", "--bits", str(size["bits"])]
    else:
        head = [repro, "discover", "1"]
    return [
        [*head, "--seed", str((seed + k) % 2**64), "--workers", "1", "--out", f"{out}.{k}"]
        for k in range(size["seeds"])
    ]


def reference(repro, workload, seed, work, env):
    """The reference JSONL for (workload, seed), computed once and cached
    under a name that changes whenever the reference commands do."""
    key = hashlib.sha256(json.dumps(repro_commands("repro", workload, seed, "")).encode()).hexdigest()[:12]
    path = work / f"ref-{workload}-{seed}-{key}.jsonl"
    if not path.exists():
        tmp = work / f"ref-{workload}-{seed}.tmp"
        commands = repro_commands(str(repro), workload, seed, str(tmp))
        for cmd in commands:
            run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if run.returncode != 0:
                fail(f"reference run failed: {' '.join(cmd)}\n{run.stderr}")
        parts = [Path(cmd[-1]) for cmd in commands]
        text = b"".join(p.read_bytes() for p in parts)
        for p in parts:
            p.unlink()
        tmp.write_bytes(text)
        tmp.replace(path)
    return path.read_bytes()


def spawn(cmd, env):
    """Run a measuring process. Returns (seconds from spawn to its `ready`
    line, its remaining stdout lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    ready_s = time.perf_counter() - start
    rest = proc.stdout.read().splitlines()
    if proc.wait() != 0 or first.strip() != "ready":
        fail(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return ready_s, rest


def mismatched_records(produced, expected):
    """Records that differ from the reference (0 when the digests agree)."""
    if hashlib.sha256(produced).digest() == hashlib.sha256(expected).digest():
        return 0
    a, b = produced.splitlines(), expected.splitlines()
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    k = (len(xs) - 1) * pct / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(perfbench, args, env, work):
    """Set-up samples, then PROCESSES fresh measuring processes sharing
    --seconds. Each item (job or case) is reported at its fastest across
    every pass of every process: the host is a shared VM whose speed
    drifts by tens of percent between passes and between processes, and
    best-of-N per item keeps that drift out of the comparison."""
    common = ["--workload", args.workload, "--seed", str(args.seed), *size_flags(args.workload)]
    setups = [spawn([perfbench, "setup", *common], env)[0] for _ in range(SETUP_SAMPLES)]
    runs = []
    start = last = 0.0
    # Start another process only if it should end within --seconds.
    while not runs or time.perf_counter() - start + last <= args.seconds:
        path = work / f"out-{args.workload}-{args.seed}-{len(runs)}.jsonl"
        cmd = [perfbench, "run", *common, "--seconds", str(args.seconds / PROCESSES), "--jsonl", str(path)]
        began = time.perf_counter()
        start = start or began
        ready_s, lines = spawn(cmd, env)
        last = time.perf_counter() - began
        setups.append(ready_s)
        runs.append((json.loads(lines[-1]), path.read_bytes()))
    first, jsonl = runs[0]
    attempted = sum(out["attempted"] for out, _ in runs)
    failed = sum(out["failed"] for out, _ in runs)
    for out, records in runs[1:]:
        if records != jsonl:
            print("run.py: measuring processes disagree on the records", file=sys.stderr)
            failed += out["attempted"]
    passes = sum(out["passes"] for out, _ in runs)
    best = [min(times) for times in zip(*(out["item_ms"] for out, _ in runs))]
    lat = [ms for ms, timed in zip(best, first["timed"]) if timed]
    # The highest whole percentile with at least ten items beyond it.
    tail_pct = math.floor(100 * (1 - 10 / len(lat)))
    tail = percentile(lat, tail_pct)
    beyond = sum(x > tail for x in lat)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "trials_per_s": metric(first["units_per_pass"] / (sum(best) / 1e3), "1/s"),
        "job_ms_p50": metric(statistics.median(lat), "ms"),
        "job_ms_tail": metric(tail, "ms"),
        "max_rss_mb": metric(statistics.median(out["max_rss_mb"] for out, _ in runs), "MiB"),
    }
    unit = "cases" if args.workload == "discover" else "trials"
    print(f"{args.workload} seed {args.seed}: {passes} passes of {first['units_per_pass']} {unit} "
          f"in {len(runs)} processes, best of {passes} per item; {len(setups)} set-up samples")
    for name, m in metrics.items():
        note = f"   (p{tail_pct:g} of {len(lat)} items, {beyond} beyond it)" if name == "job_ms_tail" else ""
        print(f"  {name:<26} {m['value']:>14.6f} {m['unit']}{note}")
    for name, m in first["model"].items():
        print(f"  {name:<26} {m['value']:>14.6f} {m['unit']}   (model output)")
    return attempted, failed, metrics, jsonl


def traced(perfbench, args, env, work):
    ledger = work / f"ledger-{args.workload}-{args.seed}.json"
    jsonl = work / f"out-{args.workload}-{args.seed}-trace.jsonl"
    cmd = [perfbench, "trace", "--workload", args.workload, "--seed", str(args.seed),
           *size_flags(args.workload), "--jsonl", str(jsonl), "--ledger", str(ledger)]
    _, lines = spawn(cmd, env)
    out = json.loads(lines[-1])
    unmapped = [name for name in out["rows"] if name not in MOVES]
    if unmapped:
        fail(f"per-layer metrics missing from per_layer_moves in workloads.json: {', '.join(unmapped)}")
    print(f"per-layer ledger for {args.workload} (seed {args.seed}), two traced passes:")
    for name, row in out["rows"].items():
        value = "n/a" if row["value"] is None else f"{row['value']:.6f}"
        unit = "" if row["value"] is None else row["unit"]
        print(f"  {name:<40} {value:>14} {unit:<10} moves {MOVES[name]}")
    for line in lines[:-1]:
        print(line)
    print(f"  (ledger written to {ledger.relative_to(ROOT) if ledger.is_relative_to(ROOT) else ledger})")
    units = {"bench.count_mismatches": "count"}
    metrics = {name: metric(v, units.get(name, "frac")) for name, v in out["per_layer"].items()}
    return out["attempted"], out["failed"], metrics, jsonl.read_bytes()


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in 64 bits", 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    # The library reads PHANTOM_* variables itself (host-path toggles,
    # thread count, paper-scale sizes); an inherited one would silently
    # change the measured program. The benchmark sets none of them.
    inherited = sorted(k for k in os.environ if k.startswith("PHANTOM_"))
    if inherited:
        fail(f"refusing to run with {', '.join(inherited)} set", 2)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(env)
    perfbench = str(target / "release" / "perfbench")
    work = target / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    expected = reference(target / "release" / "repro", args.workload, args.seed, work, env)

    run = traced if args.trace else untraced
    attempted, failed, metrics, jsonl = run(perfbench, args, env, work)
    mismatched = mismatched_records(jsonl, expected)
    if mismatched:
        print(f"run.py: {mismatched} record(s) differ from the `repro` reference", file=sys.stderr)
    failed = min(attempted, failed + mismatched)
    print(f"  {'fail_frac':<26} {failed / attempted:>14.6f} frac   ({failed} of {attempted} failed the output check)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
