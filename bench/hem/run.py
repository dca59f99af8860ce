#!/usr/bin/env python3
"""Builds hem_bench from this checkout and runs the benchmark.

    python3 bench/hem/run.py [--workload NAME|all] [--seed N] [--seconds N]
                             [--trace 0|1] [--smoke] [--bin PATH] [--out-dir DIR]

Every workload runs in a fresh hem_bench process (the runtime's MPSC block
pool and payload pools are process-wide, so sharing a process would make the
workload order matter). The results are merged into BENCH_hem.json (raw
per-rep samples, every metric with its unit, host metadata, the seed) and
BENCH_hem_spans.json (the benchmark's own spans, Chrome-trace format) in
--out-dir, default the current directory.

BENCHMARK.json, at the root of the checkout, names the workloads that "all"
runs and the metrics; hem_bench defines the workloads (workloads.json) and
rejects names it does not know. Every run checks that each workload reported
every metric BENCHMARK.json lists;
the last line of standard output is one JSON object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1 (for a single workload; with --workload all, the metric names are
prefixed "<workload>/"). The exit status is 0 only when every rep of every
workload passed its reference check and no metric is missing.

Without --bin the benchmark is configured and built with CMake into
$CARGO_TARGET_DIR/hem (default .bench_build/hem, relative to the checkout);
build output goes to standard error.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"wants a non-negative integer, got {text!r}")
    return int(text)


def positive_int(text):
    value = non_negative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("wants a positive integer")
    return value


def build():
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "hem"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # A configure that failed part-way leaves a cache but no build system.
    if not any((build_dir / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "hem_bench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "hem_bench"


def merge_spans(paths, names):
    events = []
    for pid, (path, name) in enumerate(zip(paths, names), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        for ev in json.loads(path.read_text())["traceEvents"]:
            ev["pid"] = pid
            events.append(ev)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description="Run the hem_bench benchmark.")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=non_negative_int, default=77)
    ap.add_argument("--seconds", type=positive_int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=1)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, 2 reps per engine (the ctest configuration)")
    ap.add_argument("--bin", type=Path, help="use this hem_bench instead of building one")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args()

    binary = args.bin.resolve() if args.bin else build()
    workloads = names if args.workload == "all" else [args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # Every result holds the end-to-end metrics; --trace 1 adds the layers.
    required = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    args.out_dir.mkdir(parents=True, exist_ok=True)

    results, span_files, problems = {}, [], []
    for name in workloads:
        out = args.out_dir / f"BENCH_hem_{name}.json"
        spans = args.out_dir / f"BENCH_hem_spans_{name}.json"
        cmd = [str(binary), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--json", str(out), "--spans", str(spans)]
        if args.smoke:
            cmd.append("--smoke")
        sys.stdout.flush()
        try:
            code = subprocess.run(cmd).returncode
        except OSError as e:
            fail(f"cannot run {binary}: {e}")
        if not out.exists():
            fail(f"{name}: hem_bench exited {code} without a result")
        result = json.loads(out.read_text())
        out.unlink()
        span_files.append(spans)
        results[name] = result
        if code != 0 or not result["correct"]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} reps failed")
        for m in required:
            got = result["metrics"].get(m["name"])
            if got is None or got["value"] is None:
                problems.append(f"{name}: metric {m['name']} missing")
            elif got["unit"] != m["unit"]:
                problems.append(f"{name}: metric {m['name']} in {got['unit']}, "
                                f"BENCHMARK.json says {m['unit']}")

    first, last = results[workloads[0]], results[workloads[-1]]
    host = dict(first["host"], loadavg_after=last["host"]["loadavg_after"])
    for r in results.values():
        del r["host"]
    merged = {"schema": "hem_bench/1", "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "host": host, "workloads": results}
    (args.out_dir / "BENCH_hem.json").write_text(json.dumps(merged, indent=1) + "\n")
    (args.out_dir / "BENCH_hem_spans.json").write_text(
        json.dumps(merge_spans(span_files, workloads)) + "\n")
    for path in span_files:
        path.unlink()

    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    prefix = (lambda w, m: m) if len(workloads) == 1 else (lambda w, m: f"{w}/{m}")
    metrics = {}
    for w in workloads:
        for m in wanted:
            got = results[w]["metrics"].get(m["name"])
            if got is not None and got["value"] is not None:
                metrics[prefix(w, m["name"])] = got
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
