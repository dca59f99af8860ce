#!/usr/bin/env python3
"""Throughput-regression guard for the wall-clock bench suite.

Compares invocations_per_sec in a fresh BENCH_wallclock.json against the
committed baseline (bench/throughput_baseline.json) and fails if any guarded
workload got slower by more than the baseline's max_slowdown_frac. Wall-clock
numbers on shared CI runners are noisy, so the tolerance is deliberately
generous (default 40%): the guard exists to catch order-of-magnitude
regressions — a hot path falling off the NB fast path — not single-digit
drift. Baselines are floors, not targets.

Usage: check_throughput_regression.py BENCH_wallclock.json [throughput_baseline.json]
"""

import json
import os
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench_path = sys.argv[1]
    baseline_path = (
        sys.argv[2]
        if len(sys.argv) > 2
        else os.path.join(os.path.dirname(__file__), "..", "bench", "throughput_baseline.json")
    )

    with open(bench_path) as f:
        bench = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    measured = {r["name"]: r for r in bench.get("results", [])}
    max_slowdown = float(baseline.get("max_slowdown_frac", 0.4))
    failures = []

    for name, base_inv_s in baseline["workloads"].items():
        row = measured.get(name)
        if row is None:
            failures.append(f"{name}: missing from {bench_path}")
            continue
        inv_s = row.get("invocations_per_sec")
        if inv_s is None:
            failures.append(f"{name}: no invocations_per_sec column in {bench_path}")
            continue
        floor = base_inv_s * (1.0 - max_slowdown)
        verdict = "FAIL" if inv_s < floor else "ok"
        print(
            f"{name}: inv/s {inv_s:,.0f} vs baseline {base_inv_s:,.0f} "
            f"(floor {floor:,.0f}) {verdict}"
        )
        if inv_s < floor:
            failures.append(
                f"{name}: invocations_per_sec {inv_s:,.0f} fell below baseline "
                f"{base_inv_s:,.0f} by more than {max_slowdown:.0%}"
            )

    if failures:
        print("\nThroughput regression detected:", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        print(
            "\nIf the slowdown is intentional (e.g. a correctness fix on the hot "
            "path), update bench/throughput_baseline.json in the same PR with a "
            "justification.",
            file=sys.stderr,
        )
        return 1
    print("throughput guard: all workloads at or above floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
