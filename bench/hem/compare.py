#!/usr/bin/env python3
"""Compares hem_bench results of two commits (choosing-metrics section 8).

    python3 bench/hem/compare.py --base B1.json B2.json ... --head H1.json H2.json ...

Each file is a BENCH_hem.json written by bench/hem/run.py, holding every
workload or just one. For each workload, its i-th base result and its i-th
head result form one pair; run at least ten pairs, alternating which commit
runs first, with the same --seconds on both sides.

For every (metric, workload) the report gives each side's median and
quartiles (statistics.quantiles, n=4), the fraction of pairs the head wins
(ties count for neither side), and a verdict against the BENCHMARK.json
bound of the end-to-end metrics:

  improved    the head wins at least 90% of the pairs and the medians differ
              by more than the base's own spread (its interquartile range);
  worse       the head's median is worse than the base's by more than the
              bound;
  unresolved  the base's spread (IQR over median) is wider than the bound,
              and not every head run beats every base run;
  unchanged   otherwise.

Per-layer metrics have no bound: they are reported as improved or worse by
the same win-fraction rule and "-" otherwise. The exit status is 1 when any
end-to-end pair is worse or the head failed more reps than the base, 2 on
bad input, else 0.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10


def load(path):
    try:
        data = json.loads(Path(path).read_text())
        return data["workloads"]
    except (OSError, ValueError, KeyError) as e:
        sys.exit(f"compare.py: {path}: not a BENCH_hem.json result ({e})")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, head, better, bound):
    """Returns (verdict, head win fraction) for one (metric, workload)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    win_frac = wins / len(base)
    b1, bmed, b3 = quartiles(base)
    hmed = statistics.median(head)
    gap = abs(hmed - bmed)
    if win_frac >= 0.9 and gap > b3 - b1:
        return "improved", win_frac
    if bound is None:
        return ("worse" if losses / len(base) >= 0.9 and gap > b3 - b1 else "-"), win_frac
    scale = abs(bmed) or 1.0
    if -sign * (hmed - bmed) / scale > bound:
        return "worse", win_frac
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    if (b3 - b1) / scale > bound and not all_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True, help="results of the parent commit")
    ap.add_argument("--head", nargs="+", required=True, help="results of the change")
    ap.add_argument("--benchmark", type=Path,
                    default=Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads(args.benchmark.read_text())
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]] + \
              [(m, None) for m in spec["per_layer"]]
    base = [load(p) for p in args.base]
    head = [load(p) for p in args.head]
    # A file may hold every workload (run.py --workload all) or just one; a
    # workload's i-th pair is its i-th base result and its i-th head result.
    runs = {}
    for w in (w["name"] for w in spec["workloads"]):
        b = [r[w] for r in base if w in r]
        h = [r[w] for r in head if w in r]
        if not b and not h:
            continue
        if len(b) != len(h) or len(b) < MIN_PAIRS:
            ap.error(f"{w}: {len(b)} base and {len(h)} head results; "
                     f"a verdict needs at least {MIN_PAIRS} pairs")
        runs[w] = (b, h)

    failed = {"base": sum(r["failed"] for b, _ in runs.values() for r in b),
              "head": sum(r["failed"] for _, h in runs.values() for r in h)}
    worse = False
    print(f"{'workload':<11} {'metric':<35} {'base median [q1, q3]':<36} "
          f"{'head median [q1, q3]':<36} {'change':>8} {'win':>5}  verdict")
    for m, bound in metrics:
        for w, (b, h) in runs.items():
            bv = [r["metrics"].get(m["name"], {}).get("value") for r in b]
            hv = [r["metrics"].get(m["name"], {}).get("value") for r in h]
            if any(v is None for v in bv + hv):
                continue
            v, win = verdict(bv, hv, m["better"], bound)
            worse |= v == "worse" and bound is not None
            b1, bmed, b3 = quartiles(bv)
            h1, hmed, h3 = quartiles(hv)
            change = (hmed - bmed) / abs(bmed) * 100.0 if bmed else 0.0
            print(f"{w:<11} {m['name']:<35} {bmed:<11.5g} [{b1:.5g}, {b3:.5g}]".ljust(85)
                  + f"{hmed:<11.5g} [{h1:.5g}, {h3:.5g}]".ljust(37)
                  + f"{change:>+7.2f}% {win:>5.2f}  {v}")
    print(f"failed reps: base {failed['base']}, head {failed['head']}")
    if failed["head"] > failed["base"]:
        print("compare.py: the head failed more reps than the base; no gain counts")
    sys.exit(1 if worse or failed["head"] > failed["base"] else 0)


if __name__ == "__main__":
    main()
