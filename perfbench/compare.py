#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py <base> <new>

<base> and <new> are directories of result files as run.py writes them to
<build>/results/ (or single files). For each workload and end-to-end
metric it prints the median of each side, the change, and whether the new
median is worse than the base by more than the metric's bound in
BENCHMARK.json. Results are only comparable from the same machine shape:
the comparison is refused when the two sides differ in nproc or in the
resolved AES tier. Exits 1 on a refusal, 2 when a metric regressed.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
    out = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("trace") == 0:
            out.append(r)
    return out


def shape(results):
    return {(r["provenance"]["nproc"], r["provenance"]["aes_backend"]) for r in results}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("compare: no untraced results on one side", file=sys.stderr)
        return 1
    sb, sn = shape(base), shape(new)
    if len(sb | sn) != 1:
        print(f"compare: refusing — machine shapes differ (nproc, AES tier): "
              f"base {sorted(sb)}, new {sorted(sn)}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    regressed = False
    for w in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(f"{w}: {sum(r['workload'] == w for r in base)} base runs, "
              f"{sum(r['workload'] == w for r in new)} new runs")
        for m in metrics:
            bv = [r["end_to_end"][m["name"]]["value"] for r in base
                  if r["workload"] == w and m["name"] in r["end_to_end"]]
            nv = [r["end_to_end"][m["name"]]["value"] for r in new
                  if r["workload"] == w and m["name"] in r["end_to_end"]]
            if not bv or not nv:
                print(f"  {m['name']:12s} not reported on both sides")
                continue
            b, n = statistics.median(bv), statistics.median(nv)
            change = (n - b) / b if b else 0.0
            worse = -change if m["better"] == "higher" else change
            flag = "REGRESSED" if worse > m["bound"] else ""
            regressed = regressed or bool(flag)
            print(f"  {m['name']:12s} {b:14.4g} -> {n:14.4g} {m['unit']:4s} "
                  f"{change:+7.1%} (bound {m['bound']:.0%}) {flag}")
    return 2 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
