"""Compare two result files written by ``suite.py``.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload row and each end-to-end metric of ``BENCHMARK.json`` it
prints the new median as a ratio of the base median, and a verdict:

- ``worse``: the new median is worse than the base median by more than the
  metric's bound;
- ``improved``: the new median is better by more than the base's own
  quartile spread, and the new run wins at least 9 of 10 seed-matched
  pairs;
- ``unresolved``: either side's quartile spread exceeds the bound, unless
  every new run is better (``improved``) or worse (``worse``) than every
  base run;
- ``unchanged``: otherwise.

Per-layer metrics of traced runs, when both files have them, are printed as
ratios only: they have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from suite import load_benchmark, spread


def load(path: str, trace: int) -> dict:
    """{workload: {seed: record}} for the runs in ``path`` with ``trace``."""
    rows: dict = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == trace:
                rows.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return rows


def verdict(base: list, new: list, bound: float, lower_is_better: bool, pairs: list) -> str:
    def better(a, b):
        return a < b if lower_is_better else a > b

    spread_b = spread(base)
    if max(spread_b, spread(new)) > bound:
        if all(better(n, b) for n in new for b in base):
            return "improved"
        if all(better(b, n) for n in new for b in base):
            return "worse"
        return "unresolved"
    mb, mn = statistics.median(base), statistics.median(new)
    worse_by = (mn - mb) / mb if mb else 0.0
    if not lower_is_better:
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    wins = sum(better(n, b) for b, n in pairs)
    if -worse_by > spread_b and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    bench = load_benchmark()
    base, new = load(args.base, 0), load(args.new, 0)
    tbase, tnew = load(args.base, 1), load(args.new, 1)
    for w in bench["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print(f"{name}: missing from {'base' if name not in base else 'new'}")
            continue
        b_runs, n_runs = base[name], new[name]
        seeds = sorted(set(b_runs) & set(n_runs))
        print(f"{name}: base {len(b_runs)} runs, new {len(n_runs)} runs, {len(seeds)} seed-matched pairs")
        for m in bench["end_to_end"]:
            key = m["name"]
            bv = [r["end_to_end"][key]["value"] for r in b_runs.values()]
            nv = [r["end_to_end"][key]["value"] for r in n_runs.values()]
            pairs = [
                (b_runs[s]["end_to_end"][key]["value"], n_runs[s]["end_to_end"][key]["value"])
                for s in seeds
            ]
            mb, mn = statistics.median(bv), statistics.median(nv)
            ratio = mn / mb if mb else float("nan")
            v = verdict(bv, nv, m["bound"], m["better"] == "lower", pairs)
            print(
                f"  {key:<14} {v:<10} new {mn:.6g} {m['unit']} = {ratio:.3f} x base {mb:.6g} {m['unit']}"
                f" (bound {m['bound']:.0%})"
            )
        if name in tbase and name in tnew:
            print("  per layer (traced runs; no bound, so no verdict):")
            for m in bench["per_layer"]:
                key = m["name"]
                mb = statistics.median(r["per_layer"][key]["value"] for r in tbase[name].values())
                mn = statistics.median(r["per_layer"][key]["value"] for r in tnew[name].values())
                if mb or mn:
                    ratio = f"{mn / mb:.3f}" if mb else "n/a"
                    print(f"    {key:<40} new {mn:.6g} {m['unit']} = {ratio} x base {mb:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
