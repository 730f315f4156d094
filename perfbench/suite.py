"""Run every workload over several seeds and summarise the spread.

Usage::

    python3 perfbench/suite.py OUT.jsonl [--trace]

Every workload of ``BENCHMARK.json`` runs with seeds 1 to 10, each run
``run.py`` in a child process with the ``run_seconds`` of
``BENCHMARK.json``; every run's result record is appended to ``OUT.jsonl``.
The table gives, per workload and end-to-end metric, the median and the
quartile spread (Q3 - Q1) / median of the runs, against the metric's bound.
``--trace`` adds one traced run per workload, with seed 1.  Compare two such
files with ``compare.py``, which pairs their runs by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    record_path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}", "result.json")
    with open(record_path) as fh:
        record = json.load(fh)
    record["result"] = result
    return record


def summarise(bench: dict, records: list):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in bench["workloads"]:
        rows = [r for r in records if r["workload"] == w["name"] and r["trace"] == 0]
        if not rows:
            continue
        bad = sum(r["result"]["failed"] for r in rows)
        print(f"{w['name']}: {len(rows)} runs, seeds {[r['seed'] for r in rows]}, failed commands {bad}")
        for name, bound in bounds.items():
            values = [r["end_to_end"][name]["value"] for r in rows]
            unit = rows[0]["end_to_end"][name]["unit"]
            s = spread(values)
            flag = "" if s <= bound / 3 else "  SPREAD ABOVE BOUND/3"
            print(
                f"  {name:<14} median {statistics.median(values):>12.6g} {unit:<6}"
                f" spread {s:7.2%} (bound {bound:.0%}){flag}"
            )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    bench = load_benchmark()
    records = []
    with open(args.out, "a") as out:
        for name in [w["name"] for w in bench["workloads"]]:
            plan = [(seed, 0) for seed in SEEDS]
            if args.trace:
                plan.append((SEEDS[0], 1))
            for seed, trace in plan:
                rec = run_once(bench, name, seed, trace)
                records.append(rec)
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print(f"{name} seed {seed} trace {trace}: correct {rec['result']['correct']}", flush=True)
    summarise(bench, records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
