"""End-to-end benchmark of the omegacoalg CLI.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is loaded from
``src/``).  The workload's specs are generated from the seed; then the
workload's pass of commands is replayed as a closed loop: one client, one
child process per command, the next command starting only after the
previous one has exited.  ``--seconds`` sets how many passes run: as many
as fit in that time at the workload's nominal pass time.  Every output is
checked against answers computed without the library (``oracle.py``).

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported (medians over passes; times scaled to a reference machine speed,
see ``CALIBRATION_REF_S``).  With ``--trace 1`` untraced and traced
passes alternate; the traced ones run each command under ``tracer.py`` and
give the per-layer metrics, and the difference of the two medians is the
tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record, and in traced runs every span,
is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
sys.pycache_prefix = os.path.join(OUT, "pycache")

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from spawner import Spawner  # noqa: E402

COMMAND_TIMEOUT_S = 60
SETUP_PER_PASS = 3
# No command starts, or runs on, later than this after the run starts, so a
# run ends within the 180 s it may take even when the program hangs.
RUN_DEADLINE_S = 150
# Times are reported at a reference machine speed: scaled by this over the
# calibration loop's time around each command (see spawner.calibrate).
CALIBRATION_REF_S = 0.020
EXIT_CONTRACT = {0, 1, 2, 3}


def child_env() -> dict:
    """The same clean environment for every child: no depth override, a
    fixed hash seed, and bytecode cached in the benchmark's own directory."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "PYTHONUTF8": "1",
        "PYTHONPYCACHEPREFIX": os.path.join(OUT, "pycache"),
        "LC_ALL": "C.UTF-8",
    }


class Runner:
    """Runs commands one at a time and checks every output."""

    def __init__(self, spawner: Spawner, run_dir: str, deadline: float):
        self.spawner = spawner
        self.deadline = deadline
        self.run_dir = run_dir
        self.env = child_env()
        self.attempted = 0
        self.failures = []
        self._verdicts = {}
        self._stdout = os.path.join(run_dir, "stdout")
        self._stderr = os.path.join(run_dir, "stderr")

    def run(self, args, check, traced_id=None) -> dict:
        """Run ``python -m omegacoalg ARGS`` (or the tracer around it) and
        return its measurements; failures are recorded, not raised."""
        if traced_id is None:
            argv = [sys.executable, "-m", "omegacoalg", *args]
        else:
            spans = os.path.join(self.run_dir, "spans.tmp")
            if os.path.exists(spans):
                os.remove(spans)
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans, str(traced_id), "--", *args]
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter()))
        r = self.spawner.run(argv, self.env, self.run_dir, self._stdout, self._stderr, timeout)
        with open(self._stdout, "rb") as fh:
            out = fh.read()
        with open(self._stderr, "rb") as fh:
            err = fh.read()
        r["stdout_bytes"] = len(out)
        speed = CALIBRATION_REF_S / r["calib_s"]
        r["speed"], r["wall"], r["cpu"] = speed, r["wall_s"] * speed, r["cpu_s"] * speed
        self.attempted += 1
        error = self._verdict(args, r, out, err, check)
        if error is None and traced_id is not None:
            try:
                with open(spans) as fh:
                    r["record"] = json.load(fh)
            except (OSError, ValueError) as e:
                error = f"no trace record: {e}"
        if error is not None:
            self.failures.append({"args": args, "error": error})
        return r

    def _verdict(self, args, r, out, err, check):
        if r["timed_out"]:
            return f"timed out after {r['wall_s']:.0f} s"
        if b"Traceback" in err:
            return "traceback: " + err.decode(errors="replace").strip().splitlines()[-1]
        if r["exit"] not in EXIT_CONTRACT:
            return f"exit code {r['exit']} outside the contract"
        if err:
            return "unexpected stderr: " + err.decode(errors="replace").strip()[:200]
        # Outputs repeat from pass to pass; check each distinct one once.
        key = (tuple(args), r["exit"], hashlib.sha256(out).digest())
        if key not in self._verdicts:
            self._verdicts[key] = check(r["exit"], out)
        return self._verdicts[key]


def run_pass(runner: Runner, cmds: list, traced: bool) -> list:
    """The pass's results; shorter than ``cmds`` if the deadline passed."""
    results = []
    for i, cmd in enumerate(cmds):
        if time.perf_counter() > runner.deadline:
            break
        r = runner.run(cmd.args, cmd.check, traced_id=i if traced else None)
        r["args"], r["kind"] = cmd.args, cmd.kind
        results.append(r)
    return results


def tail(values: list):
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest value.  Returns (value, percentile, sample count)."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def short(args: list) -> str:
    """A command line with spec paths cut to their file names."""
    return " ".join(os.path.basename(a) if a.endswith(".json") else a for a in args)


def pass_sum(passes: list, key: str) -> float:
    """Median over passes of the pass's sum of ``key``."""
    return statistics.median(sum(r[key] for r in p) for p in passes)


def end_to_end(passes: list, setup: list, attempted: int, failed: int) -> tuple:
    walls = [r["wall"] for p in passes for r in p]
    tail_s, tail_pct, n = tail(walls)
    m = {
        "total_s": (pass_sum(passes, "wall"), "s"),
        "cpu_s": (pass_sum(passes, "cpu"), "s"),
        "cmd_p50_ms": (statistics.median(walls) * 1000, "ms"),
        "cmd_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (max(r["maxrss_kb"] for p in passes for r in p) / 1024, "MB"),
        "output_bytes": (pass_sum(passes, "stdout_bytes"), "bytes"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(r["wall"] for r in setup), "s"),
    }
    details = {
        "per_command_ms": {
            short(r["args"]): statistics.median(p[i]["wall"] for p in passes) * 1000
            for i, r in enumerate(passes[0])
        },
        "cmd_tail_percentile": tail_pct,
        "cmd_samples": n,
        "passes": len(passes),
        "failed_ratio": failed / attempted,
        "unscaled": {
            "total_s": pass_sum(passes, "wall_s"),
            "cpu_s": pass_sum(passes, "cpu_s"),
            "setup_s": statistics.median(r["wall_s"] for r in setup),
            "calibration_s": statistics.median(r["calib_s"] for p in passes for r in p),
        },
        # Unscaled [wall, cpu, calibration] seconds of every command, by pass.
        "raw_s": {
            "setup": [[r["wall_s"], r["cpu_s"], r["calib_s"]] for r in setup],
            "passes": [[[r["wall_s"], r["cpu_s"], r["calib_s"]] for r in p] for p in passes],
        },
    }
    return m, details


def per_layer(untraced: list, traced: list) -> tuple:
    per_pass = [layers.pass_metrics(p) for p in traced]
    m = {k: statistics.median(pm[k] for pm in per_pass) for k in per_pass[0]}
    traced_total = pass_sum(traced, "wall")
    untraced_total = pass_sum(untraced, "wall")
    m["trace.total_s"] = traced_total
    m["trace.untraced_total_s"] = untraced_total
    m["trace.overhead_s"] = traced_total - untraced_total
    return m, {"self_share": layers.self_shares(m), "passes": len(traced)}


def declared_units(kind: str) -> dict:
    """Name -> unit of the ``kind`` metrics ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "omegacoalg", "cli.py")):
        print(f"perfbench: no omegacoalg sources under {SRC}", file=sys.stderr)
        return 2
    # Start the spawner first, while this process is still small.
    spawner = Spawner()
    try:
        result = measure(spawner, args, deadline)
    finally:
        spawner.close()
    print(json.dumps(result))
    return 0


def measure(spawner: Spawner, args, deadline: float) -> dict:
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(spawner, run_dir, deadline)
    cmds = workloads.build(args.workload, args.seed, os.path.join(run_dir, "specs"))

    # Warm the bytecode cache.  The no-op command is then timed before
    # every pass, so that setup_s samples the machine over the whole run.
    demo = oracle.expect_demo_stream()
    for _ in range(2):
        runner.run(["demo", "stream"], demo)
    setup = []

    # The number of passes is fixed by --seconds and the workload's nominal
    # pass time, so a faster or slower program is measured on the same
    # commands (and the tail percentile keeps its sample count).
    nominal = workloads.PASS_SECONDS[args.workload]
    if args.trace:
        plan = [False, True] * max(2, round(args.seconds / (3 * nominal)))
    else:
        plan = [False] * max(3, round(args.seconds / nominal))
    untraced, traced = [], []
    for is_traced in plan:
        setup += [runner.run(["demo", "stream"], demo) for _ in range(SETUP_PER_PASS)]
        done = traced if is_traced else untraced
        results = run_pass(runner, cmds, is_traced)
        # A pass cut by the deadline is kept only if there is no whole one.
        if len(results) == len(cmds) or not done:
            done.append(results)
        if len(results) < len(cmds):
            break
    if not any(untraced) or (args.trace and not any(traced)):
        raise SystemExit("perfbench: the run deadline passed before any command ran")

    failed = len(runner.failures)
    e2e, details = end_to_end(untraced, setup, runner.attempted, failed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "details": details,
        "failures": runner.failures[:20],
    }
    if args.trace:
        layer_m, layer_details = per_layer(untraced, traced)
        units = declared_units("per_layer")
        if set(units) != set(layer_m):
            raise SystemExit(f"perfbench: per-layer metrics differ from BENCHMARK.json: {set(units) ^ set(layer_m)}")
        metrics = {k: {"value": layer_m[k], "unit": u} for k, u in units.items()}
        record["per_layer"] = metrics
        record["details"].update(layer_details)
        spans = [
            {"pass": i, "args": r["args"], **r["record"]}
            for i, p in enumerate(traced)
            for r in p
            if "record" in r
        ]
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump(spans, fh)
    else:
        metrics = record["end_to_end"]
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    shutil.rmtree(os.path.join(run_dir, "specs"))
    for name in ("stdout", "stderr", "spans.tmp"):
        if os.path.exists(os.path.join(run_dir, name)):
            os.remove(os.path.join(run_dir, name))
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(record: dict):
    """Human-readable lines; the JSON result line follows them."""
    d = record["details"]
    print(f"workload {record['workload']} seed {record['seed']}: {d['passes']} untraced passes")
    for name, m in record["end_to_end"].items():
        extra = ""
        if name == "cmd_tail_ms":
            extra = f"  (p{d['cmd_tail_percentile']:.1f} of {d['cmd_samples']} commands)"
        if name == "ok_ratio":
            extra = f"  (failed_ratio {d['failed_ratio']:.4g})"
        print(f"  {name:<14} {m['value']:>14.6g} {m['unit']}{extra}")
    u = d["unscaled"]
    print(
        f"  unscaled: total_s {u['total_s']:.6g}, cpu_s {u['cpu_s']:.6g}, setup_s {u['setup_s']:.6g};"
        f" calibration loop {u['calibration_s'] * 1000:.2f} ms (reference {CALIBRATION_REF_S * 1000:.0f} ms)"
    )
    for cmd, ms in d["per_command_ms"].items():
        print(f"    {ms:>10.1f} ms  {cmd}")
    if "per_layer" in record:
        shares = ", ".join(f"{k} {v:.0%}" for k, v in sorted(d["self_share"].items(), key=lambda kv: -kv[1]))
        print(f"  self time by layer: {shares}")
        for name, m in record["per_layer"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"  FAILED {' '.join(f['args'])}: {f['error']}")


if __name__ == "__main__":
    sys.exit(main())
