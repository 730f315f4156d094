"""Run one CLI command with spans around the library's public functions.

Usage: ``python tracer.py SPANS_FILE COMMAND_ID -- <cli arguments>``

The program itself is not changed.  Before ``cli.main`` runs, this script
rebinds each traced public name in every ``omegacoalg`` module that
imported it, so calls made through any of those modules pass through a
wrapper.  The wrapper records a span (id, parent id, name, start, end) and
keeps per-name counts, inclusive time, self time (inclusive time minus the
time of the spans it directly contains) and exceptions raised.  Spans stay
in memory and are written to ``SPANS_FILE`` when the command ends.
Hot functions are called millions of times, so only the first
``SPAN_CAP`` spans are kept; counts and times cover every call.
``LimitElement.at`` is a memo lookup, called about a million times in one
``check``: timing it would mostly time the wrapper, so its calls and
exceptions are counted without a span or a clock reading.  Self times
leave out the wrappers' own work, measured per call by ``calibrate``
before the command runs; inclusive times still contain it.
"""

from __future__ import annotations

import json
import sys
import time

SPAN_CAP = 20000

clock = time.perf_counter


class Tracer:
    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans = []
        self.dropped = 0
        self.stack = []  # [span id, time covered by direct children]
        self.stats = {}  # name -> [calls, inclusive s, self s, errors]
        self.next_id = 1
        self.counts = {"states": 0, "edges": 0, "dump_bytes": 0, "refine_blocks": 0, "oracle_depth": 0}
        self.answers = []  # trees handed to the renderers, counted at exit
        # Seconds per call of the wrappers' own work: a timed wrapper's
        # outside its clock readings (charged to the caller), inside them
        # (charged to the call), and a counting wrapper's.  Self times leave
        # them out; see calibrate().
        self.costs = [0.0, 0.0, 0.0]

    def calibrate(self, n=10000, trials=3):
        """Measure ``costs`` on a function that does nothing, with a parent
        span open and the span store full, as in a long command.  Each cost
        is the smallest of ``trials`` measurements."""
        probe = Tracer(0)
        probe.stack.append([0, 0.0])
        probe.spans.extend([None] * SPAN_CAP)

        def noop():
            return None

        timed, counted = probe.wrap("noop", noop), probe.count("noop-counted", noop)

        def per_call(fn):
            t0 = clock()
            for _ in range(n):
                fn()
            return (clock() - t0) / n

        def empty_loop():
            t0 = clock()
            for _ in range(n):
                pass
            return (clock() - t0) / n

        outside, inside, count = [], [], []
        for _ in range(trials):
            loop = empty_loop()
            bare = per_call(noop)
            before = probe.stats["noop"][1]
            total = per_call(timed)
            within = (probe.stats["noop"][1] - before) / n
            outside.append(total - within - loop)
            inside.append(within - (bare - loop))
            count.append(per_call(counted) - bare)
        self.costs[:] = [max(0.0, min(v)) for v in (outside, inside, count)]

    def wrap(self, name, fn, after=None, outermost=None):
        """A wrapper that records a span per call.  ``after(result, args)``
        runs outside the span.  ``outermost=(module, attr)`` names where the
        wrapper is bound; for a recursive function it is unbound during the
        call, so only the outermost call is recorded."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, costs = self.stack, self.spans, self.costs

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            if outermost:
                setattr(*outermost, fn)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                t1 = clock()
                if outermost:
                    setattr(*outermost, wrapper)
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur + costs[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1] - costs[1]
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, name, t0, t1))
                else:
                    self.dropped += 1
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def count(self, name, fn):
        """A wrapper that counts calls and exceptions, with no span."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, costs = self.stack, self.costs

        def wrapper(*args, **kwargs):
            stats[0] += 1
            if stack:
                stack[-1][1] += costs[2]
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise

        return wrapper

    def on_load(self, doc, args):
        gamma = doc.raw["coalgebra"]["gamma"]
        self.counts["states"] += len(gamma)
        self.counts["edges"] += sum(len(entry["children"]) for entry in gamma.values())

    def on_dump(self, text, args):
        self.counts["dump_bytes"] += len(text.encode())

    def on_partition(self, partition, args):
        self.counts["refine_blocks"] += len(partition.blocks)

    def on_divergence(self, depth, args):
        """The depth the oracle reached: the divergence depth, or its bound
        when the states are not told apart."""
        reached = args[3] if depth is None else depth
        self.counts["oracle_depth"] = max(self.counts["oracle_depth"], reached)

    def on_render(self, result, args):
        self.answers.append(args[0])

    def dag_nodes(self) -> int:
        """Distinct nodes of the rendered answers, reached through the
        public ``children`` field of each tree."""
        seen = set()
        for root in self.answers:
            todo = [root]
            while todo:
                t = todo.pop()
                if id(t) not in seen:
                    seen.add(id(t))
                    todo.extend(t.children)
        return len(seen)

    def install(self):
        from omegacoalg import bisim, chain, cli, container, indexed, mtype, specdoc

        targets = [
            (specdoc, "load_spec", self.on_load),
            (specdoc, "dump_document", self.on_dump),
            (container, "truncate", None),
            (mtype, "approximate", None),
            (mtype, "out", None),
            (mtype, "into", None),
            (mtype, "verify_morphism", None),
            (mtype, "uniqueness_probe", None),
            (bisim, "partition_refine", self.on_partition),
            (bisim, "first_divergence_depth", self.on_divergence),
            (bisim, "minimize", None),
            (indexed, "iapproximate", None),
            (cli, "cmd_approx", None),
            (cli, "cmd_bisim", None),
            (cli, "cmd_minimize", None),
            (cli, "cmd_check", None),
            (cli, "cmd_demo", None),
        ]
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("omegacoalg")]
        for home, attr, after in targets:
            original = getattr(home, attr)
            wrapper = self.wrap(f"{home.__name__.split('.')[-1]}.{attr}", original, after)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is original:
                        setattr(m, k, wrapper)
        for attr in ("render_text", "tree_json"):
            original = getattr(cli, attr)
            setattr(cli, attr, self.wrap(f"cli.{attr}", original, self.on_render, (cli, attr)))
        chain.LimitElement.at = self.count("chain.LimitElement.at", chain.LimitElement.at)
        return self.wrap("cli.main", cli.main)

    def dump(self, path: str, import_s: float):
        record = {
            "cmd": self.cmd_id,
            "import_s": import_s,
            "stats": self.stats,
            "counts": dict(self.counts, dag_nodes=self.dag_nodes()),
            "dropped": self.dropped,
            "wrapper_costs_s": self.costs,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def main():
    spans_path, cmd_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE COMMAND_ID -- <cli arguments>")
    t0 = clock()
    import omegacoalg.cli  # noqa: F401

    import_s = clock() - t0
    tracer = Tracer(int(cmd_id))
    tracer.calibrate()
    main_fn = tracer.install()
    try:
        code = main_fn(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
