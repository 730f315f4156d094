"""Per-layer metrics of a traced pass, from the records ``tracer.py`` writes.

Layers are the library's modules.  ``<layer>.self_s`` is the self time of
every span of that layer; ``process.self_s`` is the time a command spent
outside ``cli.main`` (interpreter start, imports, exit).  Times are summed
over the commands of one pass and, like the end-to-end times, scaled to the
reference machine speed by each command's ``speed`` factor.
"""

from __future__ import annotations

LAYERS = ("specdoc", "container", "chain", "mtype", "bisim", "indexed", "cli")
# The one traced function of chain, LimitElement.at, is counted but not
# timed (see tracer.py), so its time is part of its callers' self time.
TIMED_LAYERS = ("specdoc", "container", "mtype", "bisim", "indexed", "cli")


def _depth_of(args: list, counts: dict):
    """The depth to which a command asks for observations: for ``bisim``
    the depth its oracle reached (the divergence depth, or the bound when
    the states are not told apart), else ``--depth``; None where the
    command has no depth."""
    if args[0] == "bisim":
        return counts["oracle_depth"]
    if "--depth" in args:
        return int(args[args.index("--depth") + 1])
    return None


def pass_metrics(commands: list) -> dict:
    """``commands`` holds, per command of the pass, a dict with the command
    (``args``, ``kind``), its measured ``wall_s``, ``speed`` and
    ``stdout_bytes``, and its tracer ``record``."""
    stats: dict = {}
    counts = {"states": 0, "edges": 0, "dump_bytes": 0, "refine_blocks": 0, "dag_nodes": 0}
    import_s = process_s = check_indexed_s = 0.0
    approx_bytes = depth_calls = state_depths = spans = 0
    for c in commands:
        rec = c.get("record")
        if rec is None:  # a failed command; the failure is reported elsewhere
            continue
        speed = c["speed"]
        for name, (calls, incl, self_s, errors) in rec["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += calls
            acc[1] += incl * speed
            acc[2] += self_s * speed
            acc[3] += errors
        for k in counts:
            counts[k] += rec["counts"][k]
        import_s += rec["import_s"] * speed
        process_s += (c["wall_s"] - rec["stats"]["cli.main"][1]) * speed
        spans += len(rec["spans"]) + rec["dropped"]
        if c["kind"] == "indexed" and c["args"][0] == "check":
            check_indexed_s += rec["stats"]["cli.cmd_check"][1] * speed
        if c["args"][0] == "approx":
            approx_bytes += c["stdout_bytes"]
        depth = _depth_of(c["args"], rec["counts"])
        if depth is not None and rec["stats"]["mtype.approximate"][0]:
            depth_calls += rec["stats"]["mtype.approximate"][0]
            state_depths += rec["counts"]["states"] * (depth + 1)

    def calls(name):
        return stats.get(name, [0])[0]

    def incl(*names):
        return sum(stats.get(n, [0, 0.0])[1] for n in names)

    m = {
        "specdoc.load_s": incl("specdoc.load_spec"),
        "specdoc.states": counts["states"],
        "specdoc.edges": counts["edges"],
        "specdoc.dump_s": incl("specdoc.dump_document"),
        "specdoc.dump_bytes": counts["dump_bytes"],
        "bisim.partition_refine_s": incl("bisim.partition_refine"),
        "bisim.refine_blocks": counts["refine_blocks"],
        "bisim.minimize_s": incl("bisim.minimize"),
        "bisim.first_divergence_s": incl("bisim.first_divergence_depth"),
        "mtype.approximate_calls": calls("mtype.approximate"),
        "mtype.approximate_s": incl("mtype.approximate"),
        "mtype.approximate_calls_per_state_depth": (
            depth_calls / state_depths if state_depths else 0.0
        ),
        "mtype.out_into_s": incl("mtype.out", "mtype.into"),
        "mtype.verify_morphism_s": incl("mtype.verify_morphism"),
        "mtype.uniqueness_probe_s": incl("mtype.uniqueness_probe"),
        "chain.limit_at_calls": calls("chain.LimitElement.at"),
        "container.truncate_calls": calls("container.truncate"),
        "container.truncate_s": incl("container.truncate"),
        "indexed.iapproximate_calls": calls("indexed.iapproximate"),
        "indexed.iapproximate_s": incl("indexed.iapproximate"),
        "indexed.check_s": check_indexed_s,
        "cli.render_text_s": incl("cli.render_text"),
        "cli.tree_json_s": incl("cli.tree_json"),
        "cli.dag_nodes": counts["dag_nodes"],
        "cli.bytes_per_dag_node": approx_bytes / counts["dag_nodes"] if counts["dag_nodes"] else 0.0,
        "cli.import_s": import_s,
        "process.self_s": process_s,
        "trace.spans": spans,
    }
    for layer in LAYERS:
        names = [n for n in stats if n.split(".")[0] == layer]
        if layer in TIMED_LAYERS:
            m[f"{layer}.self_s"] = sum(stats[n][2] for n in names)
        m[f"{layer}.errors"] = sum(stats[n][3] for n in names)
    return m


def self_shares(m: dict) -> dict:
    """Each layer's share of the pass's self time, ``process`` included."""
    parts = {layer: m[f"{layer}.self_s"] for layer in TIMED_LAYERS + ("process",)}
    total = sum(parts.values())
    return {layer: v / total for layer, v in parts.items()} if total else {}
