"""Expected answers, computed without the library.

Each ``expect_*`` function returns a checker: a callable that takes the
exit code and stdout bytes of one command and returns ``None`` when they
are right, or a one-line reason when they are not.
"""

from __future__ import annotations

import hashlib
import json


def moore_partitions(base: list):
    """Naive refinement of a small coalgebra given as ``[(label, children)]``
    over indices.  Yields the partition of depth-k observations (a list of
    block ids) for k = 0, 1, ... until it is stable; the last one is the
    bisimilarity partition."""
    part = [0] * len(base)
    count = 1
    yield part
    while True:
        ids: dict = {}
        nxt = [
            ids.setdefault((label, tuple(part[c] for c in kids)), len(ids))
            for label, kids in base
        ]
        yield nxt
        if len(ids) == count:
            return
        part, count = nxt, len(ids)


def classes_and_depths(base: list):
    """The bisimilarity class of every base state, and the list of all
    depth-k partitions (for first divergence depths)."""
    parts = list(moore_partitions(base))
    return parts[-1], parts


def divergence_depth(parts: list, i: int, j: int):
    """First depth at which base states i and j are observed differently,
    or None when they are bisimilar."""
    for k, part in enumerate(parts):
        if part[i] != part[j]:
            return k
    return None


def expect_bisim(depth):
    want = b"bisimilar\n" if depth is None else f"distinguishable at depth {depth}\n".encode()
    code = 0 if depth is None else 1

    def check(exit_code, out):
        if exit_code != code or out != want:
            return f"bisim: got exit {exit_code} {out[:60]!r}, want exit {code} {want!r}"
        return None

    return check


def expect_minimize(doc: dict, class_of):
    """The quotient keeps, per class, its earliest member in enumeration
    order, and maps every child to the representative of its class."""
    states = doc["coalgebra"]["states"]
    gamma = doc["coalgebra"]["gamma"]
    rep = {}
    for s in states:
        rep.setdefault(class_of(s), s)
    reps = list(rep.values())

    def check(exit_code, out):
        if exit_code != 0:
            return f"minimize: exit {exit_code}"
        try:
            got = json.loads(out)
        except ValueError as e:
            return f"minimize: output is not JSON: {e}"
        if got.get("signature") != doc["signature"]:
            return "minimize: signature changed"
        g = got.get("coalgebra", {})
        if g.get("states") != reps:
            return f"minimize: {len(g.get('states', []))} states, want {len(reps)}"
        for s in reps:
            want = {
                "label": gamma[s]["label"],
                "children": [rep[class_of(c)] for c in gamma[s]["children"]],
            }
            if g["gamma"].get(s) != want:
                return f"minimize: wrong transition for {s}"
        return None

    return check


PLAIN_CHECKS = ("compatibility", "out-into-roundtrip", "unfold-is-morphism", "unfold-uniqueness")
INDEXED_CHECKS = (
    "well-sorted",
    "compatibility",
    "i-out-i-into-roundtrip",
    "iunfold-is-morphism",
    "iunfold-uniqueness",
)


def expect_check(names):
    want = "".join(f"{n}: PASS\n" for n in names).encode()

    def check(exit_code, out):
        if exit_code != 0 or out != want:
            return f"check: exit {exit_code}, output {out[:80]!r}"
        return None

    return check


def full_tree_text(label: str, arity: int, depth: int) -> str:
    """``render_text`` of the depth-n observation of ``t -> label(t, ..., t)``."""
    text = "·"
    for _ in range(depth):
        text = f"{label}({', '.join([text] * arity)})"
    return text


def full_tree_json(label: str, arity: int, depth: int) -> str:
    """``json.dumps(tree, sort_keys=True, indent=2)`` of the same tree,
    written out iteratively (the stdlib encoder recurses per level)."""
    parts = []
    todo = [(depth, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        d, ind = item
        if d == 0:
            parts.append("null")
            continue
        key_pad = " " * (ind + 2)
        item_pad = " " * (ind + 4)
        parts.append("{\n" + key_pad + '"children": [\n')
        todo.append(
            "\n" + key_pad + "],\n" + key_pad + f'"label": {json.dumps(label)}\n' + " " * ind + "}"
        )
        for i in reversed(range(arity)):
            todo.append((d - 1, ind + 4))
            todo.append(item_pad if i == 0 else ",\n" + item_pad)
    return "".join(parts)


def expect_approx(label: str, arity: int, depth: int, fmt: str):
    text = (full_tree_text if fmt == "text" else full_tree_json)(label, arity, depth)
    want = hashlib.sha256((text + "\n").encode()).hexdigest()

    def check(exit_code, out):
        if exit_code != 0:
            return f"approx: exit {exit_code}"
        if hashlib.sha256(out).hexdigest() != want:
            return f"approx {fmt} depth {depth}: output differs from the expected tree"
        return None

    return check


def expect_demo_stream():
    """``demo stream`` prints the two-state alternating stream."""
    want = {
        "schema_version": "1",
        "signature": {"labels": ["0", "1"], "arity": {"0": 1, "1": 1}},
        "coalgebra": {
            "states": ["lo", "hi"],
            "gamma": {
                "lo": {"label": "0", "children": ["hi"]},
                "hi": {"label": "1", "children": ["lo"]},
            },
        },
    }

    def check(exit_code, out):
        try:
            ok = exit_code == 0 and json.loads(out) == want
        except ValueError:
            ok = False
        return None if ok else f"demo stream: exit {exit_code}, output {out[:60]!r}"

    return check
