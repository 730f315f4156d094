"""The four workloads: fixed lists of CLI commands on seeded specs.

A workload is one pass of commands, replayed in a closed loop.  Sizes and
depths are fixed here, so a pass costs about the same for every seed; the
seed only changes the wiring, names and labels of the specs.  Why each
workload exists, and which layer it should and should not stress, is
recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracle
import specgen

BRANCHING = {"a": 2, "b": 2, "c": 1, "z": 0}


@dataclass
class Command:
    args: list  # arguments after ``python -m omegacoalg``
    check: Callable[[int, bytes], Optional[str]]
    kind: str = "plain"  # the spec's kind, "plain" or "indexed"


def _write(outdir: str, name: str, doc: dict) -> str:
    path = os.path.join(outdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _planted_classes(pb: specgen.PlantedBlocks):
    classes, parts = oracle.classes_and_depths(pb.base)
    return (lambda s: classes[pb.base_of[s]]), parts


def _bisim(path, s, t, depth) -> Command:
    return Command(["bisim", "--spec", path, "--left", s, "--right", t], oracle.expect_bisim(depth))


def _minimize(path, doc, class_of) -> Command:
    return Command(["minimize", "--spec", path], oracle.expect_minimize(doc, class_of))


def bisim_deep(rng: random.Random, outdir: str) -> list:
    cmds = []
    cyc = specgen.MarkerCycle(rng, 800)
    doc = cyc.doc()
    path = _write(outdir, "cycle800", doc)
    cmds.append(_minimize(path, doc, cyc.block_of))
    s, t = cyc.pair(rng, 700)
    cmds.append(_bisim(path, s, t, cyc.divergence_depth(s, t)))

    # A marker cycle of 200 blown up to 2000 states: 200 refinement rounds
    # over 2000 states, and a divergence depth of up to 200.
    pb = specgen.PlantedBlocks(
        rng, 2000, specgen.MarkerCycle.labels, base=specgen.marker_cycle_base(200, rng.randrange(200))
    )
    doc = pb.doc()
    path = _write(outdir, "plantedcycle2000", doc)
    class_of, parts = _planted_classes(pb)
    cmds.append(_minimize(path, doc, class_of))
    i = rng.randrange(200)
    j = (i + 100) % 200
    s, t = rng.choice(pb.members[i]), rng.choice(pb.members[j])
    cmds.append(_bisim(path, s, t, oracle.divergence_depth(parts, i, j)))

    # A bisimilar pair: the oracle runs to its bound |S|.
    pb = specgen.PlantedBlocks(
        rng, 800, specgen.MarkerCycle.labels, base=specgen.marker_cycle_base(80, rng.randrange(80))
    )
    path = _write(outdir, "plantedcycle800", pb.doc())
    block = pb.members[rng.randrange(80)]
    s, t = rng.sample(block, 2)
    cmds.append(_bisim(path, s, t, None))
    return cmds


def minimize_bulk(rng: random.Random, outdir: str) -> list:
    cmds = []
    planted = []
    # Two specs of the largest size, so that the tail percentile of a run
    # falls among the heaviest commands rather than at the edge of a group.
    for name, n in (("a", 10**4), ("b", 3 * 10**4), ("c", 3 * 10**4)):
        shape = random.Random(f"planted{name}{n}")
        pb = specgen.PlantedBlocks(rng, n, BRANCHING, base_size=n // 10, shape=shape)
        doc = pb.doc()
        path = _write(outdir, f"planted{n}{name}", doc)
        class_of, parts = _planted_classes(pb)
        cmds.append(_minimize(path, doc, class_of))
        planted.append((pb, path, parts))
    # Shallow queries: pairs that differ within a few levels, so the bounded
    # oracle stops early and the command costs parse and validation.
    pb, path, parts = planted[0]
    k = len(pb.base)
    for _ in range(2):
        while True:
            i, j = rng.randrange(k), rng.randrange(k)
            depth = oracle.divergence_depth(parts, i, j)
            if depth is not None and 2 <= depth <= 4:
                break
        cmds.append(_bisim(path, rng.choice(pb.members[i]), rng.choice(pb.members[j]), depth))
    return cmds


def check(rng: random.Random, outdir: str) -> list:
    cmds = []
    for n in (1000, 1500):
        path = _write(outdir, f"random{n}", specgen.random_plain(rng, n, BRANCHING))
        cmds.append(
            Command(["check", "--spec", path, "--depth", "20"], oracle.expect_check(oracle.PLAIN_CHECKS))
        )
    ri = specgen.RandomIndexed(rng, 150, shape=random.Random("indexed150"))
    path = _write(outdir, "indexed150", ri.doc())
    cmds.append(
        Command(
            ["check", "--spec", path, "--depth", "20"],
            oracle.expect_check(oracle.INDEXED_CHECKS),
            kind="indexed",
        )
    )
    return cmds


def approx_render(rng: random.Random, outdir: str) -> list:
    cmds = []
    label = rng.choice("vwxy")
    path = _write(outdir, "stream", specgen.stream_doc(label))
    for depth, fmt in ((1000, "json"), (10**4, "text")):
        cmds.append(
            Command(
                ["approx", "--spec", path, "--state", "s", "--depth", str(depth), "--format", fmt],
                oracle.expect_approx(label, 1, depth, fmt),
            )
        )
    label = rng.choice("bdk")
    path = _write(outdir, "binary", specgen.binary_doc(label))
    for depth, fmt in ((16, "text"), (18, "text"), (14, "json")):
        cmds.append(
            Command(
                ["approx", "--spec", path, "--state", "t", "--depth", str(depth), "--format", fmt],
                oracle.expect_approx(label, 2, depth, fmt),
            )
        )
    return cmds


# Wall time of one pass at the reference machine speed (see run.py); it
# converts --seconds into a number of passes.
PASS_SECONDS = {
    "bisim-deep": 4.0,
    "minimize-bulk": 2.8,
    "check": 3.7,
    "approx-render": 2.8,
}

WORKLOADS = {
    "bisim-deep": bisim_deep,
    "minimize-bulk": minimize_bulk,
    "check": check,
    "approx-render": approx_render,
}


def build(name: str, seed: int, outdir: str) -> list:
    """Write the workload's specs under ``outdir`` and return its pass."""
    os.makedirs(outdir, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), outdir)
