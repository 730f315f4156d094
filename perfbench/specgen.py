"""Seeded generators for the four spec families the benchmark runs.

Every generator returns a JSON spec document (a plain dict) together with
what the benchmark needs to know its answers.  The library is never used
here: answers follow from how each spec is built (see ``oracle.py``).

Sizes are fixed by the caller; the seed only changes wiring, names,
labels and the position of markers, so the cost of a spec barely moves
with the seed while its content does.
"""

from __future__ import annotations

import random

SCHEMA_VERSION = "1"


def _names(rng: random.Random, prefix: str, n: int) -> list:
    """``n`` fixed-width state names, in a seeded random order."""
    width = len(str(n - 1))
    names = [f"{prefix}{i:0{width}d}" for i in range(n)]
    rng.shuffle(names)
    return names


def _plain_doc(labels: dict, states: list, gamma: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "signature": {"labels": list(labels), "arity": dict(labels)},
        "coalgebra": {
            "states": list(states),
            "gamma": {
                s: {"label": a, "children": list(ch)} for s, (a, ch) in gamma.items()
            },
        },
    }


class MarkerCycle:
    """``n`` states on one cycle, all labelled ``a`` except one marker
    ``m``.  Every state is distinct, and refinement needs about n rounds.

    The states on the cycle are ``order[0] -> order[1] -> ...``; the
    enumeration order of the document is a different shuffle.
    """

    labels = {"a": 1, "m": 1}

    def __init__(self, rng: random.Random, n: int):
        self.n = n
        self.order = _names(rng, "c", n)
        self.marker = rng.randrange(n)
        self.pos = {s: i for i, s in enumerate(self.order)}
        states = list(self.order)
        rng.shuffle(states)
        self.states = states
        self.gamma = {
            s: ("m" if self.pos[s] == self.marker else "a", (self.order[(self.pos[s] + 1) % n],))
            for s in states
        }

    def doc(self) -> dict:
        return _plain_doc(self.labels, self.states, self.gamma)

    def block_of(self, s):
        return s

    def divergence_depth(self, s, t):
        """Closed form: the first depth at which exactly one of the two
        paths has met the marker, or None for the same state."""
        if s == t:
            return None
        ds = (self.marker - self.pos[s]) % self.n
        dt = (self.marker - self.pos[t]) % self.n
        return min(ds, dt) + 1

    def pair(self, rng: random.Random, distance: int):
        """A pair whose divergence depth is ``distance + 1``: one state
        ``distance`` steps before the marker, the other further back."""
        s = self.order[(self.marker - distance) % self.n]
        t = self.order[(self.marker - rng.randrange(distance + 1, self.n)) % self.n]
        return s, t


class PlantedBlocks:
    """A random spec of ``n`` states planted on a small base coalgebra.

    Each state copies the label of its base state and picks, for every
    position, a random copy of the base child.  The copy-to-base map is
    then a coalgebra morphism, so two states are bisimilar exactly when
    their base states are; the base is small enough for the benchmark's own
    naive refinement.  The random base is drawn from ``shape``, so the
    number of refinement rounds and the size of the quotient do not move
    with the seed; ``rng`` picks the copies, their names and order.
    ``base`` may also be given, e.g. a marker cycle, to make refinement
    need many rounds.
    """

    def __init__(self, rng: random.Random, n: int, labels: dict, base_size: int = 0, base=None, shape=None):
        self.labels = dict(labels)
        if base is None:
            names = [list(labels)[i % len(labels)] for i in range(base_size)]
            shape.shuffle(names)
            base = [(a, tuple(shape.randrange(base_size) for _ in range(labels[a]))) for a in names]
        self.base = base
        k = len(base)
        states = _names(rng, "p", n)
        self.states = states
        # The first k states cover every base state once, so every block is
        # present; the rest are spread at random.
        self.base_of = {s: (i if i < k else rng.randrange(k)) for i, s in enumerate(states)}
        members = [[] for _ in range(k)]
        for s in states:
            members[self.base_of[s]].append(s)
        self.members = members
        self.gamma = {}
        for s in states:
            a, kids = base[self.base_of[s]]
            self.gamma[s] = (a, tuple(rng.choice(members[b]) for b in kids))

    def doc(self) -> dict:
        return _plain_doc(self.labels, self.states, self.gamma)


def marker_cycle_base(n: int, marker: int) -> list:
    """A marker cycle in the base form taken by :class:`PlantedBlocks`."""
    return [("m" if i == marker else "a", ((i + 1) % n,)) for i in range(n)]


class RandomIndexed:
    """A random well-sorted spec over two sorts, ``E`` and ``O``.

    Labels of sort E have children of sort O and vice versa, with one
    mixed label, so every wiring the generator picks is well sorted.  The
    wiring is drawn from ``shape`` and only names and order from ``rng``:
    on random specs this small, the cost of ``check`` varies several-fold
    with the wiring.
    """

    signature = {
        "E": {"z": (), "e": ("O",), "f": ("O", "E")},
        "O": {"o": ("E",), "g": ("E", "O", "O")},
    }

    def __init__(self, rng: random.Random, n: int, shape: random.Random):
        sorts = ["E" if i % 2 == 0 else "O" for i in range(n)]
        by_sort = {j: [i for i in range(n) if sorts[i] == j] for j in ("E", "O")}
        wiring = []
        for i in range(n):
            labels = self.signature[sorts[i]]
            a = shape.choice(sorted(labels))
            wiring.append((a, tuple(shape.choice(by_sort[j]) for j in labels[a])))
        names = _names(rng, "q", n)
        self.states = list(names)
        rng.shuffle(self.states)
        self.sort_of = {names[i]: sorts[i] for i in range(n)}
        self.gamma = {
            names[i]: (a, tuple(names[c] for c in kids)) for i, (a, kids) in enumerate(wiring)
        }

    def doc(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "indexed": {
                "sorts": ["E", "O"],
                "labels": {
                    i: {a: {"arity": len(cs), "child_sorts": list(cs)} for a, cs in per.items()}
                    for i, per in self.signature.items()
                },
            },
            "coalgebra": {
                "states": {s: self.sort_of[s] for s in self.states},
                "gamma": {
                    s: {"label": a, "children": list(ch)} for s, (a, ch) in self.gamma.items()
                },
            },
        }


def random_plain(rng: random.Random, n: int, labels: dict) -> dict:
    """A random plain spec with no planted structure (for ``check``)."""
    states = _names(rng, "r", n)
    names = sorted(labels)
    gamma = {}
    for s in states:
        a = rng.choice(names)
        gamma[s] = (a, tuple(rng.choice(states) for _ in range(labels[a])))
    return _plain_doc(labels, states, gamma)


def stream_doc(label: str) -> dict:
    """The one-state stream ``s -> label(s)``."""
    return _plain_doc({label: 1}, ["s"], {"s": (label, ("s",))})


def binary_doc(label: str) -> dict:
    """The binary unfolding ``t -> label(t, t)``, with a leaf label so the
    signature is not degenerate."""
    return _plain_doc({label: 2, "leaf": 0}, ["t", "u"], {"t": (label, ("t", "t")), "u": ("leaf", ())})
