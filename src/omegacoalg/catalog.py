"""Concrete instances, ready to use and heavily exercised by the tests:
streams (head/tail/cons/zip, the function correspondence), conats, the
three-label demonstration signature, and the parity indexed example.
"""

from __future__ import annotations

from collections.abc import Callable

from .container import Container, PValue, _no_stage
from .indexed import IndexedCoalgebra, IndexedContainer
from .mtype import Coalgebra, MElement, into, out, unfold


def stream_container(labels: tuple | None = None) -> Container:
    """The stream signature over a base label domain: every label has
    exactly one child.  ``labels`` may be None for infinite domains
    (enumeration is only needed by oracles)."""
    return Container(arity=lambda a: 1, labels=labels)


def head(m: MElement):
    """First component of the structure map: the outermost label, already
    visible in the depth-1 observation."""
    return m.at(1).label


def tail(m: MElement) -> MElement:
    """Second component of the structure map: the unique child.  For an
    unfolded stream this is ``unfold(c, t)`` for the next state ``t``, so
    ``tail`` iterated k times costs O(k) and nests nothing."""
    return out(m).children[0]


def cons(a, m: MElement) -> MElement:
    """Prepend a label: the inverse of the structure map."""
    return into(m.container, PValue(a, (m,)))


def zip_streams(m1: MElement, m2: MElement) -> MElement:
    """Zip two streams into a stream of label pairs.

    Obtained by unfolding the coalgebra on pairs of streams whose transition
    observes both heads and recurses on both tails; satisfies
    zip(xs, ys) = cons((head xs, head ys), zip(tail xs, tail ys))
    observationally.
    """
    pairs = stream_container()

    def theta(state):
        xs, ys = state
        return PValue((head(xs), head(ys)), ((tail(xs), tail(ys)),))

    c = Coalgebra(pairs, theta, name="zip")
    return unfold(c, (m1, m2))


def stream_from_function(g: Callable[[int], object]) -> MElement:
    """The stream whose k-th element is g(k): unfold of the successor
    coalgebra on naturals."""
    c = Coalgebra(stream_container(), lambda k: PValue(g(k), (k + 1,)), name="tabulate")
    return unfold(c, 0)


def stream_to_function(m: MElement) -> Callable[[int], object]:
    """Read a stream back as a function on naturals:
    the value at k is head(tail^k(m)), read off the depth-(k+1) observation.
    A negative k raises :class:`CannotTruncateUnit`."""

    def g(k: int):
        if k < 0:
            raise _no_stage(k)
        node = m.at(k + 1)
        for _ in range(k):
            node = node.children[0]
        return node.label

    return g


def fig1_signature() -> Container:
    """The three-label demonstration signature: a leaf, a binary and a
    ternary label."""
    return Container(arity={"a": 0, "b": 2, "c": 3}, labels=("a", "b", "c"))


def fig1_coalgebra() -> Coalgebra:
    """A two-state coalgebra over the demonstration signature."""
    return Coalgebra(
        fig1_signature(),
        {"t": ("b", ("u", "t")), "u": ("a", ())},
        state_enumeration=("t", "u"),
        name="fig1",
    )


def conat_container() -> Container:
    """Zero/successor signature; its final coalgebra is the conaturals."""
    return Container(arity={"Z": 0, "S": 1}, labels=("Z", "S"))


def conat_coalgebra(k: int | None = None) -> Coalgebra:
    """States 0..k plus the non-wellfounded point 'inf'; k may be None for
    the one-state loop only."""
    states = ["inf"] + list(range(k + 1) if k is not None else ())
    gamma = {"inf": ("S", ("inf",))}
    if k is not None:
        gamma.update({0: ("Z", ())})
        gamma.update({j: ("S", (j - 1,)) for j in range(1, k + 1)})
    return Coalgebra(
        conat_container(), gamma, state_enumeration=tuple(states), name="conat"
    )


def conat_infinity() -> MElement:
    """The canonical non-wellfounded element: an endless successor chain."""
    return unfold(conat_coalgebra(), "inf")


def conat_of(k: int) -> MElement:
    """The finite conatural k: k successor layers over a zero leaf."""
    return unfold(conat_coalgebra(k), k)


def parity_container() -> IndexedContainer:
    """Two sorts that strictly alternate: the even sort only offers the
    label E whose child is odd, and vice versa."""
    return IndexedContainer(
        sorts=("e", "o"),
        labels_at={"e": ("E",), "o": ("O",)},
        arity={("e", "E"): 1, ("o", "O"): 1},
        child_sort={("e", "E"): ("o",), ("o", "O"): ("e",)},
    )


def parity_coalgebra() -> IndexedCoalgebra:
    return IndexedCoalgebra(
        parity_container(),
        states=("p", "q"),
        sort_of={"p": "e", "q": "o"},
        gamma={"p": ("E", ("q",)), "q": ("O", ("p",))},
        name="parity",
    )
