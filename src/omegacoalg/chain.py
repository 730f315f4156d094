"""Omega-chains and their limits as memoized approximation families.

A chain is a family of stage-value domains connected by projections
``project(n) : stage n+1 -> stage n``.  Its limit is represented
intensionally: a :class:`LimitElement` evaluates any finite stage on demand
and caches the result; compatibility (``project(n, at(n+1)) == at(n)``) is
guaranteed by construction for library-built elements and checkable to any
finite depth for hand-built ones.  The limit of the approximation chain
is itself a coalgebra, :data:`LIMITS`: its states are limit elements with
a path down from their root, and its transition is the paper's ``out``,
the shifted-chain equivalence composed with the inverse limit-commutation
map.
"""

from __future__ import annotations

from collections.abc import Callable

from .container import Container, PValue, _no_stage, pmap
from .errors import CannotTruncateUnit, ConeLawViolation, LabelDrift

DEFAULT_CONE_CHECK_DEPTH = 16
DEFAULT_LABEL_CHECK_DEPTH = 8


class Chain:
    """Stage projections: ``project(n, v)`` maps a stage-(n+1) value ``v``
    to stage n.  Stage values compare with ``==``."""

    def __init__(self, project: Callable[[int, object], object]):
        self.project = project


def shifted(chain: Chain) -> Chain:
    """The chain with stage n given by stage n+1 of the original."""
    return Chain(project=lambda n, v: chain.project(n + 1, v))


def poly_chain(c: Container, base: Chain) -> Chain:
    """The image of a chain under the polynomial functor: stage n holds
    PValues whose children are stage-n values of the base chain."""
    return Chain(project=lambda n, pv: pmap(lambda x: base.project(n, x), pv))


class LimitElement:
    """An element of a chain limit: a memoized stage-indexed family.  A
    negative stage raises :class:`CannotTruncateUnit`."""

    __slots__ = ("chain", "provenance", "_fn", "_cache")

    def __init__(self, chain: Chain, fn: Callable[[int], object], provenance: str = ""):
        self.chain = chain
        self.provenance = provenance
        self._fn = fn
        self._cache: dict = {}

    def at(self, n: int):
        cache = self._cache
        if n in cache:
            return cache[n]
        if n < 0:
            raise _no_stage(n)
        v = self._fn(n)
        cache[n] = v
        return v

    def __repr__(self):
        return f"LimitElement({self.provenance or 'anonymous'})"


class Cone:
    """A family of legs from an apex into every stage, commuting with the
    projections.  ``apex_samples`` are the apex values used when the cone
    law is verified at construction of the induced map."""

    def __init__(self, legs: Callable[[int, object], object], apex_samples: tuple = ()):
        self.legs = legs
        self.apex_samples = apex_samples


def check_compat(l: LimitElement, upto: int) -> bool:
    """Verify ``project(n, at(n+1)) == at(n)`` for all n < upto.  A stage
    the projection refuses (Trunc at a stage above 0) is a failure."""
    chain = l.chain
    try:
        return all(chain.project(n, l.at(n + 1)) == l.at(n) for n in range(upto))
    except CannotTruncateUnit:
        return False


def cone_to_map(chain: Chain, c: Cone) -> Callable[[object], LimitElement]:
    """Turn a cone into the induced map apex -> limit.

    The cone law is the compatibility of each apex's family of legs; it is
    verified on ``c.apex_samples`` below stage ``DEFAULT_CONE_CHECK_DEPTH``,
    and a violation raises :class:`ConeLawViolation`.
    """

    def h(x):
        return LimitElement(chain, lambda n, x=x: c.legs(n, x), provenance="cone")

    for x in c.apex_samples:
        if not check_compat(h(x), DEFAULT_CONE_CHECK_DEPTH):
            raise ConeLawViolation(f"cone law fails below stage {DEFAULT_CONE_CHECK_DEPTH} for apex {x!r}")
    return h


def map_to_cone(h: Callable[[object], LimitElement]) -> Cone:
    """The projections of a map into the limit; commutation holds by
    compatibility of the limit elements."""
    return Cone(legs=lambda n, x: h(x).at(n))


def iterate_cochain(x0, step: Callable[[int, object], object], n: int):
    """Evaluate at stage n the unique compatible cochain tuple with first
    element ``x0`` (tuples in a chain with inverted arrows are determined by
    their first element).  A negative ``n`` raises
    :class:`CannotTruncateUnit`."""
    if n < 0:
        raise _no_stage(n)
    v = x0
    for k in range(n):
        v = step(k, v)
    return v


def shift_forward(l: LimitElement) -> LimitElement:
    """View a limit element of a chain as one of the shifted chain."""
    return LimitElement(
        shifted(l.chain), lambda n: l.at(n + 1), provenance=f"shift+({l.provenance})"
    )


def shift_back(base: Chain, l: LimitElement) -> LimitElement:
    """Inverse of :func:`shift_forward`: the stage-0 component is forced to
    be the projection of the shifted family's first stage."""

    def fn(n):
        if n == 0:
            return base.project(0, l.at(0))
        return l.at(n - 1)

    return LimitElement(base, fn, provenance=f"shift-({l.provenance})")


def poly_limit_to(c: Container, base: Chain, v: PValue) -> LimitElement:
    """The limit-commutation map: a PValue with limit-element children
    becomes a limit element of the P-applied chain, stage n being the PValue
    of the children's stage-n projections."""
    return LimitElement(
        poly_chain(c, base),
        lambda n: PValue(v.label, tuple(ch.at(n) for ch in v.children)),
        provenance="poly_limit_to",
    )


def _drift(n: int, got, label) -> LabelDrift:
    return LabelDrift(f"stage {n} has label {got!r}, stage 0 has {label!r}")


def _root(at: Callable[[int], object]):
    """Stage 0 of the family ``at``, once stages 1 to
    ``DEFAULT_LABEL_CHECK_DEPTH - 1`` are checked to carry its root label,
    which compatibility forces on every stage; the first that does not
    raises :class:`LabelDrift`."""
    first = at(0)
    label = first.label
    for n in range(1, DEFAULT_LABEL_CHECK_DEPTH):
        got = at(n).label
        if got != label:
            raise _drift(n, got, label)
    return first


def poly_limit_from(c: Container, base: Chain, l: LimitElement) -> PValue:
    """Inverse of :func:`poly_limit_to`.

    Compatibility forces every stage of ``l`` to carry the same root label;
    disagreement (a corrupt hand-built family) raises :class:`LabelDrift`,
    eagerly below stage ``DEFAULT_LABEL_CHECK_DEPTH`` (:func:`_root`) and
    lazily beyond, when a child reads the stage.
    """
    label, children = _root(l.at)

    def child(b):
        def fn(n):
            pv = l.at(n)
            if pv.label != label:
                raise _drift(n, pv.label, label)
            return pv.children[b]

        return LimitElement(base, fn, provenance=f"poly_limit_from[{b}]")

    return PValue(label, tuple(child(b) for b in range(len(children))))


class LimitCoalgebra:
    """The limit of the approximation chain as a coalgebra.  A state is
    ``(family, path)``: a compatible family of depth-n trees (a
    :class:`LimitElement`) and a tuple of ``(label, position)`` steps from
    its root; its stage n is the subtree at ``path`` of the family's stage
    ``n + len(path)``, and its transition is the paper's ``out``, which
    checks the root label as :func:`poly_limit_from` does (:func:`_root`).
    An element built by hand from a family is pointed at ``(family, ())``
    in :data:`LIMITS`.  No state holds another, so ``out`` taken any
    number of times nests no frames, and two ``out``s of one state give
    equal children.  Each observation walks its path, in O(len(path)):
    ``zip_streams`` of two hand-built streams observed to depth d costs
    O(d^2), a few seconds at d = 2000.
    """

    def _observe(self, state, n: int):
        """Stage n of ``state``.  A label on the path that differs from its
        step (a corrupt family) raises :class:`LabelDrift`."""
        if n < 0:
            raise _no_stage(n)
        family, path = state
        t = family.at(n + len(path))
        for k, (label, b) in enumerate(path):
            if t.label != label:
                raise _drift(n + len(path) - k - 1, t.label, label)
            t = t.children[b]
        return t

    def transition(self, state) -> PValue:
        """The shifted-chain view of ``state`` read through the inverse
        limit-commutation map: the root label, which compatibility forces
        to be the same at every stage (:func:`_root` checks stages 1..8 of
        ``state``, stages 0..7 of the shifted view, and the later ones are
        checked when they are observed), over one child state per
        position, the path extended by that step.  No container is
        consulted."""
        family, path = state
        first = _root(lambda n: self._observe(state, n + 1))
        label = first.label
        return PValue(
            label, tuple([(family, path + ((label, b),)) for b in range(len(first.children))])
        )


LIMITS = LimitCoalgebra()
