"""The final coalgebra (M-type) of a container as an omega-chain limit.

Elements of the final coalgebra are :class:`MElement`.  An element that
``unfold`` or ``into`` makes is pointed: it holds a coalgebra and a state,
its depth-n stage is a read of that coalgebra's level table, and ``out`` of
it is the morphism law, ``out(unfold(c, s)) = P(unfold(c))(c.transition(s))``,
in O(arity).  A hand-built element holds a compatible family of depth-n
trees (a :class:`~omegacoalg.chain.LimitElement`); for it ``into`` and
the root label of ``out`` are the paper's composition of the shifted-chain
and limit-commutation equivalences in :mod:`omegacoalg.chain`, which stays
the reference semantics: every element has a ``.limit`` view to which it
applies.  An element assembled by ``into`` keeps the stages it has built.
Finality is witnessed observationally by :func:`verify_morphism`
(existence) and :func:`uniqueness_probe` (agreement of any verified
morphism with unfold).
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .chain import (
    Chain,
    LimitElement,
    poly_chain,
    poly_limit_from,
    poly_limit_to,
    shift_back,
    shift_forward,
)
from .container import TRUNC, Container, PValue, _tree, _truncate, make_node
from .errors import (
    ArityMismatch,
    CannotTruncateUnit,
    DepthBoundExceeded,
    InvalidCoalgebra,
    LabelDrift,
    NeedsFiniteStates,
    NotAMorphism,
)

DEFAULT_DEPTH_BOUND = 10**4


def depth_bound() -> int:
    """The largest admitted observation depth: ``OMEGACOALG_MAX_DEPTH`` if
    set, else 10^4.  Read when a level table grows to a new depth."""
    return int(os.environ.get("OMEGACOALG_MAX_DEPTH", DEFAULT_DEPTH_BOUND))


def w_chain(c: Container) -> Chain:
    """The approximation chain of ``c``: stage n holds depth-n trees, the
    projection drops the deepest layer."""
    return Chain(project=lambda n, t: _truncate(t))


def _no_stage(n: int) -> CannotTruncateUnit:
    return CannotTruncateUnit(f"no approximation stage below depth 0: depth {n}")


def _fill_levels(levels: list, step, roots, lo: int, hi: int) -> None:
    """The level-table engine behind every depth-n observation, plain and
    indexed.

    ``levels[k]`` maps a state to its depth-k observation and ``step(t)``
    is the ``(label, children)`` transition of ``t``.  Afterwards
    ``levels[k][r]`` holds for every root ``r`` and every ``lo <= k <= hi``.
    An entry at depth k needs only its children's entries at depth k-1, so
    the walk down collects the missing entries level by level and stops at
    the first level below ``lo`` where none is missing; the entries are then
    built bottom-up, level by level.  The cost is proportional to the
    entries added (times the arity), not to ``hi``.  The depth bound is read
    only when the table grows to a new depth: a depth already in the table
    was admitted when it was built.
    """
    if hi >= len(levels):
        bound = depth_bound()
        if hi > bound:
            raise DepthBoundExceeded(f"depth {hi} exceeds bound {bound}")
        levels.extend({} for _ in range(hi + 1 - len(levels)))
    missing = []
    wanted = ()
    for k in range(hi, -1, -1):
        here = levels[k]
        need = {t for t in wanted if t not in here}
        if k >= lo:
            need.update(r for r in roots if r not in here)
        elif not need:
            break
        # Every level's pending states are kept until the build-up; a list
        # is the smallest way to keep them on a sweep over all states.
        need = list(need)
        missing.append((k, need))
        wanted = [ch for _, children in map(step, need) for ch in children]
    for k, need in reversed(missing):
        here = levels[k]
        if k == 0:
            for t in need:
                here[t] = TRUNC
            continue
        below = levels[k - 1]
        for t in need:
            label, children = step(t)
            here[t] = _tree(k, label, tuple([below[ch] for ch in children]))


def _level_entry(c, s, n: int):
    """``approximate`` for any coalgebra ``c`` with a level table
    ``c._levels`` and a ``(label, children)`` transition, plain or indexed:
    a table hit returns at once; a miss runs :func:`_fill_levels` with the
    one root ``s``.  A negative ``n`` raises :class:`CannotTruncateUnit`."""
    levels = c._levels
    if 0 <= n < len(levels):
        got = levels[n].get(s)
        if got is not None:
            return got
    elif n < 0:
        raise _no_stage(n)
    _fill_levels(levels, c.transition, (s,), n, n)
    return levels[n][s]


@dataclass(eq=False)
class Coalgebra:
    """A state domain with a transition ``state -> PValue`` of states.

    ``gamma`` is a pure function or, for finite presentations, a mapping
    ``state -> PValue`` or ``state -> (label, children)``.  States must be
    hashable.  When ``state_enumeration`` is present, the presentation is
    validated eagerly: arities must match and transitions must stay within
    the enumerated states.
    """

    container: Container
    gamma: Mapping | Callable[[object], PValue]
    state_enumeration: Optional[tuple] = None
    name: str = ""
    _gamma_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _levels: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if self.state_enumeration is not None:
            states = tuple(self.state_enumeration)
            self.state_enumeration = states
            if len(set(states)) != len(states):
                raise InvalidCoalgebra("state enumeration contains duplicates")
            pool = set(states)
            for s in states:
                pv = self.transition(s)
                for ch in pv.children:
                    if ch not in pool:
                        raise InvalidCoalgebra(
                            f"transition of {s!r} leaves the state enumeration: {ch!r}"
                        )

    # The depth-n observation of a state, ``_observe(s, n)``: a read of the
    # level table, as pointed elements take it.
    _observe = _level_entry

    def transition(self, s) -> PValue:
        pv = self._gamma_cache.get(s)
        if pv is None:
            raw = self.gamma[s] if isinstance(self.gamma, Mapping) else self.gamma(s)
            if isinstance(raw, PValue):
                pv = raw
            else:
                label, children = raw
                pv = PValue(label, tuple(children))
            n = self.container.arity_of(pv.label)
            if len(pv.children) != n:
                raise ArityMismatch(
                    f"state {s!r}: label {pv.label!r} has arity {n}, "
                    f"got {len(pv.children)} children"
                )
            self._gamma_cache[s] = pv
        return pv


class _Element:
    """The two forms of an element, plain (:class:`MElement`) or sorted
    (:class:`~omegacoalg.indexed.SortedMElement`).

    A pointed element holds a coalgebra and a state, as ``unfold`` and
    ``into`` make it: it reads stage n from the coalgebra (a level-table
    read for a coalgebra given by transitions) and caches nothing itself.
    A hand-built element holds a compatible family ``limit`` of depth-n
    trees; ``coalgebra`` is None exactly for these.  ``limit`` is that
    family or, for a pointed element, a lazy
    :class:`~omegacoalg.chain.LimitElement` view of its stages, made on
    first use.  A negative depth raises :class:`CannotTruncateUnit`.
    """

    __slots__ = ("coalgebra", "state", "_limit")
    # How provenance names the assembling and unfolding operations and an
    # unnamed coalgebra.
    _made_by = ("into", "unfold", "coalgebra")

    def _hold(self, limit: Optional[LimitElement], coalgebra, state):
        if (limit is None) == (coalgebra is None):
            raise TypeError("an element holds either a limit family or a coalgebra and a state")
        self.coalgebra = coalgebra
        self.state = state
        self._limit = limit

    def at(self, n: int):
        c = self.coalgebra
        if c is not None:
            return c._observe(self.state, n)
        if n < 0:
            raise _no_stage(n)
        return self._limit.at(n)

    @property
    def limit(self) -> LimitElement:
        if self._limit is None:
            self._limit = LimitElement(
                Chain(project=lambda n, t: _truncate(t)), self.at, provenance=self._provenance()
            )
        return self._limit

    def _provenance(self) -> str:
        c = self.coalgebra
        if c is None:
            return self._limit.provenance
        assembled, unfolded, unnamed = self._made_by
        if type(c) is _FreeExtension:
            return f"{assembled}({c.label!r})"
        return f"{unfolded}({c.name or unnamed}, {self.state!r})"


class MElement(_Element):
    """An element of the final coalgebra's carrier: pointed,
    ``MElement(container, coalgebra=c, state=s)``, or hand-built,
    ``MElement(container, limit)`` (see :class:`_Element`).  Hash/equality
    are by identity; use ``tree_equal(m.at(n), m2.at(n))`` for
    observational comparison."""

    __slots__ = ("container",)

    def __init__(
        self,
        container: Container,
        limit: Optional[LimitElement] = None,
        *,
        coalgebra=None,
        state=None,
    ):
        self.container = container
        self._hold(limit, coalgebra, state)

    def __repr__(self):
        return f"MElement({self._provenance() or 'anonymous'})"


class _FreeExtension:
    """The one-state free extension behind :func:`into` and
    :func:`~omegacoalg.indexed.i_into`: the final coalgebra (its elements,
    stepping by ``out``) plus one fresh state, ``None``, stepping to
    ``label`` over the elements ``children``.  Its unfold sends an element
    to itself and the fresh state to the assembled element, whose depth-n
    stage is ``label`` over the children's depth-(n-1) stages.  The
    extension keeps the stages it has built, so observing the assembled
    element again at a depth it has reached costs a lookup.
    """

    __slots__ = ("label", "children", "_stages")

    def __init__(self, label, children: tuple):
        self.label = label
        self.children = children
        self._stages = {0: TRUNC}

    def _observe(self, s, n: int):
        got = self._stages.get(n)
        if got is not None:
            return got
        if n < 0:
            raise _no_stage(n)
        # Assembled children (``cons`` over ``cons``) are evaluated from an
        # explicit stack, so deep nesting does not recurse.
        stack = [(self, n)]
        while stack:
            ext, k = stack[-1]
            if k in ext._stages:
                stack.pop()
                continue
            todo = [
                (ch.coalgebra, k - 1)
                for ch in ext.children
                if type(ch.coalgebra) is _FreeExtension and k - 1 not in ch.coalgebra._stages
            ]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            ext._stages[k] = _tree(k, ext.label, tuple([ch.at(k - 1) for ch in ext.children]))
        return self._stages[n]


@dataclass(frozen=True, eq=False)
class MorphismCandidate:
    """A map from a coalgebra's states into the final coalgebra, to be
    checked against the morphism law by :func:`verify_morphism`."""

    source: Coalgebra
    map: Callable[[object], MElement]


def approximate(c: Coalgebra, s, n: int) -> "ApproxTree":
    """The depth-n observation of state ``s``: Trunc at depth 0, otherwise
    the transition's label over the children's depth-(n-1) observations.

    Read from the coalgebra's level table, shared across states and depths;
    a missing entry is built by the level engine together with the missing
    entries below it.  A hit returns without reading the depth bound.
    """
    return _level_entry(c, s, n)


def approximate_all(c: Coalgebra, n: int) -> list:
    """Fill the level table with every enumerated state at every depth
    k <= n, one level at a time: O(|S| n r) for |S| states of arity at most
    r.  Returns the table up to depth n: entry k maps each state to its
    depth-k observation, so ``approximate(c, s, k)`` is then a lookup."""
    if c.state_enumeration is None:
        raise NeedsFiniteStates("approximate_all needs a state enumeration")
    _fill_levels(c._levels, c.transition, c.state_enumeration, 0, n)
    return c._levels[: n + 1]


def unfold(c: Coalgebra, s) -> MElement:
    """The unique coalgebra morphism into the final coalgebra, evaluated at
    ``s``: the element pointed at ``(c, s)``.  Stage n is
    ``approximate(c, s, n)``, one read of ``c``'s level table."""
    return MElement(c.container, coalgebra=c, state=s)


def out(m: MElement) -> PValue:
    """The final coalgebra's structure map: expose the root label and the
    child elements.

    For a pointed element it is the morphism law, in O(arity):
    ``out(unfold(c, s))`` is the transition of ``s`` with each child state
    ``t`` sent to ``unfold(c, t)``, and ``out(into(c, v))`` is ``v``.  For a
    hand-built element the root label comes from the construction of
    :mod:`omegacoalg.chain`, the shifted-chain equivalence composed with the
    inverse limit-commutation map, which raises :class:`LabelDrift` on a
    family whose root label changes across its first stages; child ``b``'s
    stage n is child ``b`` of the element's stage n+1, checked for the same
    drift.  All give the same stages as the chain.py composition
    (``out(MElement(m.container, m.limit))`` applies the hand-built path to
    any ``m``).
    """
    c = m.coalgebra
    if c is None:
        return _out_by_chain(m)
    if type(c) is _FreeExtension:
        return PValue(c.label, c.children)
    label, children = c.transition(m.state)
    container = m.container
    return PValue(label, tuple([MElement(container, coalgebra=c, state=t) for t in children]))


def into(c: Container, v: PValue) -> MElement:
    """Inverse of :func:`out`: assemble an element from a label and child
    elements.

    When every child is pointed, the result is pointed at the one-state
    free extension that steps to ``v``: stage n is the label over the
    children's stage n-1, and ``out`` of it gives back ``v``.  A hand-built
    child sends it through the reference construction of
    :mod:`omegacoalg.chain`: the limit-commutation map composed with the
    shifted-chain equivalence.
    """
    if len(v.children) != c.arity_of(v.label):
        raise ArityMismatch(
            f"label {v.label!r} has arity {c.arity_of(v.label)}, "
            f"got {len(v.children)} children"
        )
    if any(ch.coalgebra is None for ch in v.children):
        return _into_by_chain(c, v)
    return MElement(c, coalgebra=_FreeExtension(v.label, v.children), state=None)


def _out_by_chain(m: MElement) -> PValue:
    c = m.container
    base = w_chain(c)
    shifted_limit = shift_forward(m.limit)
    as_pvalues = LimitElement(
        poly_chain(c, base),
        lambda n: _node_to_pvalue(shifted_limit.at(n)),
        provenance=f"out({m.limit.provenance})",
    )
    label = poly_limit_from(c, base, as_pvalues).label

    # Child b's stage n is child b of ``m``'s stage n+1, as in the families
    # ``poly_limit_from`` gives, but read straight off ``m``: a chain of
    # ``tail``s then nests three frames per level, not six.
    def child(b):
        def fn(n):
            t = m.at(n + 1)
            if t.label != label:
                raise LabelDrift(f"stage {n} has label {t.label!r}, stage 0 has {label!r}")
            return t.children[b]

        return MElement(c, LimitElement(base, fn, provenance=f"out[{b}]({m.limit.provenance})"))

    return PValue(label, tuple([child(b) for b in range(c.arity_of(label))]))


def _into_by_chain(c: Container, v: PValue) -> MElement:
    base = w_chain(c)
    lp = poly_limit_to(c, base, v)
    as_nodes = LimitElement(
        Chain(project=lambda n, t: _truncate(t)),
        lambda n: _pvalue_to_node(c, lp.at(n), n + 1),
        provenance="into",
    )
    limit = shift_back(base, as_nodes)
    limit.provenance = f"into({v.label!r})"
    return MElement(c, limit)


def _node_to_pvalue(t) -> PValue:
    return PValue(t.label, t.children)


def _pvalue_to_node(c: Container, pv: PValue, depth: int):
    return make_node(c, pv.label, pv.children, depth=depth)


def out_coalgebra(c: Container) -> Coalgebra:
    """The final coalgebra viewed as a coalgebra over its own elements."""
    return Coalgebra(c, gamma=out, name="out")


def _check_states(mc: MorphismCandidate, states) -> Iterable:
    if states is None:
        states = mc.source.state_enumeration
        if states is None:
            raise NeedsFiniteStates(
                "verify_morphism needs a state enumeration or explicit samples"
            )
    return states


def morphism_violations(mc: MorphismCandidate, depth: int, states=None):
    """Yield (state, stage) pairs where the morphism law fails.  Checking the
    whole enumeration (``states=None``) first fills the source's level
    table by one :func:`approximate_all` sweep."""
    checked = _check_states(mc, states)
    if states is None:
        approximate_all(mc.source, depth)
    for s in checked:
        m = mc.map(s)
        for n in range(depth + 1):
            if m.at(n) is not approximate(mc.source, s, n):
                yield (s, n)
                break


def verify_morphism(mc: MorphismCandidate, depth: int, states=None) -> bool:
    """Depth-bounded morphism law: out(map(s)) agrees with the transition
    pushed through the map, equivalently ``map(s).at(n)`` equals the depth-n
    observation of ``s``, for every checked state and n <= depth."""
    return next(iter(morphism_violations(mc, depth, states)), None) is None


def uniqueness_probe(c: Coalgebra, mc: MorphismCandidate, depth: int, states=None) -> bool:
    """Executable shadow of contractibility: any verified morphism agrees
    with unfold at every checked state and stage."""
    if not verify_morphism(mc, depth, states):
        raise NotAMorphism("candidate fails the morphism law; probe refused")
    for s in _check_states(mc, states):
        m = mc.map(s)
        u = unfold(c, s)
        for n in range(depth + 1):
            if m.at(n) is not u.at(n):
                return False
    return True
