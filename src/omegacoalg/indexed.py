"""Indexed containers: sorted signatures, coalgebras, and corecursion.

An indexed container fibres a signature over a finite set of sorts; each
label lives at a sort and assigns a sort to every child position.

An indexed coalgebra is a sort-checked view of a plain one: it has the
plain interface (``transition``, ``state_enumeration`` and a level table),
so the plain observations, the depth oracle and the finality probes run on
it unchanged, and each indexed operation is a sort check plus the plain
call.  Partition refinement runs on :func:`_tagged_plain`, the reduction
that tags every label with its sort.  Ill-sorted inputs are rejected
eagerly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .bisim import bounded_bisim, first_divergence_depth
from .chain import LimitElement
from .container import ApproxTree, Container, PValue
from .errors import (
    ArityMismatch,
    InvalidCoalgebra,
    NotAMorphism,
    SortMismatch,
    UnknownLabel,
)
from .mtype import (
    Coalgebra,
    MorphismCandidate,
    _Element,
    _FreeExtension,
    _level_entry,
    approximate_all,
    uniqueness_probe,
    verify_morphism,
)


@dataclass(frozen=True, eq=False)
class IndexedContainer:
    """Sorts, labels per sort, arities, and the child-sort assignment.

    ``child_sort[(sort, label)]`` is the tuple of sorts of the children, one
    per position; its length must equal the arity.  Closure into ``sorts``
    is validated at construction.
    """

    sorts: tuple
    labels_at: Mapping
    arity: Mapping
    child_sort: Mapping

    def __post_init__(self):
        pool = set(self.sorts)
        if len(pool) != len(self.sorts):
            raise InvalidCoalgebra("duplicate sorts")
        for i in self.sorts:
            for a in self.labels_at.get(i, ()):
                key = (i, a)
                if key not in self.arity:
                    raise UnknownLabel(f"no arity for label {a!r} at sort {i!r}")
                cs = tuple(self.child_sort.get(key, ()))
                if len(cs) != self.arity[key]:
                    raise InvalidCoalgebra(
                        f"label {a!r} at sort {i!r}: {len(cs)} child sorts, arity {self.arity[key]}"
                    )
                for j in cs:
                    if j not in pool:
                        raise InvalidCoalgebra(
                            f"label {a!r} at sort {i!r} has child sort {j!r} outside the sort list"
                        )

    def labels(self, sort) -> tuple:
        return tuple(self.labels_at.get(sort, ()))


@dataclass(eq=False)
class IndexedCoalgebra:
    """States with a sort each and transitions respecting the child-sort
    assignment.  Finite presentations are validated at construction."""

    base: IndexedContainer
    states: tuple
    sort_of: Mapping
    gamma: Mapping | Callable
    name: str = ""
    _gamma_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _levels: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        self.states = tuple(self.states)
        pool = set(self.states)
        if len(pool) != len(self.states):
            raise InvalidCoalgebra("duplicate states")
        for s in self.states:
            if self.sort_of[s] not in set(self.base.sorts):
                raise InvalidCoalgebra(f"state {s!r} has unknown sort {self.sort_of[s]!r}")
            label, children = self.transition(s)
            for ch in children:
                if ch not in pool:
                    raise InvalidCoalgebra(
                        f"transition of {s!r} leaves the state set: {ch!r}"
                    )

    def transition(self, s):
        got = self._gamma_cache.get(s)
        if got is None:
            raw = self.gamma[s] if isinstance(self.gamma, Mapping) else self.gamma(s)
            label, children = raw
            children = tuple(children)
            i = self.sort_of[s]
            if label not in self.base.labels(i):
                raise UnknownLabel(f"state {s!r}: label {label!r} not at sort {i!r}")
            key = (i, label)
            if len(children) != self.base.arity[key]:
                raise ArityMismatch(
                    f"state {s!r}: label {label!r} has arity {self.base.arity[key]}, "
                    f"got {len(children)} children"
                )
            for b, ch in enumerate(children):
                if ch not in self.sort_of:
                    raise InvalidCoalgebra(
                        f"transition of {s!r} leaves the state set: {ch!r}"
                    )
                want = self.base.child_sort[key][b]
                if self.sort_of[ch] != want:
                    raise InvalidCoalgebra(
                        f"state {s!r}: child {b} has sort {self.sort_of[ch]!r}, "
                        f"expected {want!r}"
                    )
            got = (label, children)
            self._gamma_cache[s] = got
        return got

    @property
    def state_enumeration(self) -> tuple:
        """The states, under the name the plain algorithms read."""
        return self.states

    # The depth-n observation of a state, ``_observe(s, n)``: a read of the
    # level table, as pointed elements take it.
    _observe = _level_entry


@dataclass(frozen=True)
class SortedApproxTree:
    """An approximation tree together with the sort of its root; the sorts
    of all subtrees are determined by the child-sort assignment."""

    sort: object
    tree: ApproxTree

    @property
    def depth(self):
        return self.tree.depth


class SortedMElement(_Element):
    """An element of the indexed final coalgebra at a fixed sort, pointed
    at a state of a coalgebra: ``SortedMElement(base, sort, coalgebra=c,
    state=s)`` as :func:`iunfold` and :func:`i_into` make it, or
    ``SortedMElement(base, sort, limit)`` for a family built by hand,
    pointed at ``(LIMITS, limit)`` (see :class:`~omegacoalg.mtype._Element`).
    Equality and hash are those of :class:`~omegacoalg.mtype.MElement`
    plus the sort."""

    __slots__ = ("base", "sort")
    _made_by = ("i_into", "iunfold", "indexed")

    def __init__(
        self,
        base: IndexedContainer,
        sort,
        limit: Optional[LimitElement] = None,
        *,
        coalgebra=None,
        state=None,
    ):
        self.base = base
        self.sort = sort
        self._hold(limit, coalgebra, state)

    def _key(self) -> tuple:
        return super()._key() + (self.sort,)

    def __repr__(self):
        return f"SortedMElement({self.sort!r}, {self._provenance() or 'anonymous'})"


def well_sorted(ic: IndexedContainer, t: SortedApproxTree) -> bool:
    """Check labels and child sorts recursively against the container: the
    one-tree case of :func:`well_sorted_all`."""
    return well_sorted_all(ic, (t,))


def well_sorted_all(ic: IndexedContainer, trees: Iterable[SortedApproxTree]) -> bool:
    """Check every tree of ``trees`` as :func:`well_sorted` does, in one
    walk: trees are interned, so a (sort, subtree) pair checks the same way
    on every path and in every tree, and each distinct pair is checked once
    across the whole family, however much the trees share."""
    seen = set()
    for t in trees:
        stack = [(t.sort, t.tree)]
        while stack:
            sort, node = stack.pop()
            if node.is_trunc:
                continue
            mark = (sort, id(node))
            if mark in seen:
                continue
            seen.add(mark)
            if node.label not in ic.labels(sort):
                return False
            key = (sort, node.label)
            if len(node.children) != ic.arity[key]:
                return False
            for b, ch in enumerate(node.children):
                stack.append((ic.child_sort[key][b], ch))
    return True


def iapproximate(c: IndexedCoalgebra, s, n: int) -> SortedApproxTree:
    """Depth-n observation of an indexed state, carrying its sort.  The tree
    comes from the coalgebra's level table, filled by the same engine as
    :func:`omegacoalg.mtype.approximate`."""
    return SortedApproxTree(c.sort_of[s], _level_entry(c, s, n))


def iapproximate_all(c: IndexedCoalgebra, n: int) -> list:
    """Fill the level table with every state at every depth k <= n: the
    plain :func:`omegacoalg.mtype.approximate_all`; returns the table up to
    depth n."""
    return approximate_all(c, n)


def iunfold(c: IndexedCoalgebra, s) -> SortedMElement:
    """Corecursion into the indexed final coalgebra at sort_of(s): the
    element pointed at ``(c, s)``, whose stage n is one read of ``c``'s
    level table."""
    return SortedMElement(c.base, c.sort_of[s], coalgebra=c, state=s)


def i_out(m: SortedMElement):
    """Expose the root label and the child elements, with the children's
    sorts read off the child-sort assignment, in O(arity).

    As :func:`omegacoalg.mtype.out`: the children of an element pointed at
    ``(c, s)`` are pointed at ``c``'s child states (for a family built by
    hand, the children :data:`~omegacoalg.chain.LIMITS` gives), and those
    of an element of :func:`i_into` are the children it was given.  A root
    label that is not available at the element's sort raises
    :class:`SortMismatch`.
    """
    c = m.coalgebra
    if type(c) is _FreeExtension:
        return c.label, c.children
    label, children = c.transition(m.state)
    sorts = m.base.child_sort.get((m.sort, label))
    if sorts is None:
        raise SortMismatch(f"root label {label!r} is not available at sort {m.sort!r}")
    return label, tuple(
        [SortedMElement(m.base, j, coalgebra=c, state=t) for j, t in zip(sorts, children)]
    )


def i_into(ic: IndexedContainer, sort, label, children) -> SortedMElement:
    """Inverse of :func:`i_out`: assemble an element at ``sort`` from a
    label and correctly sorted child elements.  The result is pointed at
    the one-state free extension that steps to ``(label, children)``: stage
    n is the label over the children's stage n-1, and :func:`i_out` gives
    back ``(label, children)``."""
    if label not in ic.labels(sort):
        raise SortMismatch(f"label {label!r} is not available at sort {sort!r}")
    key = (sort, label)
    children = tuple(children)
    if len(children) != ic.arity[key]:
        raise ArityMismatch(
            f"label {label!r} at sort {sort!r} has arity {ic.arity[key]}, "
            f"got {len(children)} children"
        )
    for b, ch in enumerate(children):
        if ch.sort != ic.child_sort[key][b]:
            raise SortMismatch(
                f"child {b} has sort {ch.sort!r}, expected {ic.child_sort[key][b]!r}"
            )
    return SortedMElement(ic, sort, coalgebra=_FreeExtension(label, children), state=None)


def _same_sort(c: IndexedCoalgebra, s, t) -> None:
    if c.sort_of[s] != c.sort_of[t]:
        raise SortMismatch(
            f"states {s!r} and {t!r} have sorts {c.sort_of[s]!r} and {c.sort_of[t]!r}"
        )


def ibounded_bisim(c: IndexedCoalgebra, s, t, depth: int) -> bool:
    """Depth-wise observational equality, only meaningful within a sort:
    :func:`omegacoalg.bisim.bounded_bisim` after a sort check."""
    _same_sort(c, s, t)
    return bounded_bisim(c, s, t, depth)


def ifirst_divergence_depth(c: IndexedCoalgebra, s, t, max_depth: int) -> Optional[int]:
    """:func:`omegacoalg.bisim.first_divergence_depth` after a sort check.
    Within a sort the raw labels differ exactly where the sorted ones do."""
    _same_sort(c, s, t)
    return first_divergence_depth(c, s, t, max_depth)


def _sorts_kept(c: IndexedCoalgebra, map_fn, states) -> bool:
    """Whether ``map_fn`` sends every checked state to an element of the
    state's own sort."""
    return all(map_fn(s).sort == c.sort_of[s] for s in (c.states if states is None else states))


def iverify_morphism(c: IndexedCoalgebra, map_fn, depth: int, states=None) -> bool:
    """The morphism law for maps state -> SortedMElement: a sort check,
    then :func:`omegacoalg.mtype.verify_morphism`, which first fills the
    level table by one sweep when every state is checked
    (``states=None``)."""
    if states is not None:
        states = tuple(states)
    return _sorts_kept(c, map_fn, states) and verify_morphism(
        MorphismCandidate(c, map_fn), depth, states
    )


def iuniqueness_probe(c: IndexedCoalgebra, map_fn, depth: int, states=None) -> bool:
    """Any verified indexed morphism agrees with iunfold: a sort check,
    then :func:`omegacoalg.mtype.uniqueness_probe`."""
    if states is not None:
        states = tuple(states)
    if not _sorts_kept(c, map_fn, states):
        raise NotAMorphism("candidate fails the indexed morphism law: a state changes sort")
    return uniqueness_probe(c, MorphismCandidate(c, map_fn), depth, states)


def _tagged_plain(c: IndexedCoalgebra) -> Coalgebra:
    """Reduce an indexed coalgebra to a plain one by tagging labels with
    their sort; the plain partition/minimization algorithms then respect
    sorts automatically."""
    ic = c.base
    labels = tuple((i, a) for i in ic.sorts for a in ic.labels(i))
    container = Container(
        arity={(i, a): ic.arity[(i, a)] for (i, a) in labels}, labels=labels
    )
    gamma = {}
    for s in c.states:
        label, children = c.transition(s)
        gamma[s] = PValue((c.sort_of[s], label), children)
    return Coalgebra(container, gamma, state_enumeration=c.states, name="tagged")


def embed_plain(container, coalgebra) -> IndexedCoalgebra:
    """View a plain coalgebra (with enumerated labels and states) as an
    indexed one over a single sort."""
    sort = "*"
    labels = container.labels
    if labels is None:
        raise UnknownLabel("embedding needs an enumerated label domain")
    ic = IndexedContainer(
        sorts=(sort,),
        labels_at={sort: tuple(labels)},
        arity={(sort, a): container.arity_of(a) for a in labels},
        child_sort={(sort, a): (sort,) * container.arity_of(a) for a in labels},
    )
    states = coalgebra.state_enumeration
    gamma = {}
    for s in states:
        pv = coalgebra.transition(s)
        gamma[s] = (pv.label, pv.children)
    return IndexedCoalgebra(
        ic,
        states=states,
        sort_of={s: sort for s in states},
        gamma=gamma,
        name=f"embed({coalgebra.name})" if coalgebra.name else "embed",
    )
