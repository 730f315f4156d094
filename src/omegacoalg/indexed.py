"""Indexed containers: sorted signatures, coalgebras, and corecursion.

An indexed container fibres a signature over a finite set of sorts; each
label lives at a sort and assigns a sort to every child position.

An indexed coalgebra *is* a plain :class:`~omegacoalg.mtype.Coalgebra`
whose transitions are sort-checked when admitted: ``transition`` returns a
:class:`~omegacoalg.container.PValue` from the one transition cache, and
the level table is the plain one.  So the plain observations, the depth
oracle, the pair search, partition refinement, minimization and the
finality probes run on it unchanged.  A sort is all it adds: the
coalgebra names each state's sort (:meth:`IndexedCoalgebra._sort`), which
bisimilarity compares beside the label, and a quotient is again indexed.
Ill-sorted inputs are rejected eagerly.

A sorted element is a plain :class:`~omegacoalg.mtype.MElement` that
carries its sort (``sort=``).  The plain ``unfold`` gives it the state's
sort, and ``approximate_all``, ``out``, ``into`` (given the sort),
``verify_morphism`` and ``uniqueness_probe`` serve sorted elements,
reading child sorts off :meth:`IndexedContainer.child_sorts`; so do
``bounded_bisim`` and ``first_divergence_depth``, which answer that
states of different sorts differ at depth 1.  :func:`iapproximate` is
``approximate`` carrying its sort.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .container import ApproxTree, PValue, _Frozen, _setattr
from .errors import InvalidCoalgebra, SortMismatch, UnknownLabel
from .mtype import Coalgebra, approximate


class IndexedContainer:
    """Sorts, labels per sort, arities, and the child-sort assignment.

    ``child_sort[(sort, label)]`` is the tuple of sorts of the children, one
    per position; its length must equal the arity.  Closure into ``sorts``
    is validated at construction, which keeps ``child_sort`` as one tuple
    per declared label (a leaf label may leave its entry out).  Indexed
    containers compare by identity.
    """

    def __init__(self, sorts: tuple, labels_at: Mapping, arity: Mapping, child_sort: Mapping):
        pool = set(sorts)
        if len(pool) != len(sorts):
            raise InvalidCoalgebra("duplicate sorts")
        table = {}
        for i in sorts:
            for a in labels_at.get(i, ()):
                key = (i, a)
                if key not in arity:
                    raise UnknownLabel(f"no arity for label {a!r} at sort {i!r}")
                cs = table[key] = tuple(child_sort.get(key, ()))
                if len(cs) != arity[key]:
                    raise InvalidCoalgebra(
                        f"label {a!r} at sort {i!r}: {len(cs)} child sorts, arity {arity[key]}"
                    )
                for j in cs:
                    if j not in pool:
                        raise InvalidCoalgebra(
                            f"label {a!r} at sort {i!r} has child sort {j!r} outside the sort list"
                        )
        self.sorts = sorts
        self.labels_at = labels_at
        self.arity = arity
        self.child_sort = table

    def labels(self, sort) -> tuple:
        return tuple(self.labels_at.get(sort, ()))

    def child_sorts(self, sort, label) -> tuple:
        """The sorts of the children of a ``label`` node at ``sort``; a
        label that is not available at ``sort`` raises
        :class:`SortMismatch`."""
        sorts = self.child_sort.get((sort, label))
        if sorts is None:
            raise SortMismatch(f"root label {label!r} is not available at sort {sort!r}")
        return sorts

    def _arity(self, sort, label) -> int:
        """The number of children of a ``label`` node at ``sort``: the
        length of its stored child-sort tuple."""
        return len(self.child_sorts(sort, label))


class IndexedCoalgebra(Coalgebra):
    """A coalgebra whose states have a sort each and whose transitions are
    sort-checked: a transition is admitted only if its label lives at the
    state's sort and each child is a state of the sort its position asks
    for.  The transition cache, the level table and ``transition``, which
    returns a :class:`~omegacoalg.container.PValue`, are those of
    :class:`~omegacoalg.mtype.Coalgebra`.  Finite presentations are
    validated at construction; with ``states`` None there is no
    enumeration, as for a plain coalgebra."""

    _duplicates = "duplicate states"
    _state_pool = "state set"

    def __init__(self, base: IndexedContainer, states, sort_of: Mapping, gamma, name: str = ""):
        self.sort_of = sort_of
        super().__init__(base, gamma, None if states is None else tuple(states), name)

    def _admit(self, s, pv: PValue) -> None:
        """What sorts add to the plain arity check: the state's sort must be
        declared, the label must live at it, and every child must be a
        state of the sort its position asks for."""
        ic = self.container
        i = self._sort(s)
        if i not in ic.sorts:
            raise InvalidCoalgebra(f"state {s!r} has unknown sort {i!r}")
        label, children = pv
        sorts = ic.child_sort.get((i, label))
        if sorts is None:
            raise UnknownLabel(f"state {s!r}: label {label!r} not at sort {i!r}")
        super()._admit(s, pv)
        for b, (ch, want) in enumerate(zip(children, sorts)):
            if ch not in self.sort_of:
                raise InvalidCoalgebra(f"transition of {s!r} leaves the state set: {ch!r}")
            if self.sort_of[ch] != want:
                raise InvalidCoalgebra(
                    f"state {s!r}: child {b} has sort {self.sort_of[ch]!r}, "
                    f"expected {want!r}"
                )

    def _sort(self, s):
        """The sort of state ``s``, which :func:`~omegacoalg.mtype.unfold`
        gives its element; a state with none raises
        :class:`InvalidCoalgebra`."""
        try:
            return self.sort_of[s]
        except KeyError:
            raise InvalidCoalgebra(f"state {s!r} has no sort") from None

    def _like(self, states: tuple, name: str) -> "IndexedCoalgebra":
        """An indexed coalgebra over the same signature for ``states``,
        each of its sort here, with no store or tables yet."""
        sort_of = {s: self.sort_of[s] for s in states}
        return IndexedCoalgebra(self.container, None, sort_of, None, name)


class SortedApproxTree(_Frozen):
    """An approximation tree together with the sort of its root; the sorts
    of all subtrees are determined by the child-sort assignment.  Immutable,
    and equal and hashed by ``(sort, tree)``."""

    __slots__ = ("sort", "tree")

    def __init__(self, sort, tree: ApproxTree):
        _setattr(self, "sort", sort)
        _setattr(self, "tree", tree)

    def __iter__(self):
        """Unpack as ``sort, tree``, the shape :func:`well_sorted_all`
        reads."""
        return iter((self.sort, self.tree))


def well_sorted(ic: IndexedContainer, t: SortedApproxTree) -> bool:
    """Check labels and child sorts recursively against the container: the
    one-tree case of :func:`well_sorted_all`."""
    return well_sorted_all(ic, (t,))


def well_sorted_all(ic: IndexedContainer, trees: Iterable) -> bool:
    """Check every tree of ``trees``, each a ``(sort, tree)`` pair or a
    :class:`SortedApproxTree`, as :func:`well_sorted` does, in one walk:
    trees are interned, so a (sort, subtree) pair checks the same way on
    every path and in every tree, and each distinct pair is checked once
    across the whole family, however much the trees share."""
    seen = set()
    for sort, tree in trees:
        stack = [(sort, tree)]
        while stack:
            sort, node = stack.pop()
            if node.is_trunc:
                continue
            mark = (sort, id(node))
            if mark in seen:
                continue
            seen.add(mark)
            sorts = ic.child_sort.get((sort, node.label))
            if sorts is None or len(node.children) != len(sorts):
                return False
            stack.extend(zip(sorts, node.children))
    return True


def iapproximate(c: IndexedCoalgebra, s, n: int) -> SortedApproxTree:
    """Depth-n observation of an indexed state, carrying its sort.  The tree
    comes from the coalgebra's level table, filled by the same engine as
    :func:`omegacoalg.mtype.approximate`."""
    return SortedApproxTree(c._sort(s), approximate(c, s, n))


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
    return IndexedCoalgebra(
        ic,
        states=states,
        sort_of={s: sort for s in states},
        gamma=coalgebra.transition,
        name=f"embed({coalgebra.name})" if coalgebra.name else "embed",
    )
