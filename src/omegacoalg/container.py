"""Signatures (containers), polynomial-functor values, and depth-bounded
approximation trees.

A container is a label domain together with a finite arity per label; the
positions of a label ``a`` are the indices ``0..arity(a)-1``.  The induced
polynomial functor sends a payload type ``X`` to values pairing a label with
one child per position (:class:`PValue`).  Iterating the functor on the unit
type yields the depth-n approximation trees (:class:`ApproxTree`), connected
by the truncation maps :func:`truncate`.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from itertools import chain, compress, repeat

from .errors import (
    ArityMismatch,
    CannotTruncateUnit,
    DepthTooLarge,
    NeedsFiniteLabels,
    RaggedDepth,
    SizeBoundExceeded,
    SortMismatch,
    UnknownLabel,
)

DEFAULT_ENUMERATION_BOUND = 10**6


class Container:
    """A signature: an arity per label, optionally with a finite label list.

    ``arity`` is either a mapping from labels to non-negative integers or a
    total function on the label domain.  ``labels`` is required by operations
    that enumerate (and by the CLI profile); it must be duplicate-free.
    Containers compare by identity.
    """

    def __init__(self, arity: Mapping | Callable[[object], int], labels: tuple | None = None):
        self.arity = arity
        self.labels = labels = None if labels is None else tuple(labels)
        if labels is not None:
            if len(set(labels)) != len(labels):
                raise UnknownLabel("label enumeration contains duplicates")
            for a in labels:
                if self.arity_of(a) < 0:
                    raise UnknownLabel(f"negative arity for label {a!r}")

    def arity_of(self, label) -> int:
        if callable(self.arity):
            return int(self.arity(label))
        try:
            return int(self.arity[label])
        except KeyError:
            raise UnknownLabel(f"label {label!r} has no declared arity") from None

    def _arity(self, sort, label) -> int:
        """The number of children of a ``label`` node at ``sort``, as
        :meth:`child_sorts` counts them, with no tuple built."""
        if sort is not None:
            raise SortMismatch(f"a plain container has no sorts, got sort {sort!r}")
        return self.arity_of(label)

    def child_sorts(self, sort, label) -> tuple:
        """The sorts of the children of a ``label`` node at ``sort``: one
        None per position, since a plain container is the one-sort case
        whose sort is None; another sort raises :class:`SortMismatch`."""
        return (None,) * self._arity(sort, label)


class ApproxTree:
    """An element of the depth-n approximation stage: the unit value (Trunc)
    at depth 0, or a labelled node whose children sit one stage lower.

    Zero-arity nodes may sit at any depth >= 1; all other nodes have children
    of depth exactly ``depth - 1``.

    Instances are hash-consed: structurally equal trees are the *same* object,
    so equality, hashing and set membership are O(1) even though deep trees
    share subtrees internally.  Always build through :func:`make_trunc`,
    :func:`make_node` or the library operations, never by hand.

    A tree keeps its truncation in the slot ``_truncation`` once
    :func:`truncate` has projected it (or a tree above it, through the one
    projection walk, :func:`_project`), or once ``check``'s compatibility
    law (:func:`_truncates_to`) has compared it with the tree one level
    below it in a level table; None until then.  The slot is the one place
    a truncation is kept, and it holds nothing but a true truncation;
    :func:`truncate_to` neither reads nor sets it.
    """

    __slots__ = ("depth", "label", "children", "_truncation")

    def __init__(self, depth, label, children):
        self.depth = depth
        self.label = label
        self.children = children
        self._truncation = None

    @property
    def is_trunc(self) -> bool:
        return self.label is _TRUNC_LABEL

    def __repr__(self):
        if self.is_trunc:
            return "Trunc"
        if not self.children:
            return f"Node({self.label!r}@{self.depth})"
        return f"Node({self.label!r}@{self.depth}, {list(self.children)!r})"


class _TruncLabel:
    __slots__ = ()

    def __repr__(self):
        return "<trunc>"


_TRUNC_LABEL = _TruncLabel()

# The intern table: one dict per label, from a tree's key to the tree.
# The key of a node is its own ``children`` tuple, and that of a nullary
# node its depth, so a tree is stored with no key of its own.  A tree
# whose children are not all one level below it (only a planted table or
# a hand-built family asks for one) is keyed by ``(depth, children)``,
# apart from every other key: a children tuple holds trees, not a depth.
_interned: dict = {}


def _table(label) -> dict:
    """The intern table of ``label``, made on first use."""
    table = _interned.get(label)
    if table is None:
        table = _interned[label] = {}
    return table


def _tree(depth: int, label, children: tuple) -> ApproxTree:
    """The interned tree of ``depth`` and ``label`` over ``children``, made
    on first use: looked up in its label's dict by ``children``, by
    ``depth`` when there are none, and by ``(depth, children)`` when a
    child does not sit at ``depth - 1``."""
    if children:
        key = children
        d = depth - 1
        for ch in children:
            if ch.depth != d:
                key = (depth, children)
                break
    else:
        key = depth
    table = _table(label)
    t = table.get(key)
    if t is None:
        t = table[key] = ApproxTree(depth, label, children)
    return t


def _intern_all(depth: int, label, keys: list) -> list:
    """:func:`_tree` of ``depth``, ``label`` and each children tuple of
    ``keys``, in order, for keys whose children all sit at ``depth - 1``,
    which the caller vouches for.  The lookups are one ``map``; only the
    missing trees are made, one per distinct missing key, so a key
    repeated in the batch gives one tree, whose ``children`` is that key."""
    table = _table(label)
    got = list(map(table.get, keys))
    if None in got:
        new = dict.fromkeys(compress(keys, map(operator.is_, got, repeat(None))))
        table.update(zip(new, map(ApproxTree, repeat(depth), repeat(label), new)))
        got = list(map(table.__getitem__, keys))
    return got


TRUNC = _tree(0, _TRUNC_LABEL, ())


class _Frozen:
    """An immutable value whose fields are its slots: equality, hash and
    repr read the fields, and assignment is refused.  Instances are built
    with ``_setattr``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


_setattr = object.__setattr__


class PValue(_Frozen):
    """A polynomial-functor value: a label with one payload per position.
    Immutable, and equal and hashed by ``(label, children)``."""

    # One value is made per loaded state and per ``out``: its fields are
    # set directly, and its slots keep it small.
    __slots__ = ("label", "children")

    def __init__(self, label, children):
        _setattr(self, "label", label)
        _setattr(self, "children", children if type(children) is tuple else tuple(children))

    def __iter__(self):
        """Unpack as ``label, children``, the shape of every transition."""
        return iter((self.label, self.children))


def pmap(f: Callable, v: PValue) -> PValue:
    """Apply ``f`` to every child payload, keeping the label (the functor
    action on maps)."""
    return PValue(v.label, tuple(f(ch) for ch in v.children))


def make_trunc() -> ApproxTree:
    """The unique depth-0 tree."""
    return TRUNC


def make_node(c: Container, a, cs: Sequence[ApproxTree], depth: int | None = None) -> ApproxTree:
    """Build a node labelled ``a`` with children ``cs``.

    Children must all have the same depth d; the node sits at depth d+1.
    Zero-arity nodes default to depth 1; pass ``depth`` to place a leaf at a
    deeper stage.
    """
    cs = tuple(cs)
    n = c.arity_of(a)
    if len(cs) != n:
        raise ArityMismatch(f"label {a!r} has arity {n}, got {len(cs)} children")
    if cs:
        depths = {ch.depth for ch in cs}
        if len(depths) != 1:
            raise RaggedDepth(f"children depths differ: {sorted(depths)}")
        d = cs[0].depth + 1
        if depth is not None and depth != d:
            raise RaggedDepth(f"requested depth {depth} but children force depth {d}")
    else:
        d = 1 if depth is None else depth
        if d < 1:
            raise RaggedDepth("nodes sit at depth >= 1")
    return _tree(d, a, cs)


def _no_stage(n: int) -> CannotTruncateUnit:
    return CannotTruncateUnit(f"no approximation stage below depth 0: depth {n}")


def truncate(c: Container, t: ApproxTree) -> ApproxTree:
    """The chain projection: drop the deepest layer of observations.

    Any depth-1 tree maps to Trunc, a deeper node keeps its label over its
    children's truncations, and Trunc raises :class:`CannotTruncateUnit`.
    ``c`` is not consulted.  A tree keeps its own truncation, and no table
    outside the trees is kept, so each tree is truncated once: a tree
    already truncated is read off its slot, and the walk stops at subtrees
    already truncated."""
    return _truncate(t)


def _truncate(t: ApproxTree) -> ApproxTree:
    """:func:`truncate`, the projection of the approximation chain: the
    ``_truncation`` slot when it is set, else :func:`_project` by one
    layer, filling the slot of every tree it reaches."""
    got = t._truncation
    if got is None:
        if t.depth == 0:
            raise CannotTruncateUnit("Trunc has no stage below it")
        got = _project(t, 1, _truncation_of, _set_truncation)
    return got


def _project(t: ApproxTree, drop: int, get: Callable, put: Callable) -> ApproxTree:
    """``t`` with its deepest ``drop`` >= 1 layers dropped, in one walk from
    an explicit stack: a tree ``drop`` deep becomes Trunc, and a deeper one
    its label over its children's projections.  ``get(u)`` reads the
    projection of ``u`` made so far, None if none, and ``put(u, p)`` keeps
    one that the walk makes, so the walk stops at a subtree already
    projected: :func:`_truncate` keeps them in the trees' slots,
    :func:`truncate_to` in a dict of its own.  A child that a node holds
    twice is pushed twice, and its second visit finds its children
    projected: one interned lookup."""
    stack = [t]
    while stack:
        cur = stack[-1]
        if cur.depth == drop:
            put(cur, TRUNC)
        else:
            kids = tuple(map(get, cur.children))
            if None in kids:
                stack.extend([ch for ch, got in zip(cur.children, kids) if got is None])
                continue
            put(cur, _tree(cur.depth - drop, cur.label, kids))
        stack.pop()
    return get(t)


_depth_of = operator.attrgetter("depth")
_label_of = operator.attrgetter("label")
_children_of = operator.attrgetter("children")
_truncation_of = operator.attrgetter("_truncation")
_set_truncation = ApproxTree._truncation.__set__


def _truncates_to(row: list, lower: list) -> bool:
    """Whether :func:`_truncate` of each tree of ``row`` is the tree at the
    same place in ``lower``, for two rows of a level table, depths k and
    k-1 (never so for Trunc, which has no truncation).  A repeated tree
    must meet one tree of ``lower`` at all its places; then the distinct
    pairs are compared, as one batch of list comparisons when every tree is
    deeper than 1 and every child holds its truncation in its slot: the
    truncation of a node is the interned node one lower with its label over
    its children's truncations, so it is ``u`` exactly when ``u`` has that
    depth, that label and those children.  Only once the whole batch
    compares equal is each tree's slot set to its tree of ``lower``, so a
    slot holds nothing but a true truncation.  Otherwise each goes through
    :func:`_truncate`, which fills the slots it reaches."""
    pairs = dict(zip(row, lower))
    if len(pairs) < len(row) and not all(map(operator.is_, map(pairs.__getitem__, row), lower)):
        return False
    trees = list(pairs)
    lower = list(pairs.values())
    depths = list(map(_depth_of, trees))
    kids = list(map(_children_of, trees))
    down = list(map(_truncation_of, chain.from_iterable(kids)))
    if min(depths, default=2) < 2 or None in down:
        return 0 not in depths and all(map(operator.is_, map(_truncate, trees), lower))
    below = list(map(_children_of, lower))
    same = (
        list(map(operator.sub, depths, repeat(1))) == list(map(_depth_of, lower))
        and list(map(_label_of, trees)) == list(map(_label_of, lower))
        and list(map(len, kids)) == list(map(len, below))
        and down == list(chain.from_iterable(below))
    )
    if same:
        deque(map(setattr, trees, repeat("_truncation"), lower), 0)
    return same


def truncate_to(c: Container, t: ApproxTree, m: int) -> ApproxTree:
    """Project ``t`` down to stage ``m``, dropping its deepest ``t.depth -
    m`` layers in one walk (:func:`_project`), whose projections are kept
    in a dict that lives only for the call: no truncation slot is read or
    set.  A negative ``m`` raises :class:`CannotTruncateUnit`."""
    if m < 0:
        raise _no_stage(m)
    if m > t.depth:
        raise DepthTooLarge(f"cannot raise depth {t.depth} to {m}")
    if m == t.depth:
        return t
    memo: dict = {}
    return _project(t, t.depth - m, memo.get, memo.__setitem__)


def tree_equal(t1: ApproxTree, t2: ApproxTree) -> bool:
    """Decidable structural equality of approximation trees.

    Thanks to hash-consing this is an identity check.
    """
    return t1 is t2


def enumerate_w(
    c: Container, n: int, bound: int = DEFAULT_ENUMERATION_BOUND
) -> list:
    """Brute-force enumeration of all depth-n trees over ``c``.

    Requires a finite label enumeration.  Sizes follow the recurrence
    |W_0| = 1, |W_{n+1}| = sum_a |W_n|^arity(a); the enumeration is aborted
    if any stage would exceed ``bound`` trees.  A negative ``n`` raises
    :class:`CannotTruncateUnit`.
    """
    if n < 0:
        raise _no_stage(n)
    if c.labels is None:
        raise NeedsFiniteLabels("enumerate_w needs a finite label enumeration")
    arities = [c.arity_of(a) for a in c.labels]
    count = 1
    for _ in range(n):
        count = sum(count**k for k in arities)
        if count > bound:
            raise SizeBoundExceeded(f"stage would hold {count} > {bound} trees")
    stage = [TRUNC]
    for d in range(1, n + 1):
        nxt = []
        for a, k in zip(c.labels, arities):
            for combo in itertools.product(stage, repeat=k):
                nxt.append(_tree(d, a, combo))
        stage = nxt
    return stage
