"""Bisimulation witnesses, depth-bounded bisimilarity, and partition
refinement for finite coalgebras.

A witness is a bare relation on states.  The transitions fix the coalgebra
structure a bisimulation carries over a container functor, so verification
reads each related pair's labels, sorts and successors off them, and it
checks the relation up to equivalence (Hopcroft & Karp, 1971): successor
pairs need only lie in the equivalence that the relation generates, which
is then itself a bisimulation.  A partition is witnessed by one pair per
state.

Bisimilarity is decided on the finite coalgebra itself, with no depth-n
observation built: :func:`partition_refine` refines the partition by sort
and label by successor blocks to a fixpoint, in whole-row rounds and then,
for a refinement that stays deep, dirty-set rounds, in O((n + m) log n)
for n states and m edges, and :func:`divergence_depth` answers one pair by
a union-find search over child pairs in O(n r alpha(n)) for arity at most
r.  Sorts enter
through :meth:`~omegacoalg.mtype.Coalgebra._sort` alone (None when plain).
Related-in-a-block then coincides with equality of all finite-depth
observations.  :func:`first_divergence_depth` and :func:`bounded_bisim`
compare those observations directly up to a depth bound; they are the
reference oracle the fast procedures are tested against.
"""

from __future__ import annotations

import operator
import weakref
from array import array
from collections import Counter, deque
from functools import cached_property
from itertools import accumulate, chain, compress, count, filterfalse, repeat

from .container import _no_stage
from .mtype import Coalgebra, _class_columns, _first_use, approximate
from .errors import (
    InvalidWitness,
    NeedsFiniteStates,
    PairNotRelated,
)


class BisimWitness:
    """A relation on states, as a frozenset of pairs (s, t).  It witnesses
    bisimilarity of every pair in the equivalence it generates when each
    related pair agrees in label and sort and its position-b successors lie
    in that equivalence (:func:`verify_bisim`)."""

    def __init__(self, relation: frozenset):
        self.relation = relation
        # Per coalgebra it verified on: the relation verified, by identity,
        # and the union-find of its equivalence (:func:`_verified_classes`).
        # Weak keys, so that the witness does not keep a coalgebra alive.
        self._verified = weakref.WeakKeyDictionary()


class Partition:
    """Disjoint nonempty blocks covering the state enumeration ``states``;
    after refinement, two states share a block iff they are bisimilar.

    A partition is its numbering ``numbers``, an ``array('l')`` whose entry
    i is the block of state number i, the blocks numbered in order of their
    earliest member.  ``blocks``, one tuple of states per block in that
    order, and the index behind :meth:`block_of` are built on first read."""

    def __init__(self, states: tuple, numbers: array):
        self.states = states
        self.numbers = numbers

    @cached_property
    def blocks(self) -> tuple:
        groups: list = [[] for _ in range(max(self.numbers, default=-1) + 1)]
        deque(map(list.append, map(groups.__getitem__, self.numbers), self.states), 0)
        return tuple(map(tuple, groups))

    @cached_property
    def _block_index(self) -> dict:
        return {s: b for b in self.blocks for s in b}

    def block_of(self, s):
        """The block containing ``s``, in O(1) from an index built on first
        use; ``KeyError`` for a state in no block."""
        return self._block_index[s]


def _require_states(c: Coalgebra):
    if c.state_enumeration is None:
        raise NeedsFiniteStates("operation needs a finite state enumeration")
    return c.state_enumeration


def diagonal_bisim(c: Coalgebra) -> BisimWitness:
    """The identity relation as a bisimulation witness: the witness of the
    partition into singletons."""
    states = _require_states(c)
    return witness_from_partition(c, Partition(states, array("l", range(len(states)))))


def find(parent: dict, x):
    """The root of ``x`` in the union-find forest ``parent``, halving the
    path on the way; a state absent from ``parent`` is its own root."""
    while True:
        p = parent.get(x, x)
        if p == x:
            return x
        g = parent.get(p, p)
        parent[x] = g
        x = g


def _merge(parent: dict, x, y) -> bool:
    """Join the classes of ``x`` and ``y``; False if they were one already."""
    rx, ry = find(parent, x), find(parent, y)
    if rx == ry:
        return False
    parent[rx] = ry
    return True


def _classes(relation) -> dict:
    """The union-find forest of the equivalence ``relation`` generates."""
    parent: dict = {}
    for s, t in relation:
        _merge(parent, s, t)
    return parent


def bisim_violations(c: Coalgebra, w: BisimWitness):
    """Yield human-readable reasons the witness fails, if any: a related
    pair whose labels or sorts differ, or whose successors at some position
    lie outside the equivalence the relation generates."""
    yield from _violations(c, w.relation, _classes(w.relation))


def _violations(c: Coalgebra, relation, parent: dict):
    """:func:`bisim_violations` of ``relation``, given the union-find
    ``parent`` of the equivalence it generates."""
    for pair in relation:
        s, t = pair
        gs, gt = c.transition(s), c.transition(t)
        if gs.label != gt.label:
            yield f"pair {pair!r}: labels {gs.label!r} and {gt.label!r}"
            continue
        i, j = c._sort(s), c._sort(t)
        if i != j:
            yield f"pair {pair!r}: states of sorts {i!r} and {j!r}"
            continue
        for b, (x, y) in enumerate(zip(gs.children, gt.children)):
            if find(parent, x) != find(parent, y):
                yield f"pair {pair!r}: successor pair {(x, y)!r} at position {b} not related up to equivalence"
                break


def verify_bisim(c: Coalgebra, w: BisimWitness) -> bool:
    """True iff every witness clause holds for every related pair."""
    return next(bisim_violations(c, w), None) is None


def first_divergence_depth(c: Coalgebra, s, t, max_depth: int) -> int | None:
    """Smallest n <= max_depth at which the observations of s and t differ,
    or None if none exists within the bound.

    The depth oracle: it builds the depth-n observations for n = 0, 1, ...,
    which costs up to O(max_depth * |S| * arity).  Observations carry
    labels, not sorts (:meth:`~omegacoalg.mtype.Coalgebra._sort`), so the
    roots' sorts are compared first: in an indexed coalgebra, roots of
    different sorts differ at depth 1 even where their labels agree.  Below
    roots of equal sort and label the child sorts agree position by
    position, so deeper observations need no sorts.  With max_depth >= |S|
    it agrees with :func:`divergence_depth`.  A negative max_depth names
    no stage and raises :class:`CannotTruncateUnit`."""
    if max_depth < 0:
        raise _no_stage(max_depth)
    if max_depth >= 1 and c._sort(s) != c._sort(t):
        return 1
    for n in range(max_depth + 1):
        if approximate(c, s, n) is not approximate(c, t, n):
            return n
    return None


def bounded_bisim(c: Coalgebra, s, t, depth: int) -> bool:
    """Observational-equality oracle: equal depth-n observations for all
    n <= depth."""
    return first_divergence_depth(c, s, t, depth) is None


def divergence_depth(c: Coalgebra, s, t) -> int | None:
    """The exact smallest depth at which the observations of s and t
    differ, or None if s and t are bisimilar.

    Breadth-first search over child pairs, starting from (s, t); every
    enqueued pair is merged in a union-find, and a pair whose states already
    share a root is skipped.  Roots of different sorts differ at depth 1;
    below them, the first pair at BFS level l with different labels gives
    depth l + 1, since children paired under equal sorts and labels have
    equal sorts.  Skipping is sound
    because depth-n agreement is an equivalence relation: a skipped pair is
    linked by enqueued pairs of no greater level, each of which agrees at
    least as deep.  Every expanded pair made a merge, so at most |S| pairs
    are expanded: O(n r alpha(n)) for n states of arity at most r, with no
    depth-n observation built.
    """
    _require_states(c)
    if c._sort(s) != c._sort(t):
        return 1
    parent: dict = {}
    if not _merge(parent, s, t):
        return None
    level = [(s, t)]
    depth = 1
    while level:
        following = []
        for x, y in level:
            px, py = c.transition(x), c.transition(y)
            if px.label != py.label:
                return depth
            for a, b in zip(px.children, py.children):
                if _merge(parent, a, b):
                    following.append((a, b))
        level = following
        depth += 1
    return None


def partition_refine(c: Coalgebra) -> Partition:
    """Compute the coarsest bisimulation partition.

    Start from the partition by sort and label, so that states of different
    sorts are never merged, and refine by signatures, a state's block
    followed by its children's blocks, until stable.  Round k yields the
    partition into equal depth-(k+1) observations.

    The first rounds are whole-row rounds (Moore, 1956), in the row layout
    that the level fill uses (:func:`~omegacoalg.mtype._class_columns`):
    the block row is kept in class order, and a round gives, class by
    class, each tuple of child blocks one id through ``map(ids.setdefault,
    zip(*children), fresh)``, all at C level, with one id dict per class.
    Within a class the children's blocks decide the state's own block, as
    the previous round computed it from the same class and the children's
    older blocks, so the key needs no own block; at arity 1 it is the
    child's block itself.  One counter ``fresh`` serves the whole round, so
    a block's id is the place of its first member, and blocks of different
    classes never share one.  The partition is stable when a round makes
    no new block.  A round costs O(n + m) for n states and m edges, and at
    most ceil(log2(n + 1)) + 1 of them run.  Refinement that is still
    splitting then goes on in dirty-set rounds (:func:`_dirty_rounds`),
    O((n + m) log n) in all, so the whole stays O((n + m) log n).

    The result is the numbering alone, and it is canonical: blocks are
    numbered by the enumeration index of their earliest member.  No block
    tuple is built here; :attr:`Partition.blocks` lists the members of each
    block in enumeration order when it is first read.

    The first partition and the children of each state, as state numbers,
    are read from the columns that validating ``c`` built
    (:class:`~omegacoalg.mtype.Coalgebra`: ``_class``, ``_kids`` and
    ``_koff``); refinement reads no transition and numbers no state
    itself.
    """
    states = _require_states(c)
    n = len(states)
    order, place, classes = _class_columns(c)
    # row[p] is the block of state order[p]; the first partition is the
    # class column.
    row = list(map(c._class.__getitem__, order))
    blocks = len(classes)
    for _ in range(n.bit_length() + 1):
        get = row.__getitem__
        fresh = count()
        new: list = []
        made = 0
        for start, end, columns in classes:
            if len(columns) == 1:
                keys = map(get, columns[0])
            elif columns:
                keys = zip(*[map(get, col) for col in columns])
            else:
                keys = repeat((), end - start)
            ids: dict = {}
            new += map(ids.setdefault, keys, fresh)
            made += len(ids)
        if made == blocks:
            block = list(map(row.__getitem__, place))
            break
        row, last, blocks = new, row, made
    else:
        block = _dirty_rounds(c, row, last, place)
    # Blocks are renumbered in order of their earliest member.
    return Partition(states, _first_use(block)[0])


def _dirty_rounds(c: Coalgebra, row: list, last: list, place: list) -> array:
    """Refinement from the whole-row partition ``row``, which split
    ``last``, both in the place order of ``place``, to the fixpoint in
    dirty-set rounds (Hopcroft's "all but the largest", 1971); returns
    each state number's block.

    Hand-over: in each block of ``last``, the largest part in ``row``
    keeps an id and the other parts, whose states moved, get new ones.
    A round recomputes signatures only for dirty states, those with a
    child that moved in the previous round; all of a round's signatures
    are computed before any split.  When a block splits, its largest part
    keeps the block id and only the smaller parts get new ids, so each
    state moves O(log n) times and the signature work is O(m log n).
    Clean members keep the signature they share and are never visited,
    unless they are the part that moves.

    Each block keeps its members as a set, or None when it has one state.
    A part that moves leaves that set for a set of its own.  The clean
    part is listed only when it moves, as the block's set less the dirty
    states; it is then no larger than the largest part, which is dirty, so
    listing it costs at most twice the block's dirty members and the
    bound stands.
    """
    n = len(place)
    # Hand-over: the largest part of each block of `last` keeps an id below
    # `kept`, and every other part gets an id of its own above it.
    parent = dict(zip(row, last))
    size = Counter(row)
    keep: dict = {}
    for b in sorted(parent, key=size.__getitem__, reverse=True):
        keep.setdefault(parent[b], b)
    label = dict(zip(keep.values(), count()))
    kept = len(label)
    label.update(zip(list(filterfalse(label.__contains__, parent)), count(kept)))
    block = array("l", map(label.__getitem__, map(row.__getitem__, place)))
    moved = list(compress(range(n), map(operator.ge, block, repeat(kept))))
    # The children of i are kids[koff[i]:koff[i + 1]], its predecessors
    # (with repeats) preds[poff[i]:poff[i + 1]]: the owners of the edges,
    # sorted by target.
    kids, koff = c._kids, c._koff
    owner = array("l", chain.from_iterable(map(repeat, range(n), map(operator.sub, koff[1:], koff))))
    preds = array("l", map(owner.__getitem__, sorted(range(len(kids)), key=kids.__getitem__)))
    indegree = Counter(kids)
    poff = array("l", accumulate(map(indegree.get, range(n), repeat(0)), initial=0))
    # members[b] is the set of the states of block b, or None when b has
    # one state and so can never split.
    members: list = [set() for _ in label]
    deque(map(set.add, map(members.__getitem__, block), range(n)), 0)
    members = [m if len(m) > 1 else None for m in members]
    block_of = block.__getitem__
    while True:
        dirty = set()
        for x in moved:
            dirty.update(preds[poff[x] : poff[x + 1]])
        if not dirty:
            return block
        # Dirty states grouped by block and signature at once: the key is
        # the block followed by the children's blocks.
        groups: dict = {}
        for i in dirty:
            key = (block_of(i), *map(block_of, kids[koff[i] : koff[i + 1]]))
            part = groups.get(key)
            if part is None:
                groups[key] = [i]
            else:
                part.append(i)
        touched: dict = {}
        for key, part in groups.items():
            touched.setdefault(key[0], []).append(part)
        moved = []
        for b, parts in touched.items():
            rest = members[b]
            if rest is None:
                continue
            # The clean members of b share one signature, and it differs
            # from every dirty member's, which names a block created in the
            # previous round.  So the clean members form a part of their
            # own, listed as None: they are found only if that part moves.
            clean = len(rest) - sum(map(len, parts))
            if clean:
                parts.append(None)
            largest = max(parts, key=lambda part: clean if part is None else len(part))
            for part in parts:
                if part is largest:
                    continue
                if part is None:
                    # The clean part is no larger than the largest part,
                    # which is dirty, so this costs O(|b|), at most twice
                    # the dirty members of b.
                    part = rest - dirty
                # The part leaves b for the new block numbered len(members).
                rest.difference_update(part)
                deque(map(block.__setitem__, part, repeat(len(members))), 0)
                members.append(set(part) if len(part) > 1 else None)
                moved += part
            if len(rest) == 1:
                members[b] = None


def coinduction_transfer(c: Coalgebra, w: BisimWitness, s, t, depth: int) -> bool:
    """Executable instance of the coinduction principle: states related by
    the equivalence a verified witness generates, which is a bisimulation,
    have equal observations at every tested depth.  Any pair in that
    equivalence is accepted, ``(s, s)`` included.  The witness is verified
    on the first call for ``c`` and its relation, and refused with
    :class:`InvalidWitness` on every call while it fails."""
    parent = _verified_classes(c, w)
    if find(parent, s) != find(parent, t):
        raise PairNotRelated(f"pair {(s, t)!r} not in the equivalence the witness generates")
    return bounded_bisim(c, s, t, depth)


def _verified_classes(c: Coalgebra, w: BisimWitness) -> dict:
    """The union-find of the equivalence ``w`` generates, once ``w`` has
    verified on ``c``.  It is built and verified once per coalgebra and
    relation, and kept on the witness; a replaced ``relation`` is verified
    again, and a witness that fails is not kept."""
    relation = w.relation
    kept = w._verified.get(c)
    if kept is not None and kept[0] is relation:
        return kept[1]
    parent = _classes(relation)
    for violation in _violations(c, relation, parent):
        raise InvalidWitness(violation)
    w._verified[c] = (relation, parent)
    return parent


def witness_from_partition(c: Coalgebra, p: Partition) -> BisimWitness:
    """One pair per state, relating it to the first state of its block.  The
    equivalence these pairs generate is the partition, so the witness
    verifies up to equivalence exactly when the partition is
    bisimulation-closed, and it has as many pairs as ``c`` has states."""
    return BisimWitness(frozenset((s, block[0]) for block in p.blocks for s in block))


def minimize(c: Coalgebra) -> Coalgebra:
    """The quotient coalgebra on partition blocks, of the kind of ``c``
    (:meth:`~omegacoalg.mtype.Coalgebra._like`).

    Block states are named by their earliest member in the enumeration;
    transitions factor through the blocks (well-defined because blocks are
    bisimulation-closed).  The quotient is built from state numbers: each
    block's row of the child table and of the class column is its earliest
    member's, with every child renumbered by its block.  Those tables are
    the quotient's one store, kept with its numbering
    (:meth:`~omegacoalg.mtype.Coalgebra._adopt`): no transition of ``c``
    is read, and a ``PValue`` of the quotient is made only when its
    transition is first read.  The blocks and the earliest members come
    from the numbering ``numbers`` that :func:`partition_refine` returns,
    and the tables are built in C-level passes over it, so the cost is
    O((n + m) log n) for n states and m edges.
    """
    numbers = partition_refine(c).numbers
    kids, koff, column = c._kids, c._koff, c._class
    n = len(numbers)
    # The earliest member of each block: written last, going backwards.
    first = dict(zip(reversed(numbers), range(n - 1, -1, -1)))
    firsts = list(map(first.__getitem__, range(len(first))))
    lo = list(map(koff.__getitem__, firsts))
    hi = list(map(koff.__getitem__, map((1).__add__, firsts)))
    qkids = array("l", map(numbers.__getitem__, chain.from_iterable(map(kids.__getitem__, map(slice, lo, hi)))))
    qkoff = array("l", accumulate(map(operator.sub, hi, lo), initial=0))
    # The classes that the blocks' rows use, renumbered in order of first
    # use.
    qcolumn, renumber = _first_use(list(map(column.__getitem__, firsts)))
    states = tuple(map(c.state_enumeration.__getitem__, firsts))
    q = c._like(states, f"min({c.name})" if c.name else "min")
    qlabels = tuple(map(c._labels.__getitem__, renumber))
    q._adopt(states, qkids, qkoff, qcolumn, qlabels, dict(zip(states, count())))
    return q
