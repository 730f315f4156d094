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
and label by successor blocks to a fixpoint in O(m log n) for m edges, and
:func:`divergence_depth` answers one pair by a union-find search over child
pairs in O(n r alpha(n)) for n states of arity at most r.  Sorts enter
through :meth:`~omegacoalg.mtype.Coalgebra._sort` alone (None when plain).
Related-in-a-block then coincides with equality of all finite-depth
observations.  :func:`first_divergence_depth` and :func:`bounded_bisim`
compare those observations directly up to a depth bound; they are the
reference oracle the fast procedures are tested against.
"""

from __future__ import annotations

from array import array
from functools import cached_property

from .mtype import Coalgebra, approximate
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
        self._verified = {}


class Partition:
    """Disjoint nonempty blocks covering the state enumeration; after
    refinement, two states share a block iff they are bisimilar.

    A partition that :func:`partition_refine` computed also keeps
    ``numbers``, an ``array('l')`` whose entry i is the place in ``blocks``
    of the block of state number i; it is None otherwise."""

    def __init__(self, blocks: tuple, numbers: array | None = None):
        self.blocks = blocks
        self.numbers = numbers

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
    return witness_from_partition(c, Partition(tuple((s,) for s in _require_states(c))))


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
    it agrees with :func:`divergence_depth`."""
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
    sorts are never merged, and refine by signatures, the tuple of child
    block ids, until stable.  Round k yields the partition into equal
    depth-(k+1) observations.  A round recomputes signatures only for dirty
    states, those with a child that changed block in the previous round; all
    of a round's signatures are computed before any split.  When a block
    splits, its largest part keeps the block id and only the smaller parts
    get new ids, so each state moves O(log n) times and the signature work
    is O(m log n).  Clean members keep the signature they share and are
    never visited, unless they are the part that moves.

    Output ordering is canonical: blocks by the enumeration index of their
    earliest member, members in enumeration order.

    The first partition and the children of each state, as state numbers,
    are read from the columns that validating ``c`` built
    (:class:`~omegacoalg.mtype.Coalgebra`: ``_class``, ``_kids`` and
    ``_koff``); refinement reads no transition and numbers no state
    itself.
    """
    states = _require_states(c)
    n = len(states)
    # The children of i are kids[koff[i]:koff[i + 1]], its predecessors
    # (with repeats) preds[poff[i]:poff[i + 1]].
    kids, koff = c._kids, c._koff
    # The first partition is the class column: block i holds the states of
    # the i-th (sort, label) pair.
    block = c._class[:]
    poff = array("l", [0]) * (n + 1)
    for k in kids:
        poff[k + 1] += 1
    for i in range(n):
        poff[i + 1] += poff[i]
    fill = poff[:n]
    preds = array("l", [0]) * len(kids)
    for i in range(n):
        for k in kids[koff[i] : koff[i + 1]]:
            preds[fill[k]] = i
            fill[k] += 1
    # Every block is a segment elems[start[b]:end[b]]; loc[i] is the
    # position of state i in elems.
    start = array("l", [0]) * (max(block, default=-1) + 1)
    for b in block:
        start[b] += 1
    top = 0
    for b in range(len(start)):
        start[b], top = top, top + start[b]
    end = start[:]
    elems = array("l", [0]) * n
    loc = array("l", [0]) * n
    for i in range(n):
        b = block[i]
        elems[end[b]] = i
        loc[i] = end[b]
        end[b] += 1
    dirty = list(range(n))
    mark = bytearray(b"\x01") * n
    block_of = block.__getitem__
    while dirty:
        # Dirty states grouped by block and signature at once: the key is
        # the block followed by the children's blocks.
        groups: dict = {}
        for i in dirty:
            key = (block_of(i), *map(block_of, kids[koff[i] : koff[i + 1]]))
            members = groups.get(key)
            if members is None:
                groups[key] = [i]
            else:
                members.append(i)
        touched: dict = {}
        for key, members in groups.items():
            touched.setdefault(key[0], []).append(members)
        moved: list = []
        for b, parts in touched.items():
            # The clean members of b share one signature, and it differs
            # from every dirty member's, which names a block created in the
            # previous round.  So the clean members form a part of their
            # own, listed as None: they are found only if that part moves.
            sizes = list(map(len, parts))
            clean = end[b] - start[b] - sum(sizes)
            if clean:
                parts.append(None)
                sizes.append(clean)
            if len(parts) == 1:
                continue
            largest = max(range(len(parts)), key=sizes.__getitem__)
            for k, members in enumerate(parts):
                if k == largest:
                    continue
                if members is None:
                    # The clean part is no larger than the largest part,
                    # which is dirty, so this scan costs O(dirty members).
                    members = [x for x in elems[start[b] : end[b]] if not mark[x]]
                # The part moves to the tail of b's segment, which becomes
                # the segment of the new block.
                top = e = end[b]
                new = len(start)
                for x in members:
                    e -= 1
                    y, p = elems[e], loc[x]
                    elems[p], loc[y] = y, p
                    elems[e], loc[x] = x, e
                    block[x] = new
                end[b] = e
                start.append(e)
                end.append(top)
                moved.extend(members)
        for i in dirty:
            mark[i] = 0
        dirty = []
        for x in moved:
            for p in preds[poff[x] : poff[x + 1]]:
                if not mark[p]:
                    mark[p] = 1
                    dirty.append(p)
    # Blocks are renumbered in order of their earliest member.
    order: dict = {}
    numbers = array("l", [order.setdefault(b, len(order)) for b in block])
    groups: list = [[] for _ in order]
    for s, b in zip(states, numbers):
        groups[b].append(s)
    return Partition(tuple(map(tuple, groups)), numbers)


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
    member's, with every child renumbered by its block, and its store is
    read off those tables (:meth:`~omegacoalg.mtype.Coalgebra._adopt`), so
    no transition of ``c`` is read and no ``PValue`` is made.  The blocks
    come from :func:`partition_refine`, so the cost is O(m log n) for n
    states and m edges.
    """
    p = partition_refine(c)
    numbers = p.numbers
    kids, koff, column, tags = c._kids, c._koff, c._class, c._tags
    n = len(numbers)
    # The earliest member of each block: written last, going backwards.
    first = dict(zip(reversed(numbers), range(n - 1, -1, -1)))
    qkids = array("l")
    qkoff = array("l", [0])
    qcolumn = array("l")
    qtags: dict = {}
    for b in range(len(p.blocks)):
        i = first[b]
        qkids.extend([numbers[k] for k in kids[koff[i] : koff[i + 1]]])
        qkoff.append(len(qkids))
        qcolumn.append(qtags.setdefault(tags[column[i]], len(qtags)))
    states = tuple(block[0] for block in p.blocks)
    q = c._like(states, f"min({c.name})" if c.name else "min")
    q._adopt(states, qkids, qkoff, qcolumn, tuple(qtags))
    q.gamma = q._gamma_fragment()
    return q
