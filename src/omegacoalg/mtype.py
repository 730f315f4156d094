"""The final coalgebra (M-type) of a container as an omega-chain limit.

Elements of the final coalgebra are :class:`MElement`, each pointed: it
holds a coalgebra and a state, its depth-n stage is the coalgebra's
observation of the state, and ``out`` of it is the morphism law,
``out(unfold(c, s)) = P(unfold(c))(c.transition(s))``, in O(arity).  A
plain container is the one-sort case of an indexed one, whose sort is
None, and an element of either is this class carrying its sort.  So
``unfold``, :func:`approximate_all`, ``out``, ``into``,
:func:`verify_morphism` and :func:`uniqueness_probe` are the one API for
both: the coalgebra names each state's sort, ``unfold`` gives it to the
element, and ``out``, ``into`` and :meth:`Coalgebra._admit` count a
label's positions at a sort without building them (``_arity``), so a
wrong count is refused before ``out`` and ``into`` read the child sorts
(``child_sorts``).  ``unfold`` points at a coalgebra's
level table, ``into`` at a one-state free extension, and a family of
depth-n trees built by hand at :data:`~omegacoalg.chain.LIMITS`, the
chain's limit as a coalgebra, whose transition is the paper's
construction.
:mod:`omegacoalg.chain` stays the reference semantics that the tests check
``out``/``into`` against, through every element's ``.limit`` view.
Finality is witnessed observationally by :func:`verify_morphism`
(existence) and :func:`uniqueness_probe` (agreement of any verified
morphism with unfold), which read an element's stages one at a time,
through ``at``, as the chain's limit reads them.
"""

from __future__ import annotations

import operator
import os
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from itertools import repeat

from .chain import LIMITS, Chain, LimitElement
from .container import (
    TRUNC,
    Container,
    PValue,
    _intern_all,
    _interned,
    _no_stage,
    _tree,
    _truncate,
    _truncates_to,
)
from .errors import (
    ArityMismatch,
    DepthBoundExceeded,
    InvalidCoalgebra,
    NeedsFiniteStates,
    NotAMorphism,
    OmegaCoalgError,
    SortMismatch,
)

DEFAULT_DEPTH_BOUND = 10**4


def depth_bound() -> int:
    """The largest admitted observation depth: ``OMEGACOALG_MAX_DEPTH`` if
    set, else 10^4.  Read when a level table grows to a new depth; a value
    other than decimal digits, or one longer than the interpreter's digit
    limit, raises :class:`OmegaCoalgError`."""
    text = os.environ.get("OMEGACOALG_MAX_DEPTH", str(DEFAULT_DEPTH_BOUND))
    if not text.isdecimal():
        raise OmegaCoalgError(f"OMEGACOALG_MAX_DEPTH must be a non-negative integer, got {text!r}")
    try:
        return int(text)
    except ValueError as e:
        # More digits than the interpreter's limit for int().
        raise OmegaCoalgError(f"OMEGACOALG_MAX_DEPTH cannot be read as an integer: {e}") from None


# The approximation chain: stage n holds depth-n trees, the projection
# drops the deepest layer.  Trees are interned across containers, so every
# container has this one chain.
_W_CHAIN = Chain(project=lambda n, t: _truncate(t))


def w_chain(c: Container) -> Chain:
    """The approximation chain of ``c``: stage n holds depth-n trees, the
    projection drops the deepest layer."""
    return _W_CHAIN


def _grow(levels: list, hi: int) -> None:
    """Extend the level table to depth ``hi``.  The depth bound is read only
    here, when the table grows to a new depth: a depth already in the table
    was admitted when it was built."""
    if hi >= len(levels):
        bound = depth_bound()
        if hi > bound:
            raise DepthBoundExceeded(f"depth {hi} exceeds bound {bound}")
        levels.extend({} for _ in range(hi + 1 - len(levels)))


def _fill_levels(c, s, n: int) -> None:
    """The level-table engine behind every depth-n observation, plain and
    indexed: afterwards ``c._levels[n][s]`` holds.

    ``c._levels[k]`` maps a state to its depth-k observation.  An entry at
    depth k needs only its children's entries at depth k-1, so the walk
    down collects the missing states level by level, from ``s`` at depth
    n, into one flat list with the start of each level in an array, and
    stops at the first level where none is missing; the entries are then
    built bottom-up, level by level: Trunc at depth 0, else the
    transition's label over the children's depth-(k-1) entries.  The cost
    is proportional to the entries added (times the arity), not to ``n``.
    """
    levels = c._levels
    _grow(levels, n)
    step = c.transition
    missing = []
    starts = array("l")
    wanted = [s]
    for k in range(n, -1, -1):
        here = levels[k]
        # One wanted state, as down a stream, needs no dedupe.
        if len(wanted) > 1:
            wanted = dict.fromkeys(wanted)
        fresh = [t for t in wanted if t not in here]
        if not fresh:
            break
        starts.append(len(missing))
        missing += fresh
        wanted = [ch for t in fresh for ch in step(t).children]
    # The walk down read every transition, so the transition cache has them.
    known = c._gamma_cache
    end = len(missing)
    for k, start in enumerate(reversed(starts), n + 1 - len(starts)):
        here = levels[k]
        if k == 0:
            for t in missing[start:end]:
                here[t] = TRUNC
        else:
            below = levels[k - 1]
            for t in missing[start:end]:
                pv = known[t]
                here[t] = _tree(k, pv.label, tuple([below[ch] for ch in pv.children]))
        end = start


def approximate(c: Coalgebra, s, n: int) -> "ApproxTree":
    """The depth-n observation of state ``s``: Trunc at depth 0, otherwise
    the transition's label over the children's depth-(n-1) observations.

    Read from the level table ``c._levels`` of a coalgebra ``c``, plain or
    indexed, shared across states and depths: a hit returns at once,
    without reading the depth bound; a miss runs :func:`_fill_levels` from
    ``s``, which builds the missing entry together with the missing entries
    below it.  This is :meth:`Coalgebra._observe`.  A negative ``n`` raises
    :class:`CannotTruncateUnit`.
    """
    levels = c._levels
    if 0 <= n < len(levels):
        got = levels[n].get(s)
        if got is not None:
            return got
    elif n < 0:
        raise _no_stage(n)
    _fill_levels(c, s, n)
    return levels[n][s]


class Coalgebra:
    """A state domain with a transition ``state -> PValue`` of states.

    ``gamma`` is a pure function or, for finite presentations, a mapping
    ``state -> PValue`` or ``state -> (label, children)``, or None for a
    coalgebra whose tables are its store (below).  States must be
    hashable.  When ``state_enumeration`` is present, the presentation is
    validated eagerly: every state must have a transition, which must be
    admitted (:meth:`_admit`) and must stay within the enumerated states.
    Coalgebras compare by identity.

    That one validating pass also numbers the states, by their place in
    the enumeration, and keeps the tables.  The child table: the children
    of state i, as numbers, are ``_kids[_koff[i]:_koff[i + 1]]``.  The
    class column: ``_class[i]`` numbers the pair of state i's sort and
    label, in order of first appearance, and ``_tags[k]`` is the pair that
    k numbers.  Partition refinement reads them
    (:func:`~omegacoalg.bisim.partition_refine`), and so do
    :func:`~omegacoalg.bisim.minimize` and the spec writer
    (:func:`~omegacoalg.specdoc.dump_document`), which read no transition.
    They cost 16 bytes per state plus 8 bytes per edge; the state ->
    number dict that the duplicate and closure checks use is dropped once
    they pass.  Without an enumeration they are all None.

    The transition store.  A transition read through ``gamma`` is admitted
    and kept in ``_gamma_cache``, so the validating pass leaves every
    state's :class:`PValue` there.  A pass elsewhere that validates a
    presentation and builds its tables itself hands them over through
    :meth:`_adopt`, with ``gamma`` None: the spec loader's pass over a
    document, and ``minimize`` for its quotient.  The tables are then the
    one store: a state's ``PValue`` is read off them on its first
    :meth:`transition`, with no second admission, and kept; the state ->
    number dict that this read needs (:meth:`_numbers`) is built on the
    first one, and the laws of ``check`` read the same dict.
    """

    # How validation names a repeated state and the states a child must
    # stay among.
    _duplicates = "state enumeration contains duplicates"
    _state_pool = "state enumeration"

    def __init__(
        self,
        container: Container,
        gamma: Mapping | Callable[[object], PValue] | None,
        state_enumeration: tuple | None = None,
        name: str = "",
    ):
        self.container = container
        self.gamma = gamma
        self.state_enumeration = state_enumeration
        self.name = name
        self._gamma_cache = {}
        self._levels = []
        # Every enumerated state is in the level table up to this depth.
        self._full = -1
        self._kids = self._koff = self._class = self._tags = None
        # State -> number, for reading a transition off the tables.
        self._index = None
        if state_enumeration is not None:
            self._validate(tuple(state_enumeration))

    def _validate(self, states: tuple) -> None:
        """The validating pass over the enumeration ``states``: admit every
        transition and build the tables."""
        index = {s: i for i, s in enumerate(states)}
        if len(index) != len(states):
            raise InvalidCoalgebra(self._duplicates)
        number = index.__getitem__
        step = self.transition
        sort = self._sort
        kids = array("l")
        koff = array("l", [0])
        column = array("l")
        classes: dict = {}
        for s in states:
            pv = step(s)
            column.append(classes.setdefault((sort(s), pv.label), len(classes)))
            try:
                kids.extend(map(number, pv.children))
            except KeyError:
                raise self._fault(s, pv, index) from None
            koff.append(len(kids))
        self._adopt(states, kids, koff, column, tuple(classes))

    def _fault(self, s, pv: PValue, index) -> OmegaCoalgError | None:
        """What validation refuses in the transition ``pv`` of ``s``: the
        fault :meth:`_admit` raises, else the first child that ``index``,
        the numbered states, lacks; None if there is none.  The validating
        passes name a fault through it, this one and the spec loader's."""
        try:
            self._admit(s, pv)
        except OmegaCoalgError as e:
            return e
        for ch in pv.children:
            if ch not in index:
                return InvalidCoalgebra(f"transition of {s!r} leaves the {self._state_pool}: {ch!r}")
        return None

    def _adopt(self, states: tuple, kids, koff, column, tags: tuple) -> None:
        """Take the enumeration ``states`` and its tables from a pass that
        has validated them; with ``gamma`` None they are the store (see
        the class docstring)."""
        self.state_enumeration = states
        self._kids, self._koff, self._class, self._tags = kids, koff, column, tags

    # The depth-n observation of a state, ``_observe(s, n)``: a read of the
    # level table (:func:`approximate`), as pointed elements take it.
    _observe = approximate

    def transition(self, s) -> PValue:
        pv = self._gamma_cache.get(s)
        if pv is None:
            pv = self._gamma_cache[s] = self._read(s)
        return pv

    def _read(self, s) -> PValue:
        """The transition of ``s`` as ``gamma`` gives it, as a
        :class:`PValue`, admitted here; :meth:`transition` keeps it.  With
        ``gamma`` None it is read off the tables, which a validating pass
        built, and admitted no second time."""
        gamma = self.gamma
        if gamma is None:
            return self._row(s)
        if type(gamma) is dict or isinstance(gamma, Mapping):
            try:
                raw = gamma[s]
            except KeyError:
                raise InvalidCoalgebra(f"state {s!r} has no transition in gamma") from None
        else:
            raw = gamma(s)
        if isinstance(raw, PValue):
            pv = raw
        else:
            label, children = raw
            pv = PValue(label, tuple(children))
        self._admit(s, pv)
        return pv

    def _numbers(self) -> dict:
        """The enumerated states' numbers, state -> place in the
        enumeration, built on the first call and kept."""
        index = self._index
        if index is None:
            states = self.state_enumeration
            index = self._index = dict(zip(states, range(len(states))))
        return index

    def _row(self, s) -> PValue:
        """The transition of ``s`` read off the tables: the label its class
        names over its row of the child table."""
        states = self.state_enumeration
        i = self._numbers().get(s)
        if i is None:
            raise InvalidCoalgebra(f"state {s!r} has no transition in gamma")
        koff = self._koff
        children = tuple([states[k] for k in self._kids[koff[i] : koff[i + 1]]])
        return PValue(self._tags[self._class[i]][1], children)

    def _admit(self, s, pv: PValue) -> None:
        """Reject a transition the signature does not allow: here, one
        whose label has another arity at the state's sort, counted as
        ``container.child_sorts`` counts it, with no tuple built, so a
        wrong count is refused without allocating the declared arity.
        Called once per state, on the first read of its transition."""
        n = self.container._arity(self._sort(s), pv.label)
        if len(pv.children) != n:
            raise ArityMismatch(
                f"state {s!r}: label {pv.label!r} has arity {n}, "
                f"got {len(pv.children)} children"
            )

    def _sort(self, s):
        """The sort of state ``s``: none, since a plain coalgebra has no
        sorts."""
        return None

    def _like(self, states: tuple, name: str) -> "Coalgebra":
        """A coalgebra of this one's kind and signature for the states
        ``states``, with no store or tables yet: how
        :func:`~omegacoalg.bisim.minimize` starts a quotient, which then
        adopts its tables (:meth:`_adopt`)."""
        return Coalgebra(self.container, None, None, name)


class MElement:
    """An element of the final coalgebra's carrier, pointed at a state of
    a coalgebra: ``MElement(container, coalgebra=c, state=s)``, as
    ``unfold`` and ``into`` make it, or ``MElement(container, limit)`` for
    a family built by hand, pointed at ``(LIMITS, (limit, ()))``.  Stage n
    is ``coalgebra._observe(state, n)``; a negative depth raises
    :class:`CannotTruncateUnit`.  ``limit`` is a lazy
    :class:`~omegacoalg.chain.LimitElement` view of the stages, made on
    first use.

    ``sort`` is None over a plain container.  An element of an indexed
    container's final coalgebra carries its sort (``sort=``, as
    :func:`unfold` and :func:`into` give it), and :func:`out` gives each
    child the sort its position asks for.

    Equality and hash are by ``(coalgebra identity, state, sort)``, not by
    object identity: the element pointed at a state is the same however it
    was reached, so a coalgebra whose states are elements (``zip_streams``)
    has one state per pointed pair, not one per ``tail`` taken.  Elements
    of different coalgebras, and two ``into`` results, are unequal even
    when bisimilar: compare stages (``tree_equal``) for that.  The
    container is not compared."""

    __slots__ = ("container", "coalgebra", "state", "sort", "_limit")

    def __init__(
        self,
        container: Container,
        limit: LimitElement | None = None,
        *,
        coalgebra=None,
        state=None,
        sort=None,
    ):
        if limit is not None:
            if coalgebra is not None:
                raise TypeError("an element holds a limit family or a coalgebra, not both")
            coalgebra, state = LIMITS, (limit, ())
        self.container = container
        self.coalgebra = coalgebra
        self.state = state
        self.sort = sort
        self._limit = None

    def at(self, n: int):
        return self.coalgebra._observe(self.state, n)

    def _key(self) -> tuple:
        return (id(self.coalgebra), self.state, self.sort)

    def __eq__(self, other):
        return isinstance(other, MElement) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def limit(self) -> LimitElement:
        if self._limit is None:
            self._limit = LimitElement(_W_CHAIN, self.at, provenance=self._provenance())
        return self._limit

    def _provenance(self) -> str:
        c = self.coalgebra
        if c is LIMITS:
            family, path = self.state
            opened = "".join(f"out[{b}](" for _, b in reversed(path))
            return opened + family.provenance + ")" * len(path)
        if type(c) is _FreeExtension:
            return f"into({c.label!r})"
        return f"unfold({c.name or 'coalgebra'}, {self.state!r})"

    def __repr__(self):
        sort = "" if self.sort is None else f"{self.sort!r}, "
        return f"MElement({sort}{self._provenance() or 'anonymous'})"


class _FreeExtension:
    """The one-state free extension behind :func:`into`, plain and indexed:
    the final coalgebra (its elements, stepping by ``out``) plus one fresh
    state, ``None``, stepping to ``label`` over the elements ``children``.
    Its unfold sends an element to itself and the fresh state to the
    assembled element, whose depth-n stage is ``label`` over the
    children's depth-(n-1) stages.  The extension keeps the stages it has
    built in ``_stages``, so observing the assembled element again at a
    depth it has reached costs a lookup.  A stage is built from each
    child's stage one lower (:meth:`_build`), after the stages that the
    extensions of assembled children must build first.
    """

    __slots__ = ("label", "children", "_stages", "_nested")

    def __init__(self, label, children: tuple):
        self.label = label
        self.children = children
        self._stages = {0: TRUNC}
        # The extensions of assembled children (``cons`` over ``cons``),
        # whose stages this one's stages wait for.
        self._nested = tuple(
            [ch.coalgebra for ch in children if type(ch.coalgebra) is _FreeExtension]
        )

    def _observe(self, s, n: int):
        got = self._stages.get(n)
        if got is not None:
            return got
        if n < 0:
            raise _no_stage(n)
        if self._nested:
            # Nested extensions are evaluated first, from an explicit stack,
            # so deep nesting does not recurse.
            stack = [(ext, n - 1) for ext in self._nested]
            while stack:
                ext, k = stack[-1]
                if k in ext._stages:
                    stack.pop()
                    continue
                todo = [(e, k - 1) for e in ext._nested if k - 1 not in e._stages]
                if todo:
                    stack.extend(todo)
                    continue
                stack.pop()
                ext._build(k)
        self._build(n)
        return self._stages[n]

    def _build(self, k: int) -> None:
        """Build the stage at depth ``k`` >= 1: one
        :func:`~omegacoalg.container._tree` of ``label`` over the children's
        stages at depth k-1, with every nested extension's already built."""
        self._stages[k] = _tree(k, self.label, tuple([ch.at(k - 1) for ch in self.children]))


def _agrees(m: MElement, c, s, depth: int) -> bool:
    """Whether stages 0..depth of ``m`` are ``c``'s observations of ``s``,
    read one stage at a time, so the first differing stage ends the check
    before a deeper stage, which may drift
    (:class:`~omegacoalg.errors.LabelDrift`), is read."""
    return all(m.at(n) is c._observe(s, n) for n in range(depth + 1))


class MorphismCandidate:
    """A map from a coalgebra's states into the final coalgebra, to be
    checked against the morphism law by :func:`verify_morphism`."""

    def __init__(self, source: Coalgebra, map: Callable[[object], MElement]):
        self.source = source
        self.map = map


def approximate_all(c: Coalgebra, n: int) -> list:
    """Fill the level table with every enumerated state at every depth
    k <= n: O(|S| n r) for |S| states of arity at most r.  Returns the
    table up to depth n: entry k maps each state to its depth-k
    observation, so ``approximate(c, s, k)`` is then a lookup.

    The table is filled in rows (:func:`_fill_rows`), one level at a time,
    from the coalgebra's class column and child table; an entry already in
    the table stays, and the entries above it are built over it.  The
    coalgebra keeps the depth up to which its table is full, so a second
    call up to that depth returns in O(n).
    """
    if c.state_enumeration is None:
        raise NeedsFiniteStates("approximate_all needs a state enumeration")
    levels = c._levels
    _grow(levels, n)
    if n > c._full:
        _fill_rows(c, n)
        c._full = n
    return levels[: n + 1]


# The most keys that one batch of the fill holds at once.  A batch's keys
# live until it is interned; a batch that outlives a few young collections
# is promoted, and at 10^5 states the full collections that this brings on
# cost more than the batch saves.
_BATCH = 1024


def _class_columns(c: Coalgebra) -> tuple:
    """The states of ``c`` grouped by class (``_class``), with one column
    of child places per position of each class: the layout of a row, which
    the fill (:func:`_fill_rows`) and partition refinement
    (:func:`~omegacoalg.bisim.partition_refine`) both work in.

    Returns ``(order, place, classes)``.  ``order`` lists the state
    numbers sorted by class, in enumeration order within a class, and
    ``place[i]`` is the place of state i in ``order``.  ``classes[j]`` is
    ``(start, end, columns)`` for class j: its members fill places
    ``start`` to ``end``, and ``columns[b]`` is an ``array('l')`` of the
    places of their b-th children.  The members of a class share a label
    and an arity, so a row indexed by place is read one class at a time
    through its columns, all at C level.  O(n log n + m) for n states and
    m edges."""
    klass, kids, koff = c._class, c._kids, c._koff
    order = sorted(range(len(klass)), key=klass.__getitem__)
    place = sorted(range(len(order)), key=order.__getitem__)
    classes = []
    start = 0
    for _, size in sorted(Counter(klass).items()):
        end = start + size
        first = list(map(koff.__getitem__, order[start:end]))
        arity = koff[order[start] + 1] - first[0]
        columns = [
            array("l", map(place.__getitem__, map(kids.__getitem__, map(operator.add, first, repeat(b)))))
            for b in range(arity)
        ]
        classes.append((start, end, columns))
        start = end
    return order, place, classes


def _fill_rows(c: Coalgebra, n: int) -> None:
    """Fill levels ``c._full + 1`` to ``n`` of the level table as whole rows.

    A row holds one level's entries in the order of
    :func:`_class_columns`, so level k is, class by class, the label over
    ``zip`` of the class's columns read through row k-1, interned in
    batches of at most ``_BATCH`` keys
    (:func:`~omegacoalg.container._intern_all`).  A level is a round of
    partition refinement (:func:`~omegacoalg.bisim.partition_refine`)
    whose block ids are interned trees: in a plain coalgebra, two states
    share their level-k entry, k >= 1, exactly when they share a block
    after k - 1 rounds.  Python loops over classes, batches and levels,
    and over the trees that are new; no table of all levels is built
    beside the level dicts.
    """
    order, _, layout = _class_columns(c)
    states = list(map(c.state_enumeration.__getitem__, order))
    classes = [(label, end - start, columns) for (start, end, columns), (_, label) in zip(layout, c._tags)]
    levels = c._levels
    lo = c._full + 1
    row = list(map(levels[lo - 1].__getitem__, states)) if lo else None
    for k in range(lo, n + 1):
        if k == 0:
            built = [TRUNC] * len(states)
        else:
            built = []
            for label, size, columns in classes:
                for i in range(0, size, _BATCH):
                    end = min(i + _BATCH, size)
                    below = [map(row.__getitem__, col[i:end]) for col in columns]
                    children = zip(*below) if below else repeat((), end - i)
                    built += _intern_all(list(zip(repeat(k), repeat(label), children)))
        level = levels[k]
        if level:
            # An entry already in the table stays.
            fresh = dict(zip(states, built))
            fresh.update(level)
            level.update(fresh)
            built = list(map(level.__getitem__, states))
        else:
            level.update(zip(states, built))
        row = built


def _table_laws(c: Coalgebra, depth: int) -> tuple:
    """The finality laws on ``c``'s level table up to ``depth``, each read
    against something other than the table itself: truncation, ``out``/
    ``into`` and the transition.  Returns four verdicts:

    * compatible: truncating each depth-(k+1) entry gives the depth-k one
      (an entry that is Trunc above depth 0 has no truncation and fails);
    * roundtrip: the verdict of :func:`verify_morphism` on ``into . out .
      unfold``, the second morphism that finality says must agree with
      ``unfold``: for every state ``s``, the stages of
      ``into(out(unfold(c, s)))``, assembled at the state's sort, are its
      entries;
    * morphism: each depth-k entry, k >= 1, is the label of its state's
      transition over the children's depth-(k-1) entries;
    * unique: the morphism law and Trunc at depth 0, the induction that
      forces any morphism into the final coalgebra to equal ``unfold``.

    Each law runs in row kernels.  The levels are read upwards, each once,
    as a row indexed by state number; Python loops over states, levels and
    groups, and each row goes through C-level ``map``/``zip``.
    Compatibility compares each row with the row below as one batch
    (:func:`~omegacoalg.container._truncates_to`), reading the truncations
    of the row below, which it carries up one level at a time; none is
    kept after the call.  The morphism law and
    the roundtrip are one kernel (:func:`_level_holds`) over two groupings
    of the states by label and arity (:func:`_grouped`): of their
    transitions, as ``c.transition`` gives them, not the tables the fill
    read; and of the elements that ``into`` assembles, one per state, whose
    stage 0 is Trunc (:func:`_roundtrip_groups`).  When ``into`` gives back
    each state's label over its children, the two groupings are equal, so
    the kernel's answer at each level is the same for both laws, and it is
    asked once.
    """
    table = approximate_all(c, depth)
    states = c.state_enumeration
    assembled = _roundtrip_groups(c, depth)
    transitions = enumerate(map(c.transition, states))
    steps = _grouped(((i, pv.label, pv.children) for i, pv in transitions), c._numbers())
    if assembled == steps:
        assembled = steps
    lower = list(map(table[0].__getitem__, states))
    base = all(map(operator.is_, lower, repeat(TRUNC)))
    down: dict | None = {}
    morphism = True
    roundtrip = assembled is not None and base
    for k in range(1, depth + 1):
        if down is None and not (roundtrip or morphism):
            break
        row = list(map(table[k].__getitem__, states))
        if down is not None:
            down = _truncates_to(row, lower, down)
        morphism = morphism and _level_holds(k, steps, lower, row)
        roundtrip = roundtrip and (morphism if assembled is steps else _level_holds(k, assembled, lower, row))
        lower = row
    return down is not None, roundtrip, morphism, morphism and base


def _grouped(nodes: Iterable, number: dict) -> list | None:
    """The ``(i, label, children)`` nodes, a state number, a label and the
    child states, grouped by label and arity as :func:`_level_holds` reads
    them: a list of ``(label, members, columns)``, with the group's state
    numbers in the array ``members`` and one array of child numbers
    (``number``) per position in ``columns``.  None if a node is None: the
    grouping stops at the first None and reads no further node.  The
    arrays hold C ints, 4 bytes a number, so the two groupings that
    :func:`_table_laws` holds at once add little to its peak; the tables of
    2^31 states would not fit in memory anyway."""
    groups: dict = {}
    for node in nodes:
        if node is None:
            return None
        i, label, children = node
        group = groups.get((label, len(children)))
        if group is None:
            group = groups[label, len(children)] = (array("i"), array("i"))
        group[0].append(i)
        group[1].extend(map(number.__getitem__, children))
    return [
        (label, members, [flat[b::arity] for b in range(arity)])
        for (label, arity), (members, flat) in groups.items()
    ]


def _roundtrip_groups(c: Coalgebra, depth: int) -> list | None:
    """The roundtrip's groups (:func:`_grouped`): for each state ``s``, the
    element ``m = into(c.container, out(unfold(c, s)), c._sort(s))``, its
    label over the states of its children, when ``into`` assembled it over
    elements pointed at enumerated states of ``c``, whose stages are the
    table's entries.  Any other element is compared on its own, by
    :func:`_agrees`.  None when an element has another sort than its state
    or :func:`_agrees` refuses it: the law fails."""
    container, sort, number = c.container, c._sort, c._numbers()

    def nodes():
        for i, s in enumerate(c.state_enumeration):
            want = sort(s)
            m = into(container, out(unfold(c, s)), want)
            if m.sort == want:
                ext = m.coalgebra
                if type(ext) is _FreeExtension:
                    children = [ch.state for ch in ext.children if ch.coalgebra is c]
                    if len(children) == len(ext.children) and all(map(number.__contains__, children)):
                        yield i, ext.label, children
                        continue
                if _agrees(m, c, s, depth):
                    continue
            yield None

    return _grouped(nodes(), number)


def _level_holds(k: int, groups: list, below: list, here: list) -> bool:
    """Level ``k`` of the morphism law or the roundtrip, for the rows
    ``below`` and ``here`` of levels k-1 and k: for each group of
    :func:`_grouped`, the interned trees keyed by ``(k, label, the
    children's entries in below)``, one ``map``, are the members' entries in
    ``here``, by identity.  A key that is not interned names no tree, so it
    matches no entry, and a failing level makes no tree."""
    for label, members, columns in groups:
        read = [map(below.__getitem__, col) for col in columns]
        children = zip(*read) if read else repeat((), len(members))
        want = map(_interned.get, zip(repeat(k), repeat(label), children))
        if not all(map(operator.is_, want, map(here.__getitem__, members))):
            return False
    return True


def unfold(c: Coalgebra, s) -> MElement:
    """The unique coalgebra morphism into the final coalgebra, evaluated at
    ``s``: the element pointed at ``(c, s)``, of the state's sort (none
    when ``c`` is plain).  Stage n is ``approximate(c, s, n)``, one read of
    ``c``'s level table."""
    return MElement(c.container, coalgebra=c, state=s, sort=c._sort(s))


def _child_sorts(c: Container, sort, label, children) -> tuple:
    """The sorts of the positions of a ``label`` node at ``sort`` over
    ``c``, once ``children`` is known to have one child per position: the
    count is compared first, through ``c._arity``, so a wrong count is
    refused with :class:`ArityMismatch` before the declared arity is
    allocated."""
    n = c._arity(sort, label)
    if len(children) != n:
        raise ArityMismatch(f"label {label!r} has arity {n}, got {len(children)} children")
    return c.child_sorts(sort, label)


def out(m: MElement) -> PValue:
    """The final coalgebra's structure map: expose the root label and the
    child elements, in O(arity).

    It is the morphism law: ``out`` of the element pointed at ``(c, s)`` is
    the transition of ``s`` with each child state ``t`` sent to the element
    pointed at ``(c, t)``, and ``out(into(c, v))`` is ``v``.  Each child
    takes the sort that ``m.container.child_sorts`` gives its position:
    none over a plain container, where an element with a sort raises
    :class:`SortMismatch`; over an indexed one, so does a root label that
    is not available at ``m.sort``.  A transition with another number of
    children than positions raises :class:`ArityMismatch`.  For an
    element built by hand the transition is that of
    :data:`~omegacoalg.chain.LIMITS`, the paper's construction, which
    raises :class:`LabelDrift` on a family whose root label changes across
    its stages.
    """
    c = m.coalgebra
    if type(c) is _FreeExtension:
        return PValue(c.label, c.children)
    label, children = c.transition(m.state)
    container = m.container
    sorts = _child_sorts(container, m.sort, label, children)
    kids = [MElement(container, coalgebra=c, state=t, sort=j) for j, t in zip(sorts, children)]
    return PValue(label, tuple(kids))


def into(c: Container, v: PValue, sort=None) -> MElement:
    """Inverse of :func:`out`: assemble an element of ``sort`` from a label
    and child elements, pointed at the one-state free extension that steps
    to ``v``: stage n is the label over the children's stage n-1, and
    ``out`` of it gives back ``v``.

    ``sort`` is None over a plain container, where every child must have
    no sort; another value raises :class:`SortMismatch`.  Over an indexed
    one it names the element's sort, which the label alone does not fix,
    since sorts share label names.  Either way the label must be
    available at it and each child must have the sort its position asks
    for (``c.child_sorts``), else :class:`SortMismatch`.  A wrong number
    of children raises :class:`ArityMismatch`.
    """
    label, children = v
    sorts = _child_sorts(c, sort, label, children)
    for b, (ch, want) in enumerate(zip(children, sorts)):
        if ch.sort != want:
            raise SortMismatch(f"child {b} has sort {ch.sort!r}, expected {want!r}")
    return MElement(c, coalgebra=_FreeExtension(label, children), state=None, sort=sort)


class _OutCoalgebra(Coalgebra):
    """The final coalgebra as a coalgebra over its own elements, stepping
    by :func:`out`: each state is an element and has that element's
    sort."""

    def _sort(self, m):
        return m.sort


def out_coalgebra(c: Container) -> Coalgebra:
    """The final coalgebra viewed as a coalgebra over its own elements,
    plain or indexed: a transition is admitted at its element's sort."""
    return _OutCoalgebra(c, gamma=out, name="out")


def _check_states(mc: MorphismCandidate, states) -> Iterable:
    if states is None:
        states = mc.source.state_enumeration
        if states is None:
            raise NeedsFiniteStates(
                "verify_morphism needs a state enumeration or explicit samples"
            )
    return states


def verify_morphism(mc: MorphismCandidate, depth: int, states=None) -> bool:
    """Depth-bounded morphism law: out(map(s)) agrees with the transition
    pushed through the map, equivalently ``map(s).at(n)`` equals the depth-n
    observation of ``s``, for every checked state and n <= depth.  A state
    sent to an element of another sort fails.  Checking the whole
    enumeration (``states=None``) first fills the source's level table by
    one :func:`approximate_all` sweep.

    Stages are compared one at a time, the element's ``at(n)`` with the
    source's observation, by identity of interned trees, stopping at the
    first that differs (see :func:`_agrees`)."""
    checked = _check_states(mc, states)
    source = mc.source
    if states is None:
        approximate_all(source, depth)
    for s in checked:
        m = mc.map(s)
        if m.sort != source._sort(s) or not _agrees(m, source, s, depth):
            return False
    return True


def uniqueness_probe(c: Coalgebra, mc: MorphismCandidate, depth: int, states=None) -> bool:
    """Executable shadow of contractibility: any verified morphism agrees
    with unfold at every checked state and stage.  Stage n of
    ``unfold(c, s)`` is ``c._observe(s, n)``, so ``c`` may be any
    coalgebra with a level table, plain or indexed.  ``states`` is read
    once, so an iterator checks its states in both the law and the
    agreement.  Stages are compared one at a time, as
    :func:`verify_morphism` compares them."""
    if states is not None:
        states = tuple(states)
    if not verify_morphism(mc, depth, states):
        raise NotAMorphism("candidate fails the morphism law; probe refused")
    return all(_agrees(mc.map(s), c, s, depth) for s in _check_states(mc, states))
