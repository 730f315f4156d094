import operator
import random
import tracemalloc
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from omegacoalg import (
    Coalgebra,
    Container,
    LimitElement,
    MorphismCandidate,
    PValue,
    approximate,
    approximate_all,
    into,
    out,
    out_coalgebra,
    tree_equal,
    truncate,
    unfold,
    uniqueness_probe,
    verify_morphism,
    w_chain,
)
from omegacoalg.container import TRUNC, _tree, _truncates_to, make_node, truncate_to
from omegacoalg import container, mtype
from omegacoalg.mtype import MElement, _table_laws
from omegacoalg.bisim import BisimWitness, bounded_bisim, coinduction_transfer, first_divergence_depth, minimize, partition_refine
from omegacoalg.chain import iterate_cochain, shift_forward
from omegacoalg.specdoc import dump_document, load_spec
from omegacoalg.catalog import (
    conat_coalgebra,
    conat_infinity,
    cons,
    fig1_coalgebra,
    fig1_signature,
    parity_coalgebra,
    parity_container,
    stream_container,
    stream_from_function,
    stream_to_function,
    tail,
)
from omegacoalg.errors import (
    ArityMismatch,
    CannotTruncateUnit,
    DepthBoundExceeded,
    InvalidCoalgebra,
    LabelDrift,
    NeedsFiniteStates,
    NotAMorphism,
    SortMismatch,
    UnknownLabel,
)
from omegacoalg.indexed import (
    IndexedCoalgebra,
    IndexedContainer,
    iapproximate,
)

from conftest import (
    chain_into,
    chain_out,
    random_coalgebra,
    small_coalgebras,
    small_indexed_coalgebras,
)


def test_approximate_base_case():
    c = conat_coalgebra()
    assert tree_equal(approximate(c, "inf", 0), TRUNC)


def test_approximate_conat_depth3():
    c = conat_coalgebra()
    t = approximate(c, "inf", 3)
    expected = make_node(
        c.container,
        "S",
        [make_node(c.container, "S", [make_node(c.container, "S", [TRUNC])])],
    )
    assert tree_equal(t, expected)


def test_approximate_fig1_depth2():
    c = fig1_coalgebra()
    leaf = make_node(c.container, "a", [])
    partial = make_node(c.container, "b", [TRUNC, TRUNC])
    assert tree_equal(approximate(c, "t", 2), make_node(c.container, "b", [leaf, partial]))


def test_approximate_depth_bound(monkeypatch):
    monkeypatch.setenv("OMEGACOALG_MAX_DEPTH", "10")
    c = conat_coalgebra()
    with pytest.raises(DepthBoundExceeded):
        approximate(c, "inf", 11)


@pytest.mark.parametrize("filled", [False, True], ids=["empty-table", "filled-table"])
def test_negative_depth_rejected(filled):
    """A negative depth names no stage; it must not index the level table
    from its end and return the deepest stored observation, nor slice the
    table from its end, nor pass a morphism check on no stage at all.  It
    is refused before the table is touched.  Nor does the depth oracle
    find no divergence below it: fig1's t and u differ at depth 1, and
    the oracle, the bounded bisimilarity and the coinduction transfer that
    reads it refuse a negative depth as well."""
    c, ic = conat_coalgebra(), parity_coalgebra()
    if filled:
        approximate(c, "inf", 3)
        iapproximate(ic, "p", 3)
        approximate_all(ic, 10)
    for n in (-1, -4):
        with pytest.raises(CannotTruncateUnit):
            approximate(c, "inf", n)
        with pytest.raises(CannotTruncateUnit):
            iapproximate(ic, "p", n)
        for coalgebra in (c, ic):
            depths = len(coalgebra._levels)
            with pytest.raises(CannotTruncateUnit):
                approximate_all(coalgebra, n)
            mc = MorphismCandidate(coalgebra, lambda s, coalgebra=coalgebra: unfold(coalgebra, s))
            with pytest.raises(CannotTruncateUnit):
                verify_morphism(mc, n, states=None)
            with pytest.raises(CannotTruncateUnit):
                uniqueness_probe(coalgebra, mc, n)
            with pytest.raises(CannotTruncateUnit):
                _table_laws(coalgebra, n)
            assert len(coalgebra._levels) == depths
        fig1 = fig1_coalgebra()
        with pytest.raises(CannotTruncateUnit):
            first_divergence_depth(fig1, "t", "u", n)
        with pytest.raises(CannotTruncateUnit):
            bounded_bisim(fig1, "t", "u", n)
        with pytest.raises(CannotTruncateUnit):
            coinduction_transfer(fig1, BisimWitness(frozenset({("t", "t")})), "t", "t", n)


def test_unfold_stages_are_approximations():
    c = conat_coalgebra()
    m = unfold(c, "inf")
    assert tree_equal(m.at(2), approximate(c, "inf", 2))
    for n in range(51):
        assert tree_equal(truncate(c.container, m.at(n + 1)), m.at(n))


def test_unfold_of_out_structure_is_identity():
    c = fig1_coalgebra()
    oc = out_coalgebra(c.container)
    m = unfold(c, "t")
    m2 = unfold(oc, m)
    for n in range(20):
        assert tree_equal(m2.at(n), m.at(n))


def test_out_conat():
    c = conat_coalgebra()
    m = unfold(c, "inf")
    v = out(m)
    assert v.label == "S"
    for n in range(6):
        assert tree_equal(v.children[0].at(n), m.at(n))


def test_out_constant_stream():
    s7 = stream_from_function(lambda k: 7)
    v = out(s7)
    assert v.label == 7
    for n in range(6):
        assert tree_equal(v.children[0].at(n), s7.at(n))


def test_into_out_round_trips():
    c = conat_coalgebra()
    m = unfold(c, "inf")
    rebuilt = into(c.container, PValue("S", (m,)))
    for n in range(11):
        assert tree_equal(rebuilt.at(n), m.at(n))
    v = out(rebuilt)
    assert v.label == "S"
    for n in range(11):
        assert tree_equal(v.children[0].at(n), m.at(n))


def test_into_zero_arity_leaf():
    c = fig1_coalgebra()
    m = into(c.container, PValue("a", ()))
    assert tree_equal(m.at(0), TRUNC)
    for n in range(1, 6):
        assert tree_equal(m.at(n), make_node(c.container, "a", [], depth=n))


def test_into_arity_mismatch():
    c = fig1_coalgebra()
    leaf = into(c.container, PValue("a", ()))
    with pytest.raises(ArityMismatch):
        into(c.container, PValue("b", (leaf,)))


def test_into_plain_container_takes_no_sort():
    c = fig1_coalgebra()
    assert into(c.container, PValue("a", ())).sort is None
    with pytest.raises(SortMismatch):
        into(c.container, PValue("a", ()), "e")


def test_into_plain_container_rejects_sorted_children():
    """A plain container is the one-sort case whose sort is None: each
    position asks for a child of no sort, so elements of an indexed
    container's final coalgebra are rejected."""
    parity = parity_coalgebra()
    kids = (unfold(parity, "p"), unfold(parity, "q"))
    with pytest.raises(SortMismatch, match="child 0 has sort 'e', expected None"):
        into(fig1_signature(), PValue("b", kids))


def test_out_of_a_hand_built_element_checks_the_root_arity():
    """A family of ternary b nodes built over another container, taken as
    an element under fig1's signature, where b is binary: ``out`` raises
    rather than return more or fewer children than b has positions."""
    ternary = Container(arity={"b": 3})

    def by_hand(n):
        t = TRUNC
        for _ in range(n):
            t = make_node(ternary, "b", [t] * 3)
        return t

    m = MElement(fig1_signature(), LimitElement(w_chain(ternary), by_hand))
    with pytest.raises(ArityMismatch, match="label 'b' has arity 2, got 3 children"):
        out(m)


HUGE = 10**11


def test_into_counts_children_before_building_child_sorts():
    """A label of arity 10^11: ``into`` with no children is refused by its
    count, not by allocating a child-sort tuple of that length."""
    huge = Container({"a": HUGE}, ("a",))
    with pytest.raises(ArityMismatch, match=f"label 'a' has arity {HUGE}, got 0 children"):
        into(huge, PValue("a", ()))


def test_out_counts_children_before_building_child_sorts():
    """A hand-built family of leaves ``a``, taken as an element under a
    signature where ``a`` has arity 10^11: ``out`` is refused by the
    count."""
    leaf = Container(arity={"a": 0})
    family = LimitElement(w_chain(leaf), lambda n: TRUNC if n == 0 else make_node(leaf, "a", [], depth=n))
    m = MElement(Container({"a": HUGE}, ("a",)), family)
    with pytest.raises(ArityMismatch, match=f"label 'a' has arity {HUGE}, got 0 children"):
        out(m)


def test_verify_morphism_unfold():
    c = fig1_coalgebra()
    mc = MorphismCandidate(c, lambda s: unfold(c, s))
    assert verify_morphism(mc, 50)


def test_verify_morphism_rejects_constant_map():
    labels01 = stream_container((0, 1, 7))
    alternating = Coalgebra(
        labels01,
        {"e": (0, ("o",)), "o": (1, ("e",))},
        state_enumeration=("e", "o"),
    )
    const7 = stream_from_function(lambda k: 7)
    mc = MorphismCandidate(alternating, lambda s: const7)
    assert not verify_morphism(mc, 1)


def test_verify_morphism_composed_with_coalgebra_morphism():
    # quotient map into the minimized coalgebra is a coalgebra morphism;
    # composing with unfold of the quotient stays a morphism
    rng = random.Random(7)
    for _ in range(10):
        c = random_coalgebra(rng)
        d = minimize(c)
        from omegacoalg.bisim import partition_refine

        p = partition_refine(c)
        rep = {s: block[0] for block in p.blocks for s in block}
        mc = MorphismCandidate(c, lambda s, d=d, rep=rep: unfold(d, rep[s]))
        assert verify_morphism(mc, 20)
        assert uniqueness_probe(c, mc, 20)


def test_uniqueness_probe_reflexive():
    c = fig1_coalgebra()
    mc = MorphismCandidate(c, lambda s: unfold(c, s))
    assert uniqueness_probe(c, mc, 50)


def test_uniqueness_probe_hand_written_corecursion():
    sc = stream_container((7,))
    c = Coalgebra(sc, {"s": (7, ("s",))}, state_enumeration=("s",))

    def by_hand(n):
        t = TRUNC
        for d in range(1, n + 1):
            t = make_node(sc, 7, [t], depth=d)
        return t

    handmade = MElement(sc, LimitElement(w_chain(sc), by_hand, provenance="by-hand"))
    mc = MorphismCandidate(c, lambda s: handmade)
    assert uniqueness_probe(c, mc, 100)


def test_uniqueness_probe_guards():
    labels = stream_container((0, 1, 7))
    alternating = Coalgebra(
        labels, {"e": (0, ("o",)), "o": (1, ("e",))}, state_enumeration=("e", "o")
    )
    const7 = stream_from_function(lambda k: 7)
    mc = MorphismCandidate(alternating, lambda s: const7)
    with pytest.raises(NotAMorphism):
        uniqueness_probe(alternating, mc, 5)


def test_uniqueness_probe_reads_states_once():
    """An iterator of states is checked both for the law and for agreement
    with unfold: x -> a(x) does not agree with unfold into x -> b(x)."""
    c = Container(arity={"a": 1, "b": 1})
    c1 = Coalgebra(c, {"x": ("a", ("x",))}, state_enumeration=("x",))
    c2 = Coalgebra(c, {"x": ("b", ("x",))}, state_enumeration=("x",))
    mc = MorphismCandidate(c1, lambda s: unfold(c1, s))
    assert not uniqueness_probe(c2, mc, 5, states=["x"])
    assert not uniqueness_probe(c2, mc, 5, states=iter(["x"]))


def test_level_table_and_morphism_check_need_enumerated_states():
    """With no state enumeration there is no table to fill and no state to
    check by default: both refuse with :class:`NeedsFiniteStates`, and
    ``verify_morphism`` still checks the states it is given."""
    c = Coalgebra(stream_container(), lambda s: (s % 2, (s + 1,)))
    with pytest.raises(NeedsFiniteStates, match="approximate_all needs a state enumeration"):
        approximate_all(c, 3)
    candidate = MorphismCandidate(c, lambda s: unfold(c, s))
    with pytest.raises(NeedsFiniteStates, match="verify_morphism needs a state enumeration"):
        verify_morphism(candidate, 3)
    assert verify_morphism(candidate, 3, states=(0, 1))


def test_degenerate_container_collapses():
    leaves = Container(arity={"x": 0, "y": 0}, labels=("x", "y"))
    c = Coalgebra(leaves, {"s": ("x", ()), "t": ("y", ())}, state_enumeration=("s", "t"))
    for n in range(1, 10):
        t = approximate(c, "s", n)
        assert t.label == "x" and t.children == ()


def test_randomized_existence_and_compat():
    rng = random.Random(99)
    for _ in range(20):
        c = random_coalgebra(rng)
        mc = MorphismCandidate(c, lambda s, c=c: unfold(c, s))
        assert verify_morphism(mc, 50)
        for s in c.state_enumeration:
            m = unfold(c, s)
            for n in range(50):
                assert tree_equal(truncate(c.container, m.at(n + 1)), m.at(n))


def unrolled(step, s, n, memo):
    """The depth-n observation of ``s`` by direct recursion on the
    transitions: the reference for the level engine."""
    if (s, n) not in memo:
        if n == 0:
            memo[(s, n)] = TRUNC
        else:
            label, children = step(s)
            memo[(s, n)] = _tree(n, label, tuple(unrolled(step, ch, n - 1, memo) for ch in children))
    return memo[(s, n)]


@settings(max_examples=200, deadline=None)
@given(small_coalgebras(), st.integers(0, 8), st.randoms(use_true_random=False))
def test_level_sweep_matches_demand_driven_property(c, depth, rnd):
    table = approximate_all(c, depth)
    assert len(table) == depth + 1
    fresh = Coalgebra(c.container, c.gamma, state_enumeration=c.state_enumeration)
    queries = [(i, s, n) for i, s in enumerate(c.state_enumeration) for n in range(depth + 1)]
    rnd.shuffle(queries)
    memo = {}
    for i, s, n in queries:
        got = approximate(fresh, s, n)
        assert got is table[n][i] is approximate(c, s, n)
        assert got is unrolled(c.transition, s, n, memo)


def test_full_table_is_returned_without_a_sweep(monkeypatch):
    """Once every state is in the table up to depth n, ``approximate_all``
    up to n returns the table with no sweep; a deeper call sweeps only the
    new levels and keeps the dicts of the old ones."""
    c = fig1_coalgebra()
    table = approximate_all(c, 6)
    sweeps = []
    fill = mtype._fill_rows

    def counted(c, n):
        sweeps.append((c._full, n))
        fill(c, n)

    monkeypatch.setattr(mtype, "_fill_rows", counted)
    assert approximate_all(c, 6) == table and approximate_all(c, 3) == table[:4]
    assert sweeps == []
    deeper = approximate_all(c, 9)
    assert sweeps == [(6, 9)]
    assert all(map(operator.is_, deeper[:7], table))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small_coalgebras(), small_indexed_coalgebras()),
    st.integers(0, 8),
    st.integers(1, 3),
)
def test_level_sweep_in_small_batches_property(c, depth, batch):
    """The level sweep gives the same table however many keys one batch
    of a class holds: with batches of 1-3 keys, as with one batch per
    class, every entry is the depth-n observation by direct recursion."""
    kept = mtype._BATCH
    mtype._BATCH = batch
    try:
        table = approximate_all(c, depth)
    finally:
        mtype._BATCH = kept
    memo = {}
    for i, s in enumerate(c.state_enumeration):
        for n in range(depth + 1):
            assert table[n][i] is unrolled(c.transition, s, n, memo)


@settings(max_examples=200, deadline=None)
@given(small_coalgebras(), st.data())
def test_level_fill_adds_only_what_its_root_needs_property(c, data):
    """After each ``approximate(c, s, n)`` on a fresh table, level k holds
    exactly the states reachable in exactly n - k steps from the root of
    some call so far: a fill adds no entry its root does not need."""
    calls = data.draw(
        st.lists(st.tuples(st.sampled_from(c.state_enumeration), st.integers(0, 8)), max_size=6)
    )
    expected = []
    for s, n in calls:
        approximate(c, s, n)
        expected.extend(set() for _ in range(n + 1 - len(expected)))
        frontier = {s}
        for k in range(n, -1, -1):
            expected[k] |= frontier
            frontier = {ch for t in frontier for ch in c.transition(t).children}
        assert [set(level) for level in c._levels] == expected


@settings(max_examples=200, deadline=None)
@given(small_indexed_coalgebras(), st.integers(0, 8), st.randoms(use_true_random=False))
def test_indexed_level_sweep_matches_demand_driven_property(c, depth, rnd):
    table = approximate_all(c, depth)
    assert len(table) == depth + 1
    fresh = IndexedCoalgebra(c.container, c.state_enumeration, c.sort_of, c.gamma)
    queries = [(i, s, n) for i, s in enumerate(c.state_enumeration) for n in range(depth + 1)]
    rnd.shuffle(queries)
    memo = {}
    for i, s, n in queries:
        got = iapproximate(fresh, s, n)
        assert got.sort == c.sort_of[s]
        assert got.tree is table[n][i] is iapproximate(c, s, n).tree
        assert got.tree is unrolled(c.transition, s, n, memo)


def element_laws(c, depth: int) -> tuple:
    """The four laws of ``_table_laws``, read through element objects as
    the library offers them: per-element compatibility, ``out``/``into``
    (at the element's sort), and the morphism probes with the ``unfold``
    candidate."""
    states = c.state_enumeration
    element = lambda s: unfold(c, s)
    compatible = all(
        truncate(None, element(s).at(n + 1)) is element(s).at(n)
        for s in states
        for n in range(depth)
    )
    roundtrip = True
    for s in states:
        m = element(s)
        v = out(m)
        back = into(c.container, v, m.sort)
        again = out(back)
        roundtrip = roundtrip and again == v
        roundtrip = roundtrip and all(back.at(n) is m.at(n) for n in range(depth + 1))
    mc = MorphismCandidate(c, element)
    return compatible, roundtrip, verify_morphism(mc, depth), uniqueness_probe(c, mc, depth)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small_coalgebras(), small_indexed_coalgebras()),
    st.integers(1, 8),
    st.randoms(use_true_random=False),
)
def test_table_laws_match_element_library_and_catch_a_wrong_entry_property(c, depth, rnd):
    """On a table filled in any order, the level sweeps of ``check`` give
    the element-level library's verdicts.  With one entry replaced by a
    well-shaped tree of another label over the same children, the
    roundtrip, morphism and uniqueness laws fail, and compatibility fails
    unless the only truncation read is that of the wrong depth-1 entry."""
    states = c.state_enumeration
    for _ in range(rnd.randint(0, 3)):
        approximate(c, rnd.choice(states), rnd.randint(0, depth + 2))
    laws = _table_laws(c, depth)
    assert laws == element_laws(c, depth) == (True, True, True, True)
    i, k = rnd.randrange(len(states)), rnd.randint(1, depth)
    right = c._levels[k][i]
    c._levels[k][i] = _tree(k, ("wrong", right.label), right.children)
    compatible, roundtrip, morphism, unique = _table_laws(c, depth)
    assert compatible == (k == depth == 1)
    assert not roundtrip and not morphism and not unique


def swapping_into(c, depth: int):
    """An ``into`` that assembles over other states of ``c``: each child is
    replaced by the first enumerated state whose depth-(depth-1) entry is
    the child's, keeping the child's sort.  So its elements are not the
    transitions, and their stages up to ``depth`` are the same as long as
    the table is right below ``depth``."""
    below = dict(zip(c.state_enumeration, c._levels[max(depth - 1, 0)]))
    first = {}
    for t in c.state_enumeration:
        first.setdefault(below[t], t)

    def swapped(container, v, sort=None):
        label, children = v
        kids = [MElement(container, coalgebra=c, state=first[below[ch.state]], sort=ch.sort) for ch in children]
        return into(container, PValue(label, tuple(kids)), sort)

    return swapped


def foreign_into(c, s, element, assemble):
    """An ``into`` that gives ``element``, which it did not assemble, for
    the transition of ``s`` at the sort of ``s``, and hands every other
    transition to ``assemble``."""
    target = (out(unfold(c, s)), c._sort(s))

    def foreign(container, v, sort=None):
        return element if (v, sort) == target else assemble(container, v, sort)

    return foreign


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small_coalgebras(), small_indexed_coalgebras()),
    st.integers(0, 8),
    st.booleans(),
    st.booleans(),
    st.sampled_from((None, "quotient", "unbisimilar", "sort")),
    st.randoms(use_true_random=False),
)
def test_roundtrip_rows_give_the_per_element_verdict_property(c, depth, planted, swapped, foreign, rnd):
    """The roundtrip line of ``_table_laws``, read in rows, is the verdict
    of ``verify_morphism`` on the ``into . out . unfold`` candidate, which
    compares each assembled element's stages on its own: on a table filled
    in any order, and with one entry replaced by a well-shaped tree of
    another label over the same children.  So it is too with an ``into``
    that assembles over other children (:func:`swapping_into`), whose
    elements the rows read apart from the transitions, and with one that
    gives an element it did not assemble (:func:`foreign_into`), which the
    rows compare on its own: the unfold of the state's image in the
    quotient, which agrees; the unfold of a state of the same sort in
    another block, which agrees as far as the two states' observations do;
    or an element of another sort, which fails."""
    states = c.state_enumeration
    for _ in range(rnd.randint(0, 3)):
        approximate(c, rnd.choice(states), rnd.randint(0, depth + 2))
    approximate_all(c, depth)
    if planted and depth:
        i, k = rnd.randrange(len(states)), rnd.randint(1, depth)
        right = c._levels[k][i]
        c._levels[k][i] = _tree(k, ("wrong", right.label), right.children)
    assemble = swapping_into(c, depth) if swapped else into
    if foreign:
        s = rnd.choice(states)
        numbers = partition_refine(c).numbers
        block = numbers[states.index(s)]
        if foreign == "unbisimilar":
            others = [u for i, u in enumerate(states) if c._sort(u) == c._sort(s) and numbers[i] != block]
            t = rnd.choice(others or [s])
            element = unfold(c, t)
        else:
            q = minimize(c)
            element = unfold(q, q.state_enumeration[block])
            if foreign == "sort":
                element = MElement(q.container, coalgebra=q, state=element.state, sort=("not", element.sort))
        assemble = foreign_into(c, s, element, assemble)
    back = MorphismCandidate(c, lambda s: assemble(c.container, out(unfold(c, s)), c._sort(s)))
    with mock.patch.object(mtype, "into", assemble):
        roundtrip = _table_laws(c, depth)[1]
    assert roundtrip == verify_morphism(back, depth, states)
    if foreign == "sort":
        assert not roundtrip
    elif not (planted and depth):
        assert roundtrip == (foreign != "unbisimilar" or bounded_bisim(c, s, t, depth))
    elif not swapped and foreign != "unbisimilar":
        # An unfold in ``c`` reads the planted table, so it may agree.
        assert not roundtrip


def test_roundtrip_fails_on_an_element_of_another_sort():
    """An ``into`` that assembles each transition as its state steps, but
    gives the element another sort, fails the roundtrip line alone, plain
    and indexed: the law sends each state to an element of its own sort."""

    def resorted(container, v, sort=None):
        m = into(container, v, sort)
        return MElement(container, coalgebra=m.coalgebra, state=m.state, sort=("not", sort))

    for c in (fig1_coalgebra(), parity_coalgebra()):
        with mock.patch.object(mtype, "into", resorted):
            assert _table_laws(c, 4) == (True, False, True, True)


def reachable(roots) -> list:
    """The trees of ``roots`` and every tree below them, each once."""
    todo, seen, found = list(roots), set(), []
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            found.append(t)
            todo.extend(t.children)
    return found


def forget_truncations(trees) -> None:
    """Empty the ``_truncation`` slot of each of ``trees`` and of every tree
    below them.  A slot only caches a truncation, so an empty one is never
    wrong; emptied, the slots that a test reads are the ones it wrote."""
    for t in reachable(trees):
        t._truncation = None


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small_coalgebras(), small_indexed_coalgebras()),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
def test_row_truncation_matches_per_tree_truncation_property(c, depth, rnd):
    """Compatibility's row kernel, ``_truncates_to(row, lower)``, says what
    truncating each tree of ``row`` on its own says: whether it gives the
    tree at the same place in ``lower``, read by ``truncate_to``, which
    reads no slot.  Each level takes one case: the table's rows read
    upwards, which above depth 1 compares the rows as one batch over the
    slots the kernel wrote one level down; the row below shuffled; one
    tree of the row below relabelled over the same children, or put over
    other children; one tree of the row over children that are no entries
    of the row below (the per-tree fallback); Trunc planted in the row; or
    the table's rows once every tree of the row below was truncated by a
    plain ``truncate``, so the batch reads slots the kernel did not write.
    It never raises, and when it holds, each tree of the row keeps the
    tree below it as its truncation."""
    table = approximate_all(c, depth)
    rows = [list(table[k]) for k in range(depth + 1)]
    forget_truncations([t for row in rows for t in row])
    for k in range(1, depth + 1):
        row, lower = list(rows[k]), list(rows[k - 1])
        i = rnd.randrange(len(row))
        case = rnd.choice(("table", "shuffled", "relabelled", "rewired", "fresh", "trunc", "truncated"))
        if case == "shuffled":
            rnd.shuffle(lower)
        elif case == "relabelled" and k > 1:
            lower[i] = _tree(k - 1, ("other", lower[i].label), lower[i].children)
        elif case == "rewired" and k > 2:
            lower[i] = _tree(k - 1, lower[i].label, tuple(rnd.choice(rows[k - 2]) for _ in lower[i].children))
        elif case == "fresh" and k > 1:
            row[i] = _tree(k, ("fresh",), (_tree(k - 1, ("fresh",), ()),))
            forget_truncations([row[i]])
            if rnd.random() < 0.5:
                lower[i] = truncate(None, row[i])
        elif case == "trunc":
            row[i] = TRUNC
        elif case == "truncated" and k > 1:
            forget_truncations(lower)
            for t in lower:
                truncate(None, t)
        with mock.patch.object(container, "_truncate", wraps=container._truncate) as per_tree:
            got = _truncates_to(row, lower)
        if case in ("table", "truncated") and k > 1:
            assert got and not per_tree.called
        if case == "trunc":
            assert got is False
        else:
            assert got is all(truncate_to(None, t, k - 1) is u for t, u in zip(row, lower))
        if got:
            assert all(t._truncation is u for t, u in zip(row, lower))
        # The next level reads the slots that the table's rows leave.
        assert _truncates_to(rows[k], rows[k - 1])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small_coalgebras(), small_indexed_coalgebras()),
    st.integers(1, 8),
    st.sampled_from((None, "relabelled", "trunc")),
    st.randoms(use_true_random=False),
)
def test_truncation_slots_never_lie_property(c, depth, fault, rnd):
    """After ``check``'s laws on a table filled in any order, with or
    without one planted fault (an entry relabelled over the same children,
    or Trunc above depth 0), every tree reachable from the table whose
    ``_truncation`` slot is set holds its true truncation there, as
    ``truncate_to``, which reads no slot, computes it."""
    states = c.state_enumeration
    for _ in range(rnd.randint(0, 3)):
        approximate(c, rnd.choice(states), rnd.randint(0, depth + 2))
    approximate_all(c, depth)
    if fault:
        i, k = rnd.randrange(len(states)), rnd.randint(1, depth)
        right = c._levels[k][i]
        c._levels[k][i] = TRUNC if fault == "trunc" else _tree(k, ("wrong", right.label), right.children)
    compatible = _table_laws(c, depth)[0]
    assert compatible == (fault is None or (fault == "relabelled" and k == depth == 1))
    # Rows up to ``depth``, and the dicts of the demand fills above.
    entries = [t for level in c._levels for t in (level.values() if type(level) is dict else level)]
    for t in reachable(entries):
        if t._truncation is not None:
            assert t._truncation is truncate_to(None, t, t.depth - 1)


@pytest.mark.parametrize("kind", ["loaded", "validated", "quotient"])
@pytest.mark.parametrize("make", [fig1_coalgebra, parity_coalgebra], ids=["plain", "indexed"])
def test_one_state_numbering(kind, make, tmp_path):
    """A loaded spec, a coalgebra validated in memory and a ``minimize``
    quotient each keep the numbering that built their tables, state ->
    place in the enumeration, and reading transitions and ``check``'s
    laws leave that one dict in place."""
    c = make()
    if kind == "loaded":
        path = tmp_path / "spec.json"
        path.write_text(dump_document(c))
        c = load_spec(str(path)).coalgebra
    elif kind == "quotient":
        c = minimize(c)
    states = c.state_enumeration
    index = c._index
    assert index == {s: i for i, s in enumerate(states)}
    assert _table_laws(c, 5) == (True, True, True, True)
    for s in states:
        c.transition(s)
    assert c._index is index


def test_table_laws_read_trunc_above_depth_0_as_a_failure():
    """Trunc planted in the table above depth 0 has no truncation: the
    compatibility verdict is False, not an exception, and the other three
    laws are read as usual (they fail too, as the entry is not the
    transition's label over the entries below)."""
    for k in (1, 2, 3):
        c = fig1_coalgebra()
        approximate_all(c, 4)
        i = c._index["t"]
        c._levels[k][i] = TRUNC
        assert _table_laws(c, 4) == (False, False, False, False)
        c._levels[k][i] = approximate(fig1_coalgebra(), "t", k)
        assert _table_laws(c, 4) == (True, True, True, True)


def test_table_laws_read_a_table_one_level_up_as_no_morphism():
    """A table whose every row holds the entries one level higher, row 0
    included, still truncates row by row, but it is no observation of the
    coalgebra: the morphism law fails, since each tree it finds over the
    row below sits at the depth above that row, not at its own."""
    for c in (conat_coalgebra(), fig1_coalgebra()):
        approximate_all(c, 5)
        c._levels[:5] = [list(map(approximate, repeat(c), c.state_enumeration, repeat(k + 1))) for k in range(5)]
        assert _table_laws(c, 4) == (True, False, False, False)


def with_strays(c):
    """``c`` again, with its transitions given by a function that is also
    defined on states outside the enumeration: ``("copy", s)`` steps to the
    label of ``s`` over the copies of its children and ``("bridge", s)`` to
    the transition of ``s``, so both observe as ``s`` does; ``("bad", s)``
    steps to the label of ``s`` over one child too many, and
    ``("lost", s)`` has no transition."""
    states = c.state_enumeration
    gamma, sorts = {}, {}
    for s in states:
        label, children = c.transition(s)
        gamma[s] = gamma["bridge", s] = (label, children)
        gamma["copy", s] = (label, tuple(("copy", ch) for ch in children))
        gamma["bad", s] = (label, children + (s,))
        for tag in ("", "bridge", "copy", "bad", "lost"):
            sorts[(tag, s) if tag else s] = c._sort(s)
    if isinstance(c, IndexedCoalgebra):
        return IndexedCoalgebra(c.container, states, sorts, gamma.__getitem__)
    return Coalgebra(c.container, gamma.__getitem__, state_enumeration=states)


def answer(c, s, n):
    """``approximate(c, s, n)``, or the type and text of what it raises."""
    try:
        return approximate(c, s, n)
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_coalgebras(), small_indexed_coalgebras()), st.data())
def test_full_levels_are_rows_by_state_number_property(c, data):
    """Demand fills, below, at and above the depth up to which the table is
    full, interleaved with ``approximate_all`` to a drawn depth: afterwards
    every level up to ``c._full`` is a list with one slot per state, slot i
    holding the observation of state number i by direct recursion, and the
    levels above are dicts.  A demand entry planted above ``c._full`` stays
    in its slot through the full fill.  A state outside the enumeration
    gets the same answer, or the same error, before and after a full fill,
    and a copy of a state observes as the state does."""
    c = with_strays(c)
    states = c.state_enumeration
    strays = [(tag, s) for tag in ("copy", "bridge", "bad", "lost") for s in states]
    memo = {}
    for _ in range(data.draw(st.integers(1, 4))):
        for _ in range(data.draw(st.integers(0, 3))):
            s = data.draw(st.sampled_from(states + tuple(strays)))
            answer(c, s, max(c._full + data.draw(st.integers(-2, 3)), 0))
        full = max(c._full + data.draw(st.integers(-1, 3)), 0)
        before = {(s, n): answer(c, s, n) for s in strays for n in range(full + 1)}
        table = approximate_all(c, full)
        assert all(map(operator.is_, table, c._levels))
        for n, level in enumerate(c._levels):
            if n > c._full:
                assert type(level) is dict
                continue
            assert type(level) is list and len(level) == len(states)
            for i, s in enumerate(states):
                assert level[i] is unrolled(c.transition, s, n, memo)
        for (s, n), got in before.items():
            assert answer(c, s, n) == got
            if s[0] in ("copy", "bridge"):
                assert got is approximate(c, s[1], n)
    i, k = data.draw(st.integers(0, len(states) - 1)), c._full + data.draw(st.integers(1, 3))
    approximate(c, states[i], k)
    planted = c._levels[k][states[i]] = _tree(k, ("planted",), ())
    approximate_all(c, k + data.draw(st.integers(0, 2)))
    assert c._levels[k][i] is planted


def tree_of(t) -> tuple:
    """A tree's structure: its depth, its label, and its children."""
    return t.depth, t.label, t.children


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small_coalgebras(), small_indexed_coalgebras()),
    st.integers(1, 6),
    st.sampled_from(("trunc", "lower", "higher")),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_interned_trees_are_their_own_keys_property(c, depth, fault, in_row, rnd):
    """Every tree interned while a fill builds over a planted entry of the
    wrong depth (Trunc, or a state's entry one level lower or higher), in
    the top row of the table or in a demand level the fill keeps, and
    while ``into`` assembles over a hand-built family whose stage n sits
    one level off, is what ``_tree`` gives for its own depth, label and
    children; no two are structurally equal; and the tree that a children
    tuple keys one level above it has that depth.  So a tree whose children
    are not one level below it is never found under a consistent key.  The
    fill's entries and the assembled element's stages have the depth they
    are built at."""
    states = c.state_enumeration
    sizes = {label: len(table) for label, table in container._interned.items()}
    approximate_all(c, depth)
    i = rnd.randrange(len(states))
    k = depth if in_row else depth + rnd.randint(1, 2)
    approximate(c, states[i], k)
    planted = {"trunc": TRUNC, "lower": approximate(c, states[i], k - 1), "higher": approximate(c, states[i], k + 1)}[fault]
    c._levels[k][i if in_row else states[i]] = planted
    table = approximate_all(c, depth + 3)
    for n, row in enumerate(table):
        assert all(t.depth == n for j, t in enumerate(row) if (n, j) != (k, i))
    off = -1 if fault == "lower" else 1
    m = unfold(c, states[i])
    label, kids = out(m)
    family = [
        MElement(c.container, LimitElement(w_chain(c.container), lambda n, ch=ch: ch.at(max(n + off, 0))), sort=ch.sort)
        for ch in kids
    ]
    assembled = into(c.container, PValue(label, tuple(family)), m.sort)
    stages = [assembled.at(n) for n in range(depth + 4)]
    assert [t.depth for t in stages] == list(range(depth + 4))
    # A label's dict keeps its trees in the order they were interned.
    new = [t for label, got in container._interned.items() for t in list(got.values())[sizes.get(label, 0) :]]
    trees = reachable(new + [t for row in table for t in row] + stages)
    assert len({tree_of(t) for t in trees}) == len(trees)
    for t in trees:
        assert _tree(*tree_of(t)) is t
        if len({ch.depth for ch in t.children}) == 1:
            d = t.children[0].depth + 1
            assert _tree(d, t.label, t.children).depth == d


def test_full_table_costs_under_120_bytes_an_entry():
    """``approximate_all(c, 20)`` on a random 1500-state coalgebra keeps
    under 120 bytes per (state, depth) entry, as ``tracemalloc`` counts
    them: a row slot per entry, and each new tree with no key of its own.
    The labels are this test's own, so every tree is new.  A level dict
    beside a key tuple per tree cost about 158 bytes an entry here."""
    rng = random.Random(7)
    arity = {("memory", "a"): 2, ("memory", "b"): 2, ("memory", "c"): 1, ("memory", "z"): 0}
    labels = tuple(arity)
    states = tuple(range(1500))
    gamma = {}
    for s in states:
        a = rng.choice(labels)
        gamma[s] = (a, tuple(rng.choice(states) for _ in range(arity[a])))
    c = Coalgebra(Container(arity=arity, labels=labels), gamma, state_enumeration=states)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        approximate_all(c, 20)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_entry = kept / (len(states) * 21)
    print(f"level table: {per_entry:.1f} B an entry (bound 120)")
    assert per_entry < 120, per_entry


def module_tables(module) -> dict:
    """The sizes of a module's module-level dicts, lists and sets."""
    return {
        name: len(value)
        for name, value in vars(module).items()
        if type(value) in (dict, list, set) and not name.startswith("__")
    }


def test_table_laws_grow_no_module_table():
    """``check``'s law sweep keeps nothing process-wide once it returns:
    after ``_table_laws(c, 20)`` on a random 300-state spec, every
    module-level dict, list and set of ``container`` and ``mtype`` has its
    size from before, other than the intern table ``_interned``."""
    from omegacoalg import container

    rng = random.Random(5)
    arity = {"a": 0, "b": 1, "c": 2}
    states = tuple(range(300))
    gamma = {}
    for s in states:
        a = rng.choice("abbcc")
        gamma[s] = (a, tuple(rng.choice(states) for _ in range(arity[a])))
    c = Coalgebra(Container(arity=arity, labels=tuple(arity)), gamma, state_enumeration=states)
    modules = (container, mtype)
    before = [module_tables(m) for m in modules]
    assert _table_laws(c, 20) == (True, True, True, True)
    after = [module_tables(m) for m in modules]
    for sizes in before + after:
        sizes.pop("_interned", None)
    assert after == before


@settings(max_examples=200, deadline=None)
@given(small_coalgebras(), st.integers(0, 8))
def test_pointed_out_into_match_chain_reference_property(c, depth):
    """``out``/``into`` on unfolded elements (the morphism law and the
    one-state extension) give the same stages, as the same objects, as the
    chain.py composition applied to the elements' ``limit`` views, and so
    do ``out``/``into`` of elements built by hand from those views."""
    container = c.container
    for s in c.state_enumeration:
        m = unfold(c, s)
        v = out(m)
        ref = out(MElement(container, m.limit))
        lit = chain_out(container, m.limit)
        assert v.label == ref.label == lit.label == c.transition(s).label
        assert len(v.children) == len(ref.children) == len(lit.children)
        kids = c.transition(s).children
        for ch, ref_ch, lit_ch, t in zip(v.children, ref.children, lit.children, kids):
            for n in range(depth + 1):
                assert ch.at(n) is ref_ch.at(n) is lit_ch.at(n) is approximate(c, t, n)
        back = into(container, v)
        by_hand = tuple(MElement(container, ch.limit) for ch in v.children)
        ref_back = into(container, PValue(v.label, by_hand))
        lit_back = chain_into(container, PValue(v.label, tuple(ch.limit for ch in v.children)))
        lit_hand_back = chain_into(container, PValue(v.label, by_hand))
        assert out(back) == v
        ref_again = out(MElement(container, back.limit))
        assert ref_again.label == v.label
        lit_again = chain_out(container, back.limit)
        for n in range(depth + 1):
            assert back.at(n) is ref_back.at(n) is m.at(n)
            assert lit_back.at(n) is lit_hand_back.at(n) is m.at(n)
            for ch, ref_ch, lit_ch in zip(v.children, ref_again.children, lit_again.children):
                assert ref_ch.at(n) is lit_ch.at(n) is ch.at(n)


def test_negative_depth_on_every_element():
    """A negative depth names no stage on any element, unfolded,
    assembled, hand-built or sorted, nor on its ``limit`` view, nor on
    that view shifted forward, whose stage -1 would be stage 0 of the
    view; nor does a stream read as a function, nor the cochain tuple."""
    s7 = stream_from_function(lambda k: 7)
    sc = s7.container

    def by_hand(n):
        t = TRUNC
        for d in range(1, n + 1):
            t = make_node(sc, 7, [t], depth=d)
        return t

    hand = MElement(sc, LimitElement(w_chain(sc), by_hand, provenance="by-hand"))
    p = unfold(parity_coalgebra(), "p")
    label, children = out(p)
    elements = {
        "unfold": s7,
        "out-child": out(conat_infinity()).children[0],
        "into": into(s7.container, PValue(3, (s7,))),
        "tail": tail(s7),
        "cons": cons(3, cons(4, s7)),
        "limit-view": MElement(s7.container, s7.limit),
        "hand-built": hand,
        "hand-built-out-child": out(hand).children[0],
        "hand-built-cons": cons(7, hand),
        "hand-built-tail": tail(hand),
        "unfold-sorted": p,
        "out-child-sorted": children[0],
        "into-sorted": into(p.container, PValue(label, children), "e"),
    }
    for m in elements.values():
        for n in (-1, -3):
            with pytest.raises(CannotTruncateUnit):
                m.at(n)
        with pytest.raises(CannotTruncateUnit):
            m.limit.at(-1)
        with pytest.raises(CannotTruncateUnit):
            shift_forward(m.limit).at(-1)
        with pytest.raises(CannotTruncateUnit):
            stream_to_function(m)(-1)
    with pytest.raises(CannotTruncateUnit):
        iterate_cochain(TRUNC, lambda k, t: t, -2)


def test_elements_compare_by_coalgebra_and_state():
    """Elements are values: equal and of equal hash when they point at one
    state of one coalgebra at one sort (None for a plain element),
    whatever made them."""
    c = conat_coalgebra(2)
    one = out(unfold(c, 2)).children[0]
    assert one == unfold(c, 1) and hash(one) == hash(unfold(c, 1))
    assert len({one, unfold(c, 1), unfold(c, 2)}) == 2
    assert unfold(c, 1) != unfold(conat_coalgebra(2), 1)
    family = unfold(c, 1).limit
    assert MElement(c.container, family) == MElement(c.container, family)
    assert MElement(c.container, family) != unfold(c, 1)
    v = out(unfold(c, 2))
    assert into(c.container, v) != into(c.container, v)
    p = parity_coalgebra()
    assert unfold(p, "p") == unfold(p, "p") != MElement(None, coalgebra=p, state="p")
    assert MElement(p.container, coalgebra=p, state="p", sort="e") != MElement(
        p.container, coalgebra=p, state="p", sort="o"
    )
    with pytest.raises(TypeError):
        MElement(c.container, family, coalgebra=c, state=1)


def test_hand_built_out_detects_label_drift():
    """A hand-built family whose root label changes raises LabelDrift: at
    ``out`` when the change is among the first stages, and when a child is
    observed at the stage where it changes otherwise."""
    sc = stream_container()

    def drifting_at(k):
        def fn(n):
            t = TRUNC
            for d in range(1, n + 1):
                t = make_node(sc, 5 if d < k else 6, [t], depth=d)
            return t

        return MElement(sc, LimitElement(w_chain(sc), fn))

    with pytest.raises(LabelDrift):
        out(drifting_at(3))
    child = out(drifting_at(20)).children[0]
    assert child.at(18).label == 5
    with pytest.raises(LabelDrift):
        child.at(19)


def sevens(sc, n):
    """Stage n of the hand-built stream of 7s over ``sc``."""
    t = TRUNC
    for d in range(1, n + 1):
        t = make_node(sc, 7, [t], depth=d)
    return t


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small_coalgebras(), small_indexed_coalgebras()),
    st.integers(0, 8),
    st.lists(st.integers(0, 8), max_size=3),
    st.data(),
)
def test_morphism_verdict_reads_the_stages_property(c, n, seen, data):
    """The verdict of :func:`verify_morphism` on one state ``s`` sent to an
    element ``m`` is whether ``m`` has the sort of ``s`` and its stages
    0..n, read through chain.py's ``.limit`` view, are the observations of
    ``s``: for an unfolded element, ``into`` of its ``out``, ``into`` over
    such ``into`` children, ``into`` over children unfolded from drawn
    states of their sorts (which may first differ at any depth), a family
    built by hand from the observations of ``s``, and ``cons`` over a
    hand-built stream or over its child; whether or not some of their
    stages were read first."""
    s = data.draw(st.sampled_from(c.state_enumeration))
    sc = stream_container((3, 7))
    hand = MElement(sc, LimitElement(w_chain(sc), lambda k: sevens(sc, k)))
    m = unfold(c, s)
    sort = m.sort
    label, children = out(m)
    inner = tuple(into(c.container, out(ch), ch.sort) for ch in children)
    drawn = tuple(
        unfold(c, data.draw(st.sampled_from([q for q in c.state_enumeration if c._sort(q) == ch.sort])))
        for ch in children
    )
    own = LimitElement(w_chain(c.container), lambda k: approximate(c, s, k))
    elements = {
        "unfold": m,
        "into": into(c.container, PValue(label, children), m.sort),
        "into-over-into": into(c.container, PValue(label, inner), m.sort),
        "into-over-drawn": into(c.container, PValue(label, drawn), m.sort),
        "hand-built": MElement(c.container, own, sort=sort),
        "cons-over-hand-built": cons(3, hand),
        "cons-over-hand-built-child": cons(3, out(hand).children[0]),
    }
    for name, m in elements.items():
        for k in seen:
            m.at(k)
        verdict = verify_morphism(MorphismCandidate(c, lambda _: m), n, [s])
        expected = m.sort == sort and all(m.limit.at(k) is approximate(c, s, k) for k in range(n + 1))
        assert verdict == expected, name


def test_hand_built_candidate_that_differs_early_is_refused_before_it_drifts():
    """A hand-built candidate whose stage 1 differs from the state's, and
    whose deeper stages drift, fails the morphism law: the first differing
    stage ends the check, so no drifting stage is read and no
    :class:`LabelDrift` escapes.  So does ``cons`` over it."""
    sc = stream_container()
    c = Coalgebra(sc, {"s": (7, ("s",))}, state_enumeration=("s",))

    def drifting(n):
        t = TRUNC
        for d in range(1, n + 1):
            t = make_node(sc, 5 if d < 20 else 6, [t], depth=d)
        return t

    child = out(MElement(sc, LimitElement(w_chain(sc), drifting))).children[0]
    with pytest.raises(LabelDrift):
        child.at(19)
    for candidate in (child, cons(5, child)):
        mc = MorphismCandidate(c, lambda s: candidate)
        assert not verify_morphism(mc, 30)
        assert not verify_morphism(mc, 30, states=["s"])
        with pytest.raises(NotAMorphism):
            uniqueness_probe(c, mc, 30)


def test_assembled_element_keeps_its_stages():
    """Observing an ``into`` element again at a depth it has built reads
    its own stages, not its children's."""
    seen = []

    class Counting(Coalgebra):
        def _observe(self, s, n):
            seen.append(n)
            return super()._observe(s, n)

    c = Counting(stream_container(), {0: (1, (0,))}, state_enumeration=(0,))
    m = cons(3, cons(2, unfold(c, 0)))
    first = m.at(10)
    assert m.at(10) is first and m.at(10) is first
    assert seen == [8]


def test_nested_extensions_build_below_the_top():
    """``cons`` three deep over a pointed stream, first observed at a depth
    that none of its extensions has built: the middle extension must have
    the innermost one build its stage before it builds its own.  Each
    extension keeps the one stage it built, and every stage equals the
    chain reference, ``into`` composed in chain.py."""
    sc = stream_container()
    base = unfold(Coalgebra(sc, {0: (1, (0,))}, state_enumeration=(0,)), 0)
    inner = cons(4, base)
    middle = cons(3, inner)
    m = cons(2, middle)
    top = m.at(12)
    assert [sorted(e.coalgebra._stages) for e in (m, middle, inner)] == [[0, 12], [0, 11], [0, 10]]
    reference = chain_into(sc, PValue(2, (chain_into(sc, PValue(3, (chain_into(sc, PValue(4, (base,))),))),)))
    assert top is reference.at(12)
    assert all(m.at(n) is reference.at(n) for n in range(14))


def test_an_overridden_observe_is_read_through_not_off_the_table():
    """A subclass that overrides ``_observe`` is observed through it by
    ``verify_morphism`` and ``uniqueness_probe``, never off its level
    table, even where the table holds every entry they compare.  Here each
    state is observed as the other one, so the map that swaps the states
    is the morphism, and the identity, which the table would confirm, is
    not."""
    seen = []

    class Swapped(Coalgebra):
        def _observe(self, s, n):
            seen.append(n)
            return approximate(self, 1 - s, n)

    gamma = {0: (1, (0,)), 1: (2, (1,))}
    c = Swapped(stream_container(), gamma, state_enumeration=(0, 1))
    plain = Coalgebra(stream_container(), gamma, state_enumeration=(0, 1))
    swap = MorphismCandidate(c, lambda s: unfold(plain, 1 - s))
    same = MorphismCandidate(c, lambda s: unfold(plain, s))
    assert verify_morphism(swap, 6) and verify_morphism(swap, 6, states=[1, 0])
    assert uniqueness_probe(c, swap, 6)
    assert seen
    assert all(c._levels[n][s] is approximate(plain, s, n) for s in (0, 1) for n in range(7))
    assert not verify_morphism(same, 6) and not verify_morphism(same, 6, states=[0])
    with pytest.raises(NotAMorphism):
        uniqueness_probe(c, same, 6)


def test_gamma_mapping_missing_a_state_is_invalid():
    """A ``gamma`` mapping without an entry for an enumerated state is an
    invalid presentation that names the state, for both kinds."""
    with pytest.raises(InvalidCoalgebra, match="state 'a' has no transition"):
        Coalgebra(fig1_signature(), {}, state_enumeration=("a",))
    with pytest.raises(InvalidCoalgebra, match="state 'q' has no transition"):
        IndexedCoalgebra(parity_container(), ("p", "q"), {"p": "e", "q": "o"}, {"p": ("E", ("q",))})
    # With no gamma and no tables, a state read without an enumeration has
    # no transition either.
    with pytest.raises(InvalidCoalgebra, match="state 't' has no transition in gamma"):
        approximate(Coalgebra(fig1_signature(), None), "t", 1)


def test_out_coalgebra_of_an_indexed_container_steps_by_out():
    """The final coalgebra of an indexed container, viewed as a coalgebra
    over its elements, admits each transition at its element's sort: it
    steps by ``out``, and unfolding through it keeps sorts and stages."""
    e = unfold(parity_coalgebra(), "p")
    oc = out_coalgebra(parity_container())
    assert oc.transition(e) == out(e)
    child = out(e).children[0]
    assert child.sort == "o" and oc.transition(child) == out(child)
    m = unfold(oc, e)
    assert m.sort == "e"
    assert all(m.at(n) is e.at(n) for n in range(12))


def _plain(states, gamma):
    return lambda: Coalgebra(fig1_signature(), gamma, state_enumeration=states)


def _parity(states, gamma):
    sort_of = {"p": "e", "q": "o", "r": "e"}
    return lambda: IndexedCoalgebra(parity_container(), states, sort_of, gamma)


def _two_sorts(gamma):
    """p of sort x, whose label b has children of sorts x and y, and q of
    sort y, whose label a is a leaf."""
    base = IndexedContainer(
        sorts=("x", "y"),
        labels_at={"x": ("b",), "y": ("a",)},
        arity={("x", "b"): 2, ("y", "a"): 0},
        child_sort={("x", "b"): ("x", "y"), ("y", "a"): ()},
    )
    return lambda: IndexedCoalgebra(base, ("p", "q"), {"p": "x", "q": "y"}, gamma)


@pytest.mark.parametrize(
    "make, error, message",
    [
        # A child outside the enumeration, then a wrong arity; and the
        # other way round.
        (
            _plain(("s", "t"), {"s": ("b", ("t", "x")), "t": ("a", ("s",))}),
            InvalidCoalgebra,
            "transition of 's' leaves the state enumeration: 'x'",
        ),
        (
            _plain(("s", "t"), {"s": ("a", ("s",)), "t": ("b", ("t", "x"))}),
            ArityMismatch,
            "state 's': label 'a' has arity 0, got 1 children",
        ),
        (
            _parity(("p", "q"), {"p": ("E", ("x",)), "q": ("O", ())}),
            InvalidCoalgebra,
            "transition of 'p' leaves the state set: 'x'",
        ),
        (
            _parity(("p", "q"), {"p": ("E", ()), "q": ("O", ("x",))}),
            ArityMismatch,
            "state 'p': label 'E' has arity 1, got 0 children",
        ),
        # A missing gamma entry, then a child outside the enumeration; and
        # the other way round.
        (
            _plain(("s", "t"), {"t": ("b", ("s", "x"))}),
            InvalidCoalgebra,
            "state 's' has no transition in gamma",
        ),
        (
            _plain(("s", "t"), {"s": ("b", ("s", "x"))}),
            InvalidCoalgebra,
            "transition of 's' leaves the state enumeration: 'x'",
        ),
        (
            _parity(("p", "q"), {"q": ("O", ("x",))}),
            InvalidCoalgebra,
            "state 'p' has no transition in gamma",
        ),
        (
            _parity(("p", "q"), {"p": ("E", ("x",))}),
            InvalidCoalgebra,
            "transition of 'p' leaves the state set: 'x'",
        ),
        # A duplicate state is reported before any transition is read.
        (
            _plain(("s", "t", "s"), {"t": ("b", ("s", "x"))}),
            InvalidCoalgebra,
            "state enumeration contains duplicates",
        ),
        (
            _parity(("p", "q", "p"), {"q": ("O", ("x",))}),
            InvalidCoalgebra,
            "duplicate states",
        ),
        # Two faults in one indexed state: a child outside the state set
        # and a child of the wrong sort, in both position orders; a label
        # not at the state's sort with the wrong arity; a wrong arity and
        # a child outside the state set.
        (
            _two_sorts({"p": ("b", ("zz", "p")), "q": ("a", ())}),
            InvalidCoalgebra,
            "transition of 'p' leaves the state set: 'zz'",
        ),
        (
            _two_sorts({"p": ("b", ("q", "zz")), "q": ("a", ())}),
            InvalidCoalgebra,
            "state 'p': child 0 has sort 'y', expected 'x'",
        ),
        (
            _two_sorts({"p": ("b", ("p", "q")), "q": ("b", ("q",))}),
            UnknownLabel,
            "state 'q': label 'b' not at sort 'y'",
        ),
        (
            _two_sorts({"p": ("b", ("zz",)), "q": ("a", ())}),
            ArityMismatch,
            "state 'p': label 'b' has arity 2, got 1 children",
        ),
        # A table of PValues for exactly the enumerated states, as the spec
        # loader builds, is kept as the transition store: each entry is
        # still admitted, and a missing one still named.
        (
            _plain(("s", "t"), {"s": PValue("a", ("s",)), "t": PValue("b", ("t", "x"))}),
            ArityMismatch,
            "state 's': label 'a' has arity 0, got 1 children",
        ),
        (
            _parity(("p", "q"), {"p": PValue("E", ("x",)), "q": PValue("O", ())}),
            InvalidCoalgebra,
            "transition of 'p' leaves the state set: 'x'",
        ),
        (
            _plain(("s", "t"), {"t": PValue("b", ("s", "x")), "u": PValue("a", ())}),
            InvalidCoalgebra,
            "state 's' has no transition in gamma",
        ),
        # No gamma at all, and no tables adopted: the first state has no
        # transition.
        (_plain(("a",), None), InvalidCoalgebra, "state 'a' has no transition in gamma"),
        (_parity(("p", "q"), None), InvalidCoalgebra, "state 'p' has no transition in gamma"),
    ],
    ids=[
        "plain-leaves-then-arity",
        "plain-arity-then-leaves",
        "indexed-leaves-then-arity",
        "indexed-arity-then-leaves",
        "plain-missing-then-leaves",
        "plain-leaves-then-missing",
        "indexed-missing-then-leaves",
        "indexed-leaves-then-missing",
        "plain-duplicate-first",
        "indexed-duplicate-first",
        "indexed-leaves-then-wrong-sort-in-one-state",
        "indexed-wrong-sort-then-leaves-in-one-state",
        "indexed-label-not-at-sort-and-arity",
        "indexed-arity-then-leaves-in-one-state",
        "plain-table-arity-then-leaves",
        "indexed-table-leaves-then-arity",
        "plain-table-missing-then-leaves",
        "plain-no-gamma",
        "indexed-no-gamma",
    ],
)
def test_validation_reports_the_first_fault_in_enumeration_order(make, error, message):
    """A presentation with two faults is rejected for the one at the
    earlier state, plain and indexed alike, whichever the kinds of the two
    faults."""
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message
