import copy
import random

import pytest
from hypothesis import given, strategies as st

from omegacoalg import (
    Coalgebra,
    Container,
    PValue,
    SortedApproxTree,
    approximate,
    enumerate_w,
    make_node,
    make_trunc,
    pmap,
    tree_equal,
    truncate,
    truncate_to,
)
from omegacoalg.container import TRUNC
from omegacoalg.catalog import conat_coalgebra, fig1_coalgebra, fig1_signature
from omegacoalg.errors import (
    ArityMismatch,
    CannotTruncateUnit,
    DepthTooLarge,
    NeedsFiniteLabels,
    RaggedDepth,
    SizeBoundExceeded,
    UnknownLabel,
)

from conftest import random_coalgebra, well_formed

FIG1 = fig1_signature()


def test_pmap_identity():
    """The identity map gives an equal value, of equal hash; a value unpacks
    as ``label, children``, reads back by its repr, and refuses assignment
    and deletion of its fields."""
    v = PValue("b", ("s0", "s1"))
    w = pmap(lambda x: x, v)
    assert w == v and w is not v and hash(w) == hash(v)
    label, children = v
    assert (label, children) == ("b", ("s0", "s1")) != v
    assert repr(v) == "PValue(label='b', children=('s0', 's1'))"
    assert eval(repr(v)) == v
    with pytest.raises(AttributeError):
        v.label = "a"
    with pytest.raises(AttributeError):
        del v.children
    with pytest.raises(AttributeError):
        v.extra = 1
    assert (v.label, v.children) == ("b", ("s0", "s1"))


@pytest.mark.parametrize(
    "make, other, field",
    [
        (lambda: PValue("b", ["s0", "s1"]), PValue("b", ("s1", "s0")), "label"),
        (lambda: SortedApproxTree("e", TRUNC), SortedApproxTree("o", TRUNC), "sort"),
    ],
)
def test_values_compare_and_hash_by_fields(make, other, field):
    """Functor values and sorted trees are equal, and hash alike, when their
    fields are; they are immutable, and a copy is equal."""
    x, y = make(), make()
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != other and other not in {x}
    assert copy.copy(x) == x
    with pytest.raises(AttributeError):
        setattr(x, field, None)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Container(arity={"a": 0}, labels=("a",)),
        lambda: Coalgebra(FIG1, {"s": ("a", ())}, state_enumeration=("s",)),
        lambda: Coalgebra(FIG1, lambda s: ("a", ())),
    ],
)
def test_signatures_and_coalgebras_compare_by_identity(make):
    """Two containers, or coalgebras, built alike are still different
    objects: they compare and hash by identity."""
    x, y = make(), make()
    assert x == x and x != y and len({x, y}) == 2


def test_pmap_rename():
    v = PValue("b", ("s0", "s1"))
    assert pmap(lambda s: s + "'", v) == PValue("b", ("s0'", "s1'"))


def test_pmap_composition():
    v = PValue("c", ("s0", "s1", "s2"))
    f = lambda s: s + "!"
    g = lambda s: s.upper()
    assert pmap(lambda x: g(f(x)), v) == pmap(g, pmap(f, v))


def test_make_trunc_unique():
    assert make_trunc().depth == 0
    assert tree_equal(make_trunc(), make_trunc())


def test_make_node_fig1_depth2():
    leaf = make_node(FIG1, "a", [])
    partial = make_node(FIG1, "b", [make_trunc(), make_trunc()])
    t = make_node(FIG1, "b", [leaf, partial])
    assert t.depth == 2
    assert well_formed(FIG1, t)


def test_make_node_zero_arity_leaf():
    assert make_node(FIG1, "a", []).depth == 1


def test_make_node_arity_mismatch():
    with pytest.raises(ArityMismatch):
        make_node(FIG1, "b", [make_node(FIG1, "a", [])])


def test_make_node_ragged_depth():
    """Children of one depth, a node one deeper than its children, and a
    leaf at depth 1 or deeper: any other depth is refused."""
    deep = make_node(FIG1, "b", [make_trunc(), make_trunc()])
    with pytest.raises(RaggedDepth):
        make_node(FIG1, "b", [make_trunc(), deep])
    leaf = make_node(FIG1, "a", [])
    with pytest.raises(RaggedDepth, match="requested depth 3 but children force depth 2"):
        make_node(FIG1, "b", [leaf, leaf], depth=3)
    assert make_node(FIG1, "b", [leaf, leaf], depth=2).depth == 2
    with pytest.raises(RaggedDepth, match="nodes sit at depth >= 1"):
        make_node(FIG1, "a", [], depth=0)
    assert make_node(FIG1, "a", [], depth=4).depth == 4


def test_container_refuses_a_negative_arity_and_an_undeclared_label():
    with pytest.raises(UnknownLabel, match="negative arity for label 'a'"):
        Container(arity={"a": -1}, labels=("a",))
    with pytest.raises(UnknownLabel, match="label 'zz' has no declared arity"):
        FIG1.arity_of("zz")
    assert Container(arity=lambda a: 2).arity_of("zz") == 2


def test_truncate_depth1_to_trunc():
    assert tree_equal(truncate(FIG1, make_node(FIG1, "a", [])), make_trunc())


def test_truncate_fig1_example():
    leaf = make_node(FIG1, "a", [])
    partial = make_node(FIG1, "b", [make_trunc(), make_trunc()])
    t = make_node(FIG1, "b", [leaf, partial])
    assert tree_equal(truncate(FIG1, t), partial)


def test_truncate_trunc_fails():
    with pytest.raises(CannotTruncateUnit):
        truncate(FIG1, make_trunc())


def test_truncate_to_identity_and_zero():
    c = conat_coalgebra()
    t = approximate(c, "inf", 3)  # S(S(S(Trunc)))
    assert tree_equal(truncate_to(c.container, t, t.depth), t)
    assert tree_equal(truncate_to(c.container, t, 0), make_trunc())


def test_truncate_to_conat_example():
    c = conat_coalgebra()
    t = approximate(c, "inf", 3)
    assert tree_equal(truncate_to(c.container, t, 1), approximate(c, "inf", 1))


def test_truncate_to_too_deep():
    with pytest.raises(DepthTooLarge):
        truncate_to(FIG1, make_trunc(), 1)


def test_tree_equal_examples():
    assert tree_equal(make_trunc(), make_trunc())
    leaf = make_node(FIG1, "a", [])
    partial = make_node(FIG1, "b", [make_trunc(), make_trunc()])
    assert not tree_equal(leaf, partial)
    assert tree_equal(partial, truncate_to(FIG1, partial, partial.depth))


def test_negative_depth_raises_before_any_cache_write():
    """``truncate_to`` below stage 0, of a tree or of Trunc, and
    ``enumerate_w`` of a negative stage raise :class:`CannotTruncateUnit`."""
    t = approximate(fig1_coalgebra(), "t", 3)
    truncate_to(FIG1, t, 0)
    for m in (-1, -5):
        with pytest.raises(CannotTruncateUnit):
            truncate_to(FIG1, t, m)
        with pytest.raises(CannotTruncateUnit):
            truncate_to(FIG1, TRUNC, m)
        with pytest.raises(CannotTruncateUnit):
            enumerate_w(FIG1, m)


def test_enumerate_w_unit_stage():
    assert enumerate_w(FIG1, 0) == [make_trunc()]


def test_enumerate_w_fig1_counts():
    assert len(enumerate_w(FIG1, 1)) == 3
    assert len(enumerate_w(FIG1, 2)) == 37  # 3^0 + 3^2 + 3^3


@pytest.mark.parametrize("seed", range(6))
def test_enumerate_w_recurrence_vs_enumeration(seed):
    rng = random.Random(seed)
    c = random_coalgebra(rng).container
    count = 1
    for n in range(4):
        if count > 300_000:
            break
        trees = enumerate_w(c, n, bound=300_000)
        assert len(trees) == count
        assert len(set(trees)) == count  # duplicate-free
        assert all(well_formed(c, t) for t in trees)
        count = sum(count ** c.arity_of(a) for a in c.labels)


def test_enumerate_w_needs_labels():
    with pytest.raises(NeedsFiniteLabels):
        enumerate_w(Container(arity=lambda a: 1), 1)


def test_enumerate_w_size_bound():
    with pytest.raises(SizeBoundExceeded):
        enumerate_w(FIG1, 10, bound=1000)


@given(st.integers(min_value=0, max_value=123456), st.integers(min_value=1, max_value=8))
def test_chain_law_projection_coherence(seed, n):
    rng = random.Random(seed)
    c = random_coalgebra(rng)
    s = c.state_enumeration[0]
    t = approximate(c, s, n)
    for m in range(n):
        assert tree_equal(
            truncate_to(c.container, t, m),
            truncate_to(c.container, truncate(c.container, t), m),
        )


@given(st.integers(min_value=0, max_value=123456), st.integers(min_value=0, max_value=8))
def test_approximate_outputs_well_formed(seed, n):
    rng = random.Random(seed)
    c = random_coalgebra(rng)
    for s in c.state_enumeration:
        assert well_formed(c.container, approximate(c, s, n))
