import random

import pytest

from omegacoalg import (
    Cone,
    LimitElement,
    PValue,
    approximate,
    check_compat,
    cone_to_map,
    into,
    iterate_cochain,
    map_to_cone,
    pmap,
    poly_limit_from,
    poly_limit_to,
    shift_back,
    shift_forward,
    tree_equal,
    unfold,
    w_chain,
)
from omegacoalg import container
from omegacoalg.chain import poly_chain
from omegacoalg.container import TRUNC, make_node
from omegacoalg.catalog import (
    conat_coalgebra,
    stream_container,
    stream_from_function,
)
from omegacoalg.errors import ConeLawViolation, LabelDrift

from conftest import interned_trees, random_coalgebra


def test_check_compat_unfold_depth50():
    rng = random.Random(1)
    for _ in range(5):
        c = random_coalgebra(rng)
        for s in c.state_enumeration:
            assert check_compat(unfold(c, s).limit, 50)


def test_check_compat_detects_mismatch():
    c = conat_coalgebra()
    base = w_chain(c.container)
    good = unfold(c, "inf")

    def broken(n):
        if n == 2:
            return approximate(c, "inf", 1)  # wrong stage on purpose
        return good.at(n)

    l = LimitElement(base, broken)
    assert not check_compat(l, 5)
    assert check_compat(l, 0)  # vacuous


def test_check_compat_deep_limit_is_linear(monkeypatch):
    """Each tree keeps its own truncation, so checking the stages of a deep
    ``.limit`` view in order truncates each tree once: at most d interned
    lookups, not the d(d-1)/2 of a walk per stage."""
    d = 2000
    m = unfold(conat_coalgebra(), "inf")
    m.at(d)
    lookups = []
    tree = container._tree

    def counted(*key):
        lookups.append(key)
        return tree(*key)

    monkeypatch.setattr(container, "_tree", counted)
    assert check_compat(m.limit, d)
    assert len(lookups) <= d


def test_iterate_cochain_counts():
    assert iterate_cochain(0, lambda n, x: x + 1, 5) == 5
    assert iterate_cochain(0, lambda n, x: x + 1, 0) == 0


def test_iterate_cochain_matches_approximate():
    c = conat_coalgebra()

    def step(n, t):
        pv = c.transition("inf")
        return make_node(c.container, pv.label, [t], depth=n + 1)

    for n in range(11):
        assert tree_equal(iterate_cochain(TRUNC, step, n), approximate(c, "inf", n))


def test_cone_of_projections_is_identity():
    c = conat_coalgebra()
    m = unfold(c, "inf")
    base = w_chain(c.container)
    cone = Cone(legs=lambda n, x: x.at(n), apex_samples=(m,))
    h = cone_to_map(base, cone)
    for n in range(10):
        assert tree_equal(h(m).at(n), m.at(n))


def test_cone_constant_stream():
    const7 = stream_from_function(lambda k: 7)
    base = w_chain(const7.container)
    cone = Cone(legs=lambda n, _x: const7.at(n), apex_samples=((),))
    h = cone_to_map(base, cone)
    for n in range(6):
        assert tree_equal(h(()).at(n), const7.at(n))


def test_cone_law_violation():
    c = conat_coalgebra()
    base = w_chain(c.container)
    bad = Cone(legs=lambda n, x: approximate(c, "inf", max(n - 1, 0)), apex_samples=(0,))
    with pytest.raises(ConeLawViolation):
        cone_to_map(base, bad)


def test_trunc_leg_writes_no_cache():
    """A cone whose stage-1 leg is Trunc is refused, and the chain's
    projection refuses that Trunc before the intern table is written: no
    tree of negative depth is interned.  A family with Trunc at stage 1
    fails compatibility the same way."""
    c = conat_coalgebra()
    base = w_chain(c.container)
    bad = Cone(legs=lambda n, x: approximate(c, "inf", max(n - 1, 0)), apex_samples=(0,))
    with pytest.raises(ConeLawViolation):
        cone_to_map(base, bad)
    assert not check_compat(LimitElement(base, lambda n: bad.legs(n, 0)), 3)
    assert all(t.depth >= 0 for t in interned_trees())


def test_map_to_cone_round_trips():
    c = conat_coalgebra(2)
    base = w_chain(c.container)
    h = lambda s: unfold(c, s)
    cone = map_to_cone(h)
    h2 = cone_to_map(base, cone)
    for s in c.state_enumeration:
        for n in range(10):
            assert tree_equal(h2(s).at(n), h(s).at(n))
    # legs(1, s) is the depth-1 unrolling of the transition
    for s in c.state_enumeration:
        assert tree_equal(cone.legs(1, s), approximate(c, s, 1))


def test_shift_round_trips():
    c = conat_coalgebra()
    base = w_chain(c.container)
    l = unfold(c, "inf").limit
    fwd = shift_forward(l)
    for n in range(6):
        assert tree_equal(fwd.at(n), l.at(n + 1))
    back = shift_back(base, fwd)
    for n in range(6):
        assert tree_equal(back.at(n), l.at(n))
    fwd2 = shift_forward(back)
    for n in range(6):
        assert tree_equal(fwd2.at(n), fwd.at(n))
    assert check_compat(fwd, 10)


def test_shift_back_stage0_forced():
    c = conat_coalgebra()
    base = w_chain(c.container)
    fwd = shift_forward(unfold(c, "inf").limit)
    back = shift_back(base, fwd)
    assert tree_equal(back.at(0), TRUNC)
    assert tree_equal(back.at(3), approximate(c, "inf", 3))


def test_poly_limit_to_stages_are_pmap_of_projections():
    sc = stream_container()
    base = w_chain(sc)
    const7 = stream_from_function(lambda k: 7)
    v = PValue(5, (const7,))
    l = poly_limit_to(sc, base, v)
    for n in range(6):
        assert l.at(n) == pmap(lambda ch: ch.at(n), v)
    assert l.at(0) == PValue(5, (TRUNC,))
    assert l.at(1) == PValue(5, (const7.at(1),))


def test_poly_limit_zero_arity():
    from omegacoalg.catalog import fig1_signature

    fig1 = fig1_signature()
    base = w_chain(fig1)
    v = PValue("a", ())
    l = poly_limit_to(fig1, base, v)
    for n in range(5):
        assert l.at(n) == PValue("a", ())


def test_poly_limit_round_trips():
    sc = stream_container()
    base = w_chain(sc)
    const7 = stream_from_function(lambda k: 7)
    v = PValue(5, (const7,))
    l = poly_limit_to(sc, base, v)
    v2 = poly_limit_from(sc, base, l)
    assert v2.label == 5
    for n in range(6):
        assert tree_equal(v2.children[0].at(n), const7.at(n))
    l2 = poly_limit_to(sc, base, v2)
    for n in range(6):
        assert l2.at(n) == l.at(n)


def test_label_drift_detected():
    """A family whose root label changes is refused with
    :class:`LabelDrift`: by ``poly_limit_from`` when the change is among
    stages 0-7, and by a child when a stage from 8 on is read otherwise."""
    sc = stream_container()
    base = w_chain(sc)

    def drifting(at):
        def stage(n):
            t = TRUNC
            for d in range(1, n + 1):
                t = make_node(sc, 7, [t], depth=d)
            return PValue(5 if n < at else 6, (t,))

        return LimitElement(poly_chain(sc, base), stage)

    with pytest.raises(LabelDrift):
        poly_limit_from(sc, base, drifting(2))
    (child,) = poly_limit_from(sc, base, drifting(8)).children
    assert child.at(7).depth == 7
    with pytest.raises(LabelDrift, match="stage 8 has label 6, stage 0 has 5"):
        child.at(8)


def test_cochain_uniqueness_both_routes_agree():
    # two independently generated compatible cochain families with the same
    # first element agree everywhere
    c = conat_coalgebra()

    def step(n, t):
        return make_node(c.container, "S", [t], depth=n + 1)

    direct = [TRUNC]
    for n in range(10):
        direct.append(step(n, direct[-1]))
    for n in range(11):
        assert tree_equal(iterate_cochain(TRUNC, step, n), direct[n])
