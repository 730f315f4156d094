"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time

import pytest

from omegacoalg import (
    Coalgebra,
    LimitElement,
    MorphismCandidate,
    PValue,
    approximate,
    bounded_bisim,
    diagonal_bisim,
    enumerate_w,
    into,
    minimize,
    out,
    out_coalgebra,
    partition_refine,
    pmap,
    poly_limit_from,
    poly_limit_to,
    shift_back,
    shift_forward,
    tree_equal,
    truncate,
    unfold,
    uniqueness_probe,
    verify_bisim,
    verify_morphism,
    w_chain,
    witness_from_partition,
)
from omegacoalg.container import TRUNC, make_node
from omegacoalg.mtype import MElement
from omegacoalg.indexed import embed_plain, iapproximate, well_sorted
from omegacoalg.catalog import (
    cons,
    fig1_coalgebra,
    fig1_signature,
    head,
    stream_container,
    stream_from_function,
    stream_to_function,
    tail,
    zip_streams,
)

from conftest import corpus, indexed_corpus, random_coalgebra


def report(num, name, start, budget):
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget


def test_criterion_1_chain_compatibility():
    start = time.monotonic()
    for c in corpus(200):
        for s in c.state_enumeration:
            m = unfold(c, s)
            for n in range(51):
                assert tree_equal(truncate(c.container, m.at(n + 1)), m.at(n))
    report(1, "chain compatibility", start, 10)


def test_criterion_2_finality_existence_and_uniqueness():
    start = time.monotonic()
    for c in corpus(200):
        mc = MorphismCandidate(c, lambda s, c=c: unfold(c, s))
        assert verify_morphism(mc, 50)
        assert uniqueness_probe(c, mc, 50)

    # curated alternative candidates
    # (a) identity on the final coalgebra, over its own out-structure
    fig1 = fig1_coalgebra()
    oc = out_coalgebra(fig1.container)
    samples = [unfold(fig1, s) for s in fig1.state_enumeration]
    ident = MorphismCandidate(oc, lambda m: m)
    assert verify_morphism(ident, 50, states=samples)
    assert uniqueness_probe(oc, ident, 50, states=samples)

    # (b) unfold precomposed with a coalgebra morphism (the quotient map)
    rng = random.Random(321)
    for _ in range(10):
        c = random_coalgebra(rng)
        d = minimize(c)
        rep = {s: block[0] for block in partition_refine(c).blocks for s in block}
        mc = MorphismCandidate(c, lambda s, d=d, rep=rep: unfold(d, rep[s]))
        assert verify_morphism(mc, 50)
        assert uniqueness_probe(c, mc, 50)

    # (c) hand-written corecursion for the constant stream
    sc = stream_container((7,))
    one_state = Coalgebra(sc, {"s": (7, ("s",))}, state_enumeration=("s",))

    def by_hand(n):
        t = TRUNC
        for d in range(1, n + 1):
            t = make_node(sc, 7, [t], depth=d)
        return t

    handmade = MElement(sc, LimitElement(w_chain(sc), by_hand, provenance="by-hand"))
    mc = MorphismCandidate(one_state, lambda s: handmade)
    assert verify_morphism(mc, 50)
    assert uniqueness_probe(one_state, mc, 50)
    report(2, "finality existence + uniqueness", start, 10)


def test_criterion_3_out_into_inverse_pair():
    start = time.monotonic()
    for c in corpus(200):
        s = c.state_enumeration[0]
        m = unfold(c, s)
        v = out(m)
        back = into(c.container, v)
        for n in range(51):
            assert tree_equal(back.at(n), m.at(n))
        again = out(back)
        assert again.label == v.label
        for b in range(len(v.children)):
            for n in range(51):
                assert tree_equal(again.children[b].at(n), v.children[b].at(n))
    report(3, "out/into inverse pair", start, 5)


def test_criterion_4_limit_commutation_and_shift():
    start = time.monotonic()
    for c in corpus(200)[:60]:
        base = w_chain(c.container)
        s = c.state_enumeration[0]
        pv = c.transition(s)
        v = PValue(pv.label, tuple(unfold(c, ch) for ch in pv.children))
        l = poly_limit_to(c.container, base, v)
        # stage n equals pmap of the stage-n projections
        for n in range(51):
            assert l.at(n) == pmap(lambda ch: ch.at(n), v)
        # round trips
        v2 = poly_limit_from(c.container, base, l)
        assert v2.label == v.label
        for b in range(len(v.children)):
            for n in range(51):
                assert tree_equal(v2.children[b].at(n), v.children[b].at(n))
        l2 = poly_limit_to(c.container, base, v2)
        for n in range(51):
            assert l2.at(n) == l.at(n)
        # shifted-chain equivalence round trips
        m = unfold(c, s).limit
        fwd = shift_forward(m)
        back = shift_back(base, fwd)
        for n in range(51):
            assert tree_equal(back.at(n), m.at(n))
        fwd2 = shift_forward(back)
        for n in range(50):
            assert tree_equal(fwd2.at(n), fwd.at(n))
    report(4, "limit commutation + shifted chain", start, 5)


def _random_cycle_stream(rng):
    sc = stream_container()
    n = rng.randint(1, 5)
    states = tuple(range(n))
    gamma = {i: (rng.randint(0, 3), ((i + 1) % n,)) for i in states}
    return unfold(Coalgebra(sc, gamma, state_enumeration=states), 0)


def test_criterion_5_zip_law():
    start = time.monotonic()
    rng = random.Random(555)
    for _ in range(100):
        xs = _random_cycle_stream(rng)
        ys = _random_cycle_stream(rng)
        lhs = zip_streams(xs, ys)
        rhs = cons((head(xs), head(ys)), zip_streams(tail(xs), tail(ys)))
        for n in range(51):
            assert tree_equal(lhs.at(n), rhs.at(n))
    report(5, "zip law", start, 5)


def test_criterion_6_stream_function_correspondence():
    start = time.monotonic()
    rng = random.Random(666)
    for _ in range(50):
        coeffs = (rng.randint(1, 9), rng.randint(0, 9), rng.randint(2, 7))
        g = lambda k, c=coeffs: (c[0] * k + c[1]) % c[2]
        m = stream_from_function(g)
        g2 = stream_to_function(m)
        assert all(g2(k) == g(k) for k in range(101))
        m2 = stream_from_function(g2)
        for n in range(101):
            assert tree_equal(m2.at(n), m.at(n))
    report(6, "stream = functions on naturals", start, 5)


def test_criterion_7_coinduction_principle():
    start = time.monotonic()
    for c in corpus(200):
        d = diagonal_bisim(c)
        assert verify_bisim(c, d)
        w = witness_from_partition(c, partition_refine(c))
        assert verify_bisim(c, w)
        for (s, t) in w.relation:
            assert bounded_bisim(c, s, t, 50)
    report(7, "coinduction principle", start, 10)


def test_criterion_8_oracle_equivalence():
    start = time.monotonic()
    for c in corpus(200):
        p = partition_refine(c)
        n = len(c.state_enumeration)
        for s in c.state_enumeration:
            for t in c.state_enumeration:
                same = p.block_of(s) is p.block_of(t)
                assert same == bounded_bisim(c, s, t, n)
                assert same == bounded_bisim(c, s, t, 2 * n)
        m = minimize(c)
        rep = {s: block[0] for block in p.blocks for s in block}
        for s in c.state_enumeration:
            for k in range(31):
                assert tree_equal(approximate(m, rep[s], k), approximate(c, s, k))
    report(8, "partition/bounded oracle equivalence", start, 15)


def test_criterion_9_counting_oracle():
    start = time.monotonic()
    fig1 = fig1_signature()
    sizes = [len(enumerate_w(fig1, n)) for n in range(3)]
    assert sizes == [1, 3, 37]
    count = 1
    for n in range(2):
        count = sum(count ** fig1.arity_of(a) for a in fig1.labels)
        assert count == sizes[n + 1]
    report(9, "counting oracle", start, 1)


def test_criterion_10_indexed_coherence():
    start = time.monotonic()
    for c in indexed_corpus(50):
        for s in c.state_enumeration:
            for n in range(31):
                assert well_sorted(c.container, iapproximate(c, s, n))
            m = unfold(c, s)
            back = into(c.container, out(m), m.sort)
            for n in range(31):
                assert tree_equal(back.at(n), m.at(n))
    rng = random.Random(1010)
    for _ in range(20):
        plain = random_coalgebra(rng)
        ic = embed_plain(plain.container, plain)
        for s in plain.state_enumeration:
            for n in range(31):
                assert tree_equal(iapproximate(ic, s, n).tree, approximate(plain, s, n))
    report(10, "indexed coherence", start, 10)
