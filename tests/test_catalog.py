import random
import subprocess
import sys

import pytest

from omegacoalg import Coalgebra, bounded_bisim, out, tree_equal, unfold
from omegacoalg.container import TRUNC, make_node
from omegacoalg.catalog import (
    conat_coalgebra,
    conat_infinity,
    conat_of,
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
from omegacoalg import approximate, enumerate_w


def random_cycle_stream(rng, labels=(0, 1, 2, 3)):
    """A finitely presented stream: unfold of a random labelled cycle."""
    sc = stream_container()
    n = rng.randint(1, 5)
    states = tuple(range(n))
    gamma = {i: (rng.choice(labels), ((i + 1) % n,)) for i in states}
    return unfold(Coalgebra(sc, gamma, state_enumeration=states), 0)


def test_head_tail_constant_stream():
    s7 = stream_from_function(lambda k: 7)
    assert head(s7) == 7
    t = tail(s7)
    for n in range(6):
        assert tree_equal(t.at(n), s7.at(n))


def test_cons_shape():
    s7 = stream_from_function(lambda k: 7)
    sc = s7.container
    m = cons(3, s7)
    assert tree_equal(
        m.at(2), make_node(sc, 3, [make_node(sc, 7, [TRUNC])])
    )
    assert head(m) == 3


def test_cons_head_tail_round_trip():
    s7 = stream_from_function(lambda k: 7)
    m = cons(head(s7), tail(s7))
    for n in range(11):
        assert tree_equal(m.at(n), s7.at(n))


def test_zip_example():
    xs = stream_from_function(lambda k: k % 2)
    ys = stream_from_function(lambda k: 7)
    z = zip_streams(xs, ys)
    sc = z.container
    assert tree_equal(
        z.at(2), make_node(sc, (0, 7), [make_node(sc, (1, 7), [TRUNC])])
    )
    assert head(z) == (0, 7)


def test_zip_law_randomized():
    rng = random.Random(123)
    for _ in range(10):
        xs = random_cycle_stream(rng)
        ys = random_cycle_stream(rng)
        lhs = zip_streams(xs, ys)
        rhs = cons((head(xs), head(ys)), zip_streams(tail(xs), tail(ys)))
        for n in range(31):
            assert tree_equal(lhs.at(n), rhs.at(n))


def test_zip_of_cyclic_streams_has_one_state_per_pair():
    """Elements compare by (coalgebra, state), so the zip coalgebra sees the
    same pair state again after a full period, however many ``tail``s made
    its elements: two 2-state cycles give at most 4 pair states at any
    depth."""
    sc = stream_container()
    a = Coalgebra(sc, {0: ("a0", (1,)), 1: ("a1", (0,))}, state_enumeration=(0, 1))
    b = Coalgebra(sc, {0: ("b0", (1,)), 1: ("b1", (0,))}, state_enumeration=(0, 1))
    z = zip_streams(unfold(a, 0), unfold(b, 1))
    node = z.at(2000)
    for k in range(2000):
        assert node.label == (f"a{k % 2}", f"b{(k + 1) % 2}")
        node = node.children[0]
    assert len(z.coalgebra._gamma_cache) <= 4
    assert tail(unfold(a, 0)) == tail(unfold(a, 0)) == unfold(a, 1)
    assert hash(tail(unfold(a, 0))) == hash(unfold(a, 1))
    assert unfold(a, 0) != unfold(b, 0) and unfold(a, 0) != unfold(a, 1)


def test_stream_from_function_identity_labels():
    m = stream_from_function(lambda k: k)
    sc = m.container
    expected = make_node(
        sc, 0, [make_node(sc, 1, [make_node(sc, 2, [TRUNC])])]
    )
    assert tree_equal(m.at(3), expected)


def test_stream_function_round_trips():
    g = lambda k: (3 * k + 1) % 5
    m = stream_from_function(g)
    g2 = stream_to_function(m)
    assert all(g2(k) == g(k) for k in range(101))
    m2 = stream_from_function(g2)
    for n in range(101):
        assert tree_equal(m2.at(n), m.at(n))


def test_stream_to_function_matches_head_tail():
    m = stream_from_function(lambda k: k % 3)
    g = stream_to_function(m)
    cur = m
    for k in range(10):
        assert g(k) == head(cur)
        cur = tail(cur)


def test_fig1_arities_and_counts():
    fig1 = fig1_signature()
    assert fig1.arity_of("c") == 3
    assert len(enumerate_w(fig1, 2)) == 37
    c = fig1_coalgebra()
    assert tree_equal(
        approximate(c, "t", 1), make_node(fig1, "b", [TRUNC, TRUNC])
    )


def test_conat_infinity():
    inf = conat_infinity()
    cc = inf.container
    assert tree_equal(
        inf.at(2), make_node(cc, "S", [make_node(cc, "S", [TRUNC])])
    )


def test_conat_of_zero_leaf():
    z = conat_of(0)
    for n in range(1, 8):
        t = z.at(n)
        assert t.label == "Z" and t.children == ()


def test_conat_of_k_structure():
    m = conat_of(2)
    t = m.at(5)
    layers = 0
    while t.label == "S":
        t = t.children[0]
        layers += 1
    assert layers == 2 and t.label == "Z"


def test_infinity_distinguishable_from_finite():
    for k in range(11):
        c = conat_coalgebra(k)
        assert not bounded_bisim(c, "inf", k, k + 1)
        assert bounded_bisim(c, "inf", k, k) if k > 0 else True


def test_conats_pairwise_distinct():
    for k in range(5):
        for k2 in range(5):
            if k == k2:
                continue
            d = max(k, k2) + 1
            a, b = conat_of(k), conat_of(k2)
            assert not tree_equal(a.at(d), b.at(d))


DEEP_USE = """
import sys
from omegacoalg import out
from omegacoalg.catalog import conat_infinity, cons, head, stream_from_function, tail, zip_streams

sys.setrecursionlimit(200)
m = conat_infinity()
for _ in range(1000):
    m = out(m).children[0]
assert m.at(3).label == "S"

nat = stream_from_function(lambda k: k)
t = nat
for _ in range(5000):
    t = tail(t)
assert head(t) == 5000 and head(tail(t)) == 5001

node = zip_streams(nat, stream_from_function(lambda k: -k)).at(2000)
for k in range(2000):
    assert node.label == (k, -k)
    node = node.children[0]
assert node.is_trunc

c = nat
for k in range(3000):
    c = cons(-k, c)
node = c.at(3001)
for k in range(2999, -1, -1):
    assert node.label == -k
    node = node.children[0]
assert node.label == 0 and node.children[0].is_trunc
print("ok")
"""


def test_deep_use_needs_no_recursion():
    """``out`` 1000 times, ``tail`` 5000 times, a zip observed to depth 2000
    and 3000 nested ``cons`` run with the recursion limit at 200."""
    r = subprocess.run([sys.executable, "-c", DEEP_USE], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "ok\n"


HAND_BUILT_TAILS = """
import sys
from omegacoalg import LimitElement, out, w_chain
from omegacoalg.container import TRUNC, make_node
from omegacoalg.mtype import MElement
from omegacoalg.catalog import cons, head, stream_container, tail

sys.setrecursionlimit(1000)
sc = stream_container()

def sevens(n):
    t = TRUNC
    for d in range(1, n + 1):
        t = make_node(sc, 7, [t], depth=d)
    return t

for step in (tail, lambda m: out(m).children[0]):
    m = MElement(sc, LimitElement(w_chain(sc), sevens))
    for _ in range(300):
        m = step(m)
    assert head(m) == 7 and m.at(3) is sevens(3)

# A hand-built state is a family and a path: ``tail`` 2000 times and a zip
# observed to depth 1000 nest no frames, and two ``out``s agree.
from omegacoalg.catalog import zip_streams

m = MElement(sc, LimitElement(w_chain(sc), sevens))
for _ in range(2000):
    m = tail(m)
assert head(m) == 7 and m.at(3) is sevens(3)
h = MElement(sc, LimitElement(w_chain(sc), sevens))
assert out(h).children[0] == out(h).children[0]
node = zip_streams(h, tail(h)).at(1000)
for _ in range(1000):
    assert node.label == (7, 7)
    node = node.children[0]
assert node.is_trunc

m = MElement(sc, LimitElement(w_chain(sc), sevens))
for k in range(3000):
    m = cons(-k, m)
node = m.at(3002)
for k in range(2999, -1, -1):
    assert node.label == -k
    node = node.children[0]
assert node is sevens(2)
print("ok")
"""


def test_hand_built_tail_300_times_at_default_limit():
    """``tail`` and ``out`` applied 300 times, and ``cons`` applied 3000
    times, to a hand-built stream run at recursion limit 1000: each ``out``
    nests a fixed, small number of frames, and ``cons`` none."""
    r = subprocess.run(
        [sys.executable, "-c", HAND_BUILT_TAILS], capture_output=True, text=True, timeout=60
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "ok\n"
