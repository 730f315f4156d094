import contextlib
import io
import json
import os
import random
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegacoalg import (
    BisimWitness,
    Coalgebra,
    Container,
    PValue,
    approximate,
    bounded_bisim,
    coinduction_transfer,
    diagonal_bisim,
    divergence_depth,
    first_divergence_depth,
    minimize,
    partition_refine,
    tree_equal,
    verify_bisim,
    witness_from_partition,
)
from omegacoalg import bisim, cli, specdoc
from omegacoalg.bisim import bisim_violations
from omegacoalg.catalog import fig1_coalgebra, stream_container
from omegacoalg.errors import InvalidWitness, NeedsFiniteStates, PairNotRelated

from conftest import (
    random_coalgebra,
    small_coalgebras,
    small_indexed_coalgebras,
    two_sorts_sharing_a_label,
)


def constant_cycle(last_label="x"):
    sc = stream_container(("x", "y"))
    return Coalgebra(
        sc,
        {
            "s0": ("x", ("s1",)),
            "s1": ("x", ("s2",)),
            "s2": (last_label, ("s0",)),
        },
        state_enumeration=("s0", "s1", "s2"),
    )


def full_relation_witness(c):
    return witness_from_partition(
        c, type(partition_refine(c))((tuple(c.state_enumeration),))
    )


def test_diagonal_bisim_verifies():
    for c in (fig1_coalgebra(), constant_cycle()):
        assert verify_bisim(c, diagonal_bisim(c))


def test_diagonal_bisim_single_state():
    sc = stream_container(("S",))
    c = Coalgebra(sc, {"inf": ("S", ("inf",))}, state_enumeration=("inf",))
    w = diagonal_bisim(c)
    assert w.relation == frozenset({("inf", "inf")})


def test_diagonal_bisim_empty_coalgebra():
    sc = stream_container(("x",))
    c = Coalgebra(sc, {}, state_enumeration=())
    w = diagonal_bisim(c)
    assert w.relation == frozenset()
    assert verify_bisim(c, w)


def test_diagonal_needs_finite_states():
    sc = stream_container()
    c = Coalgebra(sc, lambda s: None)
    with pytest.raises(NeedsFiniteStates):
        diagonal_bisim(c)


def test_verify_bisim_rejects_label_clash():
    c = fig1_coalgebra()
    alpha = {("t", "u"): ("b", (("u", "u"), ("t", "u")))}
    w = BisimWitness(frozenset(alpha))
    assert not verify_bisim(c, w)


def test_verify_bisim_full_cycle_relation():
    c = constant_cycle()
    assert verify_bisim(c, full_relation_witness(c))


def test_bounded_bisim_cycle():
    c = constant_cycle()
    assert bounded_bisim(c, "s0", "s1", 5)
    assert bounded_bisim(c, "s0", "s0", 10)


def test_bounded_bisim_modified_cycle():
    c = constant_cycle("y")
    assert not bounded_bisim(c, "s0", "s1", 3)
    assert first_divergence_depth(c, "s0", "s1", 5) == 2


def test_partition_refine_cycle():
    assert partition_refine(constant_cycle()).blocks == (("s0", "s1", "s2"),)


def test_partition_refine_modified_cycle():
    assert partition_refine(constant_cycle("y")).blocks == (("s0",), ("s1",), ("s2",))


def test_partition_refine_fig1():
    assert partition_refine(fig1_coalgebra()).blocks == (("t",), ("u",))


def test_coinduction_transfer():
    c = constant_cycle()
    w = full_relation_witness(c)
    assert coinduction_transfer(c, w, "s0", "s1", 20)
    d = diagonal_bisim(c)
    assert coinduction_transfer(c, d, "s2", "s2", 20)


def test_coinduction_transfer_guards():
    c = fig1_coalgebra()
    alpha = {("t", "u"): ("b", (("u", "u"), ("t", "u")))}
    bad = BisimWitness(frozenset(alpha))
    with pytest.raises(InvalidWitness):
        coinduction_transfer(c, bad, "t", "u", 5)
    with pytest.raises(PairNotRelated):
        coinduction_transfer(c, diagonal_bisim(c), "t", "u", 5)


def test_coinduction_transfer_verifies_a_witness_once(monkeypatch):
    """Asking many pairs of one witness verifies it once per coalgebra and
    relation.  A witness whose relation is replaced is verified again, and
    one that fails is refused, and verified, on every call."""
    verified = []
    violations = bisim._violations

    def counted(c, relation, parent):
        verified.append(c)
        return violations(c, relation, parent)

    monkeypatch.setattr(bisim, "_violations", counted)
    c, other = constant_cycle(), constant_cycle()
    w = full_relation_witness(c)
    for s, t in 10 * [("s0", "s1"), ("s2", "s0")]:
        assert coinduction_transfer(c, w, s, t, 5)
    assert verified == [c]
    assert coinduction_transfer(other, w, "s1", "s2", 5)
    assert coinduction_transfer(c, w, "s1", "s2", 5)
    assert verified == [c, other]
    w.relation = w.relation | {("s0", "s0")}
    assert coinduction_transfer(c, w, "s1", "s2", 5)
    assert verified == [c, other, c]
    f = fig1_coalgebra()
    bad = BisimWitness(frozenset({("t", "u")}))
    for _ in range(3):
        with pytest.raises(InvalidWitness):
            coinduction_transfer(f, bad, "t", "u", 5)
    assert verified == [c, other, c, f, f, f]


def test_quotient_gamma_is_its_transition_store(monkeypatch):
    """``minimize`` builds its quotient from state numbers, plain and
    indexed, and no second copy of the transitions is held: loading a spec
    makes no ``PValue``, minimizing it makes at most one per block (here
    none), and the quotient has no ``gamma``: its tables are its one
    store, from which each ``PValue`` is made on the first read."""
    made = []
    make = PValue.__init__

    def counted(self, label, children):
        made.append(label)
        make(self, label, children)

    for c in (constant_cycle(), two_sorts_sharing_a_label()):
        text = specdoc.dump_document(c)
        monkeypatch.setattr(PValue, "__init__", counted)
        loaded = specdoc.parse_spec(json.loads(text)).coalgebra
        assert (made, loaded._gamma_cache) == ([], {})
        q = minimize(loaded)
        assert len(made) <= len(q.state_enumeration)
        assert q._gamma_cache == {}
        assert q.gamma is None
        steps = [q.transition(s) for s in q.state_enumeration]
        monkeypatch.undo()
        assert q._gamma_cache == dict(zip(q.state_enumeration, steps))
        assert steps == [minimize(c).transition(s) for s in q.state_enumeration]
        made.clear()


def test_minimize_cycle_to_self_loop():
    m = minimize(constant_cycle())
    assert m.state_enumeration == ("s0",)
    pv = m.transition("s0")
    assert pv.label == "x" and pv.children == ("s0",)


def test_minimize_preserves_behaviour():
    rng = random.Random(5)
    for _ in range(15):
        c = random_coalgebra(rng)
        m = minimize(c)
        p = partition_refine(c)
        rep = {s: block[0] for block in p.blocks for s in block}
        for s in c.state_enumeration:
            for n in range(31):
                assert tree_equal(approximate(m, rep[s], n), approximate(c, s, n))


def test_minimize_idempotent():
    rng = random.Random(6)
    for _ in range(15):
        c = random_coalgebra(rng)
        m = minimize(c)
        assert all(len(b) == 1 for b in partition_refine(m).blocks)
        assert len(minimize(m).state_enumeration) == len(m.state_enumeration)


def test_partition_matches_bounded_oracle():
    rng = random.Random(8)
    for _ in range(25):
        c = random_coalgebra(rng)
        p = partition_refine(c)
        n = len(c.state_enumeration)
        for s in c.state_enumeration:
            for t in c.state_enumeration:
                same = p.block_of(s) is p.block_of(t)
                assert same == bounded_bisim(c, s, t, n)
                assert same == bounded_bisim(c, s, t, 2 * n)


def test_shared_block_is_equivalence():
    rng = random.Random(9)
    for _ in range(10):
        c = random_coalgebra(rng)
        p = partition_refine(c)
        states = c.state_enumeration
        assert all(p.block_of(s) is p.block_of(s) for s in states)
        for s in states:
            for t in states:
                assert (p.block_of(s) is p.block_of(t)) == (
                    p.block_of(t) is p.block_of(s)
                )
        # transitivity is structural: block identity is an equivalence
        seen = {}
        for s in states:
            seen.setdefault(id(p.block_of(s)), []).append(s)
        assert sum(len(v) for v in seen.values()) == len(states)


def test_coinduction_instance_on_corpus_witnesses():
    rng = random.Random(10)
    for _ in range(10):
        c = random_coalgebra(rng)
        w = witness_from_partition(c, partition_refine(c))
        assert verify_bisim(c, w)
        for (s, t) in w.relation:
            assert bounded_bisim(c, s, t, 50)


SELF_LOOP = Coalgebra(
    Container(arity={"x": 1}, labels=("x",)), {"s0": ("x", ("s0",))}, state_enumeration=("s0",)
)
LEAVES = Coalgebra(
    Container(arity={"x": 1, "z": 0}, labels=("x", "z")),
    {"s0": ("x", ("s1",)), "s1": ("z", ()), "s2": ("x", ("s2",)), "s3": ("z", ())},
    state_enumeration=("s0", "s1", "s2", "s3"),
)


@settings(max_examples=300, deadline=None)
@given(small_coalgebras())
@example(SELF_LOOP)
@example(LEAVES)
def test_refinement_and_pair_search_match_oracle_property(c):
    p = partition_refine(c)
    n = len(c.state_enumeration)
    block = {s: i for i, b in enumerate(p.blocks) for s in b}
    assert sorted(block) == sorted(c.state_enumeration)
    order = c.state_enumeration.index
    assert [b[0] for b in p.blocks] == sorted((b[0] for b in p.blocks), key=order)
    assert all(list(b) == sorted(b, key=order) for b in p.blocks)
    for s in c.state_enumeration:
        for t in c.state_enumeration:
            assert (block[s] == block[t]) == bounded_bisim(c, s, t, n)
            assert divergence_depth(c, s, t) == first_divergence_depth(c, s, t, n)


@settings(max_examples=200, deadline=None)
@given(small_coalgebras())
@example(SELF_LOOP)
@example(LEAVES)
def test_gamma_function_refines_as_its_mapping_property(c):
    """A presentation given as a ``gamma`` function over the enumeration
    validates to the same numbered table and class column as the same
    presentation given as a mapping, and refines and minimizes to the same
    result."""
    table = dict(c.gamma)
    as_function = Coalgebra(c.container, table.__getitem__, state_enumeration=c.state_enumeration)
    columns = (as_function._kids, as_function._koff, as_function._class)
    assert columns == (c._kids, c._koff, c._class)
    assert partition_refine(as_function).blocks == partition_refine(c).blocks
    m, mf = minimize(c), minimize(as_function)
    assert mf.state_enumeration == m.state_enumeration
    assert [mf.transition(s) for s in mf.state_enumeration] == [
        m.transition(s) for s in m.state_enumeration
    ]


def test_cli_bisim_across_sorts_output(tmp_path):
    """bisim across sorts is a validation error under either algorithm:
    exit 2, nothing on stdout, and one line on stderr naming both states
    and both sorts.  Within a sort the bounded oracle answers."""
    path = tmp_path / "two.json"
    path.write_text(specdoc.dump_document(two_sorts_sharing_a_label()))
    assert run_bisim(str(path), "p", "q") == (
        2,
        "",
        "sort mismatch: states 'p' and 'q' have sorts 'x' and 'y'\n",
    )
    bounded = ("--algorithm", "bounded", "--depth", "3")
    assert run_bisim(str(path), "p", "q", *bounded) == run_bisim(str(path), "p", "q")
    assert run_bisim(str(path), "p", "r", *bounded) == (0, "bisimilar\n", "")


def test_bisim_violations_messages():
    """A label clash names both transition labels; a pair across sorts
    names both sorts, and ``coinduction_transfer`` refuses the witness with
    that message."""
    c = Coalgebra(
        Container(arity={"a": 0, "b": 0}, labels=("a", "b")),
        {"s": ("a", ()), "t": ("b", ())},
        state_enumeration=("s", "t"),
    )
    w = BisimWitness(frozenset({("s", "t")}))
    assert list(bisim_violations(c, w)) == ["pair ('s', 't'): labels 'a' and 'b'"]
    two = two_sorts_sharing_a_label()
    w = BisimWitness(frozenset({("p", "q")}))
    assert list(bisim_violations(two, w)) == ["pair ('p', 'q'): states of sorts 'x' and 'y'"]
    with pytest.raises(InvalidWitness, match=r"states of sorts 'x' and 'y'"):
        coinduction_transfer(two, w, "p", "q", 3)


def test_bisim_violations_up_to_equivalence():
    """Successors are checked up to the equivalence the relation generates.
    On the cycle s0 -> s1 -> s2 -> s0, {(s0, s1), (s1, s2)} verifies
    although it holds no successor pair of (s1, s2), and every pair of its
    equivalence is accepted, as is (s, s) under the empty relation.  When
    s2 carries another label, the successor pair of (s0, s1) lies outside
    the equivalence of {(s0, s1)}, and the message names its position."""
    cycle = constant_cycle()
    w = BisimWitness(frozenset({("s0", "s1"), ("s1", "s2")}))
    assert list(bisim_violations(cycle, w)) == []
    for s in cycle.state_enumeration:
        for t in cycle.state_enumeration:
            assert coinduction_transfer(cycle, w, s, t, 10)
    marked = constant_cycle("y")
    assert coinduction_transfer(marked, BisimWitness(frozenset()), "s2", "s2", 3)
    w = BisimWitness(frozenset({("s0", "s1")}))
    assert list(bisim_violations(marked, w)) == [
        "pair ('s0', 's1'): successor pair ('s1', 's2') at position 0 not related up to equivalence"
    ]
    with pytest.raises(InvalidWitness, match=r"not related up to equivalence"):
        coinduction_transfer(marked, w, "s0", "s1", 3)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_coalgebras(), small_indexed_coalgebras()), st.data())
def test_verified_relations_lie_within_blocks_property(c, data):
    """Checking up to equivalence is sound: a drawn relation that verifies
    relates only states of one ``partition_refine`` block.  The partition's
    witness verifies with one pair per state, and ``coinduction_transfer``
    accepts exactly the pairs that share a block."""
    states = c.state_enumeration
    n = len(states)
    pairs = [(s, t) for s in states for t in states]
    relation = frozenset(data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    p = partition_refine(c)
    if verify_bisim(c, BisimWitness(relation)):
        assert all(p.block_of(s) is p.block_of(t) for s, t in relation)
    w = witness_from_partition(c, p)
    assert verify_bisim(c, w) and len(w.relation) == n
    for s, t in pairs:
        if p.block_of(s) is p.block_of(t):
            assert coinduction_transfer(c, w, s, t, n)
        else:
            with pytest.raises(PairNotRelated):
                coinduction_transfer(c, w, s, t, n)


def run_bisim(path, s, t, *options):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["bisim", "--spec", path, "--left", s, "--right", t, *options])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(small_indexed_coalgebras())
def test_indexed_cli_bisim_matches_oracle_property(c):
    n = len(c.state_enumeration)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            fh.write(specdoc.dump_document(c))
        for s in c.state_enumeration:
            for t in c.state_enumeration:
                code, out, err = run_bisim(path, s, t)
                if c.sort_of[s] != c.sort_of[t]:
                    sorts = f"sorts {c.sort_of[s]!r} and {c.sort_of[t]!r}"
                    assert (code, out) == (2, "")
                    assert err == f"sort mismatch: states {s!r} and {t!r} have {sorts}\n"
                    continue
                k = first_divergence_depth(c, s, t, n)
                if k is None:
                    assert (code, out) == (0, "bisimilar\n")
                else:
                    assert (code, out) == (1, f"distinguishable at depth {k}\n")


def marker_cycle(n, marker="m"):
    """c0 -> c1 -> ... -> c(n-1) -> c0, all labelled a except the marker c0
    (a one-label cycle, and one block, with ``marker="a"``)."""
    states = tuple(f"c{i}" for i in range(n))
    gamma = {s: (marker if i == 0 else "a", (states[(i + 1) % n],)) for i, s in enumerate(states)}
    return Coalgebra(
        Container(arity={"a": 1, "m": 1}, labels=("a", "m")), gamma, state_enumeration=states
    )


def test_marker_cycle_scaling():
    # Naive rounds would take n rounds of n signatures each: minutes here.
    n = 20000
    c = marker_cycle(n)
    start = time.monotonic()
    p = partition_refine(c)
    assert time.monotonic() - start < 2
    assert p.blocks == tuple((s,) for s in c.state_enumeration)
    # ci reaches the marker after n - i steps (c0 after 0), and two states
    # differ first at the depth where the nearer one sees it.
    i, j = 3, n // 2 + 7
    start = time.monotonic()
    k = divergence_depth(c, f"c{i}", f"c{j}")
    assert time.monotonic() - start < 2
    assert k == min(n - i, n - j) + 1


def test_partition_witness_scaling():
    """A partition is witnessed by one pair per state, not by every pair of
    each block: a one-label cycle is one block, and its witness stays
    linear in the states, as does its verification."""
    small = marker_cycle(300, marker="a")
    assert len(witness_from_partition(small, partition_refine(small)).relation) == 300
    n = 20000
    c = marker_cycle(n, marker="a")
    p = partition_refine(c)
    assert len(p.blocks) == 1
    w = witness_from_partition(c, p)
    assert len(w.relation) == n
    start = time.monotonic()
    assert verify_bisim(c, w)
    assert time.monotonic() - start < 2
