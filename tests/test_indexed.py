import random

import pytest
from hypothesis import given, settings, strategies as st

from omegacoalg import Coalgebra, Container, PValue, approximate, into, out, tree_equal, truncate, unfold
from omegacoalg.container import TRUNC, _tree
from omegacoalg.bisim import (
    BisimWitness,
    bounded_bisim,
    diagonal_bisim,
    divergence_depth,
    first_divergence_depth,
    minimize,
    partition_refine,
    verify_bisim,
    witness_from_partition,
)
from omegacoalg.indexed import (
    IndexedCoalgebra,
    IndexedContainer,
    SortedApproxTree,
    embed_plain,
    iapproximate,
    well_sorted,
    well_sorted_all,
)
from omegacoalg.catalog import parity_coalgebra, parity_container
from omegacoalg.mtype import MElement, MorphismCandidate, uniqueness_probe, verify_morphism
from omegacoalg.errors import ArityMismatch, InvalidCoalgebra, NotAMorphism, SortMismatch, UnknownLabel

from conftest import (
    chain_into,
    chain_out,
    indexed_corpus,
    random_coalgebra,
    small_indexed_coalgebras,
    tagged_plain,
    two_sorts_sharing_a_label,
)


PARITY = parity_container()


def test_well_sorted_alternation():
    c = parity_coalgebra()
    t = iapproximate(c, "p", 2)
    assert t.tree.label == "E"
    assert well_sorted(PARITY, t)


def test_well_sorted_rejects_wrong_child_sort():
    c = parity_coalgebra()
    inner = iapproximate(c, "p", 1).tree  # E(Trunc)
    from omegacoalg.container import _tree

    bad = SortedApproxTree("e", _tree(2, "E", (inner,)))  # E(E(Trunc)) at sort e
    assert not well_sorted(PARITY, bad)


def test_well_sorted_all_one_walk_over_a_family():
    c = parity_coalgebra()
    good = [iapproximate(c, s, n) for s in c.state_enumeration for n in range(8)]
    inner = iapproximate(c, "p", 1).tree
    bad = SortedApproxTree("e", _tree(2, "E", (inner,)))  # E(E(Trunc)) at sort e
    assert well_sorted_all(PARITY, good)
    assert well_sorted_all(PARITY, [])
    # The bad tree shares its subtree E(Trunc) at sort e with the good ones;
    # it fails at its root, whether checked before or after them.
    assert not well_sorted_all(PARITY, good + [bad])
    assert not well_sorted_all(PARITY, [bad] + good)
    assert not well_sorted_all(PARITY, [SortedApproxTree("o", good[3].tree)] + good)


def test_well_sorted_all_reads_sort_tree_pairs():
    """A sorted tree unpacks as ``(sort, tree)``, and the family check reads
    plain pairs, as ``check`` gives them, as it reads sorted trees."""
    c = parity_coalgebra()
    good = [iapproximate(c, s, n) for s in c.state_enumeration for n in range(8)]
    pairs = [(c._sort(s), c._levels[n][s]) for s in c.state_enumeration for n in range(8)]
    assert pairs == [tuple(t) for t in good]
    sort, tree = good[3]
    assert (sort, tree) == (good[3].sort, good[3].tree)
    assert well_sorted_all(PARITY, pairs)
    assert not well_sorted_all(PARITY, pairs + [("o", good[3].tree)])


@settings(max_examples=150, deadline=None)
@given(small_indexed_coalgebras(), st.data())
def test_well_sorted_all_matches_per_tree_property(c, data):
    """Trees re-rooted at drawn sorts, often the wrong ones: the family
    check agrees with checking each tree on its own."""
    trees = [
        SortedApproxTree(data.draw(st.sampled_from(c.container.sorts)), iapproximate(c, s, n).tree)
        for s in c.state_enumeration
        for n in range(5)
    ]
    assert well_sorted_all(c.container, trees) == all(well_sorted(c.container, t) for t in trees)


def test_well_sorted_trunc():
    assert well_sorted(PARITY, SortedApproxTree("e", TRUNC))
    assert well_sorted(PARITY, SortedApproxTree("o", TRUNC))


def test_iapproximate_parity():
    c = parity_coalgebra()
    assert iapproximate(c, "p", 0).tree is TRUNC
    assert iapproximate(c, "p", 0).sort == "e"
    t = iapproximate(c, "p", 2)
    assert t.tree.label == "E"
    assert t.tree.children[0].label == "O"
    for n in range(21):
        assert well_sorted(PARITY, iapproximate(c, "p", n))


def test_iunfold_compatibility():
    c = parity_coalgebra()
    m = unfold(c, "p")
    t3 = m.at(3)
    assert [t3.label, t3.children[0].label, t3.children[0].children[0].label] == [
        "E",
        "O",
        "E",
    ]
    for n in range(30):
        assert tree_equal(truncate(None, m.at(n + 1)), m.at(n))


def test_i_out_parity():
    """The plain ``unfold`` gives the element its state's sort, so the
    plain ``out`` of it is E over one child of sort o."""
    c = parity_coalgebra()
    m = unfold(c, "p")
    label, children = out(m)
    assert label == "E"
    assert [ch.sort for ch in children] == ["o"]
    q = unfold(c, "q")
    for n in range(6):
        assert tree_equal(children[0].at(n), q.at(n))


def test_i_into_round_trips():
    c = parity_coalgebra()
    m = unfold(c, "p")
    label, children = out(m)
    back = into(PARITY, PValue(label, children), "e")
    for n in range(10):
        assert tree_equal(back.at(n), m.at(n))
    label2, children2 = out(back)
    assert label2 == label
    for n in range(10):
        assert tree_equal(children2[0].at(n), children[0].at(n))


def test_i_into_sort_mismatch():
    c = parity_coalgebra()
    wrong = unfold(c, "p")  # sort e, but E expects an o child
    with pytest.raises(SortMismatch):
        into(PARITY, PValue("E", (wrong,)), "e")


def test_into_over_an_indexed_container_checks_sort_and_arity():
    """``into`` over an indexed container assembles at the sort it is
    given.  No sort, a sort without the label and a wrongly sorted child
    raise :class:`SortMismatch`, a wrong number of children
    :class:`ArityMismatch`: library errors, not an ``AttributeError``."""
    c = parity_coalgebra()
    p, q = unfold(c, "p"), unfold(c, "q")
    assert into(PARITY, out(p), "e").sort == "e"
    for sort in (None, "o"):
        with pytest.raises(SortMismatch):
            into(PARITY, PValue("E", (q,)), sort)
    with pytest.raises(SortMismatch):
        into(PARITY, PValue("E", (p,)), "e")
    for kids in ((), (q, q)):
        with pytest.raises(ArityMismatch):
            into(PARITY, PValue("E", kids), "e")


def test_a_state_without_sort_is_an_invalid_coalgebra():
    """Reading the sort of a state outside ``sort_of`` raises
    :class:`InvalidCoalgebra` with the message validation uses, wherever
    the sort is read: ``unfold``, ``iapproximate`` and the pair search."""
    c = parity_coalgebra()
    calls = (
        lambda: unfold(c, "ghost"),
        lambda: iapproximate(c, "ghost", 2),
        lambda: divergence_depth(c, "ghost", "p"),
        lambda: first_divergence_depth(c, "p", "ghost", 3),
    )
    for call in calls:
        with pytest.raises(InvalidCoalgebra, match=r"^state 'ghost' has no sort$"):
            call()


def test_ibounded_bisim():
    """The plain oracle on an indexed coalgebra: states of different sorts
    differ at depth 1."""
    c = parity_coalgebra()
    assert bounded_bisim(c, "p", "p", 10)
    assert not bounded_bisim(c, "p", "q", 1)
    assert first_divergence_depth(c, "p", "q", 1) == divergence_depth(c, "p", "q") == 1


def test_ibounded_bisim_same_alternation():
    from omegacoalg.indexed import IndexedCoalgebra

    c = IndexedCoalgebra(
        PARITY,
        states=("p", "p2", "q"),
        sort_of={"p": "e", "p2": "e", "q": "o"},
        gamma={"p": ("E", ("q",)), "p2": ("E", ("q",)), "q": ("O", ("p",))},
    )
    assert bounded_bisim(c, "p", "p2", 20)


def test_indexed_operations_check_sorts_first():
    """The indexed operations are the plain ones behind a sort check: a map
    that sends a state to an element of another sort fails the morphism
    law even where every stage agrees, states of different sorts differ at
    depth 1 even where their labels agree, and a family whose root label
    is not at its sort has no ``out``."""
    from omegacoalg.indexed import IndexedCoalgebra, IndexedContainer

    two = IndexedContainer(
        sorts=("e", "o"),
        labels_at={"e": ("X", "Y"), "o": ("X",)},
        arity={("e", "X"): 0, ("e", "Y"): 0, ("o", "X"): 0},
        child_sort={("e", "X"): (), ("e", "Y"): (), ("o", "X"): ()},
    )
    gamma = {"p": ("X", ()), "q": ("X", ()), "r": ("Y", ())}
    c = IndexedCoalgebra(two, ("p", "q", "r"), {"p": "e", "q": "o", "r": "e"}, gamma)
    swapped = lambda s: unfold(c, {"p": "q", "q": "p"}[s])
    assert all(swapped(s).at(n) is unfold(c, s).at(n) for s in "pq" for n in range(5))
    assert not verify_morphism(MorphismCandidate(c, swapped), 5, states=["p", "q"])
    assert not verify_morphism(MorphismCandidate(c, swapped), 5, states=iter(["p"]))
    # Sorts kept, stages wrong, from an iterator of states.
    stale = MorphismCandidate(c, lambda s: unfold(c, "r"))
    assert not verify_morphism(stale, 5, states=iter(["p"]))
    with pytest.raises(NotAMorphism):
        uniqueness_probe(c, MorphismCandidate(c, swapped), 5, states=["p", "q"])
    assert first_divergence_depth(c, "p", "q", 5) == divergence_depth(c, "p", "q") == 1
    assert bounded_bisim(c, "p", "q", 0) and not bounded_bisim(c, "p", "q", 1)
    assert first_divergence_depth(c, "p", "p", 5) is None
    with pytest.raises(SortMismatch):
        out(MElement(PARITY, unfold(parity_coalgebra(), "p").limit, sort="o"))


def test_indexed_corpus_well_sorted_everywhere():
    for c in indexed_corpus(20):
        for s in c.state_enumeration:
            for n in range(11):
                assert well_sorted(c.container, iapproximate(c, s, n))
            m = unfold(c, s)
            back = into(c.container, out(m), m.sort)
            for n in range(11):
                assert tree_equal(back.at(n), m.at(n))


def test_indexed_finality_probes_on_corpus():
    for c in indexed_corpus(20):
        mc = MorphismCandidate(c, lambda s, c=c: unfold(c, s))
        assert verify_morphism(mc, 30)
        assert uniqueness_probe(c, mc, 30)


def test_indexed_container_refuses_a_label_without_arity():
    with pytest.raises(UnknownLabel, match="no arity for label 'E' at sort 'e'"):
        IndexedContainer(sorts=("e",), labels_at={"e": ("E",)}, arity={}, child_sort={})


def test_singleton_index_embedding_agrees_with_plain():
    rng = random.Random(44)
    for _ in range(10):
        plain = random_coalgebra(rng)
        ic = embed_plain(plain.container, plain)
        for s in plain.state_enumeration:
            for n in range(31):
                assert tree_equal(
                    iapproximate(ic, s, n).tree, approximate(plain, s, n)
                )
            m_plain = unfold(plain, s)
            m_idx = unfold(ic, s)
            for n in range(31):
                assert tree_equal(m_idx.at(n), m_plain.at(n))
    unlisted = Coalgebra(Container(arity=lambda a: 0), {"s": ("a", ())}, state_enumeration=("s",))
    with pytest.raises(UnknownLabel, match="embedding needs an enumerated label domain"):
        embed_plain(unlisted.container, unlisted)


def _at_sort(ic, sort):
    """The plain container of the labels at ``sort``: the signature under
    which chain.py reads a sorted element's families."""
    return Container(arity={a: ic.arity[(sort, a)] for a in ic.labels(sort)})


@settings(max_examples=200, deadline=None)
@given(small_indexed_coalgebras(), st.integers(0, 8))
def test_pointed_i_out_i_into_match_chain_reference_property(c, depth):
    """The plain ``out``/``into`` on unfolded sorted elements give the same
    child sorts and the same stages, as the same objects, as the chain.py
    ``out``/``into`` composition applied to the elements' ``limit`` views;
    ``out`` and ``into`` of elements built by hand from those views agree
    too.  The plain ``out`` of an unfolded, assembled or hand-built sorted
    element gives its children the sorts of ``child_sort``; the plain
    ``unfold`` gives the state's sort, and ``into`` assembles at it."""
    ic = c.container

    def plain_out(m):
        v = out(m)
        assert tuple(ch.sort for ch in v.children) == ic.child_sort[(m.sort, v.label)]
        return v

    for s in c.state_enumeration:
        m = unfold(c, s)
        assert m.sort == c.sort_of[s]
        label, children = plain_out(m)
        ref = out(MElement(_at_sort(ic, m.sort), m.limit))
        lit = chain_out(_at_sort(ic, m.sort), m.limit)
        hand_label, hand_children = plain_out(MElement(ic, m.limit, sort=m.sort))
        assert label == ref.label == lit.label == hand_label == c.transition(s).label
        kids = c.transition(s).children
        for ch, ref_ch, lit_ch, hand_ch, t in zip(
            children, ref.children, lit.children, hand_children, kids
        ):
            for n in range(depth + 1):
                got = ch.at(n)
                assert got is ref_ch.at(n) is lit_ch.at(n) is hand_ch.at(n)
                assert got is iapproximate(c, t, n).tree
        back = into(ic, PValue(label, children), m.sort)
        by_hand = tuple(MElement(_at_sort(ic, ch.sort), ch.limit) for ch in children)
        ref_back = into(_at_sort(ic, m.sort), PValue(label, by_hand))
        views = tuple(ch.limit for ch in children)
        lit_back = chain_into(_at_sort(ic, m.sort), PValue(label, views))
        hand_back = into(ic, PValue(hand_label, hand_children), m.sort)
        assert tuple(out(back)) == (label, children)
        plain_out(back)
        plain_out(hand_back)
        assert back.sort == hand_back.sort == m.sort
        for n in range(depth + 1):
            assert back.at(n) is ref_back.at(n) is lit_back.at(n) is hand_back.at(n) is m.at(n)


@settings(max_examples=300, deadline=None)
@given(small_indexed_coalgebras())
def test_bisimilarity_matches_tagged_reference_property(c):
    """Partition refinement, the pair search, minimization and witness
    verification on an indexed coalgebra answer as the plain ones do on its
    sort-tagged copy, with the tags stripped from the quotient's labels."""
    ref = tagged_plain(c)
    p, p_ref = partition_refine(c), partition_refine(ref)
    assert p.blocks == p_ref.blocks
    for s in c.state_enumeration:
        for t in c.state_enumeration:
            assert divergence_depth(c, s, t) == divergence_depth(ref, s, t)
    q, q_ref = minimize(c), minimize(ref)
    assert isinstance(q, IndexedCoalgebra)
    assert q.state_enumeration == q_ref.state_enumeration
    for s in q.state_enumeration:
        assert q.sort_of[s] == c.sort_of[s]
        (_, label), children = q_ref.transition(s)
        assert q.transition(s) == PValue(label, children)
    assert verify_bisim(c, witness_from_partition(c, p))
    assert verify_bisim(ref, witness_from_partition(ref, p_ref))


def test_two_sorts_sharing_a_label_name_stay_apart():
    """States of different sorts are never bisimilar, even with equal
    label names: they start in different blocks, differ at depth 1, are
    kept apart by minimize, and a witness relating them fails."""
    c = two_sorts_sharing_a_label()
    assert partition_refine(c).blocks == (("p", "r"), ("q",))
    assert divergence_depth(c, "p", "q") == 1
    assert divergence_depth(c, "p", "r") is None
    q = minimize(c)
    assert isinstance(q, IndexedCoalgebra)
    assert q.state_enumeration == ("p", "q")
    assert q.sort_of == {"p": "x", "q": "y"}
    assert q.transition("q") == PValue("a", ())
    across = BisimWitness(frozenset({("p", "q")}))
    assert not verify_bisim(c, across)
    within = BisimWitness(frozenset({("p", "r")}))
    assert verify_bisim(c, within)


def test_depth_oracle_tells_sorts_apart():
    """The depth oracle compares the roots' sorts with their labels: p and
    q carry the same leaf label at different sorts, so they differ at
    depth 1, as in the pair search."""
    c = two_sorts_sharing_a_label()
    assert first_divergence_depth(c, "p", "q", 5) == 1 == divergence_depth(c, "p", "q")
    assert not bounded_bisim(c, "p", "q", 5)
    assert first_divergence_depth(c, "p", "q", 0) is None
    assert first_divergence_depth(c, "p", "r", 5) is None


@settings(max_examples=300, deadline=None)
@given(small_indexed_coalgebras())
def test_depth_oracle_matches_pair_search_property(c):
    n = len(c.state_enumeration)
    for s in c.state_enumeration:
        for t in c.state_enumeration:
            assert first_divergence_depth(c, s, t, n) == divergence_depth(c, s, t)


def test_state_without_a_sort_is_invalid():
    with pytest.raises(InvalidCoalgebra, match="state 'p' has no sort"):
        IndexedCoalgebra(PARITY, ("p",), {}, {"p": ("E", ("p",))})


def test_verify_bisim_on_parity():
    c = parity_coalgebra()
    assert verify_bisim(c, diagonal_bisim(c))
    assert verify_bisim(c, witness_from_partition(c, partition_refine(c)))
    q = minimize(c)
    assert isinstance(q, IndexedCoalgebra)
    assert (q.state_enumeration, q.sort_of) == (c.state_enumeration, c.sort_of)
