"""Shared corpus generators for the randomized property and acceptance
tests.  All generation is seeded, so every run sees the same corpus."""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import strategies as st

from omegacoalg import Coalgebra, Container, LimitElement, PValue, make_node, w_chain
from omegacoalg.container import ApproxTree, _interned
from omegacoalg.chain import poly_chain, poly_limit_from, poly_limit_to, shift_back, shift_forward
from omegacoalg.indexed import IndexedCoalgebra, IndexedContainer

LABEL_POOL = "wxyz"


def chain_out(container: Container, limit: LimitElement) -> PValue:
    """``out`` of the family ``limit`` as the paper composes it, step by
    step in chain.py: the shifted-chain view, then the inverse of the
    limit-commutation map.  The children are chain.py's own families."""
    base = w_chain(container)
    shifted = shift_forward(limit)
    as_pvalues = LimitElement(
        poly_chain(container, base),
        lambda n: PValue(shifted.at(n).label, shifted.at(n).children),
    )
    return poly_limit_from(container, base, as_pvalues)


def chain_into(container: Container, v: PValue) -> LimitElement:
    """``into`` of ``v``, whose children are families (or anything with
    ``at``), as the paper composes it in chain.py: the limit-commutation
    map, then the inverse of the shifted-chain view."""
    base = w_chain(container)
    lp = poly_limit_to(container, base, v)
    as_nodes = LimitElement(
        base,
        lambda n: make_node(container, lp.at(n).label, lp.at(n).children, depth=n + 1),
    )
    return shift_back(base, as_nodes)


def well_formed(c: Container, t: ApproxTree) -> bool:
    """Whether ``t`` keeps the depth, arity and shape discipline of an
    approximation tree over ``c``."""
    stack = [t]
    seen = set()
    while stack:
        cur = stack.pop()
        # Interned trees may be DAG-shared; dedup keeps the walk linear.
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        if cur.is_trunc:
            if cur.depth != 0:
                return False
            continue
        if cur.depth < 1:
            return False
        if len(cur.children) != c.arity_of(cur.label):
            return False
        for ch in cur.children:
            if ch.depth != cur.depth - 1:
                return False
            stack.append(ch)
    return True


def interned_trees() -> list:
    """Every tree in the intern table, one dict per label."""
    return [t for table in _interned.values() for t in table.values()]


def random_container(rng: random.Random, max_labels=4, max_arity=3) -> Container:
    k = rng.randint(1, max_labels)
    labels = tuple(LABEL_POOL[:k])
    arity = {a: rng.randint(0, max_arity) for a in labels}
    return Container(arity=arity, labels=labels)


def random_coalgebra(rng: random.Random, max_states=6, max_labels=4, max_arity=3) -> Coalgebra:
    container = random_container(rng, max_labels, max_arity)
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    gamma = {}
    for s in states:
        a = rng.choice(container.labels)
        gamma[s] = (a, tuple(rng.choice(states) for _ in range(container.arity_of(a))))
    return Coalgebra(container, gamma, state_enumeration=states, name="corpus")


@lru_cache(maxsize=None)
def corpus(count=200, seed=20260823) -> tuple:
    rng = random.Random(seed)
    return tuple(random_coalgebra(rng) for _ in range(count))


def random_indexed_coalgebra(rng: random.Random) -> IndexedCoalgebra:
    n_sorts = rng.randint(1, 3)
    sorts = tuple(f"i{j}" for j in range(n_sorts))
    labels_at = {}
    arity = {}
    child_sort = {}
    for i in sorts:
        k = rng.randint(1, 3)
        labels_at[i] = tuple(f"{i}_{LABEL_POOL[j]}" for j in range(k))
        for a in labels_at[i]:
            arity[(i, a)] = rng.randint(0, 2)
            child_sort[(i, a)] = tuple(
                rng.choice(sorts) for _ in range(arity[(i, a)])
            )
    base = IndexedContainer(sorts, labels_at, arity, child_sort)
    n = rng.randint(n_sorts, 6)
    states = tuple(f"q{j}" for j in range(n))
    # cover every sort so transitions always find a correctly sorted child
    sort_of = {s: sorts[j % n_sorts] for j, s in enumerate(states)}
    by_sort = {i: [s for s in states if sort_of[s] == i] for i in sorts}
    gamma = {}
    for s in states:
        a = rng.choice(labels_at[sort_of[s]])
        gamma[s] = (
            a,
            tuple(rng.choice(by_sort[j]) for j in child_sort[(sort_of[s], a)]),
        )
    return IndexedCoalgebra(base, states, sort_of, gamma, name="icorpus")


@lru_cache(maxsize=None)
def indexed_corpus(count=50, seed=4711) -> tuple:
    rng = random.Random(seed)
    return tuple(random_indexed_coalgebra(rng) for _ in range(count))


def tagged_plain(c: IndexedCoalgebra) -> Coalgebra:
    """The reference reduction of an indexed coalgebra to a plain one: every
    label is tagged with its state's sort, so that plain bisimilarity keeps
    states of different sorts apart.  The library compares sorts itself;
    its answers on ``c`` are checked against the plain ones on this copy."""
    ic = c.container
    labels = tuple((i, a) for i in ic.sorts for a in ic.labels(i))
    container = Container(arity={key: ic.arity[key] for key in labels}, labels=labels)
    gamma = {}
    for s in c.state_enumeration:
        label, children = c.transition(s)
        gamma[s] = PValue((c.sort_of[s], label), children)
    return Coalgebra(container, gamma, state_enumeration=c.state_enumeration, name="tagged")


def two_sorts_sharing_a_label() -> IndexedCoalgebra:
    """Sorts x and y each offer a leaf label named a; p and r are of sort x,
    q of sort y.  p and r are bisimilar, q is bisimilar to neither."""
    base = IndexedContainer(
        sorts=("x", "y"),
        labels_at={"x": ("a",), "y": ("a",)},
        arity={("x", "a"): 0, ("y", "a"): 0},
        child_sort={("x", "a"): (), ("y", "a"): ()},
    )
    return IndexedCoalgebra(
        base, ("p", "q", "r"), {"p": "x", "q": "y", "r": "x"}, {s: ("a", ()) for s in "pqr"}
    )


@st.composite
def small_coalgebras(draw):
    """Up to 6 states over up to 3 labels of arity 0-2; children are drawn
    from all states, so self-loops occur."""
    labels = tuple("xyz"[: draw(st.integers(1, 3))])
    arity = {a: draw(st.integers(0, 2)) for a in labels}
    states = tuple(f"s{i}" for i in range(draw(st.integers(1, 6))))
    gamma = {}
    for s in states:
        a = draw(st.sampled_from(labels))
        gamma[s] = (a, tuple(draw(st.sampled_from(states)) for _ in range(arity[a])))
    return Coalgebra(Container(arity=arity, labels=labels), gamma, state_enumeration=states)


@st.composite
def small_indexed_coalgebras(draw):
    """Up to 3 sorts sharing the label names x and y, so that equal raw
    labels occur at different sorts; every sort has a state."""
    sorts = tuple(f"i{j}" for j in range(draw(st.integers(1, 3))))
    labels_at = {i: ("x", "y")[: draw(st.integers(1, 2))] for i in sorts}
    arity, child_sort = {}, {}
    for i in sorts:
        for a in labels_at[i]:
            arity[(i, a)] = draw(st.integers(0, 2))
            child_sort[(i, a)] = tuple(draw(st.sampled_from(sorts)) for _ in range(arity[(i, a)]))
    base = IndexedContainer(sorts, labels_at, arity, child_sort)
    states = tuple(f"q{j}" for j in range(draw(st.integers(len(sorts), 6))))
    sort_of = {s: sorts[j % len(sorts)] for j, s in enumerate(states)}
    gamma = {}
    for s in states:
        a = draw(st.sampled_from(labels_at[sort_of[s]]))
        kids = (
            draw(st.sampled_from([q for q in states if sort_of[q] == j]))
            for j in child_sort[(sort_of[s], a)]
        )
        gamma[s] = (a, tuple(kids))
    return IndexedCoalgebra(base, states, sort_of, gamma)
