"""The spec loader and writer against the library and the stdlib: the text
``dump_document`` writes is byte for byte ``json.dumps`` of the document
built from the coalgebra's transitions, it loads back to the same tables
and transitions, and a loaded coalgebra reads its tables, not the
document."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from omegacoalg import Coalgebra, Container, minimize, specdoc
from omegacoalg.catalog import conat_coalgebra
from omegacoalg.errors import SpecValidationError
from omegacoalg.indexed import IndexedCoalgebra, IndexedContainer, embed_plain

from conftest import small_coalgebras, small_indexed_coalgebras


def expected_document(c) -> dict:
    """The spec document of ``c``, built from its container, enumeration,
    sorts and transitions, not from the tables that the writer reads."""
    states = c.state_enumeration
    gamma = {}
    for s in states:
        label, children = c.transition(s)
        gamma[s] = {"label": label, "children": list(children)}
    if isinstance(c, IndexedCoalgebra):
        ic = c.container
        labels = {
            i: {a: {"arity": ic.arity[(i, a)], "child_sorts": list(ic.child_sort[(i, a)])} for a in ic.labels(i)}
            for i in ic.sorts
        }
        return {
            "schema_version": "1",
            "indexed": {"sorts": list(ic.sorts), "labels": labels},
            "coalgebra": {"states": {s: c.sort_of[s] for s in states}, "gamma": gamma},
        }
    container = c.container
    return {
        "schema_version": "1",
        "signature": {
            "labels": list(container.labels),
            "arity": {a: container.arity_of(a) for a in container.labels},
        },
        "coalgebra": {"states": list(states), "gamma": gamma},
    }


def stdlib_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_coalgebras(), small_indexed_coalgebras()))
def test_written_spec_loads_to_the_same_tables_property(c):
    """A coalgebra built through the validating constructor, written and
    loaded again, has the same enumeration, child table, class column and
    transitions; the text is the stdlib's, byte for byte, and the loaded
    coalgebra writes it again."""
    text = specdoc.dump_document(c)
    assert text == stdlib_text(expected_document(c))
    loaded = specdoc.parse_spec(json.loads(text)).coalgebra
    assert type(loaded) is type(c)
    assert loaded.state_enumeration == c.state_enumeration
    assert (loaded._kids, loaded._koff, loaded._class) == (c._kids, c._koff, c._class)
    assert loaded._tags == c._tags
    for s in c.state_enumeration:
        assert loaded.transition(s) == c.transition(s)
    assert specdoc.dump_document(loaded) == text


# Names with what the writer must escape: quotes, backslashes, control
# characters, non-ASCII and astral characters, lone surrogates.
AWKWARD = st.text(
    st.sampled_from('a"\\\n\t\x00\x1f\x7fé \ud800\U0001f600') | st.characters(), max_size=4
)


@st.composite
def awkward_coalgebras(draw):
    """Plain or indexed coalgebras of up to 4 states whose state names,
    labels and sorts are awkward strings, with leaves (empty children) and
    the empty state list."""
    names = draw(st.lists(AWKWARD, unique=True, max_size=4))
    labels = draw(st.lists(AWKWARD, unique=True, min_size=1, max_size=3))
    arity = {a: draw(st.integers(0, 2)) if names else 0 for a in labels}
    gamma = {}
    for s in names:
        a = draw(st.sampled_from(labels))
        gamma[s] = (a, tuple(draw(st.sampled_from(names)) for _ in range(arity[a])))
    container = Container(arity=arity, labels=tuple(labels))
    plain = Coalgebra(container, gamma, state_enumeration=tuple(names))
    return embed_plain(container, plain) if draw(st.booleans()) else plain


@settings(max_examples=300, deadline=None)
@given(awkward_coalgebras())
def test_writer_matches_the_stdlib_on_awkward_names_property(c):
    """The text is the stdlib's, and it loads back to the same transition
    at every state.  (An indexed document maps states to sorts, and that
    map is written with sorted keys, so its states load in sorted order.)"""
    text = specdoc.dump_document(c)
    assert text == stdlib_text(expected_document(c))
    loaded = specdoc.parse_spec(json.loads(text)).coalgebra
    states = c.state_enumeration
    assert sorted(loaded.state_enumeration) == sorted(states)
    assert {s: loaded.transition(s) for s in states} == {s: c.transition(s) for s in states}


def _leaf_sorts(sort, label):
    """One state ``s`` of sort ``sort`` stepping to the leaf ``label``."""
    ic = IndexedContainer((sort,), {sort: (label,)}, {(sort, label): 0}, {})
    return IndexedCoalgebra(ic, ("s",), {"s": sort}, {"s": (label, ())})


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: Coalgebra(Container({"a": 1}, ("a",)), {0: ("a", (1,)), 1: ("a", (0,))}, state_enumeration=(0, 1)),
            "coalgebra.states: expected a string, got 0",
        ),
        (lambda: conat_coalgebra(2), "coalgebra.states: expected a string, got 0"),
        (
            lambda: Coalgebra(Container({"a": 0, 1: 0}, ("a", 1)), {"s": ("a", ())}, state_enumeration=("s",)),
            "signature.labels: expected a string, got 1",
        ),
        (
            lambda: Coalgebra(Container({"a": 0, 5: 0}, ("a",)), {"s": ("a", ()), "t": (5, ())}, state_enumeration=("s", "t")),
            "coalgebra.gamma.t.label: expected a string, got 5",
        ),
        (
            lambda: Coalgebra(Container({"a": 0}, ("a",)), {frozenset(): ("a", ())}, state_enumeration=(frozenset(),)),
            'coalgebra.states: expected a string, got "frozenset()"',
        ),
        (lambda: _leaf_sorts(0, "a"), "indexed.sorts: expected a string, got 0"),
        (lambda: _leaf_sorts("e", (1, 2)), "indexed.labels.e: expected a string, got [1, 2]"),
        (
            lambda: Coalgebra(Container({"a": 0}), {"s": ("a", ())}, state_enumeration=("s",)),
            "signature.labels: the container enumerates no labels",
        ),
        (
            lambda: Coalgebra(Container({"a": 0}, ("a",)), {"s": ("a", ())}),
            "coalgebra.states: the coalgebra enumerates no states",
        ),
    ],
    ids=[
        "int-states",
        "conat",
        "signature-label",
        "transition-label",
        "object-state",
        "sort",
        "indexed-label",
        "no-label-list",
        "no-enumeration",
    ],
)
def test_writer_refuses_names_the_loader_refuses(make, message):
    """A state name, label or sort that is not a string, which no document
    can hold, is refused by the writer with the first one named, as the
    loader names it, rather than written or failed on; so is a coalgebra
    without the state or label list a document lists."""
    with pytest.raises(SpecValidationError) as raised:
        specdoc.dump_document(make())
    assert str(raised.value) == message


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(c=st.one_of(small_coalgebras(), small_indexed_coalgebras()))
def test_loaded_coalgebra_reads_its_tables_not_the_document_property(monkeypatch, c):
    """Once loaded, a coalgebra needs nothing of the parsed document:
    clearing its ``gamma`` fragment leaves every transition readable and
    unchanged.  ``minimize`` and the writer read no transition of the
    loaded coalgebra or of its quotient."""
    doc = json.loads(specdoc.dump_document(c))
    loaded = specdoc.parse_spec(doc).coalgebra
    doc["coalgebra"]["gamma"].clear()
    reads = []
    monkeypatch.setattr(Coalgebra, "_read", lambda self, s: reads.append(s))
    texts = specdoc.dump_document(minimize(loaded)), specdoc.dump_document(loaded)
    monkeypatch.undo()
    assert reads == []
    assert texts == (specdoc.dump_document(minimize(c)), specdoc.dump_document(c))
    for s in c.state_enumeration:
        assert loaded.transition(s) == c.transition(s)
