"""The spec loader and writer against the library and the stdlib: a
document written by ``dump_document`` loads back to the same tables and
transitions, and its bytes are those of ``json.dumps``."""

import json

from hypothesis import given, settings, strategies as st

from omegacoalg import Coalgebra, Container, specdoc
from omegacoalg.indexed import IndexedCoalgebra, embed_plain

from conftest import small_coalgebras, small_indexed_coalgebras


def document(c) -> dict:
    if isinstance(c, IndexedCoalgebra):
        return specdoc.indexed_document(c)
    return specdoc.plain_document(c)


def stdlib_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_coalgebras(), small_indexed_coalgebras()))
def test_written_spec_loads_to_the_same_tables_property(c):
    """A coalgebra built through the validating constructor, written and
    loaded again, has the same enumeration, child table, class column and
    transitions; the text is the stdlib's, byte for byte."""
    doc = document(c)
    text = specdoc.dump_document(doc)
    assert text == stdlib_text(doc)
    loaded = specdoc.parse_spec(json.loads(text)).coalgebra
    assert type(loaded) is type(c)
    assert loaded.state_enumeration == c.state_enumeration
    assert (loaded._kids, loaded._koff, loaded._class) == (c._kids, c._koff, c._class)
    assert loaded._tags == c._tags
    for s in c.state_enumeration:
        assert loaded.transition(s) == c.transition(s)


# Names with what the writer must escape: quotes, backslashes, control
# characters, non-ASCII and astral characters, lone surrogates.
AWKWARD = st.text(
    st.sampled_from('a"\\\n\t\x00\x1f\x7fé \ud800\U0001f600') | st.characters(), max_size=4
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
    doc = document(c)
    text = specdoc.dump_document(doc)
    assert text == stdlib_text(doc)
    loaded = specdoc.parse_spec(json.loads(text)).coalgebra
    states = c.state_enumeration
    assert sorted(loaded.state_enumeration) == sorted(states)
    assert {s: loaded.transition(s) for s in states} == {s: c.transition(s) for s in states}


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | AWKWARD,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(AWKWARD, inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(JSON)
def test_writer_matches_the_stdlib_on_any_document_property(value):
    """A document of any other shape, as the ``coalgebra`` fragment or the
    whole, is written as the stdlib writes it."""
    for doc in ({"coalgebra": value, "schema_version": "1"}, {"coalgebra": {"gamma": value, "states": value}}):
        assert specdoc.dump_document(doc) == stdlib_text(doc)
