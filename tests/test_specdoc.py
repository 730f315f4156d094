"""The spec loader and writer against the library and the stdlib: the text
``dump_document`` writes is byte for byte ``json.dumps`` of the document
built from the coalgebra's transitions, it loads back to the same tables
and transitions, and a loaded coalgebra reads its tables, not the
document.  The loader, which decodes ``gamma`` entries into tuples and
falls back to the stdlib's decoding where that parse fails, gives what
``parse_spec`` gives on the stdlib's decoding of the same text."""

import gc
import importlib.util
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from omegacoalg import Coalgebra, Container, PValue, cli, minimize, specdoc
from omegacoalg.catalog import conat_coalgebra
from omegacoalg.errors import SpecValidationError
from omegacoalg.indexed import IndexedCoalgebra, IndexedContainer, embed_plain

from conftest import JSON_VALUES, _names, _paths, mutated_demos, small_coalgebras, small_indexed_coalgebras


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
    assert loaded._labels == c._labels
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


def _outcome(load):
    """What a load gives: the validation error's text, or the loaded
    coalgebra's kind, enumeration, tables and numbering."""
    try:
        c = load().coalgebra
    except SpecValidationError as e:
        return str(e)
    return type(c), c.state_enumeration, c._kids, c._koff, c._class, c._labels, c._index


# The keys and constants of the document format, which are not renamed.
STRUCTURE = {
    "schema_version", "1", "signature", "indexed", "coalgebra", "labels", "arity",
    "sorts", "child_sorts", "states", "gamma", "label", "children",
}


def _renamed(value, to: dict):
    """``value`` with every string in ``to``, key or value, renamed."""
    if isinstance(value, str):
        return to.get(value, value)
    if isinstance(value, list):
        return [_renamed(v, to) for v in value]
    if isinstance(value, dict):
        return {to.get(k, k): _renamed(v, to) for k, v in value.items()}
    return value


@st.composite
def planted_entries(draw):
    """A demo spec with up to two of its names renamed ``label`` and
    ``children``, so that its arities, states or ``gamma`` may be objects
    of exactly those keys, and with up to three positions, the document
    itself among them, replaced by an object of the keys ``label`` and
    ``children``, in either order, whose values are drawn or are the value
    it replaces, and which may hold a third key, ``note``, that no entry
    reads."""
    name = draw(st.sampled_from(sorted(cli.DEMOS)))
    doc = json.loads(specdoc.dump_document(cli.DEMOS[name]()))
    names = [n for n in _names(doc) if n not in STRUCTURE]
    targets = draw(st.lists(st.sampled_from(names), unique=True, max_size=2))
    doc = _renamed(doc, dict(zip(targets, ("label", "children"))))
    named = st.sampled_from(_names(doc))
    values = JSON_VALUES | named | st.lists(named, max_size=3)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent, old = None, doc
        for k in path:
            parent, old = old, old[k]
        old = json.dumps(old)
        label = draw(values | st.just(old).map(json.loads))
        children = draw(values | st.just(old).map(json.loads))
        pair = {"children": children, "label": label} if draw(st.booleans()) else {"label": label, "children": children}
        if draw(st.booleans()):
            pair["note"] = draw(values)
        if parent is None:
            doc = pair
        else:
            parent[path[-1]] = pair
    return json.dumps(doc)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(mutated_demos().map(lambda drawn: drawn[0].decode()), planted_entries()))
def test_loader_matches_parse_of_the_stdlib_value_property(tmp_path, text):
    """The loader, which decodes ``gamma`` entries into tuples, gives what
    ``parse_spec`` gives on the stdlib's decoding of the same text: the
    same validation error, or the same enumeration, tables and numbering.
    Its ``raw`` is the stdlib's value, key order included."""
    path = tmp_path / "spec.json"
    path.write_text(text)
    got = _outcome(lambda: specdoc.load_spec(str(path)))
    assert got == _outcome(lambda: specdoc.parse_spec(json.loads(text)))
    if not isinstance(got, str):
        assert json.dumps(specdoc.load_spec(str(path)).raw) == json.dumps(json.loads(text))


NAMED = {
    "schema_version": "1",
    "signature": {"labels": ["label", "children"], "arity": {"label": 1, "children": 0}},
    "coalgebra": {
        "states": ["label", "children"],
        "gamma": {"label": {"label": "label", "children": ["children"]}, "children": {"label": "children", "children": []}},
    },
}
NAMED_INDEXED = {
    "schema_version": "1",
    "indexed": {
        "sorts": ["label", "children"],
        "labels": {
            "label": {"label": {"arity": 1, "child_sorts": ["children"]}, "children": {"arity": 0, "child_sorts": []}},
            "children": {"label": {"arity": 0, "child_sorts": []}, "children": {"arity": 1, "child_sorts": ["label"]}},
        },
    },
    "coalgebra": {
        "states": {"label": "label", "children": "children"},
        "gamma": {"label": {"label": "label", "children": ["children"]}, "children": {"label": "children", "children": ["label"]}},
    },
}


@pytest.mark.parametrize("doc", [NAMED, NAMED_INDEXED], ids=["plain", "indexed"])
@pytest.mark.parametrize("sort_keys", [False, True], ids=["label-first", "children-first"])
def test_names_of_the_entry_keys_load(tmp_path, monkeypatch, doc, sort_keys):
    """A spec whose labels and states, and for an indexed one its sorts,
    are named ``label`` and ``children`` has its arities, states, ``gamma``
    and labels at a sort shaped like entries.  None of those objects has an
    array for its ``children``, so only the ``gamma`` entries are decoded
    as tuples: it loads from the first decoding as the stdlib's value
    parses, writes back the stdlib's text and keeps ``raw`` in its key
    order."""
    text = json.dumps(doc, sort_keys=sort_keys)
    path = tmp_path / "named.json"
    path.write_text(text)
    hooks = _decodes(monkeypatch)
    loaded = specdoc.load_spec(str(path))
    assert hooks == [specdoc._decode_object]
    c = loaded.coalgebra
    assert sorted(c.state_enumeration) == ["children", "label"]
    assert c.transition("label") == PValue("label", ("children",))
    assert specdoc.dump_document(c) == stdlib_text(doc)
    assert _outcome(lambda: loaded) == _outcome(lambda: specdoc.parse_spec(json.loads(text)))
    assert json.dumps(loaded.raw) == text


def _plain_spec(label='"a"', states='["s"]', entry=None) -> str:
    """A one-state plain spec as text, with the given pieces of JSON."""
    entry = entry or '{"label": ' + label + ', "children": []}'
    return (
        '{"schema_version": "1", "signature": {"labels": ["a"], "arity": {"a": 0}}, '
        '"coalgebra": {"states": ' + states + ', "gamma": {"s": ' + entry + "}}}"
    )


ENTRY = '{"label": "a", "children": []}'
DEEP = "[" * 899 + ENTRY + "]" * 899


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"schema_version": "1", "signature": ' + ENTRY + ', "coalgebra": {"states": [], "gamma": {}}}',
            "signature.labels: expected an array",
        ),
        (_plain_spec(states='["s", ' + ENTRY + "]"), "coalgebra.states: expected a string, got " + ENTRY),
        (
            _plain_spec(states='["s", {"note": 1, "label": "a", "children": []}]'),
            'coalgebra.states: expected a string, got {"note": 1, "label": "a", "children": []}',
        ),
        (
            _plain_spec(states='["s", {"children": [], "label": "a"}]'),
            'coalgebra.states: expected a string, got {"children": [], "label": "a"}',
        ),
        (_plain_spec(label=ENTRY), "coalgebra.gamma.s.label: expected a string, got " + ENTRY),
        (_plain_spec(entry='{"label": 5, "children": [], "label": "a"}'), None),
        (
            _plain_spec(entry='{"label": "a", "children": [], "label": ' + ENTRY + "}"),
            "coalgebra.gamma.s.label: expected a string, got " + ENTRY,
        ),
        (_plain_spec(label=DEEP), "coalgebra.gamma.s.label: expected a string, got " + DEEP),
        (
            '{"schema_version": "1", "signature": {"labels": ["a"], "arity": {"a": 1}}, "coalgebra": '
            '{"gamma": {"q": {"children": ["zz"], "label": "a"}, "r": {"children": [], "label": "a"}}, "states": ["q", "r"]}}',
            "coalgebra: transition of 'q' leaves the state enumeration: 'zz'",
        ),
        (
            '{"coalgebra": {"gamma": {"p": {"children": [], "label": "a"}, "q": {"children": ["zz"], "label": "b"}}, '
            '"states": ["p", "q"]}, "schema_version": "1", "signature": {"arity": {"a": 0, "b": 1}, "labels": ["a", "b"]}}',
            "coalgebra: transition of 'q' leaves the state enumeration: 'zz'",
        ),
    ],
    ids=[
        "signature",
        "state",
        "state-extra-key",
        "state-children-first",
        "label",
        "repeated-label-key",
        "repeated-label-key-entry",
        "deep-label",
        "held-dangling-children-first",
        "held-dangling-own-label",
    ],
)
def test_entry_shaped_values_are_reported_as_objects(tmp_path, text, message):
    """An object of the keys ``label`` and ``children``, with or without
    another key, outside a ``gamma`` entry is reported as the object it is,
    in its key order, however deep (the stdlib's own decoding is parsed); a
    repeated key counts once, with its last value; and the held fault of a
    state whose entry lists ``children`` first is checked against its own
    label, not an earlier state's.  ``None`` is a spec that loads."""
    path = tmp_path / "spec.json"
    path.write_text(text)
    got = _outcome(lambda: specdoc.load_spec(str(path)))
    assert got == _outcome(lambda: specdoc.parse_spec(json.loads(text)))
    if message is None:
        assert not isinstance(got, str)
    else:
        assert got == message


def _unary(gamma: dict) -> str:
    """A plain spec as text, with the one label ``a`` of arity 1 and the
    states and entries of ``gamma``."""
    signature = {"labels": ["a"], "arity": {"a": 1}}
    return json.dumps({"schema_version": "1", "signature": signature, "coalgebra": {"states": list(gamma), "gamma": gamma}})


LOOP = {"label": "a", "children": ["s"]}


@pytest.mark.parametrize(
    "gamma, message, decodes",
    [
        ({"s": LOOP}, None, 1),
        ({"s": {"children": ["s"], "label": "a"}}, None, 1),
        ({"s": {**LOOP, "note": None}}, None, 1),
        ({"s": LOOP, "t": {"label": "a", "children": ["s"], "note": None}}, None, 1),
        ({"s": {"label": "a", "children": "s"}}, "coalgebra.gamma.s.children: expected an array", 2),
        ({"s": {"label": "a", "children": {"s": 0}}}, "coalgebra.gamma.s.children: expected an array", 2),
        ({"s": {"label": "a", "children": [["s"]]}}, 'coalgebra.gamma.s.children: expected a string, got ["s"]', 2),
        ({"s": {"label": ["a"], "children": ["s"]}}, 'coalgebra.gamma.s.label: expected a string, got ["a"]', 2),
    ],
    ids=[
        "entry", "children-first", "all-dicts", "mixed", "children-string", "children-object",
        "child-array", "label-array",
    ],
)
def test_only_array_children_make_a_tuple(tmp_path, monkeypatch, gamma, message, decodes):
    """The decoder makes a tuple only of an entry whose ``children`` are an
    array, whatever other keys it holds; any other entry-shaped object
    stays a dict.  A valid document loads from the first decoding, its
    keys in either order, with or without an extra key in some entries.
    One whose children are not an array, or with a name of the wrong type
    in a tuple, is decoded a second time, by the stdlib alone, and parsed
    as ``parse_spec`` parses that: a string of children is not read as an
    array of its characters, and an unhashable label or child fails the
    first parse without an error of its own.  ``None`` is a spec that
    loads."""
    text = _unary(gamma)
    path = tmp_path / "spec.json"
    path.write_text(text)
    hooks = _decodes(monkeypatch)
    got = _outcome(lambda: specdoc.load_spec(str(path)))
    assert hooks == [specdoc._decode_object, None][:decodes]
    assert got == _outcome(lambda: specdoc.parse_spec(json.loads(text)))
    if message is None:
        assert not isinstance(got, str)
    else:
        assert got == message


@pytest.mark.parametrize("entry", [("a", ["s"]), ("a", "s"), (None, "a", "s"), ()], ids=["pair", "strings", "three", "empty"])
def test_a_callers_tuple_is_no_entry(entry):
    """A tuple in a caller's document is refused as no object, whatever its
    items: only the decoder's own tuples, which hold its private mark, are
    read as entries."""
    doc = json.loads(_unary({"s": LOOP}))
    doc["coalgebra"]["gamma"]["s"] = entry
    with pytest.raises(SpecValidationError) as raised:
        specdoc.parse_spec(doc)
    assert str(raised.value) == "coalgebra.gamma.s: expected an object"


def _specgen():
    """``perfbench/specgen.py``, the benchmark's spec generator."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "specgen.py"
    spec = importlib.util.spec_from_file_location("specgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _decodes(monkeypatch) -> list:
    """The ``object_hook`` of each ``json.load`` call made from now on, in
    order, None for none."""
    hooks, load = [], json.load

    def counted(fh, **kwargs):
        hooks.append(kwargs.get("object_hook"))
        return load(fh, **kwargs)

    monkeypatch.setattr(json, "load", counted)
    return hooks


def _planted(n: int) -> dict:
    """The benchmark's planted spec of ``n`` states, as a document."""
    shape = random.Random(2)
    return _specgen().PlantedBlocks(random.Random(1), n, {"a": 2, "b": 2, "c": 1, "z": 0}, base_size=3000, shape=shape).doc()


def test_load_peaks_under_430_bytes_a_state(tmp_path, monkeypatch):
    """Loading a planted 3*10^4-state spec decodes it once, with the hook,
    and peaks under 430 bytes a state above what was held before, as
    ``tracemalloc`` counts them: each ``gamma`` entry is held as one flat
    tuple, neither as a dict nor with a list of its children.  With a
    dict per entry the load peaked at about 588 bytes a state here, and
    with a tuple and a list per entry at about 473-477; it peaks at about
    395.  So does the same spec with an extra key in one entry, which is
    packed as the others are; when only entries of exactly the two keys
    were packed, it was decoded twice and peaked at about 596."""
    n = 3 * 10**4
    doc = _planted(n)
    plain = json.dumps(doc)
    doc["coalgebra"]["gamma"][doc["coalgebra"]["states"][n // 2]]["note"] = None
    hooks = _decodes(monkeypatch)
    for name, text in (("planted", plain), ("extra key", json.dumps(doc))):
        path = tmp_path / "planted.json"
        path.write_text(text)
        hooks.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            c = specdoc.load_spec(str(path)).coalgebra
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(c.state_enumeration) == n
        print(f"load, {name}: peak {peak / n:.1f} B a state (bound 430)")
        assert peak / n < 430, (name, peak / n)
        assert hooks == [specdoc._decode_object], name
        del c


def test_failed_load_holds_nothing_of_the_document(tmp_path):
    """A load that fails on a fault the coalgebra names, one child too many
    on the last state of a planted 3*10^4-state spec, reports what
    ``parse_spec`` reports for the stdlib's value.  Its two decodings are
    never held at once, and with the collector off nothing of them is held
    once it returns: the fault's traceback reaches the parse's frame, and
    a cycle through it held about 460 bytes a state here.  It peaks at
    about 590 bytes a state.  What it holds is CPython's per-length tuple
    free lists, up to 2000 freed tuples of each length, which the first
    decoding's entries fill: with entries of three lengths (0-2 children)
    that reads about 13 bytes a state (about 9 after an earlier load has
    part-filled them), while nothing of the document is held (with one
    length, as when an entry was a tuple and a list, it read about 4)."""
    n = 3 * 10**4
    doc = _planted(n)
    last = doc["coalgebra"]["states"][-1]
    doc["coalgebra"]["gamma"][last]["children"].append(last)
    text = json.dumps(doc)
    del doc
    path = tmp_path / "planted.json"
    path.write_text(text)
    expected = _outcome(lambda: specdoc.parse_spec(json.loads(text)))
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = _outcome(lambda: specdoc.load_spec(str(path)))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert isinstance(expected, str) and got == expected
    print(f"failed load: peak {(peak - before) / n:.1f} B a state (bound 640), held {(held - before) / n:.1f} (bound 16)")
    assert (peak - before) / n < 640, (peak - before) / n
    assert (held - before) / n < 16, (held - before) / n
