"""The spec document format: loading, validation and writing of JSON spec
documents.  No other module reads or writes its shape.

A document carries a schema version, exactly one of a plain ``signature``
or an ``indexed`` container fragment, and a ``coalgebra`` fragment that
must validate against it (arities, state closure, sorts).

The coalgebra fragment, plain or indexed, is validated in one pass over
the states, which also numbers them and writes the coalgebra's tables;
the coalgebra keeps both (:meth:`~omegacoalg.mtype.Coalgebra._adopt`).
A fault of the document's shape is raised where it is found; the first
fault the coalgebra refuses is held until the whole document's shape has
passed.  The loaded
coalgebra has no ``gamma``: its tables are its one store, and a state's
transition is read off them when it is first asked for.

:func:`load_spec` decodes with an ``object_hook`` that hands each object
whose keys are exactly ``label`` and ``children`` over as a tuple of its
label, its children and its key order, so a document's ``gamma`` entries
are never held as dicts; the pass unpacks them.  The hook sees no path,
so every place that expects an object, or prints a value in a message,
turns such a tuple back into its dict, in its key order: what the loader
reports is what it reports for the plain document :func:`parse_spec`
takes.  The writer,
:func:`dump_document`, prints a coalgebra's document straight from its
tables, byte for byte as ``json.dumps`` with sorted keys and an indent of
2 does.
"""

from __future__ import annotations

import json
from array import array
from functools import cached_property
from itertools import accumulate, chain, repeat

from .container import Container, PValue
from .errors import InvalidCoalgebra, OmegaCoalgError, SpecValidationError
from .indexed import IndexedCoalgebra, IndexedContainer
from .mtype import Coalgebra

SCHEMA_VERSION = "1"


class SpecDocument:
    """A loaded document: its coalgebra, plain or indexed, and ``raw``, the
    parsed JSON it came from.  The coalgebra does not read ``raw``, and it
    is not kept as parsed: the decoder hands the ``gamma`` entries over as
    tuples, and ``raw`` is rebuilt from them, as ``json.load`` returns the
    document, when it is first read.  Only the benchmark's tracer
    (``perfbench/tracer.py``) reads it, to count the states and edges of a
    load."""

    def __init__(self, coalgebra: Coalgebra, decoded: dict):
        self.coalgebra = coalgebra
        self._decoded = decoded

    @cached_property
    def raw(self) -> dict:
        return _restore(self._decoded)


# The key orders of an entry, which the decoder hands over as the tuple
# ``(label, children, order)``.  Only the decoder makes these: a tuple is an
# entry when its third item is one of them.
_LABEL_FIRST = ("label", "children")
_CHILDREN_FIRST = ("children", "label")


def _decode_object(obj: dict):
    """The decoder's ``object_hook``: an object of exactly the keys
    ``label`` and ``children`` as an entry tuple, any other as is."""
    try:
        label, children = obj["label"], obj["children"]
    except KeyError:
        return obj
    if len(obj) != 2:
        return obj
    return label, children, (_LABEL_FIRST if next(iter(obj)) == "label" else _CHILDREN_FIRST)


def _is_entry(value) -> bool:
    """Whether ``value`` is an entry as the decoder hands it over."""
    return type(value) is tuple and len(value) == 3 and (value[2] is _LABEL_FIRST or value[2] is _CHILDREN_FIRST)


def _object(value):
    """``value`` where an object is expected: an entry as its dict, in its
    key order, whose own values are left as they are; anything else as
    is."""
    if not _is_entry(value):
        return value
    label, children, order = value
    if order is _LABEL_FIRST:
        return {"label": label, "children": children}
    return {"children": children, "label": label}


def _restore(value):
    """``value`` as ``json.load`` returns it: every entry within it turned
    back into its dict, in place.  The walk keeps its own stack, so it
    restores a value of any depth the decoder reads, and it visits each
    array or object once, so it ends on a value built with a cycle."""
    value = _object(value)
    todo, seen = [value] if isinstance(value, (dict, list)) else [], set()
    while todo:
        v = todo.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        for k, x in v.items() if isinstance(v, dict) else enumerate(v):
            if type(x) is tuple and _is_entry(x):
                v[k] = x = _object(x)
            if isinstance(x, (dict, list)):
                todo.append(x)
    return value


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecValidationError(msg)


def _require_str(value, where: str):
    """State names, sorts, labels and children are JSON strings."""
    if not isinstance(value, str):
        raise SpecValidationError(f"{where}: expected a string, got {json.dumps(_restore(value), default=repr)}")


def _is_arity(n) -> bool:
    """A non-negative JSON integer; ``true``/``false`` are not arities."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def load_spec(path: str) -> SpecDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh, object_hook=_decode_object)
            except RecursionError:
                # The hook's calls take the decoder a level or two nearer
                # the recursion limit; a document nests too deeply only
                # where the plain decoder finds so, and then it is parsed
                # as plain dicts.
                fh.seek(0)
                doc = json.load(fh)
    except OSError as e:
        raise SpecValidationError(f"cannot read spec file: {e}") from None
    except UnicodeDecodeError as e:
        raise SpecValidationError(f"spec is not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecValidationError(f"spec is not valid JSON: {e}") from None
    except ValueError as e:
        # An integer longer than the interpreter's digit limit.
        raise SpecValidationError(f"spec cannot be read as JSON: {e}") from None
    except RecursionError:
        raise SpecValidationError("spec nests too deeply to parse") from None
    return parse_spec(doc)


def parse_spec(doc: dict) -> SpecDocument:
    doc = _object(doc)
    _require(isinstance(doc, dict), "document: expected a JSON object")
    _require(
        doc.get("schema_version") == SCHEMA_VERSION,
        f"schema_version: expected {SCHEMA_VERSION!r}",
    )
    has_sig = "signature" in doc
    has_idx = "indexed" in doc
    _require(
        has_sig != has_idx, "document: exactly one of signature/indexed must be present"
    )
    _require("coalgebra" in doc, "coalgebra: missing")
    if has_sig:
        container = _parse_signature(doc["signature"])
    else:
        container = _parse_indexed(doc["indexed"])
    return SpecDocument(_parse_coalgebra(container, doc["coalgebra"]), doc)


def _parse_signature(sig) -> Container:
    sig = _object(sig)
    _require(isinstance(sig, dict), "signature: expected an object")
    labels = sig.get("labels")
    arity = _object(sig.get("arity"))
    _require(isinstance(labels, list), "signature.labels: expected an array")
    _require(isinstance(arity, dict), "signature.arity: expected an object")
    for a in labels:
        _require_str(a, "signature.labels")
        _require(a in arity, f"signature.arity.{a}: missing")
        _require(
            _is_arity(arity[a]), f"signature.arity.{a}: expected a non-negative integer"
        )
    try:
        return Container(arity=dict(arity), labels=tuple(labels))
    except OmegaCoalgError as e:
        raise SpecValidationError(f"signature: {e}") from None


def _parse_coalgebra(container, frag) -> Coalgebra:
    """The coalgebra fragment against ``container``, plain or indexed, in
    one pass over the states that checks each entry and numbers the states
    into the tables (:meth:`~omegacoalg.mtype.Coalgebra._adopt`), which
    are the coalgebra's store; the coalgebra keeps the numbering too.

    A fault of shape (a name that is not a string, a missing or malformed
    entry, a plain label outside ``signature.labels``, an undeclared
    ``gamma`` key) is raised where it is found.  A fault the coalgebra
    refuses (a repeated state, then the first transition in enumeration
    order with a wrong arity, sort or label at its sort, or a child
    outside the states) is held until the whole document's shape has
    passed, and named as the coalgebra names it
    (:meth:`~omegacoalg.mtype.Coalgebra._fault`).  Each entry is first
    screened by a cheap test (its child count, and for an indexed spec
    its children's sorts); only one that fails it is checked in full.  An
    entry comes from :func:`load_spec` as the decoder's tuple, and from a
    caller of :func:`parse_spec` as a dict.
    The children are numbered after the pass, all at once, and only when
    one is not a state are the states searched for it.
    """
    frag = _object(frag)
    _require(isinstance(frag, dict), "coalgebra: expected an object")
    states = _object(frag.get("states"))
    gamma = _object(frag.get("gamma"))
    plain = not isinstance(container, IndexedContainer)
    if plain:
        _require(isinstance(states, list), "coalgebra.states: expected an array")
        c = Coalgebra(container, None)
        # Each listed label's arity; an arity entry of no listed label is
        # named after the pass.
        arity = {a: container.arity[a] for a in container.labels}
    else:
        _require(
            isinstance(states, dict),
            "coalgebra.states: expected an object mapping state to sort",
        )
        c = IndexedCoalgebra(container, None, states, None)
        child_sort = container.child_sort
        sort_of = states.get
    _require(isinstance(gamma, dict), "coalgebra.gamma: expected an object")
    try:
        index = dict(zip(states, range(len(states))))
    except TypeError:
        # A state that is not a string, which the pass names.
        index = {}
    # The first fault the coalgebra refuses, and the place of its state
    # (-1 for a repeated state, which outranks every transition's fault).
    held, held_at = None, len(states)
    if len(index) != len(states):
        held, held_at = InvalidCoalgebra(c._duplicates), -1
    labels = []
    lists = []
    sort = None
    for i, s in enumerate(states):
        if plain:
            if not isinstance(s, str):
                _require_str(s, "coalgebra.states")
        else:
            sort = states[s]
            if not isinstance(sort, str):
                _require_str(sort, f"coalgebra.states.{s}")
        entry = gamma.get(s)
        # _is_entry(entry), inline: it is asked once a state.
        if type(entry) is tuple and len(entry) == 3 and (entry[2] is _LABEL_FIRST or entry[2] is _CHILDREN_FIRST):
            label, children, _ = entry
        else:
            if not isinstance(entry, dict):
                _require(s in gamma, f"coalgebra.gamma.{s}: missing")
                raise SpecValidationError(f"coalgebra.gamma.{s}: expected an object")
            _require("label" in entry, f"coalgebra.gamma.{s}.label: missing")
            label, children = entry["label"], entry.get("children")
        if not isinstance(label, str):
            _require_str(label, f"coalgebra.gamma.{s}.label")
        if not isinstance(children, list):
            raise SpecValidationError(f"coalgebra.gamma.{s}.children: expected an array")
        for ch in children:
            if not isinstance(ch, str):
                _require_str(ch, f"coalgebra.gamma.{s}.children")
        if plain:
            n = arity.get(label)
            if n is None:
                raise SpecValidationError(
                    f"coalgebra.gamma.{s}.label: {label!r} is not in signature.labels"
                )
            suspect = len(children) != n
        else:
            suspect = child_sort.get((sort, label)) != tuple(map(sort_of, children))
        labels.append(label)
        lists.append(children)
        if suspect and held is None:
            held, held_at = c._fault(s, PValue(label, children), index), i
    if len(gamma) != len(index):
        for s in gamma:
            _require(s in index, f"coalgebra.gamma.{s}: not a declared state")
    if plain:
        # After the transitions, so that one with an unlisted label is
        # named as such rather than by its arity entry.
        for a in container.arity:
            _require(a in arity, f"signature.arity.{a}: not in signature.labels")
    # Every child is numbered in one pass; a child that is not a state is
    # then sought only among the states before the held fault's.
    try:
        kids = array("l", map(index.__getitem__, chain.from_iterable(lists)))
    except KeyError:
        for i, (s, label, children) in enumerate(zip(states, labels, lists)):
            if i >= held_at:
                break
            if not all(map(index.__contains__, children)):
                held = c._fault(s, PValue(label, children), index)
                break
    if held is not None:
        raise SpecValidationError(f"coalgebra: {held}")
    # Each state's (sort, label) class, numbered in the order of first use;
    # a plain spec's is keyed by its label alone, which hashes as it is.
    keys = labels if plain else list(zip(states.values(), labels))
    classes = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    column = array("l", map(classes.__getitem__, keys))
    tags = tuple(zip(repeat(None), classes)) if plain else tuple(classes)
    koff = array("l", accumulate(map(len, lists), initial=0))
    c._adopt(tuple(states), kids, koff, column, tags, index)
    return c


def _parse_indexed(frag) -> IndexedContainer:
    frag = _object(frag)
    _require(isinstance(frag, dict), "indexed: expected an object")
    sorts = frag.get("sorts")
    labels = _object(frag.get("labels"))
    _require(isinstance(sorts, list), "indexed.sorts: expected an array")
    _require(isinstance(labels, dict), "indexed.labels: expected an object")
    labels_at = {}
    arity = {}
    child_sort = {}
    for i in sorts:
        _require_str(i, "indexed.sorts")
        per_sort = _object(labels.get(i, {}))
        _require(
            isinstance(per_sort, dict), f"indexed.labels.{i}: expected an object"
        )
        labels_at[i] = tuple(per_sort)
        for a, entry in per_sort.items():
            _require(
                isinstance(entry, dict) and "arity" in entry and "child_sorts" in entry,
                f"indexed.labels.{i}.{a}: expected arity and child_sorts",
            )
            _require(
                _is_arity(entry["arity"]),
                f"indexed.labels.{i}.{a}.arity: expected a non-negative integer",
            )
            child_sorts = entry["child_sorts"]
            _require(
                isinstance(child_sorts, list),
                f"indexed.labels.{i}.{a}.child_sorts: expected an array",
            )
            for j in child_sorts:
                _require_str(j, f"indexed.labels.{i}.{a}.child_sorts")
            arity[(i, a)] = entry["arity"]
            child_sort[(i, a)] = tuple(child_sorts)
    for i in labels:
        _require(i in labels_at, f"indexed.labels.{i}: not in indexed.sorts")
    try:
        return IndexedContainer(tuple(sorts), labels_at, arity, child_sort)
    except OmegaCoalgError as e:
        raise SpecValidationError(f"indexed: {e}") from None


# The stdlib's string encoder, as ``json.dumps`` calls it (in C where the
# accelerator is built).
_string = json.encoder.encode_basestring_ascii


def _require_strs(values, where: str):
    for value in values:
        if not isinstance(value, str):
            _require_str(value, where)


def dump_document(c: Coalgebra) -> str:
    """The spec document of the finitely presented coalgebra ``c``, plain
    or indexed, as text, written straight from its tables: byte for byte
    what ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` writes for
    the document ``doc`` with ``c``'s container, its states (in
    enumeration order, or for an indexed ``c`` as a map from each state to
    its sort) and a ``gamma`` entry ``{"children": [...], "label": ...}``
    per state.

    With ``indent`` set, the stdlib encodes in pure Python, one call per
    value.  Here only the container fragment, whose size is the
    signature's, goes through ``json.dumps``; the states and ``gamma``,
    nearly all of the bytes, are written directly, every name through the
    stdlib's own string encoder, with no ``PValue`` made.  What no
    document can hold raises :class:`SpecValidationError`: a coalgebra
    without a state enumeration, a plain container without a label list,
    and a state name, label or sort that is not a string, the first one
    named.
    """
    states = c.state_enumeration
    _require(states is not None, "coalgebra.states: the coalgebra enumerates no states")
    container = c.container
    indexed = isinstance(c, IndexedCoalgebra)
    if indexed:
        _require_strs(container.sorts, "indexed.sorts")
        for i in container.sorts:
            _require_strs(container.labels(i), f"indexed.labels.{i}")
        key, fragment = "indexed", {
            "sorts": list(container.sorts),
            "labels": {
                i: {
                    a: {"arity": container.arity[(i, a)], "child_sorts": list(container.child_sort[(i, a)])}
                    for a in container.labels(i)
                }
                for i in container.sorts
            },
        }
    else:
        labels = container.labels
        _require(labels is not None, "signature.labels: the container enumerates no labels")
        _require_strs(labels, "signature.labels")
        key, fragment = "signature", {
            "labels": list(labels),
            "arity": {a: container.arity_of(a) for a in labels},
        }
    # A state's sort is one of the sorts, and its label one of the labels
    # at its sort; only a plain label outside the listed ones is left.
    _require_strs(states, "coalgebra.states")
    for k, (_, label) in enumerate(c._tags):
        if not isinstance(label, str):
            _require_str(label, f"coalgebra.gamma.{states[c._class.index(k)]}.label")
    names = list(map(_string, states))
    order = sorted(range(len(states)), key=states.__getitem__)
    if indexed:
        sort_of = c.sort_of
        listed = _block([names[i] + ": " + _string(sort_of[states[i]]) for i in order], "    ", "{}")
    else:
        listed = _block(names, "    ", "[]")
    # A gamma entry, indented three levels, with its children a fourth.
    head = ': {\n        "children": '
    mid = ',\n        "label": '
    labels = [_string(label) for _, label in c._tags]
    kids, koff, column = c._kids, c._koff, c._class
    # The document's keys are written sorted, coalgebra first.  Each gamma
    # entry is its own piece, with the line before it, and the pieces are
    # joined once, so the bulk of the text is copied once, not once per
    # enclosing value.
    pieces = ['{\n  "coalgebra": {\n    "gamma": ']
    line = "{\n      "
    for i in order:
        children = _block([names[k] for k in kids[koff[i] : koff[i + 1]]], "        ", "[]")
        pieces.append(line + names[i] + head + children + mid + labels[column[i]] + "\n      }")
        line = ",\n      "
    rest = {
        key: json.dumps(fragment, sort_keys=True, indent=2).replace("\n", "\n  "),
        "schema_version": _string(SCHEMA_VERSION),
    }
    pieces += ["\n    }" if order else "{}", ',\n    "states": ', listed, "\n  }"]
    pieces += [",\n  " + _string(k) + ": " + rest[k] for k in sorted(rest)]
    pieces.append("\n}\n")
    return "".join(pieces)


def _block(items: list, pad: str, brackets: str) -> str:
    """The written ``items`` between ``brackets``, one per line indented
    one level deeper than ``pad``, as ``json.dumps`` lays out an array or
    object whose own line is indented by ``pad``."""
    if not items:
        return brackets
    line = "\n" + pad + "  "
    return brackets[0] + line + ("," + line).join(items) + "\n" + pad + brackets[1]
