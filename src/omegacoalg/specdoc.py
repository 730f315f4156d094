"""Loading, validation and writing of JSON spec documents.

A document carries a schema version, exactly one of a plain ``signature``
or an ``indexed`` container fragment, and a ``coalgebra`` fragment that
must validate against it (arities, state closure, sorts).

The coalgebra fragment, plain or indexed, is validated in one pass over
the states, which also numbers them and writes the coalgebra's tables
(:meth:`~omegacoalg.mtype.Coalgebra._adopt`).  A fault of the document's
shape is raised where it is found; the first fault the coalgebra refuses
is held until the whole document's shape has passed.  The loaded
coalgebra keeps the document's ``gamma`` fragment as its transition
store, and :attr:`SpecDocument.raw` is the parsed document.  The writers
read a coalgebra's tables, and :func:`dump_document` writes a spec
document directly, byte for byte as ``json.dumps`` with sorted keys and
an indent of 2 does.
"""

from __future__ import annotations

import json
from array import array
from itertools import accumulate, chain

from .container import Container, PValue
from .errors import InvalidCoalgebra, OmegaCoalgError, SpecValidationError
from .indexed import IndexedCoalgebra, IndexedContainer
from .mtype import Coalgebra

SCHEMA_VERSION = "1"


class SpecDocument:
    """A loaded document: its coalgebra, plain or indexed, and the parsed
    JSON it came from, whose ``gamma`` fragment the coalgebra reads its
    transitions from."""

    def __init__(self, coalgebra: Coalgebra, raw: dict):
        self.coalgebra = coalgebra
        self.raw = raw

    @property
    def kind(self) -> str:
        """``"indexed"`` or ``"plain"``, by the coalgebra's type."""
        return "indexed" if isinstance(self.coalgebra, IndexedCoalgebra) else "plain"


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecValidationError(msg)


def _require_str(value, where: str):
    """State names, sorts, labels and children are JSON strings."""
    if not isinstance(value, str):
        raise SpecValidationError(f"{where}: expected a string, got {json.dumps(value)}")


def _is_arity(n) -> bool:
    """A non-negative JSON integer; ``true``/``false`` are not arities."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def load_spec(path: str) -> SpecDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SpecValidationError(f"cannot read spec file: {e}") from None
    except UnicodeDecodeError as e:
        raise SpecValidationError(f"spec is not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecValidationError(f"spec is not valid JSON: {e}") from None
    except RecursionError:
        raise SpecValidationError("spec nests too deeply to parse") from None
    return parse_spec(doc)


def parse_spec(doc: dict) -> SpecDocument:
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
    _require(isinstance(sig, dict), "signature: expected an object")
    labels = sig.get("labels")
    arity = sig.get("arity")
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
    into the tables (:meth:`~omegacoalg.mtype.Coalgebra._adopt`); the
    document's ``gamma`` fragment is the coalgebra's store.

    A fault of shape (a name that is not a string, a missing or malformed
    entry, a plain label outside ``signature.labels``, an undeclared
    ``gamma`` key) is raised where it is found.  A fault the coalgebra
    refuses (a repeated state, then the first transition in enumeration
    order with a wrong arity, sort or label at its sort, or a child
    outside the states) is held until the whole document's shape has
    passed, and named as the coalgebra names it
    (:meth:`~omegacoalg.mtype.Coalgebra._fault`).  Each entry is first
    screened by a cheap test (its child count, and for an indexed spec
    its children's sorts); only one that fails it is checked in full.
    The children are numbered after the pass, all at once, and only when
    one is not a state are the states searched for it.
    """
    _require(isinstance(frag, dict), "coalgebra: expected an object")
    states = frag.get("states")
    gamma = frag.get("gamma")
    plain = not isinstance(container, IndexedContainer)
    if plain:
        _require(isinstance(states, list), "coalgebra.states: expected an array")
        c = Coalgebra(container, gamma)
        # Each listed label's arity; an arity entry of no listed label is
        # named after the pass.
        arity = {a: container.arity[a] for a in container.labels}
    else:
        _require(
            isinstance(states, dict),
            "coalgebra.states: expected an object mapping state to sort",
        )
        c = IndexedCoalgebra(container, None, states, gamma)
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
    column = array("l")
    classes: dict = {}
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
        if not isinstance(entry, dict):
            _require(s in gamma, f"coalgebra.gamma.{s}: missing")
            raise SpecValidationError(f"coalgebra.gamma.{s}: expected an object")
        label = entry.get("label")
        if not isinstance(label, str):
            _require("label" in entry, f"coalgebra.gamma.{s}.label: missing")
            _require_str(label, f"coalgebra.gamma.{s}.label")
        children = entry.get("children")
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
        column.append(classes.setdefault((sort, label), len(classes)))
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
        for i, (s, children) in enumerate(zip(states, lists)):
            if i >= held_at:
                break
            if not all(map(index.__contains__, children)):
                held = c._fault(s, PValue(gamma[s]["label"], children), index)
                break
    if held is not None:
        raise SpecValidationError(f"coalgebra: {held}")
    koff = array("l", accumulate(map(len, lists), initial=0))
    c._adopt(tuple(states), kids, koff, column, tuple(classes))
    return c


def _parse_indexed(frag) -> IndexedContainer:
    _require(isinstance(frag, dict), "indexed: expected an object")
    sorts = frag.get("sorts")
    labels = frag.get("labels")
    _require(isinstance(sorts, list), "indexed.sorts: expected an array")
    _require(isinstance(labels, dict), "indexed.labels: expected an object")
    labels_at = {}
    arity = {}
    child_sort = {}
    for i in sorts:
        _require_str(i, "indexed.sorts")
        per_sort = labels.get(i, {})
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


def plain_document(coalgebra: Coalgebra) -> dict:
    """Serialize a finitely presented plain coalgebra back to a document,
    read off its tables."""
    container = coalgebra.container
    return {
        "schema_version": SCHEMA_VERSION,
        "signature": {
            "labels": list(container.labels),
            "arity": {a: container.arity_of(a) for a in container.labels},
        },
        "coalgebra": {"states": list(coalgebra.state_enumeration), "gamma": coalgebra._gamma_fragment()},
    }


def indexed_document(c: IndexedCoalgebra) -> dict:
    """Serialize a finitely presented indexed coalgebra back to a document,
    read off its tables."""
    ic = c.container
    return {
        "schema_version": SCHEMA_VERSION,
        "indexed": {
            "sorts": list(ic.sorts),
            "labels": {
                i: {
                    a: {
                        "arity": ic.arity[(i, a)],
                        "child_sorts": list(ic.child_sort[(i, a)]),
                    }
                    for a in ic.labels(i)
                }
                for i in ic.sorts
            },
        },
        "coalgebra": {"states": {s: c.sort_of[s] for s in c.state_enumeration}, "gamma": c._gamma_fragment()},
    }


# The stdlib's string encoder, as ``json.dumps`` calls it (in C where the
# accelerator is built).
_string = json.encoder.encode_basestring_ascii


def dump_document(doc: dict) -> str:
    """The text of ``doc``, byte for byte ``json.dumps(doc, sort_keys=True,
    indent=2) + "\\n"``.

    With ``indent`` set, the stdlib encodes in pure Python, one call per
    value.  A spec document, as :func:`plain_document` and
    :func:`indexed_document` make it, is written here instead: its
    ``gamma`` fragment and its states, nearly all of its bytes, directly,
    every name through the stdlib's own string encoder; every other part
    through ``json.dumps``.  A document of another shape, or with a name
    that is not a string, is handed to ``json.dumps`` whole.
    """
    try:
        return _object(doc, "", {"coalgebra": _coalgebra_text}) + "\n"
    except (TypeError, KeyError):
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _object(obj: dict, pad: str, writers: dict) -> str:
    """The indented text of the object ``obj`` opened on a line indented by
    ``pad``: each value by the writer ``writers`` names for its key, else
    by ``json.dumps``, whose lines are shifted to this depth."""
    if type(obj) is not dict:
        raise TypeError("not an object")
    if not obj:
        return "{}"
    key = "\n" + pad + "  "
    items = []
    for k in sorted(obj):
        write = writers.get(k)
        if write is None:
            text = json.dumps(obj[k], sort_keys=True, indent=2).replace("\n", key)
        else:
            text = write(obj[k], pad + "  ")
        items.append(_string(k) + ": " + text)
    return "{" + key + ("," + key).join(items) + "\n" + pad + "}"


def _coalgebra_text(frag: dict, pad: str) -> str:
    return _object(frag, pad, {"gamma": _gamma_text, "states": _states_text})


def _states_text(states, pad: str) -> str:
    """A plain spec's list of states, or an indexed one's map from state to
    sort."""
    if type(states) is list:
        items, brackets = list(map(_string, states)), "[]"
    elif type(states) is dict:
        items, brackets = [_string(s) + ": " + _string(states[s]) for s in sorted(states)], "{}"
    else:
        raise TypeError("not a state list or map")
    if not items:
        return brackets
    key = "\n" + pad + "  "
    return brackets[0] + key + ("," + key).join(items) + "\n" + pad + brackets[1]


def _gamma_text(gamma: dict, pad: str) -> str:
    """A ``gamma`` fragment: each state's entry, with exactly a ``label``
    and a list of ``children``."""
    if type(gamma) is not dict:
        raise TypeError("not a gamma fragment")
    if not gamma:
        return "{}"
    key = "\n" + pad + "  "
    field = key + "  "
    child = field + "  "
    head = ": {" + field + '"children": '
    mid = "," + field + '"label": '
    tail = key + "}"
    entries = []
    for s in sorted(gamma):
        entry = gamma[s]
        children = entry["children"]
        if len(entry) != 2 or type(children) is not list:
            raise TypeError("not a spec entry")
        kids = "[" + child + ("," + child).join(map(_string, children)) + field + "]" if children else "[]"
        entries.append(_string(s) + head + kids + mid + _string(entry["label"]) + tail)
    return "{" + key + ("," + key).join(entries) + "\n" + pad + "}"
