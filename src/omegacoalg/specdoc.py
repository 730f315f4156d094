"""The spec document format: loading, validation and writing of JSON spec
documents.  No other module reads or writes its shape.

A document carries a schema version, exactly one of a plain ``signature``
or an ``indexed`` container fragment, and a ``coalgebra`` fragment that
must validate against it (arities, state closure, sorts).

The coalgebra fragment, plain or indexed, is validated in one pass over
the states, which also numbers them and writes the coalgebra's tables;
the coalgebra keeps both (:meth:`~omegacoalg.mtype.Coalgebra._adopt`).
A fault of the document's shape is raised where it is found; the first
fault the coalgebra refuses is sought once the whole document's shape has
passed.  The loaded coalgebra has no ``gamma``: its tables are its one
store, and a state's transition is read off them when it is first asked
for.

:func:`load_spec` opens the file once, and first decodes with an
``object_hook`` that hands each object with a ``label`` key and an array
of ``children``, whatever other keys it holds, over as one flat tuple of
a private mark, the label and the children; so a document's ``gamma``
entry is held as neither a dict nor a list, and nothing beside that
tuple is kept for it.  The pass reads such tuples, and it is the one
place that does; a caller's document keeps its dict entries.  Anywhere
else a tuple fails the type check of what is expected there.  If the
first parse fails, for that or any other reason, the text is read again
from its start (a pipe's was read into memory first) and decoded by the
stdlib alone, and that value is parsed: what the loader reports is, by
construction, what :func:`parse_spec` reports for the plain document.

The writer, :func:`dump_document`, prints a coalgebra's document straight
from its tables, byte for byte as ``json.dumps`` with sorted keys and an
indent of 2 does.
"""

from __future__ import annotations

import io
import json
import operator
from array import array
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, islice, repeat

from .container import Container, PValue
from .errors import OmegaCoalgError, SpecValidationError
from .indexed import IndexedCoalgebra, IndexedContainer
from .mtype import Coalgebra, _first_use

SCHEMA_VERSION = "1"


class SpecDocument:
    """A loaded document: its coalgebra, plain or indexed, and ``raw``, the
    parsed JSON it came from.  The coalgebra does not read ``raw``: it is
    the value a caller gave :func:`parse_spec`, or for :func:`load_spec`
    the stdlib's decoding of the file, made when first read.  Only the
    benchmark's tracer (``perfbench/tracer.py``) reads it, to count the
    states and edges of a load."""

    def __init__(self, coalgebra: Coalgebra, decode):
        self.coalgebra = coalgebra
        self._decode = decode

    @cached_property
    def raw(self) -> dict:
        return self._decode()


# The mark of an entry as the decoder hands it over, ``(_ENTRY, label,
# *children)``; nothing else makes it.
_ENTRY = object()


def _decode_object(obj: dict):
    """The decoder's ``object_hook``: an object with a ``label`` key and an
    array of ``children``, whatever other keys it holds (the parse reads
    no other key of an entry), as one flat entry tuple ``(_ENTRY, label,
    *children)``, so that the decoder's list of the children is dropped at
    once; any other object as is."""
    try:
        label, children = obj["label"], obj["children"]
    except KeyError:
        return obj
    if type(children) is not list:
        return obj
    return (_ENTRY, label, *children)


def _children(rows, patterns: dict, keys, n: int):
    """The children of the first ``n`` of ``rows``, whose classes are
    ``keys``, in order: the rows' items laid end to end, as the pattern of
    each row's class picks them (a byte per item, 1 for a child)."""
    picked = chain.from_iterable(map(patterns.__getitem__, islice(keys, n)))
    return compress(chain.from_iterable(rows), picked)


def _holder(sizes, k: int) -> int:
    """The place of the row that holds child ``k`` of rows of ``sizes``
    children, read up to that row."""
    return next(compress(count(), map(operator.gt, accumulate(sizes), repeat(k))))


def _entries(states, gamma) -> list | None:
    """The decoder's entry tuples of ``states``, in order, if each state's
    ``gamma`` entry is one; else None.  Only such a tuple holds the mark,
    so a caller's tuple, or a list or dict, is none."""
    try:
        entries = list(map(gamma.get, states))
        if all(map(operator.contains, entries, repeat(_ENTRY))):
            return entries
    except TypeError:
        # A state that is no key, or an entry that holds no items.
        pass
    return None


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecValidationError(msg)


def _require_str(value, where: str):
    """State names, sorts, labels and children are JSON strings."""
    if not isinstance(value, str):
        raise SpecValidationError(f"{where}: expected a string, got {json.dumps(value, default=repr)}")


def _is_arity(n) -> bool:
    """A non-negative JSON integer; ``true``/``false`` are not arities."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def _read(path: str):
    """The stdlib's decoding of the file at ``path``: a loaded document's
    lazy ``raw``."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_spec(path: str) -> SpecDocument:
    """The document in the file at ``path``, as :func:`parse_spec` parses
    the stdlib's decoding of it.  The file is opened once; a stream that
    cannot seek (a pipe, such as ``/dev/stdin`` or ``<(...)``) is first
    read into memory.  It is decoded with its ``gamma`` entries as tuples,
    and that is parsed.  If that fails (a tuple where no entry is
    expected, a label or child in a tuple that cannot be hashed, a fault
    of the document, or a decoder that the hook's calls took past the
    recursion limit), the first decoding is dropped, and the text is read
    again from its start and decoded by the stdlib alone, after the
    handler and in this frame: no traceback holds the first decoding, and
    a document nests too deeply exactly where it does for the stdlib's
    decoder here.  A loaded document's ``raw`` reads the file again, so
    for a pipe it is not the document."""
    try:
        with open(path, encoding="utf-8") as fh:
            stream = fh if fh.seekable() else io.StringIO(fh.read())
            try:
                loaded = parse_spec(json.load(stream, object_hook=_decode_object))
            except (SpecValidationError, RecursionError, TypeError, ValueError):
                pass
            else:
                # Its ``raw`` is the stdlib's decoding, not the hooked one.
                loaded._decode = partial(_read, path)
                return loaded
            stream.seek(0)
            doc = json.load(stream)
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
    return SpecDocument(_parse_coalgebra(container, doc["coalgebra"]), lambda: doc)


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
    into the tables (:meth:`~omegacoalg.mtype.Coalgebra._adopt`), which
    are the coalgebra's store; the coalgebra keeps the numbering too.

    A fault of shape (a name that is not a string, a missing or malformed
    entry, a plain label outside ``signature.labels``, an undeclared
    ``gamma`` key) is raised where it is found.  A fault the coalgebra
    refuses (a repeated state, then the first transition in enumeration
    order with a wrong arity, sort or label at its sort, or a child
    outside the states) is sought after the pass, once the whole
    document's shape has passed, and named as the coalgebra names it
    (:meth:`~omegacoalg.mtype.Coalgebra._fault`).  Each entry is first
    screened by a cheap test (its child count, and for an indexed spec
    its children's sorts); only the first one that fails it is checked in
    full.

    An entry comes from a caller of :func:`parse_spec` as a dict, and a
    loop over the states reads it.  From :func:`load_spec` it is the
    decoder's flat tuple, and when every state's entry is one no loop
    runs: the labels are read off the tuples in one pass, and each check
    after it is a C-level pass over all the entries that slices none of
    them.  A name, label or child of the wrong type is then caught by those
    checks, as no state, as of no class, or as unhashable (a
    ``TypeError``), rather than where the loop names it; the loader then
    answers from the stdlib's decoding.  The children of the rows (the
    children lists, or the tuples) are read as the rows' items laid end
    to end, as each row's class picks them, and numbered after the pass,
    all at once; only when one is not a state are the states searched for
    it.
    """
    _require(isinstance(frag, dict), "coalgebra: expected an object")
    states = frag.get("states")
    gamma = frag.get("gamma")
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
        # Each declared (sort, label) pair's arity.
        arity = container.arity
    _require(isinstance(gamma, dict), "coalgebra.gamma: expected an object")
    rows = _entries(states, gamma)
    if rows is not None:
        labels = list(map(operator.itemgetter(1), rows))
        skip = 2
    else:
        labels, rows, skip = [], [], 0
        for s in states:
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
            _require("label" in entry, f"coalgebra.gamma.{s}.label: missing")
            label, children = entry["label"], entry.get("children")
            if not isinstance(label, str):
                _require_str(label, f"coalgebra.gamma.{s}.label")
            if not isinstance(children, list):
                raise SpecValidationError(f"coalgebra.gamma.{s}.children: expected an array")
            for ch in children:
                if not isinstance(ch, str):
                    _require_str(ch, f"coalgebra.gamma.{s}.children")
            if plain and label not in arity:
                raise SpecValidationError(f"coalgebra.gamma.{s}.label: {label!r} is not in signature.labels")
            labels.append(label)
            rows.append(children)
    index = dict(zip(states, range(len(states))))
    if len(gamma) != len(index):
        for s in gamma:
            _require(s in index, f"coalgebra.gamma.{s}: not a declared state")
    if plain:
        # After the transitions, so that one with an unlisted label is
        # named as such rather than by its arity entry.
        for a in container.arity:
            _require(a in arity, f"signature.arity.{a}: not in signature.labels")
    # The shape has passed.  A repeated state is the coalgebra's first
    # fault, then the first state that the screen flags, unless a child
    # that is not a state comes earlier: every child is numbered in one
    # pass, and only if one is missing are the states searched for it.
    _require(len(index) == len(states), f"coalgebra: {c._duplicates}")
    # Each state's (sort, label) class key; a plain spec's is its label
    # alone, which hashes as it is.
    keys = labels if plain else list(zip(states.values(), labels))
    # The screen: a row of another length than its class wants, or of no
    # class, is flagged.
    lengths = {k: n + skip for k, n in arity.items()}
    first = next(compress(count(), map(operator.ne, map(len, rows), map(lengths.get, keys))), len(rows))
    # For each class of the rows before it, which items of such a row are
    # children (those rows have their class's length), and each row's
    # child count, read lazily.
    patterns = {k: bytes(skip) + b"\1" * arity[k] for k in set(islice(keys, first))}
    sizes = partial(map, arity.__getitem__, keys)
    if not plain:
        # Their children's sorts.
        sorts = map(states.get, _children(rows, patterns, keys, first))
        wanted = chain.from_iterable(map(container.child_sort.__getitem__, islice(keys, first)))
        wrong = next(compress(count(), map(operator.ne, sorts, wanted)), None)
        if wrong is not None:
            first = _holder(sizes(), wrong)
    try:
        kids = array("l", map(index.__getitem__, _children(rows, patterns, keys, first)))
    except KeyError:
        closed = map(index.__contains__, _children(rows, patterns, keys, first))
        first = min(first, _holder(sizes(), next(compress(count(), map(operator.not_, closed)))))
    order = tuple(states)
    if first < len(order):
        # The fault is kept in no local: its traceback reaches this frame,
        # and the cycle would hold the whole document until the collector
        # runs, which the CLI turns off.
        raise SpecValidationError(f"coalgebra: {c._fault(order[first], PValue(labels[first], rows[first][skip:]), index)}")
    koff = array("l", accumulate(sizes(), initial=0))
    # The classes, numbered in the order of first use.
    column, classes = _first_use(keys)
    class_labels = tuple(classes) if plain else tuple([a for _, a in classes])
    c._adopt(order, kids, koff, column, class_labels, index)
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
    for k, label in enumerate(c._labels):
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
    labels = list(map(_string, c._labels))
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
