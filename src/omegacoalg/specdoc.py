"""Loading and validation of JSON spec documents.

A document carries a schema version, exactly one of a plain ``signature``
or an ``indexed`` container fragment, and a ``coalgebra`` fragment that
must validate against it (arities, state closure, sorts).
"""

from __future__ import annotations

import json

from .container import Container, PValue
from .errors import OmegaCoalgError, SpecValidationError
from .indexed import IndexedCoalgebra, IndexedContainer
from .mtype import Coalgebra

SCHEMA_VERSION = "1"


class SpecDocument:
    """A loaded document: its coalgebra, plain or indexed, and the parsed
    JSON it came from."""

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
        coalgebra = _parse_coalgebra(_parse_signature(doc["signature"]), doc["coalgebra"])
    else:
        coalgebra = _parse_icoalgebra(_parse_indexed(doc["indexed"]), doc["coalgebra"])
    return SpecDocument(coalgebra, doc)


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


def _parse_coalgebra(container: Container, frag) -> Coalgebra:
    _require(isinstance(frag, dict), "coalgebra: expected an object")
    states = frag.get("states")
    gamma = frag.get("gamma")
    _require(isinstance(states, list), "coalgebra.states: expected an array")
    _require(isinstance(gamma, dict), "coalgebra.gamma: expected an object")
    declared = set(container.labels)
    table = {}
    for s in states:
        if not isinstance(s, str):
            _require_str(s, "coalgebra.states")
        pv = _parse_entry(gamma, s)
        if pv.label not in declared:
            raise SpecValidationError(
                f"coalgebra.gamma.{s}.label: {pv.label!r} is not in signature.labels"
            )
        table[s] = pv
    _require_declared(gamma, table)
    # After the transitions, so that one with an unlisted label is named
    # as such rather than by its arity entry.
    for a in container.arity:
        _require(a in declared, f"signature.arity.{a}: not in signature.labels")
    try:
        return Coalgebra(container, table, state_enumeration=tuple(states))
    except OmegaCoalgError as e:
        raise SpecValidationError(f"coalgebra: {e}") from None


def _parse_entry(gamma: dict, s: str) -> PValue:
    """The transition of state ``s`` in ``gamma``, checked for shape only:
    a label and an array of children, all strings.  Each check builds its
    message only when it fails."""
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
    return PValue(label, children)


def _require_declared(gamma: dict, table: dict):
    """Every key of ``gamma`` must name a declared state: an entry for an
    undeclared one would be dropped without a word."""
    for s in gamma:
        if s not in table:
            raise SpecValidationError(f"coalgebra.gamma.{s}: not a declared state")


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


def _parse_icoalgebra(ic: IndexedContainer, frag) -> IndexedCoalgebra:
    _require(isinstance(frag, dict), "coalgebra: expected an object")
    states = frag.get("states")
    gamma = frag.get("gamma")
    _require(
        isinstance(states, dict),
        "coalgebra.states: expected an object mapping state to sort",
    )
    _require(isinstance(gamma, dict), "coalgebra.gamma: expected an object")
    table = {}
    for s, sort in states.items():
        _require_str(sort, f"coalgebra.states.{s}")
        table[s] = _parse_entry(gamma, s)
    _require_declared(gamma, table)
    try:
        return IndexedCoalgebra(
            ic, states=tuple(states), sort_of=dict(states), gamma=table
        )
    except OmegaCoalgError as e:
        raise SpecValidationError(f"coalgebra: {e}") from None


def _gamma(c: Coalgebra) -> dict:
    """The ``gamma`` fragment of a finitely presented coalgebra, plain or
    indexed: each state's transition, read once."""
    gamma = {}
    for s in c.state_enumeration:
        label, children = c.transition(s)
        gamma[s] = {"label": label, "children": list(children)}
    return gamma


def plain_document(coalgebra: Coalgebra) -> dict:
    """Serialize a finitely presented plain coalgebra back to a document."""
    container = coalgebra.container
    return {
        "schema_version": SCHEMA_VERSION,
        "signature": {
            "labels": list(container.labels),
            "arity": {a: container.arity_of(a) for a in container.labels},
        },
        "coalgebra": {"states": list(coalgebra.state_enumeration), "gamma": _gamma(coalgebra)},
    }


def indexed_document(c: IndexedCoalgebra) -> dict:
    """Serialize a finitely presented indexed coalgebra back to a document."""
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
        "coalgebra": {"states": {s: c.sort_of[s] for s in c.state_enumeration}, "gamma": _gamma(c)},
    }


def dump_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
