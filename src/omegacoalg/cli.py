"""Command-line surface: approximate, decide bisimilarity, minimize, run
the invariant checks, and print the built-in demo specs.

All output is deterministic (sorted JSON keys, canonical block naming).
Exit codes: 0 success / bisimilar, 1 distinguishable or failed checks,
2 validation error, out of memory, stdout closed or unable to encode the
output, or internal error, 3 unknown state.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from itertools import chain
from operator import attrgetter

from . import bisim as bs
from . import catalog, specdoc
from .errors import OmegaCoalgError, SpecValidationError
from .indexed import IndexedCoalgebra, well_sorted_all
from .mtype import Coalgebra, _table_laws, approximate, approximate_all

EXIT_OK = 0
EXIT_DISTINGUISHABLE = 1
EXIT_CHECKS_FAILED = 1
EXIT_VALIDATION = 2
EXIT_UNKNOWN_STATE = 3


# The longest text of a shared node that :func:`_emit` keeps, in characters.
# A node expanded instead costs microseconds of Python at each of its
# occurrences, a kept text well under a nanosecond per character written: a
# shorter limit expands more nodes (JSON of ``t -> b(t, t)`` at depth 18
# renders about 4x slower at 8 KiB), a longer one keeps more text for no
# steady gain.
_SHORT = 1 << 16


class _Long(Exception):
    """A shared node's text passed ``_SHORT`` characters."""


def _emit(root, write, parts) -> None:
    """Write the expanded rendering of the tree ``root`` through ``write``,
    piece by piece.

    ``parts(t)`` renders one node: a string for a node without children,
    else the ``(head, separator, tail)`` written around its children.  A
    separator or tail may be a tuple instead of a string, which ``parts``
    turns into its string when it is written, so that no open node holds
    text that grows with the depth.  The rendering of a node depends on the
    node alone, so a node reached along two or more edges is rendered once
    into a string, lowest stage first so that the shared nodes below it are
    ready, and kept while it is at most ``_SHORT`` characters long: its
    rendering is abandoned once it passes that length, and the node is then
    expanded wherever it is reached, over its children's kept strings.  Every
    other node is expanded inline from an explicit stack.  The cost is
    O(distinct nodes + output bytes) time, an abandoned rendering being
    shorter than the node's text, and O(``_SHORT`` x shared nodes + depth)
    memory besides the tree; nothing recurses.
    """
    refs = {}
    todo = [root]
    while todo:
        for ch in todo.pop().children:
            if ch in refs:
                refs[ch] += 1
            else:
                refs[ch] = 1
                todo.append(ch)
    memo = {}
    shared = sorted((t for t, k in refs.items() if k > 1), key=attrgetter("depth"))
    del refs
    pieces = []
    size = 0

    def keep(piece):
        nonlocal size
        size += len(piece)
        if size > _SHORT:
            raise _Long
        pieces.append(piece)

    for t in shared:
        try:
            _expand(t, keep, parts, memo)
            memo[t] = "".join(pieces)
        except _Long:
            pass
        pieces.clear()
        size = 0
    _expand(root, write, parts, memo)


def _expand(root, write, parts, memo) -> None:
    stack = [root]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        cls = item.__class__
        if cls is str:
            write(item)
            continue
        if cls is tuple:
            write(parts(item))
            continue
        text = memo.get(item)
        if text is None:
            text = parts(item)
            if text.__class__ is tuple:
                head, sep, tail = text
                write(head)
                push(tail)
                children = item.children
                for ch in children[:0:-1]:
                    push(ch)
                    push(sep)
                push(children[0])
                continue
        write(text)


def _render(t, parts, write, end):
    if write is not None:
        _emit(t, write, parts)
        write(end)
        return None
    pieces = []
    _emit(t, pieces.append, parts)
    pieces.append(end)
    return "".join(pieces)


def _text_parts(t):
    if t.is_trunc:
        return "·"
    if not t.children:
        return str(t.label)
    return (f"{t.label}(", ", ", ")")


def render_text(t, write=None):
    """Display form: '·' for Trunc, labels with parenthesized children.

    Returns the text; given ``write``, passes it to ``write`` in pieces
    instead and returns None.  Shared subtrees are rendered once while
    their text is short (see :func:`_emit`), but the text is the expanded
    tree.
    """
    return _render(t, _text_parts, write, "")


def _json_parts(root_depth: int):
    """``parts`` of the JSON layout of ``json.dumps(..., sort_keys=True,
    indent=2)`` for a tree of depth ``root_depth``.  Every child sits one
    stage below its parent (:func:`omegacoalg.container.make_node`), so a
    node at depth d is nested ``root_depth - d`` levels deep, 4 spaces per
    level, wherever it occurs.  A node's separator and tail are the tuples
    ``(level, None)`` and ``(level, node)``, so the pads and the label are
    built only when they are written."""

    def parts(t):
        if t.__class__ is tuple:
            level, node = t
            pad = "    " * level
            if node is None:
                return ",\n" + pad + "    "
            return "\n" + pad + "  ],\n" + pad + '  "label": ' + json.dumps(node.label) + "\n" + pad + "}"
        if t.is_trunc:
            return "null"
        level = root_depth - t.depth
        pad = "    " * level
        if not t.children:
            return "{\n" + pad + '  "children": [],\n' + pad + '  "label": ' + json.dumps(t.label) + "\n" + pad + "}"
        return ("{\n" + pad + '  "children": [\n' + pad + "    ", (level, None), (level, t))

    return parts


def tree_json(t, write=None):
    """The tree as a JSON document: Trunc is null, a node is an object with
    ``label`` and ``children``.  The text is byte for byte
    ``json.dumps(tree, sort_keys=True, indent=2) + "\\n"`` of that nested
    form (labels are JSON strings or numbers), written without building it.

    Returns the text; given ``write``, passes it to ``write`` in pieces
    instead and returns None.
    """
    return _render(t, _json_parts(t.depth), write, "\n")


def _depth(text: str) -> int:
    """The argparse type of every --depth: a non-negative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="omegacoalg")
    sub = p.add_subparsers(dest="command", required=True)

    approx = sub.add_parser("approx", help="print the depth-n observation of a state")
    approx.add_argument("--spec", required=True)
    approx.add_argument("--state", required=True)
    approx.add_argument("--depth", type=_depth, required=True)
    approx.add_argument("--format", choices=("text", "json"), default="text")

    bisim = sub.add_parser(
        "bisim",
        help="decide bisimilarity of two states",
        description=(
            "Decide whether two states are bisimilar; if not, print the "
            "smallest depth at which their observations differ."
        ),
    )
    bisim.add_argument("--spec", required=True)
    bisim.add_argument("--left", required=True)
    bisim.add_argument("--right", required=True)
    bisim.add_argument(
        "--algorithm",
        choices=("partition", "bounded"),
        default="partition",
        help=(
            "partition (default): exact answer from a union-find search "
            "over child pairs, O(n r alpha(n)) for n states of arity at "
            "most r; "
            "bounded: the depth oracle, which compares the depth-n "
            "observations for every n <= --depth and reports 'bisimilar' "
            "when none differ"
        ),
    )
    bisim.add_argument(
        "--depth", type=_depth, default=None, help="depth bound of --algorithm bounded"
    )

    minimize = sub.add_parser(
        "minimize",
        help="print the quotient spec",
        description=(
            "Print the quotient by bisimilarity, computed by partition "
            "refinement in O(m log n) for n states and m edges."
        ),
    )
    minimize.add_argument("--spec", required=True)

    check = sub.add_parser("check", help="run the invariant suite on a spec")
    check.add_argument("--spec", required=True)
    check.add_argument("--depth", type=_depth, default=30)

    demo = sub.add_parser("demo", help="print a built-in example spec")
    demo.add_argument("name", choices=sorted(DEMOS))
    return p


# The built-in example specs, each made when its name is asked for.
DEMOS = {
    "stream": lambda: Coalgebra(
        catalog.stream_container(("0", "1")),
        {"lo": ("0", ("hi",)), "hi": ("1", ("lo",))},
        state_enumeration=("lo", "hi"),
    ),
    "conat": lambda: Coalgebra(
        catalog.conat_container(),
        {"inf": ("S", ("inf",)), "two": ("S", ("one",)), "one": ("S", ("zero",)), "zero": ("Z", ())},
        state_enumeration=("inf", "two", "one", "zero"),
    ),
    "fig1": catalog.fig1_coalgebra,
    "parity": catalog.parity_coalgebra,
}


def cmd_approx(args) -> int:
    """Print the depth-n observation of a state as text or JSON.

    The observation is a hash-consed DAG; it is written out as the expanded
    tree, straight to stdout in pieces, in O(distinct nodes + output bytes)
    time and without recursion (see :func:`_emit`).  Besides the DAG and its
    level table, the render holds O(``_SHORT`` x shared nodes + depth)
    memory, whatever the output's size: no open node holds its indent, and
    a shared node's text is kept only while short.  The output of a
    branching state still grows exponentially with the depth.
    """
    c = specdoc.load_spec(args.spec).coalgebra
    if args.state not in c.state_enumeration:
        print(f"unknown state: {args.state}", file=sys.stderr)
        return EXIT_UNKNOWN_STATE
    t = approximate(c, args.state, args.depth)
    write = sys.stdout.write
    if args.format == "text":
        render_text(t, write)
        write("\n")
    else:
        tree_json(t, write)
    return EXIT_OK


def cmd_bisim(args) -> int:
    """Print 'bisimilar' (exit 0) or 'distinguishable at depth k' (exit 1).

    The default algorithm, partition, is the exact union-find pair search
    :func:`omegacoalg.bisim.divergence_depth`; bounded is the depth oracle,
    which compares observations up to --depth only.
    """
    c = specdoc.load_spec(args.spec).coalgebra
    bounded = args.algorithm == "bounded"
    if bounded and args.depth is None:
        print("--depth is required with --algorithm bounded", file=sys.stderr)
        return EXIT_VALIDATION
    for s in (args.left, args.right):
        if s not in c.state_enumeration:
            print(f"unknown state: {s}", file=sys.stderr)
            return EXIT_UNKNOWN_STATE
    i, j = c._sort(args.left), c._sort(args.right)
    if i != j:
        states = f"states {args.left!r} and {args.right!r}"
        print(f"sort mismatch: {states} have sorts {i!r} and {j!r}", file=sys.stderr)
        return EXIT_VALIDATION
    if bounded:
        k = bs.first_divergence_depth(c, args.left, args.right, args.depth)
    else:
        k = bs.divergence_depth(c, args.left, args.right)
    if k is None:
        print("bisimilar")
        return EXIT_OK
    print(f"distinguishable at depth {k}")
    return EXIT_DISTINGUISHABLE


def cmd_minimize(args) -> int:
    """Print the quotient by bisimilarity as a spec document of the same
    kind, by partition refinement in O(m log n).  An indexed coalgebra is
    refined with the sort joining the label in the first partition, so
    that states of different sorts are never merged."""
    quotient = bs.minimize(specdoc.load_spec(args.spec).coalgebra)
    print(specdoc.dump_document(quotient), end="")
    return EXIT_OK


def cmd_check(args) -> int:
    """Run the invariant suite and print one PASS/FAIL line per invariant
    (exit 1 if any fails).

    The level table of every state up to --depth is built once, level by
    level, in O(|S| depth r) for |S| states of arity at most r; each law is
    then read off it against truncation, ``out``/``into`` or the
    transition (:func:`omegacoalg.mtype._table_laws`).  An indexed spec is
    also checked well sorted on that same table, with each state's sort
    read once.
    """
    c = specdoc.load_spec(args.spec).coalgebra
    verdicts = _table_laws(c, args.depth)
    if isinstance(c, IndexedCoalgebra):
        names = (
            "well-sorted",
            "compatibility",
            "i-out-i-into-roundtrip",
            "iunfold-is-morphism",
            "iunfold-uniqueness",
        )
        states = c.state_enumeration
        sorts = list(map(c._sort, states))
        table = approximate_all(c, args.depth)
        # Each distinct (sort, entry) pair of a level once: entries are
        # interned, so states that agree to that depth share one.
        trees = chain.from_iterable(dict.fromkeys(zip(sorts, map(level.__getitem__, states))) for level in table)
        verdicts = (well_sorted_all(c.container, trees),) + verdicts
    else:
        names = ("compatibility", "out-into-roundtrip", "unfold-is-morphism", "unfold-uniqueness")
    for name, passed in zip(names, verdicts):
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if all(verdicts) else EXIT_CHECKS_FAILED


def cmd_demo(args) -> int:
    print(specdoc.dump_document(DEMOS[args.name]()), end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "approx": cmd_approx,
        "bisim": cmd_bisim,
        "minimize": cmd_minimize,
        "check": cmd_check,
        "demo": cmd_demo,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: not a fault of the command.  The failed
        # write or flush drops what stdout held, so the flush at shutdown
        # fails no second time.
        print("error: stdout closed", file=sys.stderr)
        return EXIT_VALIDATION
    except UnicodeEncodeError as e:
        # A label that stdout's encoding cannot write, such as a lone
        # surrogate, or any non-ASCII text under PYTHONIOENCODING=ascii.
        print(f"error: stdout cannot encode the output: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except SpecValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OmegaCoalgError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        # Answered below, once the exception is dropped: its traceback holds
        # the command's frames, and with them what the command built.
        pass
    except Exception as e:
        # Python's own exit code for an uncaught exception, 1, would read
        # as "distinguishable".
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    print("error: out of memory", file=sys.stderr)
    return EXIT_VALIDATION


def run() -> None:
    """The process entry of ``python -m omegacoalg`` and of the
    ``omegacoalg`` console script: run :func:`main` without the cyclic
    garbage collector and exit with its code.

    A command's heap is interned trees, their key tuples and level dicts,
    which hold no bulk reference cycles, so the collector would only walk
    it: during the command, and again in the full collections that
    interpreter shutdown runs.  It is turned off for the command, and the
    heap is frozen (``gc.freeze``) before the exit, which keeps it out of
    those last collections.  Shutdown still flushes stdout and runs atexit
    handlers, so the output and the exit code are those of :func:`main`,
    which itself leaves the collector as it found it.  A command's output
    is flushed inside :func:`main`, so a reader that closed stdout is
    answered there, and the flush at shutdown has nothing left to write.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
