"""The ``approx`` renderers: the shared-node emitters must write exactly the
expanded tree that a naive recursive rendering writes."""

import json
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest

from hypothesis import given, settings, strategies as st

from omegacoalg import Coalgebra, Container, approximate, cli
from omegacoalg.indexed import iapproximate

from conftest import small_coalgebras, small_indexed_coalgebras

# Label names that the JSON encoder escapes: non-ASCII, a quote, a backslash.
ESCAPED_LABELS = ("é", "λ\"q", "\\", "☃")


def reference_text(t) -> str:
    """The recursive renderer the emitter replaces."""
    if t.is_trunc:
        return "·"
    if not t.children:
        return str(t.label)
    return f"{t.label}({', '.join(reference_text(ch) for ch in t.children)})"


def reference_tree(t):
    if t.is_trunc:
        return None
    return {"label": t.label, "children": [reference_tree(ch) for ch in t.children]}


def reference_json(t) -> str:
    return json.dumps(reference_tree(t), sort_keys=True, indent=2) + "\n"


def assert_renders_like_reference(t):
    for render, reference in ((cli.render_text, reference_text), (cli.tree_json, reference_json)):
        want = reference(t)
        assert render(t) == want
        pieces = []
        assert render(t, pieces.append) is None
        assert "".join(pieces) == want


def relabelled(c: Coalgebra, names: dict) -> Coalgebra:
    container = Container(
        arity={names[a]: c.container.arity_of(a) for a in c.container.labels},
        labels=tuple(names[a] for a in c.container.labels),
    )
    gamma = {}
    for s in c.state_enumeration:
        label, children = c.transition(s)
        gamma[s] = (names[label], children)
    return Coalgebra(container, gamma, state_enumeration=c.state_enumeration)


def leaves_below_root(t) -> bool:
    return any(not ch.children and not ch.is_trunc for ch in _nodes(t) if ch is not t)


def shares_a_subtree(t) -> bool:
    """Some node is reached along two different edges."""
    seen = set()
    for node in _nodes(t):
        for ch in node.children:
            if ch in seen:
                return True
            seen.add(ch)
    return False


def _nodes(t):
    seen, todo = {t}, [t]
    while todo:
        node = todo.pop()
        yield node
        for ch in node.children:
            if ch not in seen:
                seen.add(ch)
                todo.append(ch)


@settings(max_examples=200, deadline=None)
@given(
    small_coalgebras(),
    st.integers(0, 8),
    st.lists(st.sampled_from(ESCAPED_LABELS + ("x", "y", "z")), min_size=3, max_size=3, unique=True),
    st.sampled_from((0, 1, 12, 60, cli._SHORT)),
)
def test_emitters_match_recursive_reference_property(c, depth, names, limit):
    """Every state at a drawn depth, its labels renamed to drawn names that
    include escaped ones, renders as the recursive reference does.  The
    kept-text limit is drawn too: below the shared nodes' lengths, they are
    expanded where they are reached."""
    c = relabelled(c, dict(zip("xyz", names)))
    with mock.patch.object(cli, "_SHORT", limit):
        for s in c.state_enumeration:
            assert_renders_like_reference(approximate(c, s, depth))


@settings(max_examples=200, deadline=None)
@given(small_indexed_coalgebras(), st.integers(0, 8))
def test_indexed_emitters_match_recursive_reference_property(c, depth):
    for s in c.state_enumeration:
        assert_renders_like_reference(iapproximate(c, s, depth).tree)


def binary() -> Coalgebra:
    """``t -> b(t, t)``: every node below the root is shared."""
    return Coalgebra(Container(arity={"b": 2}, labels=("b",)), {"t": ("b", ("t", "t"))}, state_enumeration=("t",))


def test_long_shared_nodes_of_binary_tree():
    """At these depths the root's child, shared, has more than ``_SHORT``
    characters in either format, so it is expanded where reached."""
    c = binary()
    for render, reference, depth in ((cli.render_text, reference_text, 15), (cli.tree_json, reference_json, 10)):
        t = approximate(c, "t", depth)
        want = reference(t)
        # The root's text is its child's twice, plus under 100 characters.
        assert len(want) > 2 * (cli._SHORT + 100)
        assert render(t) == want
        pieces = []
        assert render(t, pieces.append) is None
        assert "".join(pieces) == want


def test_long_shared_node_between_unshared_and_short_shared_nodes():
    """``r -> a(n, m)``, ``n -> c(x)``, ``m -> d(x)``, ``x -> b(y, y)``,
    ``y -> b(y, y)``: at depth D, the node of ``x`` at depth D - 2 is
    shared by the unshared nodes of ``n`` and ``m``, its text is long, and
    the nodes of ``y`` below it are shared, the lowest ones short."""
    container = Container(arity={"a": 2, "b": 2, "c": 1, "d": 1}, labels=("a", "b", "c", "d"))
    gamma = {"r": ("a", ("n", "m")), "n": ("c", ("x",)), "m": ("d", ("x",)), "x": ("b", ("y", "y")), "y": ("b", ("y", "y"))}
    c = Coalgebra(container, gamma, state_enumeration=tuple(gamma))
    for render, depth in ((cli.render_text, 16), (cli.tree_json, 12)):
        t = approximate(c, "r", depth)
        n, m = t.children
        x = n.children[0]
        edges = [ch for node in _nodes(t) for ch in node.children]
        assert (edges.count(n), edges.count(m), edges.count(x)) == (1, 1, 2)
        assert len(render(x)) > cli._SHORT
        assert len(render(approximate(c, "y", 2))) < cli._SHORT
        assert_renders_like_reference(t)


def counting_sink():
    """A ``write`` that keeps only the number of characters written."""
    count = [0]

    def write(piece):
        count[0] += len(piece)

    return write, count


def test_render_memory_is_bounded_on_binary_tree():
    """Rendering ``t -> b(t, t)`` into a sink that keeps nothing allocates
    under 1 MB at its peak, for 1.6 MB of text at depth 18 and 5.6 MB of
    JSON at depth 14: the kept texts of shared nodes are short."""
    c = binary()
    for render, depth, size in ((cli.render_text, 18, 6 * 2**18 - 5), (cli.tree_json, 14, 5603327)):
        t = approximate(c, "t", depth)
        write, count = counting_sink()
        tracemalloc.start()
        try:
            render(t, write)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count[0] == size
        assert peak < 2**20, (render.__name__, depth, peak)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB, os.wait4")
def test_deep_json_render_peak_rss(tmp_path):
    """``approx --format json`` at depth 10^4 on a one-state stream writes
    about 1 GB; the process peaks under 64 MB, because no open level holds
    its indent."""
    spec = tmp_path / "stream.json"
    spec.write_text(json.dumps(stream_doc()))
    args = ["approx", "--spec", str(spec), "--state", "s", "--depth", "10000", "--format", "json"]
    # A child's ru_maxrss counts the resident set of the process that
    # started it, so a small interpreter starts the command, not this one.
    spawner = (
        "import os, subprocess, sys\n"
        "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(p.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", spawner, sys.executable, "-m", "omegacoalg", *args],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    code, maxrss_kib = map(int, r.stdout.split())
    assert code == 0
    print(f"approx --format json at depth 10^4: peak RSS {maxrss_kib / 1024:.1f} MB (bound 64)")
    assert maxrss_kib < 64 * 1024, maxrss_kib


def test_emitters_leaves_shared_subtrees_and_escapes():
    """One tree with everything the property may miss: arity-0 leaves below
    the root, a subtree shared along several edges at several levels, and
    labels the JSON encoder escapes."""
    container = Container(arity={"é": 2, "λ\"q": 0, "\\": 3}, labels=("é", "λ\"q", "\\"))
    gamma = {"r": ("\\", ("p", "p", "z")), "p": ("é", ("z", "r")), "z": ("λ\"q", ())}
    c = Coalgebra(container, gamma, state_enumeration=("r", "p", "z"))
    for depth in range(7):
        t = approximate(c, "r", depth)
        if depth >= 3:
            assert leaves_below_root(t) and shares_a_subtree(t)
        assert_renders_like_reference(t)
    assert cli.render_text(approximate(c, "r", 2)) == '\\(é(·, ·), é(·, ·), λ"q)'
    assert '"label": "\\u00e9"' in cli.tree_json(approximate(c, "p", 1))


def test_emitters_on_depth_zero_and_leaf_roots():
    container = Container(arity={"a": 0}, labels=("a",))
    c = Coalgebra(container, {"s": ("a", ())}, state_enumeration=("s",))
    assert cli.render_text(approximate(c, "s", 0)) == "·"
    assert cli.tree_json(approximate(c, "s", 0)) == "null\n"
    for depth in (1, 5):
        t = approximate(c, "s", depth)
        assert cli.render_text(t) == "a"
        assert cli.tree_json(t) == '{\n  "children": [],\n  "label": "a"\n}\n'


def stream_json(depth: int) -> str:
    """The JSON of the depth-n observation of a one-state stream ``s -> a(s)``,
    written out level by level."""
    heads, tails = [], []
    for level in range(depth):
        pad = "    " * level
        heads.append("{\n" + pad + '  "children": [\n' + pad + "    ")
        tails.append("\n" + pad + "  ],\n" + pad + '  "label": "a"\n' + pad + "}")
    return "".join(heads) + "null" + "".join(reversed(tails)) + "\n"


def test_stream_json_closed_form():
    for depth in range(6):
        tree = None
        for _ in range(depth):
            tree = {"label": "a", "children": [tree]}
        assert stream_json(depth) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def stream_doc() -> dict:
    """The spec of the one-state stream ``s -> a(s)``."""
    return {
        "schema_version": "1",
        "signature": {"labels": ["a"], "arity": {"a": 1}},
        "coalgebra": {"states": ["s"], "gamma": {"s": {"label": "a", "children": ["s"]}}},
    }


def test_deep_approx_needs_no_recursion(tmp_path):
    """``approx`` renders deep observations with the recursion limit at 100."""
    spec = tmp_path / "stream.json"
    spec.write_text(json.dumps(stream_doc()))
    # Exit 99 if the command raised the limit instead of doing without.
    prog = (
        "import sys\n"
        "from omegacoalg.cli import main\n"
        "sys.setrecursionlimit(100)\n"
        "code = main(sys.argv[1:])\n"
        "sys.exit(code if sys.getrecursionlimit() == 100 else 99)\n"
    )
    cases = [("json", 500, stream_json(500)), ("text", 10**4, "a(" * 10**4 + "·" + ")" * 10**4 + "\n")]
    for fmt, depth, want in cases:
        args = ["approx", "--spec", str(spec), "--state", "s", "--depth", str(depth), "--format", fmt]
        r = subprocess.run(
            [sys.executable, "-c", prog, *args], capture_output=True, text=True, encoding="utf-8"
        )
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        assert r.stdout == want
