"""The ``approx`` renderers: the shared-node emitters must write exactly the
expanded tree that a naive recursive rendering writes."""

import json
import subprocess
import sys

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
)
def test_emitters_match_recursive_reference_property(c, depth, names):
    """Every state at a drawn depth, its labels renamed to drawn names that
    include escaped ones, renders as the recursive reference does."""
    c = relabelled(c, dict(zip("xyz", names)))
    for s in c.state_enumeration:
        assert_renders_like_reference(approximate(c, s, depth))


@settings(max_examples=200, deadline=None)
@given(small_indexed_coalgebras(), st.integers(0, 8))
def test_indexed_emitters_match_recursive_reference_property(c, depth):
    for s in c.state_enumeration:
        assert_renders_like_reference(iapproximate(c, s, depth).tree)


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


def test_deep_approx_needs_no_recursion(tmp_path):
    """``approx`` renders deep observations with the recursion limit at 100."""
    spec = tmp_path / "stream.json"
    spec.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "signature": {"labels": ["a"], "arity": {"a": 1}},
                "coalgebra": {"states": ["s"], "gamma": {"s": {"label": "a", "children": ["s"]}}},
            }
        )
    )
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
