import ast
import contextlib
import gc
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from omegacoalg import PValue, cli, mtype, specdoc
from omegacoalg.container import _tree
from omegacoalg.bisim import first_divergence_depth
from omegacoalg.indexed import IndexedCoalgebra

from conftest import JSON_VALUES, mutated_demos, small_indexed_coalgebras

PKG = [sys.executable, "-m", "omegacoalg"]


def run_cli(*args, **kw):
    return subprocess.run(PKG + list(args), capture_output=True, text=True, **kw)


@pytest.fixture()
def fig1_spec(tmp_path):
    out = run_cli("demo", "fig1")
    path = tmp_path / "fig1.json"
    path.write_text(out.stdout)
    return str(path)


@pytest.fixture()
def cycle_spec(tmp_path):
    doc = {
        "schema_version": "1",
        "signature": {"labels": ["x", "y"], "arity": {"x": 1, "y": 1}},
        "coalgebra": {
            "states": ["s0", "s1", "s2"],
            "gamma": {
                "s0": {"label": "x", "children": ["s1"]},
                "s1": {"label": "x", "children": ["s2"]},
                "s2": {"label": "x", "children": ["s0"]},
            },
        },
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    return str(path)


def open_spec(tmp_path, name):
    return json.dumps(
        {
            "schema_version": "1",
            "signature": {"labels": ["x", "y"], "arity": {"x": 1, "y": 1}},
            "coalgebra": {
                "states": ["s0", "s1", "s2"],
                "gamma": {
                    "s0": {"label": "x", "children": ["s1"]},
                    "s1": {"label": "x", "children": ["s2"]},
                    "s2": {"label": "y", "children": ["s0"]},
                },
            },
        }
    )


def test_approx_fig1_depth2(fig1_spec):
    r = run_cli("approx", "--spec", fig1_spec, "--state", "t", "--depth", "2")
    assert r.returncode == 0
    assert r.stdout.strip() == "b(a, b(·, ·))"


def test_approx_depth0(fig1_spec):
    r = run_cli("approx", "--spec", fig1_spec, "--state", "t", "--depth", "0")
    assert r.returncode == 0
    assert r.stdout.strip() == "·"


def test_approx_json_format(fig1_spec):
    r = run_cli(
        "approx", "--spec", fig1_spec, "--state", "u", "--depth", "1", "--format", "json"
    )
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"label": "a", "children": []}


def test_approx_unknown_state(fig1_spec):
    r = run_cli("approx", "--spec", fig1_spec, "--state", "zz", "--depth", "1")
    assert r.returncode == 3


def test_approx_invalid_spec(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "signature": {"labels": ["a"], "arity": {"a": 2}},
                "coalgebra": {
                    "states": ["s"],
                    "gamma": {"s": {"label": "a", "children": []}},
                },
            }
        )
    )
    r = run_cli("approx", "--spec", str(path), "--state", "s", "--depth", "1")
    assert r.returncode == 2
    assert "arity" in r.stderr


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin on this system")
def test_a_piped_spec_is_read_once(tmp_path):
    """A spec piped through ``--spec /dev/stdin``, a stream that cannot be
    read twice, gives what the same spec in a file gives: a faulty one
    (fig1 with a third child on ``t``, which fails the first parse) names
    its own fault with exit 2, not "not valid JSON", and a valid one is
    checked."""
    good = run_cli("demo", "fig1").stdout
    doc = json.loads(good)
    doc["coalgebra"]["gamma"]["t"]["children"].append("t")
    fault = "validation error: coalgebra: state 't': label 'b' has arity 2, got 3 children\n"
    for text, code, stderr in ((json.dumps(doc), 2, fault), (good, 0, "")):
        path = tmp_path / "spec.json"
        path.write_text(text)
        from_file = run_cli("check", "--spec", str(path), "--depth", "5")
        piped = run_cli("check", "--spec", "/dev/stdin", "--depth", "5", input=text)
        assert (from_file.returncode, from_file.stderr) == (code, stderr)
        assert (piped.returncode, piped.stdout, piped.stderr) == (code, from_file.stdout, stderr)
    assert "PASS" in piped.stdout and "FAIL" not in piped.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin on this system")
def test_a_piped_specs_raw_is_its_document():
    """The ``raw`` of a spec loaded from a pipe is the stdlib's decoding of
    the piped text, key order included, though the pipe cannot be read a
    second time."""
    text = run_cli("demo", "fig1").stdout
    script = "import json; from omegacoalg import specdoc; print(json.dumps(specdoc.load_spec('/dev/stdin').raw))"
    r = subprocess.run([sys.executable, "-c", script], input=text, capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == json.dumps(json.loads(text)) + "\n"


def test_bisim_cycle_partition(cycle_spec):
    r = run_cli("bisim", "--spec", cycle_spec, "--left", "s0", "--right", "s1")
    assert r.returncode == 0
    assert r.stdout.strip() == "bisimilar"


def test_bisim_modified_cycle(tmp_path):
    path = tmp_path / "cycle2.json"
    path.write_text(open_spec(tmp_path, "cycle2"))
    r = run_cli("bisim", "--spec", str(path), "--left", "s0", "--right", "s1")
    assert r.returncode == 1
    assert r.stdout.strip() == "distinguishable at depth 2"


def test_bisim_algorithms_agree(cycle_spec, tmp_path):
    path = tmp_path / "cycle2.json"
    path.write_text(open_spec(tmp_path, "cycle2"))
    for spec in (cycle_spec, str(path)):
        part = run_cli("bisim", "--spec", spec, "--left", "s0", "--right", "s1")
        bound = run_cli(
            "bisim",
            "--spec",
            spec,
            "--left",
            "s0",
            "--right",
            "s1",
            "--algorithm",
            "bounded",
            "--depth",
            "6",
        )
        assert part.returncode == bound.returncode
        assert part.stdout == bound.stdout


def test_bisim_bounded_needs_depth(cycle_spec):
    r = run_cli(
        "bisim", "--spec", cycle_spec, "--left", "s0", "--right", "s1",
        "--algorithm", "bounded",
    )
    assert r.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("approx", "--state", "t", "--depth", "-3"),
        ("bisim", "--left", "t", "--right", "u", "--algorithm", "bounded", "--depth", "-3"),
        ("check", "--depth", "-3"),
    ],
)
def test_negative_depth_rejected(fig1_spec, args):
    r = run_cli(args[0], "--spec", fig1_spec, *args[1:])
    assert r.returncode == 2
    assert "--depth: must be a non-negative integer, got '-3'" in r.stderr
    assert "Traceback" not in r.stderr


def test_approx_depth_far_beyond_bound(fig1_spec):
    r = run_cli("approx", "--spec", fig1_spec, "--state", "t", "--depth", str(10**10))
    assert r.returncode == 2
    assert "exceeds bound" in r.stderr
    assert "Traceback" not in r.stderr


def test_bisim_indexed_sort_mismatch(tmp_path):
    parity = run_cli("demo", "parity").stdout
    path = tmp_path / "parity.json"
    path.write_text(parity)
    r = run_cli("bisim", "--spec", str(path), "--left", "p", "--right", "q")
    assert r.returncode == 2
    assert "sort" in r.stderr


def test_minimize_cycle(cycle_spec):
    r = run_cli("minimize", "--spec", cycle_spec)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["coalgebra"]["states"] == ["s0"]
    assert doc["coalgebra"]["gamma"]["s0"] == {"label": "x", "children": ["s0"]}


def test_minimize_idempotent_and_reloadable(cycle_spec, tmp_path):
    first = run_cli("minimize", "--spec", cycle_spec).stdout
    path = tmp_path / "min.json"
    path.write_text(first)
    again = run_cli("minimize", "--spec", str(path)).stdout
    assert again == first
    check = run_cli("check", "--spec", str(path), "--depth", "10")
    assert check.returncode == 0


def test_check_demo_specs_pass():
    for name in ("stream", "conat", "fig1", "parity"):
        demo = run_cli("demo", name)
        assert demo.returncode == 0
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as fh:
            fh.write(demo.stdout)
        r = run_cli("check", "--spec", path, "--depth", "30")
        os.unlink(path)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "FAIL" not in r.stdout
        assert "PASS" in r.stdout


def test_check_depth0_still_validates(fig1_spec):
    r = run_cli("check", "--spec", fig1_spec, "--depth", "0")
    assert r.returncode == 0


def test_check_corrupted_spec(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "signature": {"labels": ["a", "b"], "arity": {"a": 0, "b": 2}},
                "coalgebra": {
                    "states": ["t"],
                    "gamma": {"t": {"label": "b", "children": ["t"]}},
                },
            }
        )
    )
    r = run_cli("check", "--spec", str(path), "--depth", "5")
    assert r.returncode == 2


def test_output_determinism(cycle_spec):
    a = run_cli("minimize", "--spec", cycle_spec).stdout
    b = run_cli("minimize", "--spec", cycle_spec).stdout
    assert a == b
    d1 = run_cli("demo", "fig1").stdout
    d2 = run_cli("demo", "fig1").stdout
    assert d1 == d2


def test_demo_output_loads_everywhere(tmp_path):
    demo = run_cli("demo", "conat").stdout
    path = tmp_path / "conat.json"
    path.write_text(demo)
    r = run_cli("approx", "--spec", str(path), "--state", "inf", "--depth", "3")
    assert r.returncode == 0
    assert r.stdout.strip() == "S(S(S(·)))"
    m = run_cli("minimize", "--spec", str(path))
    assert m.returncode == 0


def test_indexed_approx(tmp_path):
    parity = run_cli("demo", "parity").stdout
    path = tmp_path / "parity.json"
    path.write_text(parity)
    r = run_cli("approx", "--spec", str(path), "--state", "p", "--depth", "2")
    assert r.returncode == 0
    assert r.stdout.strip() == "E(O(·))"


def test_env_depth_bound(tmp_path, fig1_spec):
    import os

    env = dict(os.environ, OMEGACOALG_MAX_DEPTH="2")
    r = subprocess.run(
        PKG + ["approx", "--spec", fig1_spec, "--state", "t", "--depth", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 2
    assert "depth" in r.stderr.lower()


@pytest.mark.parametrize("value", ["abc", "", "1e3", "-1"])
def test_env_depth_bound_not_a_non_negative_integer(fig1_spec, value):
    """A bound that is not a non-negative integer is an error naming the
    variable, not an internal error."""
    import os

    env = dict(os.environ, OMEGACOALG_MAX_DEPTH=value)
    r = subprocess.run(
        PKG + ["approx", "--spec", fig1_spec, "--state", "t", "--depth", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error: OMEGACOALG_MAX_DEPTH")
    assert "internal error" not in r.stderr


@pytest.mark.parametrize("command", ["approx", "check"])
@pytest.mark.parametrize("limit", [None, "0"], ids=["digit-limit", "no-digit-limit"])
def test_env_depth_bound_of_5000_digits(fig1_spec, command, limit):
    """A bound of 5000 digits is one error line naming the variable, exit
    2, where the interpreter limits integer digits (Python 3.11 and later,
    4300 by default).  Without the limit (``PYTHONINTMAXSTRDIGITS=0``, or
    Python 3.10) it is accepted, and the command answers as it does under
    the default bound."""
    extra = ["--state", "t"] if command == "approx" else []
    args = [command, "--spec", fig1_spec, *extra, "--depth", "5"]
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env.pop("OMEGACOALG_MAX_DEPTH", None)
    default = run_cli(*args, env=env)
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    r = run_cli(*args, env=dict(env, OMEGACOALG_MAX_DEPTH="9" * 5000))
    if limit is None and hasattr(sys, "set_int_max_str_digits"):
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("error: OMEGACOALG_MAX_DEPTH cannot be read as an integer: ")
        assert r.stderr.count("\n") == 1
    else:
        assert default.returncode == 0
        assert (r.returncode, r.stdout, r.stderr) == (default.returncode, default.stdout, default.stderr)


def indexed_doc(arity, gamma):
    return {
        "schema_version": "1",
        "indexed": {
            "sorts": ["e"],
            "labels": {"e": {"E": {"arity": arity, "child_sorts": ["e"]}}},
        },
        "coalgebra": {"states": {"p": "e"}, "gamma": gamma},
    }


@pytest.mark.parametrize(
    "doc",
    [
        # a child that is not a state of an indexed spec
        indexed_doc(1, {"p": {"label": "E", "children": ["ghost"]}}),
        # JSON booleans are not arities, plain or indexed
        {
            "schema_version": "1",
            "signature": {"labels": ["x"], "arity": {"x": True}},
            "coalgebra": {"states": ["s"], "gamma": {"s": {"label": "x", "children": ["s"]}}},
        },
        indexed_doc(True, {"p": {"label": "E", "children": ["p"]}}),
    ],
    ids=["indexed-unknown-child", "plain-bool-arity", "indexed-bool-arity"],
)
def test_malformed_spec_exits_2(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    r = run_cli("check", "--spec", str(path), "--depth", "3")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("validation error:")
    assert "Traceback" not in r.stderr


def plain_doc(labels=("a",), arity=None, states=("q",), gamma=None):
    return {
        "schema_version": "1",
        "signature": {"labels": list(labels), "arity": arity or {"a": 1}},
        "coalgebra": {
            "states": list(states),
            "gamma": gamma or {"q": {"label": "a", "children": ["q"]}},
        },
    }


def parity_doc(sorts=("e",), child_sorts=("e",), states=None, gamma=None):
    return {
        "schema_version": "1",
        "indexed": {
            "sorts": list(sorts),
            "labels": {"e": {"E": {"arity": 1, "child_sorts": list(child_sorts)}}},
        },
        "coalgebra": {
            "states": states or {"q": "e"},
            "gamma": gamma or {"q": {"label": "E", "children": ["q"]}},
        },
    }


def _step(label, *children):
    return {"label": label, "children": list(children)}


EMPTY_PLAIN = {
    "schema_version": "1",
    "signature": {"labels": ["a"], "arity": {"a": 1}},
    "coalgebra": {"states": [], "gamma": {}},
}
EMPTY_INDEXED = {
    "schema_version": "1",
    "indexed": {"sorts": ["e"], "labels": {"e": {"E": {"arity": 1, "child_sorts": ["e"]}}}},
    "coalgebra": {"states": {}, "gamma": {}},
}
# Two classes, a and b, that are already stable: the first refinement round
# splits nothing, and p2 and q2 merge into p1 and q1.
STABLE_CLASSES = {
    "schema_version": "1",
    "signature": {"labels": ["a", "b"], "arity": {"a": 1, "b": 1}},
    "coalgebra": {
        "states": ["p1", "q1", "p2", "q2"],
        "gamma": {"p1": _step("a", "q1"), "q1": _step("b", "p2"), "p2": _step("a", "q2"), "q2": _step("b", "p1")},
    },
}
STABLE_QUOTIENT = {
    "schema_version": "1",
    "signature": {"labels": ["a", "b"], "arity": {"a": 1, "b": 1}},
    "coalgebra": {"states": ["p1", "q1"], "gamma": {"p1": _step("a", "q1"), "q1": _step("b", "p1")}},
}


def two_sorts_doc(states):
    """The document of ``conftest.two_sorts_sharing_a_label()`` over
    ``states``, a map from state to sort: sorts x and y each offer a leaf
    label named a, and every state is that leaf."""
    leaf = {"arity": 0, "child_sorts": []}
    return {
        "schema_version": "1",
        "indexed": {"sorts": ["x", "y"], "labels": {"x": {"a": leaf}, "y": {"a": leaf}}},
        "coalgebra": {"states": states, "gamma": {s: _step("a") for s in states}},
    }


@pytest.mark.parametrize(
    "doc, quotient",
    [
        (EMPTY_PLAIN, EMPTY_PLAIN),
        (EMPTY_INDEXED, EMPTY_INDEXED),
        (plain_doc(), plain_doc()),
        (parity_doc(), parity_doc()),
        (STABLE_CLASSES, STABLE_QUOTIENT),
        (two_sorts_doc({"p": "x", "q": "y", "r": "x"}), two_sorts_doc({"p": "x", "q": "y"})),
    ],
    ids=["empty-plain", "empty-indexed", "one-state-plain", "one-state-indexed", "stable-classes", "two-sorts"],
)
def test_minimize_edge_cases(tmp_path, doc, quotient):
    """No state, one state, classes that are already the fixpoint (no
    round splits a block), and two sorts that share a label name, whose
    states stay apart (p and q) while r merges into p: ``minimize`` prints
    the quotient document, in the stdlib's sorted text, and it is a fixed
    point."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    text = json.dumps(quotient, sort_keys=True, indent=2) + "\n"
    assert _run_in_process(["minimize", "--spec", str(path)]) == (0, text, "")
    path.write_text(text)
    assert _run_in_process(["minimize", "--spec", str(path)]) == (0, text, "")


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            plain_doc(arity={"a": 1, "x": 0}, gamma={"q": {"label": "x", "children": []}}),
            "coalgebra.gamma.q.label: 'x' is not in signature.labels",
        ),
        (plain_doc(labels=(["a"],)), "signature.labels: expected a string"),
        (plain_doc(states=(["q"],)), "coalgebra.states: expected a string"),
        (
            plain_doc(gamma={"q": {"label": ["a"], "children": ["q"]}}),
            "coalgebra.gamma.q.label: expected a string",
        ),
        (
            plain_doc(gamma={"q": {"label": "a", "children": [["q"]]}}),
            "coalgebra.gamma.q.children: expected a string",
        ),
        (parity_doc(sorts=(["e"],)), "indexed.sorts: expected a string"),
        (parity_doc(child_sorts=(["e"],)), "indexed.labels.e.E.child_sorts: expected a string"),
        (parity_doc(states={"q": ["e"]}), "coalgebra.states.q: expected a string"),
        (
            parity_doc(gamma={"q": {"label": ["E"], "children": ["q"]}}),
            "coalgebra.gamma.q.label: expected a string",
        ),
        (
            parity_doc(gamma={"q": {"label": "E", "children": [["q"]]}}),
            "coalgebra.gamma.q.children: expected a string",
        ),
        (plain_doc(arity={"a": 1, "ghost": 2}), "signature.arity.ghost: not in signature.labels"),
        (
            {**parity_doc(), "indexed": {"sorts": ["e"], "labels": {"e": {}, "ghost": {}}}},
            "indexed.labels.ghost: not in indexed.sorts",
        ),
    ],
    ids=[
        "label-outside-signature-labels",
        "signature-label-list",
        "plain-state-list",
        "plain-label-list",
        "plain-child-list",
        "indexed-sort-list",
        "indexed-child-sort-list",
        "indexed-state-sort-list",
        "indexed-label-list",
        "indexed-child-list",
        "unlisted-arity-entry",
        "unlisted-sort-entry",
    ],
)
def test_spec_boundary_exits_2(tmp_path, doc, message):
    """Names the spec cannot mean (lists, a label outside signature.labels)
    are validation errors, not tracebacks with the 'distinguishable' code."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    r = run_cli("approx", "--spec", str(path), "--state", "q", "--depth", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith(f"validation error: {message}")
    assert "Traceback" not in r.stderr


def sorted_doc(sorts=("x",), arity=1, child_sorts=("x",), states=None):
    """An indexed spec with the one label a at sort x, and one state p."""
    return {
        "schema_version": "1",
        "indexed": {
            "sorts": list(sorts),
            "labels": {"x": {"a": {"arity": arity, "child_sorts": list(child_sorts)}}},
        },
        "coalgebra": {"states": states or {"p": "x"}, "gamma": {"p": {"label": "a", "children": ["p"]}}},
    }


@pytest.mark.parametrize(
    "doc, command, code, err",
    [
        (None, ["bisim", "--left", "zz", "--right", "t"], 3, "unknown state: zz"),
        (None, ["bisim", "--left", "t", "--right", "zz"], 3, "unknown state: zz"),
        (sorted_doc(sorts=("x", "x")), [], 2, "validation error: indexed: duplicate sorts"),
        (
            sorted_doc(arity=2),
            [],
            2,
            "validation error: indexed: label 'a' at sort 'x': 1 child sorts, arity 2",
        ),
        (
            sorted_doc(child_sorts=("zz",)),
            [],
            2,
            "validation error: indexed: label 'a' at sort 'x' has child sort 'zz' outside the sort list",
        ),
        (
            sorted_doc(states={"p": "zz"}),
            [],
            2,
            "validation error: coalgebra: state 'p' has unknown sort 'zz'",
        ),
        (
            plain_doc(labels=("a", "a")),
            [],
            2,
            "validation error: signature: label enumeration contains duplicates",
        ),
        (plain_doc(states=("p",)), [], 2, "validation error: coalgebra.gamma.p: missing"),
        (
            plain_doc(states=("p",), gamma={"p": 1}),
            [],
            2,
            "validation error: coalgebra.gamma.p: expected an object",
        ),
        (
            plain_doc(states=("p",), gamma={"p": {"label": "a", "children": "p"}}),
            [],
            2,
            "validation error: coalgebra.gamma.p.children: expected an array",
        ),
    ],
    ids=[
        "bisim-unknown-left",
        "bisim-unknown-right",
        "indexed-duplicate-sorts",
        "indexed-arity-against-child-sorts",
        "indexed-child-sort-outside-sorts",
        "indexed-state-of-unknown-sort",
        "plain-duplicate-labels",
        "gamma-entry-missing",
        "gamma-entry-not-an-object",
        "gamma-children-not-an-array",
    ],
)
def test_rare_input_branches(tmp_path, fig1_spec, doc, command, code, err):
    """Inputs that the other tests never reach: each gives its exit code
    and exactly one line on stderr, and nothing on stdout.  Without a
    document the command runs on fig1; without a command it is check."""
    if doc is None:
        path = fig1_spec
    else:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
    command = command or ["check", "--depth", "2"]
    r = run_cli(command[0], "--spec", str(path), *command[1:])
    assert (r.returncode, r.stdout, r.stderr) == (code, "", err + "\n")


@pytest.mark.parametrize(
    "gamma, line",
    [
        (
            {"q": {"label": "a", "children": [1]}, "r": {"label": "x", "children": []}},
            "validation error: coalgebra.gamma.q.children: expected a string, got 1\n",
        ),
        (
            {"q": {"label": "x", "children": []}, "r": {"label": "a", "children": [1]}},
            "validation error: coalgebra.gamma.q.label: 'x' is not in signature.labels\n",
        ),
    ],
    ids=["child-then-label", "label-then-child"],
)
def test_spec_with_two_faults_names_the_earlier_state(tmp_path, gamma, line):
    """Of a non-string child and an undeclared label at two states, the
    fault at the state listed first is the one reported."""
    path = tmp_path / "two-faults.json"
    path.write_text(json.dumps(plain_doc(states=("q", "r"), gamma=gamma)))
    r = run_cli("minimize", "--spec", str(path))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", line)


LOOP = {"label": "a", "children": ["q"]}


@pytest.mark.parametrize(
    "doc, line",
    [
        (
            plain_doc(
                states=("q", "r"),
                gamma={"q": {"label": "a", "children": []}, "r": {"label": "a", "children": [1]}},
            ),
            "validation error: coalgebra.gamma.r.children: expected a string, got 1\n",
        ),
        (
            plain_doc(
                states=("q", "r"),
                gamma={"q": {"label": "a", "children": ["zz"]}, "r": {"label": "x", "children": []}},
            ),
            "validation error: coalgebra.gamma.r.label: 'x' is not in signature.labels\n",
        ),
        (
            plain_doc(gamma={"q": {"label": "a", "children": ["zz"]}, "ghost": LOOP}),
            "validation error: coalgebra.gamma.ghost: not a declared state\n",
        ),
        (
            plain_doc(states=("q", "q", "r"), gamma={"q": LOOP, "r": {"label": "a", "children": [1]}}),
            "validation error: coalgebra.gamma.r.children: expected a string, got 1\n",
        ),
        (
            parity_doc(
                sorts=("e", "o"),
                states={"q": "e", "r": "e", "p": "o"},
                gamma={
                    "q": {"label": "E", "children": ["p"]},
                    "r": {"label": "E", "children": [1]},
                    "p": {"label": "E", "children": ["p"]},
                },
            ),
            "validation error: coalgebra.gamma.r.children: expected a string, got 1\n",
        ),
    ],
    ids=[
        "arity-then-child",
        "dangling-then-label",
        "dangling-then-ghost-key",
        "duplicate-then-child",
        "indexed-child-sort-then-child",
    ],
)
def test_shape_fault_outranks_an_earlier_coalgebra_fault(tmp_path, doc, line):
    """A fault of the document's shape is reported even where a fault that
    the coalgebra refuses (an arity, a dangling child, a repeated state, a
    child of the wrong sort) sits at an earlier state: the coalgebra's
    fault is held until the whole document's shape has passed."""
    path = tmp_path / "cross-phase.json"
    path.write_text(json.dumps(doc))
    r = run_cli("minimize", "--spec", str(path))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", line)


# Two sorts: e with label E over one child of sort e, o with the leaf O.
TWO_SORTS = {
    "sorts": ["e", "o"],
    "labels": {"e": {"E": {"arity": 1, "child_sorts": ["e"]}}, "o": {"O": {"arity": 0, "child_sorts": []}}},
}


@pytest.mark.parametrize(
    "states, gamma, fault",
    [
        (
            ("q", "r"),
            {"q": {"label": "a", "children": ["zz"]}, "r": {"label": "a", "children": []}},
            "transition of 'q' leaves the state enumeration: 'zz'",
        ),
        (
            ("q", "r"),
            {"q": {"label": "a", "children": []}, "r": {"label": "a", "children": ["zz"]}},
            "state 'q': label 'a' has arity 1, got 0 children",
        ),
        (
            ("q",),
            {"q": {"label": "a", "children": ["zz", "q"]}},
            "state 'q': label 'a' has arity 1, got 2 children",
        ),
        (
            ("q", "r", "q"),
            {"q": {"label": "a", "children": ["zz"]}, "r": {"label": "a", "children": []}},
            "state enumeration contains duplicates",
        ),
        (
            ("p", "q", "r"),
            {
                "p": {"label": "a", "children": ["p"]},
                "q": {"label": "a", "children": []},
                "r": {"label": "a", "children": ["zz"]},
            },
            "state 'q': label 'a' has arity 1, got 0 children",
        ),
        (
            {"p": "e", "q": "e", "r": "e", "z": "o"},
            {
                "p": {"label": "E", "children": ["p"]},
                "q": {"label": "E", "children": ["z"]},
                "r": {"label": "E", "children": ["zz"]},
                "z": {"label": "O", "children": []},
            },
            "state 'q': child 0 has sort 'o', expected 'e'",
        ),
        (
            {"q": "e", "r": "e"},
            {"q": {"label": "E", "children": ["zz"]}, "r": {"label": "E", "children": []}},
            "transition of 'q' leaves the state set: 'zz'",
        ),
    ],
    ids=[
        "dangling-then-arity",
        "arity-then-dangling",
        "arity-and-dangling",
        "duplicate-and-dangling",
        "clean-arity-dangling",
        "indexed-clean-sort-dangling",
        "indexed-dangling-then-arity",
    ],
)
def test_first_coalgebra_fault_in_state_order(tmp_path, states, gamma, fault):
    """Of the faults the coalgebra refuses, a repeated state is named first,
    then the first state in enumeration order whose transition has one,
    its arity (or a child's sort) before a child outside the states, even
    when a later state's child is not a state and a clean state comes
    first.  States given as a mapping to sorts make an indexed spec over
    ``TWO_SORTS``."""
    if isinstance(states, dict):
        doc = {"schema_version": "1", "indexed": TWO_SORTS, "coalgebra": {"states": states, "gamma": gamma}}
    else:
        doc = plain_doc(states=states, gamma=gamma)
    path = tmp_path / "coalgebra-faults.json"
    path.write_text(json.dumps(doc))
    r = run_cli("minimize", "--spec", str(path))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"validation error: coalgebra: {fault}\n")


HUGE_ARITY = 10**11
HUGE_UNUSED = plain_doc(
    labels=("a", "b"),
    arity={"a": HUGE_ARITY, "b": 0},
    gamma={"q": {"label": "b", "children": []}},
)
HUGE_USED = plain_doc(arity={"a": HUGE_ARITY}, gamma={"q": {"label": "a", "children": []}})


def test_unused_huge_arity_allocates_nothing(tmp_path):
    """A declared arity allocates nothing until a transition uses it: a
    label of arity 10^11 that no state uses passes ``check``, and
    ``minimize`` prints the quotient with the arity kept."""
    path = tmp_path / "unused.json"
    path.write_text(json.dumps(HUGE_UNUSED))
    r = run_cli("check", "--spec", str(path), "--depth", "3")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines() == [
        "compatibility: PASS",
        "out-into-roundtrip: PASS",
        "unfold-is-morphism: PASS",
        "unfold-uniqueness: PASS",
    ]
    r = run_cli("minimize", "--spec", str(path))
    assert (r.returncode, r.stderr) == (0, "")
    assert json.loads(r.stdout)["signature"]["arity"] == {"a": HUGE_ARITY, "b": 0}


@pytest.mark.parametrize("command", ["check", "minimize"])
def test_used_huge_arity_with_too_few_children_exits_2(tmp_path, command):
    """A transition with the wrong number of children for a label of arity
    10^11 is refused by its count, without allocating the arity."""
    path = tmp_path / "used.json"
    path.write_text(json.dumps(HUGE_USED))
    r = run_cli(command, "--spec", str(path))
    message = "label 'a' has arity 100000000000, got 0 children"
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"validation error: coalgebra: state 'q': {message}\n"


def random_plain_doc(rng, n):
    labels = {"a": 0, "b": 1, "c": 2}
    states = [f"s{i}" for i in range(n)]
    gamma = {}
    for s in states:
        a = rng.choice("abbcc")
        gamma[s] = {"label": a, "children": [rng.choice(states) for _ in range(labels[a])]}
    return {
        "schema_version": "1",
        "signature": {"labels": list(labels), "arity": labels},
        "coalgebra": {"states": states, "gamma": gamma},
    }


def random_indexed_doc(rng, n):
    sorts = {"e": {"E": ["o"], "F": ["e", "o"], "Z": []}, "o": {"O": ["e"], "P": ["o", "o"]}}
    states = {f"q{i}": "eo"[i % 2] for i in range(n)}
    by_sort = {i: [q for q in states if states[q] == i] for i in sorts}
    gamma = {}
    for q, i in states.items():
        a = rng.choice(sorted(sorts[i]))
        gamma[q] = {"label": a, "children": [rng.choice(by_sort[j]) for j in sorts[i][a]]}
    return {
        "schema_version": "1",
        "indexed": {
            "sorts": list(sorts),
            "labels": {
                i: {a: {"arity": len(cs), "child_sorts": cs} for a, cs in per.items()}
                for i, per in sorts.items()
            },
        },
        "coalgebra": {"states": states, "gamma": gamma},
    }


@pytest.mark.parametrize(
    "doc, checks",
    [(random_plain_doc(random.Random(3), 1500), 4), (random_indexed_doc(random.Random(4), 300), 5)],
    ids=["plain-1500", "indexed-300"],
)
def test_check_reads_depth_bound_per_table_growth(tmp_path, monkeypatch, doc, checks):
    """The level table is built once for every state, so ``check`` reads the
    depth bound when the table grows, not once per (state, depth): here at
    most twice, for --depth and for the one extra stage that ``out``
    observes, where a per-observation read would make 10^5 reads."""
    reads = []
    bound = mtype.depth_bound

    def counted():
        reads.append(1)
        return bound()

    monkeypatch.setattr(mtype, "depth_bound", counted)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--spec", str(path), "--depth", "20"])
    assert code == 0
    assert out.getvalue().count(": PASS\n") == checks
    assert 1 <= len(reads) <= 2


def _wrap_approximate(monkeypatch):
    """Rebind ``mtype.approximate`` to a pass-through wrapper in every
    ``omegacoalg`` module namespace that holds it, as the bench tracer's
    ``install`` (``perfbench/tracer.py``) does."""
    original = mtype.approximate

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    for name, module in sorted(sys.modules.items()):
        if name.startswith("omegacoalg"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    assert mtype.approximate is wrapper and mtype.Coalgebra._observe is original


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_check_reads_no_stage_per_state_and_depth(tmp_path, monkeypatch, traced):
    """``check`` reads the laws off whole level rows, not one
    ``MElement.at`` call per (state, depth): on a 1500-state random spec
    at depth 20 it makes fewer than 2 calls per state, where a per-stage
    read makes |S| (depth + 1) for the roundtrip alone.  It counts calls
    and times nothing.  The bound holds too with ``approximate`` rebound
    to a wrapper, as in a traced bench run."""
    if traced:
        _wrap_approximate(monkeypatch)
    doc = random_plain_doc(random.Random(3), 1500)
    calls = []
    at = mtype.MElement.at

    def counted(self, n):
        calls.append(n)
        return at(self, n)

    monkeypatch.setattr(mtype.MElement, "at", counted)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_in_process(["check", "--spec", str(path), "--depth", "20"])
    assert (code, out.count(": PASS\n"), err) == (0, 4, "")
    assert len(calls) < 2 * len(doc["coalgebra"]["states"])


def test_indexed_check_fills_the_table_once(tmp_path, monkeypatch):
    """An indexed ``check`` checks well-sortedness on the table that the
    laws filled: one sweep of the level table for the whole command."""
    doc = random_indexed_doc(random.Random(5), 60)
    sweeps = []
    fill = mtype._fill_rows

    def counted(c, n):
        sweeps.append(n)
        fill(c, n)

    monkeypatch.setattr(mtype, "_fill_rows", counted)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_in_process(["check", "--spec", str(path), "--depth", "8"])
    assert (code, out.count(": PASS\n"), err) == (0, 5, "")
    assert sweeps == [8]


STREAM_DOC = json.loads(specdoc.dump_document(cli.DEMOS["stream"]()))
# The parity demo with a second label F at the even sort, of E's arity and
# child sort, so that a table entry relabelled E -> F stays well sorted.
PARITY_TWO_LABELS = {
    "schema_version": "1",
    "indexed": {
        "sorts": ["e", "o"],
        "labels": {
            "e": {a: {"arity": 1, "child_sorts": ["o"]} for a in ("E", "F")},
            "o": {"O": {"arity": 1, "child_sorts": ["e"]}},
        },
    },
    "coalgebra": {
        "states": {"p": "e", "q": "o", "r": "e"},
        "gamma": {
            "p": {"label": "E", "children": ["q"]},
            "q": {"label": "O", "children": ["p"]},
            "r": {"label": "F", "children": ["q"]},
        },
    },
}


@pytest.mark.parametrize(
    "doc, state, relabel, expected",
    [
        (
            STREAM_DOC,
            "lo",
            {"0": "1"},
            [
                "compatibility: FAIL",
                "out-into-roundtrip: FAIL",
                "unfold-is-morphism: FAIL",
                "unfold-uniqueness: FAIL",
            ],
        ),
        (
            PARITY_TWO_LABELS,
            "p",
            {"E": "F"},
            [
                "well-sorted: PASS",
                "compatibility: FAIL",
                "i-out-i-into-roundtrip: FAIL",
                "iunfold-is-morphism: FAIL",
                "iunfold-uniqueness: FAIL",
            ],
        ),
    ],
    ids=["plain", "indexed"],
)
def test_check_fails_on_a_wrong_table_entry(tmp_path, monkeypatch, doc, state, relabel, expected):
    """Every law ``check`` prints can fail.  The loaded coalgebra's level
    table already holds one wrong but well-shaped entry, at depth 3 of one
    state: another label of the same arity over the right children.  The
    table is filled around it, and every law that reads the table against
    truncation, ``out``/``into`` or the transition reports it."""
    load = specdoc.load_spec

    def corrupted(path):
        loaded = load(path)
        c = loaded.coalgebra
        mtype.approximate(c, state, 3)
        label, children = c.transition(state)
        below = c._levels[2]
        c._levels[3][state] = _tree(3, relabel[label], tuple(below[ch] for ch in children))
        return loaded

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    argv = ["check", "--spec", str(path), "--depth", "6"]
    assert _run_in_process(argv)[0] == 0
    monkeypatch.setattr(specdoc, "load_spec", corrupted)
    code, out, err = _run_in_process(argv)
    assert (code, out.splitlines(), err) == (1, expected, "")


PLAIN_ROUNDTRIP_FAILS = [
    "compatibility: PASS",
    "out-into-roundtrip: FAIL",
    "unfold-is-morphism: PASS",
    "unfold-uniqueness: PASS",
]
INDEXED_ROUNDTRIP_FAILS = [
    "well-sorted: PASS",
    "compatibility: PASS",
    "i-out-i-into-roundtrip: FAIL",
    "iunfold-is-morphism: PASS",
    "iunfold-uniqueness: PASS",
]


@pytest.mark.parametrize(
    "doc, relabel, repoint, expected",
    [
        (STREAM_DOC, {"0": "1"}, {}, PLAIN_ROUNDTRIP_FAILS),
        (PARITY_TWO_LABELS, {"E": "F"}, {}, INDEXED_ROUNDTRIP_FAILS),
        (STREAM_DOC, {}, {"hi": "lo"}, PLAIN_ROUNDTRIP_FAILS),
        (PARITY_TWO_LABELS, {}, {"p": "r"}, INDEXED_ROUNDTRIP_FAILS),
    ],
    ids=["plain-label", "indexed-label", "plain-child", "indexed-child"],
)
def test_check_fails_only_the_roundtrip_on_a_wrong_into(tmp_path, monkeypatch, doc, relabel, repoint, expected):
    """The roundtrip line reads what ``into`` assembles.  With ``into``
    assembling over another label of the same arity, or over a child
    pointed at another state of the same sort, the table is right, so every
    other line passes, and the roundtrip fails: its verdict is read by
    ``verify_morphism``, called once, on ``into . out . unfold``."""
    into, verify_morphism = mtype.into, mtype.verify_morphism
    verified = []

    def counted(*args, **kwargs):
        verified.append(args)
        return verify_morphism(*args, **kwargs)

    def wrong_into(c, v, sort=None):
        label, children = v
        kids = [
            mtype.MElement(c, coalgebra=ch.coalgebra, state=repoint.get(ch.state, ch.state), sort=ch.sort)
            for ch in children
        ]
        return into(c, PValue(relabel.get(label, label), tuple(kids)), sort)

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    argv = ["check", "--spec", str(path), "--depth", "6"]
    assert _run_in_process(argv)[0] == 0
    monkeypatch.setattr(mtype, "into", wrong_into)
    monkeypatch.setattr(mtype, "verify_morphism", counted)
    code, out, err = _run_in_process(argv)
    assert (code, out.splitlines(), err) == (1, expected, "")
    assert len(verified) == 1


def test_check_runs_out_and_into_once_per_state(tmp_path, monkeypatch):
    """The roundtrip still runs the structure maps: on a 1500-state random
    spec and on a 300-state random indexed one, at depth 20, ``check``
    calls ``out`` and ``into`` exactly once per state, and
    ``verify_morphism`` not at all."""
    calls = {"out": 0, "into": 0, "verify_morphism": 0}
    for name in calls:
        original = getattr(mtype, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mtype, name, counted)
    for doc, checks in ((random_plain_doc(random.Random(3), 1500), 4), (random_indexed_doc(random.Random(4), 300), 5)):
        calls.update(dict.fromkeys(calls, 0))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run_in_process(["check", "--spec", str(path), "--depth", "20"])
        assert (code, out.count(": PASS\n"), err) == (0, checks, "")
        n = len(doc["coalgebra"]["states"])
        assert calls == {"out": n, "into": n, "verify_morphism": 0}


INDEXED_LAWS = ("well-sorted", "compatibility", "i-out-i-into-roundtrip", "iunfold-is-morphism", "iunfold-uniqueness")


@pytest.mark.parametrize("depth", [3, 6])
def test_indexed_check_fails_well_sorted_on_a_wrong_sort_entry(tmp_path, monkeypatch, depth):
    """A table entry of the wrong sort fails ``well-sorted``: the parity
    demo's state p, of sort e, gets at depth ``depth`` an entry labelled O,
    a label only sort o declares, over its right children.  Every other
    state and level is well sorted, and their pairs repeat."""
    load = specdoc.load_spec

    def corrupted(path):
        loaded = load(path)
        c = loaded.coalgebra
        mtype.approximate(c, "p", depth)
        below = c._levels[depth - 1]
        c._levels[depth]["p"] = _tree(depth, "O", (below["q"],))
        return loaded

    path = tmp_path / "parity.json"
    path.write_text(specdoc.dump_document(cli.DEMOS["parity"]()))
    argv = ["check", "--spec", str(path), "--depth", "8"]
    assert _run_in_process(argv) == (0, "".join(f"{name}: PASS\n" for name in INDEXED_LAWS), "")
    monkeypatch.setattr(specdoc, "load_spec", corrupted)
    code, out, err = _run_in_process(argv)
    assert (code, out.splitlines()[0], err) == (1, "well-sorted: FAIL", "")


PLAIN_GHOST = plain_doc(
    gamma={"q": {"label": "a", "children": ["q"]}, "ghost": {"label": "a", "children": ["q"]}}
)
PARITY_GHOST = parity_doc(
    gamma={"q": {"label": "E", "children": ["q"]}, "ghost": {"label": "E", "children": ["q"]}}
)


@pytest.mark.parametrize(
    "doc, command",
    [
        (PLAIN_GHOST, ("approx", "--state", "q", "--depth", "2")),
        (PLAIN_GHOST, ("check", "--depth", "2")),
        (PARITY_GHOST, ("minimize",)),
        (PARITY_GHOST, ("check", "--depth", "2")),
    ],
    ids=["plain-approx", "plain-check", "indexed-minimize", "indexed-check"],
)
def test_undeclared_gamma_state_exits_2(tmp_path, doc, command):
    """A transition for a state the spec does not declare is an error, not
    an entry dropped without a word."""
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(doc))
    r = run_cli(command[0], "--spec", str(path), *command[1:])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "validation error: coalgebra.gamma.ghost: not a declared state\n"


def test_parity_demo_with_ghost_entry_exits_2(tmp_path):
    doc = json.loads(run_cli("demo", "parity").stdout)
    doc["coalgebra"]["gamma"]["ghost"] = {"label": "E", "children": ["q"]}
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(doc))
    r = run_cli("minimize", "--spec", str(path))
    assert r.returncode == 2
    assert r.stderr == "validation error: coalgebra.gamma.ghost: not a declared state\n"


@pytest.mark.parametrize("command", ["bisim", "check"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"[" * 200000 + b"]" * 200000, "spec nests too deeply to parse"),
        (b'{"schema_version": "\xff"}', "spec is not UTF-8 text"),
    ],
    ids=["nested-200000", "not-utf8"],
)
def test_unreadable_spec_exits_2(tmp_path, command, content, message):
    """A spec that cannot be read as JSON text is a validation error, never
    a traceback with the 'distinguishable' code."""
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    extra = ["--left", "a", "--right", "b"] if command == "bisim" else []
    r = run_cli(command, "--spec", str(path), *extra)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith(f"validation error: {message}")


@pytest.mark.parametrize("command", ["bisim", "check"])
@pytest.mark.parametrize("limit", [None, "0"], ids=["digit-limit", "no-digit-limit"])
def test_spec_with_a_5000_digit_integer_exits_2(tmp_path, command, limit):
    """A spec whose arity has 5000 digits is a validation error: where the
    interpreter limits integer digits (Python 3.11 and later, 4300 by
    default) the decode refuses it, and without the limit
    (``PYTHONINTMAXSTRDIGITS=0``, or Python 3.10) the state that uses the
    label has too few children."""
    path = tmp_path / "spec.json"
    path.write_text(
        '{"schema_version": "1", "signature": {"labels": ["a"], "arity": {"a": ' + "9" * 5000 + "}}, "
        '"coalgebra": {"states": ["s"], "gamma": {"s": {"label": "a", "children": []}}}}'
    )
    extra = ["--left", "s", "--right", "s"] if command == "bisim" else []
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    r = run_cli(command, "--spec", str(path), *extra, env=env)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("validation error: ")
    assert r.stderr.count("\n") == 1
    assert "internal error" not in r.stderr


def test_internal_error_exits_2(monkeypatch):
    """An exception the library does not expect still exits 2, not 1."""

    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_demo", broken)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["demo", "stream"])
    assert code == 2
    assert err.getvalue() == "internal error: KeyError: 'boom'\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_found_it(fig1_spec, tmp_path, monkeypatch, enabled):
    """Only the process entry (``cli.run``) turns the cyclic collector off
    and freezes the heap: ``cli.main``, which tests and the bench tracer
    call in-process, leaves both as it found them, on every exit code and
    on the internal-error path."""
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    commands = {
        0: [["check", "--spec", fig1_spec, "--depth", "5"], ["demo", "stream"]],
        1: [["bisim", "--spec", fig1_spec, "--left", "t", "--right", "u"]],
        2: [["check", "--spec", str(bad)]],
        3: [["approx", "--spec", fig1_spec, "--state", "zz", "--depth", "1"]],
    }
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = (gc.isenabled(), gc.get_freeze_count())
        for code, argvs in commands.items():
            for argv in argvs:
                assert _run_in_process(argv)[0] == code, argv
                assert (gc.isenabled(), gc.get_freeze_count()) == before, argv

        def broken(args):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "cmd_demo", broken)
        assert _run_in_process(["demo", "stream"]) == (2, "", "internal error: KeyError: 'boom'\n")
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        (gc.enable if was_enabled else gc.disable)()


# Spec files as bytes, with the names to draw states from: any JSON value,
# a mutated demo, arrays nested up to 200000 deep, or any bytes at all.
SPEC_FILES = st.one_of(
    JSON_VALUES.map(lambda v: (json.dumps(v).encode(), ["p", "t"])),
    mutated_demos(),
    st.integers(1, 200000).map(lambda k: (b"[" * k + b"]" * k, ["p"])),
    st.binary(max_size=8).map(lambda b: (b, ["p"])),
)


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(spec=SPEC_FILES, data=st.data())
def test_every_command_keeps_the_exit_code_contract(tmp_path, spec, data):
    """Whatever the spec document, state names and depths, every command
    exits 0, 1, 2 or 3 without a traceback or an internal error, and 1
    only as the answer of ``bisim`` or ``check``.  ``approx`` depths stop at
    8: a mutated spec may branch, and the expanded output then grows
    exponentially with the depth."""
    content, names = spec
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    states = st.sampled_from(names) | st.text(max_size=3)
    depth = st.integers(-2, 50).map(str)
    commands = [
        ["approx", "--state", data.draw(states), "--depth", str(data.draw(st.integers(-2, 8)))]
        + data.draw(st.sampled_from([[], ["--format", "json"]])),
        ["bisim", "--left", data.draw(states), "--right", data.draw(states)],
        ["bisim", "--left", data.draw(states), "--right", data.draw(states)]
        + ["--algorithm", "bounded", "--depth", data.draw(depth)],
        ["minimize"],
        ["check", "--depth", data.draw(depth)],
    ]
    for command in commands:
        code, out, err = _run_in_process([command[0], "--spec", str(path), *command[1:]])
        assert code in (0, 1, 2, 3), (command, code, err)
        assert "Traceback" not in err and "internal error" not in err, (command, err)
        if code == 1:
            assert command[0] in ("bisim", "check"), (command, out)
            assert out.startswith("distinguishable at depth") or ": FAIL" in out, (command, out)
    demo = st.sampled_from(sorted(cli.DEMOS)) | states
    code, out, err = _run_in_process(["demo", data.draw(demo)])
    assert code in (0, 2) and "Traceback" not in err


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(c=small_indexed_coalgebras())
def test_indexed_minimize_property(tmp_path, c):
    """``minimize`` of an indexed spec prints an indexed spec whose states
    are the earliest state of each bisimilarity class, each of its own
    sort, stepping to the representatives of its children; minimizing it
    again prints the same bytes."""
    path = tmp_path / "spec.json"
    path.write_text(specdoc.dump_document(c))
    code, out, err = _run_in_process(["minimize", "--spec", str(path)])
    assert code == 0, err
    doc = json.loads(out)
    q = specdoc.parse_spec(doc).coalgebra
    assert isinstance(q, IndexedCoalgebra)
    # The tables are the coalgebra's one store: no PValue is held before
    # the first read, and one per state after it.
    assert q.gamma is None
    assert q._gamma_cache == {}
    n = len(c.state_enumeration)
    rep = {
        s: next(
            r
            for r in c.state_enumeration
            if first_divergence_depth(c, r, s, n) is None
        )
        for s in c.state_enumeration
    }
    assert set(q.state_enumeration) == set(rep.values())
    for r in q.state_enumeration:
        assert q.sort_of[r] == c.sort_of[r]
        label, children = c.transition(r)
        assert q.transition(r) == PValue(label, tuple(rep[ch] for ch in children))
    assert len(q._gamma_cache) == len(q.state_enumeration)
    path.write_text(out)
    assert _run_in_process(["minimize", "--spec", str(path)]) == (0, out, "")


@pytest.mark.parametrize("make", [random_plain_doc, random_indexed_doc], ids=["plain", "indexed"])
def test_check_reads_each_transition_once(tmp_path, monkeypatch, make):
    """``check`` of a loaded spec makes one transition ``PValue`` per state:
    the loader makes none, and each state's is made on its first read
    (``Coalgebra._read``) and kept, however often the laws read it."""
    doc = make(random.Random(7), 40)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    reads = []
    read = mtype.Coalgebra._read

    def counted(self, s):
        if self.gamma is None:  # the loaded spec, whose tables are its store
            reads.append(s)
        return read(self, s)

    monkeypatch.setattr(mtype.Coalgebra, "_read", counted)
    code, out, err = _run_in_process(["check", "--spec", str(path), "--depth", "6"])
    assert (code, err) == (0, ""), out
    assert sorted(reads) == sorted(doc["coalgebra"]["states"])


def test_import_budget():
    """Importing the CLI, which every command does first, loads none of
    ``dataclasses``, ``inspect`` or ``typing``: together they once took
    most of the package's import time.  ``-S`` keeps a site hook from
    importing them first.  It reads module names only and times nothing."""
    code = (
        "import omegacoalg.cli, sys; "
        "print(*[m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, "\n", "")


def test_process_entry_keeps_the_byte_contract(fig1_spec, tmp_path):
    """``python -m omegacoalg`` runs ``cli.run``, which turns the collector
    off and freezes the heap before the exit: on one command per exit code
    it prints what ``cli.main`` prints in-process, byte for byte, with the
    same code."""
    commands = [
        ["check", "--spec", fig1_spec, "--depth", "5"],
        ["bisim", "--spec", fig1_spec, "--left", "t", "--right", "u"],
        ["bisim", "--spec", fig1_spec, "--left", "t", "--right", "u", "--algorithm", "bounded"],
        ["approx", "--spec", fig1_spec, "--state", "zz", "--depth", "1"],
    ]
    for code, argv in enumerate(commands):
        r = run_cli(*argv)
        assert (r.returncode, r.stdout, r.stderr) == _run_in_process(argv), argv
        assert r.returncode == code, argv


def test_process_entry_writes_a_large_output_whole(tmp_path):
    """The 10 MB JSON of the stream at depth 1000 arrives whole through a
    pipe: the entry exits through ``sys.exit``, so shutdown flushes stdout
    (an exit by ``os._exit`` would drop what is still buffered).  The child
    runs with stdout buffered, as it is by default."""
    stream = cli.DEMOS["stream"]()
    path = tmp_path / "stream.json"
    path.write_text(specdoc.dump_document(stream))
    argv = ["approx", "--spec", str(path), "--state", "lo", "--depth", "1000", "--format", "json"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    r = subprocess.run(PKG + argv, capture_output=True, env=env)
    expected = cli.tree_json(mtype.approximate(stream, "lo", 1000)).encode()
    assert (r.returncode, r.stderr) == (0, b"")
    assert len(r.stdout) == len(expected)
    assert r.stdout == expected


def _stream_approx_argv(tmp_path, depth):
    path = tmp_path / "stream.json"
    path.write_text(specdoc.dump_document(cli.DEMOS["stream"]()))
    return ["approx", "--spec", str(path), "--state", "lo", "--depth", str(depth), "--format", "json"]


def test_process_entry_into_a_closed_pipe(tmp_path):
    """A reader that closes the pipe after one byte of the 10 MB JSON of
    the stream at depth 1000: the command exits 2 with the one line
    ``error: stdout closed``, with no traceback and no "Exception ignored"
    from the flush at shutdown."""
    argv = _stream_approx_argv(tmp_path, 1000)
    with subprocess.Popen(PKG + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
        assert p.stdout.read(1) == b"{"
        p.stdout.close()
        err = p.stderr.read().decode()
        code = p.wait(timeout=60)
    assert (code, err) == (2, "error: stdout closed\n")


def test_stdout_closed_before_reading_is_one_line(tmp_path):
    """A pipe whose reader has closed before the command writes: the
    command exits 2 with the one line ``error: stdout closed``, not an
    internal error, and shutdown adds nothing (no "Exception ignored", no
    exit 120)."""
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run(PKG + _stream_approx_argv(tmp_path, 3), stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (r.returncode, r.stderr) == (2, b"error: stdout closed\n")


@pytest.mark.parametrize(
    "label, encoding, message",
    [
        ("\ud800", "utf-8", "'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed"),
        ("\u00e9", "ascii", "'ascii' codec can't encode character '\\xe9' in position 0: ordinal not in range(128)"),
    ],
    ids=["lone-surrogate", "non-ascii-under-ascii"],
)
def test_label_stdout_cannot_encode_is_one_line(tmp_path, label, encoding, message):
    """``approx --format text`` of a state whose label stdout's encoding
    cannot write exits 2 with one ``error:`` line that names the encoding
    failure, not an internal error.  Only a real process shows it: the
    in-process runs write to a ``StringIO``, which encodes nothing."""
    doc = {
        "schema_version": "1",
        "signature": {"labels": [label], "arity": {label: 1}},
        "coalgebra": {"states": ["s"], "gamma": {"s": {"label": label, "children": ["s"]}}},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONIOENCODING": encoding}
    argv = ["approx", "--spec", str(path), "--state", "s", "--depth", "3", "--format", "text"]
    r = subprocess.run(PKG + argv, capture_output=True, env=env)
    assert (r.returncode, r.stdout) == (2, b"")
    assert r.stderr.decode("ascii") == f"error: stdout cannot encode the output: {message}\n"


def test_stdout_whose_write_fails_is_one_line(monkeypatch):
    """In-process, a stdout whose ``write`` raises ``BrokenPipeError`` is
    reported by :func:`cli.main` as ``error: stdout closed``, exit 2."""

    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", Closed())
    monkeypatch.setattr(sys, "stderr", err)
    assert cli.main(["demo", "stream"]) == 2
    assert err.getvalue() == "error: stdout closed\n"


def test_out_of_memory_is_one_line(tmp_path):
    """A command that runs out of memory exits 2 with the one line
    ``error: out of memory``, not an internal error: ``check --depth
    10000`` of a 1500-state random spec, in one child process that limits
    its own address space to 200 MB."""
    doc = random_plain_doc(random.Random(3), 1500)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    limit = 200 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = ["check", "--spec", str(path), "--depth", "10000"]
    r = subprocess.run(PKG + argv, capture_output=True, text=True, preexec_fn=limit_memory, timeout=60)
    assert (r.returncode, r.stderr) == (2, "error: out of memory\n")


def test_process_entry_runs_atexit_handlers():
    """The entry leaves the collector off and the heap frozen, and still
    exits through ``sys.exit``, so atexit handlers (``coverage run``, for
    one) run after the command's output."""
    code = (
        "import atexit, gc, sys; from omegacoalg import cli; "
        "atexit.register(lambda: print('atexit', gc.isenabled(), gc.get_freeze_count() > 0)); "
        "sys.argv = ['omegacoalg', 'demo', 'stream']; cli.run()"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == specdoc.dump_document(cli.DEMOS["stream"]()) + "atexit False True\n"


def test_both_launchers_share_one_entry():
    """The console script of ``pyproject.toml`` and ``python -m omegacoalg``
    call the same function.  The file is read as text: Python 3.10 has no
    ``tomllib``."""
    root = Path(__file__).resolve().parent.parent
    scripts = (root / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    [(name, target)] = re.findall(r'^(\S+) = "(\S+)"$', scripts, re.M)
    assert name == "omegacoalg"
    module = ast.parse((root / "src" / "omegacoalg" / "__main__.py").read_text())
    imported = {
        alias.asname or alias.name: f"omegacoalg.{node.module}:{alias.name}"
        for node in module.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    called = [
        imported.get(node.value.func.id)
        for node in module.body
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
    ]
    assert called == [target]
    module_name, _, function = target.partition(":")
    assert module_name == "omegacoalg.cli" and callable(getattr(cli, function))


@pytest.mark.parametrize(
    "command",
    [
        ["check", "--spec", "{spec}", "--depth", "5"],
        ["bisim", "--spec", "{spec}", "--left", "p", "--right", "p"],
        ["minimize", "--spec", "{spec}"],
    ],
    ids=["check", "bisim", "minimize"],
)
def test_bench_tracer_runs(tmp_path, command):
    """The bench tracer (``perfbench/tracer.py``) wraps library functions
    by name and reads ``SpecDocument.raw`` and ``Partition.blocks``, so a
    deleted or renamed name that it pins fails here: each command exits 0
    and writes its spans file.
    ``raw`` is the stdlib's decoding of the file, made when the tracer
    reads it, which counts the parity demo's two states and two edges.
    The blocks it reads are built when read, after the refinement's span
    has closed, and it counts the parity demo's two."""
    root = Path(__file__).resolve().parent.parent
    # The library this test imports, wherever it is, not the checkout's.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    spec = tmp_path / "parity.json"
    spec.write_text(run_cli("demo", "parity", env=env).stdout)
    spans = tmp_path / "spans.json"
    argv = [arg.format(spec=spec) for arg in command]
    r = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(spans), "0", "--", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert (r.returncode, r.stderr) == (0, "")
    record = json.loads(spans.read_text())
    assert record["stats"][f"cli.cmd_{command[0]}"][0] == 1 and record["spans"]
    assert (record["counts"]["states"], record["counts"]["edges"]) == (2, 2)
    if command[0] == "minimize":
        assert record["counts"]["refine_blocks"] == 2
