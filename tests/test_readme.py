"""README's examples run.  Every ``>>>`` example runs under the stdlib's
``doctest``; every ``omegacoalg`` line runs in-process through
``cli.main``, with the output and the exit code that README shows beside
it; every ``python3 demos/...`` line runs as a subprocess and exits 0; and
every JSON block is the document of a built-in demo.  README holds no
other example: each line of its fenced blocks is one of these, an output
line, or a command that installs or tests the checkout."""

import contextlib
import doctest
import io
import json
import os
import re
import shlex
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

from omegacoalg import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
# Shell lines that install or test the checkout: not examples of the program.
SETUP = ("pip install ", "python3 -m pytest", "python3 tools/")
# A CLI line, after its environment assignments, if any.
CLI_LINE = re.compile(r"(?:[A-Z_]+=\S* )*omegacoalg ")


def section(heading: str) -> str:
    """README's ``## heading`` section, up to the next ``## `` heading."""
    return TEXT.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def fences(text: str) -> list:
    """The fenced code blocks of ``text``, in order, as (language, body)."""
    return [tuple(part.split("\n", 1)) for part in text.split("```")[1::2]]


def doctests(text: str, name: str) -> list:
    """The ``python`` blocks of ``text`` as doctests, numbered in order."""
    parser = doctest.DocTestParser()
    bodies = [body for lang, body in fences(text) if lang == "python"]
    return [parser.get_doctest(body, {}, f"{name} {k}", str(README), 0) for k, body in enumerate(bodies, 1)]


def run_doctests(tests: list) -> int:
    """Run ``tests`` in order in one namespace, as one session, and return
    how many examples ran; every one must give the output shown."""
    globs, tried = {}, 0
    for test in tests:
        test.globs = globs
        report = []
        failed, n = doctest.DocTestRunner().run(test, out=report.append, clear_globs=False)
        assert failed == 0, "".join(report)
        tried += n
    return tried


def test_quick_tour_runs_as_a_doctest():
    """Each ``>>>`` line of the tour gives the output README shows."""
    (tour,) = doctests(section("Quick tour"), "README Quick tour")
    assert run_doctests([tour]) == 9


def test_every_python_example_runs_as_a_doctest():
    """Every ``>>>`` example of README, the blocks read in order as one
    session, gives the output README shows."""
    tried = run_doctests(doctests(TEXT, "README python block"))
    assert tried == TEXT.count("\n>>> ") > 9


def run_cli_lines(lines: list, monkeypatch) -> list:
    """Run each CLI line of ``lines`` through ``cli.main``, in the current
    directory, and check it against what README shows: the ``#  `` lines
    under it (exit 0), or the exit code and the one line named in its
    comment (``# exit N, "..."``), on stdout for exit 0 or 1 and on stderr
    otherwise; with neither, it must exit 0 with nothing on stderr.  A
    line may set environment variables first and send stdout to a file
    (``> file``).  Returns each line's command and what it showed."""
    shown = []
    for i, line in enumerate(lines):
        if not CLI_LINE.match(line):
            continue
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        env = list(takewhile(lambda w: "=" in w, words))
        argv = words[len(env) + 1 :]
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        out, err = io.StringIO(), io.StringIO()
        with monkeypatch.context() as m, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for assignment in env:
                m.setenv(*assignment.split("=", 1))
            code = cli.main(argv)
        if target is not None:
            Path(target).write_text(out.getvalue(), encoding="utf-8")
        below = list(takewhile(lambda l: l.startswith("#  "), lines[i + 1 :]))
        named = re.fullmatch(r' exit (\d+), "(.*)"', comment)
        if named:
            code_shown, text = int(named[1]), named[2] + "\n"
            want = (code_shown, text, "") if code_shown < 2 else (code_shown, "", text)
        elif below:
            want = (0, "".join(l[3:] + "\n" for l in below), "")
        else:
            want = (0, out.getvalue(), "")
        assert (code, out.getvalue(), err.getvalue()) == want, line
        if named or below:
            shown.append((argv[0], want))
    return shown


def test_cli_block_runs_as_shown(tmp_path, monkeypatch):
    """Each ``omegacoalg`` line of the CLI section's blocks, run in order in
    the directory that their ``demo ... > file`` lines write to, gives the
    exit code and the output that README shows."""
    monkeypatch.chdir(tmp_path)
    lines = [l for lang, body in fences(section("CLI")) if lang == "sh" for l in body.splitlines()]
    shown = run_cli_lines(lines, monkeypatch)
    assert ("approx", (0, "b(a, b(·, ·))\n", "")) in shown
    assert ("bisim", (1, "distinguishable at depth 1\n", "")) in shown
    # Each exit code of the contract is shown at least once.
    assert {code for _, (code, *_) in shown} == {0, 1, 2, 3}


def test_demo_lines_exit_0():
    """Each ``python3 demos/...`` line of README runs as a subprocess, with
    the library that this test imports on its path, and exits 0."""
    demos = re.findall(r"^python3 (demos/\S+\.py)", TEXT, re.M)
    assert sorted(demos) == sorted(str(p.relative_to(ROOT)) for p in (ROOT / "demos").glob("*.py"))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for demo in demos:
        done = subprocess.run([sys.executable, demo], cwd=ROOT, env=env, capture_output=True, text=True)
        assert done.returncode == 0, (demo, done.stderr)


def test_json_blocks_are_demo_documents():
    """Each JSON block of README is the document that ``demo NAME``
    prints for a built-in NAME, with its keys in any order."""
    documents = []
    for name in sorted(cli.DEMOS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["demo", name]) == 0
        documents.append(json.loads(out.getvalue()))
    blocks = [json.loads(body) for lang, body in fences(TEXT) if lang == "json"]
    assert blocks
    for doc in blocks:
        assert doc in documents


def test_readme_holds_no_example_left_unrun():
    """Every fenced block of README is one that a test above runs or
    checks, line by line: a doctest block, a JSON block, or a shell block
    whose lines are CLI lines of the CLI section with their shown output,
    demo lines, or commands that install or test the checkout."""
    cli_lines = [l for lang, body in fences(section("CLI")) if lang == "sh" for l in body.splitlines()]
    for lang, body in fences(TEXT):
        assert lang in ("python", "sh", "json"), lang
        if lang == "python":
            assert body.startswith(">>> "), body
        for line in body.splitlines() if lang == "sh" else ():
            if CLI_LINE.match(line) or line.startswith("#  "):
                assert line in cli_lines, line
            else:
                assert line.startswith(("python3 demos/",) + SETUP), line
