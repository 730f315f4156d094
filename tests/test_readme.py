"""README's examples run: the Quick tour's Python block under the stdlib's
``doctest``, and each line of the CLI block in-process through
``cli.main``, with the output and the exit code that README shows beside
it."""

import contextlib
import doctest
import io
import re
import shlex
from itertools import takewhile
from pathlib import Path

from omegacoalg import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def block(heading: str) -> str:
    """The first fenced code block under README's ``## heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_quick_tour_runs_as_a_doctest():
    """Each ``>>>`` line of the tour gives the output README shows."""
    tour = doctest.DocTestParser().get_doctest(block("Quick tour"), {}, "README Quick tour", str(README), 0)
    report = []
    failed, tried = doctest.DocTestRunner().run(tour, out=report.append)
    assert failed == 0, "".join(report)
    assert tried == 9


def test_cli_block_runs_as_shown(tmp_path, monkeypatch):
    """Each ``omegacoalg`` line of the CLI block, run in the directory that
    its ``demo fig1 > fig1.json`` line writes to, exits 0 and prints what
    README shows: the ``#  `` lines under it, or the exit code and the line
    named in its comment (``# exit 1, "..."``)."""
    monkeypatch.chdir(tmp_path)
    lines = block("CLI").splitlines()
    shown = {}
    for i, line in enumerate(lines):
        if not line.startswith("omegacoalg "):
            continue
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if target is not None:
            Path(target).write_text(out.getvalue(), encoding="utf-8")
        below = list(takewhile(lambda l: l.startswith("#  "), lines[i + 1 :]))
        named = re.fullmatch(r' exit (\d+), "(.*)"', comment)
        if named:
            want = (int(named[1]), named[2] + "\n")
        elif below:
            want = (0, "".join(l[3:] + "\n" for l in below))
        else:
            want = (0, out.getvalue())
        assert (code, out.getvalue(), err.getvalue()) == (*want, ""), line
        if named or below:
            shown[argv[0]] = want
    assert shown == {"approx": (0, "b(a, b(·, ·))\n"), "bisim": (1, "distinguishable at depth 1\n")}
