"""Run the mutation catalogue: each mutant replaces one exact snippet of a
module under ``src/omegacoalg`` with a broken version, in a copy of
``src/``, and the tests it lists must fail on that copy.

A snippet that does not occur exactly once in its module is an error, so a
refactor that moves the code must update the catalogue.  The listed tests
first run on an unmodified copy, where every one must pass.  Each run is
``pytest -q --hypothesis-seed=0`` on the mutant's listed tests only, from a
temporary directory, so no hypothesis database or pytest cache is shared
between runs.  Two runs go at once.  Exit 0 when every mutant is killed,
1 when one survives or a run does not end in passed or failed tests, 2
for an error in the catalogue.  Usage: ``python tools/mutants.py``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI = "tests/test_cli.py::"
MTYPE = "tests/test_mtype.py::"
WRONG_INTO = CLI + "test_check_fails_only_the_roundtrip_on_a_wrong_into"
ROUNDTRIP_PROPERTY = MTYPE + "test_roundtrip_rows_give_the_per_element_verdict_property"
TABLE_PROPERTY = MTYPE + "test_table_laws_match_element_library_and_catch_a_wrong_entry_property"
INTERNED = MTYPE + "test_interned_trees_are_their_own_keys_property"
ROWS = MTYPE + "test_full_levels_are_rows_by_state_number_property"

# (name, module, snippet, replacement, tests that must fail)
CATALOGUE = [
    # check's roundtrip line: the reassembly test and the verdict it picks.
    (
        "reassembly test always true",
        "mtype.py",
        "    ext = m.coalgebra\n    if m.sort != c._sort(s)",
        "    return True\n    ext = m.coalgebra\n    if m.sort != c._sort(s)",
        [WRONG_INTO + "[plain-label]", WRONG_INTO + "[indexed-child]"],
    ),
    (
        "reassembly ignores the label",
        "mtype.py",
        "return ext.label == label and ",
        "return ",
        [WRONG_INTO + "[plain-label]", WRONG_INTO + "[indexed-label]"],
    ),
    (
        "reassembly ignores the child states",
        "mtype.py",
        "[(ch.coalgebra, ch.state) for ch in ext.children] == [(c, t) for t in children]",
        "len(ext.children) == len(children)",
        [WRONG_INTO + "[plain-child]", WRONG_INTO + "[indexed-child]"],
    ),
    (
        "reassembly ignores the element's sort",
        "mtype.py",
        "if m.sort != c._sort(s) or type(ext)",
        "if type(ext)",
        [MTYPE + "test_roundtrip_fails_on_an_element_of_another_sort"],
    ),
    (
        "a wrong into read as the morphism law",
        "mtype.py",
        "roundtrip = morphism and base if reassembled else verify_morphism(MorphismCandidate(c, back), depth)",
        "roundtrip = morphism and base",
        [WRONG_INTO + "[plain-label]", WRONG_INTO + "[indexed-child]", ROUNDTRIP_PROPERTY],
    ),
    # The level table and the law kernel.
    (
        "no ragged key in _tree",
        "container.py",
        "                key = (depth, children)\n                break",
        "                break",
        [INTERNED],
    ),
    (
        "the fill always batches",
        "mtype.py",
        "                    if sound:\n",
        "                    if True:\n",
        [INTERNED],
    ),
    (
        "the fill ignores its start row's depths",
        "mtype.py",
        "sound = all(map(operator.eq, map(_depth_of, below), repeat(lo - 1)))",
        "sound = True",
        [INTERNED],
    ),
    (
        "the fill ignores its kept entries' depths",
        "mtype.py",
        "sound = all(t.depth == k for _, t in kept)",
        "sound = True",
        [INTERNED],
    ),
    (
        "the fill drops kept entries",
        "mtype.py",
        "        for p, t in kept:\n            built[p] = t\n",
        "",
        [ROWS],
    ),
    (
        "the fill stores a level unpermuted",
        "mtype.py",
        "levels[k] = list(map(built.__getitem__, place))",
        "levels[k] = built",
        [TABLE_PROPERTY],
    ),
    (
        "a demand fill ignores the strays of the level below",
        "mtype.py",
        "row, below = below, dict(lower)",
        "row, below = below, {}",
        [ROWS],
    ),
    (
        "no depth read in _level_holds",
        "mtype.py",
        "        if not sound and columns and",
        "        if False and columns and",
        [MTYPE + "test_table_laws_read_a_table_one_level_up_as_no_morphism"],
    ),
    (
        "laws always sound",
        "mtype.py",
        "    sound = base\n",
        "    sound = True\n",
        [MTYPE + "test_table_laws_read_a_table_one_level_up_as_no_morphism"],
    ),
    # The loader.
    (
        "fault kept in a local",
        "specdoc.py",
        '        raise SpecValidationError(f"coalgebra: {c._fault(order[first], PValue(labels[first], lists[first]), index)}")',
        "        fault = c._fault(order[first], PValue(labels[first], lists[first]), index)\n"
        '        raise SpecValidationError(f"coalgebra: {fault}")',
        ["tests/test_specdoc.py::test_failed_load_holds_nothing_of_the_document"],
    ),
    (
        "indexed classes keyed by label alone",
        "specdoc.py",
        "keys = labels if plain else list(zip(states.values(), labels))",
        "keys = labels if plain else list(zip(repeat(None), labels))",
        [CLI + "test_minimize_edge_cases[two-sorts]"],
    ),
    # Defined results for every input.
    (
        "no numbering before the tables are adopted",
        "mtype.py",
        "        self._index = {}\n",
        "        self._index = None\n",
        [
            MTYPE + "test_gamma_mapping_missing_a_state_is_invalid",
            MTYPE + "test_validation_reports_the_first_fault_in_enumeration_order[plain-no-gamma]",
        ],
    ),
    (
        "a negative depth passes the depth oracle",
        "bisim.py",
        "    if max_depth < 0:\n        raise _no_stage(max_depth)\n",
        "",
        [MTYPE + "test_negative_depth_rejected"],
    ),
    (
        "a limit family reads a negative stage",
        "chain.py",
        "        if n < 0:\n            raise _no_stage(n)\n        v = self._fn(n)",
        "        v = self._fn(n)",
        [MTYPE + "test_negative_depth_on_every_element"],
    ),
]


def apply(src: Path, module: str, snippet: str, replacement: str) -> None:
    path = src / "omegacoalg" / module
    path.write_text(path.read_text(encoding="utf-8").replace(snippet, replacement), encoding="utf-8")


def run(tests: list, mutant=None) -> tuple:
    """Run ``tests`` on a copy of ``src/``, with ``mutant`` (module,
    snippet, replacement) applied if given: pytest's exit code, its
    output's last line and the seconds taken."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            apply(src, *mutant)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        done = subprocess.run(
            argv + [str(ROOT / t) for t in tests], cwd=tmp, env=env, capture_output=True, text=True
        )
    lines = done.stdout.strip().splitlines() or done.stderr.strip().splitlines() or [""]
    return done.returncode, lines[-1], time.perf_counter() - start


def main() -> int:
    for name, module, snippet, _, tests in CATALOGUE:
        found = (ROOT / "src" / "omegacoalg" / module).read_text(encoding="utf-8").count(snippet)
        if found != 1:
            print(f"catalogue error: {name!r}: the snippet occurs {found} times in {module}, not once")
            return 2
        if not tests:
            print(f"catalogue error: {name!r} lists no test")
            return 2
    listed = list(dict.fromkeys(t for *_, tests in CATALOGUE for t in tests))
    code, last, took = run(listed)
    print(f"unmutated tree, {len(listed)} listed tests: {last} ({took:.1f} s)")
    if code != 0:
        return 1
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda m: run(m[4], m[1:4]), CATALOGUE))
    survived = 0
    for (name, module, *_), (code, last, took) in zip(CATALOGUE, results):
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        survived += code != 1
        print(f"{verdict:>8}  {module}: {name}: {last} ({took:.1f} s)")
    print(f"{len(CATALOGUE) - survived} of {len(CATALOGUE)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
