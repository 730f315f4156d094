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
for an error in the catalogue.  ``RETIRED`` lists the mutants that
CHANGES.md names but today's code has no place for, each with the commit
that made it moot.  Usage: ``python tools/mutants.py``.
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
BISIM = "tests/test_bisim.py::"
CLEAN_PART = BISIM + "test_dirty_round_moves_the_clean_part"
RENDER = "tests/test_render.py::test_emitters_leaves_shared_subtrees_and_escapes"
SPECDOC = "tests/test_specdoc.py::"

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
        '        raise SpecValidationError(f"coalgebra: {c._fault(order[first], PValue(labels[first], rows[first][2:]), index)}")',
        "        fault = c._fault(order[first], PValue(labels[first], rows[first][2:]), index)\n"
        '        raise SpecValidationError(f"coalgebra: {fault}")',
        [SPECDOC + "test_failed_load_holds_nothing_of_the_document"],
    ),
    (
        "indexed classes keyed by label alone",
        "specdoc.py",
        "column, classes = _first_use(keys)",
        "column, classes = _first_use(labels if plain else list(zip(repeat(None), labels)))",
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
    (
        "truncate_to a negative stage",
        "container.py",
        "    if m < 0:\n        raise _no_stage(m)\n    if m > t.depth:",
        "    if m > t.depth:",
        ["tests/test_container.py::test_negative_depth_raises_before_any_cache_write"],
    ),
    # Class and block numbering: in order of first appearance.
    (
        "numbering by last appearance",
        "mtype.py",
        "numbers = dict(zip(dict.fromkeys(keys), count()))",
        "numbers = dict(zip(dict.fromkeys(reversed(keys)), count()))",
        [BISIM + "test_partition_refine_fig1", CLI + "test_minimize_edge_cases[stable-classes]"],
    ),
    # Partition refinement: whole-row rounds, the hand-over and dirty-set
    # rounds.
    (
        "one id counter per class",
        "bisim.py",
        "            ids: dict = {}\n            new += map(ids.setdefault, keys, fresh)",
        "            ids: dict = {}\n            fresh = count()\n            new += map(ids.setdefault, keys, fresh)",
        [BISIM + "test_partition_refine_modified_cycle"],
    ),
    (
        "keys of the first column only",
        "bisim.py",
        "                keys = zip(*[map(get, col) for col in columns])",
        "                keys = map(get, columns[0])",
        [BISIM + "test_partition_matches_bounded_oracle"],
    ),
    (
        "an empty hand-over",
        "bisim.py",
        "    moved = list(compress(range(n), map(operator.ge, block, repeat(kept))))",
        "    moved = []",
        [CLEAN_PART],
    ),
    (
        "a dirty set of the moved states, not their predecessors",
        "bisim.py",
        "            dirty.update(preds[poff[x] : poff[x + 1]])",
        "            dirty.add(x)",
        [CLEAN_PART, BISIM + "test_dirty_round_touches_a_one_state_block"],
    ),
    (
        "the clean part dropped",
        "bisim.py",
        "            if clean:\n                parts.append(None)\n",
        "",
        [CLEAN_PART],
    ),
    (
        "no successor check in a witness",
        "bisim.py",
        "            if find(parent, x) != find(parent, y):",
        "            if False:",
        [BISIM + "test_bisim_violations_up_to_equivalence"],
    ),
    (
        "Partition.blocks renamed",
        "bisim.py",
        "    def blocks(self)",
        "    def blocks_(self)",
        [BISIM + "test_partition_refine_fig1", CLI + "test_bench_tracer_runs[minimize]"],
    ),
    # Elements.
    (
        "elements equal by identity",
        "mtype.py",
        "return isinstance(other, MElement) and self._key() == other._key()",
        "return self is other",
        [MTYPE + "test_elements_compare_by_coalgebra_and_state"],
    ),
    (
        "out's children pointed at the parent state",
        "mtype.py",
        "MElement(container, coalgebra=c, state=t, sort=j) for j, t in zip(sorts, children)",
        "MElement(container, coalgebra=c, state=m.state, sort=j) for j, t in zip(sorts, children)",
        ["tests/test_acceptance.py::test_criterion_3_out_into_inverse_pair"],
    ),
    (
        "an extension reads its children one stage too deep",
        "mtype.py",
        "tuple([ch.at(k - 1) for ch in ext.children])",
        "tuple([ch.at(k) for ch in ext.children])",
        [MTYPE + "test_into_out_round_trips"],
    ),
    (
        "the assembly stack asks nested extensions for the same stage",
        "mtype.py",
        "todo = [(e, k - 1) for e in ext._nested if k - 1 not in e._stages]",
        "todo = [(e, k) for e in ext._nested if k not in e._stages]",
        [
            MTYPE + "test_assembled_element_keeps_its_stages",
            MTYPE + "test_nested_extensions_build_below_the_top",
            "tests/test_catalog.py::test_deep_use_needs_no_recursion",
        ],
    ),
    (
        "the assembly stack rebuilds a stage already built",
        "mtype.py",
        "            if k in ext._stages:\n                stack.pop()\n                continue\n",
        "",
        [MTYPE + "test_a_shared_nested_extension_builds_each_stage_once"],
    ),
    # The chain's maps: one projection walk, one root-label check.
    (
        "the projection walk stops at depth 1",
        "container.py",
        "        if cur.depth == drop:\n",
        "        if cur.depth == 1:\n",
        ["tests/test_container.py::test_truncate_to_conat_example", "tests/test_container.py::test_chain_law_projection_coherence"],
    ),
    (
        "the root-label check reads stage 1 only",
        "chain.py",
        "    for n in range(1, DEFAULT_LABEL_CHECK_DEPTH):\n",
        "    for n in range(1, 2):\n",
        ["tests/test_chain.py::test_label_drift_detected", MTYPE + "test_hand_built_out_detects_label_drift"],
    ),
    # Truncation slots and well-sortedness.
    (
        "truncation slots set before the comparison",
        "container.py",
        '    if same:\n        deque(map(setattr, trees, repeat("_truncation"), lower), 0)',
        '    deque(map(setattr, trees, repeat("_truncation"), lower), 0)\n    if same:\n        pass',
        [MTYPE + "test_truncation_slots_never_lie_property"],
    ),
    (
        "no label comparison in the batch truncation",
        "container.py",
        "        and list(map(_label_of, trees)) == list(map(_label_of, lower))\n",
        "",
        [MTYPE + "test_row_truncation_matches_per_tree_truncation_property"],
    ),
    (
        "well-sortedness deduplicated by node without its sort",
        "indexed.py",
        "            mark = (sort, id(node))",
        "            mark = id(node)",
        ["tests/test_indexed.py::test_well_sorted_all_one_walk_over_a_family"],
    ),
    # The loader.
    (
        "the held fault read with the first state's label",
        "specdoc.py",
        "PValue(labels[first], rows[first][2:])",
        "PValue(labels[0], rows[first][2:])",
        [SPECDOC + "test_entry_shaped_values_are_reported_as_objects[held-dangling-own-label]"],
    ),
    # The decoder's flat entry tuples.
    (
        "the hook packs an entry whose children are not an array",
        "specdoc.py",
        "    if type(children) is not list:\n",
        "    if False:\n",
        [
            SPECDOC + "test_only_array_children_make_a_tuple[children-string]",
            SPECDOC + "test_only_array_children_make_a_tuple[children-object]",
        ],
    ),
    (
        "only an entry of exactly two keys packed",
        "specdoc.py",
        "    if type(children) is not list:\n",
        "    if len(obj) != 2 or type(children) is not list:\n",
        [SPECDOC + "test_only_array_children_make_a_tuple[mixed]", SPECDOC + "test_load_peaks_under_430_bytes_a_state"],
    ),
    (
        "the children read one item early",
        "specdoc.py",
        "children_of = operator.itemgetter(slice(2, None))",
        "children_of = operator.itemgetter(slice(1, -1))",
        [SPECDOC + "test_names_of_the_entry_keys_load[label-first-plain]", SPECDOC + "test_load_peaks_under_430_bytes_a_state"],
    ),
    (
        "a caller's row packed without its head",
        "specdoc.py",
        "rows.append((_ENTRY, label, *children))",
        "rows.append((label, *children))",
        [SPECDOC + "test_names_of_the_entry_keys_load[label-first-plain]", CLI + "test_first_coalgebra_fault_in_state_order[dangling-then-arity]"],
    ),
    # The row screen.
    (
        "the indexed screen compares child counts, not sorts",
        "specdoc.py",
        "wrong = map(operator.ne, sorts, map(wanted.get, keys))",
        "wrong = map(operator.ne, map(len, sorts), map(len, map(wanted.get, keys)))",
        [CLI + "test_first_coalgebra_fault_in_state_order[indexed-clean-sort-dangling]"],
    ),
    (
        "the non-state child search starts at the flagged row",
        "specdoc.py",
        "for i, row in enumerate(rows) if",
        "for i, row in enumerate(rows[first:], first) if",
        [
            CLI + "test_first_coalgebra_fault_in_state_order[dangling-then-arity]",
            CLI + "test_shape_fault_outranks_an_earlier_coalgebra_fault[dangling-then-label]",
        ],
    ),
    (
        "a caller's tuple accepted as an entry",
        "specdoc.py",
        "if all(map(operator.contains, entries, repeat(_ENTRY))):",
        "if all(map(operator.is_, map(type, entries), repeat(tuple))):",
        [SPECDOC + "test_a_callers_tuple_is_no_entry[three]"],
    ),
    (
        "an undeclared gamma key ignored",
        "specdoc.py",
        '            _require(s in index, f"coalgebra.gamma.{s}: not a declared state")',
        "            pass",
        [CLI + "test_undeclared_gamma_state_exits_2[plain-check]"],
    ),
    # The CLI: the collector and the renderers.
    (
        "the collector turned off inside main",
        "cli.py",
        "    parser = _build_parser()\n",
        "    gc.disable()\n    parser = _build_parser()\n",
        [CLI + "test_main_leaves_the_collector_as_it_found_it[collector-on]"],
    ),
    (
        "a leaf label not JSON-escaped",
        "cli.py",
        """'  "label": ' + json.dumps(t.label)""",
        """'  "label": "' + str(t.label) + '"'""",
        [RENDER],
    ),
    (
        "children pushed in the wrong order",
        "cli.py",
        "                for ch in children[:0:-1]:",
        "                for ch in children[1:]:",
        [RENDER],
    ),
    (
        "a kept memo text missing its tail",
        "cli.py",
        '            memo[t] = "".join(pieces)',
        '            memo[t] = "".join(pieces[:-1])',
        ["tests/test_render.py::test_long_shared_nodes_of_binary_tree"],
    ),
]

# Mutants that CHANGES.md names but today's code no longer has a place for:
# (name, the commit that made it moot, why).
RETIRED = [
    ("no restore in messages", "2aeb447", "`_restore` is gone: a failed load parses the stdlib's own decoding"),
    ("no `_object` on `signature.arity`", "2aeb447", "`_object` is gone, for the same reason"),
    ("no `_object` on a sort's labels", "2aeb447", "`_object` is gone"),
    ("no `_object` on an indexed `states`", "2aeb447", "`_object` is gone"),
    ("entry key order forgotten", "2aeb447", "one `_ENTRY` mark replaced the two key-order marks"),
    ("a recursive restore", "2aeb447", "`_restore` is gone"),
    ("the roundtrip's own kernel skipped", "4d69ba5", "`_roundtrip_groups` is gone; the reassembly mutants above replace it"),
    ("`_on_table` against the module name", "e3de3b3", "the stage-column path and `_on_table` are gone"),
    ("`_on_table` as `isinstance(c, Coalgebra)`", "e3de3b3", "`_on_table` is gone"),
    ("reversed child sorts in `i_out`", "06f7f59", "`i_out` is gone: `out` reads `child_sorts`"),
    ("`i_out` of an extension rebuilding its children", "06f7f59", "`i_out` is gone"),
    ("the clean-member scan dropped", "3596b81", "blocks keep their members as sets; the clean part is the set less the dirty states"),
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
    print(f"{len(CATALOGUE) - survived} of {len(CATALOGUE)} mutants killed; {len(RETIRED)} retired (RETIRED)")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
