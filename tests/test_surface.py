"""The library's public surface stays what its callers reach.

Every public module-level function and class of `simplcs` must be used by
the library itself (outside its own definition), by the benchmark
(`perfbench/`), by `tools/` or by the acceptance criteria. A name that only
the unit tests call is either deleted, moved into its tests, or listed in
`TEST_ONLY` with the reason it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from simplcs.cli import _SCENARIO_FNS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "simplcs"

TEST_ONLY = {
    "parse_distribution": "file format; to be wired into the CLI or dropped",
    "dump_distribution": "file format; to be wired into the CLI or dropped",
    "parse_presentation": "file format; to be wired into the CLI or dropped",
    "dump_presentation": "file format; to be wired into the CLI or dropped",
    "dump_cochain": "file format; to be wired into the CLI or dropped",
    "verdict_report": "report format; to be wired into the CLI or dropped",
    "spectral_measurement": "its tests are the only ones that reach the "
                            "spectral kernel's error branches",
    "cohomology_size": "oracle that the cohomology tests compare against",
    "dump_sset": "oracle behind the pinned structure-map digests",
    "map_from_solution": "the only check of the solution square "
                         "f . alpha = iota . beta",
    "twisted_iso": "the only check that X_gamma is isomorphic to N(Z_d, G)",
}


def _names_used(tree: ast.AST) -> Counter:
    """How often each name, attribute and imported name occurs in tree."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name] += 1
    return used


def _test_only_names() -> set:
    """Public module-level definitions of simplcs that no caller outside
    the unit tests reaches."""
    modules = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    callers = [*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    used = sum(map(_names_used, modules), Counter())
    outside = set().union(*(_names_used(ast.parse(path.read_text()))
                            for path in callers))
    found = set()
    for tree in modules:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            # uses inside its own definition (recursion) do not count
            if node.name not in outside \
                    and used[node.name] == _names_used(node)[node.name]:
                found.add(node.name)
    return found


def test_every_public_name_has_a_caller():
    found = _test_only_names()
    assert sorted(found - set(TEST_ONLY)) == []
    # the list holds no stale entry: each name exists and needs its reason
    assert sorted(set(TEST_ONLY) - found) == []


def test_readme_scenarios_are_the_cli_scenarios():
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"Scenarios: (.*?)\. Exit codes", readme, re.S)
    assert listed is not None
    assert re.findall(r"`([^`]+)`", listed.group(1)) == list(_SCENARIO_FNS)
