"""Every name in an ``__all__`` under ``src/repro`` has a user besides tests.

A name is used when code in ``src/``, ``benchmarks/``, ``examples/``,
``perfbench/`` or ``tools/`` loads it (a bare name or an attribute) or
mentions it in a string, or when ``README.md`` or ``docs/`` mention it.
Importing or re-exporting a name is not a use, and neither is its own
``__all__`` entry, so an API kept alive only by its tests shows up here.
Such a name must be deleted, gain a caller, or sit on :data:`ALLOWED`
with a one-line reason.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CODE_DIRS = ("src", "benchmarks", "examples", "perfbench", "tools")
WORD = re.compile(r"\w+")

ALLOWED = {
    "FEATURE_NAMES": "names the five columns of service_features' "
                     "Table 1 feature matrix",
    "gamma_cdf": "the CDF beside gamma_sf and gamma_quantile; the tests "
                 "check both against it",
    "loop_result_to_csv": "CSV export of a run history for spreadsheet users",
    "sample_range": "samples a workload trace on a grid for plotting",
    "table1": "reproduces all six rows of the paper's Table 1 in one call",
}


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _exports(path: Path) -> tuple[str, ...]:
    for node in ast.parse(path.read_text()).body:
        if _is_all(node):
            return tuple(ast.literal_eval(node.value))
    return ()


def _uses(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    exported = {
        id(c) for node in tree.body if _is_all(node) for c in ast.walk(node)
    }
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in exported
        ):
            used.update(WORD.findall(node.value))
    return used


@functools.cache
def _all_uses() -> frozenset[str]:
    used: set[str] = set()
    for directory in CODE_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            used |= _uses(path)
    for path in [ROOT / "README.md", *(ROOT / "docs").rglob("*.md")]:
        used.update(WORD.findall(path.read_text()))
    return frozenset(used)


@functools.cache
def _exported_names() -> dict[str, list[str]]:
    names: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in _exports(path):
            names.setdefault(name, []).append(str(path.relative_to(ROOT)))
    return names


def test_every_export_has_a_user():
    used = _all_uses()
    unused = {
        name: modules
        for name, modules in _exported_names().items()
        if name not in used and name not in ALLOWED and not name.startswith("__")
    }
    assert not unused, (
        "exported but used only by tests (delete, give a caller, or allow "
        f"with a reason): {unused}"
    )


def test_allowlist_is_current():
    used = _all_uses()
    exported = _exported_names()
    stale = sorted(name for name in ALLOWED if name not in exported or name in used)
    assert not stale, f"allowlisted names now exported and used, or gone: {stale}"
