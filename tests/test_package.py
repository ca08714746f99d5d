"""Structure of the package: its public surface and its import graph."""

import ast
import importlib
import re
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import hyperline

PACKAGE = Path(hyperline.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"

SURFACE = [
    # entry points
    "Graph",
    "Hypergraph",
    "line_graph",
    "recognize",
    "reconstruct",
    "baranyai_partition",
    "regular_hypergraph",
    "cover_search",
    # result types
    "Member",
    "NonMember",
    "Inconclusive",
    "Verdict",
    "Witness",
    "ClawWitness",
    "F1Witness",
    "F2Witness",
    "F3Witness",
    "Claw",
    "CliqueCover",
    # certificate checks
    "validate_cover",
    "cover_to_hypergraph",
    # errors
    "DivisibilityError",
    "InputError",
    "InternalContradictionError",
    "NotAMemberError",
    "ResourceLimitError",
    "UnrealizableError",
]


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_public_surface_is_the_documented_one():
    assert len(SURFACE) == 27
    assert sorted(hyperline.__all__) == sorted(SURFACE)
    for name in SURFACE:
        assert getattr(hyperline, name) is not None
    text = README.read_text()
    section = text.split("## Library surface", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in SURFACE if not re.search(rf"\b{name}\b", section)]
    assert not missing, f"not in README's Library surface: {missing}"
    # every name a submodule bullet lists resolves there, attribute by attribute
    bullets = re.findall(r"^\* `hyperline\.(\w+)`:(.*?)(?=^\* |^$)", section, re.M | re.S)
    assert sorted(module for module, _ in bullets) == [
        "baranyai", "fileio", "graph", "oracle", "recognition", "reconstruction"
    ]
    stale = []
    for module, text in bullets:
        for name in re.findall(r"`([\w.]+)`", text):
            obj = importlib.import_module(f"hyperline.{module}")
            for attr in name.split("."):
                if not hasattr(obj, attr):
                    stale.append(f"hyperline.{module}.{name}")
                    break
                obj = getattr(obj, attr)
    assert not stale, f"README lists names its submodules lack: {stale}"


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_imports_sit_at_module_top_level(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    top = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not nested, f"{module}.py imports below the top level on lines {nested}"


def test_intra_package_imports_are_acyclic():
    graph = {}
    for module, tree in _modules().items():
        deps = set()
        for node in ast.walk(tree):  # nested imports too, so a lazy one cannot hide a cycle
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import a, b
                    deps.update(alias.name for alias in node.names)
                else:
                    deps.add(node.module.split(".")[0])
        graph[module] = deps
    assert "recognition" not in graph["reconstruction"]
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {exc.args[1]}")
