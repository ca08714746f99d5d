"""Structure of the package: its public surface and its import graph."""

import ast
import importlib
import inspect
import os
import random
import re
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import hyperline
from hyperline.graph import Graph
from hyperline.recognition import check_f3, thresholds
from hyperline.reconstruction import CliqueCover, validate_cover

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


def _library_surface() -> str:
    return README.read_text().split("## Library surface", 1)[1].split("\n## ", 1)[0]


def _call_form_mismatch(form: str) -> str | None:
    """How a documented call form such as `check_f2(g, t, big)` disagrees
    with the signature of the package function it names, or None.  A
    plain-name argument must be the parameter's own name; any other
    argument, such as `t.clique_size_bound`, counts toward arity only, and
    keywords must bind."""
    call = ast.parse(form, mode="eval").body
    name = call.func.id
    found = {
        id(fn): fn
        for module in sorted(p.stem for p in PACKAGE.glob("*.py"))
        if (fn := getattr(importlib.import_module(f"hyperline.{module}"), name, None))
    }
    if len(found) != 1:
        return f"`{name}` names {len(found)} package functions"
    signature = inspect.signature(*found.values())
    try:
        signature.bind(*call.args, **{keyword.arg: None for keyword in call.keywords})
    except TypeError as exc:
        return f"{form!r} does not fit {name}{signature}: {exc}"
    for arg, param in zip(call.args, signature.parameters):
        if isinstance(arg, ast.Name) and arg.id != param:
            return f"{form!r} passes {arg.id!r} where {name}{signature} has {param!r}"
    return None


def test_public_surface_is_the_documented_one():
    assert len(SURFACE) == 27
    assert sorted(hyperline.__all__) == sorted(SURFACE)
    for name in SURFACE:
        assert getattr(hyperline, name) is not None
    section = _library_surface()
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


def test_documented_call_forms_match_the_signatures():
    prose = re.sub(r"```.*?```", "", _library_surface(), flags=re.S)
    forms = [" ".join(form.split()) for form in re.findall(r"`(\w+\([^`]*\))`", prose)]
    assert {form.split("(")[0] for form in forms} >= {
        "check_f1", "check_claw", "check_f2", "check_f3", "krausz_cover", "thresholds",
        "maximal_cliques",
    }
    assert "maximal_cliques(g, min_size)" in forms  # wrapped across two README lines
    mismatches = [m for form in forms if (m := _call_form_mismatch(form))]
    assert not mismatches, mismatches
    # the check itself sees a renamed parameter, a wrong arity and a stray keyword
    assert _call_form_mismatch("check_f3(g, big)")
    assert _call_form_mismatch("check_f2(g, t)")
    assert _call_form_mismatch("maximal_cliques(g, 4, 5)")
    assert _call_form_mismatch("thresholds(k, q=1)")
    assert _call_form_mismatch("maximal_cliques(g, t.clique_size_bound)") is None


def test_import_loads_neither_dataclasses_nor_inspect():
    """The CLI pays the package import on every command; dataclasses and
    inspect, which it pulls in, would cost more than the package itself."""
    probe = "import hyperline, hyperline.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


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


def test_only_the_cli_and_the_self_test_import_the_file_formats():
    """The library builds its values without the readers and writers:
    only `cli` and `selftest` import `fileio`."""
    importers = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == "fileio" or node.module is None and any(
                    alias.name == "fileio" for alias in node.names
                ):
                    importers.append(module)
    assert sorted(importers) == ["cli", "selftest"], importers


def _module_level_private_names(tree: ast.Module):
    """(name, defining node) for each private function, class or constant
    a module defines at its top level; dunder names are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_orphan_private_helpers():
    """Every module-level private helper is named by code somewhere in the
    package outside its own definition: read as a name or an attribute,
    not merely imported, so a helper left behind by a rewrite shows."""
    trees = _modules()
    orphans = []
    for module, tree in trees.items():
        for name, definition in _module_level_private_names(tree):
            inside = {id(node) for node in ast.walk(definition)}
            used = any(
                id(node) not in inside
                and (
                    isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                )
                for other in trees.values()
                for node in ast.walk(other)
            )
            if not used:
                orphans.append(f"{module}.{name}")
    assert not orphans, f"private helpers nothing in the package uses: {orphans}"


def test_the_vertex_rule_has_one_home():
    """Only `errors` raises the text `vertex v outside [0, n)`, whatever
    names it formats, and no class keeps a vertex check of its own."""
    raising, methods = [], []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and re.search(
                r"vertex \{[\w.]+\} outside \[0, \{[\w.]+\}\)", ast.unparse(node)
            ):
                raising.append(module)
            if isinstance(node, ast.ClassDef):
                methods += [
                    f"{module}.{node.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "_check_vertex"
                ]
    assert raising == ["errors"], raising
    assert not methods, methods


def test_the_k_and_p_rule_has_one_home():
    """Only `errors` raises the text `need k >= 2 and p >= 1`: the
    recognizer's thresholds and the oracle's search share one rule."""
    raising = [
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and "need k >= 2 and p >= 1" in ast.unparse(node)
    ]
    assert raising == ["errors"], raising


def _first_overlapping_pair(family, p):
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if len(set(family[i]) & set(family[j])) > p:
                return i, j
    return None


def test_f3_and_the_cover_overlap_condition_name_the_brute_force_pair():
    """On seeded random families of distinct cliques, `check_f3` names the
    first pair i < j sharing more than p vertices that a plain double
    loop finds, and so does `validate_cover` on the graph the family
    covers, with k as large as the family so that overlap is the first
    condition to fail."""
    rng = random.Random(2026)
    overlapping = 0
    for _ in range(300):
        n = rng.randint(2, 14)
        p = rng.randint(1, 3)
        family = sorted(
            {tuple(sorted(rng.sample(range(n), rng.randint(2, n)))) for _ in range(rng.randint(0, 7))}
        )
        pair = _first_overlapping_pair(family, p)
        witness = check_f3(thresholds(2, p), family)
        edges = {(a, b) for clique in family for a in clique for b in clique if a < b}
        diag = validate_cover(Graph(n, edges), CliqueCover(n, family), max(len(family), 1), p)
        if pair is None:
            assert witness is None and diag.ok, (family, p)
            continue
        overlapping += 1
        i, j = pair
        shared = sorted(set(family[i]) & set(family[j]))
        assert (witness.clique_a, witness.clique_b) == (family[i], family[j]), (family, p)
        assert witness.shared == tuple(shared[: p + 1])
        assert diag.failure == f"cliques {i} and {j} share {len(shared)} vertices, limit {p}"
    assert 50 < overlapping < 250, overlapping
