"""Load-bearing invariants are explicit raises, so ``python -O`` keeps
them, and the package's modules import each other without a cycle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contactres.errors import ContactresError, InternalInvariantError
from contactres.orbits import parse_orbit
from contactres.resolutions import chamber_complex_for, polarizations

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contactres"


def test_package_has_no_assert_statements():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert lines == [], f"{path.name}: assert statements on lines {lines}"


def test_one_serializer():
    """Reports go through ``report.to_json``; no second path via the stdlib."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and n.attr == "dumps"
                 and isinstance(n.value, ast.Name) and n.value.id == "json"]
        calls += [n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) and n.module == "json"
                  and any(a.name == "dumps" for a in n.names)]
        assert calls == [], f"{path.name}: json.dumps on lines {calls}"


def package_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports, at any depth in the file
    (function-level imports included). ``__init__`` is left out: it
    re-exports everything."""
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    graph = {}
    for name in sorted(modules):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        deps = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if node.module:                       # from .cones import x
                deps.add(node.module.split(".")[0])
            else:                                 # from . import oracle_lab
                deps.update(a.name for a in node.names if a.name in modules)
        graph[name] = deps & modules
    return graph


def test_module_import_graph_is_acyclic():
    graph = package_imports()
    done, on_path = set(), []

    def visit(name):
        if name in on_path:
            cycle = on_path[on_path.index(name):] + [name]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        on_path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        on_path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_cone_engine_sits_below_the_decision_layer():
    assert package_imports()["cones"] == {"errors", "lie_core", "ratlinalg"}


def test_lie_layer_needs_only_errors():
    assert package_imports()["lie_core"] == {"errors"}


def test_non_closed_ordering_list_raises():
    orbit = parse_orbit("A3:2,1,1")   # orderings (1, 3) and (3, 1)
    pols = polarizations(orbit)
    assert len(pols) == 2
    with pytest.raises(InternalInvariantError, match="transpositions"):
        chamber_complex_for(orbit, pols[:1])
    # a bug, never reported by the CLI as a domain answer
    assert not issubclass(InternalInvariantError, ContactresError)


def test_cli_start_up_skips_dataclasses():
    """Records are named tuples, so no CLI process imports ``dataclasses``
    or builds methods from source at start-up."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import contactres.cli; print('dataclasses' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout == "False\n"


def test_acceptance_criteria_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py")],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "9 passed" in proc.stdout
