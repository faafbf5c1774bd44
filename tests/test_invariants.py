"""Load-bearing invariants are explicit raises, so ``python -O`` keeps
them, and the package's modules import each other without a cycle."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from contactres import resolutions
from contactres.errors import ContactresError, InternalInvariantError
from contactres.orbits import ExceptionalOrbitEntry, parse_orbit
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


def test_package_imports_no_regular_expressions():
    """Labels are read with string operations (``tests/grammar_reference``
    keeps the patterns), so no process loads the regex engine for them."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, ast.Import)
                 and any(a.name == "re" for a in n.names)
                 or isinstance(n, ast.ImportFrom) and n.module == "re"]
        assert lines == [], f"{path.name}: imports re on lines {lines}"


def test_records_are_slotted():
    """Every tuple subclass a package module defines has ``__slots__ ==
    ()`` and instances without a ``__dict__`` (a zero dict offset, which
    needs every base slotted too): a record holds its fields and nothing
    else."""
    records = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"contactres.{path.stem}")
        records += [cls for cls in vars(module).values()
                    if isinstance(cls, type) and issubclass(cls, tuple)
                    and cls.__module__ == module.__name__]
    assert len(records) >= 13
    for cls in records:
        assert cls.__dict__.get("__slots__") == (), cls.__qualname__
        assert cls.__dictoffset__ == 0, cls.__qualname__


def test_one_orbit_walk():
    """Orbits are walked by ``orbits.orbits_of``; no other module calls,
    imports or names ``partitions_of``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "orbits":
            continue
        tree = ast.parse(path.read_text())
        uses = [n.lineno for n in ast.walk(tree)
                if isinstance(n, ast.Name) and n.id == "partitions_of"
                or isinstance(n, ast.Attribute) and n.attr == "partitions_of"
                or isinstance(n, ast.ImportFrom)
                and any(a.name == "partitions_of" for a in n.names)]
        assert uses == [], f"{path.name}: partitions_of on lines {uses}"


def _names_used(tree) -> list[str]:
    """Every name ``tree`` reads, as a bare name or an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]


def test_every_package_definition_has_a_package_caller():
    """Each module-level function or class of the package is read by name
    somewhere in ``src/`` outside its own body. Exempt: the public exports
    (``__all__``), the commands ``cli._command`` registers, the package's
    ``__getattr__`` and ``__dir__``, and ``oracle_lab.matrix_model``, the
    boundary for a caller's matrix. Code that only a test reads belongs
    in the tests."""
    import contactres
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    used = Counter()
    for tree in trees.values():
        used.update(_names_used(tree))
    exempt = {*contactres.__all__, "__getattr__", "__dir__"}
    orphans = []
    for stem, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name in exempt
                    or (stem, node.name) == ("oracle_lab", "matrix_model")
                    or any(isinstance(d, ast.Call)
                           and getattr(d.func, "id", None) == "_command"
                           for d in node.decorator_list)):
                continue
            if used[node.name] == _names_used(node).count(node.name):
                orphans.append(f"{stem}.{node.name}")
    assert orphans == []


def test_fractions_are_cleared_only_at_the_doors():
    """``ratlinalg``'s eliminations take ints only, so a Fraction is
    cleared where it enters the package: ``_int_row`` and ``rational``
    are read in the bodies of the doors and nowhere else (an import line
    is no read). Each door reads one."""
    doors = {("ratlinalg", "primitive"), ("ratlinalg", "_int_row"),
             ("oracle_lab", "matrix_model"),
             ("resolutions", "canonical_degree_on_curve")}
    reads = []

    def visit(node, stem, body):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, stem, child.name)
                continue
            if (isinstance(child, ast.Name)
                    and child.id in ("_int_row", "rational")
                    or isinstance(child, ast.Attribute)
                    and child.attr in ("_int_row", "rational")):
                reads.append((stem, body, child.lineno))
            visit(child, stem, body)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    stray = [read for read in reads if read[:2] not in doors]
    assert stray == []
    assert {read[:2] for read in reads} == doors


def test_oracles_draw_by_one_path():
    """``oracle_lab`` names ``random.Random`` once, in ``_randints``, so
    every seeded draw (conjugators, nilradical samples) reads the one
    stream its docstring defines."""
    tree = ast.parse((PACKAGE / "oracle_lab.py").read_text())

    def names(node):
        return [n for n in ast.walk(node)
                if "Random" in (getattr(n, "attr", None),
                                getattr(n, "id", None),
                                getattr(n, "name", None))]

    home, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "_randints"]
    assert len(names(home)) == len(names(tree)) == 1


def package_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports, at any depth in the file
    (function-level imports included). ``__init__`` is left out: it
    re-exports the public names on first access."""
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


def test_no_decision_process_loads_the_cone_engine():
    """The engine checks the closed-form ample cone that ``resolutions``
    owns; only the ``cones`` suite of ``verify`` loads it."""
    graph = package_imports()
    for name in ("lie_core", "orbits", "resolutions", "report", "cli"):
        assert "cones" not in graph[name], name
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    homes = [node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             for imp in ast.walk(node) if isinstance(imp, ast.ImportFrom)
             and imp.module == "cones"]
    top = [imp for imp in tree.body if isinstance(imp, ast.ImportFrom)
           and imp.module == "cones"]
    assert (homes, top) == (["_suite_cones"], [])
    assert graph["cones"] == {"errors", "ratlinalg", "resolutions"}


def test_lie_layer_needs_only_errors():
    assert package_imports()["lie_core"] == {"errors"}


def test_decision_layer_runs_no_oracle():
    """The decision takes an orbit and returns a decision; the oracle rows
    that cross-check it are built in ``verify``."""
    assert "oracle_lab" not in package_imports()["resolutions"]


def test_report_reads_records_without_importing_them():
    assert package_imports()["report"] == set()


def test_one_rule_set_decides_every_type():
    """``resolutions.polarizations_of`` reads no table entry: the rules
    that decide B-D decide E/F/G too."""
    tree = ast.parse((PACKAGE / "resolutions.py").read_text())
    [decide] = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                and n.name == "polarizations_of"]
    assert "exceptional_entry" not in _names_used(decide)


def test_table_states_only_what_no_rule_derives():
    assert ExceptionalOrbitEntry._fields == (
        "family", "rank", "key", "dimension", "note", "provenance")


def test_empty_list_without_a_smooth_normalization_raises(monkeypatch):
    # only a smooth projectivised normalization has no polarization; any
    # other empty list would be a "no" that no rule gives
    monkeypatch.setattr(resolutions, "polarizations_of", lambda record: [])
    with pytest.raises(InternalInvariantError, match="Unknown"):
        resolutions.contact_resolution_exists(parse_orbit("G2:dim10"))


def test_non_closed_ordering_list_raises():
    orbit = parse_orbit("A3:2,1,1")   # orderings (1, 3) and (3, 1)
    pols = polarizations(orbit)
    assert len(pols) == 2
    with pytest.raises(InternalInvariantError, match="transpositions"):
        chamber_complex_for(orbit, pols[:1])
    # a bug, never reported by the CLI as a domain answer
    assert not issubclass(InternalInvariantError, ContactresError)


def test_closed_but_disconnected_chamber_list_raises():
    # (1, 3), (3, 1) and (2, 2) are closed under adjacent transpositions,
    # but no wall joins (2, 2) to the other two
    pols = (polarizations(parse_orbit("A3:2,1,1"))
            + polarizations(parse_orbit("A3:2,2")))
    assert len(pols) == 3
    with pytest.raises(InternalInvariantError, match="connected"):
        chamber_complex_for(parse_orbit("A3:2,1,1"), pols)


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


class TestLazyPackage:
    """``contactres`` re-exports ``__all__`` on first access (PEP 562)."""

    def test_every_export_is_its_home_modules_object(self):
        import contactres
        for name in contactres.__all__:
            value = getattr(contactres, name)
            if name == "__version__":
                assert value == "0.1.0"
                continue
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("contactres."), name
            assert getattr(home, name) is value, name

    def test_dir_lists_every_export(self):
        import contactres
        assert set(contactres.__all__) <= set(dir(contactres))

    def test_star_import_binds_every_export(self):
        import contactres
        namespace = {}
        exec("from contactres import *", namespace)
        for name in contactres.__all__:
            assert namespace[name] is getattr(contactres, name), name

    def test_unknown_attribute_raises(self):
        import contactres
        with pytest.raises(AttributeError, match="no_such_name"):
            contactres.no_such_name
        assert not hasattr(contactres, "__main__")

    def test_import_loads_no_module_until_used(self):
        code = """
import sys
sys.path.insert(0, sys.argv[1])
def loaded():
    return sorted(m for m in sys.modules if m.startswith("contactres."))
import contactres
print(loaded())
contactres.kks_rank
print(loaded())
print(contactres.verify.suite_names())
"""
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-3000:]
        first, second, names = proc.stdout.splitlines()
        assert first == "[]"
        assert "'contactres.oracle_lab'" in second
        assert "'contactres.verify'" not in second
        assert names.startswith("('ad-rank',")


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
