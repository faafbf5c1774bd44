"""Load-bearing invariants are explicit raises, so ``python -O`` keeps
them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contactres.cones import chamber_complex_for
from contactres.errors import ContactresError, InternalInvariantError
from contactres.orbits import parse_orbit
from contactres.resolutions import polarizations

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contactres"


def test_package_has_no_assert_statements():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert lines == [], f"{path.name}: assert statements on lines {lines}"


def test_non_closed_ordering_list_raises():
    orbit = parse_orbit("A3:2,1,1")   # orderings (1, 3) and (3, 1)
    pols = polarizations(orbit)
    assert len(pols) == 2
    with pytest.raises(InternalInvariantError, match="transpositions"):
        chamber_complex_for(orbit, pols[:1])
    # a bug, never reported by the CLI as a domain answer
    assert not issubclass(InternalInvariantError, ContactresError)


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
