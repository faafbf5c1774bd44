import inspect
from itertools import accumulate

import pytest


@pytest.fixture
def eliminations(monkeypatch):
    """Record every ``ratlinalg._eliminate`` call by its bound arguments,
    a dict with keys ``rows`` and ``reduce``; returns the record."""
    from contactres import ratlinalg
    eliminate, calls = ratlinalg._eliminate, []
    signature = inspect.signature(eliminate)

    def counting(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(ratlinalg, "_eliminate", counting)
    return calls


@pytest.fixture
def parabolic_from_composition():
    """Block composition of n -> parabolic of A_{n-1} marked at the
    partial sums, validated through ``lie_core.parabolic``: the reference
    path for the markings the decision layer cuts."""
    from contactres.lie_core import SimpleType, parabolic

    def reference(comp):
        comp = tuple(comp)
        assert comp and all(c > 0 for c in comp) and sum(comp) >= 2, comp
        return parabolic(SimpleType("A", sum(comp) - 1),
                         accumulate(comp[:-1]))
    return reference
