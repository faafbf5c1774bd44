import inspect

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
