import pytest


@pytest.fixture
def eliminations(monkeypatch):
    """Record every ``ratlinalg._eliminate`` call; returns the record."""
    from contactres import ratlinalg
    eliminate, calls = ratlinalg._eliminate, []

    def counting(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(ratlinalg, "_eliminate", counting)
    return calls
