import pytest


@pytest.fixture(autouse=True)
def _default_quad_tol(monkeypatch):
    """Run every test, under tests/ and bench/, as if ANTIFOURIER_QUAD_TOL were
    unset: it is the default of --quad-tol.  A test that needs it sets it."""
    monkeypatch.delenv("ANTIFOURIER_QUAD_TOL", raising=False)
