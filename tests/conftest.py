import os
import pathlib

import numpy as np
import pytest

import antifourier
import antifourier._kernels
from antifourier import FunctionSpec, Named, Polynomial

TESTS = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    """Fail a test under tests/ that leaks a file or other resource.

    A leak found during garbage collection is raised inside a finalizer, which
    pytest reports as an unraisable-exception warning, so both are errors.
    """
    for item in items:
        if TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )


def child_env():
    """Environment for a child Python that imports the package from where this
    process found it, which under pytest's pythonpath setting need not be on
    PYTHONPATH."""
    package_root = os.path.dirname(os.path.dirname(antifourier.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def two_level_values(ms, points):
    """``cossinpi`` values that one two-level sum call takes on ``points``
    points, for ``ms`` the longest series of each origin of the call (one int
    for a one-origin call): ceil(m / BABY) giant steps for each origin, and
    one block of min(BABY, longest m) baby steps."""
    baby, ms = antifourier._kernels.BABY, np.atleast_1d(ms).tolist()
    return (sum(-(-m // baby) for m in ms) + min(baby, max(ms))) * points


@pytest.fixture
def basis_values(monkeypatch):
    """List that receives the size of every ``cossinpi`` call of the evaluator."""
    received = []
    cossinpi = antifourier._kernels.cossinpi
    monkeypatch.setattr(
        antifourier._kernels, "cossinpi", lambda t: received.append(np.size(t)) or cossinpi(t)
    )
    return received


@pytest.fixture
def sample_sizes(monkeypatch):
    """List that receives the number of abscissae of every ``evaluate`` call
    of the projection."""
    received = []
    evaluate = antifourier._kernels.evaluate
    monkeypatch.setattr(antifourier._kernels, "evaluate",
                        lambda spec, x: received.append(np.size(x)) or evaluate(spec, x))
    return received


def catalog_specs(L=np.pi):
    """One instance of every named catalog entry on [-L, L]."""
    return [
        FunctionSpec(L, Named("identity")),
        FunctionSpec(L, Named("const", (1.5,))),
        FunctionSpec(L, Named("signum")),
        FunctionSpec(L, Named("x-plus-sign")),
        FunctionSpec(L, Named("scaled-square")),
    ]


@pytest.fixture
def identity_pi():
    return FunctionSpec(np.pi, Named("identity"))


@pytest.fixture
def quadratic_unit():
    # (x + 1)^2 = 1 + 2x + x^2 on [-1, 1]
    return FunctionSpec(1.0, Polynomial((1.0, 2.0, 1.0)))
