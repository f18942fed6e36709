import os
import pathlib

import numpy as np
import pytest

import antifourier
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
