"""Public-API integrity: every exported name exists and resolves.

Guards against the classic packaging failure where an ``__all__`` entry
drifts out of sync with the actual module contents — it would only
surface on a user's ``from repro import *``.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cache",
    "repro.core",
    "repro.core.placement",
    "repro.datasets",
    "repro.experiments",
    "repro.graph",
    "repro.onlinetime",
    "repro.parallel",
    "repro.query",
    "repro.resilience",
    "repro.robustness",
    "repro.seeding",
    "repro.simulator",
    "repro.timeline",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} is exported but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_entries_unique_strings(package):
    module = importlib.import_module(package)
    names = module.__all__
    assert all(isinstance(n, str) for n in names)
    assert len(set(names)) == len(names), f"duplicate exports in {package}"


def test_version_is_exposed():
    import repro

    assert repro.__version__


def test_star_import_is_clean():
    namespace = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate
    assert "evaluate_user" in namespace
    assert "synthetic_facebook" in namespace
    assert "DecentralizedOSN" in namespace
