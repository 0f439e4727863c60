"""Every package's ``__all__`` names what the package really holds.

A deletion that leaves its name behind in an ``__all__`` fails here, not
at a caller's ``from repro.<package> import *``.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    module.name
    for module in pkgutil.walk_packages(repro.__path__, "repro.")
    if module.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert exported, f"{name} exports nothing"
    assert [n for n in exported if not hasattr(package, n)] == []
    assert len(set(exported)) == len(exported), f"{name} exports a name twice"
