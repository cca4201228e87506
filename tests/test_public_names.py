"""Every name a ``repro`` subpackage lists in ``__all__`` resolves.

A deletion that leaves a stale export fails here rather than in a
user's ``from repro.x import name``.
"""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(info.name for info in pkgutil.iter_modules(repro.__path__)
                     if info.ispkg)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"repro.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate exports"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"repro.{name}.__all__ lists unresolved {missing}"
