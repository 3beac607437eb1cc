"""Shared parametrization for the scenario suites (plain module — tests
are collected rootdir-style without packages, so no relative imports)."""

import pytest

from repro.scenarios import get, registry


def matrix_params(where=None):
    """Every registry scenario name (only those whose spec satisfies
    ``where``, when given), with ``slow``-tagged cells (the 16x16
    meshes) carrying the pytest marker of the same name."""
    return [
        pytest.param(name, marks=pytest.mark.slow)
        if "slow" in get(name).tags else name
        for name in registry.names()
        if where is None or where(get(name))
    ]
