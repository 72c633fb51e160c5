"""The package's lazy export table."""

import importlib

import pytest

import tomoprop


def test_every_export_resolves():
    for name, module in tomoprop._EXPORTS.items():
        source = importlib.import_module("tomoprop." + module)
        assert getattr(tomoprop, name) is getattr(source, name), name


@pytest.mark.parametrize("name", [
    "SymplecticTomogram", "symplectic_tomogram", "density_point_from_tomogram",
    "kernel_norm_defect", "position_expectation", "momentum_expectation",
])
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(tomoprop, name)
