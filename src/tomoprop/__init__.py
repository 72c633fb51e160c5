"""Optical tomograms of quantum states and their evolution under quadratic
Hamiltonians.

The package provides reference state constructors, the transform web
between density matrices, Wigner functions and optical tomograms, two
independent tomogram evolution backends (affine propagator maps built from
integrals of motion, and semi-Lagrangian integration of the evolution
PDE), and the Schroedinger Green function of the same affine map to
referee both.

Attributes re-export lazily from the submodules: the command-line entry
point must export thread caps to the environment before numpy first
loads, so importing the package itself cannot pull in the numeric stack.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "TomopropError": "errors",
    "GridError": "errors",
    "SupportError": "errors",
    "DegenerateError": "errors",
    "SingularityError": "errors",
    "StepError": "errors",
    "RangeError": "errors",
    "TimeError": "errors",
    "CausticError": "errors",
    "ParseError": "errors",
    "ValidationError": "errors",
    "CoordinateGrid": "grids",
    "TomogramGrid": "grids",
    "WaveFunction": "states",
    "DensityMatrix": "states",
    "make_vacuum": "states",
    "make_coherent": "states",
    "make_cat": "states",
    "density_from_wavefunction": "states",
    "Tomogram": "transforms",
    "WignerFunction": "transforms",
    "density_from_wigner": "transforms",
    "radon": "transforms",
    "inverse_radon": "transforms",
    "inverse_radon_many": "transforms",
    "tomogram_from_density": "transforms",
    "tomogram_from_wavefunction": "transforms",
    "density_from_tomogram": "transforms",
    "moments": "transforms",
    "ConstantSampler": "quad_dynamics",
    "CosineSampler": "quad_dynamics",
    "TableSampler": "quad_dynamics",
    "QuadraticHamiltonian": "quad_dynamics",
    "EpsilonTrajectory": "quad_dynamics",
    "solve_epsilon": "quad_dynamics",
    "OpticalAffineMap": "quad_dynamics",
    "optical_map": "quad_dynamics",
    "compose": "quad_dynamics",
    "evolve_tomogram": "quad_dynamics",
    "evolve_semilagrangian": "pde_evolution",
    "GreenKernel": "oracles",
    "green_kernel": "oracles",
    "evolve_wavefunction": "oracles",
    "ClassicalTrajectory": "oracles",
    "classical_trajectory": "oracles",
    "trace_distance": "oracles",
    "pipeline_discrepancy": "oracles",
    "JobConfig": "config",
    "parse_config": "config",
    "apply_overrides": "config",
}


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
