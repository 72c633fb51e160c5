"""Optical tomograms of quantum states and their evolution under quadratic
Hamiltonians.

The package provides reference state constructors, the transform web
between density matrices, Wigner functions and optical tomograms, two
independent tomogram evolution backends (affine propagator maps built from
integrals of motion, and semi-Lagrangian integration of the evolution
PDE), and the Schroedinger Green function of the same affine map to
referee both.

TOMOPROP_THREADS caps the BLAS/FFT thread pools (0 or unset = automatic).
The cap must reach the environment before numpy first loads, so it is
applied here, before any submodule is imported, and _THREAD_CAP records
it.  Every public name below is then re-exported from its submodule.
"""

import os


def _apply_thread_env():
    """Export the TOMOPROP_THREADS cap; returns it, or None for automatic."""
    val = os.environ.get("TOMOPROP_THREADS", "").strip()
    if val and val != "0":
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, val)
        return val
    return None


_THREAD_CAP = _apply_thread_env()

__version__ = "0.1.0"

from .errors import (  # noqa: E402
    TomopropError, GridError, SupportError, DegenerateError, StepError, RangeError, TimeError,
    CausticError, ParseError, ValidationError,
)
from .grids import CoordinateGrid, TomogramGrid  # noqa: E402
from .states import (  # noqa: E402
    WaveFunction, DensityMatrix, make_vacuum, make_coherent, make_cat, StateSpec,
    density_from_wavefunction,
)
from .transforms import (  # noqa: E402
    Tomogram, WignerFunction, density_from_wigner, radon, inverse_radon, inverse_radon_many,
    tomogram_from_density, tomogram_from_wavefunction, density_from_tomogram, moments,
)
from .quad_dynamics import (  # noqa: E402
    ConstantSampler, CosineSampler, TableSampler, QuadraticHamiltonian, EpsilonTrajectory,
    solve_epsilon, OpticalAffineMap, optical_map, compose, evolve_tomogram,
)
from .pde_evolution import evolve_semilagrangian  # noqa: E402
from .oracles import (  # noqa: E402
    GreenKernel, green_kernel, evolve_wavefunction, ClassicalTrajectory, classical_trajectory,
    trace_distance, pipeline_discrepancy,
)
from .config import JobConfig, parse_config, apply_overrides  # noqa: E402
