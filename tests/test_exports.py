"""The package's public names, the thread cap its import applies, and the
README quick start."""

import importlib
import os
import re
import subprocess
import sys
import types

import pytest

import tomoprop

# Every public name of the package and the submodule that defines it.
EXPORTS = {
    "TomopropError": "errors",
    "GridError": "errors",
    "SupportError": "errors",
    "DegenerateError": "errors",
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
    "StateSpec": "states",
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


def test_every_export_is_its_module_object():
    for name, module in EXPORTS.items():
        source = importlib.import_module("tomoprop." + module)
        assert getattr(tomoprop, name) is getattr(source, name), name
    public = {name for name, value in vars(tomoprop).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(EXPORTS)


def test_package_import_applies_the_thread_cap():
    # The cap reaches the environment before the package's own imports
    # load numpy, so `import tomoprop` alone is enough.
    code = ("import os, tomoprop; "
            "print(os.environ.get('OMP_NUM_THREADS'), tomoprop._THREAD_CAP)")
    for val, printed in (("3", "3 3"), (None, "None None"), ("0", "None None")):
        env = {k: v for k, v in os.environ.items()
               if k not in ("TOMOPROP_THREADS", "OMP_NUM_THREADS")}
        if val is not None:
            env["TOMOPROP_THREADS"] = val
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.stdout.strip() == printed, proc.stderr


@pytest.mark.parametrize("name", [
    "SymplecticTomogram", "symplectic_tomogram", "density_point_from_tomogram",
    "kernel_norm_defect", "position_expectation", "momentum_expectation",
    "MotionIntegrals", "motion_integrals", "wigner_from_density",
    "SingularityError",
])
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(tomoprop, name)


def test_readme_quick_start_runs():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
