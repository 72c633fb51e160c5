"""End-to-end acceptance checks for the tomographic propagator stack.

Each test exercises one externally checkable contract against a closed
form or an independent route through the code, and prints a single
summary line of the form

    ACCEPTANCE <n> <name>: PASS measured=<worst> tol=<its tolerance>

where <worst> is the measured quantity closest to its tolerance.  The
lines bypass pytest's capture so a plain run shows the full scorecard.
"""

import filecmp
import json
import os

import numpy as np

from tomoprop import oracles
from tomoprop import pde_evolution as pde
from tomoprop import quad_dynamics as qd
from tomoprop import transforms as tr
from tomoprop.cli import main as cli_main
from tomoprop.grids import TomogramGrid


def emit(capsys, n, name, pairs, extra_pass=True):
    """Assert measured <= tol for every pair and print the scorecard line."""
    ok = extra_pass and all(m <= t for m, t in pairs)

    def ratio(pair):
        m, t = pair
        if t > 0.0:
            return m / t
        return np.inf if m > 0.0 else 0.0

    worst = max(pairs, key=ratio)
    line = "ACCEPTANCE %d %s: %s measured=%.3e tol=%.0e" % (
        n, name, "PASS" if ok else "FAIL", worst[0], worst[1])
    with capsys.disabled():
        print(line)
    assert ok, line


def mathieu(force=0.0):
    return qd.QuadraticHamiltonian(
        qd.CosineSampler(1.0, 0.2, 2.0), qd.ConstantSampler(force))


def map_evolved(w0, H, t, dt=1e-3, interp="linear"):
    traj = qd.solve_epsilon(H, t, dt)
    m = qd.optical_map(traj, t)
    return qd.evolve_tomogram(w0, m, interp=interp)


def l1_gap(a, b):
    wx = a.grid.x_trapezoid_weights
    return float(np.mean(np.abs(a.values - b.values) @ wx))


def test_acceptance_01_vacuum_tomogram(capsys, vacuum_rho, tgrid):
    w = tr.tomogram_from_density(vacuum_rho, tgrid)
    ref = np.exp(-tgrid.xs ** 2) / np.sqrt(np.pi)
    linf = float(np.abs(w.values - ref[None, :]).max())
    emit(capsys, 1, "vacuum_tomogram_closed_form", [(linf, 1e-5)])


def test_acceptance_02_transform_round_trips(
        capsys, vacuum_rho, coherent_complex_rho, cat_rho,
        tgrid, tgrid9, grid, grid9):
    cases = [
        (vacuum_rho, tgrid, grid),
        (coherent_complex_rho, tgrid, grid),
        (cat_rho, tgrid9, grid9),
    ]
    pairs = []
    for rho, tg, g in cases:
        w = tr.tomogram_from_density(rho, tg)
        rho_back = tr.density_from_tomogram(w, g)
        pairs.append((oracles.trace_distance(rho, rho_back), 1e-2))
        w_back = tr.radon(tr.inverse_radon(w), tg)
        pairs.append((float(np.abs(w_back.values - w.values).max()), 2e-3))
    emit(capsys, 2, "transform_round_trips", pairs)


def test_acceptance_03_harmonic_rotation(capsys, coherent_tomogram):
    # pi/3 is exactly 60 rows of the default theta grid, so the evolved
    # tomogram must be a pure row shift through the twisted extension.
    wt = map_evolved(coherent_tomogram, qd.QuadraticHamiltonian.harmonic(),
                     np.pi / 3)
    v = coherent_tomogram.values
    ref = np.vstack([v[60:], v[:60, ::-1]])
    linf = float(np.abs(wt.values - ref).max())
    emit(capsys, 3, "harmonic_rotation", [(linf, 1e-3)])


def test_acceptance_04_free_spreading(capsys, vacuum_rho):
    # Odd row count puts one row exactly at theta = pi/2, which free motion
    # must leave untouched while every other row spreads by r(theta).
    tg = TomogramGrid(x_max=8.0, n_x=1024, n_theta=181)
    w0 = tr.tomogram_from_density(vacuum_rho, tg)
    wt = map_evolved(w0, qd.QuadraticHamiltonian.free(), 1.0, interp="cubic")

    s, c = np.sin(tg.thetas), np.cos(tg.thetas)
    r_sq = (s + c) ** 2 + c ** 2
    m2 = tr.moments(wt, 2)
    rel = float(np.abs(m2 / (r_sq / 2.0) - 1.0).max())

    j_mid = (tg.n_theta - 1) // 2
    assert abs(tg.thetas[j_mid] - np.pi / 2.0) < 1e-12
    row_dev = float(np.abs(wt.values[j_mid] - w0.values[j_mid]).max())
    emit(capsys, 4, "free_spreading", [(rel, 1e-4), (row_dev, 1e-6)])


def test_acceptance_05_wronskian_and_symplectic(capsys):
    times = np.linspace(0.0, 10.0, 37)
    traj = qd.solve_epsilon(mathieu(), 10.0, 1e-3, stops=times)
    wr = 2.0 * np.imag(traj.eps_dot * np.conj(traj.eps))
    drift = float(np.abs(wr - 2.0).max())
    det_dev = 0.0
    for t in times:
        lam = qd.optical_map(traj, float(t)).lambda_mat
        det = lam[0, 0] * lam[1, 1] - lam[0, 1] * lam[1, 0]
        det_dev = max(det_dev, abs(det - 1.0))
    emit(capsys, 5, "wronskian_and_symplectic",
         [(drift, 1e-8), (det_dev, 1e-8)])


def test_acceptance_06_two_step_composition(capsys, coherent_tomogram):
    H = mathieu(force=0.3)
    split, T = 1.0, 2.0
    m20 = qd.optical_map(qd.solve_epsilon(H, T), T)
    m10 = qd.optical_map(qd.solve_epsilon(H, split), split)
    tail = qd.solve_epsilon(H.shifted(split), T - split)
    m21 = qd.optical_map(tail, T - split, t_from=split)

    comp = qd.compose(m21, m10)
    lam_dev = float(np.abs(comp.lambda_mat - m20.lambda_mat).max())
    delta_dev = float(np.abs(comp.delta - m20.delta).max())

    w_one = qd.evolve_tomogram(coherent_tomogram, m20)
    w_two = qd.evolve_tomogram(qd.evolve_tomogram(coherent_tomogram, m10), m21)
    emit(capsys, 6, "two_step_composition",
         [(lam_dev, 1e-8), (delta_dev, 1e-8), (l1_gap(w_two, w_one), 5e-3)])


def test_acceptance_07_backend_agreement(capsys, coherent_rho, tgrid):
    H = mathieu(force=0.3)
    gaps = []
    for tg, dt in ((tgrid, 1e-3), (TomogramGrid(8.0, 512, 90), 2e-3)):
        w0 = tr.tomogram_from_density(coherent_rho, tg)
        w_map = map_evolved(w0, H, 1.0, dt)
        w_pde = pde.evolve_semilagrangian(w0, H, 1.0, dt)[-1]
        gaps.append(l1_gap(w_map, w_pde))
    fine, coarse = gaps
    order = float(np.log2(coarse / fine))
    emit(capsys, 7, "backend_agreement",
         [(fine, 1e-2), (coarse, 1e-2)], extra_pass=order >= 1.8)


def test_acceptance_08_kernel_correspondence(capsys, vacuum_psi, coherent_psi,
                                             vacuum_tomogram, coherent_tomogram):
    maps = [qd.optical_map(qd.solve_epsilon(H, t), t)
            for H, t in ((qd.QuadraticHamiltonian.free(), 0.5),
                         (qd.QuadraticHamiltonian.harmonic(), 1.0))]
    pairs = []
    for psi, w0 in ((vacuum_psi, vacuum_tomogram), (coherent_psi, coherent_tomogram)):
        for rec in oracles.pipeline_discrepancy(psi, w0, maps):
            pairs.append((rec["trace_distance"], 1e-2))
    emit(capsys, 8, "kernel_correspondence", pairs)


def test_acceptance_09_ehrenfest_first_moment(capsys, coherent_tomogram, tgrid):
    H = qd.QuadraticHamiltonian(qd.ConstantSampler(1.0), qd.ConstantSampler(0.3))
    times = np.array([0.5, 1.0, 2.0])
    q0, p0 = np.sqrt(2.0), 0.0
    cl = oracles.classical_trajectory(H, q0, p0, times)
    traj = qd.solve_epsilon(H, 2.0)
    s, c = np.sin(tgrid.thetas), np.cos(tgrid.thetas)
    dev = 0.0
    for i, t in enumerate(times):
        m = qd.optical_map(traj, float(t))
        wt = qd.evolve_tomogram(coherent_tomogram, m)
        ref = cl.q_cl[i] * c + cl.p_cl[i] * s
        dev = max(dev, float(np.abs(tr.moments(wt, 1) - ref).max()))
    emit(capsys, 9, "ehrenfest_first_moment", [(dev, 1e-3)])


def test_acceptance_10_conservation_laws(capsys, coherent_pure_tomogram):
    hams = [
        qd.QuadraticHamiltonian.free(),
        qd.QuadraticHamiltonian.harmonic(),
        mathieu(),
        mathieu(force=0.3),
    ]
    norm_dev, min_val = 0.0, np.inf
    for H in hams:
        wt = map_evolved(coherent_pure_tomogram, H, 1.0)
        norm_dev = max(norm_dev, float(np.abs(wt.row_norms() - 1.0).max()))
        min_val = min(min_val, float(wt.values.min()))
    neg = max(0.0, -min_val)
    emit(capsys, 10, "conservation_laws", [(norm_dev, 1e-3), (neg, 1e-12)])


def test_acceptance_11_deterministic_output(capsys, tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "times": [0.5],
        "backend": "both",
        "grid": {"x_max": 8.0, "n_x": 512, "n_theta": 90,
                 "q_max": 8.0, "n_q": 256},
    }))
    for d in ("a", "b"):
        rc = cli_main(["evolve", "--config", str(cfg),
                       "--output-dir", str(tmp_path / d)])
        assert rc == 0
    names = sorted(os.listdir(tmp_path / "a"))
    assert "tomogram_map_000.csv" in names
    data_names = [n for n in names if n != "run_meta.json"]
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", data_names, shallow=False)
    differing = float(len(mismatch) + len(errors))
    emit(capsys, 11, "deterministic_output", [(differing, 0.0)],
         extra_pass=sorted(match) == data_names)
