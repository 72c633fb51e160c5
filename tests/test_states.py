import numpy as np
import pytest

from tomoprop.errors import DegenerateError, GridError, SupportError
from tomoprop.grids import CoordinateGrid
from tomoprop.states import (
    StateSpec,
    WaveFunction,
    density_from_wavefunction,
    make_cat,
    make_coherent,
    make_vacuum,
)


def position_expectation(psi):
    """<q> by trapezoid quadrature."""
    return float(np.sum(psi.grid.points * np.abs(psi.values) ** 2 * psi.grid.trapezoid_weights))


def momentum_expectation(psi):
    """<p> via the spectral derivative -i d/dq."""
    n_q = psi.grid.n_q
    k = 2.0 * np.pi * np.fft.fftfreq(n_q, d=psi.grid.spacing)
    dpsi = np.fft.ifft(1j * k * np.fft.fft(psi.values))
    integrand = np.conj(psi.values) * (-1j) * dpsi
    return float(np.real(np.sum(integrand * psi.grid.trapezoid_weights)))


def test_vacuum_matches_gaussian(grid, vacuum_psi):
    ref = np.pi**-0.25 * np.exp(-0.5 * grid.points**2)
    np.testing.assert_allclose(vacuum_psi.values, ref, atol=1e-12)
    assert vacuum_psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_coherent_expectations(grid):
    alpha = 0.7 - 0.4j
    psi = make_coherent(alpha, grid)
    assert position_expectation(psi) == pytest.approx(np.sqrt(2.0) * alpha.real, abs=1e-10)
    assert momentum_expectation(psi) == pytest.approx(np.sqrt(2.0) * alpha.imag, abs=1e-10)


def test_coherent_is_displaced_vacuum(grid):
    # |alpha|^2 distribution is the vacuum one, shifted by sqrt(2) Re alpha.
    psi = make_coherent(1.0, grid)
    prob = np.abs(psi.values) ** 2
    ref = np.exp(-((grid.points - np.sqrt(2.0)) ** 2)) / np.sqrt(np.pi)
    np.testing.assert_allclose(prob, ref, atol=1e-12)


def test_coherent_center_too_close_to_edge_raises(grid):
    with pytest.raises(SupportError):
        make_coherent(2.5, grid)


def test_coherent_center_too_fast_for_grid():
    coarse = CoordinateGrid(q_max=8.0, n_q=64)
    with pytest.raises(SupportError):
        make_coherent(0.5j * coarse.nyquist_momentum, coarse)


def test_cat_parity(grid9):
    even = make_cat(2.0, sign=+1, grid=grid9)
    odd = make_cat(2.0, sign=-1, grid=grid9)
    np.testing.assert_allclose(even.values, even.values[::-1], atol=1e-12)
    np.testing.assert_allclose(odd.values, -odd.values[::-1], atol=1e-12)
    assert even.norm() == pytest.approx(1.0, abs=1e-10)
    assert odd.norm() == pytest.approx(1.0, abs=1e-10)


def test_cat_needs_wide_window():
    # alpha = 2 places the lobes at 2 sqrt(2); with the 6-unit Gaussian
    # margin the default 8-unit window is too narrow.
    with pytest.raises(SupportError):
        make_cat(2.0)


def test_odd_cat_at_zero_alpha_is_degenerate(grid):
    with pytest.raises(DegenerateError):
        make_cat(0.0, sign=-1, grid=grid)


def test_cat_rejects_other_signs(grid9):
    with pytest.raises(DegenerateError):
        make_cat(2.0, sign=0, grid=grid9)


def test_state_spec_violations():
    assert StateSpec.violations("cat", 2.0, 0.0, -1) == []
    assert StateSpec.violations("squeezed", 0.0, 0.0, 1) == [
        "kind must be one of ('vacuum', 'coherent', 'cat'), got 'squeezed'"
    ]
    # A sign is exactly the int 1 or -1: JSON true and 1.0 both equal 1.
    for sign in (2, True, 1.0):
        assert StateSpec.violations("cat", 2.0, 0.0, sign) == [
            f"sign must be 1 or -1, got {sign!r}"
        ]


def test_state_spec_builds_each_kind(grid, grid9):
    assert np.array_equal(StateSpec().build(grid).values, make_vacuum(grid).values)
    coh = StateSpec(kind="coherent", alpha_re=0.7, alpha_im=-0.4).build(grid)
    assert np.array_equal(coh.values, make_coherent(0.7 - 0.4j, grid).values)
    cat = StateSpec(kind="cat", alpha_re=2.0, sign=-1).build(grid9)
    assert np.array_equal(cat.values, make_cat(2.0, sign=-1, grid=grid9).values)
    # The constructors' run-time guards still apply.
    with pytest.raises(DegenerateError):
        StateSpec(kind="cat", sign=-1).build(grid)
    with pytest.raises(SupportError):
        StateSpec(kind="coherent", alpha_re=2.5).build(grid)


def test_wavefunction_validate_rejects_unnormalized(grid):
    psi = WaveFunction(grid, 2.0 * make_vacuum(grid).values)
    with pytest.raises(SupportError):
        psi.validate()


def test_wavefunction_validate_rejects_nyquist_content(grid):
    # Alternating sign puts all spectral weight at the band edge.
    vals = make_vacuum(grid).values * np.where(np.arange(grid.n_q) % 2 == 0, 1.0, -1.0)
    psi = WaveFunction(grid, vals)
    with pytest.raises(GridError):
        psi.validate()


def test_wavefunction_validate_rejects_wrong_shape(grid):
    psi = WaveFunction(grid, np.zeros(7))
    with pytest.raises(GridError):
        psi.validate()


def test_density_from_wavefunction_is_pure(vacuum_rho):
    assert vacuum_rho.trace() == pytest.approx(1.0, abs=1e-12)
    assert vacuum_rho.purity() == pytest.approx(1.0, abs=1e-10)
    assert vacuum_rho.hermiticity_defect == 0.0
    vals = vacuum_rho.values
    np.testing.assert_allclose(vals, vals.conj().T, atol=1e-15)


def test_density_validate_rejects_nonhermitian(grid, vacuum_rho):
    from tomoprop.states import DensityMatrix

    vals = vacuum_rho.values.copy()
    vals[3, 5] += 1e-6
    with pytest.raises(SupportError):
        DensityMatrix(grid, vals).validate()


def test_density_validate_rejects_wrong_trace(grid, vacuum_rho):
    from tomoprop.states import DensityMatrix

    with pytest.raises(SupportError):
        DensityMatrix(grid, 1.5 * vacuum_rho.values).validate()


def test_density_validate_rejects_non_finite(grid, vacuum_rho):
    from tomoprop.states import DensityMatrix

    for bad in (np.nan, complex(np.inf, 0.0), complex(0.0, np.nan)):
        vals = vacuum_rho.values.copy()
        vals[3, 5] = bad
        with pytest.raises(SupportError, match="non-finite"):
            DensityMatrix(grid, vals).validate()


def test_wavefunction_validate_rejects_non_finite(grid, vacuum_psi):
    for bad in (np.nan, np.inf):
        vals = vacuum_psi.values.astype(complex)
        vals[200] = bad
        with pytest.raises(SupportError, match="non-finite"):
            WaveFunction(grid, vals).validate()
