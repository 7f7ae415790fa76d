"""Reference-solution tests: closed-form shrinking circle, RK4 circle ODE,
and the disk-quadrature evaluation of wave data.

Frozen regression values in this file were produced by the oracles
themselves at their default refinement settings and cross-checked against
closed forms where one exists (damping-only decay, small-time Taylor).
"""

import numpy as np
import pytest

from hmbo.errors import ValidationError
from hmbo.flow import PhysicalParams
from hmbo.oracles import (
    RadiusSeries,
    _rk4_run,
    exact_mcf_radius,
    exact_mcf_series,
    hmcf_circle_radius,
    poisson_eval,
    write_radius_csv,
)


# ---------------------------------------------------------------------------
# closed-form circle


def test_exact_mcf_radius_values():
    assert exact_mcf_radius(1.0, 0.0) == 1.0
    assert exact_mcf_radius(1.0, 0.5) == 0.0
    assert exact_mcf_radius(1.0, 0.375) == pytest.approx(0.5)
    assert exact_mcf_radius(1.0, 0.7) == 0.0  # clamped after extinction
    with pytest.raises(ValidationError):
        exact_mcf_radius(0.0, 0.1)


def test_exact_mcf_series_lattice_and_extinction():
    s = exact_mcf_series(1.0, 0.6, n_samples=7)
    assert np.allclose(s.times, np.linspace(0.0, 0.6, 7))
    assert s.extinction_time == pytest.approx(0.5)
    s2 = exact_mcf_series(1.0, 0.3)
    assert s2.extinction_time is None
    assert len(s2.times) == 101
    with pytest.raises(ValidationError):
        exact_mcf_series(1.0, 0.0)


def test_radius_series_length_mismatch():
    with pytest.raises(ValidationError):
        RadiusSeries(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# RK4 circle ODE


def test_rk4_fourth_order_self_convergence():
    """Halving the internal step should cut the error by about 16x; the
    guaranteed bound asserted here is 8x."""
    times = np.array([0.0, 0.2])
    ref, _ = _rk4_run(1.0, 1.0, 1.0, 1.0, 0.0, times, 64)
    coarse, _ = _rk4_run(1.0, 1.0, 1.0, 1.0, 0.0, times, 2)
    fine, _ = _rk4_run(1.0, 1.0, 1.0, 1.0, 0.0, times, 4)
    e_coarse = abs(coarse[-1] - ref[-1])
    e_fine = abs(fine[-1] - ref[-1])
    assert e_coarse / e_fine > 8.0, f"RK4 order ratio {e_coarse / e_fine}"


def test_damping_only_matches_exponential_decay():
    """With gamma = 0 the ODE is linear: r(t) = r0 + rdot0 (a/b)(1 - e^{-bt/a})."""
    series = hmcf_circle_radius(PhysicalParams(1.0, 2.0, 0.0), 1.0, -0.3, 0.5, 0.1)
    closed = 1.0 + (-0.3) * (1.0 / 2.0) * (1.0 - np.exp(-2.0 * series.times))
    assert np.max(np.abs(series.radii - closed)) < 1e-8
    assert abs(series.radii[-1] - 0.9051819161757163) < 1e-8


def test_no_forcing_no_motion():
    series = hmcf_circle_radius(PhysicalParams(1.0, 1.0, 0.0), 0.8, 0.0, 1.0, 0.25)
    assert np.all(series.radii == 0.8)
    assert series.extinction_time is None


def test_unit_coefficients_regression():
    series = hmcf_circle_radius(PhysicalParams(1.0, 1.0, 1.0), 1.0, 0.0, 0.45, 0.05)
    assert series.extinction_time is None
    assert series.radii[6] == pytest.approx(0.958875787327617, abs=1e-7)
    assert series.radii[9] == pytest.approx(0.9108727194165726, abs=1e-7)


def test_small_time_taylor_expansion():
    """r(t) = r0 - t^2/2 + t^3/6 + O(t^4) for unit coefficients at rest."""
    series = hmcf_circle_radius(PhysicalParams(1.0, 1.0, 1.0), 1.0, 0.0, 0.01, 0.01)
    r = series.radii[-1]
    assert abs(r - 0.9999501658356633) < 1e-9
    assert abs(r - (1.0 - 0.5e-4 + 1e-6 / 6.0)) < 5e-9


def test_overdamped_decay_is_monotone():
    series = hmcf_circle_radius(PhysicalParams(1.0, 20.0, 1.0), 1.0, 0.0, 1.0, 0.02)
    assert np.all(np.diff(series.radii) < 0.0)
    assert np.max(series.radii) == 1.0  # never overshoots the start


def test_small_mass_approaches_curvature_flow():
    """alpha -> 0 collapses the ODE onto r' = -gamma/(beta r)."""
    series = hmcf_circle_radius(PhysicalParams(0.001, 1.0, 1.0), 1.0, 0.0, 0.6, 0.05)
    assert abs(series.radii[6] - np.sqrt(1.0 - 0.6)) < 5e-3
    assert abs(series.radii[9] - np.sqrt(1.0 - 0.9)) < 1e-2
    assert series.extinction_time is not None
    assert 0.5 < series.extinction_time < 0.51


def test_hmcf_oracle_validation():
    with pytest.raises(ValidationError):
        hmcf_circle_radius(PhysicalParams(1.0, 1.0, 1.0), -1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        hmcf_circle_radius(PhysicalParams(1.0, 1.0, 1.0), 1.0, 0.0, 0.1, 0.5)
    with pytest.raises(ValidationError):
        hmcf_circle_radius(PhysicalParams(0.0, 1.0, 1.0), 1.0, 0.0, 1.0, 0.1)


# ---------------------------------------------------------------------------
# disk quadrature


def test_quadrature_kernel_normalization():
    got = poisson_eval(lambda y1, y2: 2.3, None, None, 1.0, 0.4, (0.1, -0.2))
    assert got == pytest.approx(2.3, abs=1e-12)


def test_quadrature_linear_data_is_stationary():
    """Odd moments cancel, so u0 = y1 propagates to u(t, x) = x1."""
    got = poisson_eval(
        lambda y1, y2: y1, lambda y1, y2: (1.0, 0.0), None, 1.3, 0.25, (0.37, 0.11)
    )
    assert got == pytest.approx(0.37, abs=1e-12)


@pytest.mark.parametrize("t,x2", [(0.05, 0.1), (0.1, -0.07)])
def test_quadrature_first_moment(t, x2):
    got = poisson_eval(None, None, lambda y1, y2: -y2, 1.0, t, (0.0, x2))
    assert got == pytest.approx(-t * x2, abs=1e-12)


@pytest.mark.parametrize("kappa,c", [(1.0, 1.0), (-2.0, np.sqrt(2.0))])
def test_quadrature_quadratic_moment_at_origin(kappa, c):
    t = 0.08
    got = poisson_eval(None, None, lambda y1, y2: -0.5 * kappa * y1 * y1, c, t, (0.0, 0.0))
    want = -t * kappa * c * c * t * t / 6.0
    assert got == pytest.approx(want, rel=1e-10)


def test_quadrature_resolution_self_consistency():
    """For smooth non-polynomial data the rule converges spectrally, so two
    mid-size resolutions must already agree tightly."""

    def u0(y1, y2):
        return np.exp(-(y1 * y1 + y2 * y2))

    def grad(y1, y2):
        g = np.exp(-(y1 * y1 + y2 * y2))
        return -2 * y1 * g, -2 * y2 * g

    def v0(y1, y2):
        return np.sin(2 * y1) * np.cos(y2)

    a = poisson_eval(u0, grad, v0, 1.0, 0.25, (0.2, -0.1), n_quad=100)
    b = poisson_eval(u0, grad, v0, 1.0, 0.25, (0.2, -0.1), n_quad=200)
    assert abs(a - b) < 1e-12


def test_quadrature_validation():
    with pytest.raises(ValidationError):
        poisson_eval(lambda y1, y2: 1.0, None, None, 1.0, 0.0, (0, 0))
    with pytest.raises(ValidationError):
        poisson_eval(lambda y1, y2: 1.0, None, None, 1.0, 0.1, (0, 0), n_quad=0)


def test_write_radius_csv(tmp_path):
    series = exact_mcf_series(1.0, 0.5, n_samples=6)
    path = tmp_path / "radius.csv"
    write_radius_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,r"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], series.times)
    assert np.array_equal(data[:, 1], series.radii)
