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
    _disk_nodes,
    _rk4_run,
    exact_mcf_radius,
    exact_mcf_series,
    hmcf_circle_radius,
    poisson_eval,
    rk4_substeps,
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


def _plain_rk4_run(alpha, beta, gamma, r0, rdot0, sample_times, n_sub):
    """_rk4_run as a derivative function called per stage, on whatever
    scalars it is given: the reference its inlined stages must match."""

    def deriv(r, v):
        return v, (-gamma / r - beta * v) / alpha

    radii = [r0]
    r, v = r0, rdot0
    for idx in range(len(sample_times) - 1):
        t0, t1 = sample_times[idx], sample_times[idx + 1]
        h = (t1 - t0) / n_sub
        for j in range(n_sub):
            k1r, k1v = deriv(r, v)
            k2r, k2v = deriv(r + 0.5 * h * k1r, v + 0.5 * h * k1v)
            k3r, k3v = deriv(r + 0.5 * h * k2r, v + 0.5 * h * k2v)
            k4r, k4v = deriv(r + h * k3r, v + h * k3v)
            rn = r + (h / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)
            vn = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            if not (np.isfinite(rn) and np.isfinite(vn)) or rn <= 0.0:
                t_here = t0 + j * h
                t_ext = t_here + h * r / (r - rn) if np.isfinite(rn) and r > rn else t_here + h
                return np.array(radii), float(t_ext)
            r, v = rn, vn
        radii.append(r)
    return np.array(radii), None


@pytest.mark.parametrize(
    "args, times",
    [
        ((0.005, 1.0, 1.0, 1.0, 0.0, 16), np.arange(13) * 0.05),  # goes extinct
        ((1.0, 1.0, 1.0, 1.0, 0.0, 1), np.arange(13) * 0.05),     # stays positive
        ((0.3, 2.0, 0.7, 0.8, -1.0, 4), np.arange(13) * 0.05),
        ((1.0, 0.0, 1.0, 0.5, -1.0, 1), np.array([0.0, 1.0])),    # a stage radius of exactly 0
        # the fourth stage's radius r4 is exactly 0, yet the step's end
        # radius is finite: both forms give t_ext = 0.9498602904877845, and
        # a run that ended the step at t0 + h on the Python-float division
        # error would give 1.0
        ((1.0, 0.0, 1.0, 1.0, -0.3819660112501052, 1), np.array([0.0, 1.0])),
    ],
)
def test_rk4_run_matches_per_stage_form_bit_for_bit(args, times):
    *coeffs, n_sub = args
    with np.errstate(all="ignore"):
        want_r, want_t = _plain_rk4_run(*(np.float64(c) for c in coeffs), times, n_sub)
    got_r, got_t = _rk4_run(*coeffs, times, n_sub)
    assert np.array_equal(got_r.view(np.uint64), want_r.view(np.uint64))
    assert got_t == want_t


def test_rk4_zero_stage_radius_gives_the_ieee_result():
    """The second stage lands on r = 0 exactly; a division by it gives the
    numpy infinity, not a ZeroDivisionError, and the run stops there."""
    radii, t_ext = _rk4_run(1.0, 0.0, 1.0, 0.5, -1.0, np.array([0.0, 1.0]), 1)
    assert np.array_equal(radii, [0.5])
    assert t_ext == 1.0


def test_rk4_substeps_start_within_the_relaxation_time():
    assert rk4_substeps(PhysicalParams(1.0, 1.0, 1.0), 0.05) == 1
    assert rk4_substeps(PhysicalParams(0.005, 1.0, 1.0), 0.05) == 16
    assert rk4_substeps(PhysicalParams(1e-6, 0.0, 1.0), 0.05) == 1  # no damping
    with pytest.raises(ValidationError, match="floor"):
        rk4_substeps(PhysicalParams(1e-300, 1.0, 1.0), 0.05)


def test_stiff_reference_is_resolved():
    """alpha/beta = 1e-6, far below the sample spacing: the refinement
    starts at a stable step and lands within 1e-6 of the extinction time at
    dt = 1e-3 (0.50000782682044, frozen); started at dt it agreed on a
    blow-up at t = 1.5e-12."""
    series = hmcf_circle_radius(PhysicalParams(1e-6, 1.0, 1.0), 1.0, 0.0, 0.6, 0.05)
    assert abs(series.extinction_time - 0.50000782682044) < 1e-6
    with pytest.raises(ValidationError, match="floor"):
        hmcf_circle_radius(PhysicalParams(1e-300, 1.0, 1.0), 1.0, 0.0, 0.6, 0.05)


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


def test_quadrature_nodes_are_built_once_and_read_only():
    def ut0(y1, y2):
        return np.cos(y1) * y2

    first = poisson_eval(None, None, ut0, 1.0, 0.2, (0.3, -0.4))
    assert poisson_eval(None, None, ut0, 1.0, 0.2, (0.3, -0.4)) == first
    nodes = _disk_nodes(200)
    assert _disk_nodes(200) is nodes
    for arr in nodes:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


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
