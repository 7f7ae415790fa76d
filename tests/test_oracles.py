"""Reference-solution tests: closed-form shrinking circle, RK4 circle ODE,
and the disk-quadrature evaluation of wave data.

Frozen regression values in this file were produced by the oracles
themselves at their default refinement settings and cross-checked against
closed forms where one exists (damping-only decay, small-time Taylor).
"""

import hashlib

import numpy as np
import pytest

from hmbo import oracles
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
    scalars it is given, with every stage computed before the crossing
    test reads them: the reference its inlined stages and bisection must
    match."""

    def deriv(r, v):
        return v, (-gamma / r - beta * v) / alpha

    def step(r, v, h):
        """(end radius, end speed, whether the step crosses zero); the end
        radius is nan where a stage radius is no positive finite double"""
        k1r, k1v = deriv(r, v)
        r2, v2 = r + 0.5 * h * k1r, v + 0.5 * h * k1v
        k2r, k2v = deriv(r2, v2)
        r3, v3 = r + 0.5 * h * k2r, v + 0.5 * h * k2v
        k3r, k3v = deriv(r3, v3)
        r4, v4 = r + h * k3r, v + h * k3v
        k4r, k4v = deriv(r4, v4)
        rn = r + (h / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)
        vn = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not all(0.0 < x < np.inf for x in (r2, r3, r4)):
            rn = np.nan
        return rn, vn, not (0.0 < rn < np.inf and np.isfinite(vn))

    radii = [r0]
    r, v = r0, rdot0
    for idx in range(len(sample_times) - 1):
        t0, t1 = sample_times[idx], sample_times[idx + 1]
        h = (t1 - t0) / n_sub
        for j in range(n_sub):
            rn, vn, crossed = step(r, v, h)
            if crossed:
                t = t0 + j * h
                while 0.5 * h != 0.0 and t + 0.5 * h != t:
                    rn, vn, crossed = step(r, v, 0.5 * h)
                    if not crossed:
                        r, v, t = rn, vn, t + 0.5 * h
                    h = 0.5 * h
                rn, _, _ = step(r, v, h)
                frac = r / (r - rn) if np.isfinite(rn) and rn <= 0.0 else 1.0
                return np.array(radii), float(t + h * frac)
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
        # radius is finite: the step crosses all the same, and both forms
        # bisect it
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


def test_rk4_zero_stage_radius_halts_the_step_before_dividing():
    """The second stage lands on r = 0 exactly: the step crosses zero before
    anything divides by that radius, and the run stops there.  Bisecting
    the step finds the exact crossing of r'' = -1/r from r = 0.5,
    r' = -1, the integral of dr/sqrt(1 + 2 ln(0.5/r)) over (0, 0.5)."""
    radii, t_ext = _rk4_run(1.0, 0.0, 1.0, 0.5, -1.0, np.array([0.0, 1.0]), 1)
    assert np.array_equal(radii, [0.5])
    assert abs(t_ext - 0.32783977) < 2e-4


def test_a_t_end_off_the_sample_lattice_is_the_last_sample():
    """Samples lie every dt from 0, and a t_end between two of them is
    appended as the last sample, where the radius is that of a run whose
    lattice holds t_end."""
    p = PhysicalParams(1.0, 1.0, 1.0)
    series = hmcf_circle_radius(p, 1.0, 0.0, 0.33, 0.1)
    assert np.allclose(series.times, [0.0, 0.1, 0.2, 0.3, 0.33], rtol=0.0, atol=1e-15)
    assert series.times[-1] == 0.33 and series.extinction_time is None
    assert abs(series.radii[-1] - hmcf_circle_radius(p, 1.0, 0.0, 0.33, 0.01).radii[-1]) < 1e-8


def test_refinements_that_disagree_on_extinction_refine_further(monkeypatch):
    """With t_end just past the extinction time, the coarsest refinements
    step over the zero within their last sample interval (RK4 lands on a
    positive radius) and see no extinction, and finer ones do.  Refinements
    that disagree on whether the circle vanishes are not converged: the
    refinement goes on, and the extinction time is the one a t_end far past
    it gives, to 1e-8."""
    passes = []

    def counted(*args):
        passes.append(_rk4_run(*args))
        return passes[-1]

    p = PhysicalParams(1.0, 1.0, 1.0)
    far = hmcf_circle_radius(p, 1.0, 0.0, 5.0, 0.1).extinction_time
    monkeypatch.setattr(oracles, "_rk4_run", counted)
    series = hmcf_circle_radius(p, 1.0, 0.0, 1.4995, 0.1)
    assert passes[0][1] is None and passes[-1][1] is not None
    assert abs(series.extinction_time - far) < 1e-8


def test_extinction_refinement_converges_at_rk4_order(monkeypatch):
    """The extinction time is bisected inside the step that crosses zero,
    so alpha = 0.005 agrees to 1e-8 after 4 passes (n_sub 16 to 128), not
    13, within 2e-8 of a reference at n_sub = 65536 (frozen)."""
    passes = []

    def counted(*args):
        passes.append(args[-1])
        return _rk4_run(*args)

    monkeypatch.setattr(oracles, "_rk4_run", counted)
    series = hmcf_circle_radius(PhysicalParams(0.005, 1.0, 1.0), 1.0, 0.0, 0.6, 0.05)
    assert len(passes) <= 5
    assert abs(series.extinction_time - 0.5178404860809749) < 2e-8


@pytest.mark.parametrize("r0", [1e-6, 1e-100, 1e-150, 1e-200])
def test_extinction_of_a_tiny_circle_is_resolved(r0):
    """From rest, alpha r'' = -gamma/r gives r'^2/2 = (gamma/alpha) ln(r0/r),
    so a circle far smaller than the internal step vanishes after
    r0*sqrt(pi*alpha/(2*gamma)); the damping has no time to act."""
    series = hmcf_circle_radius(PhysicalParams(1.0, 1.0, 1.0), r0, 0.0, 0.1, 0.05)
    assert abs(series.extinction_time / (r0 * np.sqrt(np.pi / 2)) - 1.0) < 2e-3


def test_extinction_below_the_smallest_double_is_rejected():
    """gamma = 1e300 takes a circle of 1e-200 to zero after about 1e-350,
    which no double can tell from 0: even a step of 5e-324 crosses zero."""
    with pytest.raises(ValidationError, match="underflows"):
        hmcf_circle_radius(PhysicalParams(1.0, 1.0, 1e300), 1e-200, 0.0, 0.1, 0.05)


def test_criterion_7_oracle_radii_are_frozen():
    """A run that never reaches zero takes the steps it took before the
    bisection existed: the same bits (sha256 of the radii, frozen)."""
    tau = 1.0 / 300.0
    series = hmcf_circle_radius(PhysicalParams(1.0, 1.0, 1.0), 1.0, 0.0, 90 * tau, tau)
    assert series.extinction_time is None
    digest = hashlib.sha256(series.radii.tobytes()).hexdigest()
    assert digest == "32fca096051c72023aec46e1c750a334e2e56b439d747a45851ac4cdbb3fc477"


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
