"""Leapfrog wave solver tests: stability guard, exactness cases, the Neumann
standing mode, time reversal, the logged discrete energy, and large grids
solved on row strips across threads."""

import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest

from hmbo.errors import NumericalError, ValidationError
from hmbo.fields import ScalarField, field_from_function, make_grid
from hmbo.wave import (
    _STRIP_NODES,
    THREADS_ENV,
    WaveParams,
    _energy_values,
    _Strips,
    cfl_max_dt,
    cfl_number,
    wave_solve,
)


def _zeros(grid):
    return ScalarField(grid, np.zeros(grid.shape))


def _standing_mode(grid):
    """Lowest symmetric eigenmode of the box (-2,2)^2 with zero-flux walls."""
    return field_from_function(
        grid, lambda x, y: np.cos(np.pi * (x + 2) / 4) * np.cos(np.pi * (y + 2) / 4)
    )


_OMEGA = np.sqrt(2.0) * np.pi / 4  # its continuum frequency at c = 1


def _random_mode_field(grid, rng, k_max=4):
    """Band-limited random field compatible with the mirrored boundary."""
    X, Y = grid.mesh()
    lx, ly = grid.xmax - grid.xmin, grid.ymax - grid.ymin
    out = np.zeros(grid.shape)
    for i in range(k_max):
        for j in range(k_max):
            out += rng.normal() * np.cos(i * np.pi * (X - grid.xmin) / lx) * np.cos(
                j * np.pi * (Y - grid.ymin) / ly
            )
    return ScalarField(grid, out)


def test_wave_params_validation():
    with pytest.raises(ValidationError):
        WaveParams(0.0, 0.1, 1.0)
    with pytest.raises(ValidationError):
        WaveParams(1.0, 0.5, 0.1)  # dt > tau
    with pytest.raises(ValidationError):
        WaveParams(1.0, -0.1, 1.0)


def test_cfl_numbers():
    g = make_grid(3, 3, (0, 2, 0, 2))  # dx = dy = 1
    assert cfl_number(1.0, 1.0, g) == pytest.approx(np.sqrt(2.0))
    assert cfl_max_dt(1.0, g) == pytest.approx(1.0 / np.sqrt(2.0))
    # square cells: the bound reduces to dx / (c sqrt(2))
    g2 = make_grid(11, 11, (0, 1, 0, 1))
    assert cfl_max_dt(4.0, g2) == pytest.approx(g2.dx / (2.0 * np.sqrt(2.0)))
    # the combination used by the shrinking-circle experiment at N=256
    g3 = make_grid(256, 256, (-2, 2, -2, 2))
    assert cfl_max_dt(6.0 * 300.0, g3) == pytest.approx(2.614e-4, rel=1e-3)
    for c2 in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError, match="c2 must be positive"):
            cfl_max_dt(c2, g)


def test_wave_solve_rejects_cfl_violation():
    g = make_grid(33, 33, (-1, 1, -1, 1))
    params = WaveParams(1.0, 2.0 * cfl_max_dt(1.0, g), 1.0)
    with pytest.raises(ValidationError):
        wave_solve(_zeros(g), _zeros(g), params)
    # the bound itself is accepted
    dt_max = cfl_max_dt(1.0, g)
    u = wave_solve(_zeros(g), _zeros(g), WaveParams(1.0, dt_max, 4 * dt_max))
    assert np.array_equal(u.values, np.zeros(g.shape))
    with pytest.raises(ValidationError, match="CFL"):
        wave_solve(_zeros(g), _zeros(g), WaveParams(1.0, 1.000001 * dt_max, 1.0))


def test_wave_solve_rejects_grid_mismatch():
    g1 = make_grid(9, 9, (-1, 1, -1, 1))
    g2 = make_grid(9, 9, (-2, 2, -2, 2))
    with pytest.raises(ValidationError):
        wave_solve(_zeros(g1), _zeros(g2), WaveParams(1.0, 0.01, 0.1))


def test_constant_state_is_exactly_preserved():
    g = make_grid(17, 17, (-1, 1, -1, 1))
    u0 = ScalarField(g, np.full(g.shape, 3.7))
    out = wave_solve(u0, _zeros(g), WaveParams(2.0, 0.01, 0.5))
    assert np.array_equal(out.values, u0.values)


def test_uniform_velocity_gives_linear_drift():
    """u0 = 0, ut0 = V stays spatially flat and grows like V t."""
    g = make_grid(17, 17, (-1, 1, -1, 1))
    v = 0.4
    tau = 0.73
    out = wave_solve(_zeros(g), ScalarField(g, np.full(g.shape, v)), WaveParams(1.0, 0.02, tau))
    assert np.max(np.abs(out.values - v * tau)) < 1e-13


def test_linearity(rng):
    g = make_grid(25, 25, (-2, 2, -2, 2))
    u0, w0 = _random_mode_field(g, rng), _random_mode_field(g, rng)
    ut0, wt0 = _random_mode_field(g, rng), _random_mode_field(g, rng)
    params = WaveParams(1.0, 0.5 * cfl_max_dt(1.0, g), 0.6)
    a, b = 0.7, -1.3
    combo = wave_solve(
        ScalarField(g, a * u0.values + b * w0.values),
        ScalarField(g, a * ut0.values + b * wt0.values),
        params,
    )
    want = a * wave_solve(u0, ut0, params).values + b * wave_solve(w0, wt0, params).values
    scale = np.max(np.abs(want))
    assert np.max(np.abs(combo.values - want)) < 1e-10 * scale


def test_sign_flip_is_exact(rng):
    """Negating both input fields negates the output bit for bit."""
    g = make_grid(21, 21, (-2, 2, -2, 2))
    u0, ut0 = _random_mode_field(g, rng), _random_mode_field(g, rng)
    params = WaveParams(1.0, 0.5 * cfl_max_dt(1.0, g), 0.45)
    pos = wave_solve(u0, ut0, params)
    neg = wave_solve(ScalarField(g, -u0.values), ScalarField(g, -ut0.values), params)
    assert np.array_equal(neg.values, -pos.values)


def _standing_error(n, tau=0.8, cfl=0.5):
    g = make_grid(n, n, (-2, 2, -2, 2))
    u0 = _standing_mode(g)
    dt = cfl * cfl_max_dt(1.0, g)
    out = wave_solve(u0, _zeros(g), WaveParams(1.0, dt, tau))
    return np.max(np.abs(out.values - u0.values * np.cos(_OMEGA * tau)))


def test_standing_mode_accuracy_and_order():
    """Second-order scheme: halving dx and dt should shrink the error ~4x."""
    e_coarse = _standing_error(33)
    e_fine = _standing_error(65)
    assert e_fine < 1e-3, f"standing-mode error too large: {e_fine}"
    ratio = e_coarse / e_fine
    assert ratio > 3.0, f"expected near-quadratic convergence, got ratio {ratio}"


def test_shortened_final_substep_accuracy():
    # tau chosen so it is not a multiple of dt; the last partial step must
    # not degrade the solution below the full-step accuracy level
    err = _standing_error(65, tau=0.37)
    assert err < 1e-4, f"shortened-substep error {err}"


def test_time_reversal_returns_initial_state():
    """Leapfrog is exactly reversible; running the window backwards from the
    final state (velocity recovered by a central difference of two nearby
    windows) reproduces u0 to roundoff, not merely O(dt^2)."""
    g = make_grid(33, 33, (-2, 2, -2, 2))
    u0 = field_from_function(g, lambda x, y: np.exp(-2 * (x * x + y * y)))
    tau, n_sub = 0.5, 32
    dt = tau / n_sub
    params = WaveParams(1.0, dt, tau)
    u_end = wave_solve(u0, _zeros(g), params)
    u_plus = wave_solve(u0, _zeros(g), WaveParams(1.0, dt, tau + dt))
    u_minus = wave_solve(u0, _zeros(g), WaveParams(1.0, dt, tau - dt))
    v_end = ScalarField(g, -(u_plus.values - u_minus.values) / (2 * dt))
    back = wave_solve(u_end, v_end, params)
    assert np.max(np.abs(back.values - u0.values)) < 1e-12


def test_blowup_reports_substep_index():
    g = make_grid(17, 17, (-1, 1, -1, 1))
    huge = np.full(g.shape, 1e308)
    huge[::2, ::2] *= -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="substep 1"):
            wave_solve(ScalarField(g, huge), _zeros(g), WaveParams(1.0, 0.05, 0.5))


def test_energy_log_format_and_drift(tmp_path):
    g = make_grid(33, 33, (-2, 2, -2, 2))
    dt = 0.5 * cfl_max_dt(1.0, g)
    path = tmp_path / "energy.csv"
    wave_solve(_standing_mode(g), _zeros(g), WaveParams(1.0, dt, 0.8), energy_log=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t,energy"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert int(data[0, 0]) == 1
    assert data[0, 1] == pytest.approx(dt)
    energy = data[:, 2]
    drift = np.max(np.abs(energy - energy[0])) / energy[0]
    assert drift < 1e-3, f"energy drift {drift}"


def test_energy_bounded_at_cfl_point_nine(rng, tmp_path):
    """No exponential growth near the stability limit for generic data."""
    g = make_grid(49, 49, (-2, 2, -2, 2))
    u0 = _random_mode_field(g, rng)
    ut0 = ScalarField(g, 0.5 * _random_mode_field(g, rng).values)
    dt = 0.9 * cfl_max_dt(2.0, g)
    path = tmp_path / "energy.csv"
    wave_solve(u0, ut0, WaveParams(2.0, dt, 1.3), energy_log=path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    ratio = data[-1, 2] / data[0, 2]
    assert 0.99 < ratio < 1.01, f"energy ratio {ratio}"


def test_discrete_energy_zero_for_static_constant():
    g = make_grid(9, 9, (-1, 1, -1, 1))
    f = np.full(g.shape, 4.2)
    assert _energy_values(f, f, 1.0, 0.1, g.dx, g.dy) == 0.0


def test_discrete_energy_quadruples_with_amplitude(rng):
    g = make_grid(15, 15, (-1, 1, -1, 1))
    a = rng.standard_normal(g.shape)
    b = rng.standard_normal(g.shape)
    e1 = _energy_values(a, b, 3.0, 0.05, g.dx, g.dy)
    e2 = _energy_values(2 * a, 2 * b, 3.0, 0.05, g.dx, g.dy)
    assert e2 == 4.0 * e1


# ---------------------------------------------------------------------------
# the buffered solve against the same arithmetic with one temporary per
# operation, bit for bit


def _padded_laplacian(v, dx, dy):
    p = np.pad(v, 1, mode="reflect")
    return (p[1:-1, :-2] - 2.0 * v + p[1:-1, 2:]) / (dx * dx) + (
        p[:-2, 1:-1] - 2.0 * v + p[2:, 1:-1]
    ) / (dy * dy)


def _plain_energy(u_prev, u_cur, c2, dt, dx, dy):
    ny, nx = u_cur.shape
    wx, wy = np.ones(nx), np.ones(ny)
    wx[0] = wx[-1] = wy[0] = wy[-1] = 0.5
    vel = (u_cur - u_prev) / dt
    half = 0.5 * (u_prev + u_cur)
    gx = (half[:, 1:] - half[:, :-1]) / dx
    gy = (half[1:, :] - half[:-1, :]) / dy
    kinetic = float(np.sum((wy[:, None] * wx[None, :]) * vel * vel))
    grad = float(np.sum(wy[:, None] * gx * gx)) + float(np.sum(wx[None, :] * gy * gy))
    return 0.5 * dx * dy * (kinetic + c2 * grad)


def _plain_solve(u0, ut0, c2, dt, tau, dx, dy):
    """u(tau) and the energy of every stored pair."""
    n_full = int(np.floor(tau / dt + 1e-9))
    rem = tau - n_full * dt
    if rem < 1e-12 * tau:
        rem = 0.0

    def starter(u, vel, h, lap):
        return u + h * vel + (0.5 * h * h * c2) * lap

    u_prev, u_cur = u0, starter(u0, ut0, dt, _padded_laplacian(u0, dx, dy))
    energies = [_plain_energy(u_prev, u_cur, c2, dt, dx, dy)]
    coeff = c2 * dt * dt
    for _ in range(2, n_full + 1):
        u_next = 2.0 * u_cur - u_prev + coeff * _padded_laplacian(u_cur, dx, dy)
        energies.append(_plain_energy(u_cur, u_next, c2, dt, dx, dy))
        u_prev, u_cur = u_cur, u_next
    if rem > 0.0:
        lap_cur = _padded_laplacian(u_cur, dx, dy)
        vel = (u_cur - u_prev) / dt + (0.5 * dt * c2) * lap_cur
        u_next = starter(u_cur, vel, rem, lap_cur)
        energies.append(_plain_energy(u_cur, u_next, c2, rem, dx, dy))
        u_cur = u_next
    return u_cur, energies


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("shape", [(7, 5), (2, 2), (5, 9)])
def test_buffered_energy_is_bit_identical(rng, shape):
    """In new arrays or in reused buffers, the energy is the float of the
    one-temporary-per-operation form; a second pair in the same buffers too."""
    ny, nx = shape
    dx, dy = 0.37, 0.21
    ghost, work, out = np.empty((ny + 2, nx + 2)), np.empty(shape), np.empty(shape)
    for _ in range(2):
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        want = _plain_energy(a, b, 1.7, 0.013, dx, dy)
        assert _energy_values(a, b, 1.7, 0.013, dx, dy) == want
        assert _energy_values(a, b, 1.7, 0.013, dx, dy, ghost, work, out) == want


@pytest.mark.parametrize("scale", [1e-158, 1e-310, 1e150])
def test_energy_of_extreme_fields_is_bit_identical(rng, scale):
    """Fields scaled so that the weighted squares are subnormal, or near
    1e300: the energy is still the float of the one-temporary-per-operation
    form.  With dx*dy = 2 and c2 = 1 the energy is the sum of the terms, and
    a sum of subnormals is exact, so a wall term (w*v)*v computed as
    w*(v*v), which rounds twice, would show."""
    a, b = scale * rng.standard_normal((6, 7)), scale * rng.standard_normal((6, 7))
    assert _energy_values(a, b, 1.0, 0.5, 2.0, 1.0) == _plain_energy(a, b, 1.0, 0.5, 2.0, 1.0)


@pytest.mark.parametrize("substeps", [3.4, 1.5, 5.0])
def test_wave_solve_is_bit_identical_and_leaves_inputs(rng, tmp_path, substeps):
    """Full substeps and a remainder (three and 0.4 of one; one and a half;
    five exactly), logged and unlogged: u(tau) and every logged energy have
    the bits of the plain leapfrog, the inputs are left as they were, and a
    second call gives the same bits."""
    g = make_grid(13, 9, (-1.3, 2.0, -0.7, 1.1))
    u0 = ScalarField(g, rng.standard_normal(g.shape))
    ut0 = ScalarField(g, rng.standard_normal(g.shape))
    before = u0.values.copy(), ut0.values.copy()
    dt = 0.5 * cfl_max_dt(2.0, g)
    params = WaveParams(2.0, dt, substeps * dt)
    want, energies = _plain_solve(u0.values, ut0.values, 2.0, dt, params.tau, g.dx, g.dy)
    for log in (None, tmp_path / "energy.csv"):
        first = wave_solve(u0, ut0, params, energy_log=log).values
        second = wave_solve(u0, ut0, params, energy_log=log).values
        assert np.array_equal(_bits(first), _bits(want))
        assert np.array_equal(_bits(second), _bits(want))
        assert np.array_equal(_bits(u0.values), _bits(before[0]))
        assert np.array_equal(_bits(ut0.values), _bits(before[1]))
    rows = log.read_text().splitlines()[1:]
    assert [float(row.split(",")[2]) for row in rows] == energies


# ---------------------------------------------------------------------------
# row strips on threads: a grid just above the threshold, with an odd row
# count, so its two strips differ in height


def _strip_grid():
    g = make_grid(364, 361, (-1.3, 2.0, -0.7, 1.1))
    assert 2 * _STRIP_NODES <= g.nx * g.ny < 3 * _STRIP_NODES
    return g


@pytest.mark.parametrize("threads", ["1", "2"])
def test_strips_are_bit_identical(monkeypatch, rng, tmp_path, threads):
    """On one strip or two (180 and 181 rows), with five full substeps and a
    shortened last one, u(tau) and every logged energy have the bits of the
    plain leapfrog, and the threads the solve started have ended."""
    monkeypatch.setenv(THREADS_ENV, threads)
    g = _strip_grid()
    assert [hi - lo for lo, hi, _ in _Strips(g.ny, g.nx)._jobs] == ([361] if threads == "1" else [180, 181])
    u0 = ScalarField(g, rng.standard_normal(g.shape))
    ut0 = ScalarField(g, rng.standard_normal(g.shape))
    dt = 0.5 * cfl_max_dt(2.0, g)
    params = WaveParams(2.0, dt, 5.4 * dt)
    want, energies = _plain_solve(u0.values, ut0.values, 2.0, dt, params.tau, g.dx, g.dy)
    log = tmp_path / "energy.csv"
    before = threading.active_count()
    got = wave_solve(u0, ut0, params, energy_log=log).values
    assert threading.active_count() == before
    assert np.array_equal(_bits(got), _bits(want))
    rows = log.read_text().splitlines()[1:]
    assert [float(row.split(",")[2]) for row in rows] == energies


def test_more_strips_than_cores_under_a_short_switch_interval(monkeypatch, rng, tmp_path):
    """Four strips of 127 or 128 rows on 515 x 511 nodes, more threads than
    this machine's cores may have, with threads switched every 10 us: a
    strip that read a row another strip had not yet written, or wrote one
    that another still read, would change u(tau) or a logged energy."""
    monkeypatch.setenv(THREADS_ENV, "4")
    g = make_grid(515, 511, (-1.3, 2.0, -0.7, 1.1))
    assert [hi - lo for lo, hi, _ in _Strips(g.ny, g.nx)._jobs] == [127, 128, 128, 128]
    u0, ut0 = ScalarField(g, rng.standard_normal(g.shape)), ScalarField(g, rng.standard_normal(g.shape))
    dt = 0.5 * cfl_max_dt(1.0, g)
    params = WaveParams(1.0, dt, 3.5 * dt)
    want, energies = _plain_solve(u0.values, ut0.values, 1.0, dt, params.tau, g.dx, g.dy)
    log = tmp_path / "energy.csv"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = wave_solve(u0, ut0, params, energy_log=log).values
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(_bits(got), _bits(want))
    assert [float(row.split(",")[2]) for row in log.read_text().splitlines()[1:]] == energies


def test_a_grid_below_the_threshold_is_one_strip(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "4")
    assert len(_Strips(361, 363)._jobs) == 1  # 131,043 nodes, just below 2^17
    assert len(_Strips(361, 364)._jobs) == 2


@pytest.mark.parametrize("warn", ["ignored", "error"])
def test_a_blowup_on_strips_names_its_substep(monkeypatch, warn):
    """A field that overflows in the first substep raises the finiteness
    check's NumericalError, on two strips, whether the caller ignores
    overflow and invalid values or makes every RuntimeWarning an error; the
    strips' threads have ended after the raise."""
    monkeypatch.setenv(THREADS_ENV, "2")
    g = _strip_grid()
    huge = np.full(g.shape, 1e308)
    huge[::2, ::2] *= -1.0
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore", invalid="ignore") if warn == "ignored" else nullcontext():
            with pytest.raises(NumericalError, match="substep 1"):
                wave_solve(ScalarField(g, huge), _zeros(g), WaveParams(1.0, 0.05 * g.dx, 0.5 * g.dx))
    assert threading.active_count() == before


def test_strips_run_in_the_callers_errstate(monkeypatch, tmp_path):
    """The energy's terms of a field near 1e200 overflow on every strip.
    Under the caller's np.errstate(over="ignore") no strip warns, and the
    logged energy is inf; without it the overflow is a RuntimeWarning, an
    error in this suite."""
    monkeypatch.setenv(THREADS_ENV, "2")
    g = _strip_grid()
    u0 = field_from_function(g, lambda x, y: 1e200 * np.cos(3.0 * x) * np.cos(2.0 * y))
    params = WaveParams(1.0, 0.5 * cfl_max_dt(1.0, g), cfl_max_dt(1.0, g))
    log = tmp_path / "energy.csv"
    with np.errstate(over="ignore"):
        wave_solve(u0, _zeros(g), params, energy_log=log)
    assert np.all(np.isinf(np.loadtxt(log, delimiter=",", skiprows=1)[:, 2]))
    with pytest.raises(RuntimeWarning, match="overflow"):
        wave_solve(u0, _zeros(g), params, energy_log=log)


def test_a_solve_on_strips_runs_in_a_study_worker(monkeypatch, rng):
    """Called from a worker thread of a study's pool, the solve starts its
    own strips' threads and returns the calling thread's bits."""
    monkeypatch.setenv(THREADS_ENV, "2")
    g = _strip_grid()
    u0, ut0 = ScalarField(g, rng.standard_normal(g.shape)), _zeros(g)
    params = WaveParams(1.0, 0.5 * cfl_max_dt(1.0, g), 2.5 * cfl_max_dt(1.0, g))
    want = wave_solve(u0, ut0, params).values
    with ThreadPoolExecutor(2) as pool:
        got = [f.result(timeout=60).values for f in [pool.submit(wave_solve, u0, ut0, params) for _ in range(2)]]
    assert all(np.array_equal(_bits(v), _bits(want)) for v in got)


def test_a_bad_thread_count_is_rejected_by_a_solve_on_strips(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "two")
    g = _strip_grid()
    with pytest.raises(ValidationError, match="HMCF_THREADS must be an integer, got 'two'"):
        wave_solve(_zeros(g), _zeros(g), WaveParams(1.0, 0.5 * cfl_max_dt(1.0, g), cfl_max_dt(1.0, g)))
