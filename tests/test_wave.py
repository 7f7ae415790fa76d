"""Leapfrog wave solver tests: stability guard, exactness cases, the Neumann
standing mode, time reversal, and the logged discrete energy."""

import numpy as np
import pytest

from hmbo.errors import NumericalError, ValidationError
from hmbo.fields import ScalarField, constant_field, field_from_function, make_grid
from hmbo.wave import WaveParams, cfl_max_dt, cfl_number, discrete_energy, wave_solve


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


def test_wave_solve_rejects_cfl_violation():
    g = make_grid(33, 33, (-1, 1, -1, 1))
    params = WaveParams(1.0, 2.0 * cfl_max_dt(1.0, g), 1.0)
    with pytest.raises(ValidationError):
        wave_solve(_zeros(g), _zeros(g), params)
    # the CFL boundary is shared with HmboConfig: the bound itself is accepted
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
    u0 = constant_field(g, 3.7)
    out = wave_solve(u0, _zeros(g), WaveParams(2.0, 0.01, 0.5))
    assert np.array_equal(out.values, u0.values)


def test_uniform_velocity_gives_linear_drift():
    """u0 = 0, ut0 = V stays spatially flat and grows like V t."""
    g = make_grid(17, 17, (-1, 1, -1, 1))
    v = 0.4
    tau = 0.73
    out = wave_solve(_zeros(g), constant_field(g, v), WaveParams(1.0, 0.02, tau))
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
    f = constant_field(g, 4.2)
    assert discrete_energy(f, f, WaveParams(1.0, 0.1, 1.0)) == 0.0


def test_discrete_energy_quadruples_with_amplitude(rng):
    g = make_grid(15, 15, (-1, 1, -1, 1))
    a = ScalarField(g, rng.standard_normal(g.shape))
    b = ScalarField(g, rng.standard_normal(g.shape))
    params = WaveParams(3.0, 0.05, 1.0)
    e1 = discrete_energy(a, b, params)
    e2 = discrete_energy(
        ScalarField(g, 2 * a.values), ScalarField(g, 2 * b.values), params
    )
    assert e2 == 4.0 * e1
