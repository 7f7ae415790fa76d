"""Acceptance gate: one test per criterion, each run at its stated tolerance.

Every test records a single "criterion N: PASS/FAIL (...)" line that is
printed in the terminal summary after the run (see conftest).  All nine
criteria are expected to PASS.
"""

import numpy as np
import pytest

from conftest import record_acceptance
from hmbo.fields import ScalarField, field_from_function, make_grid
from hmbo.flow import CURVED, FlowState, HmboConfig, PhysicalParams, hmbo_step, run_flow
from hmbo.harness import (
    ExperimentConfig,
    check_moments,
    convergence_study,
    solver_vs_quadrature,
)
from hmbo.interfaces import average_radius, extract_zero_set
from hmbo.oracles import hmcf_circle_radius
from hmbo.wave import WaveParams, cfl_max_dt, wave_solve

BOUNDS = (-2.0, 2.0, -2.0, 2.0)


def _verdict(num: int, ok: bool, detail: str) -> None:
    record_acceptance(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def full_study(tmp_path_factory):
    """The five-grid shrinking-circle study with default parameters."""
    out = tmp_path_factory.mktemp("study")
    cfg = ExperimentConfig(out_dir=str(out))
    report = convergence_study(cfg)
    return cfg, report


def test_criterion_1_error_table(full_study):
    """Errors of the refinement study sit in the reference windows."""
    _, report = full_study
    assert report.failures == []
    rows = {row.n: row for row in report.rows}
    assert set(rows) == {16, 32, 64, 128, 256}

    errs = [rows[n].err for n in (32, 64, 128, 256)]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    # frozen reference values for this benchmark configuration
    in_window = (
        abs(rows[64].err / 0.022746 - 1.0) <= 0.5
        and abs(rows[128].err / 0.008509 - 1.0) <= 0.5
        and abs(rows[128].ns_tau - 0.473333) <= 0.05
        and abs(rows[256].ns_tau - 0.486667) <= 0.03
    )
    _verdict(
        1,
        decreasing and in_window,
        f"err64 {rows[64].err:.4g}, err128 {rows[128].err:.4g}, "
        f"ns128 {rows[128].ns_tau:.4g}, ns256 {rows[256].ns_tau:.4g}",
    )
    assert decreasing, f"errors not strictly decreasing from N=32: {errs}"
    assert in_window


def test_criterion_2_extinction_estimates(full_study):
    """Measured extinction times increase with resolution toward 1/2."""
    _, report = full_study
    rows = sorted(report.rows, key=lambda r: r.n)
    ns = [row.ns_tau for row in rows]
    monotone = all(b > a for a, b in zip(ns, ns[1:]))
    bounded = all(v < 0.5 for v in ns)
    extinct = all(row.went_extinct for row in rows)
    _verdict(
        2,
        monotone and bounded and extinct,
        "ns_tau " + ", ".join(f"{v:.4g}" for v in ns),
    )
    assert monotone, f"extinction estimates not increasing: {ns}"
    assert bounded
    assert extinct


def test_criterion_3_moment_identities():
    """Disk quadrature reproduces the four closed-form moment solutions at
    seeded random evaluation points and times."""
    rng = np.random.default_rng(731)
    pts = [tuple(p) for p in rng.uniform(-0.1, 0.1, size=(20, 2))]
    times = tuple(rng.uniform(0.01, 0.1, size=3))
    worst, bad = check_moments(
        pts, kappas=(-2.0, 1.0), speeds=(1.0, np.sqrt(2.0)), times=times, n_quad=200
    )
    ok = worst < 1e-6
    _verdict(3, ok, f"worst rel err {worst:.3e}")
    assert bad == []
    assert ok


def test_criterion_4_solver_vs_quadrature():
    """Grid solver and disk quadrature agree on smooth data."""
    got, want, rel = solver_vs_quadrature()
    ok = rel < 1e-2
    _verdict(4, ok, f"rel diff {rel:.3e}")
    assert ok, f"solver {got} vs quadrature {want}, rel {rel}"


def _standing_mode_run(n, tmp_path, tag):
    g = make_grid(n, n, BOUNDS)
    mode = field_from_function(
        g, lambda x, y: np.cos(np.pi * (x + 2.0) / 4.0) * np.cos(np.pi * (y + 2.0) / 4.0)
    )
    zero = ScalarField(g, np.zeros(g.shape))
    tau = 0.8
    params = WaveParams(1.0, 0.5 * cfl_max_dt(1.0, g), tau)
    log = tmp_path / f"energy_{tag}.csv"
    u = wave_solve(mode, zero, params, energy_log=str(log))
    omega = np.sqrt(2.0) * np.pi / 4.0
    err = float(np.max(np.abs(u.values - np.cos(omega * tau) * mode.values)))
    energies = np.genfromtxt(log, delimiter=",", skip_header=1)[:, 2]
    drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    return err, drift


def test_criterion_5_wave_accuracy_and_energy(tmp_path):
    """Standing-mode error drops at second order and the logged energy of
    the run is flat to 1e-3."""
    err65, drift65 = _standing_mode_run(65, tmp_path, "65")
    err129, drift129 = _standing_mode_run(129, tmp_path, "129")
    ratio = err65 / err129
    ok = ratio >= 3.5 and drift65 < 1e-3 and drift129 < 1e-3
    _verdict(5, ok, f"error ratio {ratio:.2f}, drift {drift65:.2e}/{drift129:.2e}")
    assert ratio >= 3.5, f"errors {err65} -> {err129}"
    assert drift65 < 1e-3 and drift129 < 1e-3


def _eikonal_residual(values, grid, mask):
    gx = (values[:, 2:] - values[:, :-2]) / (2.0 * grid.dx)
    gy = (values[2:, :] - values[:-2, :]) / (2.0 * grid.dy)
    grad = np.hypot(gx[1:-1, :], gy[:, 1:-1])
    return float(np.max(np.abs(grad[mask[1:-1, 1:-1]] - 1.0)))


def test_criterion_6_redistanced_fields_stay_distances():
    """After 20 steps the rebuilt field has unit gradient away from the
    interface, the boundary, and (for the disk) the center, where the
    distance function of a disk is not differentiable."""
    g = make_grid(128, 128, BOUNDS)
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 300.0, max_steps=20)
    X, Y = g.mesh()
    worst = {}
    for name, fn, exclude_center in (
        ("line", lambda x, y: x - 0.137, False),
        ("circle", lambda x, y: np.hypot(x, y) - 1.0, True),
    ):
        state = FlowState(field_from_function(g, fn), None, 0)
        for _ in range(20):
            state = hmbo_step(state, cfg)
        assert not state.extinct
        d = state.d_n.values
        mask = np.abs(d) >= 3.0 * g.dx
        mask[:2, :] = mask[-2:, :] = False
        mask[:, :2] = mask[:, -2:] = False
        if exclude_center:
            mask &= np.hypot(X, Y) >= 3.0 * g.dx
        worst[name] = _eikonal_residual(d, g, mask)
    ok = all(v < 0.05 for v in worst.values())
    _verdict(6, ok, f"residual line {worst['line']:.2e}, circle {worst['circle']:.2e}")
    assert worst["line"] < 0.05
    assert worst["circle"] < 0.05


def test_criterion_7_damped_circle_tracking():
    """Damped-mode radius vs the circle ODE oracle over 90 steps.

    The 2 d_n - d_nm1 history term turns any per-cycle shift of the
    interface into a forcing of order shift/tau^2, so this criterion holds
    only because the damped step reconstructs the interface to second order
    (cubic edge roots, sagitta-bent chords): the chord reconstruction's
    inward shift of about 0.05 dx^2 per cycle grew a radius deficit of 0.19
    by t = 0.3.  The unit tests pin the per-cycle shift
    (test_interfaces.py) and the step against the scalar recurrence
    (test_flow.py).
    """
    tau = 1.0 / 300.0
    g = make_grid(128, 128, BOUNDS)
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), tau, max_steps=90)
    d0 = field_from_function(g, lambda x, y: 1.0 - np.hypot(x, y))
    records = run_flow(cfg, d0, v0_normal=0.0)
    assert len(records) == 90 and not records[-1].extinct
    radii = np.array(
        [average_radius(extract_zero_set(d0, curved=CURVED["hmcf"]))] + [rec.avg_radius for rec in records]
    )
    oracle = hmcf_circle_radius(PhysicalParams(1.0, 1.0, 1.0), 1.0, 0.0, 90 * tau, tau)
    m = min(len(radii), len(oracle.radii))
    drift = float(np.max(np.abs(radii[:m] - oracle.radii[:m])))
    sign_match = float(
        np.mean(np.sign(np.diff(radii[:m])) == np.sign(np.diff(oracle.radii[:m])))
    )
    ok = sign_match >= 0.90 and drift < 0.05
    _verdict(
        7,
        ok,
        f"max radius drift {drift:.4g} vs bound 0.05, "
        f"step-sign agreement {100.0 * sign_match:.1f}% vs 90%",
    )
    assert sign_match >= 0.90, f"sign agreement {sign_match:.3f}"
    assert drift < 0.05, (
        f"tracking drift {drift:.4g} exceeds 0.05: a per-cycle shift of the "
        f"reconstructed interface is integrated by the history extrapolation"
    )


def test_criterion_8_one_step_rate_order():
    """The one-step radius shrink rate converges to gamma/r0 at first order
    in tau (the measured t=0 radius cancels the extraction bias)."""
    g = make_grid(256, 256, BOUNDS)
    d0 = field_from_function(g, lambda x, y: np.hypot(x, y) - 1.0)
    r0_meas = average_radius(extract_zero_set(d0))
    taus = np.array([1.0 / 75.0, 1.0 / 150.0, 1.0 / 300.0])
    errs = []
    for tau in taus:
        cfg = HmboConfig.mcf(g, gamma=1.0, tau=float(tau), max_steps=1)
        state = hmbo_step(FlowState(d0, None, 0), cfg)
        rate = (r0_meas - average_radius(state.last_curve)) / tau
        errs.append(abs(rate - 1.0))
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    ok = slope >= 0.8
    _verdict(8, ok, f"rate-error slope {slope:.3f} over tau 1/75..1/300")
    assert ok, f"rate errors {errs} at taus {taus}"


def test_criterion_9_thread_count_invariance(tmp_path, monkeypatch):
    """Study outputs are byte-identical for 1 and 2 worker threads."""

    def run(tag, threads):
        out = tmp_path / tag
        monkeypatch.setenv("HMCF_THREADS", threads)
        cfg = ExperimentConfig(grid_sizes=(16, 32), n_tau=25, out_dir=str(out))
        convergence_study(cfg)
        return out

    a = run("t1", "1")
    b = run("t2", "2")
    c = run("t2_again", "2")
    # config_echo.json records the output directory itself, so the comparison
    # covers the numerical outputs only
    same = all(
        (a / f).read_bytes() == (b / f).read_bytes() == (c / f).read_bytes()
        for f in ("error_table.csv", "run_16.csv", "run_32.csv")
    )
    _verdict(9, same, "error_table.csv and run logs byte-identical for 1/2 threads")
    assert same
