"""Threshold-dynamics stepping tests: parameter mapping, history synthesis,
single steps against the shrinking-circle law, extinction handling, and the
damped mode's agreement with its scalar radius recurrence.

The damped-mode checks at the bottom pin the two halves of the dynamics
separately: (a) one grid step reproduces the three-level scalar recurrence
for the circle radius, and (b) that recurrence tracks the circle ODE. Both
are tight; what they do not constrain is the fixed per-cycle offset the
chord extraction writes into the distance field, which the 2 d_n - d_nm1
history term then integrates over a long run (see test_acceptance).
"""

import dataclasses

import numpy as np
import pytest

from hmbo import flow, interfaces
from hmbo.errors import NumericalError, ValidationError
from hmbo.fields import ScalarField, field_from_function, make_grid
from hmbo.flow import (
    HmboConfig,
    PhysicalParams,
    check_start,
    hmbo_step,
    init_history,
    run_flow,
    wave_data,
)
from hmbo.interfaces import BandField, average_radius, extract_zero_set, signed_distance
from hmbo.oracles import hmcf_circle_radius
from hmbo.wave import WaveParams, cfl_max_dt, cfl_substep, substeps, wave_solve


def _circle_sdf(grid, r0=1.0, inside_positive=False):
    if inside_positive:
        return field_from_function(grid, lambda x, y: r0 - np.hypot(x, y))
    return field_from_function(grid, lambda x, y: np.hypot(x, y) - r0)


# ---------------------------------------------------------------------------
# parameter mapping


def test_physical_params_validation():
    with pytest.raises(ValidationError):
        PhysicalParams(-1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        PhysicalParams(1.0, 1.0, -0.5)


@pytest.mark.parametrize(
    "params,expected",
    [
        ((1.0, 1.0, 1.0), (1.0, 1.0, 2.0)),
        ((2.0, 0.0, 1.0), (2.0, 0.0, 1.0)),
        ((1.0, 0.0, 3.0), (1.0, 0.0, 6.0)),
    ],
)
def test_wave_coefficients(params, expected):
    """The damped mode's wave data does not depend on tau."""
    for tau in (0.01, 1.0):
        assert wave_data("hmcf", PhysicalParams(*params), tau) == expected


def test_wave_coefficients_need_positive_mass():
    with pytest.raises(ValidationError):
        wave_data("hmcf", PhysicalParams(0.0, 1.0, 1.0), 0.01)
    with pytest.raises(ValidationError):
        wave_data("sideways", PhysicalParams(1.0, 1.0, 1.0), 0.01)


@pytest.mark.parametrize("p", [(1.0, 1.0, 1.0), (2.5, 0.3, 0.9), (0.4, 0.0, 2.0)])
def test_parameter_mapping_round_trip(p):
    """Inverting a = alpha, b = beta, c2 = 2 gamma / alpha recovers the
    physical coefficients to machine precision."""
    a, b, c2 = wave_data("hmcf", PhysicalParams(*p), 0.01)
    assert (a, b, a * c2 / 2.0) == pytest.approx(p, rel=1e-15)


def test_mcf_c2_values():
    """mcf: (a, b) = (0, 1), c2 = 6 gamma / tau, and alpha and beta are not
    read."""
    def mcf(gamma, tau, alpha=1.0, beta=1.0):
        return wave_data("mcf", PhysicalParams(alpha, beta, gamma), tau)

    assert mcf(1.0, 1.0 / 300.0)[2] == pytest.approx(1800.0)
    assert mcf(0.5, 0.01)[2] == pytest.approx(300.0)
    assert mcf(1.0, 1.0) == (0.0, 1.0, pytest.approx(6.0))
    assert mcf(1.0, 1.0, alpha=0.0, beta=7.0) == mcf(1.0, 1.0)
    with pytest.raises(ValidationError):
        mcf(0.0, 1.0)
    with pytest.raises(ValidationError):
        mcf(1.0, -1.0)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    """HmboConfig takes only a run's inputs: wave_data checks the mode and
    coefficients, the substep's stability bound the grid, WaveParams the
    window and the constructor max_steps."""
    g = make_grid(32, 32, (-2, 2, -2, 2))
    unit = PhysicalParams(1.0, 1.0, 1.0)
    with pytest.raises(ValidationError, match="unknown mode 'sideways'"):
        HmboConfig("sideways", unit, 0.1, 1, g)
    with pytest.raises(ValidationError, match="alpha must be positive"):
        HmboConfig("hmcf", PhysicalParams(0.0, 1.0, 1.0), 0.1, 1, g)
    with pytest.raises(ValidationError, match="0 < dt <= tau"):
        HmboConfig("hmcf", unit, 0.0, 1, g)
    with pytest.raises(ValidationError, match="max_steps"):
        HmboConfig("mcf", unit, 0.1, -1, g)
    # a grid whose spacing squared underflows has no finite stability bound
    with pytest.raises(ValidationError, match="the 32x32 grid is too fine"):
        HmboConfig("mcf", unit, 0.1, 1, make_grid(32, 32, (0.0, 1e-160, 0.0, 1e-160)))


@pytest.mark.parametrize("mode", ["mcf", "hmcf"])
def test_substep_and_wave_data_are_derived(mode):
    """(a, b, c2) come from wave_data and dt from cfl_substep, on every
    config; none of them is a field, and none can be set."""
    g = make_grid(32, 32, (-2, 2, -2, 2))
    cfg = HmboConfig(mode, PhysicalParams(1.0, 1.0, 1.0), 0.1, 1, g)
    assert [f.name for f in dataclasses.fields(HmboConfig)] == ["mode", "params", "tau", "max_steps", "grid"]
    assert (cfg.a, cfg.b, cfg.c2) == wave_data(mode, cfg.params, cfg.tau)
    assert cfg.dt == cfl_substep(cfg.c2, cfg.grid, cfg.tau)
    for name in ("a", "b", "c2", "dt"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, 1e-3)


def test_mcf_config_requires_consistent_threshold_constant():
    g = make_grid(32, 32, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=0.1)
    assert cfg.c2 == pytest.approx(60.0)
    assert cfg.dt == pytest.approx(min(0.5 * cfl_max_dt(60.0, g), 0.1))


# ---------------------------------------------------------------------------
# history synthesis


def test_init_history_zero_velocity_is_near_identity():
    g = make_grid(96, 96, (-2, 2, -2, 2))
    d0 = _circle_sdf(g, inside_positive=True)
    dm1 = init_history(HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 0.1), d0, 0.0)
    assert np.max(np.abs(dm1.values - d0.values)) < 1.5 * g.dx


@pytest.mark.parametrize("v0,r_want", [(0.1, 1.01), (-0.1, 0.99)])
def test_init_history_offsets_circle(v0, r_want):
    """A constant normal speed shifts the previous interface by v0 tau."""
    g = make_grid(128, 128, (-2, 2, -2, 2))
    d0 = _circle_sdf(g, inside_positive=True)
    dm1 = init_history(HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 0.1), d0, v0)
    r_got = average_radius(extract_zero_set(dm1))
    assert abs(r_got - r_want) < 0.01
    X, Y = g.mesh()
    assert np.max(np.abs(dm1.values - (r_want - np.hypot(X, Y)))) < 1.5 * g.dx


def test_init_history_rejects_emptying_offset():
    """An initial speed that empties the offset level set is rejected, and a
    window tau <= 0 already by the config."""
    g = make_grid(64, 64, (-2, 2, -2, 2))
    params = PhysicalParams(1.0, 1.0, 1.0)
    d0 = _circle_sdf(g, inside_positive=True)
    with pytest.raises(ValidationError, match="offset level set is empty"):
        init_history(HmboConfig.hmcf(g, params, 0.1), d0, -11.0)
    with pytest.raises(ValidationError):
        HmboConfig.hmcf(g, params, -0.1)


def test_check_start_rejects_an_overflowing_first_substep():
    """The first substep forms dt*(b*d) and a*(2*d_n - d_nm1).  With beta or
    alpha = 1e308 one of them overflows a double, though the config's wave
    data are finite, so the start is rejected before any step."""
    g = make_grid(32, 32, (-2, 2, -2, 2))
    for params in (PhysicalParams(1.0, 1e308, 1.0), PhysicalParams(1e308, 1.0, 1.0)):
        with pytest.raises(ValidationError, match="first substep overflows"):
            check_start(HmboConfig.hmcf(g, params, 1.0 / 60.0), _circle_sdf(g), 0.0)


# ---------------------------------------------------------------------------
# single steps


def test_one_step_circle_matches_exact_law():
    tau = 1.0 / 300.0
    g = make_grid(128, 128, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=tau, max_steps=1)
    d0 = _circle_sdf(g)
    _, curve = hmbo_step(d0, d0, cfg)
    got = average_radius(curve)
    want = np.sqrt(1.0 - 2.0 * tau)
    assert abs(got - want) < 0.5 * (tau + g.dx)


def test_step_preserves_reflection_symmetry():
    g = make_grid(65, 65, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 300.0, max_steps=1)
    d0 = _circle_sdf(g)
    d = hmbo_step(d0, d0, cfg)[0].values
    assert np.max(np.abs(d - d[:, ::-1])) < 1e-13


@pytest.mark.parametrize("mode", ["mcf", "hmcf"])
def test_corner_quarter_circle_is_a_quadrant_of_the_full_circle(mode):
    """Neumann walls are mirrors: a circle centred on a corner of [0, 2]^2
    evolves as the quadrant of the same circle on [-2, 2]^2 at the same dx.
    The two grids share their nodes in the quadrant exactly, so the distance
    fields agree to rounding, with the wall crossing the interface."""
    m, tau = 33, 1.0 / 300.0
    fields = []
    for lo, n in ((0.0, m), (-2.0, 2 * m - 1)):
        g = make_grid(n, n, (lo, 2.0, lo, 2.0))
        d0 = _circle_sdf(g)
        if mode == "mcf":
            cfg = HmboConfig.mcf(g, gamma=1.0, tau=tau)
        else:
            cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), tau)
        d_n, d_prev = d0, init_history(cfg, d0, 0.0)
        for _ in range(20):
            d_prev, (d_n, _) = d_n, hmbo_step(d_n, d_prev, cfg)
        fields.append(d_n.values)
    quarter, full = fields
    assert np.max(np.abs(quarter - full[m - 1 :, m - 1 :])) <= 1e-12


@pytest.mark.parametrize("mode", ["mcf", "hmcf"])
def test_steps_commute_with_transposition(mode):
    """Ten steps from an off-centre 5-fold star and from its transpose, its
    x-reflection and its y-reflection give the transformed fields.  The
    node coordinates along x and y are equal, but transposition reorders the
    extracted segments and their ends, so the redistance arithmetic rounds
    differently; and the nodes of linspace(-2, 2, 80) are symmetric about 0
    only to 2.2e-16, so a reflected star sits on nodes moved by that much.
    The fields agree to 1e-12 (measured up to 1.5e-14)."""
    g, tau = make_grid(80, 80, (-2, 2, -2, 2)), 1.0 / 300.0
    star = field_from_function(
        g, lambda x, y: np.hypot(x - 0.3, y + 0.2) - 1.0 - 0.25 * np.cos(5.0 * np.arctan2(y + 0.2, x - 0.3))
    )
    if mode == "mcf":
        cfg = HmboConfig.mcf(g, gamma=1.0, tau=tau)
    else:
        cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), tau)

    def ten_steps(d0):
        d_n, d_prev = d0, init_history(cfg, d0, 0.0)
        for _ in range(10):
            d_prev, (d_n, _) = d_n, hmbo_step(d_n, d_prev, cfg)
        return d_n.values

    ref = ten_steps(star)
    for flip in (np.transpose, lambda v: v[:, ::-1], lambda v: v[::-1, :]):
        assert np.max(np.abs(ten_steps(ScalarField(g, flip(star.values))) - flip(ref))) <= 1e-12


def test_extinction_marks_state_and_freezes_it():
    """A step whose u(tau) has one sign returns None: the interface is
    extinct."""
    g = make_grid(32, 32, (-2, 2, -2, 2))
    d0 = _circle_sdf(g, r0=0.05)  # below the mesh resolution
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=0.05, max_steps=1)
    assert hmbo_step(d0, d0, cfg) is None


def test_mcf_step_reads_no_history():
    """mcf is the one step rule with a = 0: any previous field gives the
    step from d_nm1 = d_n bit for bit.  At N = 65 the circle passes through
    four nodes, where u0 = a*(...) is a zero of either sign."""
    g = make_grid(65, 65, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 300.0)
    d0 = _circle_sdf(g)
    noise = ScalarField(g, np.random.default_rng(7).normal(size=g.shape))
    want_d, want_curve = hmbo_step(d0, d0, cfg)
    got_d, got_curve = hmbo_step(d0, noise, cfg)
    assert got_d.values.tobytes() == want_d.values.tobytes()
    assert got_curve.vertices.tobytes() == want_curve.vertices.tobytes()


@pytest.mark.parametrize("mode", ["mcf", "hmcf"])
def test_run_flow_shifts_the_history(monkeypatch, mode):
    """run_flow hands each step the field the step before returned as d_n
    and that step's d_n as d_nm1, by identity.  The first step gets d0 and
    the field of one init_history call, in either mode; in mcf that is d0
    itself."""
    g, tau = make_grid(48, 48, (-2, 2, -2, 2)), 1.0 / 60.0
    if mode == "mcf":
        cfg = HmboConfig.mcf(g, gamma=1.0, tau=tau, max_steps=4)
    else:
        cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), tau, max_steps=4)
    d0 = _circle_sdf(g)
    histories, calls = [], []
    step, init = flow.hmbo_step, flow.init_history

    def recording_init(*args):
        histories.append(init(*args))
        return histories[-1]

    def recording_step(d_n, d_nm1, step_cfg):
        calls.append((d_n, d_nm1, step(d_n, d_nm1, step_cfg)))
        return calls[-1][2]

    monkeypatch.setattr(flow, "init_history", recording_init)
    monkeypatch.setattr(flow, "hmbo_step", recording_step)
    assert len(run_flow(cfg, d0)) == len(calls) == 4
    assert len(histories) == 1
    assert (histories[0] is d0) == (mode == "mcf")
    assert calls[0][0] is d0
    assert calls[0][1] is histories[0]
    for (d_n, _, (d_new, _)), (next_n, next_nm1, _) in zip(calls, calls[1:]):
        assert next_n is d_new and next_nm1 is d_n


def test_damped_run_builds_and_checks_its_start_once(monkeypatch):
    """A damped run checks the sign of two fields, d0 and the offset
    d0 + v0*tau, each once; a step decides extinction from its extracted
    interface and makes no sign pass of its own (five steps made five)."""
    g = make_grid(32, 32, (-2, 2, -2, 2))
    d0 = _circle_sdf(g, inside_positive=True)
    checked, has_interface = [], flow.has_interface

    def recording_has_interface(field):
        checked.append(field)
        return has_interface(field)

    monkeypatch.setattr(flow, "has_interface", recording_has_interface)
    for max_steps in (0, 5):
        checked.clear()
        cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 60.0, max_steps=max_steps)
        records = run_flow(cfg, d0, 0.3)
        assert len(records) == max_steps and not any(rec.extinct for rec in records)
        assert len(checked) == 2 and checked[0] is d0
        assert np.array_equal(checked[1].values, d0.values + 0.3 * cfg.tau)


def test_step_grid_mismatch_rejected():
    """Both fields must lie on the config's grid: another shape, or the same
    shape over other bounds, is rejected for either field, and for a run's
    start by check_start."""
    g = make_grid(32, 32, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=0.05, max_steps=1)
    d = _circle_sdf(g)
    for other in (make_grid(16, 16, (-2, 2, -2, 2)), make_grid(32, 32, (-3, 3, -3, 3))):
        off = _circle_sdf(other)
        for d_n, d_nm1 in ((off, off), (d, off)):
            with pytest.raises(ValidationError, match="different grids"):
                hmbo_step(d_n, d_nm1, cfg)
        with pytest.raises(ValidationError, match="d0 grid does not match config grid"):
            check_start(cfg, off, 0.0)


def test_velocity_sign_flip_same_interfaces():
    """Flipping the sign of the propagated data (negated input field) must not
    move the extracted zero sets: the step is odd under d -> -d."""
    g = make_grid(64, 64, (-2, 2, -2, 2))
    tau = 1.0 / 30.0
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=tau, max_steps=3)
    recs_a = run_flow(cfg, _circle_sdf(g), record_interfaces=True)
    recs_b = run_flow(cfg, _circle_sdf(g, inside_positive=True), record_interfaces=True)
    assert len(recs_a) == len(recs_b) == 3
    for ra, rb in zip(recs_a, recs_b):
        assert np.array_equal(ra.curve.vertices, rb.curve.vertices)
        assert ra.avg_radius == rb.avg_radius


def _damped_radii(scale):
    g = make_grid(48, 48, (-2, 2, -2, 2))
    p = PhysicalParams(scale, scale, scale)
    return [r.avg_radius for r in run_flow(HmboConfig.hmcf(g, p, 1.0 / 300.0, max_steps=20), _circle_sdf(g), 0.3)]


@pytest.mark.parametrize("k", [-900, -300, -100, 100, 200, 250, 260, 300, 500, 1000])
def test_damped_step_is_invariant_under_power_of_two_coefficients(k):
    """The damped law is homogeneous in (alpha, beta, gamma): scaling all
    three by 2^k leaves c^2 alone and scales u0, ut0 and u(tau) exactly, so
    the radii are the same bit for bit.  The curvature of the curved
    reconstruction divides by |grad f|^4, which overflowed past k = 250
    (radii off by 0.039) and broke the run at k = 500 and k = -300."""
    assert _damped_radii(2.0 ** k) == _damped_radii(1.0)


# ---------------------------------------------------------------------------
# run loop


def test_run_flow_zero_steps():
    g = make_grid(32, 32, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=0.05, max_steps=0)
    assert run_flow(cfg, _circle_sdf(g)) == []


def test_run_flow_times_are_step_multiples():
    g = make_grid(48, 48, (-2, 2, -2, 2))
    tau = 1.0 / 60.0
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=tau, max_steps=4)
    recs = run_flow(cfg, _circle_sdf(g))
    for n, rec in enumerate(recs, start=1):
        assert rec.step == n
        assert rec.t == n * tau


def test_run_flow_reaches_extinction():
    g = make_grid(48, 48, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 20.0, max_steps=40)
    recs = run_flow(cfg, _circle_sdf(g))
    assert recs[-1].extinct
    assert recs[-1].avg_radius is None
    assert len(recs) < 40  # the unit circle disappears near t = 0.5
    assert all(not r.extinct for r in recs[:-1])


def test_run_flow_rejects_uniform_sign():
    g = make_grid(32, 32, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=0.05, max_steps=1)
    bad = field_from_function(g, lambda x, y: np.hypot(x, y) + 1.0)
    with pytest.raises(ValidationError):
        run_flow(cfg, bad)


def test_run_flow_is_deterministic():
    g = make_grid(48, 48, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 60.0, max_steps=5)
    r1 = run_flow(cfg, _circle_sdf(g))
    r2 = run_flow(cfg, _circle_sdf(g))
    assert [r.avg_radius for r in r1] == [r.avg_radius for r in r2]


# ---------------------------------------------------------------------------
# damped-mode radius recurrence


def _recurrence_next(s_cur, s_prev, a, beta, gamma, tau):
    """Scalar three-level update the grid pipeline realizes for a circle:
    a (s+ - 2 s + s-) + tau beta (s+ - s) = -tau^2 gamma / s."""
    return (a * (2 * s_cur - s_prev) + tau * beta * s_cur - tau * tau * gamma / s_cur) / (
        a + tau * beta
    )


def test_damped_step_matches_scalar_recurrence():
    """One grid step from analytic circle history lands on the recurrence
    prediction, and the response to history offsets matches to 0.5%.  The
    damped step's curved reconstruction leaves a gap of about 1e-8; the
    chord reconstruction it replaced left about 4e-5 (0.04 dx^2)."""
    tau = 1.0 / 300.0
    g = make_grid(128, 128, (-2, 2, -2, 2))
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), tau)

    def step_radius(delta):
        d_n = _circle_sdf(g, 1.0, inside_positive=True)
        d_m1 = _circle_sdf(g, 1.0 + delta, inside_positive=True)
        return average_radius(hmbo_step(d_n, d_m1, cfg)[1])

    base = step_radius(0.0)
    want = _recurrence_next(1.0, 1.0, 1.0, 1.0, 1.0, tau)
    assert abs(base - want) < 5e-5  # measured 1.2e-8 at N=128

    for delta in (1e-4, 1e-3, 3.3e-3):
        response = step_radius(delta) - base
        predicted = -delta / (1.0 + tau)
        assert abs(response - predicted) < 5e-3 * abs(predicted), (
            f"offset {delta}: response {response}, predicted {predicted}"
        )


def test_scalar_recurrence_tracks_circle_ode():
    """Iterated over 90 steps the recurrence stays within 5e-4 of the RK4
    reference, so the update law itself is not what limits long runs."""
    tau = 1.0 / 300.0
    oracle = hmcf_circle_radius(PhysicalParams(1.0, 1.0, 1.0), 1.0, 0.0, 90 * tau, tau)
    s_prev = s_cur = 1.0
    radii = [1.0]
    for _ in range(90):
        s_next = _recurrence_next(s_cur, s_prev, 1.0, 1.0, 1.0, tau)
        radii.append(s_next)
        s_prev, s_cur = s_cur, s_next
    m = min(len(radii), len(oracle.radii))
    assert np.max(np.abs(np.array(radii[:m]) - oracle.radii[:m])) < 5e-4


@pytest.mark.parametrize("beta,v0", [(1.0, 0.5), (1.0, -0.5), (0.0, 0.0), (0.0, -1.0)])
def test_damped_run_from_initial_speed_tracks_circle_ode(beta, v0):
    """A damped run started with a normal speed v0, damped (beta = 1) or
    undamped (beta = 0), tracks the circle ODE started with r'(0) = -v0 (d0
    grows inward).  Measured at N = 64 over 90 steps: 1.02e-3, 4.41e-4,
    4.09e-4 and 5.29e-4; a start with the sign of v0 flipped is off by 0.26."""
    tau = 1.0 / 300.0
    g = make_grid(64, 64, (-2, 2, -2, 2))
    params = PhysicalParams(1.0, beta, 1.0)
    records = run_flow(HmboConfig.hmcf(g, params, tau, max_steps=90), _circle_sdf(g, inside_positive=True), v0)
    oracle = hmcf_circle_radius(params, 1.0, -v0, 90 * tau, tau)
    assert len(records) == 90 and len(oracle.radii) == 91
    assert np.max(np.abs(np.array([rec.avg_radius for rec in records]) - oracle.radii[1:])) < 2e-3


# ---------------------------------------------------------------------------
# the damped step's band: exact only where the next step reads it


def _star(x, y):
    return np.hypot(x - 0.3, y + 0.2) - 1.0 - 0.25 * np.cos(5.0 * np.arctan2(y + 0.2, x - 0.3))


def _two_disks(x, y):
    return np.maximum(0.7 - np.hypot(x + 0.8, y), 0.4 - np.hypot(x - 0.8, y))


def _exhaustive_curves(cfg, d0, v0, steps):
    """The curves of a loop of hmbo_step whose inputs are forced exact, so
    that every step redistances every node; None once extinct."""
    d_n, d_nm1 = d0, init_history(cfg, d0, v0)
    curves = []
    for _ in range(steps):
        step = hmbo_step(ScalarField(cfg.grid, d_n.values.copy()), ScalarField(cfg.grid, d_nm1.values.copy()), cfg)
        if step is None:
            curves.append(None)
            break
        d_nm1, (d_n, curve) = d_n, step
        curves.append(curve)
    return curves


def _assert_same_curves(records, curves):
    assert len(records) == len(curves)
    for rec, curve in zip(records, curves):
        if curve is None:
            assert rec.extinct
        else:
            assert rec.curve.vertices.tobytes() == curve.vertices.tobytes()
            assert rec.curve.segments.tobytes() == curve.segments.tobytes()
            assert rec.avg_radius == average_radius(curve)


def _count_completions(monkeypatch):
    """A list that gains one entry for each BandField completion that
    computes tiles."""
    done, complete = [], BandField.complete

    def counting(self):
        if not self.is_complete:
            done.append(self)
        complete(self)

    monkeypatch.setattr(BandField, "complete", counting)
    return done


def _ellipse(x, y):
    return np.hypot(x / 1.6, y / 0.3) - 1.0


_BOX = (-2, 2, -2, 2)


@pytest.mark.parametrize(
    "grid, shape, alpha, v0, steps, completions",
    [
        ((128, 128, _BOX), lambda x, y: 1.0 - np.hypot(x, y), 1.0, 0.0, 90, 0),
        ((96, 96, _BOX), _star, 1.0, 0.0, 30, 0),
        ((96, 96, _BOX), _two_disks, 1.0, 0.0, 30, 0),
        ((96, 96, _BOX), lambda x, y: 1.0 - np.hypot(x - 1.5, y), 1.0, 0.0, 30, 0),
        ((96, 96, _BOX), lambda x, y: 1.0 - np.hypot(x, y), 1.0, 0.5, 30, 0),
        ((96, 96, _BOX), lambda x, y: 1.0 - np.hypot(x, y), 1.0, -0.5, 30, 0),
        ((96, 96, _BOX), lambda x, y: 1.0 - np.hypot(x, y), 0.1, 0.0, 30, 0),
        ((96, 96, _BOX), lambda x, y: 1.0 - np.hypot(x, y), 0.03, 0.0, 30, 0),
        ((97, 61, (-2, 2, -1.5, 1.5)), _star, 1.0, 0.0, 60, 0),
        ((96, 96, _BOX), _ellipse, 1.0, 0.0, 60, 2),
        ((128, 128, _BOX), lambda x, y: np.hypot(x, y) - 0.7, 1.0, 0.0, 30, 0),
    ],
    ids=["circle-128", "star", "two-disks", "wall-cut-circle", "v0+0.5", "v0-0.5", "alpha-0.1", "alpha-0.03",
         "star-97x61", "ellipse", "circle-0.7"],
)
def test_banded_run_is_the_exhaustive_run(monkeypatch, grid, shape, alpha, v0, steps, completions):
    """run_flow's damped steps, which redistance only the band the next
    step reads, give the curves of a loop of exhaustive steps byte for
    byte: on the unit circle of criterion 7, an off-centre 5-fold star, two
    disks, a circle cut by a wall, an initial speed of either sign, at
    alpha = 0.1 and 0.03, which take 2 and 3 substeps per step, the star on
    97 x 61 nodes with dx != dy, whose last tiles repeat their last nodes,
    a thin ellipse, and a circle of radius 0.7 at N = 128, negative inside,
    where a curvature scale taken from the global max|u| would depend on
    the provisional values on every step.  The ellipse is the one case where
    the certificate rejects steps of its own accord: its run completes 2
    fields, the others none."""
    g = make_grid(*grid)
    cfg = HmboConfig.hmcf(g, PhysicalParams(alpha, 1.0, 1.0), 1.0 / 300.0, max_steps=steps)
    d0 = field_from_function(g, shape)
    want = _exhaustive_curves(cfg, d0, v0, steps)
    done = _count_completions(monkeypatch)
    _assert_same_curves(run_flow(cfg, d0, v0, record_interfaces=True), want)
    assert len(done) == completions


def _close_disks(x, y):
    return np.maximum(0.7 - np.hypot(x + 0.79, y), 0.7 - np.hypot(x - 0.79, y))


@pytest.mark.parametrize(
    "grid, shape, tau, steps, completions",
    [
        ((128, 128, _BOX), lambda x, y: 1.0 - np.hypot(x, y), 1.0 / 300.0, 160, 0),
        ((96, 96, _BOX), _star, 1.0 / 300.0, 60, 0),
        ((97, 61, (-2, 2, -1.5, 1.5)), _star, 1.0 / 300.0, 60, 0),
        ((96, 96, _BOX), _close_disks, 1.0 / 300.0, 60, 0),
        ((96, 96, _BOX), lambda x, y: 1.0 - np.hypot(x - 1.5, y), 1.0 / 300.0, 60, 0),
        ((96, 96, _BOX), _ellipse, 1.0 / 300.0, 60, 0),
        ((96, 96, _BOX), lambda x, y: 1.0 - np.hypot(x, y), 1.0 / 1200.0, 60, 0),
    ],
    ids=["circle-128", "star", "star-97x61", "two-disks", "wall-cut-circle", "ellipse", "tau-1/1200"],
)
def test_banded_mcf_run_is_the_exhaustive_run(monkeypatch, grid, shape, tau, steps, completions):
    """run_flow's mcf steps, which redistance only the band the next step
    reads, give the curves of a loop of exhaustive steps byte for byte: the
    unit circle at N = 128 (13 substeps a step) to its extinction at step
    144, the off-centre star on 96 x 96 and on 97 x 61 nodes, two disks
    0.18 apart that merge at step 4, a circle cut by a wall, a thin ellipse,
    and the circle at tau = 1/1200 (5 substeps).  No run completes a
    field."""
    g = make_grid(*grid)
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=tau, max_steps=steps)
    d0 = field_from_function(g, shape)
    want = _exhaustive_curves(cfg, d0, 0.0, steps)
    done = _count_completions(monkeypatch)
    _assert_same_curves(run_flow(cfg, d0, record_interfaces=True), want)
    assert len(done) == completions


def test_step_band_reaches_as_far_as_its_rounding_bound_allows():
    """_band derives its limits.  Its rounding bound is a polynomial in the
    substeps k, so mcf at N = 128 (13 substeps a step) and at N = 256 (26)
    and the damped step at alpha = 0.002 (10 substeps at N = 128) and
    alpha = 1e-3 (27 at N = 256) all have bands narrower than the diagonal,
    those at N = 256 0.578 and 0.921 wide.
    A band is given up only where its stencils' box of (2k + 3)^2 nodes
    holds more nodes than the grid: the damped step at alpha = 1e-3,
    tau = 1/75 on 16 x 16 nodes (k = 7), and at alpha = 1e-6 (k = 50).
    On a grid of 256 x 4 nodes, whose larger spacing is 4/3, (k + 1) h
    alone reaches the diagonal, and the band is at least as wide: it holds
    every tile, so a step from a BandField returns a field that is complete
    at construction, with the exhaustive step's bytes."""
    def config(n, mode, alpha=1.0, tau=1.0 / 300.0, ny=None):
        g = make_grid(n, ny or n, _BOX)
        if mode == "mcf":
            return HmboConfig.mcf(g, gamma=1.0, tau=tau)
        return HmboConfig.hmcf(g, PhysicalParams(alpha, 1.0, 1.0), tau)

    diag = np.hypot(4.0, 4.0)
    for cfg, k, widest in ((config(128, "mcf"), 13, diag), (config(128, "hmcf", 0.002), 10, diag),
                           (config(256, "mcf"), 26, 0.6), (config(256, "hmcf", 1e-3), 27, 0.95)):
        band = flow._band(cfg)
        assert band is not None and band.k == k
        assert band.width < widest

    def k_of(cfg):
        n_full, rem = substeps(cfg.tau, cfg.dt)
        return n_full + int(rem > 0.0)

    boxed = config(16, "hmcf", 1e-3, tau=1.0 / 75.0)
    assert k_of(boxed) == 7 and (2 * 7 + 3) ** 2 > 16 * 16
    wide = config(16, "hmcf", 1e-6)
    assert k_of(wide) == 50 and (2 * 50 + 3) ** 2 > 16 * 16
    for cfg in (boxed, wide):
        assert flow._band(cfg) is None

    flat = config(256, "mcf", tau=1.0 / 1200.0, ny=4)
    k = k_of(flat)
    assert (2 * k + 3) ** 2 <= 256 * 4 and (k + 1) * flat.grid.dy >= diag
    band = flow._band(flat)
    assert band is not None and band.k == k and band.width >= diag
    f = field_from_function(flat.grid, lambda x, y: 1.0 - np.hypot(x, y))
    d_n = signed_distance(f, extract_zero_set(f))
    assert isinstance(d_n, BandField) and d_n.is_complete
    got, got_curve = hmbo_step(d_n, d_n, flat)
    assert isinstance(got, BandField) and got.is_complete
    plain = ScalarField(flat.grid, d_n.values.copy())
    want, want_curve = hmbo_step(plain, plain, flat)
    assert got.values.tobytes() == want.values.tobytes()
    assert got_curve.vertices.tobytes() == want_curve.vertices.tobytes()


def _leapfrog_longdouble(u0, ut0, grid, params):
    """wave_solve's scheme (starter, leapfrog, shortened last substep, mirror
    ghost nodes) in np.longdouble, from float64 data and coefficients."""
    ld = np.longdouble
    c2, dt, tau, dx, dy = (ld(v) for v in (params.c2, params.dt, params.tau, grid.dx, grid.dy))

    def lap(u):
        p = np.pad(u, 1, mode="reflect")
        return (p[1:-1, :-2] - 2 * u + p[1:-1, 2:]) / (dx * dx) + (p[:-2, 1:-1] - 2 * u + p[2:, 1:-1]) / (dy * dy)

    n_full, rem = substeps(params.tau, params.dt)
    prev, cur = u0, u0 + dt * ut0 + dt * dt / 2 * c2 * lap(u0)
    for _ in range(n_full - 1):
        prev, cur = cur, 2 * cur - prev + c2 * dt * dt * lap(cur)
    if rem > 0.0:
        r = tau - n_full * dt
        vel = (cur - prev) / dt + dt / 2 * c2 * lap(cur)
        cur = cur + r * vel + r * r / 2 * c2 * lap(cur)
    return cur


@pytest.mark.parametrize("k", [1, 13, 26, 51])
@pytest.mark.parametrize("mode", ["mcf", "hmcf"])
def test_step_rounding_stays_within_its_chebyshev_bound(mode, k):
    """rho of hmbo_step bounds the rounding of U(tau): wave_solve's u(tau)
    from a*(2 D_n - D_nm1) and b*D_n, random |D| <= 1 on a 9 x 7 box with
    dx != dy, whose walls every k past 4 reaches, lies within
    rho * max|D| of the same scheme run in np.longdouble, at k substeps
    whose last one is shortened to half a substep (at k = 1 the substep is
    tau itself).  rho is finite at MAX_SUBSTEPS."""
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than float64 here")
    g = make_grid(9, 7, (0.0, 1.0, 0.0, 0.75))
    s, tau = np.sqrt(1.0 / g.dx**2 + 1.0 / g.dy**2), 1.0 / 300.0
    # gamma such that tau/dt = k - 1/2 at CFL number 1/2 (c2 = 6 gamma/tau
    # in mcf, 2 gamma/alpha damped)
    c = (k - 0.5) / (2.0 * tau * s)
    if mode == "mcf":
        cfg = HmboConfig.mcf(g, gamma=c * c * tau / 6.0, tau=tau)
    else:
        cfg = HmboConfig.hmcf(g, PhysicalParams(1e-3, 1.0, c * c * 1e-3 / 2.0), tau)
    n_full, rem = substeps(cfg.tau, cfg.dt)
    assert (n_full, round(rem / cfg.dt, 6)) == ((k - 1, 0.5) if k > 1 else (1, 0.0))
    rng = np.random.default_rng(k)
    d_n, d_nm1 = rng.uniform(-1.0, 1.0, (2, *g.shape))
    u = wave_solve(ScalarField(g, cfg.a * (2.0 * d_n - d_nm1)), ScalarField(g, cfg.b * d_n), cfg.wave_params()).values
    ld = np.longdouble
    want = _leapfrog_longdouble(ld(cfg.a) * (2 * ld(d_n) - ld(d_nm1)), ld(cfg.b) * ld(d_n), g, cfg.wave_params())
    rho = flow._Band.rounding(k) * (3.0 * cfg.a + cfg.b * cfg.tau)
    gap = float(np.max(np.abs(u - want)))
    assert 0.0 < gap <= rho * max(np.max(np.abs(d_n)), np.max(np.abs(d_nm1)))
    assert flow._Band.rounding(flow.MAX_SUBSTEPS) < np.inf


def test_leapfrog_error_kernel_is_within_its_chebyshev_bound():
    """The error kernel G_m of hmbo_step's rounding bound: a unit impulse at
    one level and zero at the level before, m leapfrog substeps later, at
    CFL number 1/2 on a square grid, (c dt/dx)^2 = 1/8.  Its symbol is the
    Chebyshev polynomial U_m, so its l2 norm is at most m + 1, and its l1
    norm at most sqrt(2m^2 + 2m + 1) (m + 1), the nodes with |q|_1 <= m
    being its support.  Its l1 norms, to one decimal, grow about linearly
    in m: 2.0 at m = 1, 29.2 at m = 26, against the bound's 1012 there."""
    table = {1: 2.0, 5: 6.7, 10: 12.8, 20: 22.6, 26: 29.2, 30: 34.5}
    for m, l1 in table.items():
        n = 2 * m + 5
        g = make_grid(n, n, (0.0, n - 1.0, 0.0, n - 1.0))
        impulse = np.zeros(g.shape)
        impulse[m + 2, m + 2] = 2.0  # ut0 = impulse/dt: the first level is the unit impulse
        # c2 dt^2 = 1/8 exactly, and the walls lie past the kernel's reach
        kernel = wave_solve(ScalarField(g, np.zeros(g.shape)), ScalarField(g, impulse),
                            WaveParams(0.5, 0.5, (m + 1) * 0.5)).values
        assert np.count_nonzero(kernel) <= 2 * m * m + 2 * m + 1
        assert np.sqrt(np.sum(kernel**2)) <= m + 1
        assert round(float(np.sum(np.abs(kernel))), 1) == l1 <= np.sqrt(2 * m * m + 2 * m + 1) * (m + 1)


@pytest.mark.parametrize(
    "mode, shape, alpha",
    [("mcf", lambda x, y: 1.0 - np.hypot(x, y), None), ("mcf", _star, None),
     ("hmcf", lambda x, y: 1.0 - np.hypot(x, y), 1e-3)],
    ids=["mcf-circle", "mcf-star", "damped-1e-3-circle"],
)
def test_banded_run_at_n256_is_the_exhaustive_run(monkeypatch, mode, shape, alpha):
    """At N = 256 a step takes 26 substeps (mcf) or 27 (damped, alpha =
    1e-3), and has a band: 8 run_flow steps of the unit circle and of the
    star give the curves of the exhaustive loop byte for byte, and no field
    is completed."""
    g = make_grid(256, 256, _BOX)
    if mode == "mcf":
        cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 300.0, max_steps=8)
    else:
        cfg = HmboConfig.hmcf(g, PhysicalParams(alpha, 1.0, 1.0), 1.0 / 300.0, max_steps=8)
    assert flow._band(cfg) is not None
    d0 = field_from_function(g, shape)
    want = _exhaustive_curves(cfg, d0, 0.0, 8)
    done = _count_completions(monkeypatch)
    _assert_same_curves(run_flow(cfg, d0, record_interfaces=True), want)
    assert done == []


@pytest.mark.parametrize("start", ["chord", "mcf-step"])
def test_a_damped_run_from_a_chord_field_is_the_exhaustive_run(monkeypatch, start):
    """A damped run may start from a chord BandField, whose gaps to the
    exact chord distance are its slack alone: signed_distance's default
    reconstruction of the star, or the field of an mcf step from it.  The
    certificate's curve gap reads a chord field's exact nodes as it reads a
    curved one's, so the first step from it is banded too; the curves are
    the exhaustive loop's, byte for byte, and no field is completed."""
    g = make_grid(96, 96, _BOX)
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 300.0, max_steps=12)
    f = field_from_function(g, _star)
    d0 = signed_distance(f, extract_zero_set(f))
    if start == "mcf-step":
        d0 = hmbo_step(d0, d0, HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 300.0))[0]
    assert isinstance(d0, BandField) and d0.below == d0.above == d0.slack
    want = _exhaustive_curves(cfg, d0, 0.0, 12)
    assert not hmbo_step(d0, init_history(cfg, d0, 0.0), cfg)[0].is_complete
    done = _count_completions(monkeypatch)
    _assert_same_curves(run_flow(cfg, d0, record_interfaces=True), want)
    assert done == []


def _assert_rejected_certificates_keep_the_bytes(monkeypatch, cfg):
    d0 = field_from_function(cfg.grid, _star)
    want = _exhaustive_curves(cfg, d0, 0.0, cfg.max_steps)
    done = _count_completions(monkeypatch)
    monkeypatch.setattr(flow, "_certified", lambda *args: False)
    _assert_same_curves(run_flow(cfg, d0, record_interfaces=True), want)
    assert len(done) == cfg.max_steps - 2


def test_a_rejected_certificate_completes_the_fields_and_keeps_the_bytes(monkeypatch):
    """With a certificate that rejects every step, each step from a field
    with provisional tiles completes it and runs again, and the curves stay
    the exhaustive ones.  The first two steps read exact fields (d0, and
    the fully exact field a step from d0 returns), so the steps from the
    third on complete one field each."""
    g = make_grid(96, 96, (-2, 2, -2, 2))
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 300.0, max_steps=12)
    _assert_rejected_certificates_keep_the_bytes(monkeypatch, cfg)


def test_a_rejected_mcf_certificate_completes_the_fields_and_keeps_the_bytes(monkeypatch):
    """The same in mcf, whose steps have a band too: from the third step
    on each step completes one field, and the curves are the exhaustive
    ones."""
    g = make_grid(96, 96, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 300.0, max_steps=12)
    _assert_rejected_certificates_keep_the_bytes(monkeypatch, cfg)


def test_c1_rejects_an_r_that_misses_the_new_crossings(monkeypatch):
    """A banded step whose R misses the nodes within 3h of d_n's interface,
    and so beside the new crossings, is rejected by (C1) alone: C2's bound
    is forced to accept anything.  Each step from a field with provisional
    tiles then completes it and runs again, and the curves are the
    exhaustive loop's, byte for byte.  Without C1 the steps would take
    d_n's values next to the crossings for u(tau)'s."""
    g = make_grid(96, 96, _BOX)
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 300.0, max_steps=12)
    d0 = field_from_function(g, _star)
    want = _exhaustive_curves(cfg, d0, 0.0, cfg.max_steps)
    band, reach = flow._band(cfg), flow._reach

    def narrow(d_n, d_nm1, k):
        r = reach(d_n, d_nm1, k) & (np.abs(flow._known(d_n)) > 3.0 * g.dx)
        assert r.any()
        return r

    monkeypatch.setattr(flow, "_band", lambda cfg: dataclasses.replace(band, s1=-np.inf))
    monkeypatch.setattr(flow, "_reach", narrow)
    done = _count_completions(monkeypatch)
    _assert_same_curves(run_flow(cfg, d0, record_interfaces=True), want)
    assert len(done) == cfg.max_steps - 2


def test_a_step_from_a_plain_d_n_and_a_banded_d_nm1_is_the_exhaustive_step(monkeypatch):
    """A damped step from a plain ScalarField d_n and a BandField d_nm1
    with provisional tiles propagates on R, which only d_nm1 limits, but
    the certificate reads a gap of each field that a plain field lacks: it
    rejects the step, d_nm1 is completed, and the step runs again from the
    exhaustive fields, to the exhaustive step's bits."""
    g = make_grid(96, 96, _BOX)
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 300.0)
    d_n = field_from_function(g, _star)
    before = ScalarField(g, d_n.values + 0.01)
    curve = extract_zero_set(before, curved=True)
    d_nm1 = signed_distance(before, curve, curved=True, reach=flow._band(cfg).width)
    assert not d_nm1.is_complete
    want, want_curve = hmbo_step(d_n, signed_distance(before, curve, curved=True), cfg)
    certified, verdicts = flow._certified, []

    def judged(*args):
        verdicts.append(certified(*args))
        return verdicts[-1]

    monkeypatch.setattr(flow, "_certified", judged)
    done = _count_completions(monkeypatch)
    got, got_curve = hmbo_step(d_n, d_nm1, cfg)
    assert verdicts == [False]
    assert len(done) == 1 and done[0] is d_nm1
    assert got.values.tobytes() == want.values.tobytes()
    assert got_curve.vertices.tobytes() == want_curve.vertices.tobytes()


def test_criterion_7_run_never_completes_a_field(monkeypatch):
    """The certificate holds on each of criterion 7's 90 steps (unit
    circle, N = 128, alpha = beta = gamma = 1, tau = 1/300): no field is
    completed."""
    g = make_grid(128, 128, (-2, 2, -2, 2))
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 300.0, max_steps=90)
    done = _count_completions(monkeypatch)
    records = run_flow(cfg, field_from_function(g, lambda x, y: 1.0 - np.hypot(x, y)))
    assert len(records) == 90 and not records[-1].extinct
    assert done == []


@pytest.mark.parametrize(
    "n, shape, steps",
    [(128, lambda x, y: 1.0 - np.hypot(x, y), 90), (96, _star, 30)],
    ids=["criterion-7", "star"],
)
def test_curve_gap_stays_within_the_band_budget(n, shape, steps):
    """The certificate's curve gap H between consecutive damped fields,
    read from the exact nodes (flow._curve_gap, both ways), stays within
    the 3h that _band budgets for it (h the larger spacing) on each of
    criterion 7's 90 steps and 30 steps of the off-centre star at N = 96:
    1.62h and 1.67h measured at the worst step."""
    g = make_grid(n, n, _BOX)
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 300.0)
    d0 = field_from_function(g, shape)
    d_n, d_nm1 = d0, init_history(cfg, d0, 0.0)
    gaps = []
    for _ in range(steps):
        d_nm1, (d_n, _) = d_n, hmbo_step(d_n, d_nm1, cfg)
        if isinstance(d_nm1, BandField):
            gaps.append(max(flow._curve_gap(d_n, d_nm1), flow._curve_gap(d_nm1, d_n)))
    assert len(gaps) == steps - 1
    assert 0.0 < max(gaps) <= 3.0 * max(g.dx, g.dy)


def _exact_box(shape, rows, cols):
    """A mask of the given shape that is True on [rows, cols]."""
    mask = np.zeros(shape, dtype=bool)
    mask[rows, cols] = True
    return mask


@pytest.mark.parametrize("alpha, k", [(1.0, 1), (0.0139, 3), (5.5e-4, 13)])
@pytest.mark.parametrize(
    "exact",
    [
        # the exact nodes away from every wall, along one wall, in a corner,
        # everywhere but a hole, whose box is the whole grid, and every
        # node, as the exhaustive rerun passes them
        lambda s: _exact_box(s, slice(2, 59), slice(2, 95)),
        lambda s: _exact_box(s, slice(2, 59), slice(0, 60)),
        lambda s: _exact_box(s, slice(0, 40), slice(0, 60)),
        lambda s: ~_exact_box(s, slice(28, 33), slice(40, 50)),
        lambda s: np.ones(s, dtype=bool),
    ],
    ids=["inside", "one-wall", "two-walls", "walls", "every-node"],
)
def test_a_box_solve_is_the_whole_grid_solve_on_r(exact, alpha, k):
    """_propagate on the box of R (its bounding box grown by k nodes,
    clipped to the walls) gives the u(tau) of a direct wave_solve on the
    whole grid on R bit for bit, and d_n's values everywhere else, on
    97 x 61 nodes with dx != dy and white-noise fields, whose wrong mirror
    ghosts past a side of the box that is no wall differ from the nodes
    they stand for, at k = 1, 3 and 13 substeps a step.  R is the nodes
    whose k-neighbourhood along the axes is exact, as _reach forms it; with
    every node exact, the box is the whole grid at any k, k = 0 included,
    which the exhaustive rerun passes."""
    g = make_grid(97, 61, (-2, 2, -1.5, 1.5))
    cfg = HmboConfig.hmcf(g, PhysicalParams(alpha, 0.7, 1.0), 1.0 / 300.0)
    n_full, rem = flow.substeps(cfg.tau, cfg.dt)
    assert n_full + (rem > 0.0) == k
    rng = np.random.default_rng(k)
    d_n, d_nm1 = (ScalarField(g, rng.standard_normal(g.shape)) for _ in range(2))
    r = ~flow._dilate(~exact(g.shape), k)
    assert r.any()
    whole = wave_solve(ScalarField(g, cfg.a * (2.0 * d_n.values - d_nm1.values)), ScalarField(g, cfg.b * d_n.values),
                       cfg.wave_params())
    for grow in (k, 0) if r.all() else (k,):
        boxed, _ = flow._propagate(d_n, d_nm1, cfg, r, grow)
        assert boxed.values[r].tobytes() == whole.values[r].tobytes()
        assert boxed.values[~r].tobytes() == d_n.values[~r].tobytes()


def test_banded_mcf_run_propagates_on_a_fraction_of_the_grid(monkeypatch):
    """The mcf run of the unit circle at N = 128 to extinction solves the
    wave, through flow.wave_solve, on at most 0.6 of the grid's nodes per
    propagation on average (0.54 measured over its 144 steps)."""
    g = make_grid(128, 128, _BOX)
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 300.0, max_steps=160)
    nodes, wave_solve = [], flow.wave_solve

    def counting(u0, ut0, params, **kwargs):
        nodes.append(u0.values.size)
        return wave_solve(u0, ut0, params, **kwargs)

    monkeypatch.setattr(flow, "wave_solve", counting)
    assert run_flow(cfg, field_from_function(g, lambda x, y: 1.0 - np.hypot(x, y)))[-1].extinct
    assert len(nodes) == 144
    assert np.mean(nodes) <= 0.6 * g.nx * g.ny


def _pairs(shapes):
    """The (node, segment) pairs of the scan_shapes fixture's calls."""
    return sum(int(np.prod(s)) for s in shapes)


def test_banded_step_scans_a_fraction_of_the_pairs(scan_shapes):
    """One damped step on the N = 128 unit circle hands _scan_block at most
    half the (node, candidate) pairs of the same step from exact fields,
    which scans every tile: 0.294 measured (63,232 of 214,976 pairs), with
    a quarter of the tiles exact."""
    g = make_grid(128, 128, (-2, 2, -2, 2))
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 300.0)
    d0 = field_from_function(g, lambda x, y: 1.0 - np.hypot(x, y))
    d1, _ = hmbo_step(d0, init_history(cfg, d0, 0.0), cfg)
    scan_shapes.clear()
    banded, _ = hmbo_step(d1, d0, cfg)
    band = _pairs(scan_shapes)
    scan_shapes.clear()
    exact, _ = hmbo_step(ScalarField(g, d1.values.copy()), d0, cfg)
    assert 0 < band <= 0.5 * _pairs(scan_shapes)
    assert not banded.is_complete and exact.is_complete
    assert banded.values.tobytes() == exact.values.tobytes()


def test_banded_mcf_run_scans_a_fraction_of_the_pairs(monkeypatch, scan_shapes):
    """The mcf run of the unit circle at N = 128 to extinction hands
    _scan_block fewer (node, candidate) pairs than the loop of exhaustive
    steps (0.64 of them measured), and at most 0.05 of the nodes x
    segments of its redistances (0.038 measured, 15.4M pairs)."""
    g = make_grid(128, 128, _BOX)
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 300.0, max_steps=160)
    d0 = field_from_function(g, lambda x, y: 1.0 - np.hypot(x, y))
    everything, redistance = [], flow.signed_distance

    def counting(f, curve, **kwargs):
        everything.append(g.nx * g.ny * curve.n_segments)
        return redistance(f, curve, **kwargs)

    monkeypatch.setattr(flow, "signed_distance", counting)
    assert run_flow(cfg, d0)[-1].extinct
    band = _pairs(scan_shapes)
    assert 0 < band <= 0.05 * sum(everything)
    scan_shapes.clear()
    _exhaustive_curves(cfg, d0, 0.0, 160)
    assert band < _pairs(scan_shapes)


# ---------------------------------------------------------------------------
# a numerical breakdown names its step and stage


def _failing_third_wave_solve(monkeypatch, from_then_on=False):
    """Make flow.wave_solve raise a NumericalError on its third call (and,
    with from_then_on, on every later one)."""
    calls, wave_solve = [], flow.wave_solve

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3 or (from_then_on and len(calls) > 3):
            raise NumericalError("non-finite field values at substep 2")
        return wave_solve(*args, **kwargs)

    monkeypatch.setattr(flow, "wave_solve", flaky)


@pytest.mark.parametrize("mode", ["mcf", "hmcf"])
def test_a_breakdown_in_run_flow_names_its_step_and_stage(monkeypatch, mode):
    """A NumericalError in the third step's propagation reaches run_flow's
    caller as "step 3, propagate: ...".  A damped step whose fields hold
    provisional values runs again from exact ones after a breakdown, so
    there the wave solve fails from its third call on."""
    g = make_grid(32, 32, (-2, 2, -2, 2))
    if mode == "mcf":
        cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 60.0, max_steps=5)
    else:
        cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 60.0, max_steps=5)
    _failing_third_wave_solve(monkeypatch, from_then_on=mode == "hmcf")
    with pytest.raises(NumericalError) as exc:
        run_flow(cfg, _circle_sdf(g))
    assert str(exc.value) == "step 3, propagate: non-finite field values at substep 2"


@pytest.mark.parametrize("mode", ["mcf", "hmcf"])
def test_a_breakdown_in_a_banded_propagation_reruns_the_exhaustive_step(monkeypatch, mode):
    """A NumericalError in the first propagation from fields that hold
    provisional values is not the run's: the step completes its fields and
    runs again from the exhaustive ones, so the run completes one field
    and gives the exhaustive loop's curves, byte for byte."""
    g = make_grid(96, 96, _BOX)
    if mode == "mcf":
        cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 300.0, max_steps=8)
    else:
        cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 300.0, max_steps=8)
    d0 = field_from_function(g, _star)
    want = _exhaustive_curves(cfg, d0, 0.0, cfg.max_steps)
    banded, failed, reach, wave = [], [], flow._reach, flow.wave_solve

    def reaching(*args):
        banded.append(None)
        return reach(*args)

    def flaky(*args, **kwargs):
        if banded and not failed:
            failed.append(None)
            raise NumericalError("non-finite field values at substep 2")
        return wave(*args, **kwargs)

    monkeypatch.setattr(flow, "_reach", reaching)
    monkeypatch.setattr(flow, "wave_solve", flaky)
    done = _count_completions(monkeypatch)
    _assert_same_curves(run_flow(cfg, d0, record_interfaces=True), want)
    assert len(done) == 1
