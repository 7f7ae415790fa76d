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

import numpy as np
import pytest

from hmbo.errors import ValidationError
from hmbo.fields import ScalarField, field_from_function, make_grid
from hmbo.flow import (
    FlowState,
    HmboConfig,
    PhysicalParams,
    hmbo_step,
    init_history,
    mcf_c2,
    run_flow,
    wave_coefficients,
)
from hmbo.interfaces import SignConvention, average_radius, extract_zero_set
from hmbo.oracles import hmcf_circle_radius
from hmbo.wave import cfl_max_dt


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
    assert wave_coefficients(PhysicalParams(*params)) == expected


def test_wave_coefficients_need_positive_mass():
    with pytest.raises(ValidationError):
        wave_coefficients(PhysicalParams(0.0, 1.0, 1.0))


@pytest.mark.parametrize("p", [(1.0, 1.0, 1.0), (2.5, 0.3, 0.9), (0.4, 0.0, 2.0)])
def test_parameter_mapping_round_trip(p):
    """Inverting a = alpha, b = beta, c2 = 2 gamma / alpha recovers the
    physical coefficients to machine precision."""
    a, b, c2 = wave_coefficients(PhysicalParams(*p))
    assert (a, b, a * c2 / 2.0) == pytest.approx(p, rel=1e-15)


def test_mcf_c2_values():
    assert mcf_c2(1.0, 1.0 / 300.0) == pytest.approx(1800.0)
    assert mcf_c2(0.5, 0.01) == pytest.approx(300.0)
    assert mcf_c2(1.0, 1.0) == pytest.approx(6.0)
    with pytest.raises(ValidationError):
        mcf_c2(0.0, 1.0)
    with pytest.raises(ValidationError):
        mcf_c2(1.0, -1.0)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    g = make_grid(32, 32, (-2, 2, -2, 2))
    with pytest.raises(ValidationError):
        HmboConfig("sideways", 1.0, 0.0, 1.0, 0.1, 0.01, 1, g)
    with pytest.raises(ValidationError):
        HmboConfig("mcf", 0.0, 0.0, 60.0, 0.1, 0.2, 1, g, lam=6.0)  # dt > tau
    with pytest.raises(ValidationError):
        HmboConfig("mcf", 0.0, 0.0, 60.0, 0.1, 0.05, 1, g, lam=6.0)  # CFL broken
    with pytest.raises(ValidationError):
        HmboConfig("mcf", 0.0, 0.0, 60.0, 0.1, 1e-4, -1, g, lam=6.0)
    # the CFL boundary is shared with wave_solve: the bound itself is accepted
    dt_max = cfl_max_dt(60.0, g)
    assert HmboConfig("mcf", 0.0, 0.0, 60.0, 0.1, dt_max, 1, g, lam=6.0).dt == dt_max
    with pytest.raises(ValidationError, match="CFL"):
        HmboConfig("mcf", 0.0, 0.0, 60.0, 0.1, 1.000001 * dt_max, 1, g, lam=6.0)


def test_mcf_config_requires_consistent_threshold_constant():
    g = make_grid(32, 32, (-2, 2, -2, 2))
    with pytest.raises(ValidationError):
        HmboConfig("mcf", 0.0, 0.0, 60.0, 0.1, 1e-4, 1, g, lam=9.0)
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=0.1)
    assert cfg.lam == 6.0
    assert cfg.c2 == pytest.approx(60.0)
    assert cfg.dt == pytest.approx(min(0.5 * cfl_max_dt(60.0, g), 0.1))


def test_damped_config_requires_positive_inside():
    g = make_grid(32, 32, (-2, 2, -2, 2))
    with pytest.raises(ValidationError):
        HmboConfig.hmcf(
            g,
            PhysicalParams(1.0, 1.0, 1.0),
            tau=0.1,
            sign_convention=SignConvention(positive_inside=False),
        )


# ---------------------------------------------------------------------------
# history synthesis


def test_init_history_zero_velocity_is_near_identity():
    g = make_grid(96, 96, (-2, 2, -2, 2))
    d0 = _circle_sdf(g, inside_positive=True)
    dm1 = init_history(d0, 0.0, 0.1)
    assert np.max(np.abs(dm1.values - d0.values)) < 1.5 * g.dx


@pytest.mark.parametrize("v0,r_want", [(0.1, 1.01), (-0.1, 0.99)])
def test_init_history_offsets_circle(v0, r_want):
    """A constant normal speed shifts the previous interface by v0 tau."""
    g = make_grid(128, 128, (-2, 2, -2, 2))
    d0 = _circle_sdf(g, inside_positive=True)
    dm1 = init_history(d0, v0, 0.1)
    r_got = average_radius(extract_zero_set(dm1))
    assert abs(r_got - r_want) < 0.01
    X, Y = g.mesh()
    assert np.max(np.abs(dm1.values - (r_want - np.hypot(X, Y)))) < 1.5 * g.dx


def test_init_history_rejects_emptying_offset():
    g = make_grid(64, 64, (-2, 2, -2, 2))
    d0 = _circle_sdf(g, inside_positive=True)
    with pytest.raises(ValidationError):
        init_history(d0, -11.0, 0.1)
    with pytest.raises(ValidationError):
        init_history(d0, 0.0, -0.1)


# ---------------------------------------------------------------------------
# single steps


def test_one_step_circle_matches_exact_law():
    tau = 1.0 / 300.0
    g = make_grid(128, 128, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=tau, max_steps=1)
    state = hmbo_step(FlowState(_circle_sdf(g), None, 0), cfg)
    got = average_radius(state.last_curve)
    want = np.sqrt(1.0 - 2.0 * tau)
    assert abs(got - want) < 0.5 * (tau + g.dx)
    assert state.step_index == 1


def test_step_preserves_reflection_symmetry():
    g = make_grid(65, 65, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=1.0 / 300.0, max_steps=1)
    state = hmbo_step(FlowState(_circle_sdf(g), None, 0), cfg)
    d = state.d_n.values
    assert np.max(np.abs(d - d[:, ::-1])) < 1e-13


def test_extinction_marks_state_and_freezes_it():
    g = make_grid(32, 32, (-2, 2, -2, 2))
    d0 = _circle_sdf(g, r0=0.05)  # below the mesh resolution
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=0.05, max_steps=1)
    st = hmbo_step(FlowState(d0, None, 0), cfg)
    assert st.extinct
    assert st.d_n is d0  # fields untouched on the extinction branch
    again = hmbo_step(st, cfg)
    assert again is st  # stepping an extinct state is a no-op


def test_damped_step_requires_history():
    g = make_grid(32, 32, (-2, 2, -2, 2))
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), tau=0.02)
    with pytest.raises(ValidationError):
        hmbo_step(FlowState(_circle_sdf(g, inside_positive=True), None, 0), cfg)


def test_damped_step_shifts_history_exactly():
    g = make_grid(64, 64, (-2, 2, -2, 2))
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), tau=1.0 / 300.0)
    d0 = _circle_sdf(g, inside_positive=True)
    state = FlowState(d0, init_history(d0, 0.0, cfg.tau), 0)
    new = hmbo_step(state, cfg)
    assert new.d_nm1 is d0


def test_step_grid_mismatch_rejected():
    g = make_grid(32, 32, (-2, 2, -2, 2))
    other = make_grid(16, 16, (-2, 2, -2, 2))
    cfg = HmboConfig.mcf(g, gamma=1.0, tau=0.05, max_steps=1)
    with pytest.raises(ValidationError):
        hmbo_step(FlowState(_circle_sdf(other), None, 0), cfg)


def test_velocity_sign_flip_same_interfaces():
    """Flipping the sign of the propagated data (negated input field plus the
    negated sign convention) must not move the extracted zero sets."""
    g = make_grid(64, 64, (-2, 2, -2, 2))
    tau = 1.0 / 30.0
    cfg_a = HmboConfig.mcf(g, gamma=1.0, tau=tau, max_steps=3)
    cfg_b = HmboConfig.mcf(
        g, gamma=1.0, tau=tau, max_steps=3,
        sign_convention=SignConvention(positive_inside=False),
    )
    recs_a = run_flow(cfg_a, _circle_sdf(g), record_interfaces=True)
    recs_b = run_flow(cfg_b, _circle_sdf(g, inside_positive=True), record_interfaces=True)
    assert len(recs_a) == len(recs_b) == 3
    for ra, rb in zip(recs_a, recs_b):
        assert np.array_equal(ra.curve.vertices, rb.curve.vertices)
        assert ra.avg_radius == rb.avg_radius


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
    prediction; the only gap is the fixed chord-extraction offset at the
    dx^2 scale, and the response to history offsets matches to 0.5%."""
    tau = 1.0 / 300.0
    g = make_grid(128, 128, (-2, 2, -2, 2))
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), tau)

    def step_radius(delta):
        d_n = _circle_sdf(g, 1.0, inside_positive=True)
        d_m1 = _circle_sdf(g, 1.0 + delta, inside_positive=True)
        st = hmbo_step(FlowState(d_n, d_m1, 0), cfg)
        return average_radius(st.last_curve)

    base = step_radius(0.0)
    want = _recurrence_next(1.0, 1.0, 1.0, 1.0, 1.0, tau)
    assert abs(base - want) < 5e-5  # chord bias, about 0.04 dx^2 here

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
