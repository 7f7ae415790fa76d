"""Threshold dynamics for curvature-driven interface motion.

One step of the scheme propagates wave initial data built from the current
signed distance field(s) over a short window tau, extracts the zero level
set of the result, and rebuilds a signed distance field from it:

* damped mode ("hmcf"): u0 = a*(2*d_n - d_nm1), ut0 = b*d_n, where
  (a, b, c^2) = (alpha, beta, 2*gamma/alpha) are derived from the physical
  coefficients of  alpha * V' + beta * V = -gamma * curvature;
* curvature-flow limit ("mcf"): u0 = 0, ut0 = d_n, with c^2 = lambda/tau
  and lambda = 6*gamma, which drives the interface with normal velocity
  -gamma * curvature as tau -> 0.

Iterating the step yields the flow; the interface is declared extinct when
the propagated field no longer changes sign anywhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import Grid2D, ScalarField
from .interfaces import (
    InterfaceCurve,
    SignConvention,
    average_radius,
    extract_zero_set,
    has_interface,
    signed_distance,
)
from .wave import WaveParams, check_cfl, cfl_substep, wave_solve


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the damped interface law alpha*V' + beta*V = -gamma*k."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValidationError(
                f"coefficients must be nonnegative, got {self}"
            )


def wave_coefficients(p: PhysicalParams) -> tuple[float, float, float]:
    """Map physical coefficients to wave data coefficients (a, b, c2).

    a scales the initial displacement, b the initial velocity (the solver is
    handed ut0 = b*d_n), and c2 is the squared propagation speed:
    a = alpha, b = beta, c2 = 2*gamma/alpha.
    """
    if p.alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {p.alpha}")
    return p.alpha, p.beta, 2.0 * p.gamma / p.alpha


def mcf_c2(gamma: float, tau: float) -> float:
    """Squared wave speed lambda/tau with lambda = 6*gamma for the MCF limit."""
    if gamma <= 0 or tau <= 0:
        raise ValidationError(f"need gamma > 0 and tau > 0, got {gamma}, {tau}")
    return 6.0 * gamma / tau


@dataclass(frozen=True)
class HmboConfig:
    """Frozen parameters of a threshold-dynamics run.

    In damped mode the sign convention must keep positive_inside=True: the
    two history fields enter one wave problem and have to share a single
    orientation, which a per-step global flip would destroy.
    """

    mode: str
    a: float
    b: float
    c2: float
    tau: float
    dt: float
    max_steps: int
    grid: Grid2D
    sign_convention: SignConvention = SignConvention()
    lam: float | None = None

    def __post_init__(self):
        if self.mode not in ("hmcf", "mcf"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        check_cfl(self.wave_params(), self.grid)
        if self.max_steps < 0:
            raise ValidationError(f"max_steps must be nonnegative, got {self.max_steps}")
        if self.mode == "mcf":
            if self.lam is None:
                raise ValidationError("MCF mode requires lam")
            if abs(self.c2 * self.tau - self.lam) > 1e-9 * self.lam:
                raise ValidationError("MCF mode requires c2 = lam/tau")
        if self.mode == "hmcf" and not self.sign_convention.positive_inside:
            raise ValidationError("damped mode requires positive_inside=True")

    @classmethod
    def mcf(cls, grid: Grid2D, gamma: float, tau: float, dt: float | None = None,
            max_steps: int = 1, sign_convention: SignConvention = SignConvention()):
        c2 = mcf_c2(gamma, tau)
        if dt is None:
            dt = cfl_substep(c2, grid, tau, 0.5)
        return cls("mcf", 0.0, 0.0, c2, tau, dt, max_steps, grid,
                   sign_convention, lam=6.0 * gamma)

    @classmethod
    def hmcf(cls, grid: Grid2D, params: PhysicalParams, tau: float,
             dt: float | None = None, max_steps: int = 1,
             sign_convention: SignConvention = SignConvention()):
        a, b, c2 = wave_coefficients(params)
        if dt is None:
            dt = cfl_substep(c2, grid, tau, 0.5)
        return cls("hmcf", a, b, c2, tau, dt, max_steps, grid, sign_convention)

    def wave_params(self) -> WaveParams:
        return WaveParams(self.c2, self.dt, self.tau)


@dataclass
class FlowState:
    """Evolving state: current and (damped mode) previous distance fields.

    last_curve holds the interface extracted while producing d_n; it is None
    for a freshly initialized state and after extinction.
    """

    d_n: ScalarField
    d_nm1: ScalarField | None
    step_index: int
    extinct: bool = False
    last_curve: InterfaceCurve | None = None


@dataclass
class RunRecord:
    """Per-step output of run_flow; avg_radius is None once extinct."""

    step: int
    t: float
    avg_radius: float | None
    extinct: bool
    curve: InterfaceCurve | None = None


def init_history(d0: ScalarField, v0_normal: float, tau: float,
                 convention: SignConvention = SignConvention()) -> ScalarField:
    """Synthesize the previous distance field for a damped-mode start.

    The previous interface is taken to be the level set {d0 = -v0_normal*tau}
    (v0_normal is the initial normal speed, positive in the direction of
    increasing d0), realized by redistancing d0 + v0_normal*tau.
    """
    if tau <= 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    shifted = ScalarField(d0.grid, d0.values + float(v0_normal) * tau)
    if not has_interface(shifted):
        raise ValidationError(
            "offset level set is empty; initial speed too large for this field"
        )
    return signed_distance(shifted, extract_zero_set(shifted), convention)


def hmbo_step(state: FlowState, cfg: HmboConfig) -> FlowState:
    """Advance the flow by one threshold-dynamics step of length tau."""
    if state.extinct:
        return state
    grid = cfg.grid
    if state.d_n.grid != grid:
        raise ValidationError("state and config grids differ")

    if cfg.mode == "hmcf":
        if state.d_nm1 is None:
            raise ValidationError("damped mode needs the previous field; run init_history")
        u0 = ScalarField(grid, cfg.a * (2.0 * state.d_n.values - state.d_nm1.values))
        ut0 = ScalarField(grid, cfg.b * state.d_n.values)
    else:
        u0 = ScalarField(grid, np.zeros(grid.shape))
        ut0 = state.d_n

    u_tau = wave_solve(u0, ut0, cfg.wave_params())
    if not has_interface(u_tau):
        return FlowState(state.d_n, state.d_nm1, state.step_index, extinct=True)

    curve = extract_zero_set(u_tau)
    d_new = signed_distance(u_tau, curve, cfg.sign_convention)
    d_prev = state.d_n if cfg.mode == "hmcf" else None
    return FlowState(d_new, d_prev, state.step_index + 1, extinct=False, last_curve=curve)


def run_flow(cfg: HmboConfig, d0: ScalarField, v0_normal: float = 0.0,
             record_interfaces: bool = False) -> list[RunRecord]:
    """Iterate hmbo_step from d0 up to cfg.max_steps or extinction.

    Returns one record per executed step at time n*tau; the terminating
    record of an extinct run has avg_radius None.  d0 should already be a
    signed distance field (an analytic one is fine).
    """
    if d0.grid != cfg.grid:
        raise ValidationError("d0 grid does not match config grid")
    if not has_interface(d0):
        raise ValidationError("d0 has uniform sign; nothing to evolve")

    d_nm1 = None
    if cfg.mode == "hmcf":
        d_nm1 = init_history(d0, v0_normal, cfg.tau, cfg.sign_convention)
    state = FlowState(d0, d_nm1, step_index=0)

    records: list[RunRecord] = []
    for n in range(1, cfg.max_steps + 1):
        state = hmbo_step(state, cfg)
        t = n * cfg.tau
        if state.extinct:
            records.append(RunRecord(n, t, None, True))
            break
        r = average_radius(state.last_curve)
        records.append(
            RunRecord(n, t, r, False, state.last_curve if record_interfaces else None)
        )
    return records
