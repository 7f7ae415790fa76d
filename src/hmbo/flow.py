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

wave_data is the one copy of these maps; HmboConfig.build applies it.
Iterating the step yields the flow; the interface is declared extinct when
the propagated field no longer changes sign anywhere.

A step reads only the wave data coefficients (a, b, c2, tau, dt), the grid
and the mode.  It is odd under d -> -d, so either side of the interface may
carry the positive sign of d0; the rebuilt fields keep the sign of the
propagated field at each node.

The damped step (and init_history) rebuilds the distance field with the
curved reconstruction of hmbo.interfaces: the history term 2*d_n - d_nm1
turns a per-step shift delta of the interface into a forcing of order
delta/tau^2, and the chord reconstruction's shift of about 0.05 dx^2 per
step made the radius of a unit circle drift by 0.19 in 90 steps at N = 128,
tau = 1/300.  The mcf step sees that shift only as delta/tau and keeps the
chord reconstruction, which its frozen reference figures rest on.  The
choice follows the mode and is made in one place, CURVED, which the step,
init_history and the harness's radius and interface outputs all read.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import Grid2D, ScalarField
from .interfaces import (
    InterfaceCurve,
    average_radius,
    extract_zero_set,
    has_interface,
    signed_distance,
)
from .wave import WaveParams, check_cfl, cfl_substep, wave_solve

# The modes, each with whether it extracts and redistances with the curved
# reconstruction (True) or the chord one; see the module docstring.
CURVED = {"hmcf": True, "mcf": False}


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the damped interface law alpha*V' + beta*V = -gamma*k."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not all(0 <= c < np.inf for c in (self.alpha, self.beta, self.gamma)):
            raise ValidationError(f"coefficients must be finite and nonnegative, got {self}")


def check_max_steps(max_steps: int) -> None:
    """Raise ValidationError unless max_steps is nonnegative."""
    if max_steps < 0:
        raise ValidationError(f"max_steps must be nonnegative, got {max_steps}")


def wave_data(mode: str, p: PhysicalParams, tau: float) -> tuple[float, float, float]:
    """The mode's wave data coefficients (a, b, c2).

    a scales the initial displacement, b the initial velocity (the solver is
    handed ut0 = b*d_n) and c2 is the squared propagation speed:
    damped, (alpha, beta, 2*gamma/alpha); mcf, (0, 0, 6*gamma/tau), whose
    step reads neither a nor b.
    """
    if mode == "mcf":
        if p.gamma <= 0 or tau <= 0:
            raise ValidationError(f"need gamma > 0 and tau > 0, got {p.gamma}, {tau}")
        return 0.0, 0.0, 6.0 * p.gamma / tau
    if mode != "hmcf":
        raise ValidationError(f"unknown mode {mode!r}")
    if p.alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {p.alpha}")
    return p.alpha, p.beta, 2.0 * p.gamma / p.alpha


@dataclass(frozen=True)
class HmboConfig:
    """Frozen parameters of a threshold-dynamics run.

    a and b scale the damped mode's initial displacement and velocity; the
    mcf step ignores them.  Build configs with HmboConfig.build (or its
    wrappers .mcf and .hmcf), which derives (a, b, c2) with wave_data.
    """

    mode: str
    a: float
    b: float
    c2: float
    tau: float
    dt: float
    max_steps: int
    grid: Grid2D

    def __post_init__(self):
        if self.mode not in CURVED:
            raise ValidationError(f"unknown mode {self.mode!r}")
        check_cfl(self.wave_params(), self.grid)
        check_max_steps(self.max_steps)

    @classmethod
    def build(cls, mode: str, grid: Grid2D, params: PhysicalParams, tau: float,
              dt: float | None = None, max_steps: int = 1):
        """The config of a mode: wave_data's (a, b, c2), and dt defaulting
        to cfl_substep."""
        a, b, c2 = wave_data(mode, params, tau)
        if dt is None:
            dt = cfl_substep(c2, grid, tau)
        return cls(mode, a, b, c2, tau, dt, max_steps, grid)

    @classmethod
    def mcf(cls, grid: Grid2D, gamma: float, tau: float, dt: float | None = None,
            max_steps: int = 1):
        return cls.build("mcf", grid, PhysicalParams(0.0, 0.0, gamma), tau, dt, max_steps)

    @classmethod
    def hmcf(cls, grid: Grid2D, params: PhysicalParams, tau: float,
             dt: float | None = None, max_steps: int = 1):
        return cls.build("hmcf", grid, params, tau, dt, max_steps)

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


def init_history(d0: ScalarField, v0_normal: float, tau: float) -> ScalarField:
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
    curved = CURVED["hmcf"]
    curve = extract_zero_set(shifted, curved=curved)
    return signed_distance(shifted, curve, curved=curved)


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

    curved = CURVED[cfg.mode]
    curve = extract_zero_set(u_tau, curved=curved)
    d_new = signed_distance(u_tau, curve, curved=curved)
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
        d_nm1 = init_history(d0, v0_normal, cfg.tau)
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
