"""Threshold dynamics for curvature-driven interface motion.

The scheme advances a pair of signed distance fields, the current d_n and
the previous d_nm1.  One step, hmbo_step(d_n, d_nm1, cfg), propagates the
wave initial data u0 = a*(2*d_n - d_nm1), ut0 = b*d_n over a short window
tau, extracts the zero level set of u(tau), and returns the distance field
d_{n+1} rebuilt from it with that interface, or None when u(tau) has one
sign, which is extinction.  The history term 2*d_n - d_nm1 carries the mass
term alpha*x_tt of the damped law.  run_flow iterates the step and shifts
the pair.  The two modes differ in the wave data (a, b, c^2) only:

* damped mode ("hmcf"): (alpha, beta, 2*gamma/alpha), derived from the
  physical coefficients of  alpha * V' + beta * V = -gamma * curvature;
* curvature-flow limit ("mcf"): (0, 1, lambda/tau) with lambda = 6*gamma,
  i.e. u0 = 0 and ut0 = d_n, which drives the interface with normal
  velocity -gamma * curvature as tau -> 0.

wave_data is the one copy of these maps.  HmboConfig holds only a run's
inputs and derives (a, b, c2) with wave_data and the leapfrog substep dt
with wave.cfl_substep, so dt is never set and stable by construction.

Beyond its two fields, a step reads only the wave data coefficients
(a, b, c2), tau, the substep dt, the grid and the mode.  It is odd under
d -> -d, so either side of the interface may carry the positive sign of d0;
the rebuilt fields keep the sign bit of the propagated field at each node
(hmbo.interfaces).

A run starts from the pair (d0, init_history(cfg, d0, v0_normal)).  The
damped law's second initial condition, a normal velocity v0, is stored as
the previous interface {d0 = -v0*tau}; in mcf, where a = 0, d_nm1 is d0.
Beyond the wave data, the mode decides only that start and the
reconstruction.  The damped step (and init_history) rebuilds the
distance field with the curved reconstruction of hmbo.interfaces: the
history term 2*d_n - d_nm1 turns a per-step shift delta of the interface
into a forcing of order delta/tau^2, and the chord reconstruction's shift of
about 0.05 dx^2 per step made the radius of a unit circle drift by 0.19 in
90 steps at N = 128, tau = 1/300.  The mcf step sees that shift only as
delta/tau and keeps the chord reconstruction, which its frozen reference
figures rest on.  The choice is made in one place, CURVED, which the step,
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
from .wave import WaveParams, cfl_substep, wave_solve

# The modes, each with whether it extracts and redistances with the curved
# reconstruction (True) or the chord one; see the module docstring.
CURVED = {"hmcf": True, "mcf": False}

# The most leapfrog substeps a step may take.  The default mcf study takes
# 25.5 per step at N = 256, and the damped mode 27, 85 and 850 there for
# alpha = 1e-3, 1e-4 and 1e-6 (c^2 = 2*gamma/alpha).  A substep at N = 256
# takes 0.5 to 0.7 ms on one core of a 2-vCPU Xeon guest (best of 5 runs of
# 200 substeps, no energy log), so a step at the ceiling takes 5 to 7 s;
# alpha = 1e-300 asks for 5e148 substeps per step at N = 16, a run that
# never ends.
MAX_SUBSTEPS = 10_000


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the damped interface law alpha*V' + beta*V = -gamma*k."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not all(0 <= c < np.inf for c in (self.alpha, self.beta, self.gamma)):
            raise ValidationError(f"coefficients must be finite and nonnegative, got {self}")


def wave_data(mode: str, p: PhysicalParams, tau: float) -> tuple[float, float, float]:
    """The mode's wave data coefficients (a, b, c2).

    a scales the initial displacement a*(2*d_n - d_nm1), b the initial
    velocity b*d_n and c2 is the squared propagation speed: damped,
    (alpha, beta, 2*gamma/alpha); mcf, (0, 1, 6*gamma/tau), which reads
    neither alpha nor beta.  A c2 that underflows to 0 or overflows is
    rejected with its formula and inputs.
    """
    if mode == "mcf":
        if p.gamma <= 0 or tau <= 0:
            raise ValidationError(f"need gamma > 0 and tau > 0, got {p.gamma}, {tau}")
        a, b, c2 = 0.0, 1.0, 6.0 * p.gamma / tau
    elif mode == "hmcf":
        if p.alpha <= 0:
            raise ValidationError(f"alpha must be positive, got {p.alpha}")
        a, b, c2 = p.alpha, p.beta, 2.0 * p.gamma / p.alpha
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    if not 0 < c2 < np.inf:  # underflowed to 0 or overflowed
        formula, other = (("6*gamma/tau", f"tau = {tau}") if mode == "mcf"
                          else ("2*gamma/alpha", f"alpha = {p.alpha}"))
        raise ValidationError(f"{formula} = {c2} is no positive finite double for gamma = {p.gamma}, {other}")
    return a, b, c2


@dataclass(frozen=True)
class HmboConfig:
    """The inputs of a threshold-dynamics run, and nothing else.

    a, b and c2 are derived by wave_data, and the leapfrog substep dt by
    cfl_substep: half the grid's stability bound, capped at tau.  None of
    the four can be set.  Construction checks the mode and coefficients
    (wave_data, the one check), that the grid is not too fine for the
    bound, tau > 0 (WaveParams), max_steps >= 0, that a step takes at most
    MAX_SUBSTEPS substeps, and that the scalars wave_solve forms from c2
    and dt are finite doubles.
    """

    mode: str
    params: PhysicalParams
    tau: float
    max_steps: int
    grid: Grid2D

    def __post_init__(self):
        p = self.wave_params()
        c2, dt = float(p.c2), float(p.dt)  # Python floats overflow to inf without a warning
        if self.max_steps < 0:
            raise ValidationError(f"max_steps must be nonnegative, got {self.max_steps}")
        grid = f"the {self.grid.nx}x{self.grid.ny} grid"
        if self.tau / dt > MAX_SUBSTEPS:
            raise ValidationError(
                f"a step on {grid} takes {self.tau / dt:.3g} leapfrog substeps, more than {MAX_SUBSTEPS}"
            )
        # wave_solve's starter and leapfrog coefficients, in its order (the
        # starter's h is at most dt)
        if not (0.5 * dt * dt * c2 < np.inf and c2 * dt * dt < np.inf):
            raise ValidationError(
                f"the wave data overflow on {grid}: c2*dt^2 is no finite double for dt = {dt:.3g}, c2 = {c2:.3g}"
            )

    @classmethod
    def mcf(cls, grid: Grid2D, gamma: float, tau: float, max_steps: int = 1):
        return cls("mcf", PhysicalParams(0.0, 0.0, gamma), tau, max_steps, grid)

    @classmethod
    def hmcf(cls, grid: Grid2D, params: PhysicalParams, tau: float, max_steps: int = 1):
        return cls("hmcf", params, tau, max_steps, grid)

    # derived, so read-only
    a = property(lambda self: wave_data(self.mode, self.params, self.tau)[0])
    b = property(lambda self: wave_data(self.mode, self.params, self.tau)[1])
    c2 = property(lambda self: wave_data(self.mode, self.params, self.tau)[2])
    dt = property(lambda self: cfl_substep(self.c2, self.grid, self.tau))

    def wave_params(self) -> WaveParams:
        return WaveParams(self.c2, self.dt, self.tau)


@dataclass
class RunRecord:
    """Per-step output of run_flow; avg_radius is None once extinct."""

    step: int
    t: float
    avg_radius: float | None
    extinct: bool
    curve: InterfaceCurve | None = None


def check_start(cfg: HmboConfig, d0: ScalarField, v0_normal: float) -> ScalarField:
    """The preconditions of a run from d0, checked in this order: d0 is on
    cfg's grid and changes sign, in damped mode so does d0 + v0_normal*tau,
    and the first substep's products with the field are finite.  Returns
    the field whose zero level set is the previous interface: d0 in mcf,
    d0 + v0_normal*tau in damped mode."""
    if d0.grid != cfg.grid:
        raise ValidationError("d0 grid does not match config grid")
    if not has_interface(d0):
        raise ValidationError("d0 has uniform sign; nothing to evolve")
    shifted = d0
    if cfg.mode == "hmcf":
        shifted = ScalarField(d0.grid, d0.values + float(v0_normal) * cfg.tau)
        if not has_interface(shifted):
            raise ValidationError("offset level set is empty; initial speed too large for this field")
    # wave_solve's first substep forms dt*(b*d) and a*(2*d_n - d_nm1) from
    # the step's fields; d_nm1 and every later field are redistanced, so no
    # |d| exceeds the larger of max|d0| and the grid diagonal
    g = cfg.grid
    d_max = max(float(np.max(np.abs(d0.values))), float(np.hypot(g.xmax - g.xmin, g.ymax - g.ymin)))
    if not (float(cfg.dt) * (cfg.b * d_max) < np.inf and cfg.a * (2.0 * d_max + d_max) < np.inf):
        raise ValidationError(
            f"the first substep overflows: dt*b*|d| or 3*a*|d| is no finite double for |d| = {d_max:.3g}"
        )
    return shifted


def init_history(cfg: HmboConfig, d0: ScalarField, v0_normal: float) -> ScalarField:
    """The previous field d_nm1 of a run from d0, whose start it checks
    (check_start): d0 itself in mcf, where a = 0 and it is never read.  In
    damped mode the previous interface is the level set {d0 = -v0_normal*tau}
    (v0_normal is the initial normal speed, positive in the direction of
    increasing d0), and d_nm1 is d0 + v0_normal*tau redistanced from it.
    """
    shifted = check_start(cfg, d0, v0_normal)
    if cfg.mode == "mcf":
        return d0
    curved = CURVED["hmcf"]
    curve = extract_zero_set(shifted, curved=curved)
    return signed_distance(shifted, curve, curved=curved)


def hmbo_step(d_n: ScalarField, d_nm1: ScalarField,
              cfg: HmboConfig) -> tuple[ScalarField, InterfaceCurve] | None:
    """One threshold-dynamics step of length tau from the current field d_n
    and the previous one d_nm1, both on cfg.grid.

    Its three stages: propagate the wave data u0 = a*(2*d_n - d_nm1),
    ut0 = b*d_n over tau (wave_solve), extract the zero set of u(tau), and
    redistance from it.  Returns (d_new, curve), the new distance field and
    the interface it was rebuilt from, or None when the extracted interface
    is empty, which on a grid is exactly when u(tau) has one sign: the
    interface is extinct.  In mcf a = 0, so d_nm1 does not change the
    step.
    """
    if d_n.grid != cfg.grid or d_nm1.grid != cfg.grid:
        raise ValidationError("the step's fields and its config lie on different grids")
    u0 = ScalarField(cfg.grid, cfg.a * (2.0 * d_n.values - d_nm1.values))
    ut0 = ScalarField(cfg.grid, cfg.b * d_n.values)
    u_tau = wave_solve(u0, ut0, cfg.wave_params())
    curved = CURVED[cfg.mode]
    curve = extract_zero_set(u_tau, curved=curved)
    if curve.is_empty:  # each sign change gives a segment, so u(tau) has one sign
        return None
    return signed_distance(u_tau, curve, curved=curved), curve


def run_flow(cfg: HmboConfig, d0: ScalarField, v0_normal: float = 0.0,
             record_interfaces: bool = False) -> list[RunRecord]:
    """Iterate hmbo_step from d0 up to cfg.max_steps or extinction.

    The run starts from (d0, init_history(cfg, d0, v0_normal)), which checks
    the start; after each step (d_n, d_nm1) becomes (d_new, d_n).  Returns
    one record per executed step at time n*tau; the terminating record of an
    extinct run has avg_radius None.  d0 should already be a signed distance
    field (an analytic one is fine).  v0_normal, the initial normal speed,
    is read in damped mode only.
    """
    d_n, d_nm1 = d0, init_history(cfg, d0, v0_normal)

    records: list[RunRecord] = []
    for n in range(1, cfg.max_steps + 1):
        t = n * cfg.tau
        step = hmbo_step(d_n, d_nm1, cfg)
        if step is None:
            records.append(RunRecord(n, t, None, True))
            break
        d_nm1, (d_n, curve) = d_n, step
        records.append(RunRecord(n, t, average_radius(curve), False, curve if record_interfaces else None))
    return records
