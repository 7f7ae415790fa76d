"""Explicit leapfrog solver for the linear wave equation u_tt = c^2 Lap(u)
with homogeneous Neumann boundary conditions.

Scheme: the first substep is started with

    u^1 = u^0 + dt * ut^0 + (dt^2 / 2) * c^2 * Lap(u^0)

and subsequent substeps use the standard three-level leapfrog

    u^{n+1} = 2 u^n - u^{n-1} + (c dt)^2 * Lap(u^n).

Stability requires the CFL condition c * dt * sqrt(1/dx^2 + 1/dy^2) <= 1.
If the window tau is not an integer multiple of dt, the final substep is
shortened to land exactly on tau: the velocity at the last stored pair is
recovered to second order and the starter formula is reused for the
remaining fraction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .fields import Grid2D, ScalarField, _laplacian_values


@dataclass(frozen=True)
class WaveParams:
    """Wave speed (squared), substep size and propagation window."""

    c2: float
    dt: float
    tau: float

    def __post_init__(self):
        if not self.c2 > 0:
            raise ValidationError(f"c2 must be positive, got {self.c2}")
        if not 0 < self.dt <= self.tau:
            raise ValidationError(f"need 0 < dt <= tau, got dt={self.dt}, tau={self.tau}")


def cfl_number(c2: float, dt: float, grid: Grid2D) -> float:
    return np.sqrt(c2) * dt * np.sqrt(1.0 / grid.dx**2 + 1.0 / grid.dy**2)


def cfl_max_dt(c2: float, grid: Grid2D) -> float:
    """Largest stable substep for the leapfrog scheme on this grid."""
    if not c2 > 0:
        raise ValidationError(f"c2 must be positive, got {c2}")
    return 1.0 / (np.sqrt(c2) * np.sqrt(1.0 / grid.dx**2 + 1.0 / grid.dy**2))


def cfl_substep(c2: float, grid: Grid2D, tau: float, fraction: float) -> float:
    """Substep of `fraction` times the stability bound, capped at the window tau."""
    return min(fraction * cfl_max_dt(c2, grid), tau)


def check_cfl(params: WaveParams, grid: Grid2D) -> None:
    """Raise ValidationError unless params.dt is stable on grid (CFL <= 1)."""
    cfl = cfl_number(params.c2, params.dt, grid)
    if cfl > 1.0 + 1e-12:
        raise ValidationError(f"CFL violation: c*dt*sqrt(1/dx^2+1/dy^2) = {cfl:.6g} > 1")


def _check_finite(v: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(v)):
        raise NumericalError(f"non-finite field values at substep {step}")


def wave_solve(u0: ScalarField, ut0: ScalarField, params: WaveParams, energy_log=None) -> ScalarField:
    """Propagate (u0, ut0) over a window of length tau and return u(tau).

    energy_log, if given, is a path; a step,t,energy CSV row is appended for
    every stored substep pair (see discrete_energy).
    """
    grid = u0.grid
    if ut0.grid != grid:
        raise ValidationError("u0 and ut0 live on different grids")
    check_cfl(params, grid)

    c2, dt, tau = params.c2, params.dt, params.tau
    dx, dy = grid.dx, grid.dy
    n_full = int(np.floor(tau / dt + 1e-9))
    rem = tau - n_full * dt
    if rem < 1e-12 * tau:
        rem = 0.0

    log_fh = open(energy_log, "w", newline="") if energy_log is not None else None
    try:
        if log_fh is not None:
            log_fh.write("step,t,energy\n")

        u_prev = u0.values
        if n_full == 0:
            # window shorter than one substep: a single shortened starter step
            u_cur = u_prev + rem * ut0.values + (0.5 * rem * rem * c2) * _laplacian_values(
                u_prev, dx, dy
            )
            _check_finite(u_cur, 1)
            return ScalarField(grid, u_cur)

        u_cur = u_prev + dt * ut0.values + (0.5 * dt * dt * c2) * _laplacian_values(u_prev, dx, dy)
        _check_finite(u_cur, 1)
        if log_fh is not None:
            e = _energy_values(u_prev, u_cur, c2, dt, dx, dy)
            log_fh.write(f"1,{dt:.17g},{e:.17g}\n")

        coeff = c2 * dt * dt
        for k in range(2, n_full + 1):
            u_next = 2.0 * u_cur - u_prev + coeff * _laplacian_values(u_cur, dx, dy)
            _check_finite(u_next, k)
            u_prev, u_cur = u_cur, u_next
            if log_fh is not None:
                e = _energy_values(u_prev, u_cur, c2, dt, dx, dy)
                log_fh.write(f"{k},{k * dt:.17g},{e:.17g}\n")

        if rem > 0.0:
            # second-order velocity estimate at the current time, then reuse
            # the starter formula for the leftover fraction of a substep
            lap_cur = _laplacian_values(u_cur, dx, dy)
            vel = (u_cur - u_prev) / dt + (0.5 * dt * c2) * lap_cur
            u_final = u_cur + rem * vel + (0.5 * rem * rem * c2) * lap_cur
            _check_finite(u_final, n_full + 1)
            if log_fh is not None:
                e = _energy_values(u_cur, u_final, c2, rem, dx, dy)
                log_fh.write(f"{n_full + 1},{tau:.17g},{e:.17g}\n")
            u_cur = u_final

        return ScalarField(grid, u_cur)
    finally:
        if log_fh is not None:
            log_fh.close()


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _energy_values(u_prev, u_cur, c2, dt, dx, dy):
    """Discrete wave energy of a stored substep pair.

    Velocity term is the backward difference at nodes; the gradient term uses
    edge-centered differences of the time midpoint (u_prev + u_cur)/2, the
    natural companion of the 5-point Laplacian.  Node sums carry trapezoid
    weights (one half on boundary nodes, one quarter on corners) and edge
    sums carry the transverse half weight on boundary rows/columns; with
    these weights the gradient form pairs exactly with the mirror-ghost
    Laplacian, so the logged energy is flat up to O(dt^2) for eigenmodes
    instead of showing a spurious O(dx) boundary oscillation.
    """
    ny, nx = u_cur.shape
    wx = _trapezoid_weights(nx)
    wy = _trapezoid_weights(ny)
    vel = (u_cur - u_prev) / dt
    half = 0.5 * (u_prev + u_cur)
    gx = (half[:, 1:] - half[:, :-1]) / dx
    gy = (half[1:, :] - half[:-1, :]) / dy
    kinetic = float(np.sum((wy[:, None] * wx[None, :]) * vel * vel))
    grad = float(np.sum(wy[:, None] * gx * gx)) + float(np.sum(wx[None, :] * gy * gy))
    return 0.5 * dx * dy * (kinetic + c2 * grad)


def discrete_energy(u_prev: ScalarField, u_cur: ScalarField, params: WaveParams) -> float:
    """Energy 0.5 * sum[ ((u_cur-u_prev)/dt)^2 + c^2 |grad u_half|^2 ] dx dy."""
    grid = u_prev.grid
    if u_cur.grid != grid:
        raise ValidationError("fields live on different grids")
    return _energy_values(u_prev.values, u_cur.values, params.c2, params.dt, grid.dx, grid.dy)
