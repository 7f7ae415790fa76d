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

A solve allocates its work once: a (ny+2, nx+2) buffer for the mirror
ghost nodes and two (ny, nx) work arrays, shared by the starter, every
leapfrog substep, the shortened last substep and the energy log.  From the
third level on, a new level is written over the storage of the level two
back; the caller's u0 and ut0 are never written.  Every element is computed
by the same floating-point operations in the same order as the textbook
one-temporary-per-operation form, and every energy sum runs over a
contiguous array of the same shape, so numpy's pairwise summation blocks
alike: the fields and the logged energies are bit for bit those of that
form.
"""

from contextlib import nullcontext
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
    return dt / cfl_max_dt(c2, grid)


def cfl_max_dt(c2: float, grid: Grid2D) -> float:
    """Largest stable substep for the leapfrog scheme on this grid."""
    if not c2 > 0:
        raise ValidationError(f"c2 must be positive, got {c2}")
    # squared distances across the grid, which the redistance takes, must be
    # finite; dx is never longer than the diagonal
    w, h = grid.xmax - grid.xmin, grid.ymax - grid.ymin
    if not w * w + h * h < np.inf:
        raise ValidationError(f"the {grid.nx}x{grid.ny} grid is too wide: its squared diagonal is no finite double")
    if min(grid.dx, grid.dy) ** 2 < np.finfo(float).tiny:
        raise ValidationError(f"the {grid.nx}x{grid.ny} grid is too fine: 1/dx^2 is no finite double")
    return 1.0 / (np.sqrt(c2) * np.sqrt(1.0 / grid.dx**2 + 1.0 / grid.dy**2))


def cfl_substep(c2: float, grid: Grid2D, tau: float) -> float:
    """The substep of every flow step: half the stability bound, capped at
    the window tau."""
    return min(0.5 * cfl_max_dt(c2, grid), tau)


def substeps(tau: float, dt: float) -> tuple[int, float]:
    """The full substeps of length dt that wave_solve takes over a window
    tau, and the length of its shortened last substep (0 when there is
    none)."""
    n_full = int(np.floor(tau / dt + 1e-9))
    rem = tau - n_full * dt
    return n_full, (rem if rem >= 1e-12 * tau else 0.0)


def _check_finite(v: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(v)):
        raise NumericalError(f"non-finite field values at substep {step}")


def wave_solve(u0: ScalarField, ut0: ScalarField, params: WaveParams, energy_log=None) -> ScalarField:
    """Propagate (u0, ut0) over a window of length tau and return u(tau).

    energy_log, if given, is a path; a step,t,energy CSV row is appended for
    every stored substep pair (see _energy_values).
    """
    grid = u0.grid
    if ut0.grid != grid:
        raise ValidationError("u0 and ut0 live on different grids")
    cfl = cfl_number(params.c2, params.dt, grid)
    if cfl > 1.0 + 1e-12:
        raise ValidationError(
            f"CFL violation on the {grid.nx}x{grid.ny} grid: c*dt*sqrt(1/dx^2+1/dy^2) = {cfl:.6g} > 1"
        )

    # WaveParams keeps dt <= tau and the cap keeps it for any other params
    # object, so there is at least one full substep
    c2, tau, dt = params.c2, params.tau, min(params.dt, params.tau)
    dx, dy = grid.dx, grid.dy
    n_full, rem = substeps(tau, dt)

    # the buffers every Laplacian and energy evaluation of this solve works
    # in; local to the call, as a study solves on a thread pool
    ny, nx = grid.shape
    ghost = np.empty((ny + 2, nx + 2))
    work, lap = np.empty(grid.shape), np.empty(grid.shape)

    def spare(u):
        """u's storage for a new level once u is read for the last time,
        unless it is the caller's u0 (then None: a new array)."""
        return None if u is u0.values else u

    def starter(u, vel, h, dest):
        """u + h*vel + (0.5*h*h*c2)*lap into dest; vel may be work, and
        lap holds Lap(u) and is overwritten."""
        np.multiply(h, vel, out=work)
        np.add(u, work, out=work)
        np.multiply(0.5 * h * h * c2, lap, out=lap)
        return np.add(work, lap, out=dest)

    with open(energy_log, "w", newline="") if energy_log is not None else nullcontext() as log:
        if log is not None:
            log.write("step,t,energy\n")

        def stored(k, t, prev, new, h):
            """Check and log the pair (prev, new) that ends substep k at time t."""
            _check_finite(new, k)
            if log is not None:
                e = _energy_values(prev, new, c2, h, dx, dy, ghost, work, lap)
                log.write(f"{k},{t:.17g},{e:.17g}\n")
            return new

        u_prev = u0.values
        _laplacian_values(u_prev, dx, dy, ghost, work, lap)
        u_cur = stored(1, dt, u_prev, starter(u_prev, ut0.values, dt, None), dt)

        coeff = c2 * dt * dt
        for k in range(2, n_full + 1):
            # 2*u_cur - u_prev + coeff*Lap(u_cur), written over u_prev
            _laplacian_values(u_cur, dx, dy, ghost, work, lap)
            np.multiply(coeff, lap, out=lap)
            np.multiply(2.0, u_cur, out=work)
            np.subtract(work, u_prev, out=work)
            u_next = np.add(work, lap, out=spare(u_prev))
            u_prev, u_cur = u_cur, stored(k, k * dt, u_cur, u_next, dt)

        if rem > 0.0:
            # second-order velocity estimate at the current time, then the
            # starter formula for the leftover fraction of a substep
            _laplacian_values(u_cur, dx, dy, ghost, work, lap)
            vel = np.subtract(u_cur, u_prev, out=work)
            vel /= dt
            vel += np.multiply(0.5 * dt * c2, lap, out=_leading(ghost, grid.shape))
            u_cur = stored(n_full + 1, tau, u_cur, starter(u_cur, vel, rem, spare(u_prev)), rem)
    return ScalarField(grid, u_cur)


def _leading(buf: np.ndarray, shape) -> np.ndarray:
    """A contiguous array of the given shape on buf's first elements."""
    return buf.reshape(-1)[: shape[0] * shape[1]].reshape(shape)


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _weighted_square(f, out, rows, cols):
    """(w*f)*f into out, w the trapezoid weights of f's nodes: 1/2 on the
    first and last row if rows, on the first and last column if cols, and
    their product at the corners.  Inside, w is 1 and (w*f)*f is f*f bit
    for bit, so only the wall rows and columns are multiplied by w."""
    np.multiply(f, f, out=out)
    if rows:
        w = 0.5 * _trapezoid_weights(f.shape[1]) if cols else 0.5
        for i in (0, -1):
            np.multiply(w, f[i], out=out[i])
            out[i] *= f[i]
    if cols:
        w = 0.5 * _trapezoid_weights(f.shape[0]) if rows else 0.5
        for j in (0, -1):
            np.multiply(w, f[:, j], out=out[:, j])
            out[:, j] *= f[:, j]
    return out


def _energy_values(u_prev, u_cur, c2, dt, dx, dy, ghost=None, work=None, out=None):
    """Discrete wave energy of a stored substep pair.

    Velocity term is the backward difference at nodes; the gradient term uses
    edge-centered differences of the time midpoint (u_prev + u_cur)/2, the
    natural companion of the 5-point Laplacian.  Node sums carry trapezoid
    weights (one half on boundary nodes, one quarter on corners) and edge
    sums carry the transverse half weight on boundary rows/columns; with
    these weights the gradient form pairs exactly with the mirror-ghost
    Laplacian, so the logged energy is flat up to O(dt^2) for eigenmodes
    instead of showing a spurious O(dx) boundary oscillation.

    ghost, work and out, if given, are the buffers of _laplacian_values;
    the terms are computed in them (_weighted_square), and every sum runs
    over a contiguous array of the term's shape.
    """
    ny, nx = u_cur.shape
    if ghost is None:
        ghost, work, out = np.empty((ny + 2, nx + 2)), np.empty((ny, nx)), np.empty((ny, nx))
    vel = np.subtract(u_cur, u_prev, out=work)
    vel /= dt
    kinetic = float(np.sum(_weighted_square(vel, out, True, True)))
    half = np.add(u_prev, u_cur, out=_leading(ghost, (ny, nx)))
    np.multiply(0.5, half, out=half)
    gx = np.subtract(half[:, 1:], half[:, :-1], out=_leading(work, (ny, nx - 1)))
    gx /= dx
    grad_x = float(np.sum(_weighted_square(gx, _leading(out, (ny, nx - 1)), True, False)))
    gy = np.subtract(half[1:, :], half[:-1, :], out=_leading(work, (ny - 1, nx)))
    gy /= dy
    grad = grad_x + float(np.sum(_weighted_square(gy, _leading(out, (ny - 1, nx)), False, True)))
    return 0.5 * dx * dy * (kinetic + c2 * grad)
