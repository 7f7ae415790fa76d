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

A solve allocates its work once: one ghost buffer and two (ny, nx) work
arrays, shared by the starter, every leapfrog substep, the shortened last
substep and the energy log.  From the third level on, a new level is written
over the storage of the level two back; the caller's u0 and ut0 are never
written.

A grid of at least 2 * _STRIP_NODES nodes runs each substep on row strips
(_Strips), as many as HMCF_THREADS allows, on a thread pool of the solve's
own; a smaller grid is one strip, run inline.  The strips are all that
HMCF_THREADS caps: a convergence study runs its sizes one at a time.  A
strip writes only its own rows of the work arrays and of the new level, and
its own ghost block, carved from the one ghost buffer with a ghost row
above and below, so no strip writes where another reads.  The strips cover
the ghost fill, the Laplacian, the update and the finiteness check.  The
update runs with numpy's overflow and invalid-value warnings off, so a
blow-up is the check's NumericalError under any warning filter.  The energy log's terms
are formed on the strips in two phases: the weighted velocity squares (in
lap) and the time midpoint (in ghost); then, after the kinetic sum, the
weighted gradient squares (in work and lap).  No buffer beyond these is
grid-sized.

Every element is computed by the same floating-point operations in the same
order as the textbook one-temporary-per-operation form, and every energy
sum runs in the calling thread over a whole contiguous array of the same
shape, so numpy's pairwise summation blocks alike: the fields and the
logged energies are bit for bit those of that form, for any strip count.
"""

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NumericalError, ValidationError
from .fields import Grid2D, ScalarField, _laplacian_values

THREADS_ENV = "HMCF_THREADS"

# the fewest nodes of a strip: on a 2-vCPU Xeon guest two strips gained
# nothing at 257^2 (66,049) nodes and won at 385^2 (148,225), so a grid of
# fewer than 2^17 runs one
_STRIP_NODES = 1 << 16


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


def _worker_count(n_jobs: int) -> int:
    """The threads for n_jobs independent jobs: the HMCF_THREADS environment
    variable (0 or unset: the cpu count), and never more than n_jobs."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if raw:
        try:
            k = int(raw)
        except ValueError:
            raise ValidationError(f"{THREADS_ENV} must be an integer, got {raw!r}")
        if k < 0:
            raise ValidationError(f"{THREADS_ENV} must be nonnegative, got {k}")
        if k > 0:
            return min(k, n_jobs)
    return min(n_jobs, os.cpu_count() or 1)


class _Strips:
    """The row strips a solve's substeps run on.

    A grid of at least 2 * _STRIP_NODES nodes is cut into near-equal row
    ranges lo:hi, one for each of at most nodes // _STRIP_NODES threads
    (_worker_count); a smaller grid is one strip.  ghost is the solve's one
    ghost buffer, and strip s's block of hi - lo + 2 rows is carved from it
    at row lo + 2s.  run(fn) calls fn(lo, hi, block) for every strip and
    returns when all have returned: the first strip in the calling thread,
    the others on a pool of the solve's own threads, each in a copy of the
    caller's contextvars context, where np.errstate lives.  It raises the
    exception of the first strip that raised.
    """

    def __init__(self, ny: int, nx: int):
        n_jobs = min(ny * nx // _STRIP_NODES, ny)
        k = _worker_count(n_jobs) if n_jobs >= 2 else 1
        edges = [ny * s // k for s in range(k + 1)]
        self.ghost = np.empty((ny + 2 * k, nx + 2))
        self._jobs = [(lo, hi, self.ghost[lo + 2 * s:hi + 2 * s + 2]) for s, (lo, hi) in enumerate(zip(edges, edges[1:]))]
        self._pool = ThreadPoolExecutor(k - 1, thread_name_prefix="hmbo-strip") if k > 1 else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()

    def run(self, fn) -> None:
        first, *rest = self._jobs
        if self._pool is None:
            return fn(*first)
        futures = [self._pool.submit(contextvars.copy_context().run, fn, *job) for job in rest]
        try:
            fn(*first)
        finally:
            wait(futures)
        for f in futures:
            f.result()


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
    # in; local to the call, so solves in different threads share none
    ny, nx = grid.shape
    work, lap = np.empty(grid.shape), np.empty(grid.shape)
    u0v, ut0v = u0.values, ut0.values

    coeff = c2 * dt * dt

    def new_level(u):
        """u's storage for a new level once u is read for the last time,
        unless it is the caller's u0 (then a new array)."""
        return np.empty(grid.shape) if u is u0v else u

    def starter(u, vel, h, l, w, dest):
        """u + h*vel + (0.5*h*h*c2)*l into dest, in w; vel may be w, and
        l, which holds Lap(u), is overwritten."""
        np.multiply(h, vel, out=w)
        np.add(u, w, out=w)
        np.multiply(0.5 * h * h * c2, l, out=l)
        np.add(w, l, out=dest)

    def first(dest, s, l, block):
        starter(u0v[s], ut0v[s], dt, l, work[s], dest[s])

    def leapfrog(u_prev, u_cur, dest, s, l, block):
        # 2*u_cur - u_prev + coeff*Lap(u_cur)
        np.multiply(coeff, l, out=l)
        w = np.multiply(2.0, u_cur[s], out=work[s])
        np.subtract(w, u_prev[s], out=w)
        np.add(w, l, out=dest[s])

    def last(u_prev, u_cur, dest, s, l, block):
        # second-order velocity estimate at the current time, then the
        # starter formula for the leftover fraction of a substep
        vel = np.subtract(u_cur[s], u_prev[s], out=work[s])
        vel /= dt
        vel += np.multiply(0.5 * dt * c2, l, out=_leading(block, l.shape))
        starter(u_cur[s], vel, rem, l, vel, dest[s])

    with _Strips(ny, nx) as strips, open(energy_log, "w", newline="") if energy_log is not None else nullcontext() as log:
        if log is not None:
            log.write("step,t,energy\n")

        def substep(k, t, h, u, dest, update):
            """Substep k, of length h to time t, from the level u: on each
            strip, Lap(u)'s rows and then update(rows, Lap rows, block), which
            writes dest's rows, checked finite.  The pair (u, dest) is
            logged."""
            def strip(lo, hi, block):
                s = slice(lo, hi)
                with np.errstate(over="ignore", invalid="ignore"):
                    update(s, _laplacian_values(u, dx, dy, block, work[s], lap[s], lo, hi), block)
                _check_finite(dest[s], k)

            strips.run(strip)
            if log is not None:
                e = _energy_values(u, dest, c2, h, dx, dy, strips.ghost, work, lap, strips.run)
                log.write(f"{k},{t:.17g},{e:.17g}\n")
            return dest

        dest = np.empty(grid.shape)
        u_prev, u_cur = u0v, substep(1, dt, dt, u0v, dest, partial(first, dest))
        for k in range(2, n_full + 1):
            dest = new_level(u_prev)
            u_prev, u_cur = u_cur, substep(k, k * dt, dt, u_cur, dest, partial(leapfrog, u_prev, u_cur, dest))
        if rem > 0.0:
            dest = new_level(u_prev)
            u_cur = substep(n_full + 1, tau, rem, u_cur, dest, partial(last, u_prev, u_cur, dest))
    return ScalarField(grid, u_cur)


def _leading(buf: np.ndarray, shape) -> np.ndarray:
    """A contiguous array of the given shape on buf's first elements."""
    return buf.reshape(-1)[: shape[0] * shape[1]].reshape(shape)


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _weighted_square(f, rows, cols, lo=0, hi=None):
    """(w*f)*f in place on f's rows lo:hi, w the trapezoid weights of f's
    nodes: 1/2 on the first and last row if rows, on the first and last
    column if cols, and their product at the corners.  Inside, w is 1 and
    (w*f)*f is f*f bit for bit, so only the wall rows and columns are
    multiplied by w, into row- and column-sized arrays formed before f is
    squared."""
    m, n = f.shape
    hi = m if hi is None else hi
    g = f[lo:hi]
    walls = []
    if rows:
        w = 0.5 * _trapezoid_weights(n) if cols else 0.5
        walls += [(i - lo, (w * f[i]) * f[i]) for i in {0, m - 1} if lo <= i < hi]
    if cols:
        w = 0.5 * _trapezoid_weights(m)[lo:hi] if rows else 0.5
        walls += [((slice(None), j), (w * g[:, j]) * g[:, j]) for j in (0, -1)]
    np.multiply(g, g, out=g)
    for at, v in walls:
        g[at] = v


def _energy_values(u_prev, u_cur, c2, dt, dx, dy, ghost=None, work=None, out=None, run=None):
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
    over a whole contiguous array of the term's shape.  run, if given, is a
    solve's _Strips.run: the terms are then formed strip by strip, in two
    phases, and the sums are taken in the calling thread.
    """
    ny, nx = u_cur.shape
    if ghost is None:
        ghost, work, out = np.empty((ny + 2, nx + 2)), np.empty((ny, nx)), np.empty((ny, nx))
    half = _leading(ghost, (ny, nx))
    gx, gy = _leading(work, (ny, nx - 1)), _leading(out, (ny - 1, nx))

    def velocity(lo, hi, block=None):
        vel = np.subtract(u_cur[lo:hi], u_prev[lo:hi], out=out[lo:hi])
        vel /= dt
        _weighted_square(out, True, True, lo, hi)
        h = np.add(u_prev[lo:hi], u_cur[lo:hi], out=half[lo:hi])
        np.multiply(0.5, h, out=h)

    def gradient(lo, hi, block=None):
        d = np.subtract(half[lo:hi, 1:], half[lo:hi, :-1], out=gx[lo:hi])
        d /= dx
        _weighted_square(gx, True, False, lo, hi)
        hi = min(hi, ny - 1)
        d = np.subtract(half[lo + 1:hi + 1], half[lo:hi], out=gy[lo:hi])
        d /= dy
        _weighted_square(gy, False, True, lo, hi)

    run = run or (lambda fn: fn(0, ny))
    run(velocity)
    kinetic = float(np.sum(out))
    run(gradient)
    grad = float(np.sum(gx)) + float(np.sum(gy))
    return 0.5 * dx * dy * (kinetic + c2 * grad)
