"""Reference solutions used to validate the threshold-dynamics pipeline.

Three independent routes are provided:

* the closed-form shrinking-circle radius under curvature flow with
  mobility gamma, r(t) = sqrt(r0^2 - 2*gamma*t);
* a Runge-Kutta integration of the damped circle equation
  alpha * r'' + beta * r' = -gamma / r  (outward radius, curvature 1/r);
* direct quadrature of the disk representation of the 2-D wave equation,

      u(t,x) = (1/(2 pi c t)) * integral over B(x, ct) of
               [u0(y) + grad u0(y).(y-x) + t ut0(y)] / sqrt(c^2 t^2 - |y-x|^2) dy,

  with ut0 the initial velocity u_t(0), evaluated after substituting
  y = x + c t sin(phi) (cos th, sin th), which cancels the boundary
  singularity exactly:

      u(t,x) = (1/(2 pi)) * int_0^{2pi} int_0^{pi/2}
               F(x + c t sin(phi) e(th)) sin(phi) dphi dth.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .flow import PhysicalParams


@dataclass
class RadiusSeries:
    """Sampled radius history; extinction_time is None if r stayed positive."""

    times: np.ndarray
    radii: np.ndarray
    extinction_time: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.radii = np.asarray(self.radii, dtype=float)
        if self.times.shape != self.radii.shape:
            raise ValidationError("times and radii must have equal length")


def exact_mcf_radius(r0: float, t: float) -> float:
    """Radius of a circle under unit-mobility curvature flow, clamped at 0."""
    if not 0 < r0 < math.inf:
        raise ValidationError(f"r0 must be positive and finite, got {r0}")
    if not 0 < r0 * r0 < math.inf:
        raise ValidationError(f"r0^2 must be a positive finite double, got r0^2 = {r0 * r0} for r0 = {r0}")
    return float(np.sqrt(max(r0 * r0 - 2.0 * t, 0.0)))


def exact_mcf_series(r0: float, t_end: float, n_samples: int = 101, gamma: float = 1.0) -> RadiusSeries:
    """The circle's radius under curvature flow with mobility gamma,
    exact_mcf_radius(r0, gamma*t), sampled on n_samples equispaced times in
    [0, t_end]; it goes extinct at r0^2/(2*gamma)."""
    if not 0 < t_end < math.inf or n_samples < 2:
        raise ValidationError("need a finite t_end > 0 and at least two samples")
    if not 0 < gamma < math.inf:
        raise ValidationError(f"gamma must be positive and finite, got {gamma}")
    times = np.linspace(0.0, t_end, n_samples)
    radii = np.array([exact_mcf_radius(r0, gamma * t) for t in times])
    t_ext = 0.5 * r0 * r0 / gamma
    if not t_ext > 0:  # underflowed: the circle would vanish at t = 0 with a positive radius
        raise ValidationError(f"the extinction time 0.5*r0^2/gamma = {t_ext} is no positive double "
                              f"for r0 = {r0}, gamma = {gamma}")
    return RadiusSeries(times, radii, t_ext if t_ext <= t_end else None)


# the smallest internal step the refinement takes
_RK4_FLOOR = 1e-7
# the smallest positive double, the last bracket of an extinction at t = 0
_TINY = math.ulp(0.0)


def rk4_substeps(p: PhysicalParams, dt: float) -> int:
    """Internal steps per sample interval dt that hmcf_circle_radius starts
    its refinement from: the fewest, a power of two, whose step dt/n_sub is
    at most the relaxation time alpha/beta of r'.  RK4 is unstable on a
    step h with h*beta/alpha past about 2.8, and its refinements can then
    agree on an early blow-up.

    Needs alpha > 0 and a finite dt > 0, and raises ValidationError when
    that step is below the refinement's floor of 1e-7.
    """
    n_sub = 1
    while p.beta > 0 and dt / n_sub > p.alpha / p.beta:
        n_sub *= 2
        if dt / n_sub < _RK4_FLOOR:
            raise ValidationError(
                f"the RK4 reference needs a step of at most alpha/beta = {p.alpha / p.beta:.3g}, "
                f"below its floor of {_RK4_FLOOR:g} at a sample spacing of {dt:.3g}"
            )
    return n_sub


def _rk4_run(alpha, beta, gamma, r0, rdot0, sample_times, n_sub):
    """Fixed-step RK4 on Python floats over consecutive sample intervals.

    Returns (radii at completed sample times, extinction time or None).  A
    step crosses zero when a stage radius r2, r3 or r4, or its end radius,
    is no positive finite double, or its end speed is not finite.  Each
    stage radius is tested before anything divides by it, so no division
    by zero arises.  The run halts at the first step that crosses and
    locates the extinction inside it by bisection (_extinction_time), so
    that time converges at RK4's order.
    """
    alpha, beta, neg_gamma = float(alpha), float(beta), -float(gamma)

    def step(r, v, h):
        """The state (r, v) one step h on, with r = nan where a stage
        radius is no positive finite double.  Each stage derivative is
        (v, (-gamma/r - beta*v)/alpha)."""
        hh = 0.5 * h
        k1v = (neg_gamma / r - beta * v) / alpha
        r2, k2r = r + hh * v, v + hh * k1v
        if not 0.0 < r2 < math.inf:
            return math.nan, math.nan
        k2v = (neg_gamma / r2 - beta * k2r) / alpha
        r3, k3r = r + hh * k2r, v + hh * k2v
        if not 0.0 < r3 < math.inf:
            return math.nan, math.nan
        k3v = (neg_gamma / r3 - beta * k3r) / alpha
        r4, k4r = r + h * k3r, v + h * k3v
        if not 0.0 < r4 < math.inf:
            return math.nan, math.nan
        k4v = (neg_gamma / r4 - beta * k4r) / alpha
        h6 = h / 6.0
        return r + h6 * (v + 2 * k2r + 2 * k3r + k4r), v + h6 * (k1v + 2 * k2v + 2 * k3v + k4v)

    times = [float(t) for t in sample_times]
    radii = [r0]
    r, v = float(r0), float(rdot0)
    for t0, t1 in zip(times[:-1], times[1:]):
        h = (t1 - t0) / n_sub
        for j in range(n_sub):
            rn, vn = step(r, v, h)
            if not (0.0 < rn < math.inf and math.isfinite(vn)):
                return np.array(radii), _extinction_time(step, r, v, t0 + j * h, h)
            r, v = rn, vn
        radii.append(r)
    return np.array(radii), None


def _extinction_time(step, r, v, t, h):
    """Where the radius reaches zero in the step h from the state (r, v) at
    time t, a step that crosses zero (_rk4_run).

    The step is halved, and its first half taken whenever that half does
    not cross, until the bracket cannot shrink in doubles (t + h/2 == t or
    h/2 == 0).  The time is then read by linear interpolation of the radius
    across the last bracket, or is its end where that step's end radius is
    not finite.  It lies in [t, t + h] of the first bracket.
    """
    while True:
        half = 0.5 * h
        if half == 0.0 or t + half == t:
            break
        rn, vn = step(r, v, half)
        if 0.0 < rn < math.inf and math.isfinite(vn):
            r, v, t = rn, vn, t + half
        h = half
    rn, _ = step(r, v, h)
    return t + h * (r / (r - rn) if -math.inf < rn <= 0.0 else 1.0)


def hmcf_circle_radius(
    p: PhysicalParams, r0: float, rdot0: float, t_end: float, dt: float
) -> RadiusSeries:
    """RK4 solution of alpha r'' + beta r' = -gamma / r, sampled every dt.

    The internal step starts at dt/rk4_substeps(p, dt), no longer than
    alpha/beta, and is halved until two successive refinements agree to
    1e-8 in the max norm (or the step reaches a floor of 1e-7).  Returned
    samples lie on the requested dt lattice and end at t_end, or earlier if
    the radius reaches zero.  The extinction time is bisected inside the
    first step that crosses zero (_rk4_run), so it converges at RK4's
    order and resolves a circle far smaller than the internal step; one at
    or below the smallest positive double, 5e-324, is rejected.
    """
    if p.alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {p.alpha}")
    if not (0 < r0 < math.inf and math.isfinite(rdot0)):
        raise ValidationError(f"need a finite r0 > 0 and a finite rdot0, got {r0}, {rdot0}")
    if not 0 < dt <= t_end < math.inf:
        raise ValidationError(f"need 0 < dt <= t_end < inf, got dt={dt}, t_end={t_end}")
    n_sub = rk4_substeps(p, dt)

    n = int(np.floor(t_end / dt + 1e-9))
    samples = np.arange(n + 1) * dt  # an oversized lattice fails here, allocated at once
    if samples[-1] < t_end - 1e-12 * t_end:
        samples = np.append(samples, t_end)

    radii, t_ext = _rk4_run(p.alpha, p.beta, p.gamma, r0, rdot0, samples, n_sub)
    while dt / (2 * n_sub) >= _RK4_FLOOR:
        n_sub *= 2
        radii2, t_ext2 = _rk4_run(p.alpha, p.beta, p.gamma, r0, rdot0, samples, n_sub)
        m = min(len(radii), len(radii2))
        diff = float(np.max(np.abs(radii[:m] - radii2[:m]))) if m else 0.0
        if t_ext is not None and t_ext2 is not None:
            diff = max(diff, abs(t_ext - t_ext2))
        elif (t_ext is None) != (t_ext2 is None):
            diff = np.inf
        radii, t_ext = radii2, t_ext2
        if diff < 1e-8:
            break
    if t_ext is not None and t_ext <= _TINY:
        # even a step of 5e-324 from r0 crosses zero: the time cannot be
        # told from 0
        raise ValidationError(f"the RK4 reference's extinction time underflows: it is at most {_TINY:.3g} "
                              f"for r0 = {r0}, gamma = {p.gamma}, alpha = {p.alpha}")
    return RadiusSeries(samples[: len(radii)], radii, t_ext)


@functools.lru_cache(maxsize=8)
def _disk_nodes(n_quad: int) -> tuple[np.ndarray, ...]:
    """poisson_eval's n_quad x n_quad product rule, built once per n_quad as
    read-only arrays: sin(phi) and w_phi*sin(phi) for Gauss-Legendre on
    [0, pi/2] in phi, cos and sin of the periodic midpoint rule in theta."""
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    phi = 0.25 * np.pi * (nodes + 1.0)
    wphi = 0.25 * np.pi * weights
    sin_phi = np.sin(phi)
    theta = (np.arange(n_quad) + 0.5) * (2.0 * np.pi / n_quad)
    arrays = (sin_phi, wphi * sin_phi, np.cos(theta), np.sin(theta))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def poisson_eval(u0_fn, grad_u0_fn, ut0_fn, c: float, t: float, x, n_quad: int = 200) -> float:
    """Evaluate the disk representation of the wave solution at one point.

    u0_fn(y1, y2) and ut0_fn(y1, y2) return samples of the initial value
    u(0) and the initial velocity u_t(0), as wave.wave_solve takes them;
    grad_u0_fn(y1, y2) returns the pair (du0/dy1, du0/dy2).  Any of the three
    may be None, meaning identically zero.  All must accept numpy arrays.
    """
    if c <= 0 or t <= 0:
        raise ValidationError(f"need c > 0 and t > 0, got c={c}, t={t}")
    if n_quad < 2:
        raise ValidationError(f"n_quad must be at least 2, got {n_quad}")
    x1, x2 = float(x[0]), float(x[1])

    sin_phi, wsin_phi, cos_th, sin_th = _disk_nodes(n_quad)
    rad = c * t * sin_phi
    y1 = x1 + rad[:, None] * cos_th[None, :]
    y2 = x2 + rad[:, None] * sin_th[None, :]

    f = np.zeros_like(y1)
    if u0_fn is not None:
        f = f + u0_fn(y1, y2)
    if grad_u0_fn is not None:
        gx, gy = grad_u0_fn(y1, y2)
        f = f + gx * (y1 - x1) + gy * (y2 - x2)
    if ut0_fn is not None:
        f = f + t * ut0_fn(y1, y2)

    inner = np.sum(f, axis=1) / n_quad
    return float(np.sum(wsin_phi * inner))


def format_radius_csv(series: RadiusSeries) -> str:
    """A radius history as t,r CSV text."""
    return "t,r\n" + "".join(f"{t:.17g},{r:.17g}\n" for t, r in zip(series.times, series.radii))


def write_radius_csv(series: RadiusSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(format_radius_csv(series))
