"""Reference solutions used to validate the threshold-dynamics pipeline.

Three independent routes are provided:

* the closed-form shrinking-circle radius under curvature flow,
  r(t) = sqrt(r0^2 - 2*gamma*t) for gamma = 1;
* a Runge-Kutta integration of the damped circle equation
  alpha * r'' + beta * r' = -gamma / r  (outward radius, curvature 1/r);
* direct quadrature of the disk representation of the 2-D wave equation,

      u(t,x) = (1/(2 pi c t)) * integral over B(x, ct) of
               [u0(y) + grad u0(y).(y-x) - t v0(y)] / sqrt(c^2 t^2 - |y-x|^2) dy,

  evaluated after substituting y = x + c t sin(phi) (cos th, sin th), which
  cancels the boundary singularity exactly:

      u(t,x) = (1/(2 pi)) * int_0^{2pi} int_0^{pi/2}
               F(x + c t sin(phi) e(th)) sin(phi) dphi dth.
"""

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
    return float(np.sqrt(max(r0 * r0 - 2.0 * t, 0.0)))


def exact_mcf_series(r0: float, t_end: float, n_samples: int = 101) -> RadiusSeries:
    """exact_mcf_radius sampled on n_samples equispaced times in [0, t_end]."""
    if not 0 < t_end < math.inf or n_samples < 2:
        raise ValidationError("need a finite t_end > 0 and at least two samples")
    times = np.linspace(0.0, t_end, n_samples)
    radii = np.array([exact_mcf_radius(r0, t) for t in times])
    t_ext = 0.5 * r0 * r0
    return RadiusSeries(times, radii, t_ext if t_ext <= t_end else None)


def _rk4_run(alpha, beta, gamma, r0, rdot0, sample_times, n_sub):
    """Fixed-step RK4 over consecutive sample intervals.

    Returns (radii at completed sample times, extinction time or None).  The
    run halts at the first internal step whose end state has r <= 0; that
    time is located by linear interpolation of the bracketing states.
    """

    def deriv(r, v):
        return v, (-gamma / r - beta * v) / alpha

    radii = [r0]
    r, v = r0, rdot0
    for idx in range(len(sample_times) - 1):
        t0, t1 = sample_times[idx], sample_times[idx + 1]
        h = (t1 - t0) / n_sub
        for j in range(n_sub):
            k1r, k1v = deriv(r, v)
            k2r, k2v = deriv(r + 0.5 * h * k1r, v + 0.5 * h * k1v)
            k3r, k3v = deriv(r + 0.5 * h * k2r, v + 0.5 * h * k2v)
            k4r, k4v = deriv(r + h * k3r, v + h * k3v)
            rn = r + (h / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)
            vn = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            if not (math.isfinite(rn) and math.isfinite(vn)) or rn <= 0.0:
                t_here = t0 + j * h
                if math.isfinite(rn) and r > rn:
                    t_ext = t_here + h * r / (r - rn)
                else:
                    t_ext = t_here + h
                return np.array(radii), float(t_ext)
            r, v = rn, vn
        radii.append(r)
    return np.array(radii), None


def hmcf_circle_radius(
    p: PhysicalParams, r0: float, rdot0: float, t_end: float, dt: float
) -> RadiusSeries:
    """RK4 solution of alpha r'' + beta r' = -gamma / r, sampled every dt.

    The internal step is halved until two successive refinements agree to
    1e-8 in the max norm (or the step reaches a floor of 1e-7).  Returned
    samples lie on the requested dt lattice and end at t_end, or earlier if
    the radius reaches zero.
    """
    if p.alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {p.alpha}")
    if not (0 < r0 < math.inf and math.isfinite(rdot0)):
        raise ValidationError(f"need a finite r0 > 0 and a finite rdot0, got {r0}, {rdot0}")
    if not 0 < dt <= t_end < math.inf:
        raise ValidationError(f"need 0 < dt <= t_end < inf, got dt={dt}, t_end={t_end}")

    n = int(np.floor(t_end / dt + 1e-9))
    samples = [i * dt for i in range(n + 1)]
    if samples[-1] < t_end - 1e-12 * t_end:
        samples.append(t_end)
    samples = np.array(samples)

    n_sub = 1
    radii, t_ext = _rk4_run(p.alpha, p.beta, p.gamma, r0, rdot0, samples, n_sub)
    while dt / (2 * n_sub) >= 1e-7:
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
    return RadiusSeries(samples[: len(radii)], radii, t_ext)


def poisson_eval(u0_fn, grad_u0_fn, v0_fn, c: float, t: float, x, n_quad: int = 200) -> float:
    """Evaluate the disk representation of the wave solution at one point.

    u0_fn(y1, y2) and v0_fn(y1, y2) return initial value/velocity samples;
    grad_u0_fn(y1, y2) returns the pair (du0/dy1, du0/dy2).  Any of the three
    may be None, meaning identically zero.  All must accept numpy arrays.
    """
    if c <= 0 or t <= 0:
        raise ValidationError(f"need c > 0 and t > 0, got c={c}, t={t}")
    if n_quad < 2:
        raise ValidationError(f"n_quad must be at least 2, got {n_quad}")
    x1, x2 = float(x[0]), float(x[1])

    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    phi = 0.25 * np.pi * (nodes + 1.0)            # Gauss-Legendre on [0, pi/2]
    wphi = 0.25 * np.pi * weights
    theta = (np.arange(n_quad) + 0.5) * (2.0 * np.pi / n_quad)  # periodic midpoint

    rad = c * t * np.sin(phi)
    y1 = x1 + rad[:, None] * np.cos(theta)[None, :]
    y2 = x2 + rad[:, None] * np.sin(theta)[None, :]

    f = np.zeros_like(y1)
    if u0_fn is not None:
        f = f + u0_fn(y1, y2)
    if grad_u0_fn is not None:
        gx, gy = grad_u0_fn(y1, y2)
        f = f + gx * (y1 - x1) + gy * (y2 - x2)
    if v0_fn is not None:
        f = f - t * v0_fn(y1, y2)

    inner = np.sum(f, axis=1) / n_quad
    return float(np.sum(wphi * np.sin(phi) * inner))


def format_radius_csv(series: RadiusSeries) -> str:
    """A radius history as t,r CSV text."""
    return "t,r\n" + "".join(f"{t:.17g},{r:.17g}\n" for t, r in zip(series.times, series.radii))


def write_radius_csv(series: RadiusSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(format_radius_csv(series))
