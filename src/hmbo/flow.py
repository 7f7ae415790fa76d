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

A step redistances only the band the next step reads: the tiles of
hmbo.interfaces' scan whose centre lies within W + r of the new interface
(r the tile's half-diagonal), where W = (k + 1) h plus the larger of the
3*sqrt(2) h that the cubic and curvature stencils reach from a crossed
cell and the distance at which the step's sign bound is expected to hold
(_band), with k the substeps of a step and h the larger spacing.  The
other nodes hold provisional values of the right sign, which the next
step uses only under a certificate it checks on every step; a step that
fails it completes both fields and runs again.  Such a step solves the
wave only on a box: the nodes R whose k-neighbourhood is exact in both
fields, their bounding box grown by k nodes and clipped to the walls.
u(tau) is that solve on R and takes d_n's sign bits everywhere else,
which the certificate proves are the exhaustive step's.  The field a step
returns completes its provisional tiles when its values are first read, so
callers see the exhaustive field bit for bit, and run_flow, which reads
only the curves, never pays for those tiles.  The band, its certificate
and the proof are in the hmbo_step docstring.  A step redistances with
reach W whenever it has a band and d_n is a BandField, of either
reconstruction.  Every other redistance (init_history, a step with no band,
or a step from a field that is not a BandField) has reach inf: its field is
complete at construction.  A step has no band only where the band's
stencils' box of (2k + 3)^2 nodes would hold more nodes than the grid
(_band); a band as wide as the grid's diagonal is a band of every tile,
whose fields are complete at construction too.
"""

import functools
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .fields import Grid2D, ScalarField, _sub_grid
from .interfaces import (
    BandField,
    InterfaceCurve,
    _midpoint_cells,
    average_radius,
    extract_zero_set,
    has_interface,
    signed_distance,
)
from .wave import WaveParams, cfl_substep, substeps, wave_solve
# the same solver under a second name, bound here once: the band's stencils
# (_band) are no step's propagation, so a tracer or a test that replaces
# wave_solve, the name the step calls, does not see them
from .wave import wave_solve as _stencil_solve

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


@contextmanager
def _stage(name: str):
    """Prefix a NumericalError raised inside with name."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class _Band:
    """A step's band (see hmbo_step): the substeps k, the band width, and
    the stencil sums, a + b*tau and rounding factor that its certificate's
    bound (C2) reads."""

    k: int
    width: float
    s0: float  # sum over q != 0 of |P_q|
    s1: float  # sum over q != 0 of |P_q| |q|
    a_u0: float  # a times the sum of |S_q|
    mass: float  # a + b*tau, rounded down
    rho: float  # the rounding bound rho of hmbo_step per unit of max|D|

    def bound(self, gap: float, h_max: float, d_max: float) -> float:
        """B of hmbo_step's (C2), sum |P_q| (|q| + G) + a sum |S_q| H_max +
        rho max|D|, with G = gap and max|D| = d_max, summed in that order.
        With a = 0 the H term must add nothing: pass h_max = 0 (0 times an
        inf gap is nan)."""
        return self.s1 + self.s0 * gap + self.a_u0 * h_max + self.rho * d_max

    @staticmethod
    def rounding(k: int) -> float:
        """rho of a step of k substeps, per unit of 3a + b*tau: the
        polynomial 2^-40 (k + 1)^3 (2k + 1) that hmbo_step derives, finite
        for every k up to MAX_SUBSTEPS."""
        return 2.0**-40 * (k + 1) ** 3 * (2 * k + 1)


@functools.lru_cache(maxsize=16)
def _band(cfg: HmboConfig) -> _Band | None:
    """The band of cfg's step, or None where the stencils' box of
    (2k + 3)^2 nodes holds more nodes than the grid, so that the two
    one-time stencil solves never cost more than two whole-grid
    propagations, nor take more memory than the grid.  A band whose width
    W reaches the grid's diagonal is a band of every tile: every tile's
    centre lies within the diagonal of the chords, so signed_distance with
    reach W fills every tile at construction, as reach inf does.
    rho = 2^-40 (k + 1)^3 (2k + 1) (3a + b*tau) (_Band.rounding) is a
    polynomial in k, from the leapfrog's Chebyshev form (hmbo_step): an
    error injected at one level reaches level k through U_m, whose kernel
    has l1 norm at most (sqrt(2) m + 1)(m + 1), and every level is at most
    (sqrt(2) k + 1)(3a + b*tau) max|D|.  So the default mcf study has a
    band at every size: 0.624 wide at N = 128 (k = 13) and 0.578 (36.9 h)
    at N = 256 (k = 26), and the damped step at N = 256 one of 0.921 at
    alpha = 1e-3 (k = 27) and 1.942 at alpha = 1e-4 (k = 85).  On a square
    grid the box gives out first, at k > (N - 3)/2.

    The stencils S (of u0) and T (of ut0) are the step's response to a unit
    impulse, propagated by wave_solve itself on a box of 2k + 3 nodes a
    side, whose walls it does not reach, and P = a S + b T.  The width is
    k + 1 nodes plus the larger of the stencils' 3*sqrt(2) nodes and the
    least |D_n| that the certificate's bound C2 asks for: _Band.bound, the
    one copy of B that _certified checks too, divided by a + b*tau and
    evaluated with guessed gaps G = 2h and H_max = 3h (h the larger
    spacing) and max|D| at the diagonal: the interface may move by one
    node, the bound's terms are in the hmbo_step docstring.
    """
    g = cfg.grid
    n_full, rem = substeps(cfg.tau, cfg.dt)
    k = n_full + int(rem > 0.0)
    h, diag = max(g.dx, g.dy), float(np.hypot(g.xmax - g.xmin, g.ymax - g.ymin))
    mass = cfg.a + cfg.b * cfg.tau
    rho = _Band.rounding(k) * (3.0 * cfg.a + cfg.b * cfg.tau)
    m = 2 * k + 3
    if m * m > g.nx * g.ny:
        return None
    box = Grid2D(m, m, 0.0, (m - 1) * g.dx, 0.0, (m - 1) * g.dy)
    one, zero = ScalarField(box, np.pad([[1.0]], k + 1)), ScalarField(box, np.zeros((m, m)))
    s = _stencil_solve(one, zero, cfg.wave_params()).values
    t = _stencil_solve(zero, one, cfg.wave_params()).values
    w = np.abs(cfg.a * s + cfg.b * t)
    w[k + 1, k + 1] = 0.0
    off = np.arange(m) - (k + 1)
    # the stencils are computed in floating point: widen their sums
    reach = np.hypot(off * g.dx, off[:, None] * g.dy)
    s0, s1, n_u0 = ((1.0 + 2.0**-30) * float(np.sum(v)) for v in (w, w * reach, np.abs(s)))
    band = _Band(k, np.inf, s0, s1, cfg.a * n_u0, mass * (1.0 - 1e-9), rho)
    return replace(band, width=(k + 1) * h + max(3.0 * np.sqrt(2.0) * h, band.bound(2.0 * h, 3.0 * h, diag) / mass))


def _dilate(mask: np.ndarray, k: int, box: bool = False) -> np.ndarray:
    """The nodes within k grid steps of mask: along the axes (Manhattan
    distance), or with box=True in the (2k + 1)^2 square around each."""
    out = mask.copy()
    for _ in range(k):
        grow = out.copy()
        grow[1:] |= out[:-1]
        grow[:-1] |= out[1:]
        if box:
            out = grow.copy()
        grow[:, 1:] |= out[:, :-1]
        grow[:, :-1] |= out[:, 1:]
        out = grow
    return out


def _known(d: ScalarField) -> np.ndarray:
    """d's values, without completing a BandField's provisional tiles."""
    return d.provisional if isinstance(d, BandField) else d.values


def _exact(d: ScalarField) -> np.ndarray | bool:
    return d.exact if isinstance(d, BandField) else True


def _curve_gap(a: BandField, b: BandField) -> float:
    """H of hmbo_step's (C2) one way: an upper bound on the distance from
    any point of a's chords to b's chords, read from b's exact nodes, or
    inf where one of them is not exact.

    Take a chord of a and a corner e of the cell that its midpoint is read
    in (fields._bilinear_cells).  The distance c_b to b's chords is
    1-Lipschitz and c_b(e) <= |D_b(e)| + b.below, so at any point y of the
    chord c_b(y) <= |D_b(e)| + b.below + |y - e|, and |y - e| is convex
    along the chord, so its larger value at the chord's two ends bounds it.
    The bound is the least over the cell's four corners, and the gap the
    largest over a's chords.
    """
    sa, sb = a.curve.segment_points()
    j, i, _, _ = _midpoint_cells(a.grid, sa, sb)
    corners = j * a.grid.nx + i  # flat indices: take beats a 2-d gather
    if not b.exact.take(corners).all():
        return np.inf
    ex, ey = a.grid.x_coords()[i], a.grid.y_coords()[j]
    ends = np.maximum(np.hypot(sa[:, 0] - ex, sa[:, 1] - ey), np.hypot(sb[:, 0] - ex, sb[:, 1] - ey))
    return float(np.max(np.min(np.abs(b.provisional.take(corners)) + ends, axis=0))) + b.below


def _certified(d_n: ScalarField, d_nm1: ScalarField, u_tau: ScalarField, cfg: HmboConfig, band: _Band,
               exact: np.ndarray) -> bool:
    """The certificate, (C1) and (C2) of hmbo_step, for a step from fields
    that hold provisional values, with exact the set R of _reach, and
    u_tau the step's u(tau), which takes d_n's sign bits outside R.  C2
    measures the gaps G and H_max and max|D| and checks (a + b*tau)
    min|D_n| > B by _Band.bound, which sized the band with guessed gaps.
    With a = 0 the bound reads nothing of d_nm1 but its exact nodes: no
    curve gap H (H_max = 0, which a = 0 scales to nothing), no
    magnitude."""
    stale = ~exact
    neg = np.signbit(u_tau.values)
    cell = (neg[:-1, :-1] != neg[:-1, 1:]) | (neg[:-1, :-1] != neg[1:, :-1]) | (neg[:-1, :-1] != neg[1:, 1:])
    corners = np.zeros(neg.shape, dtype=bool)
    for sj in (slice(None, -1), slice(1, None)):
        for si in (slice(None, -1), slice(1, None)):
            corners[sj, si] |= cell
    if (_dilate(corners, 2, box=True) & stale).any():  # C1
        return False
    a = cfg.a
    fields = (d_n, d_nm1) if a > 0 else (d_n,)
    if not all(isinstance(d, BandField) for d in fields):
        return False
    # C2: the least |D_n| at a stale node against the bound B
    h_max = 0.0
    if a > 0:
        h_gap = max(_curve_gap(d_n, d_nm1), _curve_gap(d_nm1, d_n)) + d_n.slack + d_nm1.slack
        h_max = h_gap + max(d_n.above + d_nm1.below, d_n.below + d_nm1.above)
    d_max = max(float(np.max(np.abs(_known(d)))) + d.spread + d.above for d in fields)
    v = np.abs(_known(d_n))
    lo = np.min(np.where(d_n.exact, v, v - d_n.spread - d_n.below), where=stale, initial=np.inf)
    return bool(band.mass * lo > band.bound(d_n.above + d_n.below, h_max, d_max))


def _reach(d_n: ScalarField, d_nm1: ScalarField, k: int) -> np.ndarray:
    """R of hmbo_step: the nodes whose k-neighbourhood along the axes is
    exact in both fields."""
    return ~_dilate(~(_exact(d_n) & _exact(d_nm1)), k)


def _propagate(d_n: ScalarField, d_nm1: ScalarField, cfg: HmboConfig,
               exact: np.ndarray, k: int) -> tuple[ScalarField, InterfaceCurve]:
    """u(tau) from (d_n, d_nm1) as they are held, and its zero set: with
    exact the nonempty set R of a step of k substeps (_reach), the wave is
    solved only on the box of hmbo_step, and u(tau) is that solve on R and
    d_n elsewhere.  The exhaustive step passes every node and k = 0, whose
    box is the whole grid."""
    v_n, v_nm1 = _known(d_n), _known(d_nm1)
    j, i = (np.flatnonzero(exact.any(axis=axis)) for axis in (1, 0))
    box = np.s_[max(j[0] - k, 0):j[-1] + k + 1, max(i[0] - k, 0):i[-1] + k + 1]
    g = _sub_grid(cfg.grid, *box)
    with _stage("propagate"):
        u_tau = wave_solve(ScalarField(g, cfg.a * (2.0 * v_n[box] - v_nm1[box])), ScalarField(g, cfg.b * v_n[box]),
                           cfg.wave_params())
    u = v_n.copy()
    np.copyto(u[box], u_tau.values, where=exact[box])
    u_tau = ScalarField(cfg.grid, u)
    with _stage("extract"):
        return u_tau, extract_zero_set(u_tau, curved=CURVED[cfg.mode])


def hmbo_step(d_n: ScalarField, d_nm1: ScalarField,
              cfg: HmboConfig) -> tuple[ScalarField, InterfaceCurve] | None:
    """One threshold-dynamics step of length tau from the current field d_n
    and the previous one d_nm1, both on cfg.grid.

    Its three stages: propagate the wave data u0 = a*(2*d_n - d_nm1),
    ut0 = b*d_n over tau (wave_solve), extract the zero set of u(tau), and
    redistance from it.  Returns (d_new, curve), the new distance field (a
    BandField of hmbo.interfaces) and the interface it was rebuilt from, or
    None when the extracted interface is empty, which on a grid is exactly
    when u(tau) has one sign: the interface is extinct.  In mcf a = 0, so
    d_nm1 does not change the step.  A NumericalError names its stage:
    propagate, extract or redistance.

    The step's band.  Its d_new is exact on the tiles within W of
    the interface and provisional elsewhere until its values are read;
    run_flow never reads them.  So the step returns the bits of the
    exhaustive step, the one that redistances every node, and whose fields
    D_n, D_nm1 it is given, as long as every provisional value that reaches
    u(tau) is certified.  W is _band's width, derived from the config.
    The step takes k substeps, and a substep's 5-point Laplacian reads one
    node along each axis, so u(tau) at a node p reads the inputs only
    within k steps along the axes of p (a mirror ghost node is a node that
    close).  Let R be the nodes whose whole such neighbourhood is exact in
    both d_n and d_nm1 (_reach); there u(tau) is the exhaustive step's
    U(tau) bit for bit.  A step from fields that hold provisional values
    computes R before it propagates, and solves the wave only on the box
    B: R's bounding box grown by k nodes and clipped to the walls.  A side
    of B that is no wall lies at least k nodes from every node of R, and
    the wrong mirror ghost nodes past it reach one node further inside on
    each substep, so they reach no node of R; the box grid keeps the
    grid's dx and dy bit for bit (fields._sub_grid), and on R the box solve
    is the whole grid's.  u(tau) is the box solve on R, and d_n's values,
    with their sign bits, everywhere else.  It checks, on every step:

    * (C1) the corners of every cell whose corners differ in sign bit,
      dilated by 2 nodes in each direction, lie in R.  Extraction reads
      sign bits everywhere, and values only there: the crossed edges' cubic
      reads one node past either end, a saddle the cell's corners.  The
      curvature is read bilinearly at the chord midpoints, inside the cell
      or, by rounding, in a neighbour, at their corners, and the curvature
      at a node reads u(tau) only in the node's 3 x 3 box
      (_curvature_vector scales each stencil by its own power of two);
    * (C2) at every node p outside R the exhaustive U(tau) has the sign of
      D_n(p).  The step is linear and reproduces constants and linear
      motion, so U(tau)(p) = (a + b*tau) D_n(p) + sum over q != 0 of
      P_q (D_n(p+q) - D_n(p)) + a * sum over q of S_q (D_n - D_nm1)(p+q),
      with S the stencil of u0, P = a S + b T, T that of ut0, and p+q
      folded back past the walls, which brings it no farther from p.  D_n
      lies within (c - below, c + above) of the exact chord distance c,
      which is 1-Lipschitz, so |D_n(p+q) - D_n(p)| <= |q| + G, with
      G = above + below; and D_n - D_nm1 is bounded by the correlated
      H_max = H + the larger of above_n + below_nm1 and below_n + above_nm1,
      where H bounds the distance from each curve's chords to the other's,
      so c_n and c_nm1 differ by at most H.  H is read from the other
      field's exact nodes (_curve_gap, both ways): over each chord, the
      least over the corners e of its midpoint's cell of |D(e)| + below +
      the farther chord end's distance from e, the largest over the
      chords, and inf where a corner is not exact.  So
      U(tau)(p) has D_n(p)'s sign when (a + b*tau) |D_n(p)| exceeds
      B = sum |P_q| (|q| + G) + a * sum |S_q| * H_max + rho (_Band.bound,
      which also sizes W), and the check
      is that the least lower bound of |D_n| outside R (|d_n| itself at an
      exact node, |d_n| - spread - below at a provisional one) times
      a + b*tau exceeds B.  The provisional values carry the exhaustive
      sign bits, by induction over the steps: d_new takes its sign bit from
      u(tau) at every node, exact or not.

    Then u(tau) and U(tau) agree in every sign bit, outside R by (C2), for
    u(tau) takes d_n's sign bits there, and in R bit for bit, so they have
    the same crossed cells, and by (C1) the extraction and the curvature
    read equal values: the curve and its curvature are the exhaustive
    ones.  An empty curve is an extinction of both.  The exact tiles of
    d_new then hold the exhaustive bits, since a tile's scan and its bent
    chords read only the curve, the node and the curvature, and the
    provisional ones the exhaustive sign bits.

    The three gaps of this argument:

    * a curved distance against a chord distance: a bent chord lies within
      |h|/4 <= L/8 of its chord, and the step measures to some point of the
      bent chord of the nearest segment or of a neighbour, so the gaps are
      below = max|h|/4 and above = L + max|h|/4 with the largest L
      (BandField), not a tighter bound that the Newton iteration would need
      a proof of;
    * extinction: with one-signed u(tau) there is no crossed cell, (C1)
      holds, and (C2) gives a one-signed U(tau), so both go extinct;
    * rounding: the computed D's carry the scan's relative slack in below
      and above, the stencil sums are widened by 2^-30 relative, a + b*tau
      is rounded down by 1e-9, and rho = 2^-40 (k + 1)^3 (2k + 1)
      (3a + b*tau) max|D| (_Band.rounding) bounds the rounding of U(tau),
      by the leapfrog's Fourier form.  A step runs at CFL number <= 1/2
      (cfl_substep), so each eigenvalue lambda of (c dt)^2 Lap lies in
      [-1, 0], and a substep multiplies by 2x, x = 1 + lambda/2 in [-1, 1],
      less the level before: the Chebyshev recurrence.  Level n is
      T_n(x) u0 + dt U_{n-1}(x) ut0 (the starter is x u0 + dt ut0), and an
      error injected at level j reaches level n through U_{n-j}(x).  On
      [-1, 1], |T_m| <= 1 and |U_m| <= m + 1, so the kernel of U_m has l2
      norm <= m + 1; it is supported on the 2m^2 + 2m + 1 nodes with
      |q|_1 <= m, so its l1 norm is <= (sqrt(2) m + 1)(m + 1), and T_m's is
      <= sqrt(2) m + 1.  (Measured at CFL number 1/2: the l1 norm of U_26's
      kernel is 29.2, against the bound's 1012.)  At a mirror wall the
      solve is the free one on the reflected extension, and the fold maps
      each lattice node to exactly one grid node, so no row sum of the
      walled kernels is larger.  Hence every level is at most
      (sqrt(2) k + 1)(3a + b*tau) max|D|, since n dt <= tau.  A level's
      roundings, about a dozen per node, are each 2^-53 of a value, and
      those values (the Laplacian's terms scaled by (c dt)^2) sum to at
      most 16 times that bound, so they add at most 2^-49 of it; the sum
      over the levels of U's l1 norms is at most (k + 1)^2 (sqrt(2) k + 1).
      The shortened last substep scales the errors of the two levels it
      reads by at most 3 and 1 and rounds like a level, and the data
      products and the starter add less than the levels do, so the
      rounding stays below 2^-44 (k + 1)^2 (sqrt(2) k + 1)^2 (3a + b*tau)
      max|D|; and (sqrt(2) k + 1)^2 <= (2k + 1)(k + 1), so rho keeps a
      margin of 2^4 over it.  It is finite for every k up to MAX_SUBSTEPS.

    In mcf a = 0, and the argument above holds with the terms that a
    scales left out: P = b T, U(tau)(p) = b*tau D_n(p) + sum over q != 0
    of P_q (D_n(p+q) - D_n(p)), and B = sum |P_q| (|q| + G) + rho, with
    rho's 3a gone and max|D| taken over D_n alone.  So the bound reads
    neither H nor D_nm1's magnitude.
    R still asks for exact d_nm1: u0 = 0*(2*d_n - d_nm1) is a zero whose
    sign bit d_nm1 decides.

    A step that fails the check, or breaks down numerically, completes both
    fields and runs again from the exhaustive ones, which need no check;
    so does a step whose R is empty.  The rerun takes the same path with R
    every node and k = 0, whose box B is the whole grid.  A solve checks
    finiteness on its B only.
    The step redistances with reach W when it has a band and the next
    step's certificate can read d_n, which is then its d_nm1: d_n is a
    BandField, of either reconstruction.  It redistances with reach inf
    otherwise: a step with no band (_band: its stencils' box would
    outnumber the grid's nodes) and a step from a field that is not a
    BandField return fields that are complete at construction.  So does a
    step whose W spans the grid's diagonal: that band holds every tile.
    """
    if d_n.grid != cfg.grid or d_nm1.grid != cfg.grid:
        raise ValidationError("the step's fields and its config lie on different grids")
    band = _band(cfg)
    partial = [d for d in (d_n, d_nm1) if isinstance(d, BandField) and not d.is_complete]
    certified = False
    if partial and band is not None and (exact := _reach(d_n, d_nm1, band.k)).any():
        try:
            u_tau, curve = _propagate(d_n, d_nm1, cfg, exact, band.k)
            certified = _certified(d_n, d_nm1, u_tau, cfg, band, exact)
        except NumericalError:
            pass
    if not certified:
        for d in partial:
            d.complete()
        u_tau, curve = _propagate(d_n, d_nm1, cfg, np.ones(cfg.grid.shape, dtype=bool), 0)
    if curve.is_empty:  # each sign change gives a segment, so u(tau) has one sign
        return None
    reach = band.width if band is not None and isinstance(d_n, BandField) else np.inf
    with _stage("redistance"):
        return signed_distance(u_tau, curve, curved=CURVED[cfg.mode], reach=reach), curve


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
        try:
            step = hmbo_step(d_n, d_nm1, cfg)
        except NumericalError as exc:
            raise NumericalError(f"step {n}, {exc}") from exc
        if step is None:
            records.append(RunRecord(n, t, None, True))
            break
        d_nm1, (d_n, curve) = d_n, step
        records.append(RunRecord(n, t, average_radius(curve), False, curve if record_interfaces else None))
    return records
