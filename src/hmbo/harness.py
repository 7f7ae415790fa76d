"""Experiment orchestration: shrinking-circle runs, error metrics, and the
grid-refinement study.

The reference experiment starts from the signed distance field of an
origin-centered circle of radius r0 on a square domain, evolves it in the
configured mode, and compares the measured average radius at each step
against the circle's radius r under that mode's law: the exact shrinking
circle for mcf, the RK4 solution of alpha r'' + beta r' = -gamma/r for the
damped mode.  The reported error is the time-weighted l1 norm

    Err = sum_{i=0}^{N_s} |r(i*tau) - r_measured(i*tau)| * tau,

where N_s is the last step at which the numerical interface still exists,
and (damped mode) the reference circle too.
"""

import json
import numbers
import os
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import get_args, get_origin

import numpy as np

from .errors import ValidationError
from .fields import ScalarField, eval_bilinear, field_from_function, make_grid
from .flow import (
    CURVED,
    HmboConfig,
    PhysicalParams,
    RunRecord,
    check_max_steps,
    run_flow,
    wave_data,
)
from .interfaces import average_radius, extract_zero_set, write_interface_csv
from .oracles import RadiusSeries, exact_mcf_radius, hmcf_circle_radius, poisson_eval
from .wave import WaveParams, cfl_substep, wave_solve

THREADS_ENV = "HMCF_THREADS"


def _conforms(value, tp) -> bool:
    """True iff value has the annotated type tp: any finite real number
    passes for float and any integer for int, but a bool passes only for
    bool."""
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            return all(_conforms(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if isinstance(tp, types.UnionType):
        return any(_conforms(value, t) for t in args)
    if isinstance(value, bool) or tp is bool:
        return tp is bool and isinstance(value, bool)
    if tp is float:  # a finite double: not NaN, infinite or an int past its range
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Integral if tp is int else tp)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a shrinking-circle experiment.

    The step length is tau = r0^2 / (2 * gamma * n_tau), i.e. the exact
    extinction time of the circle divided into n_tau steps.  The substep is
    fixed_dt, checked against the stability bound of every grid size, or,
    when fixed_dt is None, wave.cfl_substep's half of that bound, capped at
    tau.  alpha, beta and gamma are nonnegative in either mode; the mode's
    wave data (flow.wave_data) reads alpha and beta in damped mode only.
    The field names are the keys of a JSON config file.  Every value is
    checked here, its type first, so a bad one fails on construction with a
    ValidationError naming its key rather than inside a grid job.
    """

    mode: str = "mcf"
    r0: float = 1.0
    n_tau: int = 150
    grid_sizes: tuple[int, ...] = (16, 32, 64, 128, 256)
    bounds: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0)
    gamma: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    fixed_dt: float | None = None
    v0_normal: float = 0.0
    max_steps: int | None = None
    save_interfaces: bool = False
    out_dir: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, f.type):
                what = (str(f.type) if get_args(f.type) else f.type.__name__).replace("float", "finite float")
                raise ValidationError(f"{f.name!r} must be {what}, got {value!r}")
        if self.r0 <= 0:
            raise ValidationError(f"r0 must be positive, got {self.r0}")
        if self.n_tau < 1:
            raise ValidationError(f"n_tau must be at least 1, got {self.n_tau}")
        if len(self.grid_sizes) == 0:
            raise ValidationError("grid_sizes is empty")
        if any(n < 8 for n in self.grid_sizes):
            raise ValidationError(f"all grid sizes must be >= 8, got {self.grid_sizes}")
        xmin, xmax, ymin, ymax = self.bounds
        if not (xmin < xmax and ymin < ymax):
            raise ValidationError(f"degenerate bounds {self.bounds!r}")
        if self.r0 >= 0.5 * min(xmax - xmin, ymax - ymin):
            raise ValidationError("r0 does not fit inside the domain")
        if self.gamma <= 0:  # before tau, which divides by it
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        c2 = self.c2  # checks the mode and its coefficients
        if self.fixed_dt is not None:
            WaveParams(c2, self.fixed_dt, self.tau)  # checks 0 < fixed_dt <= tau
        if self.max_steps is not None:
            check_max_steps(self.max_steps)

    @property
    def tau(self) -> float:
        return self.r0 * self.r0 / (2.0 * self.gamma * self.n_tau)

    @property
    def params(self) -> PhysicalParams:
        return PhysicalParams(self.alpha, self.beta, self.gamma)

    @property
    def c2(self) -> float:
        """The mode's squared wave speed (it depends on no grid)."""
        return wave_data(self.mode, self.params, self.tau)[2]

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """Load a flat-key JSON config; overrides win over file values.

        An unreadable file or malformed JSON is reported as a ValidationError
        naming the file; a bad value, as one naming its key.
        """
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("config file must contain a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        if overrides:
            data.update({k: v for k, v in overrides.items() if v is not None})
        for f in fields(cls):  # JSON arrays for the tuple fields
            if get_origin(f.type) is tuple and isinstance(data.get(f.name), list):
                data[f.name] = tuple(data[f.name])
        return cls(**data)


@dataclass
class ErrorRow:
    """One grid size of the study: extinction time N_s*tau and Err."""

    n: int
    ns_tau: float
    err: float
    went_extinct: bool = True


@dataclass
class ErrorReport:
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def error_integral(exact: RadiusSeries, numeric: RadiusSeries, tau: float, n_s: int) -> float:
    """Time-weighted l1 difference of two radius series over steps 0..n_s."""
    if n_s < 0:
        raise ValidationError(f"n_s must be nonnegative, got {n_s}")
    if len(exact.radii) < n_s + 1 or len(numeric.radii) < n_s + 1:
        raise ValidationError(
            f"series too short for n_s={n_s}: "
            f"{len(exact.radii)} exact, {len(numeric.radii)} numeric samples"
        )
    expected = np.arange(n_s + 1) * tau
    for series in (exact, numeric):
        if np.max(np.abs(series.times[: n_s + 1] - expected)) > 1e-9 * max(tau, 1.0):
            raise ValidationError("series samples are not on the i*tau lattice")
    diff = np.abs(exact.radii[: n_s + 1] - numeric.radii[: n_s + 1])
    return float(np.sum(diff) * tau)


def build_run(cfg: ExperimentConfig, n: int) -> tuple[HmboConfig, ScalarField]:
    """Grid, flow config and initial distance field for one grid size."""
    grid = make_grid(int(n), int(n), cfg.bounds)
    max_steps = cfg.max_steps if cfg.max_steps is not None else 2 * cfg.n_tau
    flow_cfg = HmboConfig.build(cfg.mode, grid, cfg.params, cfg.tau, cfg.fixed_dt, max_steps)
    d0 = field_from_function(grid, lambda x, y: np.hypot(x, y) - cfg.r0)
    return flow_cfg, d0


def radius_history(cfg: ExperimentConfig, records: list[RunRecord], d0: ScalarField) -> RadiusSeries:
    """Measured radius at t=0 plus every alive step, on the i*tau lattice.

    The t=0 interface is extracted with the mode's own reconstruction, like
    every later one.
    """
    r0_meas = average_radius(extract_zero_set(d0, curved=CURVED[cfg.mode]))
    times = [0.0]
    radii = [r0_meas]
    t_ext = None
    for rec in records:
        if rec.extinct:
            t_ext = rec.t
            break
        times.append(rec.t)
        radii.append(rec.avg_radius)
    return RadiusSeries(np.array(times), np.array(radii), t_ext)


def _reference_radius(cfg: ExperimentConfig, n_s: int) -> RadiusSeries:
    """The circle's radius under the mode's own law at steps 0..n_s: the
    closed form for mcf, the RK4 solution for the damped mode, which ends
    early if that circle goes extinct first."""
    if cfg.mode == "hmcf":
        return hmcf_circle_radius(cfg.params, cfg.r0, cfg.v0_normal, max(n_s, 1) * cfg.tau, cfg.tau)
    radii = [exact_mcf_radius(cfg.r0, cfg.gamma * i * cfg.tau) for i in range(n_s + 1)]
    return RadiusSeries(np.arange(n_s + 1) * cfg.tau, radii)


def _study_one(cfg: ExperimentConfig, n: int):
    flow_cfg, d0 = build_run(cfg, int(n))
    records = run_flow(flow_cfg, d0, v0_normal=cfg.v0_normal)
    numeric = radius_history(cfg, records, d0)
    n_s = len(numeric.radii) - 1
    exact = _reference_radius(cfg, n_s)
    err = error_integral(exact, numeric, cfg.tau, min(n_s, len(exact.radii) - 1))
    row = ErrorRow(int(n), n_s * cfg.tau, err, went_extinct=numeric.extinction_time is not None)
    return row, numeric


def _worker_count(n_jobs: int) -> int:
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


def convergence_study(cfg: ExperimentConfig) -> ErrorReport:
    """Run the shrinking-circle experiment over cfg.grid_sizes.

    Per-size runs are independent and may execute in parallel (worker count
    capped by the HMCF_THREADS environment variable); results are merged in
    ascending grid order, so output files are reproducible byte for byte.
    A failing size is recorded in the report and does not stop the others.
    """
    sizes = sorted(int(n) for n in cfg.grid_sizes)
    report = ErrorReport()
    histories: dict[int, RadiusSeries] = {}
    with ThreadPoolExecutor(max_workers=_worker_count(len(sizes))) as pool:
        futures = {n: pool.submit(_study_one, cfg, n) for n in sizes}
    for n in sizes:
        try:
            row, numeric = futures[n].result()
        except Exception as exc:  # noqa: BLE001 - reported per size
            report.failures.append((n, str(exc)))
            print(f"grid size {n} failed: {exc}", file=sys.stderr)
            continue
        report.rows.append(row)
        histories[n] = numeric

    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        write_error_table(report, os.path.join(cfg.out_dir, "error_table.csv"))
        for n, numeric in histories.items():
            write_run_csv(numeric, os.path.join(cfg.out_dir, f"run_{n}.csv"))
        write_config_echo(cfg, os.path.join(cfg.out_dir, "config_echo.json"))
    return report


def single_run(cfg: ExperimentConfig) -> list[RunRecord]:
    """One flow at the first entry n of grid_sizes, with optional CSV
    outputs.

    Writes run_{n}.csv, config_echo.json and (when save_interfaces is set)
    per-step vertex clouds interface_step{k}.csv into out_dir.
    """
    size = int(cfg.grid_sizes[0])
    flow_cfg, d0 = build_run(cfg, size)
    records = run_flow(flow_cfg, d0, v0_normal=cfg.v0_normal,
                       record_interfaces=cfg.save_interfaces)
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        write_run_csv(radius_history(cfg, records, d0), os.path.join(cfg.out_dir, f"run_{size}.csv"))
        write_config_echo(cfg, os.path.join(cfg.out_dir, "config_echo.json"), sizes=[size])
        if cfg.save_interfaces:
            write_interface_csv(
                extract_zero_set(d0, curved=CURVED[cfg.mode]),
                os.path.join(cfg.out_dir, "interface_step0.csv"),
            )
            for rec in records:
                if rec.curve is not None:
                    write_interface_csv(
                        rec.curve, os.path.join(cfg.out_dir, f"interface_step{rec.step}.csv")
                    )
    return records


def write_run_csv(history: RadiusSeries, path) -> None:
    """Radius log as step,t,avg_radius,extinct rows (nan after extinction)."""
    with open(path, "w", newline="") as fh:
        fh.write("step,t,avg_radius,extinct\n")
        for i, (t, r) in enumerate(zip(history.times, history.radii)):
            fh.write(f"{i},{t:.12g},{r:.12g},0\n")
        if history.extinction_time is not None:
            fh.write(f"{len(history.times)},{history.extinction_time:.12g},nan,1\n")


def format_error_table(report: ErrorReport) -> str:
    """The study table as N,ns_tau,err CSV text, rows in ascending N."""
    rows = sorted(report.rows, key=lambda r: r.n)
    return "N,ns_tau,err\n" + "".join(f"{r.n},{r.ns_tau:.12g},{r.err:.12g}\n" for r in rows)


def write_error_table(report: ErrorReport, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(format_error_table(report))


def write_config_echo(cfg: ExperimentConfig, path, sizes=None) -> None:
    """Echo the configuration plus per-size derived quantities to JSON."""
    sizes = [int(n) for n in (sizes if sizes is not None else cfg.grid_sizes)]
    echo = asdict(cfg)  # json writes its tuples as arrays
    derived = {"tau": cfg.tau}
    for n in sizes:
        flow_cfg, _ = build_run(cfg, n)
        derived[str(n)] = {
            "dx": flow_cfg.grid.dx,
            "c2": flow_cfg.c2,
            "dt": flow_cfg.dt,
            "max_steps": flow_cfg.max_steps,
        }
    echo["derived"] = derived
    with open(path, "w") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# cross-checks between the grid solver and the disk-quadrature evaluation

def _moment_cases():
    """Initial-velocity monomials with closed-form wave solutions.

    Each case maps v0 (handed to the solver as ut0 = -v0) to the exact
    u(t, x) it induces; kappa and kappa_p are free coefficients.
    """
    cases = [
        (
            "first moment",
            lambda k, kp: (lambda y1, y2: y2),
            lambda k, kp, c, t, x1, x2: -t * x2,
        ),
        (
            "quadratic moment",
            lambda k, kp: (lambda y1, y2: 0.5 * k * y1 * y1),
            lambda k, kp, c, t, x1, x2: -t * k * (c * c * t * t / 6.0 + 0.5 * x1 * x1),
        ),
        (
            "cubic moment",
            lambda k, kp: (lambda y1, y2: (kp / 6.0) * y1 ** 3),
            lambda k, kp, c, t, x1, x2: -(t * kp / 6.0) * (c * c * t * t * x1 + x1 ** 3),
        ),
        (
            "mixed moment",
            lambda k, kp: (lambda y1, y2: -0.5 * k * k * y1 * y1 * y2),
            lambda k, kp, c, t, x1, x2: t * k * k * (c * c * t * t * x2 / 6.0 + 0.5 * x1 * x1 * x2),
        ),
    ]
    return cases


def check_moments(points, kappas=(-2.0, 1.0), speeds=(1.0, np.sqrt(2.0)),
                  times=(0.05,), kappa_p: float = 1.5, n_quad: int = 200,
                  rtol: float = 1e-6):
    """Compare poisson_eval against the closed-form moment solutions.

    Returns (worst relative error, list of per-case detail strings for any
    comparisons beyond rtol).
    """
    worst = 0.0
    bad = []
    for name, make_v0, closed in _moment_cases():
        for k in kappas:
            for c in speeds:
                for t in times:
                    for (x1, x2) in points:
                        got = poisson_eval(None, None, make_v0(k, kappa_p), c, t, (x1, x2), n_quad)
                        want = closed(k, kappa_p, c, t, x1, x2)
                        rel = abs(got - want) / max(abs(want), 1e-14)
                        worst = max(worst, rel)
                        if rel > rtol:
                            bad.append(
                                f"{name}: k={k} c={c:.4g} t={t} x=({x1:.3g},{x2:.3g}) "
                                f"got {got:.10g} want {want:.10g} rel {rel:.2e}"
                            )
    return worst, bad


def solver_vs_quadrature(n: int = 256, c: float = 1.0, t: float = 0.25,
                         point=(0.2, -0.1), n_quad: int = 200) -> tuple[float, float, float]:
    """Propagate smooth data with the grid solver and with the quadrature.

    The evaluation point is chosen so its dependence disk stays away from
    the boundary.  Returns (solver value, quadrature value, relative diff).
    """
    grid = make_grid(n, n, (-2.0, 2.0, -2.0, 2.0))

    def u0_fn(y1, y2):
        return np.exp(-(y1 * y1 + y2 * y2))

    def grad_u0_fn(y1, y2):
        g = np.exp(-(y1 * y1 + y2 * y2))
        return -2.0 * y1 * g, -2.0 * y2 * g

    def v0_fn(y1, y2):
        return np.sin(2.0 * y1) * np.cos(y2)

    u0 = field_from_function(grid, u0_fn)
    ut0 = field_from_function(grid, lambda x, y: -v0_fn(x, y))
    dt = cfl_substep(c * c, grid, t)
    u_num = wave_solve(u0, ut0, WaveParams(c * c, dt, t))
    got = eval_bilinear(u_num, point)
    want = poisson_eval(u0_fn, grad_u0_fn, v0_fn, c, t, point, n_quad)
    rel = abs(got - want) / max(abs(want), 1e-14)
    return got, want, rel


def verify_suite(verbose: bool = True) -> bool:
    """Run the dual-route consistency checks; True iff everything passed."""
    ok = True
    pts = [(0.05, -0.03), (-0.08, 0.02), (0.0, 0.1)]
    worst, bad = check_moments(pts)
    passed = not bad
    ok = ok and passed
    if verbose:
        print(f"[{'PASS' if passed else 'FAIL'}] moment identities: worst rel err {worst:.3e}")
        for line in bad:
            print("       " + line)

    got, want, rel = solver_vs_quadrature()
    passed = rel < 1e-2
    ok = ok and passed
    if verbose:
        print(
            f"[{'PASS' if passed else 'FAIL'}] solver vs disk quadrature: "
            f"{got:.8g} vs {want:.8g} (rel {rel:.3e})"
        )
    return ok
