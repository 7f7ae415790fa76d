"""Experiment orchestration: shrinking-circle runs, error metrics, and the
grid-refinement study.

The reference experiment starts from the signed distance field of an
origin-centered circle of radius r0 on a square domain, evolves it in the
curvature-flow limit, and compares the measured average radius at each step
against the exact shrinking-circle solution.  The reported error is the
time-weighted l1 norm

    Err = sum_{i=0}^{N_s} |r(i*tau) - r_measured(i*tau)| * tau,

where N_s is the last step at which the numerical interface still exists.
"""

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .errors import ValidationError
from .fields import ScalarField, field_from_function, make_grid
from .flow import HmboConfig, PhysicalParams, RunRecord, mcf_c2, run_flow, wave_coefficients
from .interfaces import average_radius, extract_zero_set, has_interface, write_interface_csv
from .oracles import RadiusSeries, exact_mcf_radius, poisson_eval
from .wave import WaveParams, cfl_substep, wave_solve

THREADS_ENV = "HMCF_THREADS"

_CONFIG_KEYS = {
    "mode", "r0", "n_tau", "grid_sizes", "bounds", "gamma", "alpha", "beta",
    "dt_policy", "out_dir", "cfl_fraction", "fixed_dt", "v0_normal",
    "max_steps", "save_interfaces",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a shrinking-circle experiment.

    The step length is tau = r0^2 / (2 * gamma * n_tau), i.e. the exact
    extinction time of the circle divided into n_tau steps.  dt_policy is
    either "cfl-fraction" (dt = cfl_fraction times the stability bound,
    capped at tau) or "fixed" (dt = fixed_dt, checked against the bound).
    """

    mode: str = "mcf"
    r0: float = 1.0
    n_tau: int = 150
    grid_sizes: tuple = (16, 32, 64, 128, 256)
    bounds: tuple = (-2.0, 2.0, -2.0, 2.0)
    gamma: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    dt_policy: str = "cfl-fraction"
    cfl_fraction: float = 0.5
    fixed_dt: float = 2.22e-6
    v0_normal: float = 0.0
    max_steps: int | None = None
    save_interfaces: bool = False
    out_dir: str | None = None

    def __post_init__(self):
        if self.mode not in ("mcf", "hmcf"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.r0 <= 0:
            raise ValidationError(f"r0 must be positive, got {self.r0}")
        if self.n_tau < 1:
            raise ValidationError(f"n_tau must be at least 1, got {self.n_tau}")
        if len(self.grid_sizes) == 0:
            raise ValidationError("grid_sizes is empty")
        if any(int(n) < 8 for n in self.grid_sizes):
            raise ValidationError(f"all grid sizes must be >= 8, got {self.grid_sizes}")
        xmin, xmax, ymin, ymax = self.bounds
        if not (xmin < xmax and ymin < ymax):
            raise ValidationError(f"degenerate bounds {self.bounds!r}")
        if self.r0 >= 0.5 * min(xmax - xmin, ymax - ymin):
            raise ValidationError("r0 does not fit inside the domain")
        if self.dt_policy not in ("cfl-fraction", "fixed"):
            raise ValidationError(f"unknown dt_policy {self.dt_policy!r}")
        if not 0 < self.cfl_fraction <= 1:
            raise ValidationError(f"cfl_fraction must be in (0, 1], got {self.cfl_fraction}")
        if self.gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {self.gamma}")

    @property
    def tau(self) -> float:
        return self.r0 * self.r0 / (2.0 * self.gamma * self.n_tau)

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """Load a flat-key JSON config; overrides win over file values.

        An unreadable file, malformed JSON or a value of the wrong type is
        reported as a ValidationError naming the file.
        """
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("config file must contain a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        if overrides:
            data.update({k: v for k, v in overrides.items() if v is not None})
        try:
            for key in ("grid_sizes", "bounds"):
                if key in data:
                    data[key] = tuple(data[key])
            return cls(**data)
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"invalid value in config {path}: {exc}") from exc


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

    def row_for(self, n: int) -> ErrorRow:
        for row in self.rows:
            if row.n == n:
                return row
        raise KeyError(f"no row for grid size {n}")


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
    tau = cfg.tau
    max_steps = cfg.max_steps if cfg.max_steps is not None else 2 * cfg.n_tau
    if cfg.mode == "mcf":
        c2 = mcf_c2(cfg.gamma, tau)
        make = partial(HmboConfig.mcf, grid, cfg.gamma, tau, max_steps=max_steps)
    else:
        phys = PhysicalParams(cfg.alpha, cfg.beta, cfg.gamma)
        c2 = wave_coefficients(phys)[2]
        make = partial(HmboConfig.hmcf, grid, phys, tau, max_steps=max_steps)
    if cfg.dt_policy == "fixed":
        dt = cfg.fixed_dt
    else:
        dt = cfl_substep(c2, grid, tau, cfg.cfl_fraction)
    flow_cfg = make(dt=dt)
    d0 = field_from_function(grid, lambda x, y: np.hypot(x, y) - cfg.r0)
    return flow_cfg, d0


def radius_history(cfg: ExperimentConfig, records: list[RunRecord], d0: ScalarField) -> RadiusSeries:
    """Measured radius at t=0 plus every alive step, on the i*tau lattice."""
    r0_meas = average_radius(extract_zero_set(d0))
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


def _study_one(cfg: ExperimentConfig, n: int):
    flow_cfg, d0 = build_run(cfg, int(n))
    records = run_flow(flow_cfg, d0)
    numeric = radius_history(cfg, records, d0)
    n_s = len(numeric.radii) - 1
    exact_radii = np.array(
        [exact_mcf_radius(cfg.r0, cfg.gamma * i * cfg.tau) for i in range(n_s + 1)]
    )
    exact = RadiusSeries(numeric.times.copy(), exact_radii)
    err = error_integral(exact, numeric, cfg.tau, n_s)
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

    def job(n):
        return _study_one(cfg, n)

    with ThreadPoolExecutor(max_workers=_worker_count(len(sizes))) as pool:
        futures = {n: pool.submit(job, n) for n in sizes}
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


def single_run(cfg: ExperimentConfig, n: int | None = None) -> list[RunRecord]:
    """One flow at a single grid size, with optional CSV outputs.

    Uses the first entry of grid_sizes unless n is given.  Writes run_{n}.csv,
    config_echo.json and (when save_interfaces is set) per-step vertex clouds
    interface_step{k}.csv into out_dir.
    """
    size = int(n) if n is not None else int(cfg.grid_sizes[0])
    flow_cfg, d0 = build_run(cfg, size)
    records = run_flow(flow_cfg, d0, v0_normal=cfg.v0_normal,
                       record_interfaces=cfg.save_interfaces)
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        write_run_csv(radius_history(cfg, records, d0), os.path.join(cfg.out_dir, f"run_{size}.csv"))
        write_config_echo(cfg, os.path.join(cfg.out_dir, "config_echo.json"), sizes=[size])
        if cfg.save_interfaces:
            write_interface_csv(
                extract_zero_set(d0), os.path.join(cfg.out_dir, "interface_step0.csv")
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


def write_error_table(report: ErrorReport, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("N,ns_tau,err\n")
        for row in sorted(report.rows, key=lambda r: r.n):
            fh.write(f"{row.n},{row.ns_tau:.12g},{row.err:.12g}\n")


def write_config_echo(cfg: ExperimentConfig, path, sizes=None) -> None:
    """Echo the configuration plus per-size derived quantities to JSON."""
    sizes = [int(n) for n in (sizes if sizes is not None else cfg.grid_sizes)]
    echo = asdict(cfg)
    echo["grid_sizes"] = list(cfg.grid_sizes)
    echo["bounds"] = list(cfg.bounds)
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
                         point=(0.2, -0.1), cfl_fraction: float = 0.5,
                         n_quad: int = 200) -> tuple[float, float, float]:
    """Propagate smooth data with the grid solver and with the quadrature.

    The evaluation point is chosen so its dependence disk stays away from
    the boundary.  Returns (solver value, quadrature value, relative diff).
    """
    from .fields import eval_bilinear

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
    dt = cfl_substep(c * c, grid, t, cfl_fraction)
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
