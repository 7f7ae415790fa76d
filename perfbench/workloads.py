"""The benchmark workloads: set-up, timed run and output checks.

Each workload has three steps.  ``setup(seed, workdir)`` builds the
grids, configs and initial fields; ``run(ctx, outdir)``
is the timed section; ``check(ctx, raw)`` turns the run's outputs into
operations (each passed or failed), named accuracy figures and output
digests, outside the timed section.

The seed only moves the grid bounds: seed 0 is the acceptance
configuration on (-2, 2)^2, any other seed translates the bounds by a
sub-cell offset of at most half the workload's finest dx per axis.  The
program sees the shift only through ``ExperimentConfig.bounds`` or
``make_grid``; circles stay centred on the origin, and the standing mode
is built on the shifted walls.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hmbo import cli, fields, flow, interfaces, oracles, wave
from hmbo.harness import ExperimentConfig

DOMAIN = (-2.0, 2.0, -2.0, 2.0)


def shifted_bounds(seed: int, finest_n: int) -> tuple:
    """Domain bounds for a seed: (-2, 2)^2 moved by a sub-cell offset."""
    if seed == 0:
        return DOMAIN
    dx = (DOMAIN[1] - DOMAIN[0]) / (finest_n - 1)
    rng = random.Random(seed)
    ox, oy = (rng.uniform(-0.5, 0.5) * dx for _ in range(2))
    return (DOMAIN[0] + ox, DOMAIN[1] + ox, DOMAIN[2] + oy, DOMAIN[3] + oy)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def call_cli(argv):
    """Run ``hmbo.cli.cli_main`` in-process; returns (exit code, stdout, stderr).

    The attribute is looked up at call time so that a tracing wrapper
    installed on it is used.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Outcome:
    """Checked outputs of one timed run."""

    ops: list = field(default_factory=list)       # (operation, failure or None)
    figures: dict = field(default_factory=dict)   # name -> (value, unit)
    digests: dict = field(default_factory=dict)   # output -> sha256
    oracle_err: float = math.nan

    def op(self, name: str, problems: list) -> None:
        self.ops.append((name, "; ".join(problems) if problems else None))

    @property
    def failed(self) -> int:
        return sum(1 for _, why in self.ops if why is not None)


def _window(problems, label, value, ref, rel):
    if not (math.isfinite(value) and abs(value / ref - 1.0) <= rel):
        problems.append(f"{label} {value:.6g} outside {ref:.6g} +/- {100 * rel:g}%")


# ---------------------------------------------------------------------------
# mcf-study: the paper's shrinking-circle refinement study through the CLI

class McfStudy:
    name = "mcf-study"
    sizes = (16, 32, 64, 128)
    # seed-commit values, seed 0; windows as wide as acceptance criterion 1's
    ref_err = {64: 0.01975376, 128: 0.007342222}
    ref_ns_tau = {128: 0.4766666667}

    def setup(self, seed, workdir):
        bounds = shifted_bounds(seed, max(self.sizes))
        config_path = os.path.join(workdir, "study_config.json")
        with open(config_path, "w") as fh:
            json.dump({"bounds": list(bounds)}, fh)
        # the CLI builds the grids and initial fields itself, inside the run
        ExperimentConfig.from_json(config_path)
        return {"config_path": config_path}

    def run(self, ctx, outdir):
        argv = ["convergence", "--sizes", ",".join(map(str, self.sizes)),
                "--config", ctx["config_path"], "--out", outdir]
        rc, _, err = call_cli(argv)
        return {"rc": rc, "stderr": err, "outdir": outdir}

    def check(self, ctx, raw):
        res = Outcome()
        outdir = raw["outdir"]
        res.op("cli convergence", [] if raw["rc"] == 0 else
               [f"exit code {raw['rc']}: {raw['stderr'].strip()[-200:]}"])
        table = os.path.join(outdir, "error_table.csv")
        rows = {}
        if os.path.exists(table):
            res.digests["error_table.csv"] = sha256_file(table)
            for line in Path(table).read_text().splitlines()[1:]:
                n, ns_tau, err = line.split(",")
                rows[int(n)] = (float(ns_tau), float(err))
        prev_err = math.inf
        for n in self.sizes:
            problems = []
            run_csv = os.path.join(outdir, f"run_{n}.csv")
            if n not in rows:
                problems.append("no row in error_table.csv")
            if not os.path.exists(run_csv):
                problems.append(f"no run_{n}.csv")
            else:
                res.digests[f"run_{n}.csv"] = sha256_file(run_csv)
                last = Path(run_csv).read_text().splitlines()[-1]
                if not last.endswith(",nan,1"):
                    problems.append("run did not reach extinction")
            if n in rows:
                ns_tau, err = rows[n]
                if not (math.isfinite(err) and err > 0):
                    problems.append(f"Err {err}")
                if n > 32 and not err < prev_err:
                    problems.append(f"Err {err:.6g} not below the coarser grid's {prev_err:.6g}")
                prev_err = err
                if n in self.ref_err:
                    _window(problems, "Err", err, self.ref_err[n], 0.5)
                if n in self.ref_ns_tau and not abs(ns_tau - self.ref_ns_tau[n]) <= 0.05:
                    problems.append(f"ns_tau {ns_tau:.6g} not within 0.05 of {self.ref_ns_tau[n]}")
            res.op(f"grid size {n}", problems)
        for n, (ns_tau, err) in sorted(rows.items()):
            res.figures[f"err_n{n}"] = (err, "1")
            res.figures[f"ns_tau_n{n}"] = (ns_tau, "1")
        if 128 in rows:
            res.oracle_err = rows[128][1]
        return res


# ---------------------------------------------------------------------------
# hmcf-track: damped-mode circle against the RK4 radius oracle (criterion 7)

class HmcfTrack:
    name = "hmcf-track"
    n = 128
    tau = 1.0 / 300.0
    steps = 90
    phys = (1.0, 1.0, 1.0)

    def setup(self, seed, workdir):
        grid = fields.make_grid(self.n, self.n, shifted_bounds(seed, self.n))
        phys = flow.PhysicalParams(*self.phys)
        cfg = flow.HmboConfig.hmcf(grid, phys, self.tau, max_steps=self.steps)
        d0 = fields.field_from_function(grid, lambda x, y: 1.0 - np.hypot(x, y))
        return {"cfg": cfg, "phys": phys, "d0": d0}

    def run(self, ctx, outdir):
        records = flow.run_flow(ctx["cfg"], ctx["d0"], v0_normal=0.0)
        oracle = oracles.hmcf_circle_radius(
            ctx["phys"], 1.0, 0.0, self.steps * self.tau, self.tau)
        r0 = interfaces.average_radius(interfaces.extract_zero_set(ctx["d0"]))
        radii = np.array([r0] + [math.nan if r.avg_radius is None else r.avg_radius
                                 for r in records])
        m = min(len(radii), len(oracle.radii))
        drift = float(np.max(np.abs(radii[:m] - oracle.radii[:m])))
        sign_match = float(np.mean(
            np.sign(np.diff(radii[:m])) == np.sign(np.diff(oracle.radii[:m]))))
        return {"records": records, "oracle": oracle, "radii": radii,
                "drift": drift, "sign_match": sign_match}

    def check(self, ctx, raw):
        res = Outcome()
        records, oracle = raw["records"], raw["oracle"]
        problems = []
        if len(records) != self.steps:
            problems.append(f"{len(records)} records, expected {self.steps}")
        if any(r.extinct for r in records):
            problems.append("interface went extinct")
        if not raw["sign_match"] >= 0.90:
            problems.append(f"step-sign agreement {raw['sign_match']:.3f} below 0.90")
        res.op("flow run", problems)
        problems = []
        if len(oracle.radii) != self.steps + 1 or oracle.extinction_time is not None:
            problems.append(f"{len(oracle.radii)} oracle samples, extinction "
                            f"{oracle.extinction_time}")
        res.op("rk4 oracle", problems)
        res.oracle_err = raw["drift"]
        res.figures["drift_max"] = (raw["drift"], "1")
        res.figures["sign_agreement"] = (raw["sign_match"], "frac")
        res.digests["radii"] = sha256_arrays(raw["radii"])
        res.digests["oracle_radii"] = sha256_arrays(oracle.radii)
        return res


# ---------------------------------------------------------------------------
# wave-oracle: standing wave, `hmbo verify` and the RK4 refinement via the CLI

class WaveOracle:
    name = "wave-oracle"
    n = 513
    tau = 1.0
    ref_wave_err = 1.1709e-06
    oracle_argv = ["oracle", "--mode", "hmcf", "--alpha", "0.005",
                   "--t-end", "0.6", "--dt", "0.05"]

    def setup(self, seed, workdir):
        b = shifted_bounds(seed, self.n)
        grid = fields.make_grid(self.n, self.n, b)
        lx, ly = b[1] - b[0], b[3] - b[2]
        mode = fields.field_from_function(
            grid, lambda x, y: np.cos(np.pi * (x - b[0]) / lx) * np.cos(np.pi * (y - b[2]) / ly))
        ut0 = fields.ScalarField(grid, np.zeros(grid.shape))
        params = wave.WaveParams(1.0, 0.5 * wave.cfl_max_dt(1.0, grid), self.tau)
        omega = np.pi * math.sqrt(1.0 / lx**2 + 1.0 / ly**2)
        return {"mode": mode, "ut0": ut0, "params": params, "omega": omega}

    def run(self, ctx, outdir):
        log_path = os.path.join(outdir, "energy.csv")
        u = wave.wave_solve(ctx["mode"], ctx["ut0"], ctx["params"], energy_log=log_path)
        exact = math.cos(ctx["omega"] * self.tau) * ctx["mode"].values
        wave_err = float(np.max(np.abs(u.values - exact)))
        energy = np.genfromtxt(log_path, delimiter=",", skip_header=1)[:, 2]
        drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
        verify = call_cli(["verify"])
        radius_csv = os.path.join(outdir, "radius.csv")
        rk4 = call_cli(self.oracle_argv + ["--out", radius_csv])
        return {"u": u, "wave_err": wave_err, "energy_drift": drift,
                "log_path": log_path, "verify": verify, "rk4": rk4,
                "radius_csv": radius_csv}

    def check(self, ctx, raw):
        res = Outcome()
        problems = []
        _window(problems, "max-norm error", raw["wave_err"], self.ref_wave_err, 0.5)
        if not raw["energy_drift"] < 1e-3:
            problems.append(f"energy drift {raw['energy_drift']:.3g} not below 1e-3")
        res.op("wave propagation", problems)

        rc, verify_out, _ = raw["verify"]
        problems = [] if rc == 0 else [f"exit code {rc}"]
        found = re.search(r"solver vs disk quadrature: .*\(rel ([0-9.eE+-]+)\)", verify_out)
        quad_rel = float(found.group(1)) if found else math.nan
        if not quad_rel < 1e-2:
            problems.append(f"solver vs quadrature rel {quad_rel}")
        if verify_out.count("[PASS]") != 2:
            problems.append(f"verify output: {verify_out.strip()[-200:]}")
        res.op("cli verify", problems)

        rc, _, err = raw["rk4"]
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if "extinction at t=" not in err:
            problems.append("no extinction time reported")
        if not os.path.exists(raw["radius_csv"]):
            problems.append("no radius CSV")
        else:
            res.digests["oracle radius.csv"] = sha256_file(raw["radius_csv"])
        res.op("cli oracle", problems)

        res.oracle_err = raw["wave_err"]
        res.figures["wave_err"] = (raw["wave_err"], "1")
        res.figures["energy_drift"] = (raw["energy_drift"], "1")
        res.figures["quad_rel_err"] = (quad_rel, "1")
        res.digests["wave field"] = sha256_arrays(raw["u"].values)
        res.digests["energy.csv"] = sha256_file(raw["log_path"])
        res.digests["verify stdout"] = hashlib.sha256(verify_out.encode()).hexdigest()
        return res


WORKLOADS = {w.name: w for w in (McfStudy(), HmcfTrack(), WaveOracle())}
