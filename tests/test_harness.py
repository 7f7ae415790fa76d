"""Experiment harness tests: config parsing, the time-weighted error metric,
study plumbing (parallel workers, output files, failure containment), and the
closed-form moment cross-checks."""

import json
import os

import numpy as np
import pytest

from hmbo.errors import ValidationError
from hmbo.flow import RunRecord
from hmbo.harness import (
    ErrorReport,
    ErrorRow,
    ExperimentConfig,
    _worker_count,
    build_run,
    check_moments,
    convergence_study,
    error_integral,
    radius_history,
    solver_vs_quadrature,
    write_error_table,
    write_run_csv,
)
from hmbo.interfaces import average_radius, extract_zero_set
from hmbo.oracles import RadiusSeries
from hmbo.wave import cfl_max_dt


def test_default_step_length():
    cfg = ExperimentConfig()
    assert cfg.tau == pytest.approx(1.0 / 300.0, rel=1e-15)
    assert cfg.tau == pytest.approx(cfg.r0 ** 2 / (2.0 * cfg.gamma * cfg.n_tau))


@pytest.mark.parametrize(
    "kw",
    [
        {"r0": 2.5},  # circle does not fit in the default domain
        {"r0": -1.0},
        {"grid_sizes": (4, 16)},
        {"grid_sizes": ()},
        {"mode": "backwards"},
        {"fixed_dt": "adaptive"},
        {"fixed_dt": 0.0},
        {"alpha": -1.0},  # a negative coefficient, in either mode
        {"n_tau": 0},
        {"gamma": 0.0},
        {"bounds": (1.0, -1.0, 0.0, 2.0)},
        {"mode": "hmcf", "alpha": 0.0},
        {"mode": "hmcf", "alpha": -1.0},
        {"n_tau": 10.0},
        {"grid_sizes": (16.0,)},
        {"bounds": (-2.0, 2.0, -2.0)},
        {"save_interfaces": 1},
        {"r0": True},
        {"max_steps": "3"},
        {"max_steps": -1},
        {"fixed_dt": -1.0},
        {"fixed_dt": 0.5},  # longer than tau
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValidationError):
        ExperimentConfig(**kw)


def test_config_accepts_ints_for_floats_and_numpy_scalars():
    cfg = ExperimentConfig(r0=1, bounds=(-2, 2, -2, 2), grid_sizes=(np.int64(16),),
                           max_steps=np.int32(3), gamma=np.float64(1.0))
    assert cfg.tau == pytest.approx(1.0 / 300.0)
    # alpha is read only in damped mode
    assert ExperimentConfig(alpha=0.0).alpha == 0.0


# ---------------------------------------------------------------------------
# JSON loading


def _write_cfg(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def test_from_json_partial_keys(tmp_path):
    path = _write_cfg(tmp_path, {"mode": "mcf", "n_tau": 30, "grid_sizes": [16, 32]})
    cfg = ExperimentConfig.from_json(path)
    assert cfg.n_tau == 30
    assert cfg.grid_sizes == (16, 32)  # lists become tuples
    assert cfg.r0 == 1.0  # unspecified keys keep their defaults


def test_from_json_rejects_unknown_keys(tmp_path):
    path = _write_cfg(tmp_path, {"n_tau": 30, "banana": 1})
    with pytest.raises(ValidationError, match="banana"):
        ExperimentConfig.from_json(path)


def test_from_json_overrides_win(tmp_path):
    path = _write_cfg(tmp_path, {"n_tau": 30})
    cfg = ExperimentConfig.from_json(path, overrides={"n_tau": 40})
    assert cfg.n_tau == 40


def test_from_json_none_overrides_ignored(tmp_path):
    path = _write_cfg(tmp_path, {"n_tau": 30})
    cfg = ExperimentConfig.from_json(path, overrides={"n_tau": None, "r0": None})
    assert cfg.n_tau == 30
    assert cfg.r0 == 1.0


# ---------------------------------------------------------------------------
# error metric


def _series(radii, tau):
    radii = np.asarray(radii, dtype=float)
    return RadiusSeries(np.arange(len(radii)) * tau, radii)


def test_error_integral_identical_series_is_zero():
    s = _series(np.linspace(1.0, 0.5, 11), 0.1)
    assert error_integral(s, s, 0.1, 10) == 0.0


def test_error_integral_constant_offset():
    tau = 0.1
    exact = _series(np.ones(11), tau)
    numeric = _series(np.ones(11) + 0.01, tau)
    # 11 samples, each off by 0.01, weighted by tau
    assert error_integral(exact, numeric, tau, 10) == pytest.approx(0.011, rel=1e-12)


def test_error_integral_rejects_off_lattice_samples():
    tau = 0.1
    exact = _series(np.ones(4), tau)
    times = np.arange(4) * tau
    times[2] += 0.03
    numeric = RadiusSeries(times, np.ones(4))
    with pytest.raises(ValidationError):
        error_integral(exact, numeric, tau, 3)


def test_error_integral_rejects_short_series():
    s = _series(np.ones(3), 0.1)
    with pytest.raises(ValidationError):
        error_integral(s, s, 0.1, 5)
    with pytest.raises(ValidationError):
        error_integral(s, s, 0.1, -1)


# ---------------------------------------------------------------------------
# run assembly


def test_build_run_mcf_defaults():
    cfg = ExperimentConfig(grid_sizes=(16,))
    flow_cfg, d0 = build_run(cfg, 16)
    assert flow_cfg.mode == "mcf"
    assert flow_cfg.c2 == pytest.approx(6.0 * cfg.gamma / cfg.tau)  # 1800 here
    assert flow_cfg.grid.nx == 16
    want_dt = min(0.5 * cfl_max_dt(flow_cfg.c2, flow_cfg.grid), cfg.tau)
    assert flow_cfg.dt == pytest.approx(want_dt)
    X, Y = flow_cfg.grid.mesh()
    assert np.array_equal(d0.values, np.hypot(X, Y) - cfg.r0)


def test_build_run_fixed_dt_policy():
    cfg = ExperimentConfig(grid_sizes=(16,), fixed_dt=2e-3)
    flow_cfg, _ = build_run(cfg, 16)
    assert flow_cfg.dt == 2e-3
    # the same fixed dt breaks the stability bound on a finer grid
    with pytest.raises(ValidationError):
        build_run(cfg, 64)


def test_build_run_damped_mode():
    cfg = ExperimentConfig(mode="hmcf", grid_sizes=(32,))
    flow_cfg, _ = build_run(cfg, 32)
    assert flow_cfg.mode == "hmcf"
    assert flow_cfg.a == 1.0
    assert flow_cfg.b == 1.0
    assert flow_cfg.c2 == pytest.approx(2.0 * cfg.gamma / cfg.alpha)


def test_radius_history_prepends_initial_radius():
    cfg = ExperimentConfig(grid_sizes=(32,), n_tau=10)
    flow_cfg, d0 = build_run(cfg, 32)
    tau = cfg.tau
    records = [
        RunRecord(1, tau, 0.95, False),
        RunRecord(2, 2 * tau, None, True),
    ]
    hist = radius_history(cfg, records, d0)
    assert hist.times.tolist() == [0.0, tau]
    assert abs(hist.radii[0] - cfg.r0) < 1.5 * flow_cfg.grid.dx
    assert hist.radii[1] == 0.95
    assert hist.extinction_time == 2 * tau


def test_radius_history_measures_t0_with_the_mode_reconstruction():
    """Row 0 of a damped run log uses the curved extraction, like every later
    row; an mcf log keeps the chord one."""
    first = {}
    for mode, curved in (("hmcf", True), ("mcf", False)):
        cfg = ExperimentConfig(mode=mode, grid_sizes=(32,), n_tau=10)
        _, d0 = build_run(cfg, 32)
        first[mode] = radius_history(cfg, [], d0).radii[0]
        assert first[mode] == average_radius(extract_zero_set(d0, curved=curved)), mode
    # at N = 32 the chord roots sit about 0.05 dx^2 = 8e-4 inside the circle
    assert first["hmcf"] - first["mcf"] > 1e-4


# ---------------------------------------------------------------------------
# worker-count policy


def test_worker_count_default(monkeypatch):
    monkeypatch.delenv("HMCF_THREADS", raising=False)
    assert _worker_count(4) == min(4, os.cpu_count() or 1)
    assert _worker_count(1) == 1


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.setenv("HMCF_THREADS", "3")
    assert _worker_count(5) == 3
    assert _worker_count(2) == 2  # never more workers than jobs


def test_worker_count_zero_means_auto(monkeypatch):
    monkeypatch.setenv("HMCF_THREADS", "0")
    assert _worker_count(5) == min(5, os.cpu_count() or 1)


@pytest.mark.parametrize("raw", ["-1", "abc", "2.5"])
def test_worker_count_rejects_bad_env(monkeypatch, raw):
    monkeypatch.setenv("HMCF_THREADS", raw)
    with pytest.raises(ValidationError):
        _worker_count(4)


# ---------------------------------------------------------------------------
# the study


def test_convergence_study_single_size(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(grid_sizes=(16,), n_tau=10, out_dir=str(out))
    report = convergence_study(cfg)
    assert len(report.rows) == 1
    assert report.failures == []
    row = report.rows[0]
    assert row.n == 16
    assert np.isfinite(row.err) and row.err > 0.0
    assert 0.0 < row.ns_tau < 0.5

    assert (out / "error_table.csv").is_file()
    assert (out / "run_16.csv").is_file()
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["n_tau"] == 10
    assert echo["derived"]["tau"] == pytest.approx(cfg.tau)
    assert set(echo["derived"]["16"]) == {"dx", "c2", "dt", "max_steps"}

    table = (out / "error_table.csv").read_text().splitlines()
    assert table[0] == "N,ns_tau,err"
    assert table[1].startswith("16,")


def test_convergence_study_reproducible_outputs(tmp_path):
    """The same configuration writes byte-identical tables and run logs."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = ExperimentConfig(grid_sizes=(16, 24), n_tau=10, out_dir=str(out))
        convergence_study(cfg)
        outs.append(out)
    for fname in ("error_table.csv", "run_16.csv", "run_24.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_convergence_study_contains_failures(capsys):
    """A size whose fixed dt breaks the stability bound is reported and the
    remaining sizes still produce rows."""
    cfg = ExperimentConfig(grid_sizes=(16, 64), fixed_dt=2e-3)
    report = convergence_study(cfg)
    assert [row.n for row in report.rows] == [16]
    assert len(report.failures) == 1
    n_bad, msg = report.failures[0]
    assert n_bad == 64
    assert "CFL" in msg
    assert "grid size 64 failed" in capsys.readouterr().err


def test_convergence_study_starts_from_the_initial_speed():
    """The damped study reads v0_normal, as single_run does: the initial
    normal speed changes the table."""
    rows = []
    for v0 in (0.0, 0.5):
        cfg = ExperimentConfig(mode="hmcf", grid_sizes=(16,), n_tau=20, v0_normal=v0)
        rows.append(convergence_study(cfg).rows[0])
    assert rows[0].err != rows[1].err


# ---------------------------------------------------------------------------
# CSV writers


def test_write_run_csv_marks_extinction(tmp_path):
    hist = RadiusSeries(np.array([0.0, 0.1]), np.array([1.0, 0.9]), 0.2)
    path = tmp_path / "run.csv"
    write_run_csv(hist, path)
    assert path.read_text().splitlines() == [
        "step,t,avg_radius,extinct",
        "0,0,1,0",
        "1,0.1,0.9,0",
        "2,0.2,nan,1",
    ]


def test_write_error_table_sorted_by_size(tmp_path):
    report = ErrorReport(rows=[ErrorRow(32, 0.3, 0.04), ErrorRow(16, 0.1, 0.2)])
    path = tmp_path / "table.csv"
    write_error_table(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "N,ns_tau,err"
    assert lines[1].startswith("16,")
    assert lines[2].startswith("32,")


# ---------------------------------------------------------------------------
# dual-route checks


def test_check_moments_closed_forms():
    worst, bad = check_moments([(0.05, -0.03), (0.0, 0.1)])
    assert bad == []
    assert worst < 1e-6


def test_solver_matches_disk_quadrature_small_grid():
    got, want, rel = solver_vs_quadrature(n=64)
    assert rel < 5e-3, f"solver {got} vs quadrature {want}, rel {rel}"
