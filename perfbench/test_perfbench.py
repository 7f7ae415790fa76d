"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench

They check the tracer and the computed counts against the program, on
inputs small enough to run in a few seconds.
"""

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from hmbo import fields, flow, wave  # noqa: E402


@pytest.mark.parametrize(
    "tau, dt",
    [
        (0.1, 0.0125),  # tau a multiple of dt
        (0.004, 0.01),  # tau shorter than dt: one shortened starter step
        (0.1, 0.03),    # three full substeps and a remainder
    ],
)
def test_substeps_match_wave_solve(monkeypatch, tau, dt):
    # wave_solve evaluates one Laplacian per substep, starter and remainder
    # steps included; count those calls to get the substeps it really took
    calls = []
    lap = wave._laplacian_values
    monkeypatch.setattr(wave, "_laplacian_values", lambda *a: calls.append(1) or lap(*a))
    grid = fields.make_grid(17, 17, workloads.DOMAIN)
    u0 = fields.field_from_function(grid, lambda x, y: np.cos(x) * np.cos(y))
    ut0 = fields.ScalarField(grid, np.zeros(grid.shape))
    # a plain namespace: WaveParams itself rejects tau < dt
    params = types.SimpleNamespace(c2=1.0, dt=dt, tau=tau)
    wave.wave_solve(u0, ut0, params)
    assert len(calls) == spans.wave_substeps(tau, dt)


def _small_damped_flow(steps=4):
    grid = fields.make_grid(33, 33, workloads.DOMAIN)
    cfg = flow.HmboConfig.hmcf(grid, flow.PhysicalParams(1.0, 1.0, 1.0), 1.0 / 300.0,
                               max_steps=steps)
    d0 = fields.field_from_function(grid, lambda x, y: 1.0 - np.hypot(x, y))
    return flow.run_flow(cfg, d0), cfg


def test_self_times_non_negative_and_sum_to_parent():
    tracer = spans.Tracer()
    with tracer:
        records, cfg = _small_damped_flow()
    assert tracer.spans
    assert spans.check_self_times(tracer.spans) == []
    selft = spans.self_times(tracer.spans)
    kids = spans.children_of(tracer.spans)
    for s in tracer.spans:
        assert selft[s.id] >= 0.0
        total = selft[s.id] + sum(c.duration for c in kids[s.id])
        assert total == pytest.approx(s.duration, rel=1e-9, abs=1e-12)

    m = spans.layer_metrics(tracer.spans)
    assert m["flow.steps"][0] == len(records) == 4
    assert m["wave.substeps"][0] == 4 * spans.wave_substeps(cfg.tau, cfg.dt)
    segs = [s.counts["segments"] for s in tracer.spans if s.name == "interfaces.extract_zero_set"]
    pairs = [s.counts["pairs"] for s in tracer.spans if s.name == "interfaces.signed_distance"]
    assert m["interfaces.segments"][0] == sum(segs)
    assert m["interfaces.pairs"][0] == sum(pairs) > 0


def test_check_self_times_flags_a_child_outside_its_parent():
    tid = threading.get_ident()
    parent = spans.Span(0, "flow.run_flow", None, tid)
    child = spans.Span(1, "flow.hmbo_step", 0, tid)
    parent.start, parent.end = 0.0, 1.0
    child.start, child.end = 0.5, 1.5
    assert spans.check_self_times([parent, child])


def test_wrappers_removed_after_trace_and_after_error():
    tracer = spans.Tracer()
    with tracer:
        assert spans.leftover_wrappers()
    assert spans.leftover_wrappers() == []
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert spans.leftover_wrappers() == []


def _study_digests(tmp_path, tag, traced):
    out = tmp_path / tag
    argv = ["convergence", "--sizes", "16,24,32", "--n-tau", "20", "--out", str(out)]
    tracer = spans.Tracer()
    if traced:
        with tracer:
            rc, _, _ = workloads.call_cli(argv)
    else:
        rc, _, _ = workloads.call_cli(argv)
    assert rc == 0
    names = ["error_table.csv"] + [f"run_{n}.csv" for n in (16, 24, 32)]
    return [workloads.sha256_file(out / n) for n in names], tracer.spans


def test_traced_and_untraced_study_outputs_match(tmp_path):
    plain, _ = _study_digests(tmp_path, "plain", traced=False)
    traced, recorded = _study_digests(tmp_path, "traced", traced=True)
    assert plain == traced
    # every pool job hangs off the study span that submitted it
    study = [s for s in recorded if s.name == "harness.convergence_study"]
    jobs = [s for s in recorded if s.name == spans.JOB_SPAN]
    assert len(study) == 1 and len(jobs) == 3
    assert all(j.parent == study[0].id for j in jobs)
    assert spans.check_self_times(recorded) == []


def test_shifted_bounds():
    assert workloads.shifted_bounds(0, 128) == workloads.DOMAIN
    dx = 4.0 / 127
    for seed in range(1, 20):
        b = workloads.shifted_bounds(seed, 128)
        assert b == workloads.shifted_bounds(seed, 128)
        assert abs(b[0] + 2.0) <= 0.5 * dx and abs(b[2] + 2.0) <= 0.5 * dx
        assert b[1] - b[0] == pytest.approx(4.0) and b[3] - b[2] == pytest.approx(4.0)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hmcf-track", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_trace_reports_every_per_layer_metric_of_the_benchmark():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    reported = set(spans.layer_metrics([])) | {"trace.overhead_s", "trace.spans"}
    assert reported == {m["name"] for m in bench["per_layer"]}
