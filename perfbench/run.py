"""hmbo benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports hmbo from its ``src`` tree.
Workloads (see README.md for why each exists): mcf-study, hmcf-track,
wave-oracle; ``--workload all`` runs the three one after another, each in
its own process.

--trace 0 prints the end-to-end metrics: the timed section is repeated
while another repetition fits in --seconds (at least once) and wall_s is
the median; setup_s is the median of several set-ups in fresh
interpreters.  --trace 1 runs the workload once untraced and once with
the span tracer installed and prints the per-layer metrics, the tracing
overhead and whether both runs gave the same output digests.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when the benchmark
ran (correct may still be false), 2 when it could not run at all.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("mcf-study", "hmcf-track", "wave-oracle")
SETUP_PROBES = 9
STUDY_JOBS = 4  # grid sizes of mcf-study, the most the harness pool uses


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Machine and software facts recorded next to every result."""
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(idx / "type").lower().replace("unified", "")
        caches[f"L{_read(idx / 'level')}{kind[:1]}"] = _read(idx / "size")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hmbo").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = os.cpu_count() or 1
    return {
        "cpu": cpu or platform.processor(),
        "nproc": nproc,
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "harness_workers": min(STUDY_JOBS, nproc),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def setup_seconds(name: str, seed: int, workdir: Path) -> list:
    """Set-up times of SETUP_PROBES fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), name, str(seed),
             str(workdir)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return times


def run_checked(wl, ctx, outdir: Path):
    """One timed run plus its checks: ((wall s, process cpu s), Outcome)."""
    from workloads import Outcome

    outdir.mkdir()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        raw = wl.run(ctx, str(outdir))
    except Exception as exc:  # noqa: BLE001 - a failing run is a failed operation
        traceback.print_exc()
        elapsed = (time.perf_counter() - t0, time.process_time() - c0)
        res = Outcome()
        res.op("run", [f"{type(exc).__name__}: {exc}"])
        return elapsed, res
    elapsed = (time.perf_counter() - t0, time.process_time() - c0)
    return elapsed, wl.check(ctx, raw)


def report_outcome(res) -> None:
    for op, why in res.ops:
        print(f"op {op}: {'ok' if why is None else 'FAILED: ' + why}")
    for name, (value, unit) in res.figures.items():
        print(f"figure {name} = {value!r} {unit}")
    for name, digest in res.digests.items():
        print(f"digest {name} {digest}")


def metric_lines(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")


def timed(wl, seed: int, seconds: float, work: Path):
    """End-to-end metrics of one workload."""
    setups = setup_seconds(wl.name, seed, work)
    ctx = wl.setup(seed, str(work))
    samples, outcomes = [], []
    start = time.perf_counter()
    while True:
        elapsed, res = run_checked(wl, ctx, work / f"rep{len(samples)}")
        shutil.rmtree(work / f"rep{len(samples)}")
        samples.append(elapsed)
        outcomes.append(res)
        if time.perf_counter() - start + statistics.median(w for w, _ in samples) > seconds:
            break
    report_outcome(outcomes[0])
    digests = [res.digests for res in outcomes]
    repeatable = all(d == digests[0] for d in digests)
    print("op repeatability: " + ("ok" if repeatable else
                                  "FAILED: output digests differ between repetitions"))
    attempted = sum(len(res.ops) for res in outcomes) + 1
    failed = sum(res.failed for res in outcomes) + (not repeatable)
    print(f"samples (wall s, cpu s): {len(samples)}: {samples!r}")
    print(f"setup samples: {setups!r}")
    metrics = {
        "wall_s": {"value": statistics.median(w for w, _ in samples), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        "oracle_err": {"value": statistics.median(r.oracle_err for r in outcomes), "unit": "1"},
    }
    metric_lines(metrics)
    return failed == 0, attempted, failed, metrics


def traced(wl, seed: int, work: Path):
    """Per-layer metrics: one untraced and one traced run of the workload."""
    import spans

    ctx = wl.setup(seed, str(work))
    (plain_s, _), plain = run_checked(wl, ctx, work / "untraced")
    tracer = spans.Tracer()
    with tracer:
        ctx = wl.setup(seed, str(work))
        (traced_s, _), res = run_checked(wl, ctx, work / "traced")
    leftover = spans.leftover_wrappers()
    bad_spans = spans.check_self_times(tracer.spans)
    report_outcome(res)
    checks = [
        ("traced digests equal untraced", plain.digests == res.digests),
        ("tracing wrappers removed", not leftover),
        ("self times non-negative and nested", not bad_spans),
    ]
    for what, ok in checks:
        print(f"op {what}: {'ok' if ok else 'FAILED'}")
    for line in leftover + bad_spans[:10]:
        print("   ", line)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    spans.write_spans(tracer.spans, spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print(f"wall untraced {plain_s!r} s, traced {traced_s!r} s")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in spans.layer_metrics(tracer.spans).items()}
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    metric_lines(metrics)
    attempted = len(plain.ops) + len(res.ops) + len(checks)
    failed = plain.failed + res.failed + sum(1 for _, ok in checks if not ok)
    return failed == 0, attempted, failed, metrics


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.rstrip("\n").splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hmbo" / "__init__.py").is_file():
        print(f"error: no hmbo package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # the study keeps its default worker count, min(sizes, cpu count)
    os.environ.pop("HMCF_THREADS", None)
    sys.path.insert(0, str(SRC))
    import hmbo

    if Path(hmbo.__file__).resolve().parent != SRC / "hmbo":
        print(f"error: hmbo imported from {hmbo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        if args.trace:
            correct, attempted, failed, metrics = traced(wl, args.seed, work)
        else:
            correct, attempted, failed, metrics = timed(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
