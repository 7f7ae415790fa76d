"""Outside-in span tracing of the hmbo layers.

The tracer replaces module attributes of the hmbo package with timing
wrappers, on the names that callers actually resolve (``flow.hmbo_step``
calls ``signed_distance`` through ``hmbo.flow``'s globals, so that is the
attribute patched).  No program code changes.  Each call records a span
(name, start, end, parent, thread).  Parent stacks are per thread; work
that ``convergence_study`` hands to its thread pool is attached to the
span that submitted it, through a pool subclass patched in for
``hmbo.harness.ThreadPoolExecutor``.

Spans stay in memory until the run ends.  ``layer_metrics`` turns them
into the per-layer figures; ``write_spans`` dumps them as JSON lines.
"""

import functools
import importlib
import inspect
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

# module -> attributes to wrap.  The span name is taken from the wrapped
# function itself ("interfaces.signed_distance"), so one function reached
# through several modules gives spans of one name.
WRAPPED = {
    "hmbo.cli": [
        "cli_main", "convergence_study", "verify_suite", "hmcf_circle_radius",
        "exact_mcf_series", "write_radius_csv",
    ],
    "hmbo.harness": [
        "run_flow", "build_run", "radius_history", "error_integral",
        "write_run_csv", "write_error_table", "write_config_echo",
        "exact_mcf_radius", "wave_solve", "poisson_eval", "make_grid",
        "field_from_function", "extract_zero_set", "average_radius",
        "check_moments", "solver_vs_quadrature",
    ],
    "hmbo.flow": [
        "run_flow", "hmbo_step", "init_history", "wave_solve",
        "extract_zero_set", "signed_distance", "has_interface", "average_radius",
    ],
    "hmbo.wave": ["wave_solve"],
    "hmbo.interfaces": [
        "extract_zero_set", "signed_distance", "has_interface", "average_radius",
    ],
    "hmbo.oracles": [
        "hmcf_circle_radius", "exact_mcf_radius", "exact_mcf_series", "poisson_eval",
    ],
    "hmbo.fields": ["make_grid", "field_from_function"],
}

POOL_MODULE = "hmbo.harness"
POOL_ATTR = "ThreadPoolExecutor"
JOB_SPAN = "harness.study_job"


def wave_substeps(tau: float, dt: float) -> int:
    """Leapfrog substeps wave_solve takes for a window tau at step dt.

    Mirrors wave_solve: floor(tau/dt) full substeps plus one shortened
    substep for a remainder above 1e-12*tau; a window shorter than dt is a
    single shortened starter step.
    """
    n_full = math.floor(tau / dt + 1e-9)
    if n_full == 0:
        return 1
    rem = tau - n_full * dt
    return n_full + (1 if rem >= 1e-12 * tau else 0)


def _meter_signed_distance(a, result):
    return {"pairs": a["f"].values.size * a["curve"].n_segments}


def _meter_extract(a, result):
    return {
        "nodes": a["f"].values.size,
        "segments": result.n_segments,
        "vertices": result.n_vertices,
    }


def _meter_wave(a, result):
    u0, params = a["u0"], a["params"]
    substeps = wave_substeps(params.tau, params.dt)
    nodes = u0.values.size
    # minimal traffic of a leapfrog substep: read u^{n-1} and u^n, write u^{n+1}
    return {
        "substeps": substeps,
        "node_substeps": nodes * substeps,
        "bytes": 3 * u0.values.itemsize * nodes * substeps,
    }


def _meter_write(a, result):
    return {"bytes_written": os.path.getsize(a["path"])}


def _meter_cli(a, result):
    return {"exit_nonzero": int(result != 0)}


METERS = {
    "interfaces.signed_distance": _meter_signed_distance,
    "interfaces.extract_zero_set": _meter_extract,
    "wave.wave_solve": _meter_wave,
    "harness.write_run_csv": _meter_write,
    "harness.write_error_table": _meter_write,
    "harness.write_config_echo": _meter_write,
    "cli.cli_main": _meter_cli,
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None  # id of the span that caused this one
    thread: int
    start: float = 0.0
    end: float = 0.0
    counts: dict | None = None  # work done, from METERS

    @property
    def duration(self) -> float:
        return self.end - self.start


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans while installed; install() and uninstall() patch and
    restore the module attributes listed in WRAPPED."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self):
        st = self._stack()
        return st[-1] if st else None

    def _open(self, name, parent) -> Span:
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident())
            self.spans.append(span)
        self._stack().append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def call(self, name, parent, fn, *args, **kwargs):
        """Run fn inside a span whose parent is given explicitly."""
        span = self._open(name, parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, fn):
        """Timing wrapper around fn; its __wrapped__ is fn."""
        name = span_name(fn)
        meter = METERS.get(name)
        sig = inspect.signature(fn) if meter is not None else None

        def wrapper(*args, **kwargs):
            span = self._open(name, self.current())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if meter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = meter(bound.arguments, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        tracer = self

        class TracingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.call, JOB_SPAN, tracer.current(), fn, *args, **kwargs)

        try:
            for modname, attrs in WRAPPED.items():
                mod = importlib.import_module(modname)
                for attr in attrs:
                    original = getattr(mod, attr)
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(original))
            pool_mod = importlib.import_module(POOL_MODULE)
            self._saved.append((pool_mod, POOL_ATTR, getattr(pool_mod, POOL_ATTR)))
            setattr(pool_mod, POOL_ATTR, TracingPool)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def leftover_wrappers() -> list[str]:
    """Names in WRAPPED (and the pool) that still hold a tracing wrapper."""
    left = []
    for modname, attrs in WRAPPED.items():
        mod = importlib.import_module(modname)
        left += [f"{modname}.{a}" for a in attrs if hasattr(getattr(mod, a), "__wrapped__")]
    if getattr(importlib.import_module(POOL_MODULE), POOL_ATTR) is not ThreadPoolExecutor:
        left.append(f"{POOL_MODULE}.{POOL_ATTR}")
    return left


# -- analysis --------------------------------------------------------------

def children_of(spans):
    kids = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children may run on other threads (pool jobs), so coverage is the union
    of the children's intervals clipped to the parent's.
    """
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered = 0.0
        lo = s.start
        for c in sorted(kids[s.id], key=lambda c: c.start):
            a, b = max(c.start, lo), min(c.end, s.end)
            if b > a:
                covered += b - a
                lo = b
        out[s.id] = s.duration - covered
    return out


def _outermost(spans, names):
    """Spans named in `names` that have no ancestor named in `names`."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def _descendants(spans, root_names):
    kids = children_of(spans)
    todo = [s for s in spans if s.name in root_names]
    seen = []
    while todo:
        s = todo.pop()
        for c in kids[s.id]:
            seen.append(c)
            todo.append(c)
    return seen


def layer_metrics(spans) -> dict:
    """Per-layer figures from one traced run, as name -> (value, unit)."""
    selft = self_times(spans)

    def busy(*names):
        return sum((s.duration for s in _outermost(spans, set(names))), 0.0)

    def count(*names):
        return sum(1 for s in spans if s.name in names)

    def total(name, key):
        return sum(s.counts[key] for s in spans if s.name == name and s.counts)

    def self_of(prefix):
        return sum((selft[s.id] for s in spans if s.name.startswith(prefix)), 0.0)

    def per(num_s, den, scale=1e9):
        return num_s * scale / den if den else 0.0

    redistance_s = busy("interfaces.signed_distance")
    pairs = total("interfaces.signed_distance", "pairs")
    extract_s = busy("interfaces.extract_zero_set")
    extract_nodes = total("interfaces.extract_zero_set", "nodes")
    wave_s = busy("wave.wave_solve")
    node_substeps = total("wave.wave_solve", "node_substeps")
    substeps = total("wave.wave_solve", "substeps")
    study_runs = [s for s in _descendants(spans, {"harness.convergence_study"})
                  if s.name == "flow.run_flow"]
    jobs = [s for s in spans if s.name == JOB_SPAN]

    return {
        "interfaces.redistance_s": (redistance_s, "s"),
        "interfaces.pairs": (pairs, "count"),
        "interfaces.redistance_ns_per_pair": (per(redistance_s, pairs), "ns"),
        "interfaces.extract_s": (extract_s, "s"),
        "interfaces.extract_ns_per_node": (per(extract_s, extract_nodes), "ns"),
        "interfaces.segments": (total("interfaces.extract_zero_set", "segments"), "count"),
        "interfaces.vertices": (total("interfaces.extract_zero_set", "vertices"), "count"),
        "interfaces.aux_s": (busy("interfaces.has_interface", "interfaces.average_radius"), "s"),
        "wave.solve_s": (wave_s, "s"),
        "wave.calls": (count("wave.wave_solve"), "count"),
        "wave.substeps": (substeps, "count"),
        "wave.ns_per_node_substep": (per(wave_s, node_substeps), "ns"),
        "wave.bytes_per_substep": (
            total("wave.wave_solve", "bytes") / substeps if substeps else 0.0, "B-computed"),
        "oracles.rk4_s": (busy("oracles.hmcf_circle_radius"), "s"),
        "oracles.rk4_calls": (count("oracles.hmcf_circle_radius"), "count"),
        "oracles.quadrature_s": (busy("oracles.poisson_eval"), "s"),
        "oracles.quadrature_calls": (count("oracles.poisson_eval"), "count"),
        "oracles.exact_s": (busy("oracles.exact_mcf_radius", "oracles.exact_mcf_series"), "s"),
        "flow.steps": (count("flow.hmbo_step"), "count"),
        "flow.step_s": (busy("flow.hmbo_step"), "s"),
        "flow.self_s": (self_of("flow."), "s"),
        "flow.init_history_s": (busy("flow.init_history"), "s"),
        "harness.study_s": (busy("harness.convergence_study"), "s"),
        "harness.self_s": (self_of("harness."), "s"),
        "harness.io_s": (busy("harness.write_run_csv", "harness.write_error_table",
                              "harness.write_config_echo"), "s"),
        "harness.bytes_written": (
            sum(total(n, "bytes_written") for n in
                ("harness.write_run_csv", "harness.write_error_table",
                 "harness.write_config_echo")), "B"),
        "harness.workers": (len({s.thread for s in jobs}), "count"),
        "harness.critical_path_s": (max((s.duration for s in study_runs), default=0.0), "s"),
        "cli.self_s": (self_of("cli."), "s"),
        "cli.exit_nonzero": (total("cli.cli_main", "exit_nonzero"), "count"),
        "fields.setup_s": (busy("fields.make_grid", "fields.field_from_function"), "s"),
    }


def check_self_times(spans) -> list[str]:
    """Invariants of the self-time computation; returns the violations.

    Every self time is non-negative, and for a span whose children all ran
    on its own thread, self time plus the children's durations is the
    span's duration.
    """
    selft = self_times(spans)
    kids = children_of(spans)
    bad = []
    for s in spans:
        if selft[s.id] < -1e-9:
            bad.append(f"{s.name}#{s.id}: negative self time {selft[s.id]:.3g}")
        ks = kids[s.id]
        if ks and all(c.thread == s.thread for c in ks):
            gap = s.duration - selft[s.id] - sum(c.duration for c in ks)
            if abs(gap) > 1e-9 * max(1.0, s.duration):
                bad.append(f"{s.name}#{s.id}: self + children differ from span by {gap:.3g}")
    return bad


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")
