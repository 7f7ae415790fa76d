"""Shared fixtures and the end-of-run acceptance summary hook."""

import numpy as np
import pytest

from hmbo import harness, interfaces
from hmbo.errors import NumericalError

_acceptance_lines = []


def record_acceptance(line: str) -> None:
    """Stash a one-line verdict; printed after the test run finishes."""
    _acceptance_lines.append(line)


@pytest.fixture
def rng():
    """Deterministic generator so property-style tests reproduce exactly."""
    return np.random.default_rng(20240817)


@pytest.fixture
def fail_at_64(monkeypatch):
    """Make the N = 64 run of a study break down numerically, to exercise
    the study's per-size failure containment."""
    run_flow = harness.run_flow

    def flaky(cfg, d0, **kw):
        if cfg.grid.nx == 64:
            raise NumericalError("non-finite field values at substep 3")
        return run_flow(cfg, d0, **kw)

    monkeypatch.setattr(harness, "run_flow", flaky)


@pytest.fixture
def scan_shapes(monkeypatch):
    """A list that gains, for each call of interfaces._scan_block, the
    broadcast shape (tiles, rows, columns, candidates) of its arguments:
    the call scans the shape's product of (node, segment) pairs, and the
    product of all but its last axis of nodes."""
    shapes, scan = [], interfaces._scan_block

    def counting(px, py, seg, nearest):
        shapes.append(np.broadcast_shapes(px.shape, py.shape, seg[0].shape))
        return scan(px, py, seg, nearest)

    monkeypatch.setattr(interfaces, "_scan_block", counting)
    return shapes


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)
