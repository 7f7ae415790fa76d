"""Time one workload set-up in a fresh interpreter, imports included.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed> <workdir>

Prints the seconds from before ``import numpy``/``import hmbo`` to the end
of the workload's ``setup``.  run.py starts several of these, one after
another, and reports their median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

src, name, seed, workdir = sys.argv[1:5]
sys.path.insert(0, src)

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[name].setup(int(seed), workdir)
print(repr(time.perf_counter() - T0))
