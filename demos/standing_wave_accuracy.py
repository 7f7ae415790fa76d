"""Accuracy and energy behavior of the leapfrog wave stepper.

Propagates the fundamental Neumann standing mode on a sequence of grids and
prints the max-norm error against the separable exact solution together with
the observed convergence order and the relative drift of the logged discrete
energy.  Expected picture: error drops by ~4x per grid doubling (second
order), energy drift stays at the (omega*dt)^2 scale.
"""

import os
import tempfile

import numpy as np

from hmbo.fields import ScalarField, field_from_function, make_grid
from hmbo.wave import WaveParams, cfl_substep, wave_solve

TAU = 0.8
OMEGA = np.sqrt(2.0) * np.pi / 4.0  # frequency of the (1,1) mode on (-2,2)^2


def run_one(n):
    grid = make_grid(n, n, (-2.0, 2.0, -2.0, 2.0))
    mode = field_from_function(
        grid,
        lambda x, y: np.cos(np.pi * (x + 2.0) / 4.0) * np.cos(np.pi * (y + 2.0) / 4.0),
    )
    ut0 = ScalarField(grid, np.zeros(grid.shape))
    params = WaveParams(1.0, cfl_substep(1.0, grid, TAU), TAU)

    fd, log_path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        u = wave_solve(mode, ut0, params, energy_log=log_path)
        energy = np.genfromtxt(log_path, delimiter=",", skip_header=1)[:, 2]
    finally:
        os.remove(log_path)

    err = np.max(np.abs(u.values - np.cos(OMEGA * TAU) * mode.values))
    drift = np.max(np.abs(energy - energy[0])) / energy[0]
    return err, drift


if __name__ == "__main__":
    sizes = [17, 33, 65, 129]
    print(f"standing mode, tau = {TAU}, CFL 0.5")
    print("N      max error     order   energy drift")
    prev = None
    for n in sizes:
        err, drift = run_one(n)
        order = f"{np.log2(prev / err):5.2f}" if prev is not None else "    -"
        print(f"{n:<6d} {err:.6e}  {order}   {drift:.3e}")
        prev = err
