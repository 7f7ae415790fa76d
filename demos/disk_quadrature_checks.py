"""Dual-route verification of the wave propagation.

Route one is the grid leapfrog solver, route two the direct quadrature of
the disk (Poisson) representation of the 2-D wave solution.  The script
first checks the quadrature against four families of closed-form solutions
with polynomial initial velocity, then propagates smooth non-polynomial
data with both routes and compares pointwise values.  This is the same pair
of checks the `hmbo verify` subcommand runs.
"""

import numpy as np

from hmbo.harness import check_moments, solver_vs_quadrature
from hmbo.oracles import poisson_eval

if __name__ == "__main__":
    pts = [(0.05, -0.03), (-0.08, 0.02), (0.0, 0.1)]
    worst, bad = check_moments(pts)
    print(f"moment identities at {len(pts)} points: worst rel err {worst:.3e}")
    for line in bad:
        print("  " + line)

    # quadrature resolution has long converged at n_quad = 100 for smooth
    # data; the third argument is the initial velocity u_t(0), as the grid
    # solver takes it
    val_100 = poisson_eval(None, None, lambda y1, y2: np.cos(y1) * y2, 1.0, 0.2,
                           (0.1, 0.0), n_quad=100)
    val_200 = poisson_eval(None, None, lambda y1, y2: np.cos(y1) * y2, 1.0, 0.2,
                           (0.1, 0.0), n_quad=200)
    print(f"quadrature self-consistency (n_quad 100 vs 200): {abs(val_100 - val_200):.3e}")

    for n in (64, 128, 256):
        got, want, rel = solver_vs_quadrature(n=n)
        print(f"solver (N={n:>3d}) vs quadrature: {got:+.8f} vs {want:+.8f}  rel {rel:.3e}")
