"""Uniform Cartesian grids and nodal scalar fields.

Nodes are vertex-centered: node (i, j) sits at (xmin + i*dx, ymin + j*dy)
with dx = (xmax - xmin) / (nx - 1), so the first and last nodes lie exactly
on the rectangle boundary.  Field values are stored as a (ny, nx) array,
row-major with y as the outer index.

The walls are homogeneous Neumann walls, and the one wall convention is the
mirror ghost node (_mirror_ghosts): past a wall, the field continues as its
mirror image about the wall's node row, so a ghost value equals the value of
the first node inside.  The centered normal derivative at every wall node of
this extension is exactly zero, and a level set meets the wall at a right
angle.  Every stencil that reaches past a wall reads the ghosts: the 5-point
Laplacian here, and the curved reconstruction's four-node cubic and
curvature differences in hmbo.interfaces.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Grid2D:
    """Tensor-product grid of nx-by-ny nodes over [xmin,xmax] x [ymin,ymax]."""

    nx: int
    ny: int
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.ymax - self.ymin) / (self.ny - 1)

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape of fields on this grid: (ny, nx)."""
        return (self.ny, self.nx)

    def x_coords(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    def y_coords(self) -> np.ndarray:
        return np.linspace(self.ymin, self.ymax, self.ny)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinate arrays X, Y, each of shape (ny, nx)."""
        return np.meshgrid(self.x_coords(), self.y_coords(), indexing="xy")


def make_grid(nx: int, ny: int, bounds) -> Grid2D:
    """Build a grid from node counts and bounds [xmin, xmax, ymin, ymax]."""
    if nx < 3 or ny < 3:
        raise ValidationError(f"need at least 3 nodes per axis, got nx={nx}, ny={ny}")
    xmin, xmax, ymin, ymax = (float(b) for b in bounds)
    if not (xmin < xmax and ymin < ymax):
        raise ValidationError(f"degenerate bounds {bounds!r}")
    return Grid2D(int(nx), int(ny), xmin, xmax, ymin, ymax)


@dataclass
class ScalarField:
    """Nodal values of a scalar function on a Grid2D.

    values has shape (ny, nx); entry [j, i] belongs to the node at
    (xmin + i*dx, ymin + j*dy).  All entries must be finite.
    """

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValidationError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("field contains non-finite values")
        self.values = v


def field_from_function(grid: Grid2D, fn) -> ScalarField:
    """Sample fn(x, y) at every node.  fn must accept numpy arrays."""
    X, Y = grid.mesh()
    return ScalarField(grid, np.asarray(fn(X, Y), dtype=float))


def _mirror_ghosts(v: np.ndarray) -> np.ndarray:
    """v with one ring of mirror ghost nodes: p[j + 1, i + 1] = v[j, i], and
    p[j + 1, 0] = v[j, 1] at the low x wall, and so on (the corners too)."""
    return np.pad(v, 1, mode="reflect")


def _laplacian_values(v: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """5-point Laplacian with mirror (Neumann) ghost nodes, on a raw array."""
    p = _mirror_ghosts(v)
    return (p[1:-1, :-2] - 2.0 * v + p[1:-1, 2:]) / (dx * dx) + (
        p[:-2, 1:-1] - 2.0 * v + p[2:, 1:-1]
    ) / (dy * dy)


def eval_bilinear(f: ScalarField, p):
    """Bilinear interpolation of f at a point p = (x, y) inside the domain,
    as a float; or at each row of an (n, 2) array of points, as an (n,) array.

    A point lies in the cell whose lower-left node is (floor(s_x), floor(s_y)),
    s = (p - lower-left corner of the domain) / spacing, clipped to the grid,
    at fractions s - floor(s) across it.
    """
    g = f.grid
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    # tolerate roundoff at the outer edges, reject genuinely outside points
    tol_x = 1e-12 * (g.xmax - g.xmin)
    tol_y = 1e-12 * (g.ymax - g.ymin)
    inside = (g.xmin - tol_x <= x) & (x <= g.xmax + tol_x)
    inside &= (g.ymin - tol_y <= y) & (y <= g.ymax + tol_y)
    if not np.all(inside):
        bx, by = p.reshape(-1, 2)[np.argmin(inside.ravel())]
        raise ValidationError(f"point ({bx}, {by}) outside domain")
    sx = (x - g.xmin) / g.dx
    sy = (y - g.ymin) / g.dy
    i = np.clip(np.floor(sx).astype(np.intp), 0, g.nx - 2)
    j = np.clip(np.floor(sy).astype(np.intp), 0, g.ny - 2)
    u = sx - i
    v = sy - j
    z = f.values
    val = (
        (1 - u) * (1 - v) * z[j, i]
        + u * (1 - v) * z[j, i + 1]
        + (1 - u) * v * z[j + 1, i]
        + u * v * z[j + 1, i + 1]
    )
    return float(val) if val.ndim == 0 else val
