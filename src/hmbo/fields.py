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
Laplacian here pads the array with them, and the point stencils of
hmbo.interfaces (the curved reconstruction's four-node cubic and the
curvature differences) read them through _fold, their index form.
"""

import functools
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
        """The nodes' x coordinates, read-only: one array per grid."""
        return self._coords[0]

    def y_coords(self) -> np.ndarray:
        return self._coords[1]

    @functools.cached_property
    def _coords(self) -> tuple[np.ndarray, np.ndarray]:
        out = np.linspace(self.xmin, self.xmax, self.nx), np.linspace(self.ymin, self.ymax, self.ny)
        for v in out:
            v.flags.writeable = False
        return out

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinate arrays X, Y, each of shape (ny, nx)."""
        return np.meshgrid(self.x_coords(), self.y_coords(), indexing="xy")


@dataclass(frozen=True)
class _SubGrid(Grid2D):
    """A box of a parent grid's nodes that keeps the parent's spacing bit for
    bit.  (xmax - xmin) / (nx - 1) on the box's own bounds need not give it
    back: fl(fl(3 * 0.1) / 3) != 0.1."""

    spacing: tuple[float, float] = (1.0, 1.0)
    dx = property(lambda self: self.spacing[0])
    dy = property(lambda self: self.spacing[1])


def _sub_grid(g: Grid2D, rows: slice, cols: slice) -> Grid2D:
    """The nodes [rows, cols] of g (two slices of unit step) as a grid with
    g's dx and dy."""
    xs, ys = g.x_coords()[cols], g.y_coords()[rows]
    return _SubGrid(xs.size, ys.size, float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1]), (g.dx, g.dy))


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


def _mirror_ghosts(v: np.ndarray, out: np.ndarray | None = None, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """v with one ring of mirror ghost nodes: p[j + 1, i + 1] = v[j, i], and
    p[j + 1, 0] = v[j, 1] at the low x wall, and so on (the corners too), as
    np.pad(v, 1, mode="reflect") gives it.  Filled into out, a
    (ny + 2, nx + 2) buffer, if given.

    With a row range lo:hi, only the rows lo - 1 .. hi of that array:
    p[j + 1 - lo, i + 1] = v[j, i], and the rows past the strip are v's
    rows lo - 1 and hi, or their mirrors at a wall; out then has
    hi - lo + 2 rows.  Every value is a copy, so a strip's rows are those
    of the whole array bit for bit.
    """
    ny, nx = v.shape
    hi = ny if hi is None else hi
    p = np.empty((hi - lo + 2, nx + 2)) if out is None else out
    p[1:-1, 1:-1] = v[lo:hi]
    p[0, 1:-1] = v[lo - 1 if lo > 0 else 1]
    p[-1, 1:-1] = v[hi if hi < ny else ny - 2]
    # the columns last, from the filled rows, so the corners are mirrored twice
    p[:, 0] = p[:, 2]
    p[:, -1] = p[:, -3]
    return p


def _fold(k, n):
    """The node that index k reads on an axis of n nodes under the mirror
    ghost convention: k itself inside, -k past the low wall and 2 (n - 1) - k
    past the high one, so for k in -1 .. n it reads the value that
    _mirror_ghosts writes at k + 1."""
    return np.where(k < 0, -k, np.where(k >= n, 2 * (n - 1) - k, k))


def _laplacian_values(v: np.ndarray, dx: float, dy: float, ghost=None, work=None, out=None,
                      lo: int = 0, hi: int | None = None) -> np.ndarray:
    """5-point Laplacian with mirror (Neumann) ghost nodes, on a raw array.

    It is (p_left - 2v + p_right)/dx^2 + (p_down - 2v + p_up)/dy^2, evaluated
    in that order.  ghost, work and out, if given, are the (ny + 2, nx + 2)
    ghost buffer and two (ny, nx) arrays it computes in; the result is out.
    With a row range lo:hi it is the Laplacian's rows lo:hi alone, from
    _mirror_ghosts' rows of that range: ghost has hi - lo + 2 rows and work
    and out hi - lo, and each element has the bits of the whole array's.
    """
    p = _mirror_ghosts(v, ghost, lo, hi)
    out = np.multiply(v[lo:hi], 2.0, out=out)
    work = np.subtract(p[1:-1, :-2], out, out=work)
    work += p[1:-1, 2:]
    work /= dx * dx
    np.subtract(p[:-2, 1:-1], out, out=out)
    out += p[2:, 1:-1]
    out /= dy * dy
    return np.add(work, out, out=out)


def eval_bilinear(f: ScalarField, p):
    """Bilinear interpolation of f at a point p = (x, y) inside the domain,
    as a float; or at each row of an (n, 2) array of points, as an (n,) array.

    A point lies in the cell whose lower-left node is (floor(s_x), floor(s_y)),
    s = (p - lower-left corner of the domain) / spacing, clipped to the grid,
    at fractions s - floor(s) across it (_bilinear_cells).
    """
    j, i, u, v = _bilinear_cells(f.grid, p)
    z = f.values
    val = _bilinear(u, v, z[j, i], z[j, i + 1], z[j + 1, i], z[j + 1, i + 1])
    return float(val) if val.ndim == 0 else val


def _bilinear_cells(g: Grid2D, p):
    """The cells and the fractions across them at which eval_bilinear reads
    the points p: the row j and column i of each cell's lower-left node, and
    the fractions v along y and u along x."""
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
    return j, i, sx - i, sy - j


def _bilinear(u, v, z00, z01, z10, z11):
    """The bilinear blend at fractions (u, v) of a cell's corner values:
    z00 at its lower-left node, z01 one column on, z10 one row up."""
    return (1 - u) * (1 - v) * z00 + u * (1 - v) * z01 + (1 - u) * v * z10 + u * v * z11
