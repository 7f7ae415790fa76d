"""Grid, scalar field, Laplacian and bilinear sampling tests.

The Laplacian uses mirror ghost nodes, so pure cosine modes aligned with the
box are exact discrete eigenvectors including the boundary rows; that fact is
the backbone of the wave solver checks and is pinned here directly.
"""

import numpy as np
import pytest

from hmbo.errors import ValidationError
from hmbo.fields import (
    Grid2D,
    ScalarField,
    _fold,
    _laplacian_values,
    _mirror_ghosts,
    _sub_grid,
    eval_bilinear,
    field_from_function,
    make_grid,
)


def _laplacian(f):
    return _laplacian_values(f.values, f.grid.dx, f.grid.dy)


def test_grid_spacing_and_shape():
    g = make_grid(5, 9, (-2.0, 2.0, 0.0, 2.0))
    assert g.dx == 1.0
    assert g.dy == 0.25
    assert g.shape == (9, 5)
    assert np.allclose(g.x_coords(), [-2, -1, 0, 1, 2])
    X, Y = g.mesh()
    assert X.shape == (9, 5)
    assert X[0, 1] == -1.0 and Y[4, 0] == 1.0


def test_sub_grid_keeps_the_spacing_its_bounds_lose():
    """A box of a grid's nodes keeps the grid's dx and dy bit for bit, with
    its first and last nodes as bounds, where a grid built from those
    bounds does not: dx = 0.1, and fl(fl(3 * 0.1) / 3) != 0.1."""
    g = make_grid(31, 21, (0.0, 3.0, 0.0, 2.0))
    assert g.dx == g.dy == 0.1
    box = _sub_grid(g, slice(5, 9), slice(0, 4))
    assert box.shape == (4, 4)
    xs, ys = g.x_coords(), g.y_coords()
    assert (box.xmin, box.xmax, box.ymin, box.ymax) == (xs[0], xs[3], ys[5], ys[8])
    assert box.dx == g.dx and box.dy == g.dy
    assert make_grid(4, 4, (box.xmin, box.xmax, box.ymin, box.ymax)).dx != g.dx


def test_grid_coordinates_are_read_only_and_built_once():
    g = make_grid(5, 9, (-2.0, 2.0, 0.0, 2.0))
    assert g.x_coords() is g.x_coords() and g.y_coords() is g.y_coords()
    with pytest.raises(ValueError):
        g.x_coords()[0] = 1.0


@pytest.mark.parametrize("nx,ny", [(2, 8), (8, 2), (1, 1)])
def test_make_grid_rejects_degenerate_axes(nx, ny):
    with pytest.raises(ValidationError):
        make_grid(nx, ny, (-1, 1, -1, 1))


def test_make_grid_rejects_bad_bounds():
    with pytest.raises(ValidationError):
        make_grid(8, 8, (1.0, -1.0, 0.0, 1.0))


def test_scalar_field_validates_shape_and_finiteness():
    g = make_grid(4, 4, (-1, 1, -1, 1))
    with pytest.raises(ValidationError):
        ScalarField(g, np.zeros((3, 4)))
    bad = np.zeros(g.shape)
    bad[1, 2] = np.nan
    with pytest.raises(ValidationError):
        ScalarField(g, bad)


def test_laplacian_of_paraboloid_interior():
    """f = x^2 + y^2 has Laplacian 4 wherever the stencil sees true neighbors."""
    g = make_grid(21, 21, (-2, 2, -2, 2))
    f = field_from_function(g, lambda x, y: x * x + y * y)
    lap = _laplacian(f)
    assert np.allclose(lap[1:-1, 1:-1], 4.0, atol=1e-10)


@pytest.mark.parametrize("kx,ky", [(1, 0), (0, 2), (2, 3)])
def test_laplacian_cosine_mode_is_exact_eigenvector(kx, ky):
    """Box-aligned cosine modes satisfy the zero-flux boundary exactly.

    The discrete eigenvalue per axis is -(4/dx^2) sin^2(k pi dx / (2 L)),
    and with mirror ghosts the relation holds at every node, boundary
    included, not just in the interior.
    """
    g = make_grid(33, 17, (-2, 2, -1, 1))
    lx, ly = g.xmax - g.xmin, g.ymax - g.ymin
    f = field_from_function(
        g,
        lambda x, y: np.cos(kx * np.pi * (x - g.xmin) / lx)
        * np.cos(ky * np.pi * (y - g.ymin) / ly),
    )
    lam_x = -(4.0 / g.dx**2) * np.sin(kx * np.pi * g.dx / (2 * lx)) ** 2
    lam_y = -(4.0 / g.dy**2) * np.sin(ky * np.pi * g.dy / (2 * ly)) ** 2
    got = _laplacian(f)
    want = (lam_x + lam_y) * f.values
    assert np.max(np.abs(got - want)) < 1e-10 * (abs(lam_x) + abs(lam_y) + 1.0)


def test_laplacian_linearity(rng):
    g = make_grid(19, 23, (-1, 1, -1, 1))
    u = ScalarField(g, rng.standard_normal(g.shape))
    v = ScalarField(g, rng.standard_normal(g.shape))
    combo = ScalarField(g, 0.7 * u.values - 1.3 * v.values)
    got = _laplacian(combo)
    want = 0.7 * _laplacian(u) - 1.3 * _laplacian(v)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def _padded_laplacian(v, dx, dy):
    """The Laplacian as np.pad builds its ghosts, one temporary per
    operation: the reference the buffered path must match bit for bit."""
    p = np.pad(v, 1, mode="reflect")
    return (p[1:-1, :-2] - 2.0 * v + p[1:-1, 2:]) / (dx * dx) + (
        p[:-2, 1:-1] - 2.0 * v + p[2:, 1:-1]
    ) / (dy * dy)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("shape", [(7, 5), (2, 2), (3, 11)])
def test_mirror_ghosts_match_reflect_padding(rng, shape):
    v = rng.standard_normal(shape)
    want = np.pad(v, 1, mode="reflect")
    assert np.array_equal(_bits(_mirror_ghosts(v)), _bits(want))
    assert np.array_equal(_bits(_mirror_ghosts(v.T)), _bits(np.pad(v.T, 1, mode="reflect")))


@pytest.mark.parametrize("shape", [(7, 5), (3, 3), (3, 11), (12, 3)])
def test_fold_reads_what_mirror_ghosts_write(rng, shape):
    """At every index j in -1 .. ny and i in -1 .. nx, ghosts included,
    the node that _fold gives on each axis holds the value that
    _mirror_ghosts writes at (j + 1, i + 1), bit for bit, on random arrays
    and their transposes, with 3-node axes, the fewest make_grid allows."""
    for v in (rng.standard_normal(shape), rng.standard_normal(shape).T):
        ny, nx = v.shape
        j, i = np.arange(-1, ny + 1)[:, None], np.arange(-1, nx + 1)
        assert np.array_equal(_bits(v[_fold(j, ny), _fold(i, nx)]), _bits(_mirror_ghosts(v)))


@pytest.mark.parametrize("shape", [(7, 5), (2, 2), (5, 9)])
def test_buffered_laplacian_is_bit_identical(rng, shape):
    """In new arrays or in reused buffers, the Laplacian has the bits of the
    np.pad form; a second field in the same buffers too."""
    ny, nx = shape
    dx, dy = 0.37, 0.21
    ghost, work, out = np.empty((ny + 2, nx + 2)), np.empty(shape), np.empty(shape)
    for _ in range(2):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        want = _padded_laplacian(v, dx, dy)
        assert np.array_equal(_bits(_laplacian_values(v, dx, dy)), _bits(want))
        got = _laplacian_values(v, dx, dy, ghost, work, out)
        assert got is out
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("shape", [(7, 5), (3, 4), (9, 6)])
def test_laplacian_rows_are_the_whole_arrays_rows(rng, shape):
    """The ghost rows and the Laplacian of a row range lo:hi, the first and
    last rows included, have the bits of the whole array's rows."""
    ny, nx = shape
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    ghosts, lap = _mirror_ghosts(v), _laplacian_values(v, 0.37, 0.21)
    for lo in range(ny):
        for hi in range(lo + 1, ny + 1):
            assert np.array_equal(_bits(_mirror_ghosts(v, None, lo, hi)), _bits(ghosts[lo:hi + 2]))
            block, work, out = np.empty((hi - lo + 2, nx + 2)), np.empty((hi - lo, nx)), np.empty((hi - lo, nx))
            got = _laplacian_values(v, 0.37, 0.21, block, work, out, lo, hi)
            assert got is out
            assert np.array_equal(_bits(got), _bits(lap[lo:hi]))


def test_eval_bilinear_reproduces_bilinear_functions(rng):
    """Sampling is exact for a + b x + c y + d x y, the interpolation class."""
    g = make_grid(9, 7, (-2, 2, -1, 1))
    a, b, c, d = 0.3, -1.2, 0.8, 0.5
    f = field_from_function(g, lambda x, y: a + b * x + c * y + d * x * y)
    for _ in range(25):
        p = rng.uniform((-2, -1), (2, 1))
        want = a + b * p[0] + c * p[1] + d * p[0] * p[1]
        assert abs(eval_bilinear(f, p) - want) < 1e-12


def test_eval_bilinear_takes_arrays_of_points(rng):
    """An (n, 2) array of points gives the n values of its rows, each the
    float a single point gives."""
    g = make_grid(9, 7, (-2, 2, -1, 1))
    f = ScalarField(g, rng.standard_normal(g.shape))
    pts = np.vstack([rng.uniform((-2, -1), (2, 1), size=(30, 2)), [[2.0, 1.0], [-2.0, -1.0]]])
    got = eval_bilinear(f, pts)
    assert got.shape == (32,)
    singles = [eval_bilinear(f, p) for p in pts]
    assert all(type(v) is float for v in singles)
    assert np.array_equal(got, singles)
    with pytest.raises(ValidationError):
        eval_bilinear(f, np.vstack([pts, [[0.0, 1.5]]]))


def test_eval_bilinear_at_nodes_matches_values():
    g = make_grid(6, 5, (-1, 1, -1, 1))
    f = field_from_function(g, lambda x, y: np.sin(x) + y)
    assert eval_bilinear(f, (g.x_coords()[2], g.y_coords()[3])) == pytest.approx(
        f.values[3, 2], abs=1e-14
    )


def test_eval_bilinear_rejects_outside_points():
    g = make_grid(5, 5, (-1, 1, -1, 1))
    f = ScalarField(g, np.full(g.shape, 0.0))
    with pytest.raises(ValidationError):
        eval_bilinear(f, (1.5, 0.0))

