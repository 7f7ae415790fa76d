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
    _laplacian_values,
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

