"""Zero-set extraction, exact segment distance, and redistancing tests."""

import numpy as np
import pytest

from hmbo.errors import ValidationError
from hmbo.fields import ScalarField, constant_field, field_from_function, make_grid
from hmbo.interfaces import (
    InterfaceCurve,
    SignConvention,
    average_radius,
    extract_zero_set,
    has_interface,
    min_segment_distance,
    signed_distance,
    write_interface_csv,
)

# frozen oracle: mean origin-distance of the ellipse (a=1, b=0.5) sampled
# uniformly in angle, from an independent 1e6-point quadrature
_ELLIPSE_MEAN_RADIUS = 0.7709822125950198


def _circle_field(grid, r0=1.0):
    return field_from_function(grid, lambda x, y: np.hypot(x, y) - r0)


def _smooth_random_field(grid, rng, k_max=3):
    X, Y = grid.mesh()
    lx, ly = grid.xmax - grid.xmin, grid.ymax - grid.ymin
    out = np.zeros(grid.shape)
    for i in range(k_max):
        for j in range(k_max):
            out += rng.normal() * np.cos(i * np.pi * (X - grid.xmin) / lx) * np.cos(
                j * np.pi * (Y - grid.ymin) / ly
            )
    return ScalarField(grid, out)


# ---------------------------------------------------------------------------
# extraction


def test_extract_vertical_line_is_exact():
    g = make_grid(33, 21, (-2, 2, -1, 1))
    curve = extract_zero_set(field_from_function(g, lambda x, y: x - 0.3))
    assert curve.n_vertices == g.ny
    assert curve.n_segments == g.ny - 1
    assert np.max(np.abs(curve.vertices[:, 0] - 0.3)) < 1e-12


def test_extract_diagonal_line_is_exact():
    g = make_grid(25, 25, (-1, 1, -1, 1))
    curve = extract_zero_set(field_from_function(g, lambda x, y: x + y))
    assert curve.n_vertices > 0
    assert np.max(np.abs(curve.vertices.sum(axis=1))) < 1e-12


@pytest.mark.parametrize("n", [64, 256])
def test_extract_circle_vertices_near_radius(n):
    g = make_grid(n, n, (-2, 2, -2, 2))
    curve = extract_zero_set(_circle_field(g))
    radii = np.hypot(curve.vertices[:, 0], curve.vertices[:, 1])
    assert np.max(np.abs(radii - 1.0)) < 1.5 * g.dx


def test_extract_uniform_sign_is_empty():
    g = make_grid(9, 9, (-1, 1, -1, 1))
    curve = extract_zero_set(constant_field(g, 1.0))
    assert curve.is_empty
    assert curve.n_vertices == 0


def test_has_interface_counts_zero_as_positive():
    g = make_grid(3, 3, (0, 1, 0, 1))
    vals = np.zeros(g.shape)
    assert not has_interface(ScalarField(g, vals))  # all "positive"
    vals2 = np.zeros(g.shape)
    vals2[0, 0] = -1.0
    assert has_interface(ScalarField(g, vals2))
    assert has_interface(_circle_field(make_grid(16, 16, (-2, 2, -2, 2))))
    assert not has_interface(constant_field(g, -3.0))


def test_saddle_checkerboard_resolved_deterministically():
    """A full checkerboard makes every cell ambiguous; the center-average
    rule must still emit exactly two segments per cell."""
    g = make_grid(3, 3, (0, 2, 0, 2))
    vals = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
    curve = extract_zero_set(ScalarField(g, vals))
    assert curve.n_segments == 8
    assert curve.n_vertices == 12


def test_extract_negated_field_same_vertices(rng):
    f = _smooth_random_field(make_grid(41, 41, (-2, 2, -2, 2)), rng)
    ca = extract_zero_set(f)
    cb = extract_zero_set(ScalarField(f.grid, -f.values))
    assert ca.n_vertices > 0
    assert np.array_equal(ca.vertices, cb.vertices)


def test_vertices_deduplicated_and_on_grid_edges(rng):
    g = make_grid(31, 31, (-2, 2, -2, 2))
    curve = extract_zero_set(_smooth_random_field(g, rng))
    v = curve.vertices
    assert len(np.unique(v, axis=0)) == len(v)
    # every crossing sits on a grid line in at least one axis
    on_x = np.min(np.abs(v[:, 0][:, None] - g.x_coords()[None, :]), axis=1) < 1e-12
    on_y = np.min(np.abs(v[:, 1][:, None] - g.y_coords()[None, :]), axis=1) < 1e-12
    assert np.all(on_x | on_y)


# ---------------------------------------------------------------------------
# distance


def test_min_segment_distance_handcrafted():
    seg_a = np.array([[1.0, -1.0]])
    seg_b = np.array([[1.0, 1.0]])
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.5]])
    d = min_segment_distance(pts, seg_a, seg_b)
    assert d[0] == pytest.approx(1.0)  # perpendicular foot at (1, 0)
    assert d[1] == pytest.approx(np.sqrt(13.0))  # nearest endpoint (1, 1)
    assert d[2] == pytest.approx(0.0, abs=1e-15)  # point on the segment

    # a zero-length segment measures plain point-to-point distance
    dd = min_segment_distance(
        np.array([[0.5, 2.0]]), np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]])
    )
    assert dd[0] == pytest.approx(np.hypot(0.5, 2.0))

    # with several segments the nearest one wins
    a = np.array([[1.0, -1.0], [0.0, 3.0]])
    b = np.array([[1.0, 1.0], [4.0, 3.0]])
    dm = min_segment_distance(np.array([[0.0, 0.0]]), a, b)
    assert dm[0] == pytest.approx(1.0)


def test_min_segment_distance_rejects_empty():
    with pytest.raises(ValidationError):
        min_segment_distance(np.zeros((1, 2)), np.zeros((0, 2)), np.zeros((0, 2)))


def test_distance_against_dense_sampling(rng):
    """Dense point sampling of the segments upper-bounds the exact distance
    and converges to it, bracketing the closed-form projection."""
    pts = rng.uniform(-1, 1, size=(40, 2))
    a = rng.uniform(-1, 1, size=(12, 2))
    b = a + rng.uniform(-0.4, 0.4, size=(12, 2))
    exact = min_segment_distance(pts, a, b)
    ts = np.linspace(0.0, 1.0, 20001)[None, :, None]
    samples = (a[:, None, :] * (1 - ts) + b[:, None, :] * ts).reshape(-1, 2)
    dense = np.min(
        np.hypot(pts[:, None, 0] - samples[None, :, 0], pts[:, None, 1] - samples[None, :, 1]),
        axis=1,
    )
    assert np.all(exact <= dense + 1e-12)
    assert np.max(dense - exact) < 1e-6


# ---------------------------------------------------------------------------
# redistancing


def test_redistance_removes_scaling():
    g = make_grid(96, 96, (-2, 2, -2, 2))
    f = field_from_function(g, lambda x, y: 2.0 * (np.hypot(x, y) - 1.0))
    d = signed_distance(f, extract_zero_set(f))
    want = _circle_field(g).values
    assert np.max(np.abs(d.values - want)) < 1.5 * g.dx


def test_redistance_idempotent():
    g = make_grid(64, 64, (-2, 2, -2, 2))
    f = _circle_field(g)
    d1 = signed_distance(f, extract_zero_set(f))
    d2 = signed_distance(d1, extract_zero_set(d1))
    assert np.max(np.abs(d2.values - d1.values)) < 1.5 * g.dx


def test_redistance_line_field():
    g = make_grid(48, 40, (-2, 2, -1, 1))
    f = field_from_function(g, lambda x, y: 3.0 * (x - 0.2))
    d = signed_distance(f, extract_zero_set(f))
    X, _ = g.mesh()
    assert np.max(np.abs(d.values - (X - 0.2))) < 1e-10


def test_redistance_sign_consistency(rng):
    g = make_grid(49, 49, (-2, 2, -2, 2))
    f = _smooth_random_field(g, rng)
    d = signed_distance(f, extract_zero_set(f))
    away = np.abs(d.values) > g.dx
    assert np.all(np.sign(d.values[away]) == np.sign(f.values[away]))


def test_redistance_convention_flag_negates():
    g = make_grid(40, 40, (-2, 2, -2, 2))
    f = _circle_field(g)
    curve = extract_zero_set(f)
    pos = signed_distance(f, curve, SignConvention(positive_inside=True))
    neg = signed_distance(f, curve, SignConvention(positive_inside=False))
    assert np.array_equal(neg.values, -pos.values)


def test_redistance_rejects_empty_curve():
    g = make_grid(8, 8, (-1, 1, -1, 1))
    f = constant_field(g, 1.0)
    with pytest.raises(ValidationError):
        signed_distance(f, extract_zero_set(f))


def _eikonal_residual(d, mask):
    g = d.grid
    gx = (d.values[:, 2:] - d.values[:, :-2]) / (2 * g.dx)
    gy = (d.values[2:, :] - d.values[:-2, :]) / (2 * g.dy)
    mag = np.hypot(gx[1:-1, :], gy[:, 1:-1])
    return np.max(np.abs(mag[mask[1:-1, 1:-1]] - 1.0))


def test_eikonal_residual_line():
    """Away from the interface and walls the gradient magnitude is one."""
    g = make_grid(64, 64, (-2, 2, -2, 2))
    f = field_from_function(g, lambda x, y: 5.0 * (x - 0.137))
    d = signed_distance(f, extract_zero_set(f))
    mask = np.abs(d.values) >= 3 * g.dx
    mask[:2, :] = mask[-2:, :] = mask[:, :2] = mask[:, -2:] = False
    assert _eikonal_residual(d, mask) < 0.05


def test_eikonal_residual_circle_away_from_center():
    # the distance field of a disk is not differentiable at the center, so
    # the nodes next to that single point are excluded as well
    g = make_grid(64, 64, (-2, 2, -2, 2))
    f = ScalarField(g, 2.0 * _circle_field(g).values)
    d = signed_distance(f, extract_zero_set(f))
    X, Y = g.mesh()
    mask = (np.abs(d.values) >= 3 * g.dx) & (np.hypot(X, Y) >= 3 * g.dx)
    mask[:2, :] = mask[-2:, :] = mask[:, :2] = mask[:, -2:] = False
    assert _eikonal_residual(d, mask) < 0.05


def test_reflection_symmetry_preserved():
    """x -> -x symmetric input gives symmetric curve and distance field."""
    g = make_grid(65, 65, (-2, 2, -2, 2))
    f = _circle_field(g)
    assert np.array_equal(f.values, f.values[:, ::-1])
    curve = extract_zero_set(f)
    d = signed_distance(f, curve)
    order = np.lexsort((curve.vertices[:, 0], curve.vertices[:, 1]))
    mirrored = np.column_stack([-curve.vertices[:, 0], curve.vertices[:, 1]])
    m_order = np.lexsort((mirrored[:, 0], mirrored[:, 1]))
    assert np.max(np.abs(curve.vertices[order] - mirrored[m_order])) < 1e-13
    assert np.max(np.abs(d.values - d.values[:, ::-1])) < 1e-13


# ---------------------------------------------------------------------------
# measurements and output


def _closed_loop(v):
    idx = np.arange(len(v))
    return InterfaceCurve(vertices=v, segments=np.column_stack([idx, np.roll(idx, -1)]))


def test_average_radius_unit_circle_vertices():
    th = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    v = np.column_stack([np.cos(th), np.sin(th)])
    curve = _closed_loop(v)
    assert average_radius(curve) == pytest.approx(1.0, abs=1e-12)


def test_average_radius_square_corners():
    v = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    curve = _closed_loop(v)
    assert average_radius(curve) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_average_radius_ellipse_against_quadrature():
    n = 4096
    th = (np.arange(n) + 0.5) * (2 * np.pi / n)
    v = np.column_stack([np.cos(th), 0.5 * np.sin(th)])
    curve = _closed_loop(v)
    assert average_radius(curve) == pytest.approx(_ELLIPSE_MEAN_RADIUS, abs=1e-12)


def test_average_radius_honors_center():
    v = np.array([[2.0, 3.0], [4.0, 3.0]])
    curve = InterfaceCurve(vertices=v, segments=np.array([[0, 1]]))
    assert average_radius(curve, center=(3.0, 3.0)) == pytest.approx(1.0)


def test_average_radius_empty_curve_rejected():
    g = make_grid(8, 8, (-1, 1, -1, 1))
    empty = extract_zero_set(constant_field(g, 1.0))
    with pytest.raises(ValidationError):
        average_radius(empty)


def test_write_interface_csv(tmp_path):
    g = make_grid(16, 16, (-2, 2, -2, 2))
    curve = extract_zero_set(_circle_field(g))
    path = tmp_path / "interface_step0.csv"
    write_interface_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 1 + curve.n_vertices
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data, curve.vertices)
