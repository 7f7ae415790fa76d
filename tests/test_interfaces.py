"""Zero-set extraction, exact segment distance, and redistancing tests."""

import tracemalloc
import warnings

import numpy as np
import pytest

from hmbo.errors import ValidationError
from hmbo.fields import ScalarField, eval_bilinear, field_from_function, make_grid
from hmbo.flow import HmboConfig, PhysicalParams, _curve_gap, hmbo_step, init_history
from hmbo.interfaces import (
    _BLOCK,
    _TILE,
    BandField,
    InterfaceCurve,
    _Tiles,
    _bent_chord_distance,
    _bent_chord_frames,
    _curvature_vector,
    _curved_distance,
    _segment_curvature,
    _segment_neighbours,
    average_radius,
    extract_zero_set,
    has_interface,
    signed_distance,
    write_interface_csv,
)

# frozen oracle: mean origin-distance of the ellipse (a=1, b=0.5) sampled
# uniformly in angle, from an independent 1e6-point quadrature
_ELLIPSE_MEAN_RADIUS = 0.7709822125950198

# the `curved` flag of extract_zero_set/signed_distance: the chord
# reconstruction (mcf mode) and the curved one (damped mode); the property
# tests below run both
RECONSTRUCTIONS = (False, True)


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
    curve = extract_zero_set(ScalarField(g, np.full(g.shape, 1.0)))
    assert curve.is_empty
    assert curve.n_vertices == 0


def test_has_interface_reads_the_sign_bit():
    """+0 is positive and -0 negative, so either all-zero field is one-sided
    and a field holding both zeros has an interface."""
    g = make_grid(3, 3, (0, 1, 0, 1))
    vals = np.zeros(g.shape)
    assert not has_interface(ScalarField(g, vals))  # all +0
    assert not has_interface(ScalarField(g, -vals))  # all -0
    vals2 = np.zeros(g.shape)
    vals2[0, 0] = -1.0
    assert has_interface(ScalarField(g, vals2))
    vals3 = np.zeros(g.shape)
    vals3[1, 1] = -0.0
    assert has_interface(ScalarField(g, vals3))
    assert has_interface(ScalarField(g, -vals3))
    assert has_interface(_circle_field(make_grid(16, 16, (-2, 2, -2, 2))))
    assert not has_interface(ScalarField(g, np.full(g.shape, -3.0)))


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
    assert np.array_equal(ca.segments, cb.segments)


def _checkerboard(g):
    return np.where(np.add.outer(np.arange(g.ny), np.arange(g.nx)) % 2 == 0, 1.0, -1.0)


def _white_noise_with_zeros(g, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.shape)
    v[rng.random(g.shape) < 0.15] = 0.0
    return v


def _xy_field():
    """x*y on a 9 x 9 grid of [-1, 1]^2: +0 and -0 on the axes, so edges from
    -0 to +0 are crossed."""
    return field_from_function(make_grid(9, 9, (-1, 1, -1, 1)), lambda x, y: x * y)


def test_signed_zero_edge_has_its_vertex_at_the_midpoint():
    """An edge from -0 to +0 is crossed; its linear root would be 0/0, so its
    vertex sits at the edge midpoint, in both reconstructions, with no
    RuntimeWarning."""
    f = _xy_field()
    # the edges (-0.25, 0) -- (0, 0) and (0, -0.25) -- (0, 0) run from -0 to +0
    assert np.signbit(f.values[4, 3]) and not np.signbit(f.values[4, 4])
    assert np.signbit(f.values[3, 4]) and f.values[3, 4] == 0.0
    for curved in RECONSTRUCTIONS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verts = extract_zero_set(f, curved=curved).vertices
        assert np.all(np.isfinite(verts)), curved
        for mid in ((-0.125, 0.0), (0.0, -0.125)):
            assert np.any(np.all(verts == mid, axis=1)), (curved, mid)


@pytest.mark.parametrize("field", ["noise-with-zeros", "checkerboard", "xy"])
def test_every_vertex_ends_two_segments_or_one_on_a_wall(field):
    """Each crossed edge inside the domain is an edge of two cells and ends
    one segment of each; a crossed edge on the domain boundary belongs to
    one cell.  _segment_neighbours rests on this."""
    if field == "xy":
        f = _xy_field()
        g, v = f.grid, f.values
    else:
        g = make_grid(40, 33, (-2, 2, -1.5, 1.7))
        v = _checkerboard(g) if field == "checkerboard" else _white_noise_with_zeros(g)
    for curved in RECONSTRUCTIONS:
        curve = extract_zero_set(ScalarField(g, v), curved=curved)
        ends = np.bincount(curve.segments.ravel(), minlength=curve.n_vertices)
        assert set(ends) <= {1, 2}, curved
        # the vertices ending one segment are the crossings of the boundary
        ring = np.signbit(np.concatenate([v[0, :], v[1:, -1], v[-1, -2::-1], v[-2:0:-1, 0], v[:1, 0]]))
        assert np.sum(ends == 1) == np.sum(ring[1:] != ring[:-1]), curved
        x, y = curve.vertices[ends == 1].T
        assert np.all((x == g.xmin) | (x == g.xmax) | (y == g.ymin) | (y == g.ymax)), curved


@pytest.mark.parametrize("field", ["circle", "star", "two-disks", "noise", "zeros-at-nodes"])
def test_each_end_partner_has_a_vertex_at_that_end(field):
    """The premise of _Tiles' region test: the partner _segment_neighbours
    gives each end of an extracted segment is another segment with a vertex
    at exactly that end's coordinates, except at a vertex on a wall, where
    the segment is its own partner.  On three band shapes, white noise on
    40 x 40 nodes, and a field with exact zeros at nodes, whose vertices
    repeat coordinates under other ids."""
    if field == "noise":
        g = make_grid(40, 40, (-2, 2, -1.5, 1.7))
        f = ScalarField(g, np.random.default_rng(40).standard_normal(g.shape))
    elif field == "zeros-at-nodes":  # rings of zero nodes, cut by the wall x = 1
        g = make_grid(21, 19, (-1, 1, -1, 1))
        f = field_from_function(g, lambda x, y: np.round(np.hypot(x - 0.5, y) * 10.0) - 6.0)
    else:
        g = make_grid(64, 64, (-2, 2, -2, 2))
        f = field_from_function(g, _BAND_SHAPES[field])
    for curved in RECONSTRUCTIONS:
        curve = extract_zero_set(f, curved=curved)
        repeats = len(np.unique(curve.vertices, axis=0)) < curve.n_vertices
        assert repeats == (field == "zeros-at-nodes"), curved
        partners = _segment_neighbours(curve)
        ends = curve.vertices[curve.segments]  # (S, 2 ends, 2 coordinates)
        theirs = curve.vertices[curve.segments[partners]]  # (S, 2 ends, 2 ends, 2)
        assert (theirs == ends[:, :, None]).all(axis=-1).any(axis=-1).all(), curved
        own = partners == np.arange(curve.n_segments)[:, None]
        x, y = ends[own].T
        assert np.all((x == g.xmin) | (x == g.xmax) | (y == g.ymin) | (y == g.ymax)), curved
        assert own.any() == (field in ("noise", "zeros-at-nodes")), curved


def test_vertices_deduplicated_and_on_grid_edges(rng):
    g = make_grid(31, 31, (-2, 2, -2, 2))
    f = _smooth_random_field(g, rng)
    for curved in RECONSTRUCTIONS:
        curve = extract_zero_set(f, curved=curved)
        v = curve.vertices
        assert len(np.unique(v, axis=0)) == len(v), curved
        # every crossing sits on a grid line in at least one axis
        on_x = np.min(np.abs(v[:, 0][:, None] - g.x_coords()[None, :]), axis=1) < 1e-12
        on_y = np.min(np.abs(v[:, 1][:, None] - g.y_coords()[None, :]), axis=1) < 1e-12
        assert np.all(on_x | on_y), curved
    # both reconstructions put vertex i on the same edge: one coordinate
    # equal, the other within a cell; and they join the same vertices
    chord, bent = extract_zero_set(f), extract_zero_set(f, curved=True)
    assert np.all((bent.vertices == chord.vertices).any(axis=1))
    assert np.max(np.abs(bent.vertices - chord.vertices)) <= g.dx
    assert np.array_equal(bent.segments, chord.segments)


# the classic marching-squares table: segment end edges (0 bottom, 1 right,
# 2 top, 3 left) keyed by s0 + 2 s1 + 4 s2 + 8 s3, s_k = 1 where corner k
# (bottom-left, bottom-right, top-right, top-left) has a clear sign bit
# (+0 is positive, -0 negative); the saddles 5
# and 10 by the sign of their centre average as well, a zero average
# joining (0, 1) and (2, 3) in both
_CASES = {
    1: [(0, 3)], 2: [(0, 1)], 3: [(1, 3)], 4: [(1, 2)], 6: [(0, 2)], 7: [(2, 3)],
    8: [(2, 3)], 9: [(0, 2)], 11: [(1, 2)], 12: [(1, 3)], 13: [(0, 1)], 14: [(0, 3)],
    (5, 1): [(0, 1), (2, 3)], (5, 0): [(0, 1), (2, 3)], (5, -1): [(0, 3), (1, 2)],
    (10, 1): [(0, 3), (1, 2)], (10, 0): [(0, 1), (2, 3)], (10, -1): [(0, 1), (2, 3)],
}


def _marching_squares_reference(v):
    """Segments of the table above, cell by cell in row-major order, as
    vertex ids: the crossed horizontal edges in row-major order, then the
    vertical ones."""
    pos = ~np.signbit(v)
    ids = {}
    for kind, crossed in (("h", pos[:, :-1] != pos[:, 1:]), ("v", pos[:-1, :] != pos[1:, :])):
        for j, i in zip(*np.nonzero(crossed)):
            ids[kind, j, i] = len(ids)
    segments = []
    for j in range(v.shape[0] - 1):
        for i in range(v.shape[1] - 1):
            case = pos[j, i] + 2 * pos[j, i + 1] + 4 * pos[j + 1, i + 1] + 8 * pos[j + 1, i]
            if case in (5, 10):
                case = (case, np.sign((v[j, i] + v[j, i + 1] + v[j + 1, i] + v[j + 1, i + 1]) * 0.25))
            edges = [("h", j, i), ("v", j, i + 1), ("h", j + 1, i), ("v", j, i)]
            segments += [(ids[edges[a]], ids[edges[b]]) for a, b in _CASES.get(case, [])]
    return np.array(segments, dtype=np.intp).reshape(-1, 2)


@pytest.mark.parametrize("field", ["star", "noise-with-zeros", "checkerboard", "-checkerboard", "xy"])
def test_extraction_matches_the_case_table(field):
    """extract_zero_set's one rule gives the case table's segments, in the
    same order and with the same end order, which the chord distance's
    bits depend on (_point_segment_sq is not symmetric in its ends)."""
    g = _xy_field().grid if field == "xy" else make_grid(40, 33, (-2, 2, -1.5, 1.7))
    v = {
        "star": field_from_function(
            g, lambda x, y: np.hypot(x, y) - 1.0 - 0.25 * np.cos(6.0 * np.arctan2(y, x))
        ).values,
        "noise-with-zeros": _white_noise_with_zeros(g),
        "checkerboard": _checkerboard(g),
        "-checkerboard": -_checkerboard(g),
        "xy": _xy_field().values,
    }[field]
    for curved in RECONSTRUCTIONS:
        curve = extract_zero_set(ScalarField(g, v), curved=curved)
        assert np.array_equal(curve.segments, _marching_squares_reference(v)), curved


def _all_cells_extraction(f, curved):
    """extract_zero_set with its (cell, edge id) table built over every cell
    of the grid, the form before the table was cut to the cells beside a
    crossed edge: the vertices are the extraction's own, and the segments
    the crossed ids of all cells in row-major order."""
    v, neg = f.values, np.signbit(f.values)
    hmask, vmask = neg[:, :-1] != neg[:, 1:], neg[:-1, :] != neg[1:, :]
    h_idx = np.full(hmask.shape, -1, dtype=np.intp)
    h_idx[hmask] = np.arange(np.count_nonzero(hmask))
    v_idx = np.full(vmask.shape, -1, dtype=np.intp)
    v_idx[vmask] = np.count_nonzero(hmask) + np.arange(np.count_nonzero(vmask))
    ids = np.stack([h_idx[:-1], v_idx[:, 1:], h_idx[1:], v_idx[:, :-1]], axis=-1)
    crossed = ids >= 0
    centre = (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:]) * 0.25
    turn = crossed.all(axis=-1) & (centre != 0.0) & (np.signbit(centre) != neg[:-1, :-1])
    ids[turn] = ids[turn][:, [0, 3, 1, 2]]
    return extract_zero_set(f, curved=curved).vertices, ids[crossed].reshape(-1, 2)


@pytest.mark.parametrize("field", ["noise-with-zeros", "integers", "checkerboard", "smooth", "3x3"])
def test_extraction_equals_the_all_cells_table(field, rng):
    """The table of the cells beside a crossed edge gives the segments of
    the table over every cell, in both reconstructions: on white noise with
    exact zeros, small integers (+0, -0 and many saddles), a checkerboard
    of saddles only, a smooth random field, whose level sets meet the
    walls, and 3 x 3 grids of random signs, on grids whose sizes are no
    multiple of anything in particular."""
    for trial in range(20):
        nx, ny = (3, 3) if field == "3x3" else rng.integers(3, 45, size=2)
        g = make_grid(nx, ny, (-1.1, 2.3, -0.7, 1.9))
        v = {
            "noise-with-zeros": lambda: _white_noise_with_zeros(g, seed=trial),
            "integers": lambda: np.where(rng.random(g.shape) < 0.1, -0.0, np.round(rng.normal(size=g.shape))),
            "checkerboard": lambda: _checkerboard(g) * rng.integers(1, 3, size=g.shape),
            "smooth": lambda: _smooth_random_field(g, rng).values,
            "3x3": lambda: rng.choice([-1.0, -0.0, 0.0, 1.0], size=g.shape),
        }[field]()
        f = ScalarField(g, v)
        for curved in RECONSTRUCTIONS:
            curve = extract_zero_set(f, curved=curved)
            vertices, segments = _all_cells_extraction(f, curved)
            assert curve.vertices.tobytes() == vertices.tobytes()
            assert curve.segments.tobytes() == segments.tobytes(), (field, trial, curved)


def test_curved_vertices_are_roots_of_their_edge_cubic(rng):
    """On white noise every vertex of the curved reconstruction, wall edges
    included, is a root of the cubic through the four nodes around its edge,
    with the mirror ghost nodes standing in past the walls."""
    g = make_grid(40, 33, (0, 1, 0, 0.8))
    xs, ys = g.x_coords(), g.y_coords()
    for _ in range(20):
        v = rng.standard_normal(g.shape)
        verts = extract_zero_set(ScalarField(g, v), curved=True).vertices
        ghosted = np.pad(v, 1, mode="reflect")
        # a vertex on an edge along x has its y exactly on a node row
        along_x = np.isin(verts[:, 1], ys)
        assert np.all(along_x | np.isin(verts[:, 0], xs))
        for rows, lo, d, at, lines, across, pad in (
            (along_x, g.xmin, g.dx, verts[:, 0], ys, verts[:, 1], ghosted),
            (~along_x, g.ymin, g.dy, verts[:, 1], xs, verts[:, 0], ghosted.T),
        ):
            pos = (at[rows] - lo) / d
            k = np.minimum(np.floor(pos).astype(int), pad.shape[1] - 4)  # last edge: n - 2
            s = pos - k
            r = np.searchsorted(lines, across[rows])
            fm, f0, f1, f2 = (pad[r + 1, k + o] for o in range(4))
            # Lagrange form of the cubic through s = -1, 0, 1, 2
            cubic = (
                -s * (s - 1) * (s - 2) / 6 * fm
                + (s + 1) * (s - 1) * (s - 2) / 2 * f0
                - (s + 1) * s * (s - 2) / 2 * f1
                + (s + 1) * s * (s - 1) / 6 * f2
            )
            assert np.all((s >= 0.0) & (s <= 1.0))
            assert np.max(np.abs(cubic)) <= 1e-9


# ---------------------------------------------------------------------------
# distance


def _nodes(g):
    X, Y = g.mesh()
    return X.ravel(), Y.ravel()


def _soup_curve(a, b):
    """The segments [a, b] as an InterfaceCurve whose ends at equal
    coordinates share one vertex id, so that the scan's region test finds
    each end's partners as it does on an extracted curve.  The ends are
    merged by their bits, so the curve's segment ends are a's and b's own."""
    ends = np.concatenate((a, b)).astype(float)
    _, first, ids = np.unique(ends.view(np.int64), axis=0, return_index=True, return_inverse=True)
    return InterfaceCurve(ends[first], ids.reshape(2, -1).T)


def _nearest_segment(g, a, b):
    """The pruned scan (_Tiles) run on every tile of g: the squared distance
    from each node to its nearest segment [a, b] and that segment's index,
    as (ny, nx) arrays, the form held to the exhaustive reference below."""
    tiles = _Tiles(g, _soup_curve(a, b))
    every = np.arange(tiles.kx * tiles.ky)
    j, i, _ = tiles.nodes(every)
    out = []
    for v in tiles.scan(every, nearest=True):
        out.append(np.empty(g.shape, dtype=v.dtype))
        out[-1][j, i] = v
    return tuple(out)


def test_min_segment_distance_handcrafted():
    # nodes every 0.5 over [0, 3] x [0, 4]; node (x, y) is at [2y, 2x]
    g = make_grid(7, 9, (0, 3, 0, 4))
    seg_a = np.array([[1.0, -1.0]])
    seg_b = np.array([[1.0, 1.0]])
    d = np.sqrt(_nearest_segment(g, seg_a, seg_b)[0])
    assert d.shape == g.shape
    assert d[0, 0] == pytest.approx(1.0)  # perpendicular foot at (1, 0)
    assert d[8, 6] == pytest.approx(np.sqrt(13.0))  # nearest endpoint (1, 1)
    assert d[1, 2] == pytest.approx(0.0, abs=1e-15)  # node on the segment

    # a zero-length segment measures plain point-to-point distance
    dd = np.sqrt(_nearest_segment(g, np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]))[0])
    assert dd[4, 1] == pytest.approx(np.hypot(0.5, 2.0))

    # with several segments the nearest one wins
    a = np.array([[1.0, -1.0], [0.0, 3.0]])
    b = np.array([[1.0, 1.0], [4.0, 3.0]])
    dm, nearest = _nearest_segment(g, a, b)
    assert np.sqrt(dm[0, 0]) == pytest.approx(1.0)
    assert nearest[0, 0] == 0 and nearest[8, 0] == 1


def test_min_segment_distance_rejects_empty():
    """signed_distance, the scan's caller, rejects a curve without
    segments, so the scan always has at least one."""
    g = make_grid(8, 8, (-1, 1, -1, 1))
    empty = InterfaceCurve(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValidationError):
        signed_distance(field_from_function(g, lambda x, y: x), empty)


def test_distance_against_dense_sampling(rng):
    """Dense point sampling of the segments upper-bounds the exact distance
    and converges to it, bracketing the closed-form projection; likewise for
    the chords bent by their sagitta that the curved reconstruction uses."""
    g = make_grid(7, 6, (-1, 1, -1, 1))
    px, py = _nodes(g)
    a = rng.uniform(-1, 1, size=(12, 2))
    b = a + rng.uniform(-0.4, 0.4, size=(12, 2))
    exact = np.sqrt(_nearest_segment(g, a, b)[0].ravel())
    ts = np.linspace(0.0, 1.0, 20001)[None, :, None]
    samples = (a[:, None, :] * (1 - ts) + b[:, None, :] * ts).reshape(-1, 2)
    dense = np.min(np.hypot(px[:, None] - samples[None, :, 0], py[:, None] - samples[None, :, 1]), axis=1)
    assert np.all(exact <= dense + 1e-12)
    assert np.max(dense - exact) < 1e-6

    # the scan finds the reference minimum bit for bit, and the segment
    # attaining it, on 12 and on 50 segments
    many_a = rng.uniform(-1, 1, size=(50, 2))
    many_b = many_a + rng.uniform(-0.4, 0.4, size=(50, 2))
    for sa, sb in ((a, b), (many_a, many_b)):
        d2, nearest = (v.ravel() for v in _nearest_segment(g, sa, sb))
        assert np.array_equal(d2, _min_sq_brute(px, py, sa, sb))
        na, nb = sa[nearest], sb[nearest]
        assert np.array_equal(_point_segment_sq(px, py, na[:, 0], na[:, 1], nb[:, 0], nb[:, 1]), d2)
    # on ties the first segment wins
    twice = _nearest_segment(g, np.vstack([a, a]), np.vstack([b, b]))
    assert np.all(twice[1] < len(a))
    nearest = _nearest_segment(g, a, b)[1].ravel()
    na, nb = a[nearest], b[nearest]

    # distance to the nearest chord bent by a curvature vector K, against
    # dense samples of q(t) = c(t) - (K.n) L^2 t (1 - t) n / 2
    K = rng.uniform(-0.5, 0.5, size=(12, 2))[nearest]
    bent = _bent_chord_distance(px, py, _bent_chord_frames(na, nb, K[:, 0], K[:, 1]))
    u = nb - na
    seg_len = np.hypot(u[:, 0], u[:, 1])
    n_hat = np.column_stack([-u[:, 1], u[:, 0]]) / seg_len[:, None]
    k_n = np.sum(K * n_hat, axis=1)
    q = (
        na[:, None, :] + ts * u[:, None, :]
        - 0.5 * (k_n * seg_len**2)[:, None, None] * ts * (1 - ts) * n_hat[:, None, :]
    )
    dense_bent = np.min(np.hypot(px[:, None] - q[:, :, 0], py[:, None] - q[:, :, 1]), axis=1)
    assert np.all(bent <= dense_bent + 1e-12)
    assert np.max(dense_bent - bent) < 1e-6
    assert np.max(np.abs(bent - exact)) > 1e-3  # the bend is felt


def _point_segment_sq(px, py, ax, ay, bx, by):
    """Squared point-to-segment distances; arguments broadcast.  A separate
    writing of the library kernel's per-pair arithmetic, the oracle that the
    scan is held to bit for bit."""
    ux = bx - ax
    uy = by - ay
    l2 = ux * ux + uy * uy
    t = ((px - ax) * ux + (py - ay) * uy) / np.where(l2 > 0.0, l2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    cx = ax + t * ux
    cy = ay + t * uy
    return (px - cx) ** 2 + (py - cy) ** 2


def _min_sq_brute(px, py, a, b, seg_chunk=64):
    """Exhaustive minimum over all segments, chunked to bound memory: the
    plain reference that _nearest_segment is held to, bit for bit."""
    best = np.full(px.shape, np.inf)
    for s in range(0, a.shape[0], seg_chunk):
        d2 = _point_segment_sq(
            px[:, None],
            py[:, None],
            a[None, s : s + seg_chunk, 0],
            a[None, s : s + seg_chunk, 1],
            b[None, s : s + seg_chunk, 0],
            b[None, s : s + seg_chunk, 1],
        )
        np.minimum(best, d2.min(axis=1), out=best)
    return best


def _brute_nearest(g, a, b, check=slice(None), rows=256):
    """Exhaustive reference for _nearest_segment on the grid nodes that
    check selects (raveled): _min_sq_brute's squared distances, and the
    first segment attaining each minimum in the full (node, segment) matrix
    of _point_segment_sq, taken in blocks of rows."""
    px, py = (v[check] for v in _nodes(g))
    first = [
        _point_segment_sq(
            px[s : s + rows, None], py[s : s + rows, None],
            a[None, :, 0], a[None, :, 1], b[None, :, 0], b[None, :, 1],
        ).argmin(axis=1)
        for s in range(0, px.size, rows)
    ]
    return _min_sq_brute(px, py, a, b), np.concatenate(first)


def _assert_scan_exact(g, a, b, check=slice(None)):
    """_nearest_segment over the grid equals the exhaustive reference, bit
    for bit and in the index, on the nodes (raveled) selected by check."""
    d2, nearest = _nearest_segment(g, a, b)
    assert d2.shape == nearest.shape == g.shape
    ref_d2, ref_first = _brute_nearest(g, a, b, check)
    assert np.array_equal(d2.ravel()[check], ref_d2)
    assert np.array_equal(nearest.ravel()[check], ref_first)


def test_nearest_segment_exact_on_degenerate_soups():
    """Zero-length and duplicated segments, nodes exactly on segments and
    on their ends, and a single segment: the pruned scan keeps every tie
    and returns the first segment, like the exhaustive scan.  Also on node
    counts that are no multiple of the block size, a 3 x 3 grid and grids
    of subnormal extent, and a grid of extent 3e154, where some squared
    distances overflow to inf: the pruning compares squared distances, so a
    bound whose square overflows keeps every segment."""
    for g in (make_grid(24, 24, (-1, 1, -1, 1)), make_grid(21, 19, (-1, 1, -1, 1))):
        xs, ys = g.x_coords(), g.y_coords()
        # a closed square through grid nodes, each side twice, a zero-length
        # segment on a node and one between nodes, and a chord along a grid
        # line
        corners = np.array([[xs[4], ys[4]], [xs[15], ys[4]], [xs[15], ys[15]], [xs[4], ys[15]]])
        a = np.vstack([corners, corners, [[xs[10], ys[10]], [0.013, -0.41]], [[xs[2], ys[7]]]])
        b = np.vstack([np.roll(corners, -1, axis=0)] * 2 + [[[xs[10], ys[10]], [0.013, -0.41]], [[xs[17], ys[7]]]])
        _assert_scan_exact(g, a, b)
        for k in range(len(a)):  # a single segment, each in turn
            _assert_scan_exact(g, a[k : k + 1], b[k : k + 1])
    zero = np.zeros((1, 2))
    _assert_scan_exact(make_grid(3, 3, (-1, 1, -1, 1)), np.array([[-1.0, 0.2]]), np.array([[0.3, 1.0]]))
    # extents whose node spacing is subnormal or rounds to zero
    for bounds in ((0.0, 1e-300, -1e-300, 0.0), (0.0, 2.225073858507e-311, 0.0, 5e-324)):
        g = make_grid(11, 3, bounds)
        _assert_scan_exact(g, zero, zero)
        _assert_scan_exact(g, zero, zero + 1.0)
        _assert_scan_exact(g, np.vstack([zero, zero]), np.array([[1e-310, 0.0], [0.0, 0.0]]))
    # a few short random segments: some block's centre lies within 1.3e154
    # (about the square root of the largest double) of one segment and
    # beyond it from another that is nearest to a node of the block, a
    # candidate only because its squared distance and the bound's square
    # both overflow; and one lone segment in a corner, whose far nodes'
    # least squared distance is inf (every index ties; the first wins)
    g = make_grid(21, 19, (-1.5e154, 1.5e154, -1.5e154, 1.5e154))
    rng = np.random.default_rng(0)
    a = rng.uniform(-1.5e154, 1.5e154, (5, 2))
    b = a + rng.uniform(-5e153, 5e153, (5, 2))
    corner = np.array([[-1.5e154, -1.5e154], [-1.4e154, -1.5e154]])
    with np.errstate(over="ignore"):
        assert np.isinf(_brute_nearest(g, corner[:1], corner[1:])[0]).any()
        _assert_scan_exact(g, a, b)
        _assert_scan_exact(g, corner[:1], corner[1:])


_SCAN_FIELDS = {
    "noise": lambda g: ScalarField(g, np.random.default_rng(g.nx * g.ny).normal(size=g.shape)),
    # interfaces that touch the walls: a line across the domain, a disk
    # centred on a corner
    "line": lambda g: field_from_function(g, lambda x, y: y - 0.3 * x - 0.1),
    "corner-disk": lambda g: field_from_function(g, lambda x, y: np.hypot(x + 2, y + 1.5) - 1.3),
}


@pytest.mark.parametrize(
    "nx, ny, field, check",
    [
        # white noise with more than 10k segments; 1 node in 11 is checked,
        # as the exhaustive reference takes about 12 s for all of them
        (128, 128, "noise", slice(None, None, 11)),
        (37, 53, "noise", slice(None)),
        (9, 8, "noise", slice(None)),
        (53, 37, "line", slice(None)),
        (64, 64, "corner-disk", slice(None)),
    ],
    ids=["noise-128x128", "noise-37x53", "noise-9x8", "wall-53x37", "wall-64x64"],
)
def test_nearest_segment_exact_on_grids(nx, ny, field, check):
    g = make_grid(nx, ny, (-2, 2, -1.5, 1.7))
    a, b = extract_zero_set(_SCAN_FIELDS[field](g)).segment_points()
    if nx == 128:
        assert len(a) > 10_000
    _assert_scan_exact(g, a, b, check)


def test_nearest_segment_exact_on_random_soups():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # coordinates on a coarse lattice make exact ties, shared ends,
    # zero-length segments and segments through nodes common
    coord = st.integers(-12, 12).map(lambda i: i / 8.0) | st.floats(-2.0, 2.0)
    point = st.tuples(coord, coord)
    lower = st.integers(-16, 8).map(lambda i: i / 8.0) | st.floats(-2.0, 1.0)
    extent = st.integers(1, 32).map(lambda i: i / 8.0) | st.floats(1e-3, 4.0)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        st.integers(3, 40), st.integers(3, 40), st.tuples(lower, extent, lower, extent),
        st.lists(st.tuples(point, point), min_size=1, max_size=40),
    )
    def check(nx, ny, box, segments):
        x0, w, y0, h = box
        g = make_grid(nx, ny, (x0, x0 + w, y0, y0 + h))
        a = np.array([s[0] for s in segments])
        b = np.array([s[1] for s in segments])
        _assert_scan_exact(g, a, b)

    check()


def _polygon(centre, radius, sides, turn=0.0):
    """The vertices of a regular polygon, in order."""
    ang = turn + 2.0 * np.pi * np.arange(sides) / sides
    return np.column_stack([centre[0] + radius * np.cos(ang), centre[1] + radius * np.sin(ang)])


def _region_soups():
    """Soups on which _Tiles' region test decides, each (grid, a, b)."""
    g = make_grid(24, 24, (-1, 1, -1, 1))
    h = g.dx
    soups = {}
    # a hexagon a thousandth of a node spacing across: every node lies
    # beyond an end of every segment, outside every slab, so it is scanned
    # only because it lies in an end's wedge
    hexagon = _polygon((0.0123, -0.0311), 1e-3 * h, 6)
    soups["tiny-hexagon"] = (g, hexagon, np.roll(hexagon, -1, axis=0))
    # a regular 12-gon across the grid, whose outside nodes near its
    # vertices lie in the wedges
    ring = _polygon((0.05, -0.02), 0.7, 12, 0.1)
    soups["12-gon"] = (g, ring, np.roll(ring, -1, axis=0))
    # three segments sharing one end, and a fourth from its far end
    centre = np.array([[0.11, 0.07]])
    arms = np.array([[0.8, 0.1], [-0.5, 0.6], [-0.2, -0.9]])
    soups["three-at-one-end"] = (g, np.vstack([centre] * 3 + [arms[:1]]), np.vstack([arms, [[0.9, 0.9]]]))
    # a segment of 1e-12 h inside a polyline and another alone, beside long ones
    chain = np.array([[-0.9, -0.3], [0.1, -0.2], [0.1 + 1e-12 * h, -0.2], [0.8, 0.6]])
    lone = np.array([[-0.4, 0.5]])
    soups["1e-12h-segments"] = (g, np.vstack([chain[:-1], lone]), np.vstack([chain[1:], lone + [0.0, 1e-12 * h]]))
    # an open polyline whose ends lie on two walls, and one with a free end
    wall = np.array([[-1.0, -0.37], [-0.2, 0.1], [0.3, -0.05], [1.0, 0.45]])
    free = np.array([[0.2, 1.0], [0.4, 0.6], [0.35, 0.3]])
    soups["wall-ends"] = (g, np.vstack([wall[:-1], free[:-1]]), np.vstack([wall[1:], free[1:]]))
    # a field with exact zeros at nodes: vertices under other ids at the
    # same coordinates, and segments of zero length
    g2 = make_grid(21, 19, (-1, 1, -1, 1))
    zeros = field_from_function(g2, lambda x, y: np.round(np.hypot(x, y) * 10.0) - 6.0)
    soups["zeros-at-nodes"] = (g2, *extract_zero_set(zeros).segment_points())
    return soups


@pytest.mark.parametrize("soup", list(_region_soups()))
def test_nearest_segment_exact_where_the_region_test_decides(soup):
    """The pruned scan equals the exhaustive one on soups where the region
    test of _Tiles decides which candidates stay: a polygon whose every
    node lies in an end's wedge (taking the wedges out of the test fails
    it), a polygon's outside nodes, three segments sharing an end, segments
    of 1e-12 h, ends on the walls and free ends, and vertices repeated
    under other ids at nodes where the field is exactly zero."""
    g, a, b = _region_soups()[soup]
    if soup == "tiny-hexagon":
        px, py = _nodes(g)
        u = b - a
        tau = ((px[:, None] - a[:, 0]) * u[:, 0] + (py[:, None] - a[:, 1]) * u[:, 1]) / np.sum(u * u, axis=1)
        assert not ((tau >= 0.0) & (tau <= 1.0)).any()
    if soup == "zeros-at-nodes":
        ends = np.vstack([a, b])
        assert len(np.unique(ends, axis=0)) < len(ends) // 2
    _assert_scan_exact(g, a, b)


def test_a_tile_of_more_candidates_than_a_block_scans_exactly(scan_shapes):
    """A regular 700-gon of radius 0.2 about the centre of a tile keeps all
    700 segments as that tile's candidates, more than fit in _BLOCK pairs
    at _TILE^2 nodes: the tile is scanned alone, in one _scan_block call
    over more than _BLOCK pairs, and the scan still equals the exhaustive
    one, bit for bit and in the index."""
    g = make_grid(24, 24, (-1, 1, -1, 1))
    centre = 0.5 * (g.x_coords()[8] + g.x_coords()[15]), 0.5 * (g.y_coords()[8] + g.y_coords()[15])
    ring = _polygon(centre, 0.2, 700)
    a, b = ring, np.roll(ring, -1, axis=0)
    assert _Tiles(g, _soup_curve(a, b)).n_cand.max() == 700 > _BLOCK // _TILE**2
    _assert_scan_exact(g, a, b)
    assert any(np.prod(s) > _BLOCK for s in scan_shapes)


def test_every_tile_scans_its_full_square(scan_shapes):
    """Every tile has _TILE x _TILE nodes, on grids whose node counts are
    no multiple of the tile size too: nodes() lists kx ky _TILE^2 of them,
    covering every node of the grid, _scan_block receives that many, and
    a tile that the grid ends repeats its last node column or row, whose
    repeats carry the bits of their first occurrence in the scan."""
    for nx, ny in ((20, 20), (97, 61), (8, 8), (3, 5)):
        g = make_grid(nx, ny, (-2, 2, -1.5, 1.7))
        tiles = _Tiles(g, extract_zero_set(_circle_field(g)))
        every = np.arange(tiles.kx * tiles.ky)
        j, i, _ = tiles.nodes(every)
        size = tiles.kx * tiles.ky * _TILE**2
        assert j.size == size, (nx, ny)
        covered, first, inverse = np.unique(j * nx + i, return_index=True, return_inverse=True)
        assert np.array_equal(covered, np.arange(nx * ny)), (nx, ny)
        scan_shapes.clear()
        best, nearest = tiles.scan(every, nearest=True)
        assert sum(int(np.prod(s[:-1])) for s in scan_shapes) == size, (nx, ny)
        at = first[inverse]
        assert best.tobytes() == best[at].tobytes(), (nx, ny)
        assert np.array_equal(nearest, nearest[at]), (nx, ny)


def test_signed_distance_equals_brute_build(rng):
    """Both reconstructions give the field built over the whole grid from
    the exhaustive scan: the square root of _brute_nearest's minimum, or
    the bent chords' distance (_curved_distance) from each node's
    exhaustive nearest segment and its neighbours, with f's sign bits.  On
    57 x 64 nodes, so the last tile column repeats one node column."""
    g = make_grid(57, 64, (-2, 2, -2, 2))
    x, y = g.x_coords()[None, :], g.y_coords()[:, None]
    for f in (_circle_field(g), _smooth_random_field(g, rng)):
        for curved in RECONSTRUCTIONS:
            curve = extract_zero_set(f, curved=curved)
            a, b = curve.segment_points()
            d2, nearest = (v.reshape(g.shape) for v in _brute_nearest(g, a, b))
            if curved:
                frames = _bent_chord_frames(a, b, *_segment_curvature(f, a, b))
                dist = _curved_distance(x, y, nearest, frames, _segment_neighbours(curve))
            else:
                dist = np.sqrt(d2)
            want = np.copysign(dist, f.values)
            assert signed_distance(f, curve, curved=curved).values.tobytes() == want.tobytes(), curved


# shapes of the band tests: a circle, an off-centre 5-fold star, two disks
# and a circle cut by the wall x = 2
_BAND_SHAPES = {
    "circle": lambda x, y: np.hypot(x, y) - 1.0,
    "star": lambda x, y: np.hypot(x - 0.3, y + 0.2) - 1.0 - 0.25 * np.cos(5.0 * np.arctan2(y + 0.2, x - 0.3)),
    "two-disks": lambda x, y: np.maximum(0.7 - np.hypot(x + 0.8, y), 0.4 - np.hypot(x - 0.8, y)),
    "wall-cut-circle": lambda x, y: 1.0 - np.hypot(x - 1.5, y),
}


@pytest.mark.parametrize("curved", RECONSTRUCTIONS, ids=["chord", "curved"])
@pytest.mark.parametrize("nx, ny", [(96, 96), (57, 64)], ids=["96x96", "57x64"])
@pytest.mark.parametrize("shape", list(_BAND_SHAPES))
def test_band_field_holds_the_certificate_premises(shape, nx, ny, curved):
    """What hmbo.flow's certificate takes from a BandField, checked at every
    node against the exhaustive chord distance c, for reach W = 0, 2h, 8h
    and inf (h the larger spacing): every node with c <= W is exact; a
    provisional node carries f's sign bit, and its value lies within
    spread + slack of c; c - below <= |D| <= c + above for the completed
    field D, with below = above = slack on a chord field; and D has the
    bytes of the reach-inf field, which is complete at construction.
    Every finite reach leaves provisional nodes."""
    g = make_grid(nx, ny, (-2, 2, -2, 2))
    f = field_from_function(g, _BAND_SHAPES[shape])
    curve = extract_zero_set(f, curved=curved)
    c = np.sqrt(_brute_nearest(g, *curve.segment_points())[0]).reshape(g.shape)
    whole = signed_distance(f, curve, curved=curved)
    assert whole.is_complete and whole.exact.all()
    h = max(g.dx, g.dy)
    for reach in (0.0, 2.0 * h, 8.0 * h, np.inf):
        d = signed_distance(f, curve, curved=curved, reach=reach)
        exact, held = d.exact.copy(), d.provisional.copy()
        assert (d.below == d.above == d.slack) == (not curved), reach
        assert exact[c <= reach].all(), reach
        far = ~exact
        assert far.any() == (reach < np.inf), reach
        assert np.array_equal(np.signbit(held[far]), np.signbit(f.values[far])), reach
        assert np.all(np.abs(np.abs(held[far]) - c[far]) <= d.spread + d.slack), reach
        mag = np.abs(d.values)
        assert np.all(c - d.below <= mag) and np.all(mag <= c + d.above), reach
        assert d.values.tobytes() == whole.values.tobytes(), reach


def _candidate_lists(tiles):
    """Each tile's candidate segments, as a list of index arrays."""
    return [tiles.cand[s : s + n] for s, n in zip(tiles.cand_start, tiles.n_cand)]


@pytest.mark.parametrize("shape", ["circle", "star", "wall-cut-circle"])
def test_far_tiles_build_the_candidates_of_a_whole_scan(scan_shapes, shape):
    """_Tiles with a finite reach builds candidates for its near tiles only,
    the reach-inf _Tiles' candidates index for index, and a BandField of
    that reach, completed, hands _scan_block the same pairs for its far
    tiles as the reach-inf _Tiles does for them, to the reach-inf field's
    bytes."""
    g = make_grid(128, 128, (-2, 2, -2, 2))
    f = field_from_function(g, _BAND_SHAPES[shape])
    curve = extract_zero_set(f)
    whole = _Tiles(g, curve)
    assert whole.near.all()
    band = _Tiles(g, curve, 4.0 * g.dx)
    far = np.flatnonzero(~band.near)
    assert far.size and not band.n_cand[far].any()
    assert band.dc.tobytes() == whole.dc.tobytes()
    got, want = _candidate_lists(band), _candidate_lists(whole)
    assert all(got[t].tobytes() == want[t].tobytes() for t in np.flatnonzero(band.near))
    d = signed_distance(f, curve, reach=4.0 * g.dx)
    scan_shapes.clear()
    d.complete()
    completed = list(scan_shapes)
    scan_shapes.clear()
    whole.scan(far, nearest=False)
    assert completed == scan_shapes
    assert d.values.tobytes() == signed_distance(f, curve).values.tobytes()


@pytest.mark.parametrize("shape", ["circle", "star"])
def test_the_minimum_alone_equals_the_nearest_scan(shape):
    """scan() without the nearest index gives the least squared distances
    of the scan that also finds the index, bit for bit, on every tile."""
    g = make_grid(57, 64, (-2, 2, -2, 2))
    tiles = _Tiles(g, extract_zero_set(field_from_function(g, _BAND_SHAPES[shape])))
    every = np.arange(tiles.kx * tiles.ky)
    best, nearest = tiles.scan(every, nearest=True)
    alone, none = tiles.scan(every, nearest=False)
    assert none is None and nearest.dtype == np.intp
    assert alone.tobytes() == best.tobytes()


def _holds_tiles(d):
    """Whether any attribute of d is a _Tiles."""
    return any(isinstance(v, _Tiles) for v in vars(d).values())


@pytest.mark.parametrize("curved", RECONSTRUCTIONS, ids=["chord", "curved"])
def test_a_complete_band_field_keeps_no_scan_state(curved):
    """No BandField holds a _Tiles after construction, complete at
    construction (reach inf) or banded, and a banded one completed, whether
    by complete() or by a read of its values, has the reach-inf field's
    bytes."""
    g = make_grid(57, 64, (-2, 2, -2, 2))
    f = field_from_function(g, _BAND_SHAPES["star"])
    curve = extract_zero_set(f, curved=curved)
    whole = signed_distance(f, curve, curved=curved)
    assert whole.is_complete and not _holds_tiles(whole)
    for finish in (BandField.complete, lambda d: d.values):
        d = signed_distance(f, curve, curved=curved, reach=2.0 * g.dx)
        assert not d.is_complete and not _holds_tiles(d)
        finish(d)
        assert d.is_complete and not _holds_tiles(d)
        assert d.provisional.tobytes() == whole.values.tobytes()


def test_curve_gap_bounds_the_distance_between_curves():
    """_curve_gap(a, b) bounds the distance from a's chords to b's, sampled
    at 17 points per chord, both ways between the fields of consecutive
    damped steps of the off-centre star at N = 96, over its first 8 steps
    (the first pair is init_history's field and the first step's); the
    first step's field is whole, the others banded.  It reads only b's
    exact nodes, so it bounds the distance to a chord field's chords too,
    and it is inf once a corner of a midpoint's cell is not exact in b."""
    g = make_grid(96, 96, (-2, 2, -2, 2))
    cfg = HmboConfig.hmcf(g, PhysicalParams(1.0, 1.0, 1.0), 1.0 / 300.0)
    d0 = field_from_function(g, _BAND_SHAPES["star"])
    ts = np.linspace(0.0, 1.0, 17)[:, None, None]
    d_nm1, d_n = init_history(cfg, d0, 0.0), d0
    fields = [d_nm1]
    for _ in range(8):
        d_nm1, (d_n, _) = d_n, hmbo_step(d_n, d_nm1, cfg)
        fields.append(d_n)
    assert not fields[-1].is_complete
    chord = signed_distance(d0, extract_zero_set(d0))
    pairs = list(zip(fields[:-1], fields[1:])) + [(fields[0], chord)]
    for a, b in pairs:
        for p, q in ((a, b), (b, a)):
            sa, sb = p.curve.segment_points()
            pts = (sa + ts * (sb - sa)).reshape(-1, 2)
            sampled = np.sqrt(_min_sq_brute(pts[:, 0], pts[:, 1], *q.curve.segment_points()).max())
            assert 0.0 < sampled <= _curve_gap(p, q) + p.slack + q.slack < np.inf
    a, b = fields[-2:]
    mid = 0.5 * np.add(*a.curve.segment_points())[0]
    b.exact[int((mid[1] - g.ymin) // g.dy) + 1, int((mid[0] - g.xmin) // g.dx) + 1] = False
    assert _curve_gap(a, b) == np.inf


@pytest.mark.parametrize("angle", [0.3, 1.0])
@pytest.mark.parametrize("offset", [0.05, 1.3])
def test_curve_gap_is_tight_between_straight_lines(angle, offset):
    """Between two straight level sets, a slanted one a and a vertical one
    b at x = offset, the distance to b's chords grows linearly along each
    of a's chords, so the gap must take the farther chord end: it bounds
    the distance sampled at 33 points per chord and exceeds it by less than
    h/2 (0.29h measured at angle 0.3, h = 1/8).  Taking the nearer end
    instead falls below the sampled distance."""
    g = make_grid(33, 33, (-2, 2, -2, 2))
    fa = field_from_function(g, lambda x, y: np.cos(angle) * x + np.sin(angle) * y - 0.013)
    fb = field_from_function(g, lambda x, y: x - offset)
    a, b = (signed_distance(f, extract_zero_set(f)) for f in (fa, fb))
    sa, sb = a.curve.segment_points()
    pts = (sa + np.linspace(0.0, 1.0, 33)[:, None, None] * (sb - sa)).reshape(-1, 2)
    sampled = np.sqrt(_min_sq_brute(pts[:, 0], pts[:, 1], *b.curve.segment_points()).max())
    assert sampled <= _curve_gap(a, b) + a.slack + b.slack < sampled + 0.5 * g.dx


@pytest.mark.parametrize(
    "field, share",
    [
        (lambda x, y: np.hypot(x, y) - 1.0, 0.0564),
        (lambda x, y: np.hypot(x - 0.3, y + 0.2) - 1.0 - 0.25 * np.cos(5.0 * np.arctan2(y + 0.2, x - 0.3)), 0.0454),
    ],
    ids=["circle", "off-centre-star"],
)
def test_nearest_segment_prunes(scan_shapes, field, share):
    """The (node, candidate) pairs the scan hands to _scan_block stay a small
    share of the nodes x segments of the exhaustive scan at N = 128: about
    a twentieth on the unit circle (0.0513 measured) and on an off-centre
    5-fold star (0.0413), held with 10% headroom.  A bound or a region
    test that keeps every segment stays exact, so only this count notices
    it."""
    g = make_grid(128, 128, (-2, 2, -2, 2))
    a, b = extract_zero_set(field_from_function(g, field)).segment_points()
    _nearest_segment(g, a, b)
    assert 0 < sum(int(np.prod(s)) for s in scan_shapes) <= share * g.nx * g.ny * len(a)


@pytest.mark.parametrize("curved", RECONSTRUCTIONS)
def test_signed_distance_memory(curved):
    """The traced peak of one redistance at N=128 stays under 8 MiB (the
    exhaustive scan in work buffers of 3 x nodes x 16 floats took 7.4 MiB)."""
    g = make_grid(128, 128, (-2, 2, -2, 2))
    f = _circle_field(g)
    curve = extract_zero_set(f, curved=curved)
    tracemalloc.start()
    try:
        signed_distance(f, curve, curved=curved)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


# ---------------------------------------------------------------------------
# redistancing


def test_redistance_removes_scaling():
    g = make_grid(96, 96, (-2, 2, -2, 2))
    f = field_from_function(g, lambda x, y: 2.0 * (np.hypot(x, y) - 1.0))
    d = signed_distance(f, extract_zero_set(f))
    want = _circle_field(g).values
    assert np.max(np.abs(d.values - want)) < 1.5 * g.dx


def _redistance(f, curved):
    return signed_distance(f, extract_zero_set(f, curved=curved), curved=curved)


def test_redistance_idempotent():
    g = make_grid(64, 64, (-2, 2, -2, 2))
    f = _circle_field(g)
    for curved in RECONSTRUCTIONS:
        d1 = _redistance(f, curved)
        d2 = _redistance(d1, curved)
        assert np.max(np.abs(d2.values - d1.values)) < 1.5 * g.dx, curved


def test_redistance_line_field():
    g = make_grid(48, 40, (-2, 2, -1, 1))
    f = field_from_function(g, lambda x, y: 3.0 * (x - 0.2))
    X, _ = g.mesh()
    for curved in RECONSTRUCTIONS:
        d = _redistance(f, curved)
        assert np.max(np.abs(d.values - (X - 0.2))) < 1e-10, curved


def test_redistance_sign_consistency(rng):
    g = make_grid(49, 49, (-2, 2, -2, 2))
    f = _smooth_random_field(g, rng)
    for curved in RECONSTRUCTIONS:
        d = _redistance(f, curved)
        away = np.abs(d.values) > g.dx
        assert np.all(np.sign(d.values[away]) == np.sign(f.values[away])), curved


def test_redistance_odd_under_negation():
    """Extracting and redistancing -f gives exactly the negated field of f,
    in both reconstructions, for every field: negation flips every sign bit,
    so -f has the same vertices and the same segment array, and only the
    signs taken from the field change.  The +-1 checkerboards have a zero
    corner average in every cell.  The last fields hold zero nodes: white
    noise with 15% zeros, a circle through nodes, and x*y, whose axes hold
    +0 and -0."""
    def star(g, k, a):
        return field_from_function(g, lambda x, y: np.hypot(x, y) - 1.0 - a * np.cos(k * np.arctan2(y, x)))

    g40 = make_grid(40, 40, (-2, 2, -2, 2))
    fields = [
        star(g40, 0, 0.0),
        star(make_grid(64, 64, (-2, 2, -2, 2)), 4, 0.15),
        star(g40, 6, 0.25),
    ] + [ScalarField(g40, np.random.default_rng(seed).standard_normal(g40.shape)) for seed in range(20)]
    g9 = make_grid(9, 9, (-1, 1, -1, 1))
    fields += [ScalarField(g9, _checkerboard(g9)), ScalarField(g9, -_checkerboard(g9))]
    fields += [ScalarField(g40, _white_noise_with_zeros(g40, seed)) for seed in range(20)]
    fields += [_circle_field(make_grid(65, 65, (-2, 2, -2, 2))), _xy_field()]
    assert np.sum(fields[-2].values == 0.0) == 4  # the nodes (+-1, 0), (0, +-1)
    for i, f in enumerate(fields):
        neg_f = ScalarField(f.grid, -f.values)
        for curved in RECONSTRUCTIONS:
            gap = np.max(np.abs(_redistance(neg_f, curved).values + _redistance(f, curved).values))
            assert gap == 0.0, (i, curved, gap)


def test_extraction_and_redistance_commute_with_transposition():
    """On a grid with the same nodes along x and y, f.T is f mirrored in the
    diagonal.  Its edges along x are f's edges along y, and the one edge-root
    path reads the same four values for both, so the vertex sets are exact
    mirrors.  The redistanced fields agree to rounding only: transposition
    reorders the segments and their ends, so the point-to-segment arithmetic
    rounds differently."""
    g = make_grid(80, 80, (-2, 2, -2, 2))
    star = field_from_function(
        g, lambda x, y: np.hypot(x - 0.3, y + 0.2) - 1.0 - 0.25 * np.cos(5.0 * np.arctan2(y + 0.2, x - 0.3))
    )
    g40 = make_grid(40, 40, (-2, 2, -2, 2))
    noise = ScalarField(g40, np.random.default_rng(0).standard_normal(g40.shape))
    for i, f in enumerate((star, noise)):
        f_t = ScalarField(f.grid, f.values.T)
        for curved in RECONSTRUCTIONS:
            curve, curve_t = extract_zero_set(f, curved=curved), extract_zero_set(f_t, curved=curved)
            assert np.array_equal(np.unique(curve.vertices, axis=0), np.unique(curve_t.vertices[:, ::-1], axis=0))
            d, d_t = signed_distance(f, curve, curved=curved), signed_distance(f_t, curve_t, curved=curved)
            assert np.max(np.abs(d_t.values - d.values.T)) <= 1e-12, (i, curved)


@pytest.mark.parametrize("k", [-900, -300, -1, 1, 300, 1000])
def test_curvature_vector_is_invariant_under_power_of_two_scaling(k):
    """K of 2^k f is K of f bit for bit, however far 2^k is from 1: each
    node's stencil is brought to its largest |f| near dx by an exact power
    of two before |grad f|^4 is formed, which overflowed or underflowed to
    K = 0 at |k| of some hundreds."""
    g = make_grid(40, 40, (-2, 2, -2, 2))
    for f in (
        field_from_function(g, lambda x, y: np.hypot(x - 0.3, y + 0.2) - 1.0 - 0.2 * np.cos(3.0 * x)),
        ScalarField(g, np.random.default_rng(0).standard_normal(g.shape)),
    ):
        want = _curvature_vector(f, np.indices(g.shape))
        assert np.any(want[0] != 0.0)
        got = _curvature_vector(ScalarField(g, np.ldexp(f.values, k)), np.indices(g.shape))
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), k


def test_curvature_vector_reads_only_its_stencil():
    """K at a node reads f only in its 3 x 3 box: a value of 1e300 at the
    corner node (0, 0) leaves K bit for bit at every node outside rows and
    columns 0-1.  With one power of two taken from the global max|f|, the
    1e300 scaled every other stencil so far down that |grad f|^4
    underflowed, and K became 0 at every node near the curve."""
    g = make_grid(40, 40, (-2, 2, -2, 2))
    f = field_from_function(g, lambda x, y: np.hypot(x - 0.3, y + 0.2) - 1.0 - 0.2 * np.cos(3.0 * x))
    v = f.values.copy()
    v[0, 0] = 1e300
    nodes = np.indices(g.shape)
    want, got = _curvature_vector(f, nodes), _curvature_vector(ScalarField(g, v), nodes)
    far = np.ones(g.shape, dtype=bool)
    far[:2, :2] = False
    assert np.count_nonzero(want[0][far]) > 1000
    assert all(np.array_equal(a[far], b[far]) for a, b in zip(got, want))


@pytest.mark.parametrize("scale", [2.0**-30, 1.0, 2.0**30])
def test_segment_curvature_reads_the_whole_grid_curvature_at_cell_corners(scale):
    """K at the chord midpoints, evaluated only at the four corners of each
    midpoint's cell, has the bits of K over the whole grid sampled by
    eval_bilinear, on 20 random fields of 97 x 61 nodes (walls and corners
    included), scaled by powers of two; and K at any node set is K at the
    whole grid's nodes there."""
    g = make_grid(97, 61, (-1.3, 2.0, -0.7, 1.1))
    rng = np.random.default_rng(7)
    nodes = np.indices(g.shape)
    for _ in range(20):
        f = ScalarField(g, scale * rng.standard_normal(g.shape))
        a, b = extract_zero_set(f, curved=True).segment_points()
        whole = _curvature_vector(f, nodes)
        want = [eval_bilinear(ScalarField(g, k), 0.5 * (a + b)) for k in whole]
        got = _segment_curvature(f, a, b)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
        j, i = rng.integers(0, g.ny, 50), rng.integers(0, g.nx, 50)
        assert all(x.tobytes() == k[j, i].tobytes() for x, k in zip(_curvature_vector(f, (j, i)), whole))


@pytest.mark.parametrize("zeros", [0.0, 0.15], ids=["noise", "noise-with-zeros"])
def test_curved_distance_stays_near_the_chord_distance(zeros):
    """On white noise the curvature vector, which divides by |grad f|^4,
    is unbounded, and an uncapped sagitta put curved distances hundreds of
    L_max/8 away from the chord distance.  The cap |h| <= L/2 keeps every
    bent chord within L/8 of its chord, so the curved distance is within
    L_max/8 of the chord distance to the same segments.  These fields
    reach the bound to rounding, and the two distances take different
    arithmetic (a hypot in the chord's frame against the square root of a
    squared distance), so it is checked to a relative 1e-12."""
    g = make_grid(40, 40, (-1, 1, -1, 1))
    rng = np.random.default_rng(0)
    for i in range(20):
        v = rng.standard_normal(g.shape)
        v[rng.random(g.shape) < zeros] = 0.0
        f = ScalarField(g, v)
        curve = extract_zero_set(f, curved=True)
        sa, sb = curve.segment_points()
        l_max = np.max(np.hypot(*(sb - sa).T))
        gap = np.abs(signed_distance(f, curve, curved=True).values - signed_distance(f, curve).values)
        assert np.max(gap) <= (l_max / 8) * (1 + 1e-12), (i, np.max(gap) / (l_max / 8))


@pytest.mark.parametrize("n, curved_bound", [(64, 1e-6), (128, 1e-7)])
def test_cycle_radius_shift(n, curved_bound):
    """One extract -> redistance -> extract cycle on the exact unit circle.

    The curved reconstruction (damped mode) keeps the mean vertex radius
    within curved_bound, whatever the sign of the field.  The chord
    reconstruction (mcf mode) moves it inward by 0.02 to 0.1 dx^2, the
    offset the frozen mcf figures of the acceptance criteria rest on.
    """
    g = make_grid(n, n, (-2, 2, -2, 2))

    def shift(f, curved):
        c1 = extract_zero_set(f, curved=curved)
        c2 = extract_zero_set(signed_distance(f, c1, curved=curved), curved=curved)
        return average_radius(c2) - average_radius(c1)

    for sign in (1.0, -1.0):
        f = ScalarField(g, sign * _circle_field(g).values)
        assert abs(shift(f, True)) <= curved_bound, sign
        assert 0.02 <= -shift(f, False) / g.dx**2 <= 0.1, sign


def test_redistance_rejects_empty_curve():
    g = make_grid(8, 8, (-1, 1, -1, 1))
    f = ScalarField(g, np.full(g.shape, 1.0))
    with pytest.raises(ValidationError):
        signed_distance(f, extract_zero_set(f))


def test_redistance_rejects_an_overflowing_distance():
    """On a grid of extent 3e154 the far nodes' squared chord distances
    overflow: the field is rejected, as any ScalarField with a non-finite
    value is, at construction, or with a finite reach when its provisional
    tiles are completed."""
    g = make_grid(41, 39, (-1.5e154, 1.5e154, -1.5e154, 1.5e154))
    with np.errstate(over="ignore", invalid="ignore"):
        f = field_from_function(g, lambda x, y: x + 1.45e154)
        curve = extract_zero_set(f)
        with pytest.raises(ValidationError, match="non-finite"):
            signed_distance(f, curve)
        banded = signed_distance(f, curve, reach=0.0)
        with pytest.raises(ValidationError, match="non-finite"):
            banded.values


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
    for curved in RECONSTRUCTIONS:
        curve = extract_zero_set(f, curved=curved)
        d = signed_distance(f, curve, curved=curved)
        order = np.lexsort((curve.vertices[:, 0], curve.vertices[:, 1]))
        mirrored = np.column_stack([-curve.vertices[:, 0], curve.vertices[:, 1]])
        m_order = np.lexsort((mirrored[:, 0], mirrored[:, 1]))
        assert np.max(np.abs(curve.vertices[order] - mirrored[m_order])) < 1e-13, curved
        assert np.max(np.abs(d.values - d.values[:, ::-1])) < 1e-13, curved


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


def test_average_radius_empty_curve_rejected():
    g = make_grid(8, 8, (-1, 1, -1, 1))
    empty = extract_zero_set(ScalarField(g, np.full(g.shape, 1.0)))
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
