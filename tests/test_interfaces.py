"""Zero-set extraction, exact segment distance, and redistancing tests."""

import tracemalloc

import numpy as np
import pytest

from hmbo.errors import ValidationError
from hmbo.fields import ScalarField, field_from_function, make_grid
from hmbo.interfaces import (
    InterfaceCurve,
    _bent_chord_distance,
    _bent_chord_frames,
    _nearest_segment,
    _point_segment_sq,
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


def test_has_interface_counts_zero_as_positive():
    g = make_grid(3, 3, (0, 1, 0, 1))
    vals = np.zeros(g.shape)
    assert not has_interface(ScalarField(g, vals))  # all "positive"
    vals2 = np.zeros(g.shape)
    vals2[0, 0] = -1.0
    assert has_interface(ScalarField(g, vals2))
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


def _white_noise_with_zeros(g):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(g.shape)
    v[rng.random(g.shape) < 0.15] = 0.0
    return v


@pytest.mark.parametrize("field", ["noise-with-zeros", "checkerboard"])
def test_every_vertex_ends_two_segments_or_one_on_a_wall(field):
    """Each crossed edge inside the domain is an edge of two cells and ends
    one segment of each; a crossed edge on the domain boundary belongs to
    one cell.  _segment_neighbours rests on this."""
    g = make_grid(40, 33, (-2, 2, -1.5, 1.7))
    v = _checkerboard(g) if field == "checkerboard" else _white_noise_with_zeros(g)
    for curved in RECONSTRUCTIONS:
        curve = extract_zero_set(ScalarField(g, v), curved=curved)
        ends = np.bincount(curve.segments.ravel(), minlength=curve.n_vertices)
        assert set(ends) <= {1, 2}, curved
        # the vertices ending one segment are the crossings of the boundary
        ring = np.concatenate([v[0, :], v[1:, -1], v[-1, -2::-1], v[-2:0:-1, 0], v[:1, 0]]) >= 0.0
        assert np.sum(ends == 1) == np.sum(ring[1:] != ring[:-1]), curved
        x, y = curve.vertices[ends == 1].T
        assert np.all((x == g.xmin) | (x == g.xmax) | (y == g.ymin) | (y == g.ymax)), curved


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
# (bottom-left, bottom-right, top-right, top-left) is >= 0; the saddles 5
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
    pos = v >= 0.0
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


@pytest.mark.parametrize("field", ["star", "noise-with-zeros", "checkerboard", "-checkerboard"])
def test_extraction_matches_the_case_table(field):
    """extract_zero_set's one rule gives the case table's segments, in the
    same order and with the same end order, which the chord distance's
    bits depend on (_point_segment_sq is not symmetric in its ends)."""
    g = make_grid(40, 33, (-2, 2, -1.5, 1.7))
    v = {
        "star": field_from_function(
            g, lambda x, y: np.hypot(x, y) - 1.0 - 0.25 * np.cos(6.0 * np.arctan2(y, x))
        ).values,
        "noise-with-zeros": _white_noise_with_zeros(g),
        "checkerboard": _checkerboard(g),
        "-checkerboard": -_checkerboard(g),
    }[field]
    for curved in RECONSTRUCTIONS:
        curve = extract_zero_set(ScalarField(g, v), curved=curved)
        assert np.array_equal(curve.segments, _marching_squares_reference(v)), curved


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
    of subnormal extent."""
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


def test_signed_distance_equals_brute_build(rng, monkeypatch):
    """Both reconstructions give the same field on the pruned scan as on
    the exhaustive one."""
    g = make_grid(57, 64, (-2, 2, -2, 2))
    fields = (_circle_field(g), _smooth_random_field(g, rng))
    pruned = [
        signed_distance(f, extract_zero_set(f, curved=c), curved=c) for f in fields for c in RECONSTRUCTIONS
    ]
    monkeypatch.setattr(
        "hmbo.interfaces._nearest_segment",
        lambda g, a, b: tuple(v.reshape(g.shape) for v in _brute_nearest(g, a, b)),
    )
    brute = [
        signed_distance(f, extract_zero_set(f, curved=c), curved=c) for f in fields for c in RECONSTRUCTIONS
    ]
    for p, q in zip(pruned, brute):
        assert np.array_equal(p.values, q.values)


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
    in both reconstructions, when no node value is exactly zero: -f has
    the same vertices and the same segment array, and only the signs
    taken from the field change.  The +-1 checkerboards have a zero corner
    average in every cell."""
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
    for i, f in enumerate(fields):
        assert np.all(f.values != 0.0)
        neg_f = ScalarField(f.grid, -f.values)
        for curved in RECONSTRUCTIONS:
            gap = np.max(np.abs(_redistance(neg_f, curved).values + _redistance(f, curved).values))
            assert gap == 0.0, (i, curved, gap)


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
