"""Zero level set extraction and signed-distance rebuilding.

Extraction is marching squares.  Nodes with value exactly 0 are treated as
positive, so every configuration is unambiguous and deterministic; the two
saddle configurations are resolved by the sign of the cell-center average.
Vertices are identified with the crossed cell edge they sit on, which
deduplicates shared segment endpoints exactly.

The rebuilt distance field takes its sign from the source field at each
node, so for a field with no exact zero on a node, extracting and
redistancing -f gives the negated field of f: the threshold-dynamics step
is odd under d -> -d, and either side of the interface may be the positive
one.

Redistancing finds, for every grid node, the nearest extracted segment by
an exact pruned scan (_nearest_segment).  The nodes are grouped into tiles;
the nearest segment to a tile's centre bounds the distance of every node of
the tile, and only the segments whose bounding box lies within that bound
(widened by a relative slack far above rounding) are scanned, in increasing
index order, with the same per-pair arithmetic as an exhaustive scan.  So
the field is bit-identical to the exhaustive scan's and the first segment
wins ties.

Two reconstructions of the interface are offered:

* the chord reconstruction (the default) puts each vertex at the root of
  the linear interpolant along its cell edge and measures the exact
  Euclidean distance to the straight segments;
* the curved reconstruction (``curved=True``) puts each vertex at the root
  of the cubic through the four collinear nodes around its edge (edges whose
  stencil would leave the grid keep the linear root) and measures the
  distance to each node's nearest segment, and to that segment's two
  neighbours, bent by its sagitta, with the curvature taken from the source
  field (after Chopp, SIAM J. Sci. Comput. 2001, "Some improvements of the
  fast marching method").  Chords in cells next to the wall stay straight.

The linear roots and the chords of a curved level set both lie on the side
of its centre of curvature, so one extract/redistance cycle of the chord
reconstruction moves a unit circle inward by about 0.05 dx^2.  The curved
reconstruction's shift falls like dx^4 (3e-7 at dx = 4/63) and straight
lines stay exact.

hmbo.flow's damped step ("hmcf") uses the curved reconstruction: its
history term 2*d_n - d_nm1 turns a per-cycle shift into a forcing of order
shift/tau^2, which the chord reconstruction's shift makes visible within a
few dozen steps.  The mcf step sees a shift only as shift/tau, and its
frozen reference figures rest on the chord reconstruction, so it keeps it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .fields import ScalarField

# Unordered segment endpoints per marching-squares configuration, keyed by
# s0 + 2*s1 + 4*s2 + 8*s3 (corner order: bottom-left, bottom-right,
# top-right, top-left).  Cell edges: 0 bottom, 1 right, 2 top, 3 left.
# The saddle configurations 5 and 10 are handled separately.
_CASE_EDGES = {
    1: [(0, 3)],
    2: [(0, 1)],
    3: [(1, 3)],
    4: [(1, 2)],
    6: [(0, 2)],
    7: [(2, 3)],
    8: [(2, 3)],
    9: [(0, 2)],
    11: [(1, 2)],
    12: [(1, 3)],
    13: [(0, 1)],
    14: [(0, 3)],
}
_SADDLE_EDGES = {
    # (case, center sign treated as positive): segment pairs
    (5, True): [(0, 1), (2, 3)],
    (5, False): [(0, 3), (1, 2)],
    (10, True): [(0, 3), (1, 2)],
    (10, False): [(0, 1), (2, 3)],
}


@dataclass
class InterfaceCurve:
    """Polyline soup approximating a zero level set.

    vertices is an (M, 2) array of points, each lying on a grid cell edge;
    segments is an (S, 2) integer array of vertex indices.
    """

    vertices: np.ndarray = field(repr=False)
    segments: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        self.segments = np.asarray(self.segments, dtype=np.intp).reshape(-1, 2)

    @property
    def is_empty(self) -> bool:
        return self.segments.shape[0] == 0

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_segments(self) -> int:
        return self.segments.shape[0]

    def segment_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint coordinate arrays (S, 2), (S, 2)."""
        return self.vertices[self.segments[:, 0]], self.vertices[self.segments[:, 1]]


def has_interface(f: ScalarField) -> bool:
    """True iff both signs occur among nodal values (exact zeros count as +)."""
    v = f.values
    return bool(np.any(v < 0.0)) and bool(np.any(v >= 0.0))


def _cubic_edge_roots(v: np.ndarray, r: np.ndarray, k: np.ndarray,
                      t: np.ndarray) -> np.ndarray:
    """Roots on the edges v[r, k] -- v[r, k+1] of the cubic through the nodes
    v[r, k-1 .. k+2], as fractions of the edge.

    Newton's method starts at the linear roots t and is clipped to the edge;
    an edge whose stencil leaves the row, or whose Newton iterate ends with a
    larger cubic residual than t, keeps t.
    """
    n = v.shape[1]
    inner = (k >= 1) & (k + 2 <= n - 1)
    fm, f0, f1, f2 = (v[r, np.clip(k + o, 0, n - 1)] for o in (-1, 0, 1, 2))
    # p(s) = f0 + c1 s + c2 s^2 + c3 s^3 interpolates f at s = -1, 0, 1, 2
    c1 = f1 - fm / 3.0 - f0 / 2.0 - f2 / 6.0
    c2 = 0.5 * (fm + f1) - f0
    c3 = (f2 - fm) / 6.0 + 0.5 * (f0 - f1)

    def cubic(s):
        return f0 + s * (c1 + s * (c2 + s * c3))

    s = t
    for _ in range(4):
        dp = c1 + s * (2.0 * c2 + 3.0 * s * c3)
        step = cubic(s) / np.where(dp != 0.0, dp, np.inf)
        s = np.clip(s - step, 0.0, 1.0)
    better = np.abs(cubic(s)) <= np.abs(cubic(t))
    return np.where(inner & better, s, t)


def extract_zero_set(f: ScalarField, curved: bool = False) -> InterfaceCurve:
    """Marching-squares zero level set of f as an InterfaceCurve.

    Vertices sit at the linear roots along their cell edges, or with
    curved=True at the roots of the four-node cubic (see the module
    docstring).
    """
    g = f.grid
    v = f.values
    pos = v >= 0.0  # exact zeros are positive by convention

    xs = g.x_coords()
    ys = g.y_coords()

    # crossing vertices on horizontal edges (node (i,j) -- (i+1,j))
    hmask = pos[:, :-1] != pos[:, 1:]
    hj, hi = np.nonzero(hmask)
    va = v[hj, hi]
    vb = v[hj, hi + 1]
    th = va / (va - vb)
    if curved:
        th = _cubic_edge_roots(v, hj, hi, th)
    hx = xs[hi] + th * g.dx
    hy = ys[hj]

    # crossing vertices on vertical edges (node (i,j) -- (i,j+1))
    vmask = pos[:-1, :] != pos[1:, :]
    vj, vi = np.nonzero(vmask)
    wa = v[vj, vi]
    wb = v[vj + 1, vi]
    tv = wa / (wa - wb)
    if curved:
        tv = _cubic_edge_roots(v.T, vi, vj, tv)
    vx = xs[vi]
    vy = ys[vj] + tv * g.dy

    vertices = np.column_stack(
        [np.concatenate([hx, vx]), np.concatenate([hy, vy])]
    )

    n_h = hx.size
    h_idx = np.full(hmask.shape, -1, dtype=np.intp)
    h_idx[hj, hi] = np.arange(n_h)
    v_idx = np.full(vmask.shape, -1, dtype=np.intp)
    v_idx[vj, vi] = n_h + np.arange(vx.size)

    s = pos.astype(np.int8)
    case = (
        s[:-1, :-1] + 2 * s[:-1, 1:] + 4 * s[1:, 1:] + 8 * s[1:, :-1]
    )

    def cell_edge_ids(cj, ci, edge):
        if edge == 0:
            return h_idx[cj, ci]
        if edge == 1:
            return v_idx[cj, ci + 1]
        if edge == 2:
            return h_idx[cj + 1, ci]
        return v_idx[cj, ci]

    seg_a = []
    seg_b = []

    def emit(cj, ci, pairs):
        for ea, eb in pairs:
            seg_a.append(cell_edge_ids(cj, ci, ea))
            seg_b.append(cell_edge_ids(cj, ci, eb))

    for code, pairs in _CASE_EDGES.items():
        cj, ci = np.nonzero(case == code)
        if cj.size:
            emit(cj, ci, pairs)

    for code in (5, 10):
        cj, ci = np.nonzero(case == code)
        if cj.size == 0:
            continue
        center = (
            v[cj, ci] + v[cj, ci + 1] + v[cj + 1, ci] + v[cj + 1, ci + 1]
        ) * 0.25
        cpos = center >= 0.0
        for flag in (True, False):
            sel = cpos if flag else ~cpos
            if np.any(sel):
                emit(cj[sel], ci[sel], _SADDLE_EDGES[(code, flag)])

    if seg_a:
        segments = np.column_stack(
            [np.concatenate(seg_a), np.concatenate(seg_b)]
        )
    else:
        segments = np.empty((0, 2), dtype=np.intp)
    return InterfaceCurve(vertices, segments)


def _point_segment_sq(px, py, ax, ay, bx, by):
    """Squared point-to-segment distances; arguments broadcast."""
    ux = bx - ax
    uy = by - ay
    l2 = ux * ux + uy * uy
    t = ((px - ax) * ux + (py - ay) * uy) / np.where(l2 > 0.0, l2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    cx = ax + t * ux
    cy = ay + t * uy
    return (px - cx) ** 2 + (py - cy) ** 2


def _min_sq_brute(px, py, a, b, seg_chunk=64):
    """Exhaustive minimum over all segments, chunked to bound memory.

    The plain reference that the tests hold _nearest_segment to, bit for bit.
    """
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


# The scan groups the points into square tiles of about _TILE x _TILE grid
# nodes, and holds at most _BLOCK (point, segment) pairs in each of its three
# work buffers (768 KiB in all, small enough to stay in a typical L2 cache).
# _SLACK widens the pruning bound far beyond the rounding error of the
# per-pair arithmetic.
_TILE = 8
_BLOCK = 1 << 15
_SLACK = 1e-9


def _tiles(px, py):
    """Tile index of each point: its bounding box cut into about square
    tiles that would hold _TILE x _TILE points if they were spread evenly."""
    n = px.size
    x0, y0 = px.min(), py.min()
    w, h = px.max() - x0, py.max() - y0
    spacing = np.sqrt(w * h / n) if w * h > 0.0 else max(w, h) / n

    def cut(p, lo, extent):
        # one tile across an empty extent, or one whose spacing underflows
        k = int(min(n, max(1, round(extent / (_TILE * spacing))))) if spacing > 0.0 else 1
        if k == 1:
            return np.zeros(n, dtype=np.intp), 1
        # (p - lo) / extent lies in [0, 1], so no step can overflow
        return np.minimum(((p - lo) / extent * k).astype(np.intp), k - 1), k

    ix, kx = cut(px, x0, w)
    iy, _ = cut(py, y0, h)
    return iy * kx + ix


def _scan_block(px, py, seg, work):
    """Least squared distance from the points px, py (T, P, 1) to the
    segments seg = (ax, ay, ux, uy, l2), each (T or 1, 1, C) with l2 already
    made nonzero, and the first position along C that attains it.

    The per-pair arithmetic is _point_segment_sq's, operation for operation,
    in the three rows of work, over as many segments at a time as they hold.
    """
    shape = px.shape[:2]
    rows = shape[0] * shape[1]
    best = np.full(rows, np.inf)
    first = np.zeros(rows, dtype=np.intp)
    at = np.arange(rows)
    step = max(1, work.shape[1] // rows)
    for s in range(0, seg[0].shape[-1], step):
        ax, ay, ux, uy, l2 = (v[..., s : s + step] for v in seg)
        t, ex, ey = (w[: rows * ax.shape[-1]].reshape(shape + ax.shape[-1:]) for w in work)
        np.multiply(np.subtract(px, ax, out=ex), ux, out=ex)
        np.multiply(np.subtract(py, ay, out=ey), uy, out=ey)
        np.divide(np.add(ex, ey, out=t), l2, out=t)
        np.clip(t, 0.0, 1.0, out=t)
        # (px - (ax + t*ux))**2 + (py - (ay + t*uy))**2
        np.square(np.subtract(px, np.add(ax, np.multiply(t, ux, out=ex), out=ex), out=ex), out=ex)
        np.square(np.subtract(py, np.add(ay, np.multiply(t, uy, out=ey), out=ey), out=ey), out=ey)
        d2 = np.add(ex, ey, out=t).reshape(rows, -1)
        k = d2.argmin(axis=1)
        m = d2[at, k]
        closer = m < best
        best[closer] = m[closer]
        first[closer] = k[closer] + s
    return best.reshape(shape), first.reshape(shape)


def _nearest_segment(px, py, a, b):
    """Squared distance from each point to its nearest segment, and the
    index of that segment (the first one on ties).  Points and segment ends
    are finite.

    A pruned scan, exactly equal to the exhaustive one (_min_sq_brute):

    * the points are grouped into tiles (_tiles); the nearest segment to the
      centre of each tile's box gives an upper bound U on the distance of
      every point of the tile to its nearest segment: the largest distance
      from the box's corners to that segment (the distance to a segment is
      convex, so over a box it peaks at a corner);
    * a segment whose bounding box is farther than U from the tile's box is
      farther than U from every point of the tile.  A computed distance
      falls below the exact one by at most the rounding of a few operations,
      a few units in the last place of the largest coordinate (scale), so
      keeping every segment within U (1 + _SLACK) + _SLACK * scale of the
      tile's box keeps every segment whose computed distance can reach or
      tie the computed minimum;
    * each tile's candidates, in increasing index order, are scanned with
      _point_segment_sq's arithmetic, so the minimum is bit-identical and
      the first index among equal distances wins.  Tiles are binned by their
      candidate count, rounded up to four steps per octave, and scanned as
      dense (tile, point, candidate) blocks; a tile's short candidate list is
      padded with its own last candidate, and its points with its own last
      point, neither of which changes the first minimum.

    On a 128 x 128 grid and a circle this scans about a fifth of the
    (point, segment) pairs.
    """
    n, m = px.size, a.shape[0]
    best = np.full(n, np.inf)
    nearest = np.zeros(n, dtype=np.intp)
    if n == 0 or m == 0:
        return best, nearest
    ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    ux = bx - ax
    uy = by - ay
    l2 = ux * ux + uy * uy
    seg = (ax, ay, ux, uy, np.where(l2 > 0.0, l2, 1.0))
    slo_x, shi_x = np.minimum(ax, bx), np.maximum(ax, bx)
    slo_y, shi_y = np.minimum(ay, by), np.maximum(ay, by)
    scale = max(np.abs(a).max(), np.abs(b).max(), np.abs(px).max(), np.abs(py).max())

    tile = _tiles(px, py)
    order = np.argsort(tile, kind="stable")
    qx, qy = px[order], py[order]
    counts = np.bincount(tile)
    counts = counts[counts > 0]
    starts = np.cumsum(counts) - counts
    tlo_x, thi_x = np.minimum.reduceat(qx, starts), np.maximum.reduceat(qx, starts)
    tlo_y, thi_y = np.minimum.reduceat(qy, starts), np.maximum.reduceat(qy, starts)
    work = np.empty((3, max(_BLOCK, counts.max())))
    per = max(1, work.shape[1] // m)  # tiles per pass over all segments
    passes = [slice(t, t + per) for t in range(0, counts.size, per)]

    # each tile's upper bound: the largest distance from its box's corners
    # to the segment nearest to the box's centre
    cx, cy = 0.5 * (tlo_x + thi_x), 0.5 * (tlo_y + thi_y)
    every = tuple(v[None, None, :] for v in seg)
    k = np.concatenate(
        [_scan_block(cx[p, None, None], cy[p, None, None], every, work)[1][:, 0] for p in passes]
    )
    corners = [
        _point_segment_sq(x, y, ax[k], ay[k], bx[k], by[k]) for x in (tlo_x, thi_x) for y in (tlo_y, thi_y)
    ]
    bound = np.sqrt(np.max(corners, axis=0)) * (1.0 + _SLACK) + _SLACK * scale

    # each tile's candidates: the segments whose box lies within its bound
    n_cand, cols = [], []
    for p in passes:
        gx = np.maximum(np.maximum(slo_x - thi_x[p, None], tlo_x[p, None] - shi_x), 0.0)
        gy = np.maximum(np.maximum(slo_y - thi_y[p, None], tlo_y[p, None] - shi_y), 0.0)
        near = gx * gx + gy * gy <= (bound[p] ** 2)[:, None]
        n_cand.append(near.sum(axis=1))
        cols.append(np.nonzero(near)[1])
    n_cand, cols = np.concatenate(n_cand), np.concatenate(cols)
    cand_start = np.cumsum(n_cand) - n_cand

    # bins of tiles whose candidate counts round up, at four steps per
    # octave, to the same width
    step = 2 ** np.maximum(np.log2(n_cand).astype(np.intp) - 2, 0)
    widths = -(-n_cand // step) * step
    for width in np.unique(widths):
        in_bin = np.nonzero(widths == width)[0]
        size = counts[in_bin].max()
        fit = max(1, work.shape[1] // (size * width))  # tiles per block
        for i in range(0, in_bin.size, fit):
            tl = in_bin[i : i + fit]
            cand = cols[cand_start[tl, None] + np.minimum(np.arange(width), n_cand[tl, None] - 1)]
            pts = starts[tl, None] + np.minimum(np.arange(size), counts[tl, None] - 1)
            d2, j = _scan_block(
                qx[pts][..., None], qy[pts][..., None], tuple(v[cand][:, None, :] for v in seg), work
            )
            real = np.arange(size) < counts[tl, None]
            dest = order[pts[real]]
            best[dest] = d2[real]
            nearest[dest] = np.take_along_axis(cand, j, axis=1)[real]
    return best, nearest


def _curvature_vector(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Curvature vector K = -div(n) n, n = grad f/|grad f|, of f's level sets.

    Central differences on the interior nodes; wall nodes and nodes with a
    vanishing gradient get K = 0.  K does not change under f -> -f.
    """
    g = f.grid
    v = f.values
    kx = np.zeros(g.shape)
    ky = np.zeros(g.shape)
    c = v[1:-1, 1:-1]
    fx = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * g.dx)
    fy = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * g.dy)
    fxx = (v[1:-1, 2:] - 2.0 * c + v[1:-1, :-2]) / (g.dx * g.dx)
    fyy = (v[2:, 1:-1] - 2.0 * c + v[:-2, 1:-1]) / (g.dy * g.dy)
    fxy = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4.0 * g.dx * g.dy)
    g2 = fx * fx + fy * fy
    ok = g2 > 0.0
    g2 = np.where(ok, g2, 1.0)
    # div(n) / |grad f|, so that multiplying by grad f gives div(n) n
    k = (fxx * fy * fy - 2.0 * fx * fy * fxy + fyy * fx * fx) / (g2 * g2)
    k = np.where(ok, k, 0.0)
    kx[1:-1, 1:-1] = -k * fx
    ky[1:-1, 1:-1] = -k * fy
    return kx, ky


def _segment_curvature(f: ScalarField, a: np.ndarray, b: np.ndarray):
    """_curvature_vector taken bilinearly at each chord midpoint; 0 for
    chords in cells next to the wall."""
    g = f.grid
    kx, ky = _curvature_vector(f)
    mx = 0.5 * (a[:, 0] + b[:, 0])
    my = 0.5 * (a[:, 1] + b[:, 1])
    ci = np.clip(np.floor((mx - g.xmin) / g.dx).astype(np.intp), 0, g.nx - 2)
    cj = np.clip(np.floor((my - g.ymin) / g.dy).astype(np.intp), 0, g.ny - 2)
    u = (mx - g.xmin) / g.dx - ci
    w = (my - g.ymin) / g.dy - cj
    inner = (ci >= 1) & (ci <= g.nx - 3) & (cj >= 1) & (cj <= g.ny - 3)

    def bilinear(z):
        val = (
            (1 - u) * (1 - w) * z[cj, ci]
            + u * (1 - w) * z[cj, ci + 1]
            + (1 - u) * w * z[cj + 1, ci]
            + u * w * z[cj + 1, ci + 1]
        )
        return np.where(inner, val, 0.0)

    return bilinear(kx), bilinear(ky)


def _segment_neighbours(curve: InterfaceCurve) -> np.ndarray:
    """(S, 2) array: the other segment at each end vertex of each segment,
    or the segment itself where no other one ends there.

    Marching squares ends at most two segments at a vertex, one from each
    cell beside its edge.
    """
    owner = np.repeat(np.arange(curve.n_segments), 2)
    ends = curve.segments.ravel()
    low = np.full(curve.n_vertices, curve.n_segments)
    high = np.full(curve.n_vertices, -1)
    np.minimum.at(low, ends, owner)
    np.maximum.at(high, ends, owner)
    return np.where(low[ends] == owner, high[ends], low[ends]).reshape(-1, 2)


def _bent_chord_distance(px, py, a, b, kx, ky):
    """Distance from each point to the chord [a, b] bent by its sagitta.

    The chord is bent into q(t) = a + t (b - a) - (1/2) (K.n) L^2 t (1 - t) n,
    with L its length, n its unit normal and K the curvature vector there;
    the closest t is found by Newton's method from the chord projection.
    All arguments are per point (a, b, kx, ky already gathered).
    """
    ux = b[:, 0] - a[:, 0]
    uy = b[:, 1] - a[:, 1]
    l2 = ux * ux + uy * uy
    seg_len = np.sqrt(l2)
    has_len = seg_len > 0.0
    safe_len = np.where(has_len, seg_len, 1.0)
    ex = np.where(has_len, ux / safe_len, 1.0)
    ey = np.where(has_len, uy / safe_len, 0.0)
    # local frame: x along the chord, y along the normal (-ey, ex)
    h = -0.5 * l2 * (ex * ky - ey * kx)
    rx = px - a[:, 0]
    ry = py - a[:, 1]
    x = rx * ex + ry * ey
    y = ry * ex - rx * ey
    t = np.clip(x / safe_len, 0.0, 1.0)
    for _ in range(3):
        slope = 1.0 - 2.0 * t
        r_y = y - h * t * (1.0 - t)
        grad = -seg_len * (x - t * seg_len) - h * slope * r_y
        hess = l2 + 2.0 * h * r_y + (h * slope) ** 2
        step = grad / np.where(hess > 0.0, hess, np.inf)
        t = np.clip(t - step, 0.0, 1.0)
    return np.hypot(x - t * seg_len, y - h * t * (1.0 - t))


def min_segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest of the segments [a_i, b_i].

    points: (n, 2); a, b: (m, 2).  Returns (n,).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if a.shape[0] == 0:
        raise ValidationError("no segments to measure distance against")
    return np.sqrt(_nearest_segment(pts[:, 0], pts[:, 1], a, b)[0])


def signed_distance(f: ScalarField, curve: InterfaceCurve, curved: bool = False) -> ScalarField:
    """Rebuild a signed distance field from f's sign pattern and its zero set.

    Magnitude is the exact distance to the nearest segment of curve, or with
    curved=True the least distance to that segment and its two neighbours,
    each bent by its sagitta (see the module docstring); sign is taken from
    f at each node (exact zeros count as +).
    """
    if curve.is_empty:
        raise ValidationError("cannot redistance against an empty interface")
    g = f.grid
    X, Y = g.mesh()
    px, py = X.ravel(), Y.ravel()
    sa, sb = curve.segment_points()
    if curved:
        # the bent chords of the nearest segment and of its two neighbours,
        # which share its end vertices and so tie with it near them; rows
        # are gathered with np.take, several times faster than sa[k] here
        _, nearest = _nearest_segment(px, py, sa, sb)
        kx, ky = _segment_curvature(f, sa, sb)
        around = np.take(_segment_neighbours(curve), nearest, axis=0)
        dist = np.inf
        for k in (nearest, around[:, 0], around[:, 1]):
            ka, kb = np.take(sa, k, axis=0), np.take(sb, k, axis=0)
            dist = np.minimum(dist, _bent_chord_distance(px, py, ka, kb, kx[k], ky[k]))
        dist = dist.reshape(g.shape)
    else:
        dist = min_segment_distance(np.column_stack([px, py]), sa, sb).reshape(g.shape)
    sgn = np.where(f.values >= 0.0, 1.0, -1.0)
    return ScalarField(g, sgn * dist)


def average_radius(curve: InterfaceCurve) -> float:
    """Mean distance of the curve's vertices to the origin."""
    if curve.n_vertices == 0:
        raise ValidationError("empty interface has no radius")
    return float(np.mean(np.hypot(curve.vertices[:, 0], curve.vertices[:, 1])))


def write_interface_csv(curve: InterfaceCurve, path) -> None:
    """Write the vertex cloud as x,y rows."""
    with open(path, "w", newline="") as fh:
        fh.write("x,y\n")
        for x, y in curve.vertices:
            fh.write(f"{x:.17g},{y:.17g}\n")
