"""Zero level set extraction and signed-distance rebuilding.

Extraction is marching squares by one rule.  Nodes with value exactly 0
are treated as positive, so a cell crosses zero, two or four of its edges
(0 bottom, 1 right, 2 top, 3 left).  A cell joins its two crossed edges, in
increasing edge number; a saddle cell, with four, joins (0, 3) and (1, 2)
when the average of its corners is nonzero and differs in sign from its
bottom-left node, and (0, 1) and (2, 3) otherwise.  Segments come out in
row-major cell order.  Vertices are identified with the crossed cell edge
they sit on, which deduplicates shared segment endpoints exactly: every
vertex ends two segments, one from each cell beside its edge, or one on a
wall edge.

Negating a field with no exact zero on a node keeps every vertex, every
cell's pairing and the row-major order, so -f gives the same segment array
as f.  The rebuilt distance field takes its sign from the source field at
each node, so extracting and redistancing -f gives exactly the negated
field of f, in both reconstructions: the threshold-dynamics step is odd
under d -> -d, and either side of the interface may be the positive one.

Redistancing finds, for every grid node, the nearest extracted segment by
an exact pruned scan (_nearest_segment).  The grid's nodes are grouped into
blocks of 8 x 8 nodes; the nearest segment to a block's centre bounds the
distance of every node of the block, and only the segments whose bounding
box lies within that bound (widened by a relative slack far above
rounding) are scanned, in increasing index order, with the same per-pair
arithmetic as an exhaustive scan.  So the field is bit-identical to the
exhaustive scan's and the first segment wins ties.

Two reconstructions of the interface are offered:

* the chord reconstruction (the default) puts each vertex at the root of
  the linear interpolant along its cell edge and measures the exact
  Euclidean distance to the straight segments;
* the curved reconstruction (``curved=True``) puts each vertex at the root
  of the cubic through the four collinear nodes around its edge and
  measures the distance to each node's nearest segment, and to that
  segment's two neighbours, bent by its sagitta, with the curvature taken
  from the source field (after Chopp, SIAM J. Sci. Comput. 2001, "Some
  improvements of the fast marching method").  Where a stencil reaches past
  a wall it reads the mirror ghost nodes of hmbo.fields, the walls' one
  convention, so a level set that meets a wall is reconstructed there as it
  would be inside the mirrored domain.

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
from .fields import ScalarField, _mirror_ghosts, eval_bilinear


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


# Cap on the iterations of _cubic_edge_roots' bracketed solve: more than the
# bisections from [0, 1] down to adjacent doubles near 1.
_ROOT_ITERATIONS = 64


def _cubic_edge_roots(ghosted: np.ndarray, r: np.ndarray, k: np.ndarray,
                      t: np.ndarray) -> np.ndarray:
    """Roots on the edges (r, k) -- (r, k+1) of the cubic through the nodes
    (r, k-1 .. k+2), as fractions of the edge.  ghosted is the field with
    its ring of mirror ghost nodes (_mirror_ghosts): node (r, k) is
    ghosted[r + 1, k + 1].

    The cubic takes the signs of its edge's ends at s = 0 and s = 1, so
    [0, 1] brackets a root.  Newton's method starts at the linear roots t
    and each iterate shrinks the bracket; a step that would leave the
    bracket (or a flat cubic) bisects it instead.  The solve stops when no
    iterate changes, or after _ROOT_ITERATIONS.
    """
    fm, f0, f1, f2 = (ghosted[r + 1, k + o] for o in range(4))
    # p(s) = f0 + c1 s + c2 s^2 + c3 s^3 interpolates f at s = -1, 0, 1, 2
    c1 = f1 - fm / 3.0 - f0 / 2.0 - f2 / 6.0
    c2 = 0.5 * (fm + f1) - f0
    c3 = (f2 - fm) / 6.0 + 0.5 * (f0 - f1)
    pos0 = f0 >= 0.0  # the sign convention of extract_zero_set
    lo, hi = np.zeros_like(t), np.ones_like(t)
    s = t
    for _ in range(_ROOT_ITERATIONS):
        ps = f0 + s * (c1 + s * (c2 + s * c3))
        dp = c1 + s * (2.0 * c2 + 3.0 * s * c3)
        # keep p(lo) on the side of f0 and p(hi) on the side of f1
        low_side = (ps >= 0.0) == pos0
        lo = np.where(low_side, s, lo)
        hi = np.where(low_side, hi, s)
        newton = s - ps / np.where(dp != 0.0, dp, np.nan)
        inside = (newton > lo) & (newton < hi)
        s_next = np.where(ps == 0.0, s, np.where(inside, newton, 0.5 * (lo + hi)))
        if np.array_equal(s_next, s):
            break
        s = s_next
    return s


def extract_zero_set(f: ScalarField, curved: bool = False) -> InterfaceCurve:
    """Marching-squares zero level set of f as an InterfaceCurve, by the
    one rule of the module docstring.

    Vertices sit at the linear roots along their cell edges, or with
    curved=True at the roots of the four-node cubic (see the module
    docstring).
    """
    g = f.grid
    v = f.values
    pos = v >= 0.0  # exact zeros are positive by convention
    if curved:
        ghosted = _mirror_ghosts(v)  # read for both edge directions

    xs = g.x_coords()
    ys = g.y_coords()

    # crossing vertices on horizontal edges (node (i,j) -- (i+1,j))
    hmask = pos[:, :-1] != pos[:, 1:]
    hj, hi = np.nonzero(hmask)
    va = v[hj, hi]
    vb = v[hj, hi + 1]
    th = va / (va - vb)
    if curved:
        th = _cubic_edge_roots(ghosted, hj, hi, th)
    hx = xs[hi] + th * g.dx
    hy = ys[hj]

    # crossing vertices on vertical edges (node (i,j) -- (i,j+1))
    vmask = pos[:-1, :] != pos[1:, :]
    vj, vi = np.nonzero(vmask)
    wa = v[vj, vi]
    wb = v[vj + 1, vi]
    tv = wa / (wa - wb)
    if curved:
        tv = _cubic_edge_roots(ghosted.T, vi, vj, tv)
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

    # each cell's vertex ids on its edges 0..3, -1 where an edge is not
    # crossed; a saddle cell whose corner average is nonzero and differs in
    # sign from its bottom-left node is reordered to join (0, 3) and (1, 2)
    ids = np.stack([h_idx[:-1], v_idx[:, 1:], h_idx[1:], v_idx[:, :-1]], axis=-1)
    crossed = ids >= 0
    centre = (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:]) * 0.25
    turn = crossed.all(axis=-1) & (centre != 0.0) & ((centre > 0.0) != pos[:-1, :-1])
    ids[turn] = ids[turn][:, [0, 3, 1, 2]]
    # the crossed ids in row-major cell order and increasing edge number,
    # read in pairs: (0, 1) and (2, 3) of each cell's crossed edges
    return InterfaceCurve(vertices, ids[crossed].reshape(-1, 2))


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


# The scan groups the grid's nodes into blocks of _TILE x _TILE nodes, and
# holds at most _BLOCK (node, segment) pairs in each of its three work
# buffers (768 KiB in all, small enough to stay in a typical L2 cache).
# _SLACK widens the pruning bound far beyond the rounding error of the
# per-pair arithmetic.
_TILE = 8
_BLOCK = 1 << 15
_SLACK = 1e-9


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


def _nearest_segment(grid, a, b):
    """Squared distance from each node of grid to its nearest segment, and
    the index of that segment (the first one on ties), as (ny, nx) arrays.
    There is at least one segment, and segment ends are finite.

    A pruned scan, exactly equal to the exhaustive one:

    * the nodes are grouped into blocks of _TILE x _TILE nodes by index; the
      last block row and column repeat the grid's last node row and column,
      so every block holds _TILE x _TILE nodes.  The nearest segment to the
      centre of a block's box gives an upper bound U on the distance of
      every node of the block to its nearest segment: the largest distance
      from the box's corners to that segment (the distance to a segment is
      convex, so over a box it peaks at a corner);
    * a segment whose bounding box is farther than U from the block's box is
      farther than U from every node of the block.  A computed distance
      falls below the exact one by at most the rounding of a few operations,
      a few units in the last place of the largest coordinate (scale), so
      keeping every segment within U (1 + _SLACK) + _SLACK * scale of the
      block's box keeps every segment whose computed distance can reach or
      tie the computed minimum;
    * each block's candidates, in increasing index order, are scanned with
      _point_segment_sq's arithmetic, so the minimum is bit-identical and
      the first index among equal distances wins.  Blocks are binned by
      their candidate count, rounded up to four steps per octave, and
      scanned as dense (block, node, candidate) arrays; a block's short
      candidate list is padded with its own last candidate, which does not
      change the first minimum.

    On a 128 x 128 grid and a circle this scans about a fifth of the
    (node, segment) pairs.
    """
    m = a.shape[0]
    ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    ux = bx - ax
    uy = by - ay
    l2 = ux * ux + uy * uy
    seg = (ax, ay, ux, uy, np.where(l2 > 0.0, l2, 1.0))
    slo_x, shi_x = np.minimum(ax, bx), np.maximum(ax, bx)
    slo_y, shi_y = np.minimum(ay, by), np.maximum(ay, by)
    xs, ys = grid.x_coords(), grid.y_coords()
    scale = max(np.abs(a).max(), np.abs(b).max(), np.abs(xs).max(), np.abs(ys).max())

    # the (blocks, _TILE) node coordinates of each block column and block
    # row, the last node standing in past the grid's end, and each block's
    # box; block k is block row k // kx and block column k % kx
    col, row = (
        c[np.minimum(np.arange(-(-c.size // _TILE) * _TILE), c.size - 1)].reshape(-1, _TILE) for c in (xs, ys)
    )
    kx, ky = len(col), len(row)
    tlo_x, thi_x = np.tile(col.min(axis=1), ky), np.tile(col.max(axis=1), ky)
    tlo_y, thi_y = np.repeat(row.min(axis=1), kx), np.repeat(row.max(axis=1), kx)
    work = np.empty((3, _BLOCK))
    per = max(1, _BLOCK // m)  # blocks per pass over all segments
    passes = [slice(t, t + per) for t in range(0, kx * ky, per)]

    # each block's upper bound: the largest distance from its box's corners
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

    # each block's candidates: the segments whose box lies within its bound
    n_cand, cols = [], []
    for p in passes:
        gx = np.maximum(np.maximum(slo_x - thi_x[p, None], tlo_x[p, None] - shi_x), 0.0)
        gy = np.maximum(np.maximum(slo_y - thi_y[p, None], tlo_y[p, None] - shi_y), 0.0)
        near = gx * gx + gy * gy <= (bound[p] ** 2)[:, None]
        n_cand.append(near.sum(axis=1))
        cols.append(np.nonzero(near)[1])
    n_cand, cols = np.concatenate(n_cand), np.concatenate(cols)
    cand_start = np.cumsum(n_cand) - n_cand

    # bins of blocks whose candidate counts round up, at four steps per
    # octave, to the same width; node r * _TILE + c of a block is its node
    # in row r and column c
    best = np.empty((kx * ky, _TILE * _TILE))
    nearest = np.empty((kx * ky, _TILE * _TILE), dtype=np.intp)
    step = 2 ** np.maximum(np.log2(n_cand).astype(np.intp) - 2, 0)
    widths = -(-n_cand // step) * step
    for width in np.unique(widths):
        in_bin = np.nonzero(widths == width)[0]
        fit = max(1, _BLOCK // (_TILE * _TILE * width))  # blocks per scan
        for i in range(0, in_bin.size, fit):
            bl = in_bin[i : i + fit]
            cand = cols[cand_start[bl, None] + np.minimum(np.arange(width), n_cand[bl, None] - 1)]
            qx = np.tile(col[bl % kx], _TILE)[..., None]
            qy = np.repeat(row[bl // kx], _TILE, axis=1)[..., None]
            best[bl], j = _scan_block(qx, qy, tuple(v[cand][:, None, :] for v in seg), work)
            nearest[bl] = np.take_along_axis(cand, j, axis=1)
    # back to the (ny, nx) node layout, without the repeated nodes
    return tuple(
        v.reshape(ky, kx, _TILE, _TILE).swapaxes(1, 2).reshape(ky * _TILE, kx * _TILE)[: grid.ny, : grid.nx]
        for v in (best, nearest)
    )


def _curvature_vector(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Curvature vector K = -div(n) n, n = grad f/|grad f|, of f's level sets.

    Central differences at every node, reading the mirror ghost nodes past
    the walls (so K is tangent to a wall at its nodes); nodes with a
    vanishing gradient get K = 0.  K does not change under f -> -f.
    """
    g = f.grid
    c = f.values
    p = _mirror_ghosts(c)
    fx = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * g.dx)
    fy = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * g.dy)
    fxx = (p[1:-1, 2:] - 2.0 * c + p[1:-1, :-2]) / (g.dx * g.dx)
    fyy = (p[2:, 1:-1] - 2.0 * c + p[:-2, 1:-1]) / (g.dy * g.dy)
    fxy = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4.0 * g.dx * g.dy)
    g2 = fx * fx + fy * fy
    ok = g2 > 0.0
    g2 = np.where(ok, g2, 1.0)
    # div(n) / |grad f|, so that multiplying by grad f gives div(n) n
    k = (fxx * fy * fy - 2.0 * fx * fy * fxy + fyy * fx * fx) / (g2 * g2)
    k = np.where(ok, k, 0.0)
    return -k * fx, -k * fy


def _segment_curvature(f: ScalarField, a: np.ndarray, b: np.ndarray):
    """_curvature_vector taken bilinearly (fields.eval_bilinear) at each
    chord midpoint."""
    mid = 0.5 * (a + b)
    return tuple(eval_bilinear(ScalarField(f.grid, kc), mid) for kc in _curvature_vector(f))


def _segment_neighbours(curve: InterfaceCurve) -> np.ndarray:
    """(S, 2) array: the other segment at each end vertex of each segment,
    or the segment itself where no other one ends there.

    extract_zero_set ends two segments at a vertex, one from each cell
    beside its edge, or one where that edge lies on a wall, so the least
    and the largest owner of a vertex are its two segments.
    """
    owner = np.repeat(np.arange(curve.n_segments), 2)
    ends = curve.segments.ravel()
    low = np.full(curve.n_vertices, curve.n_segments)
    high = np.full(curve.n_vertices, -1)
    np.minimum.at(low, ends, owner)
    np.maximum.at(high, ends, owner)
    return np.where(low[ends] == owner, high[ends], low[ends]).reshape(-1, 2)


def _bent_chord_frames(a, b, kx, ky) -> np.ndarray:
    """(8, S) frames of the chords [a, b] bent by the curvature vector K:
    start point, unit tangent e, length L (and 1 where L = 0), L^2 and the
    sagitta h = -(1/2) (K.n) L^2 along the unit normal n = (-e_y, e_x)."""
    ux = b[:, 0] - a[:, 0]
    uy = b[:, 1] - a[:, 1]
    l2 = ux * ux + uy * uy
    seg_len = np.sqrt(l2)
    has_len = seg_len > 0.0
    safe_len = np.where(has_len, seg_len, 1.0)
    ex = np.where(has_len, ux / safe_len, 1.0)
    ey = np.where(has_len, uy / safe_len, 0.0)
    h = -0.5 * l2 * (ex * ky - ey * kx)
    return np.stack([a[:, 0], a[:, 1], ex, ey, seg_len, safe_len, l2, h])


def _bent_chord_distance(px, py, frame):
    """Distance from each point to its chord bent by its sagitta.

    The chord is bent into q(t) = a + t (b - a) + h t (1 - t) n (see
    _bent_chord_frames); the closest t is found by Newton's method from the
    chord projection.  frame holds one column of _bent_chord_frames per
    point.
    """
    ax, ay, ex, ey, seg_len, safe_len, l2, h = frame
    # local frame: x along the chord, y along the normal (-ey, ex)
    rx = px - ax
    ry = py - ay
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
    sa, sb = curve.segment_points()
    d2, nearest = _nearest_segment(g, sa, sb)
    if curved:
        # the bent chords of the nearest segment and of its two neighbours,
        # which share its end vertices and so tie with it near them; each
        # segment's frame is built once and gathered per node with np.take
        px, py = g.x_coords()[None, :], g.y_coords()[:, None]
        frames = _bent_chord_frames(sa, sb, *_segment_curvature(f, sa, sb))
        around = np.take(_segment_neighbours(curve), nearest, axis=0)
        dist = np.inf
        for k in (nearest, around[..., 0], around[..., 1]):
            dist = np.minimum(dist, _bent_chord_distance(px, py, np.take(frames, k, axis=1)))
    else:
        dist = np.sqrt(d2)
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
