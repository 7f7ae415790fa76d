"""Zero level set extraction and signed-distance rebuilding.

Extraction is marching squares by one rule.  A node's side of the
interface is its sign bit (np.signbit): +0 is positive and -0 negative, so
a cell crosses zero, two or four of its edges (0 bottom, 1 right, 2 top,
3 left).  A cell joins its two crossed edges, in increasing edge number; a
saddle cell, with four, joins (0, 3) and (1, 2) when the average of its
corners is nonzero and differs in sign from its bottom-left node, and
(0, 1) and (2, 3) otherwise.  Segments come out in row-major cell order:
the table of each cell's edge ids is built only for the cells beside a
crossed edge, in that order, and the corner average only for the saddles.
Vertices are identified with the crossed cell edge they sit on, which
deduplicates shared segment endpoints exactly: every vertex ends two
segments, one from each cell beside its edge, or one on a wall edge.  An
edge from -0 to +0 is crossed, and its vertex sits at its midpoint.

Negating a field flips every sign bit, so it keeps every crossed edge,
every vertex, every cell's pairing and the row-major order: -f gives the
same segment array as f.  The rebuilt distance field takes its sign bit
from the source field at each node, so extracting and redistancing -f
gives exactly the negated field of f, in both reconstructions and for
every field, zero nodes included: the threshold-dynamics step is odd under
d -> -d, and either side of the interface may be the positive one.

Redistancing finds, for every grid node, the nearest extracted segment by
an exact pruned scan (_Tiles, which the exactness tests hold to an
exhaustive scan over the whole grid).  The grid's nodes are grouped into
tiles of 8 x 8 nodes (a tile where the grid ends repeats its last node
column or row), and a tile keeps a segment as a candidate only if it
passes two tests, each with a margin far above rounding.  By the triangle
inequality, the segment nearest to a node of the tile lies within the
centre's least distance plus the tile's diagonal.  And a segment can be
nearest only to points in its slab, between the normals at its ends, or
beyond an end in the wedge that the normal of the segment sharing that end
leaves it (the nearest-point regions of a closest-point transform), so a
tile whose box lies wholly past one end's wedge drops it.  The sharing
segment is read from the vertex ids (_segment_neighbours), the one map
from an end to the other segment at its vertex, built once per redistance;
the curved reconstruction takes a segment's two neighbours from the same
map.  Only the candidates are scanned, in increasing index order, by
_point_segment_sq, the one copy of the per-pair arithmetic, which forms
(x - ax) ux once per tile column and (y - ay) uy once per tile row.  So the
field is bit-identical to an exhaustive scan's with that arithmetic, and
the first segment wins ties.  signed_distance runs this scan and returns a
BandField, its one kind of field.  A tile's result does not depend on the
other tiles, so with a finite reach W the field is exact on the tiles
whose centre lies within W + r of the interface (r the tile's
half-diagonal) and elsewhere provisional, the source field's sign bit
times the centre's distance, until its values are first read, which
completes them to the same bits; hmbo.flow's steps use that band.  A
provisional tile needs only its centre's distance; the candidates are
built in one place, _Tiles' constructor, and completing a field builds a
new _Tiles of reach inf for its provisional tiles.  With the default
reach, inf, every tile is computed at once, and the field is complete at
construction.

Two reconstructions of the interface are offered:

* the chord reconstruction (the default) puts each vertex at the root of
  the linear interpolant along its cell edge and measures the exact
  Euclidean distance to the straight segments;
* the curved reconstruction (``curved=True``) puts each vertex at the root
  of the cubic through the four collinear nodes around its edge and
  measures the distance to each node's nearest segment, and to that
  segment's two neighbours, bent by its sagitta (at most half its length),
  with the curvature taken from the source field (after Chopp, SIAM J.
  Sci. Comput. 2001, "Some improvements of the fast marching method").
  Where a stencil reaches past a wall it reads the mirror ghost nodes of
  hmbo.fields, the walls' one convention, so a level set that meets a wall
  is reconstructed there as it would be inside the mirrored domain.

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
from .fields import ScalarField, _bilinear, _bilinear_cells, _fold


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
    """True iff both sides occur among nodal values, by their sign bits
    (+0 is positive and -0 negative)."""
    neg = np.signbit(f.values)
    return bool(neg.any()) and not bool(neg.all())


# Cap on the iterations of _edge_roots' bracketed cubic solve: more than the
# bisections from [0, 1] down to adjacent doubles near 1.
_ROOT_ITERATIONS = 64


def _edge_roots(v: np.ndarray, r: np.ndarray, k: np.ndarray, curved: bool) -> np.ndarray:
    """Roots on the crossed edges (r, k) -- (r, k+1) of v, as fractions of
    the edge: the linear interpolant's, or with curved=True the cubic's
    through the nodes (r, k-1 .. k+2), past the walls the mirror ghost nodes
    (fields._fold).  extract_zero_set calls it on v for the edges along x
    and on v.T for those along y.

    An edge from -0 to +0 is crossed, and its linear root is its midpoint.
    The cubic takes the signs of its edge's ends at s = 0 and s = 1, so
    [0, 1] brackets a root.  Newton's method starts at the linear roots and
    each iterate shrinks the bracket; a step that would leave the bracket
    (or a flat cubic) bisects it instead.  The solve stops when no iterate
    changes, or after _ROOT_ITERATIONS.
    """
    f0, f1 = v[r, k], v[r, k + 1]
    s = np.divide(f0, f0 - f1, out=np.full_like(f0, 0.5), where=f0 != f1)
    if not curved:
        return s
    fm, f2 = v[r, _fold(k - 1, v.shape[1])], v[r, _fold(k + 2, v.shape[1])]
    # p(s) = f0 + c1 s + c2 s^2 + c3 s^3 interpolates f at s = -1, 0, 1, 2
    c1 = f1 - fm / 3.0 - f0 / 2.0 - f2 / 6.0
    c2 = 0.5 * (fm + f1) - f0
    c3 = (f2 - fm) / 6.0 + 0.5 * (f0 - f1)
    neg0 = np.signbit(f0)
    lo, hi = np.zeros_like(s), np.ones_like(s)
    for _ in range(_ROOT_ITERATIONS):
        ps = f0 + s * (c1 + s * (c2 + s * c3))
        dp = c1 + s * (2.0 * c2 + 3.0 * s * c3)
        # keep p(lo) on the side of f0 and p(hi) on the side of f1
        low_side = np.signbit(ps) == neg0
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
    neg = np.signbit(v)  # a node's side of the interface
    xs = g.x_coords()
    ys = g.y_coords()

    # crossing vertices on the edges along x (node (i,j) -- (i+1,j)) and
    # along y (node (i,j) -- (i,j+1)), each set in row-major order
    hmask = neg[:, :-1] != neg[:, 1:]
    vmask = neg[:-1, :] != neg[1:, :]
    hj, hi = np.divmod(np.flatnonzero(hmask), hmask.shape[1])  # 2-d nonzero is several times slower
    vj, vi = np.divmod(np.flatnonzero(vmask), vmask.shape[1])
    vertices = np.concatenate([
        np.column_stack([xs[hi] + _edge_roots(v, hj, hi, curved) * g.dx, ys[hj]]),
        np.column_stack([xs[vi], ys[vj] + _edge_roots(v.T, vi, vj, curved) * g.dy]),
    ])

    n_h = hi.size
    h_idx = np.full(hmask.shape, -1, dtype=np.intp)
    h_idx[hj, hi] = np.arange(n_h)
    v_idx = np.full(vmask.shape, -1, dtype=np.intp)
    v_idx[vj, vi] = n_h + np.arange(vi.size)

    # the cells beside a crossed edge, in row-major order, and their vertex
    # ids on their edges 0..3, -1 where an edge is not crossed; a saddle
    # cell whose corner average is nonzero and differs in sign from its
    # bottom-left node is reordered to join (0, 3) and (1, 2).  A zero
    # average is +0 in f and in -f alike, so it never turns a cell.
    cj, ci = np.divmod(np.flatnonzero(hmask[:-1] | hmask[1:] | vmask[:, :-1] | vmask[:, 1:]), hmask.shape[1])
    ids = np.stack([h_idx[cj, ci], v_idx[cj, ci + 1], h_idx[cj + 1, ci], v_idx[cj, ci]], axis=-1)
    crossed = ids >= 0
    quad = crossed.all(axis=-1)
    sj, si = cj[quad], ci[quad]
    centre = (v[sj, si] + v[sj, si + 1] + v[sj + 1, si] + v[sj + 1, si + 1]) * 0.25
    turn = np.flatnonzero(quad)[(centre != 0.0) & (np.signbit(centre) != neg[sj, si])]
    ids[turn] = ids[turn][:, [0, 3, 1, 2]]
    # the crossed ids in row-major cell order and increasing edge number,
    # read in pairs: (0, 1) and (2, 3) of each cell's crossed edges
    return InterfaceCurve(vertices, ids[crossed].reshape(-1, 2))


def _segments(a, b):
    """The segments a -> b, each (S, 2), as _point_segment_sq reads them:
    (ax, ay, ux, uy, l2), u = b - a and l2 = |u|^2, or 1 where u = 0."""
    ax, ay = a[:, 0], a[:, 1]
    ux = b[:, 0] - ax
    uy = b[:, 1] - ay
    l2 = ux * ux + uy * uy
    return ax, ay, ux, uy, np.where(l2 > 0.0, l2, 1.0)


def _point_segment_sq(px, py, seg):
    """Squared distances from the points px, py to the segments seg of
    _segments; arguments broadcast.

    The one copy of the per-pair arithmetic: t = ((px - ax) ux + (py - ay)
    uy) / l2 clipped to [0, 1], then (px - (ax + t ux))^2 + (py - (ay +
    t uy))^2.  (px - ax) ux has the shape of px against the segments, and
    (py - ay) uy that of py, so where px holds a tile's columns and py its
    rows each is formed once per column or row; the 12 passes after them
    have the full shape and run in place on two temporaries.
    """
    ax, ay, ux, uy, l2 = seg
    x = np.subtract(px, ax)
    x *= ux
    y = np.subtract(py, ay)
    y *= uy
    t = np.add(x, y)
    t /= l2
    np.clip(t, 0.0, 1.0, out=t)
    e = np.multiply(t, ux)
    np.square(np.subtract(px, np.add(ax, e, out=e), out=e), out=e)
    np.square(np.subtract(py, np.add(ay, np.multiply(t, uy, out=t), out=t), out=t), out=t)
    return np.add(e, t, out=e)


# The scan groups the grid's nodes into tiles of _TILE x _TILE nodes, and
# hands _point_segment_sq as many whole tiles at a time as fit in _BLOCK
# (node, segment) pairs (512 KiB of temporaries, small enough to stay in a
# typical L2 cache), and at least one.
# _SLACK widens the pruning bounds far beyond the rounding error of the
# per-pair arithmetic.  The region test runs where the largest coordinate
# lies in [2^(_REGION_EXP - 1), 2^-_REGION_EXP).
_TILE = 8
_BLOCK = 1 << 15
_SLACK = 1e-9
_REGION_EXP = -500


def _scan_block(px, py, seg, nearest):
    """Least squared distance from the nodes of T tiles, their columns
    px (T, 1, W) and rows py (T, H, 1), to their candidate segments seg of
    _segments, each (C, T, 1, 1), and with nearest the first position along
    C that attains it (else None), each (T, H, W); by one _point_segment_sq
    call on all the pairs, which _Tiles.scan keeps within _BLOCK but for a
    lone tile of more candidates.  The candidates lead the pairs, and the
    least over them is taken along that axis.
    """
    d2 = _point_segment_sq(px, py, seg)
    return np.minimum.reduce(d2, axis=0), d2.argmin(axis=0) if nearest else None


def _regions(curve, partners, k, hx, hy):
    """The linear forms of _Tiles' region test for the S segments [a, b] of
    curve, whose ends' partners are partners (_segment_neighbours), on the
    coordinates scaled by 2^-k, as a (12, S) array f: a box of half-widths
    (hx, hy) and centre (x, y) lies wholly past form q of segment s when
    x f[q, s] + y f[4 + q, s] + f[8 + q, s] > 0.  The forms q are beyond a,
    beyond b, past the cut at a and past the cut at b.
    """
    points = np.ldexp(curve.vertices, -k).view(np.complex128).ravel()  # x + iy
    ids = curve.segments
    ends = points[ids]  # (S, 2): a, b
    # each partner's other vertex: its far end from the vertex it shares
    far = np.where(ids[partners, 0] == ids, ids[partners, 1], ids[partners, 0])
    # the normals, [beyond, cut][a, b]: s's vector w away from its other
    # end, and the partner's vector u' away from the end
    normal = np.empty((2, 2, ends.shape[0]), dtype=np.complex128)
    np.subtract(ends[:, 1], ends[:, 0], out=normal[0, 1])
    np.negative(normal[0, 1], out=normal[0, 0])
    np.subtract(points[far], ends, out=normal[1].T)
    f = np.empty((3,) + normal.shape)
    f[0], f[1] = normal.real, normal.imag
    eta = 16.0 * _SLACK
    limit = (np.conj(normal) * ends.T).real
    limit += np.dot((hx, hy), np.abs(f[:2]).reshape(2, -1)).reshape(limit.shape)
    limit[1] += np.maximum(2.0 * eta, np.sqrt(2.0 * eta) * np.abs(normal[1]))
    np.negative(limit, out=f[2])
    f[2] -= _SLACK
    return f.reshape(12, -1)


def _wedged(forms, s, x, y):
    """For each segment s and box centre (x, y), scaled, whether the box
    lies wholly beyond an end of the segment and past that end's cut, by
    the forms of _regions; in slices of _BLOCK // 8 pairs, which bounds the
    memory of the forms gathered."""
    out = np.empty(s.size, dtype=bool)
    for p in range(0, s.size, _BLOCK // 8):
        q = slice(p, p + _BLOCK // 8)
        f = np.take(forms, s[q], axis=1)
        f[:4] *= x[q]
        f[4:8] *= y[q]
        f[8:] += f[:4]
        f[8:] += f[4:8]
        past = f[8:] > 0.0
        out[q] = (past[0] & past[2]) | (past[1] & past[3])
    return out


class _Tiles:
    """The grid's nodes in tiles of _TILE x _TILE, and each tile's
    candidate segments [a, b] of the curve: the state of the pruned
    nearest-segment scan, which scan() runs on any subset of the tiles
    that have their candidates, and partners, each end's other segment at
    its vertex (_segment_neighbours).

    With a reach W, a tile is near when its centre distance dc is at most
    W + r (r its half-diagonal, both widened by the scan's slack), and far
    otherwise.  The constructor, the one place candidates are built,
    measures every tile's dc but builds the candidates of the near tiles
    only: a far tile needs only dc, for its provisional value and for the
    near/far decision.  The default reach, inf, makes every tile near, and
    a _Tiles of that reach holds every tile's candidates, the same lists
    that a finite reach gives its near tiles.

    Tile k is tile row k // kx and tile column k % kx.  Tile column c holds
    the _TILE node columns cols[c], tile row r the _TILE node rows rows[r],
    each starting at a multiple of _TILE; where the grid ends, a tile
    repeats its last node column or row, so every node lies in one tile and
    a repeated node is the same node again.  Each tile has a centre
    (cx, cy), the midpoint of its first and last nodes, a half-diagonal r
    from that centre to them, and the least computed distance dc from its
    centre to a segment.

    The scan is exactly equal to the exhaustive one (there is at least one
    segment, and segment ends are finite).  A tile's candidates are the
    segments that pass two tests, each of which keeps every segment whose
    computed distance can reach or tie a node's computed minimum:

    * the triangle inequality.  Every node p of a tile lies within r of its
      centre c, so p's nearest segment s* has d(c, s*) <= r + d(p) <= 2r +
      d(c).  A computed distance falls below the exact one by at most a few
      units in the last place of the largest coordinate (scale), so the
      segments within (d(c) + 2r)(1 + _SLACK) + _SLACK * scale of c pass.
      They are compared as squares, so a bound whose square overflows keeps
      every segment;
    * the nearest-point region (after Mauch, "A fast algorithm for
      computing the closest point and distance transform", Caltech 2000).
      A segment s can be nearest only to points in its slab, between the
      normals at its two ends, or beyond one of its ends v in a wedge, cut
      off by the normal at v of a segment s' with an end at exactly v's
      coordinates.

    The lemma behind the wedge.  Let w be s's vector from its other end to
    v, and u' the vector of s' away from v, of length L'.  If p lies beyond
    v, (p - v).w > 0, and lam = (p - v).u' / L' > 0, then

        d(p, s')^2 <= d(p, s)^2 - min(lam^2, L' lam),

    for v is the point of s nearest to p, and the point of s' at distance
    t = min(lam, L') from v is nearer by 2 t lam - t^2 >= min(lam^2, L' lam).
    So if eta bounds the gap between each computed squared distance and
    the exact one, a node beyond v with min(lam^2, L' lam) > 2 eta has s'
    strictly nearer than s in computed terms, and s can neither reach nor
    tie the node's computed minimum, that of the exhaustive scan.  That
    holds once lam > max(sqrt(2 eta), 2 eta / L'), i.e. (p - v).u' >
    max(2 eta, sqrt(2 eta) L'): the wedge widened by that margin, and the
    slab by the rounding of (p - v).w, each plus the test's own rounding,
    keeps every segment that can reach or tie a node's computed minimum.

    A tile drops a candidate when, for one end v, its box (the rectangle of
    its nodes) lies wholly beyond v by more than the rounding, and wholly
    past the widened cut: the least of a linear function (p - v).n over a
    box of centre c and half-widths (hx, hy) is (c - v).n - hx |n_x| -
    hy |n_y|.  Otherwise the box meets the widened slab or a widened
    wedge, and the tile keeps it.  The test takes the largest half-widths
    of any tile, and a wedge's two half-planes one at a time; both only
    keep more.

    Each end's partner s' is the other segment at its vertex id
    (_segment_neighbours, built once in partners), and u' runs to the
    partner's other vertex; a shared vertex id is an end at exactly v's
    coordinates, all the lemma asks.  An end whose vertex ends no other
    segment, as on a wall, is its own partner, with u' = -w, whose cut,
    (p - v).(-w) > 0, never holds beyond v, so it keeps its whole
    half-plane.  Coordinates repeated under other vertex ids (as at a node
    where the field is exactly zero) are not merged: the segment sharing
    the id is as good a partner as any other end at those coordinates.  A
    zero-length partner has u' = 0 and cuts nothing; and a zero-length s
    has w = 0, is never beyond an end, and keeps everything.

    The rounding.  The test runs on the coordinates scaled by 2^-k, where
    scale < 2^k, which is exact but for underflow, with eta = 16 _SLACK
    scale^2 (16 _SLACK in the scaled units).  The scan's squares stay below
    50 scale^2, so its rounding is a few units in the last place of that;
    underflow adds at most about 2^-1072 to a square and moves the foot of
    a node on a segment by at most 2^-537.  All of these lie far below eta
    where k is in [_REGION_EXP, -_REGION_EXP], and there no square the scan
    forms overflows.  Outside that window the test is off, and every
    triangle candidate is kept; only there can a bound's square overflow.
    The cut is widened by _SLACK (scaled) beyond eta's margin, and beyond v
    by _SLACK, both far above the test's own rounding.  The constructor
    runs the test once, on the triangle candidates of every near tile, so a
    tile's candidates depend only on its own triangle candidates, and a
    tile gets the same ones at any reach that makes it near.

    Each tile's candidates, in increasing index order, are scanned by
    _point_segment_sq, so the minimum is bit-identical and the first index
    among equal distances wins.  Tiles go in order of decreasing candidate
    count, as many whole tiles as fit in _BLOCK pairs at the first one's
    count, and at least one, each chunk scanned in one _scan_block call on
    dense (candidate, tile, row, column) pairs, built candidate-first so
    that the least over the candidates is taken along the leading axis
    without a transpose; a shorter candidate list is padded
    with its own last candidate, which does not change the first minimum.
    A repeated node has its node's coordinates and its tile's candidates,
    so it gets its node's bits.  A tile's result does not depend on the
    tiles scanned with it, so any subset of the tiles scans to the same
    bits.

    On a 128 x 128 grid the scan of every tile reads about a twentieth of
    the (node, segment) pairs of a circle or a 5-fold star.
    """

    def __init__(self, grid, curve, reach=np.inf):
        a, b = curve.segment_points()
        self.partners = _segment_neighbours(curve)
        seg = self.seg = _segments(a, b)
        scale = self.scale = _scale(grid, a, b)
        ny, nx = grid.shape
        self.xs, self.ys = grid.x_coords(), grid.y_coords()
        self.cols = np.minimum(np.arange(0, nx, _TILE)[:, None] + np.arange(_TILE), nx - 1)
        self.rows = np.minimum(np.arange(0, ny, _TILE)[:, None] + np.arange(_TILE), ny - 1)
        kx, ky = self.kx, self.ky = len(self.cols), len(self.rows)
        lo_x, hi_x = self.xs[self.cols[:, 0]], self.xs[self.cols[:, -1]]
        lo_y, hi_y = self.ys[self.rows[:, 0]], self.ys[self.rows[:, -1]]
        cx, cy = 0.5 * (lo_x + hi_x), 0.5 * (lo_y + hi_y)
        hx, hy = 0.5 * (hi_x - lo_x), 0.5 * (hi_y - lo_y)
        self.r = np.hypot(hx, hy[:, None]).ravel()
        n = kx * ky
        self.dc = np.empty(n)

        # the centre distances, for as many tiles at a time as keep them
        # within _BLOCK (tile, segment) pairs: whole tile rows, or part of
        # one, so that a chunk's tiles are start to stop
        n_seg = seg[0].size
        wide = max(1, min(kx, _BLOCK // n_seg))
        tall = max(1, _BLOCK // (kx * n_seg)) if wide == kx else 1
        near, found = np.empty(n, dtype=bool), []
        for y, x in ((y, x) for y in range(0, ky, tall) for x in range(0, kx, wide)):
            start = y * kx + x
            tiles = np.arange(start, min(y + tall, ky) * kx if wide == kx else start + min(wide, kx - x))
            d2 = _point_segment_sq(cx[x : x + wide, None], cy[y : y + tall, None, None], seg).reshape(-1, n_seg)
            dc = self.dc[tiles] = np.sqrt(d2.min(axis=1))
            # the triangle test: the segments within each tile's bound
            within = d2 <= (((dc + 2.0 * self.r[tiles]) * (1.0 + _SLACK) + _SLACK * scale) ** 2)[:, None]
            del d2
            here = near[tiles] = dc <= (reach + self.r[tiles]) * (1.0 + _SLACK) + _SLACK * scale
            t, s = np.divmod(np.flatnonzero(within[here]), n_seg)
            found.append((tiles[here][t], s))
        t, s = (np.concatenate(v) for v in zip(*found))
        # the region test, on every near tile's triangle candidates at once
        k = int(np.frexp(scale)[1])
        if _REGION_EXP <= k <= -_REGION_EXP and t.size:
            forms = _regions(curve, self.partners, k, np.ldexp(hx.max(), -k), np.ldexp(hy.max(), -k))
            keep = ~_wedged(forms, s, np.ldexp(cx, -k)[t % kx], np.ldexp(cy, -k)[t // kx])
            t, s = t[keep], s[keep]
        self.cand, self.n_cand = s, np.bincount(t, minlength=n)
        self.cand_start = np.cumsum(self.n_cand) - self.n_cand
        self.near = near

    def nodes(self, tiles):
        """Grid indices (j, i) of the tiles' nodes, and the position in
        tiles of each node's tile, as the rows of a (3, nodes) array: each
        tile's _TILE x _TILE nodes row by row, in the order of tiles, the
        order of scan's results."""
        out = np.empty((3, tiles.size, _TILE, _TILE), dtype=np.intp)
        out[0] = self.rows[tiles // self.kx, :, None]
        out[1] = self.cols[tiles % self.kx, None, :]
        out[2] = np.arange(tiles.size)[:, None, None]
        return out.reshape(3, -1)

    def scan(self, tiles, nearest):
        """Least squared distance from each node of the tiles, which have
        their candidates, to a segment, and with nearest the first segment
        attaining it (else None), flat in the order of nodes()."""
        kx = self.kx
        n_cand = self.n_cand[tiles]
        best = np.empty((tiles.size, _TILE, _TILE))
        first = np.empty(best.shape, dtype=np.intp) if nearest else None
        order = np.argsort(-n_cand, kind="stable")
        i = 0
        while i < order.size:
            width = n_cand[order[i]]
            at = order[i : i + max(1, _BLOCK // (_TILE * _TILE * width))]
            i += at.size
            bl = tiles[at]
            cand = self.cand[self.cand_start[bl, None] + np.minimum(np.arange(width), n_cand[at, None] - 1)]
            px = self.xs[self.cols[bl % kx]][:, None, :]
            py = self.ys[self.rows[bl // kx]][:, :, None]
            best[at], j = _scan_block(px, py, tuple(v[cand].T[:, :, None, None] for v in self.seg), nearest)
            if nearest:
                first[at] = cand[np.arange(at.size)[:, None, None], j]
        return best.ravel(), first.ravel() if nearest else None


def _scale(grid, a, b):
    """The largest coordinate magnitude of the grid's nodes and the segment
    ends, the unit of the scan's and the band's rounding slack."""
    g = grid
    return max(np.abs(a).max(), np.abs(b).max(), abs(g.xmin), abs(g.xmax), abs(g.ymin), abs(g.ymax))


def _curvature_vector(f: ScalarField, nodes) -> tuple[np.ndarray, np.ndarray]:
    """Curvature vector K = -div(n) n, n = grad f/|grad f|, of f's level sets,
    at the nodes (j, i), two index arrays of one shape; K's two components
    have that shape.

    Central differences, reading the mirror ghost nodes past the walls
    (fields._fold), so K is tangent to a wall at its nodes; nodes with a
    vanishing gradient get K = 0.  K does not change under f -> -f or
    f -> 2^k f, so each node's 3 x 3 stencil is first scaled by the power
    of two that brings the largest |f| in it near dx: exact, and
    |grad f|^4 then neither overflows nor underflows however large or
    small f is.  So K at a node reads f only in its 3 x 3 box, folded at
    the walls, and is the same at any node set.
    """
    g = f.grid
    j, i = (np.asarray(n, dtype=np.intp) for n in nodes)
    rows = {d: _fold(j + d, g.ny) * g.nx for d in (-1, 0, 1)}  # flat indices: take beats a 2-d gather
    cols = {d: _fold(i + d, g.nx) for d in (-1, 0, 1)}
    box = {(dj, di): f.values.take(rows[dj] + cols[di]) for dj in (-1, 0, 1) for di in (-1, 0, 1)}
    m = np.abs(np.stack(tuple(box.values()))).max(axis=0)
    e = np.frexp(min(g.dx, g.dy))[1] - np.frexp(m)[1]

    def at(dj, di):  # the neighbour dj rows and di columns away, in the node's scale
        return np.ldexp(box[dj, di], e)

    c, left, right, down, up = at(0, 0), at(0, -1), at(0, 1), at(-1, 0), at(1, 0)
    fx = (right - left) / (2.0 * g.dx)
    fy = (up - down) / (2.0 * g.dy)
    fxx = (right - 2.0 * c + left) / (g.dx * g.dx)
    fyy = (up - 2.0 * c + down) / (g.dy * g.dy)
    fxy = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * g.dx * g.dy)
    g2 = fx * fx + fy * fy
    ok = g2 > 0.0
    g2 = np.where(ok, g2, 1.0)
    # div(n) / |grad f|, so that multiplying by grad f gives div(n) n
    k = (fxx * fy * fy - 2.0 * fx * fy * fxy + fyy * fx * fx) / (g2 * g2)
    k = np.where(ok, k, 0.0)
    return -k * fx, -k * fy


def _midpoint_cells(grid, a: np.ndarray, b: np.ndarray):
    """The cells that the midpoints of the chords [a, b] are read in
    (fields._bilinear_cells): the rows and the columns of each cell's four
    corners, (4, S) each in the order _bilinear takes them, and the
    fractions u along x and v along y."""
    j, i, u, v = _bilinear_cells(grid, 0.5 * (a + b))
    return np.stack((j, j, j + 1, j + 1)), np.stack((i, i + 1, i, i + 1)), u, v


def _segment_curvature(f: ScalarField, a: np.ndarray, b: np.ndarray):
    """_curvature_vector taken bilinearly (fields.eval_bilinear) at each
    chord midpoint, evaluated only at the four corners of the cell that
    each midpoint is read in."""
    j, i, u, v = _midpoint_cells(f.grid, a, b)
    kx, ky = _curvature_vector(f, (j, i))
    return _bilinear(u, v, *kx), _bilinear(u, v, *ky)


def _segment_neighbours(curve: InterfaceCurve) -> np.ndarray:
    """(S, 2) array: the other segment at each end vertex of each segment,
    or the segment itself where no other one ends there.

    extract_zero_set ends two segments at a vertex, one from each cell
    beside its edge, or one where that edge lies on a wall, so the least
    and the largest owner of a vertex are its two segments.  Where more
    segments share a vertex, as in a soup, each end gets one of the others.
    _Tiles builds this map once per redistance: its region test and the
    curved distance both read it.
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
    sagitta h = -(1/2) (K.n) L^2 along the unit normal n = (-e_y, e_x), capped
    at +-L/2 so that a bent chord stays within L/8 of its chord (K divides by
    |grad f|^4 and is unbounded where the gradient nearly vanishes)."""
    ux = b[:, 0] - a[:, 0]
    uy = b[:, 1] - a[:, 1]
    l2 = ux * ux + uy * uy
    seg_len = np.sqrt(l2)
    has_len = seg_len > 0.0
    safe_len = np.where(has_len, seg_len, 1.0)
    ex = np.where(has_len, ux / safe_len, 1.0)
    ey = np.where(has_len, uy / safe_len, 0.0)
    h = np.clip(-0.5 * l2 * (ex * ky - ey * kx), -0.5 * seg_len, 0.5 * seg_len)
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


def _curved_distance(px, py, nearest, frames, neighbours):
    """Least distance from each point to the bent chords of its nearest
    segment and of that segment's two neighbours, which share its end
    vertices and so tie with it near them; each segment's frame is gathered
    per point with np.take.  Arguments broadcast elementwise."""
    around = np.take(neighbours, nearest, axis=0)
    dist = np.inf
    for k in (nearest, around[..., 0], around[..., 1]):
        dist = np.minimum(dist, _bent_chord_distance(px, py, np.take(frames, k, axis=1)))
    return dist


def signed_distance(f: ScalarField, curve: InterfaceCurve, curved: bool = False,
                    reach: float = np.inf) -> "BandField":
    """Rebuild a signed distance field from f's sign pattern and its zero set.

    Magnitude is the exact distance to the nearest segment of curve, or with
    curved=True the least distance to that segment and its two neighbours,
    each bent by its sagitta (see the module docstring); the sign bit is
    taken from f at each node, so -f gives exactly the negated field.

    The field is a BandField.  With the default reach, inf, every tile is
    computed at once; with a finite reach W the tiles farther than W from
    the interface are computed only when its values are first read, to the
    same bits.
    """
    if curve.is_empty:
        raise ValidationError("cannot redistance against an empty interface")
    return BandField(f, curve, curved, reach)


class BandField(ScalarField):
    """The field of signed_distance(f, curve, curved, reach=W), exact in a
    band about curve and completed elsewhere when first read.

    A tile of _Tiles is exact when its centre's computed chord distance dc
    is at most W + r (r its half-diagonal, both widened by the scan's
    slack), so every node within W of the chords lies in an exact tile, and
    every node of another tile lies farther than W from them.  Every tile
    is filled one way (_fill), the exact ones at construction and the
    others when .values is first read (complete): the nearest-segment
    scan's distances (_Tiles.scan), or with curved=True the least distance
    to the bent chords of the nearest segment and of its neighbours, read
    from the _Tiles' partners, with the sign bits of f.  Until then another
    tile's nodes hold a provisional value, f's sign bit times the tile's
    dc; provisional holds the values as they are, without completing them.
    No field keeps scan state: the field holds only its far tiles' indices
    after construction, and complete() fills them from a new _Tiles of
    reach inf, whose candidates for them are the ones a finite reach skips.

    What hmbo.flow's certificate reads of the field: exact, the nodes
    whose value is final, and their values; curve, whose chords it
    measures against the other field's exact nodes; and two gaps between
    the field's magnitude D and the exact distance c to the chords,
    c - below <= D <= c + above at every node.  A provisional node's c
    lies within spread (the largest r) of its |value|.  slack is the
    scan's rounding slack in length units.  The chord reconstruction's D
    is c up to rounding.  A curved D is the distance to some point of one
    bent chord, the nearest segment's or a neighbour's, and a bent chord
    lies within |h|/4 (h its capped sagitta) of its chord at the same
    parameter, so D >= c - max|h|/4.  D is at most the distance to some
    point of the nearest segment's bent chord, which lies within L + |h|/4
    of that chord's point nearest the node (L the chord's length), so
    D <= c + max L + max|h|/4.  Both gaps carry the slack.
    """

    def __init__(self, f: ScalarField, curve: InterfaceCurve, curved: bool, reach: float):
        g = self.grid = f.grid
        self.curve = curve
        tiles = _Tiles(g, curve, reach)
        slack = self.slack = _SLACK * tiles.scale
        self.below = self.above = slack
        self._frames = None
        if curved:
            sa, sb = curve.segment_points()
            frames = self._frames = _bent_chord_frames(sa, sb, *_segment_curvature(f, sa, sb))
            self.below += np.max(np.abs(frames[7])) / 4.0
            self.above = self.below + np.max(frames[4])
        self.spread = float(np.max(tiles.r))
        self.provisional = np.empty(g.shape)
        self.exact = np.zeros(g.shape, dtype=bool)
        self._fill(tiles, np.flatnonzero(tiles.near), f.values)
        far = np.flatnonzero(~tiles.near)
        j, i, k = tiles.nodes(far)
        at = j * g.nx + i  # flat indices: indexing by (j, i) is several times slower
        sign = f.values.take(at)
        self.provisional.ravel()[at] = np.copysign(tiles.dc[far][k], sign, out=sign)
        self._far = far if far.size else None

    def _fill(self, state, tiles, sign):
        """Compute the tiles exactly from state, a _Tiles that holds their
        candidates, with the sign bits of sign.  A distance whose square
        overflows is rejected, as every ScalarField rejects a non-finite
        value."""
        best, nearest = state.scan(tiles, self._frames is not None)
        if self._frames is None:
            dist = np.sqrt(best)
        else:
            j, i, _ = state.nodes(tiles)
            x, y = state.xs[i], state.ys[j]
            del j, i, _
            dist = _curved_distance(x, y, nearest, self._frames, state.partners)
        if not np.all(np.isfinite(dist)):
            raise ValidationError("field contains non-finite values")
        # the index arrays come after the distances, out of the curved fill's peak memory
        j, i, _ = state.nodes(tiles)
        at = j * self.grid.nx + i
        self.provisional.ravel()[at] = np.copysign(dist, sign.take(at))
        self.exact.ravel()[at] = True

    @property
    def values(self) -> np.ndarray:
        self.complete()
        return self.provisional

    @property
    def is_complete(self) -> bool:
        return self._far is None

    def complete(self) -> None:
        """Compute every provisional tile exactly, if any is left, from a
        new _Tiles of reach inf; the sign bits are the provisional values'
        own."""
        if self._far is not None:
            self._fill(_Tiles(self.grid, self.curve), self._far, self.provisional)
            self._far = None


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
