"""Zero level set extraction and signed-distance rebuilding.

Extraction is marching squares with linear interpolation along cell edges.
Nodes with value exactly 0 are treated as positive, so every configuration
is unambiguous and deterministic; the two saddle configurations are
resolved by the sign of the cell-center average.  Vertices are identified
with the crossed cell edge they sit on, which deduplicates shared segment
endpoints exactly.

Redistancing computes, for every grid node, the exact Euclidean distance
to the nearest extracted segment (point-to-segment, not vertex-only) by an
exhaustive numpy-broadcast scan over the segment soup, taken in chunks of
segments to bound memory.
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


@dataclass(frozen=True)
class SignConvention:
    """How the rebuilt distance field is signed.

    The positive set of the source field is taken to be the tracked region.
    With positive_inside=True the output keeps the source sign pattern; with
    False the output is globally negated, i.e. the tracked region becomes
    the negative side.
    """

    positive_inside: bool = True


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


def extract_zero_set(f: ScalarField) -> InterfaceCurve:
    """Marching-squares zero level set of f as an InterfaceCurve."""
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
    hx = xs[hi] + th * g.dx
    hy = ys[hj]

    # crossing vertices on vertical edges (node (i,j) -- (i,j+1))
    vmask = pos[:-1, :] != pos[1:, :]
    vj, vi = np.nonzero(vmask)
    wa = v[vj, vi]
    wb = v[vj + 1, vi]
    tv = wa / (wa - wb)
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
    """Exhaustive minimum over all segments, chunked to bound memory."""
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


def min_segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest of the segments [a_i, b_i].

    points: (n, 2); a, b: (m, 2).  Returns (n,).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if a.shape[0] == 0:
        raise ValidationError("no segments to measure distance against")
    return np.sqrt(_min_sq_brute(pts[:, 0], pts[:, 1], a, b))


def signed_distance(
    f: ScalarField, curve: InterfaceCurve, conv: SignConvention = SignConvention()
) -> ScalarField:
    """Rebuild a signed distance field from f's sign pattern and its zero set.

    Magnitude is the exact distance to the nearest segment of curve; sign is
    taken from f at each node (exact zeros count as +), globally negated when
    conv.positive_inside is False.
    """
    if curve.is_empty:
        raise ValidationError("cannot redistance against an empty interface")
    g = f.grid
    X, Y = g.mesh()
    pts = np.column_stack([X.ravel(), Y.ravel()])
    sa, sb = curve.segment_points()
    dist = min_segment_distance(pts, sa, sb).reshape(g.shape)
    sgn = np.where(f.values >= 0.0, 1.0, -1.0)
    if not conv.positive_inside:
        sgn = -sgn
    return ScalarField(g, sgn * dist)


def average_radius(curve: InterfaceCurve, center=(0.0, 0.0)) -> float:
    """Mean distance of the curve's vertices to a center point."""
    if curve.n_vertices == 0:
        raise ValidationError("empty interface has no radius")
    c = np.asarray(center, dtype=float)
    return float(np.mean(np.hypot(curve.vertices[:, 0] - c[0], curve.vertices[:, 1] - c[1])))


def write_interface_csv(curve: InterfaceCurve, path) -> None:
    """Write the vertex cloud as x,y rows."""
    with open(path, "w", newline="") as fh:
        fh.write("x,y\n")
        for x, y in curve.vertices:
            fh.write(f"{x:.17g},{y:.17g}\n")
