"""Small 2-D computational geometry kit for utility regions.

Polygons are (M, 2) float arrays of counter-clockwise vertices with
collinear points dropped; degenerate hulls (a segment or a point) are
returned with 2 or 1 rows and handled by the other routines.
"""

from __future__ import annotations

import math

import numpy as np


# Minkowski candidate pairs: every arc is widened on each side by _ARC_SLACK
# radians, so that pairs along parallel edges are kept, or, next to an edge of
# length L, by _ROUND_SLACK * scale / L, within which a pair sum lies a few
# ulps of the scale inside the sum, where rounding can still make it a vertex.
# The slack stops at half a turn, past which an arc meets every other arc (so
# an edge of subnormal length cannot overflow it).
_ARC_SLACK = 1e-9
_ROUND_SLACK = 64 * np.finfo(float).eps
_TWO_PI = 2.0 * np.pi
# convex_hull: chord margin per |chord| * spread; largest unscaled spread exponent
_CHORD_MARGIN = 1e-9
_SCALE_EXP = 400
_TINY = float(np.finfo(float).tiny)


def _half_chain(pts: np.ndarray) -> list:
    """Positions of one monotone chain over (m >= 2, 2) points, popping
    non-left turns; the top two points o, a are kept in locals."""
    x, y = pts[:, 0].tolist(), pts[:, 1].tolist()
    chain = [0, 1]
    ox, oy, ax, ay = x[0], y[0], x[1], y[1]
    for k, px, py in zip(range(2, len(x)), x[2:], y[2:]):
        while (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
            chain.pop()
            ax, ay = ox, oy
            if len(chain) == 1:
                break
            ox, oy = x[chain[-2]], y[chain[-2]]
        chain.append(k)
        ox, oy, ax, ay = ax, ay, px, py
    return chain


def convex_hull(points) -> np.ndarray:
    """Monotone-chain convex hull; strictly extreme vertices only, CCW.

    Collinear inputs give the segment between their two extreme points.
    Of float-equal points (repeats, or 0.0 and -0.0 in a coordinate) the
    first in input order is kept.  Each half chain walks only the points
    on its side of the chord from the first to the last sorted point, or
    within a margin of it (a point farther off would only be pushed and
    popped); a tiny or huge spread is tested scaled by a power of two.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.size and not np.abs(pts).max() < 2.0**1023:
        raise ValueError("convex_hull needs finite points below 2**1023 in magnitude")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]  # by x, then y; stable
    if pts.shape[0] > 1:
        pts = pts[np.concatenate([[True], (pts[1:] != pts[:-1]).any(axis=1)])]
    if pts.shape[0] <= 2:
        return pts
    test, rel = pts, pts - pts[0]
    span = float(np.abs(rel).max())
    exp = math.frexp(span)[1]
    if abs(exp) > _SCALE_EXP:  # else a cross product could underflow or overflow
        test, span = np.ldexp(pts, -exp), math.ldexp(span, -exp)
        rel = test - test[0]
    d0, d1 = rel[-1].tolist()
    margin = _CHORD_MARGIN * math.hypot(d0, d1) * span
    if margin < _TINY:  # not a normal float: every point goes to both chains
        margin = math.inf
    side = d0 * rel[:, 1] - d1 * rel[:, 0]  # 0.0 at both ends of the chord
    lower, upper = np.flatnonzero(side <= margin), np.flatnonzero(side >= -margin)[::-1]
    return pts[np.concatenate([lower[_half_chain(test[lower])][:-1],
                               upper[_half_chain(test[upper])][:-1]])]


def _vertex_arcs(poly: np.ndarray, scale: float):
    """Arc of edge directions (start, CCW width) at each vertex of a CCW
    convex polygon, or None when the polygon gives no usable arcs (an edge
    of zero length, which only a point cloud with a repeated point has, or
    edges that do not turn once around CCW).

    A vertex is extreme for exactly the directions whose outward normals
    lie between the normals of its incoming and outgoing edges; rotating
    every normal by the same quarter turn, the arc from the incoming to
    the outgoing edge direction stands for that normal arc.
    """
    m = poly.shape[0]
    # vertex k leaves along edge k, which runs to vertex k + 1, and arrives
    # along edge k - 1 (negative indices wrap around)
    nxt, prev = np.arange(1 - m, 1), np.arange(-1, m - 1)
    edges = poly[nxt] - poly
    length = np.hypot(edges[:, 0], edges[:, 1])
    if not length.all():
        return None
    angle = np.arctan2(edges[:, 1], edges[:, 0])
    round_slack = _ROUND_SLACK * scale
    slack = np.maximum(_ARC_SLACK, round_slack / np.maximum(length, round_slack / np.pi))
    turn = np.remainder(angle[nxt] - angle + np.pi, _TWO_PI) - np.pi
    # a convex CCW polygon turns left once around; rounding may leave a
    # nearly collinear vertex turning right by a hair (NaN fails the test)
    if not (turn.min() >= -1e-6 and abs(turn.sum() - _TWO_PI) <= 1e-6):
        return None
    vturn = turn[prev]
    vslack = slack[prev] + slack
    start = angle[prev] + np.minimum(vturn, 0.0) - vslack
    return start, np.abs(vturn) + 2.0 * vslack


def minkowski_sum(poly_a, poly_b) -> np.ndarray:
    """Minkowski sum of two convex polygons: hull of candidate pair sums.

    Only pairs whose vertex arcs (``_vertex_arcs``) overlap can be
    vertices of the sum, so only those pairs are added; when either
    polygon gives no arcs every pair is.  The hull of the candidates is
    the hull of all pair sums, and each kept sum is the same float.
    """
    a = np.asarray(poly_a, dtype=float).reshape(-1, 2)
    b = np.asarray(poly_b, dtype=float).reshape(-1, 2)
    arcs_a = arcs_b = None
    if a.shape[0] >= 3 and b.shape[0] >= 3:
        scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
        arcs_a = _vertex_arcs(a, scale)
        arcs_b = _vertex_arcs(b, scale)
    if arcs_a is None or arcs_b is None:
        return convex_hull(a[:, None, :] + b[None, :, :])
    (start_a, width_a), (start_b, width_b) = arcs_a, arcs_b
    # two arcs meet iff one of them starts inside the other
    gap = np.remainder(start_b[None, :] - start_a[:, None], _TWO_PI)
    keep = gap <= width_a[:, None]
    keep |= _TWO_PI - gap <= width_b[None, :]
    i, j = np.nonzero(keep)
    return convex_hull(a[i] + b[j])


def weighted_minkowski_sum(polys, weights) -> np.ndarray:
    """Hull of sum_j w_j P_j for convex polygons P_j and weights w_j
    (a left fold of ``minkowski_sum`` over the polygons in order)."""
    polys = list(polys)
    weights = np.asarray(weights, dtype=float)
    if len(polys) != weights.size or not polys:
        raise ValueError("need one weight per polygon")
    for j, w in enumerate(weights.tolist()):
        if not math.isfinite(w):
            raise ValueError(f"weight {j} is {w}, not finite")
    acc = np.asarray(polys[0], dtype=float) * weights[0]
    for poly, w in zip(polys[1:], weights[1:]):
        acc = minkowski_sum(acc, np.asarray(poly, dtype=float) * w)
    return convex_hull(acc)


def clip_to_lower_bounds(poly, bounds) -> np.ndarray:
    """Intersect a convex polygon with {x >= bounds[0]} and {y >= bounds[1]}."""
    verts = np.asarray(poly, dtype=float).reshape(-1, 2)
    for dim, bound in enumerate(bounds):
        nxt = np.roll(verts, -1, axis=0)
        inside = verts[:, dim] >= bound
        crossing = inside != (nxt[:, dim] >= bound)
        cur, nxt = verts[crossing], nxt[crossing]
        frac = (bound - cur[:, dim]) / (nxt[:, dim] - cur[:, dim])
        verts = convex_hull(np.concatenate([verts[inside], cur + frac[:, None] * (nxt - cur)]))
    return verts


def point_in_convex_polygon(point, poly, tol: float = 1e-9) -> bool:
    """Membership test allowing ``tol`` of slack outside each edge."""
    p = np.asarray(point, dtype=float)
    verts = np.asarray(poly, dtype=float).reshape(-1, 2)
    if verts.shape[0] == 0:
        return False
    if verts.shape[0] == 1:
        return bool(np.all(np.abs(p - verts[0]) <= tol))
    if verts.shape[0] == 2:
        d = verts[1] - verts[0]
        along, dd = np.dot(p - verts[0], d), np.dot(d, d)
        # clamped before dividing: dd underflows to 0 for a segment shorter
        # than about 1e-154, and along / dd can overflow
        t = 0.0 if along <= 0.0 else 1.0 if along >= dd else along / dd
        return bool(np.linalg.norm(p - (verts[0] + t * d)) <= tol)
    scale = max(1.0, float(np.abs(verts).max()))
    edges = np.roll(verts, -1, axis=0) - verts
    cross = edges[:, 0] * (p[1] - verts[:, 1]) - edges[:, 1] * (p[0] - verts[:, 0])
    norm = np.hypot(edges[:, 0], edges[:, 1])
    return not np.any(cross < -tol * scale * np.maximum(norm, 1.0))
