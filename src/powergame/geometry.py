"""Small 2-D computational geometry kit for utility regions.

Polygons are (M, 2) float arrays of counter-clockwise vertices with
collinear points dropped; degenerate hulls (a segment or a point) are
returned with 2 or 1 rows and handled by the other routines.
"""

from __future__ import annotations

import numpy as np


# Minkowski candidate pairs: an edge shorter than _TINY_EDGE times the
# coordinate scale gives no direction (its end points share one arc).
# Every arc is widened on each side by _ARC_SLACK radians, so that pairs
# along parallel edges of the two polygons are kept, or, next to a short
# edge of length L, by _ROUND_SLACK * scale / L: within that angle a pair
# sum lies less than a few ulps of the scale inside the sum, where the
# rounding of the sums and of the hull's cross products can still make
# it a vertex.
_TINY_EDGE = 1e-9
_ARC_SLACK = 1e-9
_ROUND_SLACK = 64 * np.finfo(float).eps
_TWO_PI = 2.0 * np.pi


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _half_chain(pts: list) -> list:
    """One monotone chain over [x, y] lists, popping non-left turns."""
    chain: list = []
    for p in pts:
        px, py = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def convex_hull(points) -> np.ndarray:
    """Monotone-chain convex hull; strictly extreme vertices only, CCW.

    Collinear inputs give the segment between their two extreme points.
    """
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    if pts.shape[0] <= 2:
        return pts
    xy = pts.tolist()
    return np.array(_half_chain(xy)[:-1] + _half_chain(xy[::-1])[:-1])


def _vertex_arcs(poly: np.ndarray, scale: float):
    """Arc of edge directions (start, CCW width) at each vertex of a CCW
    convex polygon, or None when the polygon gives no usable arcs (fewer
    than 2 edges longer than the tiny-edge length, or edges that do not
    turn once around CCW).

    A vertex is extreme for exactly the directions whose outward normals
    lie between the normals of its incoming and outgoing edges; rotating
    every normal by the same quarter turn, the arc from the incoming to
    the outgoing edge direction stands for that normal arc.
    """
    m = poly.shape[0]
    edges = np.roll(poly, -1, axis=0) - poly  # edge k runs from vertex k to k+1
    length = np.hypot(edges[:, 0], edges[:, 1])
    long = np.flatnonzero(length > _TINY_EDGE * scale)
    if long.size < 2:
        return None
    angle = np.arctan2(edges[long, 1], edges[long, 0])
    slack = np.maximum(_ARC_SLACK, _ROUND_SLACK * scale / length[long])
    turn = np.remainder(np.roll(angle, -1) - angle + np.pi, _TWO_PI) - np.pi
    # a convex CCW polygon turns left once around; rounding may leave a
    # nearly collinear vertex turning right by a hair (NaN fails the test)
    if not (turn.min() >= -1e-6 and abs(turn.sum() - _TWO_PI) <= 1e-6):
        return None
    # vertex i leaves along the first long edge at or after i and arrives
    # along the last long edge before i (cyclically)
    out_pos = np.searchsorted(long, np.arange(m)) % long.size
    in_pos = (out_pos - 1) % long.size
    vturn = turn[in_pos]
    vslack = slack[in_pos] + slack[out_pos]
    start = angle[in_pos] + np.minimum(vturn, 0.0) - vslack
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
    acc = np.asarray(polys[0], dtype=float) * weights[0]
    for poly, w in zip(polys[1:], weights[1:]):
        acc = minkowski_sum(acc, np.asarray(poly, dtype=float) * w)
    return convex_hull(acc)


def clip_to_lower_bounds(poly, bounds) -> np.ndarray:
    """Intersect a convex polygon with {x >= bounds[0]} and {y >= bounds[1]}."""
    verts = np.asarray(poly, dtype=float).reshape(-1, 2)
    for dim, bound in enumerate(bounds):
        if verts.shape[0] == 0:
            return verts
        clipped: list[np.ndarray] = []
        m = verts.shape[0]
        for j in range(m):
            cur, nxt = verts[j], verts[(j + 1) % m]
            cur_in = cur[dim] >= bound
            nxt_in = nxt[dim] >= bound
            if cur_in:
                clipped.append(cur)
            if cur_in != nxt_in and m > 1:
                span = nxt[dim] - cur[dim]
                if span != 0:
                    frac = (bound - cur[dim]) / span
                    clipped.append(cur + frac * (nxt - cur))
        verts = convex_hull(clipped) if clipped else np.empty((0, 2))
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
        t = np.dot(p - verts[0], d) / np.dot(d, d)
        t = min(max(t, 0.0), 1.0)
        return bool(np.linalg.norm(p - (verts[0] + t * d)) <= tol)
    m = verts.shape[0]
    scale = max(1.0, float(np.abs(verts).max()))
    for j in range(m):
        edge = verts[(j + 1) % m] - verts[j]
        norm = np.linalg.norm(edge)
        if _cross(verts[j], verts[(j + 1) % m], p) < -tol * scale * max(norm, 1.0):
            return False
    return True
