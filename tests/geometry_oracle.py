"""Reference implementations of the ``powergame.geometry`` kernels.

``convex_hull_oracle`` and ``minkowski_sum_oracle`` are the kernels the
package used before the Minkowski sum kept only the vertex pairs whose
outward-normal arcs overlap and the hull ran over Python floats: the
monotone chain over numpy scalars, and the sum of every vertex pair of the
two polygons.  ``weighted_minkowski_sum_oracle`` is the same left fold over
states built on them.  ``clip_to_lower_bounds_oracle`` and
``point_in_convex_polygon_oracle`` are the edge-by-edge loops the package
used before it treated every edge at once; the clip hulls its points with
the package's ``convex_hull``, as it did then.  ``half_chain_oracle`` is the
package's half chain before it pushed each run of left turns in one step:
a push or a pop per point.  ``vertex_arcs_oracle`` is the package's arc
rule before it split into scale-free facts, computed for every weighted
state polygon before the fold, and the slack at each step's scale.  Tests
compare ``powergame.geometry`` against these bit for bit.
"""

from __future__ import annotations

import numpy as np

from powergame.geometry import convex_hull


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_oracle(points) -> np.ndarray:
    """Monotone-chain convex hull; strictly extreme vertices only, CCW."""
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    if pts.shape[0] <= 2:
        return pts
    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def half_chain_oracle(pts: np.ndarray) -> list:
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


def vertex_arcs_oracle(poly: np.ndarray, scale: float):
    """Arc of edge directions (start, CCW width) at each vertex of a CCW
    convex polygon, widened by its edges' slack at coordinate ``scale``, or
    None for an edge of zero length or edges that do not turn once around
    CCW."""
    m = poly.shape[0]
    nxt, prev = np.arange(1 - m, 1), np.arange(-1, m - 1)
    edges = poly[nxt] - poly
    length = np.hypot(edges[:, 0], edges[:, 1])
    if not length.all():
        return None
    angle = np.arctan2(edges[:, 1], edges[:, 0])
    round_slack = 64 * np.finfo(float).eps * scale
    slack = np.maximum(1e-9, round_slack / np.maximum(length, round_slack / np.pi))
    turn = np.remainder(angle[nxt] - angle + np.pi, 2.0 * np.pi) - np.pi
    if not (turn.min() >= -1e-6 and abs(turn.sum() - 2.0 * np.pi) <= 1e-6):
        return None
    vturn = turn[prev]
    vslack = slack[prev] + slack
    start = angle[prev] + np.minimum(vturn, 0.0) - vslack
    return start, np.abs(vturn) + 2.0 * vslack


def minkowski_sum_oracle(poly_a, poly_b) -> np.ndarray:
    """Minkowski sum of two convex polygons (brute-force pair sums + hull).

    Vertex counts here are tiny, so the O(|A| |B|) pair enumeration is
    simpler than the rotating edge merge and just as exact.
    """
    a = np.asarray(poly_a, dtype=float).reshape(-1, 2)
    b = np.asarray(poly_b, dtype=float).reshape(-1, 2)
    sums = (a[:, None, :] + b[None, :, :]).reshape(-1, 2)
    return convex_hull_oracle(sums)


def weighted_minkowski_sum_oracle(polys, weights) -> np.ndarray:
    """Hull of sum_j w_j P_j for convex polygons P_j and weights w_j."""
    polys = list(polys)
    weights = np.asarray(weights, dtype=float)
    if len(polys) != weights.size or not polys:
        raise ValueError("need one weight per polygon")
    acc = np.asarray(polys[0], dtype=float) * weights[0]
    for poly, w in zip(polys[1:], weights[1:]):
        acc = minkowski_sum_oracle(acc, np.asarray(poly, dtype=float) * w)
    return convex_hull_oracle(acc)


def clip_to_lower_bounds_oracle(poly, bounds) -> np.ndarray:
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


def point_in_convex_polygon_oracle(point, poly, tol: float = 1e-9) -> bool:
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
