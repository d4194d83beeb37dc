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
# (convex_hulls: the same margin per |edge| * spread, and the same exponent
# bound on the spread, for its octagon of extreme points)
_CHORD_MARGIN = 1e-9
_SCALE_EXP = 400
_TINY = float(np.finfo(float).tiny)


def _half_chain(x: list, y: list, left: list, start: int, end: int) -> list:
    """Positions of one monotone chain over the points start .. end - 1,
    popping non-left turns.  ``left[k - 2]`` says the triple k - 2, k - 1, k
    turns left, for start + 2 <= k < end, and ``left[end - 2]`` is False.

    Every point is pushed when it is reached, so after a point that popped
    nothing the top two are the two points before the next one, whose turn
    ``left`` holds: the run of left turns up to the next stop is pushed in
    one step.  At a stop, and at each point after a pop, the turn is tested
    against the top two o, a, kept in locals.
    """
    chain = [start, start + 1]
    k = start + 2
    ox, oy, ax, ay = x[start], y[start], x[start + 1], y[start + 1]
    popped = False
    while k < end:
        if not popped and left[k - 2]:
            stop = left.index(False, k - 2) + 2
            chain.extend(range(k, stop))
            k = stop
            ox, oy, ax, ay = x[k - 2], y[k - 2], x[k - 1], y[k - 1]
            continue
        px, py = x[k], y[k]
        popped = False
        while (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
            popped = True
            chain.pop()
            ax, ay = ox, oy
            if len(chain) == 1:
                break
            ox, oy = x[chain[-2]], y[chain[-2]]
        chain.append(k)
        k += 1
        ox, oy, ax, ay = ax, ay, px, py
    return chain


def _half_chains(seq: np.ndarray, nl: int):
    """Positions in (m, 2) ``seq`` of the lower chain over its first ``nl``
    points and of the upper chain over the rest, each of >= 2 points.

    One pass computes the turn of every consecutive triple, by the chain
    loop's own expression: left where it is > 0, a stop otherwise (NaN
    included).  Of the two triples across the seam, the first ends the
    lower chain's runs and the second is read by neither chain; a stop
    appended ends the upper chain's.
    """
    d1, d2 = seq[1:-1] - seq[:-2], seq[2:] - seq[:-2]
    left = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0).tolist()
    left[nl - 2] = False
    left.append(False)
    x, y = seq[:, 0].tolist(), seq[:, 1].tolist()
    return _half_chain(x, y, left, 0, nl), _half_chain(x, y, left, nl, len(x))


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
    new = (pts[1:, 0] != pts[:-1, 0]) | (pts[1:, 1] != pts[:-1, 1])
    if not new.all():  # a sum of hull vertices rarely repeats one
        pts = pts[np.concatenate([[True], new])]
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
    both = np.concatenate([lower, upper])
    low, up = _half_chains(test[both], lower.size)
    keep = low[:-1] + up[:-1]
    return pts[both[np.fromiter(keep, np.intp, len(keep))]]


def convex_hulls(clouds) -> list:
    """``[convex_hull(c) for c in clouds]`` for a (C, M, 2) block of clouds.

    Each cloud's extreme points in the directions +-x, +-y, +-(x + y) and
    +-(x - y), in CCW order, are the corners of an octagon of cloud points.
    A point left of every edge of it by more than ``_CHORD_MARGIN`` *
    |edge| * spread (the spread: the larger of the cloud's x and y
    extents), far beyond rounding, lies strictly inside the hull of the
    corners, so it is no vertex: it is dropped before ``convex_hull`` sees
    the rest, in input order.  A zero-length edge is no edge, and an edge
    whose margin is not a normal float drops nothing.  A cloud with a
    coordinate of 2**_SCALE_EXP or more, or whose spread has a binary
    exponent outside +-``_SCALE_EXP`` (a repeated point included), keeps
    every point, and no cross product is formed for it.
    """
    pts = np.asarray(clouds, dtype=float)
    if pts.ndim != 3 or pts.shape[2] != 2:
        raise ValueError(f"convex_hulls needs a (C, M, 2) block of clouds, got {pts.shape}")
    mag = np.abs(pts).reshape(pts.shape[0], 2 * pts.shape[1]).max(axis=1, initial=0.0)
    if not mag.max(initial=0.0) < 2.0**1023:
        raise ValueError("convex_hulls needs finite points below 2**1023 in magnitude")
    keep = np.ones(pts.shape[:2], dtype=bool)
    if pts.shape[1] >= 3:
        small = np.flatnonzero(mag < 2.0**_SCALE_EXP)  # no sum or product below overflows
        if small.size:
            keep[small] = ~_octagon_interior(pts[small] if small.size < mag.size else pts)
    return [convex_hull(cloud[mask]) for cloud, mask in zip(pts, keep)]


def _octagon_interior(pts: np.ndarray) -> np.ndarray:
    """The points of (C, M >= 3, 2) clouds that ``convex_hulls`` drops.

    Coordinates are taken from each cloud's first point; that rounding
    moves a point by half an ulp of the spread, far below the margin.  The
    cross product of edge (ex, ey) from corner v with point p is then
    ex * py - ey * px - (ex * vy - ey * vx).
    """
    x, y = np.moveaxis(pts, 2, 0)
    x, y = x - x[:, :1], y - y[:, :1]
    rows = np.arange(pts.shape[0])[:, None]
    s, d = x + y, y - x
    ends = np.stack([x.argmax(1), s.argmax(1), y.argmax(1), d.argmax(1),
                     x.argmin(1), s.argmin(1), y.argmin(1), d.argmin(1)], axis=1)
    vx, vy = x[rows, ends], y[rows, ends]  # the corners, CCW
    spread = np.maximum(vx[:, 0] - vx[:, 4], vy[:, 2] - vy[:, 6])
    inside = np.zeros(x.shape, dtype=bool)
    ok = np.flatnonzero((spread >= 2.0**(-_SCALE_EXP - 1)) & (spread < 2.0**_SCALE_EXP))
    if ok.size < spread.size:
        x, y, vx, vy, spread = x[ok], y[ok], vx[ok], vy[ok], spread[ok]
    ex, ey = np.roll(vx, -1, axis=1) - vx, np.roll(vy, -1, axis=1) - vy
    margin = _CHORD_MARGIN * np.hypot(ex, ey) * spread[:, None]
    margin[margin < _TINY] = np.inf
    margin[(ex == 0.0) & (ey == 0.0)] = -np.inf
    bound = margin + (ex * vy - ey * vx)
    cross = ex[:, :, None] * y[:, None, :]
    cross -= ey[:, :, None] * x[:, None, :]
    inside[ok] = (cross > bound[:, :, None]).all(axis=1)
    return inside


def _wrap_angle(angle: np.ndarray) -> np.ndarray:
    """numpy's float ``remainder(angle, 2 pi)`` bit for bit, which is
    fmod, plus 2 pi where that is negative, and +0.0 for a zero of either
    sign (-0.0 + 0.0 is +0.0)."""
    out = np.fmod(angle, _TWO_PI)
    out += (out < 0.0) * _TWO_PI
    return out


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
    turn = _wrap_angle(angle[nxt] - angle + np.pi) - np.pi
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
    gap = _wrap_angle(start_b[None, :] - start_a[:, None])
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
    """Intersect a convex polygon with {x >= bounds[0]} and {y >= bounds[1]};
    a bound of -inf is no bound, +inf leaves nothing, and NaN is refused."""
    verts = np.asarray(poly, dtype=float).reshape(-1, 2)
    for dim, bound in enumerate(bounds):
        if np.isnan(bound):
            raise ValueError(f"lower bound {dim} is NaN")
        nxt = np.roll(verts, -1, axis=0)
        inside = verts[:, dim] >= bound
        crossing = inside != (nxt[:, dim] >= bound)
        cur, nxt = verts[crossing], nxt[crossing]
        frac = (bound - cur[:, dim]) / (nxt[:, dim] - cur[:, dim])
        verts = convex_hull(np.concatenate([verts[inside], cur + frac[:, None] * (nxt - cur)]))
    return verts


def point_in_convex_polygon(point, poly, tol: float = 1e-9) -> bool:
    """Membership test allowing ``tol`` of slack outside each edge; a
    non-finite point, or a NaN or negative ``tol``, is refused."""
    p = np.asarray(point, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError(f"point {point!r} is not finite")
    if not tol >= 0.0:
        raise ValueError(f"tolerance {tol!r} is not >= 0")
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
