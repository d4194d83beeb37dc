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
_ROUND_SLACK = 64 * float(np.finfo(float).eps)
_VERTEX_SLACK = 2.0 * _ARC_SLACK  # the slack of a vertex whose two edges have _ARC_SLACK
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


def _half_chains(seq: np.ndarray, starts: list, ends: list) -> list:
    """Positions in (m, 2) ``seq`` of the monotone chain over each range
    ``starts[h]`` .. ``ends[h]`` - 1 of >= 2 points, the ranges apart.

    One pass computes the turn of every consecutive triple, by the chain
    loop's own expression: left where it is > 0, a stop otherwise (NaN
    included).  Each chain's last triple is made a stop, which ends its
    runs; a triple across two ranges is read by no chain.
    """
    d1, d2 = seq[1:-1] - seq[:-2], seq[2:] - seq[:-2]
    left = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0).tolist()
    left.append(False)
    for end in ends:
        left[end - 2] = False
    x, y = seq[:, 0].tolist(), seq[:, 1].tolist()
    return [_half_chain(x, y, left, lo, hi) for lo, hi in zip(starts, ends)]


def _chord_margin(d0: float, d1: float, span: float) -> float:
    """How far off the chord (d0, d1) of a cloud of ``span`` a point may
    lie and still go to both half chains: ``_CHORD_MARGIN`` * |chord| *
    span, or inf where that is not a normal float (every point goes)."""
    margin = _CHORD_MARGIN * math.hypot(d0, d1) * span
    return math.inf if margin < _TINY else margin


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
    pts = pts.take(np.lexsort((pts[:, 1], pts[:, 0])), axis=0)  # by x, then y; stable
    new = (pts[1:, 0] != pts[:-1, 0]) | (pts[1:, 1] != pts[:-1, 1])
    if not new.all():  # a sum of hull vertices rarely repeats one
        pts = pts.compress(np.concatenate([[True], new]), axis=0)
    if pts.shape[0] <= 2:
        return pts
    test, rel = pts, pts - pts[0]
    span = float(np.abs(rel).max())
    exp = math.frexp(span)[1]
    if abs(exp) > _SCALE_EXP:  # else a cross product could underflow or overflow
        test, span = np.ldexp(pts, -exp), math.ldexp(span, -exp)
        rel = test - test[0]
    d0, d1 = rel[-1].tolist()
    margin = _chord_margin(d0, d1, span)
    side = d0 * rel[:, 1] - d1 * rel[:, 0]  # 0.0 at both ends of the chord
    lower, upper = np.flatnonzero(side <= margin), np.flatnonzero(side >= -margin)[::-1]
    both = np.concatenate([lower, upper])
    low, up = _half_chains(test.take(both, axis=0), [0, lower.size], [lower.size, both.size])
    keep = low[:-1] + up[:-1]
    return pts.take(both.take(np.fromiter(keep, np.intp, len(keep))), axis=0)


def convex_hulls(clouds) -> list:
    """``[convex_hull(c) for c in clouds]`` for a (C, M, 2) block of clouds.

    Each cloud's extreme points in the directions +-x, +-y, +-(x + y) and
    +-(x - y), in CCW order, are the corners of an octagon of cloud points.
    A point left of every edge of it by more than ``_CHORD_MARGIN`` *
    |edge| * spread (the spread: the larger of the cloud's x and y
    extents), far beyond rounding, lies strictly inside the hull of the
    corners, so it is no vertex: it is dropped before any chain sees it.
    A zero-length edge is no edge, and an edge whose margin is not a
    normal float drops nothing.  A cloud with a coordinate of
    2**_SCALE_EXP or more, or whose spread has a binary exponent outside
    +-``_SCALE_EXP`` (a repeated point included), keeps every point, and
    no cross product is formed for it.

    The kept points of every cloud are then hulled as ``convex_hull``
    hulls them, in one numpy pass over the block (``_block_hulls``).  A
    cloud with a coordinate of 2**_SCALE_EXP or more, of 2 or fewer
    distinct kept points, or whose spread's binary exponent lies outside
    +-``_SCALE_EXP``, goes to ``convex_hull`` instead, its kept points in
    input order.
    """
    pts = np.asarray(clouds, dtype=float)
    if pts.ndim != 3 or pts.shape[2] != 2:
        raise ValueError(f"convex_hulls needs a (C, M, 2) block of clouds, got {pts.shape}")
    mag = np.abs(pts).reshape(pts.shape[0], 2 * pts.shape[1]).max(axis=1, initial=0.0)
    if not mag.max(initial=0.0) < 2.0**1023:
        raise ValueError("convex_hulls needs finite points below 2**1023 in magnitude")
    keep = np.ones(pts.shape[:2], dtype=bool)
    small = mag < 2.0**_SCALE_EXP  # no sum or product below overflows
    if pts.shape[1] >= 3 and small.any():
        rows = np.flatnonzero(small)
        keep[rows] = ~_octagon_interior(pts[rows] if rows.size < mag.size else pts)
    hulls = _block_hulls(pts, keep, small)
    for c, hull in enumerate(hulls):
        if hull is None:
            hulls[c] = convex_hull(pts[c][keep[c]])
    return hulls


def _block_hulls(pts: np.ndarray, keep: np.ndarray, small: np.ndarray) -> list:
    """``convex_hull(pts[c][keep[c]])`` for each cloud c of ``small``
    whose kept points hold 3 or more distinct points and whose spread's
    binary exponent lies within +-``_SCALE_EXP``, else None.

    ``convex_hull``'s steps, each over the whole block but the sort (one
    lexsort per cloud, which is faster than one with the cloud as a third
    key): one dedupe, each cloud's chord split (``_chord_margin``), one
    ``_half_chains`` pass over the lower chains of cloud after cloud and
    the upper chains after them, and one gather (the hulls are views of
    one array).  ``convex_hull`` keeps its own sort, dedupe and split,
    since this block bookkeeping would nearly double the time of one
    cloud's hull, the cost of each fold step's hull.
    """
    hulls = [None] * pts.shape[0]
    flat = np.flatnonzero(keep)  # cloud-major: input order in each cloud
    if not flat.size:
        return hulls
    sp, cloud = pts.reshape(-1, 2).take(flat, axis=0), flat // pts.shape[1]
    x, y, order, lo = sp[:, 0], sp[:, 1], [], 0
    for hi in np.cumsum(keep.sum(axis=1)).tolist():
        order.append(np.lexsort((y[lo:hi], x[lo:hi])) + lo)
        lo = hi
    sp = sp.take(np.concatenate(order), axis=0)
    new = np.ones(cloud.size, dtype=bool)
    new[1:] = (sp[1:, 0] != sp[:-1, 0]) | (sp[1:, 1] != sp[:-1, 1]) | (cloud[1:] != cloud[:-1])
    if not new.all():
        sp, cloud = sp.compress(new, axis=0), cloud.compress(new)
    counts = np.bincount(cloud, minlength=pts.shape[0])
    taken = small & (counts >= 3)
    if not taken.any():
        return hulls
    if not taken.all():
        sp = sp.compress(taken.take(cloud), axis=0)
    ids, sizes = np.flatnonzero(taken), counts[taken]
    first = np.cumsum(sizes) - sizes
    rel = sp - np.repeat(sp.take(first, axis=0), sizes, axis=0)
    span = np.maximum.reduceat(np.abs(rel).ravel(), 2 * first)
    scaled = np.abs(np.frexp(span)[1]) > _SCALE_EXP  # convex_hull scales these
    if scaled.any():
        sel = np.repeat(~scaled, sizes)
        ids, sizes, span = ids[~scaled], sizes[~scaled], span[~scaled]
        if not ids.size:
            return hulls
        sp, rel = sp.compress(sel, axis=0), rel.compress(sel, axis=0)
        first = np.cumsum(sizes) - sizes
    chord = rel.take(first + sizes - 1, axis=0)
    margin = np.array([_chord_margin(d0, d1, s) for (d0, d1), s in zip(chord.tolist(), span.tolist())])
    owner = np.repeat(np.arange(ids.size), sizes)
    side = chord[:, 0].take(owner) * rel[:, 1] - chord[:, 1].take(owner) * rel[:, 0]
    bound = margin.take(owner)
    lower, upper = np.flatnonzero(side <= bound), np.flatnonzero(side >= -bound)[::-1]
    # the lower points ascending, cloud after cloud, then the upper points
    # descending, so the last cloud's upper chain comes first
    both = np.concatenate([lower, upper])
    n_low = np.bincount(owner.take(lower), minlength=ids.size)
    n_up = np.bincount(owner.take(upper), minlength=ids.size)
    low_end, up_start = np.cumsum(n_low), both.size - np.cumsum(n_up)
    starts = np.stack([low_end - n_low, up_start], axis=1).ravel().tolist()
    ends = np.stack([low_end, up_start + n_up], axis=1).ravel().tolist()
    chains = _half_chains(sp.take(both, axis=0), starts, ends)
    rows, cuts = [], []
    for low, up in zip(chains[0::2], chains[1::2]):
        rows += low[:-1]
        rows += up[:-1]
        cuts.append(len(rows))
    verts = sp.take(both.take(np.fromiter(rows, np.intp, len(rows))), axis=0)
    for c, hull in zip(ids.tolist(), np.split(verts, cuts[:-1])):
        hulls[c] = hull
    return hulls


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


def _polygon_arcs(polys: list) -> list:
    """Scale-free arc facts of each (M, 2) float CCW polygon of ``polys``,
    in one pass over all of them: (edge lengths, arc starts, arc widths,
    shortest edge, largest coordinate magnitude), or None for a polygon of
    fewer than 3 vertices or without usable arcs.

    A vertex is extreme for exactly the directions whose outward normals
    lie between the normals of its incoming and outgoing edges; rotating
    every normal by the same quarter turn, the arc from the incoming to
    the outgoing edge direction stands for that normal arc.  The arcs here
    are before slack (``_slackened``), and per vertex the edge length is
    that of the edge leaving it.  Usable arcs need no edge of zero length
    (which only a point cloud with a repeated point has), and edges that
    turn once around CCW.  The turns are summed in order, so a polygon's
    test does not depend on the polygons beside it.
    """
    out = [None] * len(polys)
    idx = [j for j, poly in enumerate(polys) if poly.shape[0] >= 3]
    if not idx:
        return out
    sizes = np.array([polys[j].shape[0] for j in idx])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    pts = polys[idx[0]] if len(idx) == 1 else np.concatenate([polys[j] for j in idx])
    # vertex k leaves along edge k, which runs to vertex k + 1, and arrives
    # along edge k - 1, both within its own polygon
    nxt = np.arange(1, ends[-1] + 1)
    nxt[ends - 1] = starts
    prev = np.arange(-1, ends[-1] - 1)
    prev[starts] = ends - 1
    x, y = pts[:, 0], pts[:, 1]
    ex, ey = x[nxt] - x, y[nxt] - y
    length = np.hypot(ex, ey)
    angle = np.arctan2(ey, ex)
    turn = _wrap_angle(angle[nxt] - angle + np.pi) - np.pi
    vturn = turn[prev]
    start = angle[prev] + np.minimum(vturn, 0.0)
    width = np.abs(vturn)
    shortest = np.minimum.reduceat(length, starts)
    # a convex CCW polygon turns left once around; rounding may leave a
    # nearly collinear vertex turning right by a hair (NaN fails the test)
    usable = (shortest > 0.0) & (np.minimum.reduceat(turn, starts) >= -1e-6)
    usable &= np.abs(np.add.reduceat(turn, starts) - _TWO_PI) <= 1e-6
    absmax = np.maximum.reduceat(np.abs(pts).ravel(), 2 * starts)
    for j, lo, hi, short, big, ok in zip(idx, starts.tolist(), ends.tolist(), shortest.tolist(),
                                          absmax.tolist(), usable.tolist()):
        if ok:
            out[j] = (length[lo:hi], start[lo:hi], width[lo:hi], short, big)
    return out


def _slackened(arcs, scale: float):
    """(start, CCW width) of each vertex arc of one polygon's arc facts,
    widened by its two edges' slack at coordinate ``scale``.

    An edge's slack is the larger of ``_ARC_SLACK`` and ``round_slack`` /
    its length, a division that is monotone in the length: where even the
    shortest edge gives no more than ``_ARC_SLACK``, every edge's slack is
    ``_ARC_SLACK``, and each vertex's the sum of two of them.
    """
    length, start, width, shortest, _ = arcs
    round_slack = _ROUND_SLACK * scale
    if round_slack / max(shortest, round_slack / math.pi) <= _ARC_SLACK:
        return start - _VERTEX_SLACK, width + 2.0 * _VERTEX_SLACK
    slack = np.maximum(_ARC_SLACK, round_slack / np.maximum(length, round_slack / np.pi))
    vslack = slack + np.concatenate((slack[-1:], slack[:-1]))  # the edges at each vertex
    return start - vslack, width + 2.0 * vslack


def _minkowski_step(a: np.ndarray, b: np.ndarray, arcs_b) -> np.ndarray:
    """``minkowski_sum`` of (M, 2) float polygons ``a`` and ``b``, given
    ``b``'s arc facts (``_polygon_arcs``, None where it gives no arcs)."""
    arcs_a = _polygon_arcs([a])[0] if arcs_b is not None else None
    if arcs_a is None:
        return convex_hull(a[:, None, :] + b[None, :, :])
    scale = max(arcs_a[4], arcs_b[4])
    start_a, width_a = _slackened(arcs_a, scale)
    start_b, width_b = _slackened(arcs_b, scale)
    # two arcs meet iff one of them starts inside the other
    gap = _wrap_angle(start_b[None, :] - start_a[:, None])
    keep = gap <= width_a[:, None]
    keep |= _TWO_PI - gap <= width_b[None, :]
    i, j = np.nonzero(keep)
    return convex_hull(a.take(i, axis=0) + b.take(j, axis=0))


def minkowski_sum(poly_a, poly_b) -> np.ndarray:
    """Minkowski sum of two convex polygons: hull of candidate pair sums.

    Only pairs whose vertex arcs (``_polygon_arcs``, widened by
    ``_slackened``) overlap can be vertices of the sum, so only those
    pairs are added; when either polygon gives no arcs every pair is.  The
    hull of the candidates is the hull of all pair sums, and each kept sum
    is the same float.
    """
    a = np.asarray(poly_a, dtype=float).reshape(-1, 2)
    b = np.asarray(poly_b, dtype=float).reshape(-1, 2)
    return _minkowski_step(a, b, _polygon_arcs([b])[0])


def weighted_minkowski_sum(polys, weights) -> np.ndarray:
    """Hull of sum_j w_j P_j for convex polygons P_j and weights w_j
    (a left fold of ``minkowski_sum`` over the polygons in order).

    The arc facts of every weighted polygon but the first come from one
    pass before the fold, so each step computes only the accumulated
    polygon's arcs, the slack at their common scale, the pair mask and the
    hull of the kept sums.
    """
    polys = list(polys)
    weights = np.asarray(weights, dtype=float)
    if len(polys) != weights.size or not polys:
        raise ValueError("need one weight per polygon")
    for j, w in enumerate(weights.tolist()):
        if not math.isfinite(w):
            raise ValueError(f"weight {j} is {w}, not finite")
    scaled = [np.asarray(poly, dtype=float).reshape(-1, 2) * w
              for poly, w in zip(polys, weights.tolist())]
    acc = scaled[0]
    for poly, arcs in zip(scaled[1:], _polygon_arcs(scaled[1:])):
        acc = _minkowski_step(acc, poly, arcs)
    return convex_hull(acc)


def clip_to_lower_bounds(poly, bounds) -> np.ndarray:
    """Intersect a convex polygon with {x >= bounds[0]} and {y >= bounds[1]};
    a bound of -inf is no bound, +inf leaves nothing, and NaN, or bounds
    that are not exactly two entries, are refused."""
    verts = np.asarray(poly, dtype=float).reshape(-1, 2)
    if np.shape(bounds) != (2,):
        raise ValueError(f"need two lower bounds, one per axis, got {bounds!r}")
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
