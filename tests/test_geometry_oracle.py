"""``powergame.geometry`` against the reference kernels in ``geometry_oracle``.

The Minkowski sum keeps only the vertex pairs whose normal arcs overlap,
and each half chain of the hull runs over Python floats and walks only
the points on its side of the chord; both must give the reference's
output bit for bit (one cloud where the reference's walk over every point
gives a polygon that is not convex is pinned apart).  The half chains push
each run of left turns in one step; they must give the positions of the
loop that pushes or pops once per point.  ``convex_hulls`` drops the
points deep inside an octagon of each cloud's extreme points before the
cloud's hull; it must give ``convex_hull`` of each whole cloud bit for
bit.  The half-plane clip and the membership test treat every edge at
once; they must give the edge-by-edge loops' hulls bit for bit and their
booleans exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geometry_oracle import (
    clip_to_lower_bounds_oracle,
    convex_hull_oracle,
    half_chain_oracle,
    minkowski_sum_oracle,
    point_in_convex_polygon_oracle,
    weighted_minkowski_sum_oracle,
)
import powergame.geometry
from powergame.analysis import feasible_region_2p, joint_state_table
from powergame.channels import TruncatedRayleighSpec, build_model
from powergame.geometry import (
    _half_chains,
    _wrap_angle,
    clip_to_lower_bounds,
    convex_hull,
    convex_hulls,
    minkowski_sum,
    point_in_convex_polygon,
    weighted_minkowski_sum,
)
from powergame.oneshot import GameParams, _power_grids, utility


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def state_clouds(params, state_gains, state_grids, nudge_ulps=0):
    """Utility pairs over each state's grids; with ``nudge_ulps``, each
    player's grid also holds its equal-received-power power raised by that
    many ulps, beside the exact one."""
    for eta, grids in zip(state_gains, state_grids):
        if nudge_ulps:
            level = params.equal_received / eta * (1.0 + nudge_ulps * 2.0**-52)
            grids = [np.union1d(g, level[i]) for i, g in enumerate(grids)]
        p0, p1 = np.meshgrid(*grids, indexing="ij")
        yield utility(params, eta, np.stack([p0.ravel(), p1.ravel()], -1))


def region_and_state_hulls(bins, cap, grid_size, a=0.5, sigma2=1.0):
    params = GameParams.symmetric(2, a=a, sigma2=sigma2, p_max=cap * sigma2)
    model = build_model(TruncatedRayleighSpec(1.0, 0.1, 10.0, bins), 2)
    region = feasible_region_2p(params, model, grid_size)
    clouds = state_clouds(params, region.state_gains, region.state_grids)
    return region, [convex_hull_oracle(c) for c in clouds]


@pytest.mark.parametrize("bins,cap,grid_size", [
    (4, np.inf, 3), (4, np.inf, 12), (4, 50.0, 6), (4, 20.0, 12),
    (8, np.inf, 6), (8, 20.0, 12),
])
def test_region_hull_matches_pair_enumeration(bins, cap, grid_size):
    region, hulls = region_and_state_hulls(bins, cap, grid_size)
    assert_bitwise(region.hull, weighted_minkowski_sum_oracle(hulls, region.state_probs))


def test_rayleigh16_with_near_duplicate_vertices(monkeypatch):
    # a second equal-received-power power 4 ulps above the first gives many
    # state hulls two vertices a few ulps apart, which share one arc. The
    # states and grids are feasible_region_2p's, built here so that every
    # state hull is checked before the package folds any, and each fold
    # step must give at most |A| + |B| vertices (a hull that keeps too many
    # points makes the fold's pair sums grow without bound)
    fold_sizes = []

    def bounded_sum(poly_a, poly_b):
        out = minkowski_sum(poly_a, poly_b)
        fold_sizes.append(len(out))
        assert len(out) <= len(poly_a) + len(poly_b), (len(fold_sizes), len(out))
        return out

    monkeypatch.setattr(powergame.geometry, "minkowski_sum", bounded_sum)
    params = GameParams.symmetric(2, a=0.5, p_max=20.0)
    model = build_model(TruncatedRayleighSpec(1.0, 0.1, 10.0, 16), 2)
    _, gains, probs = joint_state_table(model)
    padded, sizes = _power_grids(params, gains, 12)
    grids = [[g[:n] for g, n in zip(state, state_sizes)]
             for state, state_sizes in zip(padded, sizes)]
    clouds = list(state_clouds(params, gains, grids, nudge_ulps=4))
    hulls = [convex_hull_oracle(c) for c in clouds]
    edges = np.diff(np.vstack([hulls[8], hulls[8][:1]]), axis=0)
    assert np.hypot(edges[:, 0], edges[:, 1]).min() < 1e-15
    for cloud, hull in zip(clouds, hulls):
        assert_bitwise(convex_hull(cloud), hull)
    assert_bitwise(weighted_minkowski_sum(hulls, probs),
                   weighted_minkowski_sum_oracle(hulls, probs))
    assert len(fold_sizes) == len(hulls) - 1


def regular_polygon(n, radius=1.0, phase=0.0, center=(0.0, 0.0)):
    t = phase + 2.0 * np.pi * np.arange(n) / n
    return convex_hull(np.c_[np.cos(t), np.sin(t)] * radius + np.asarray(center))


@pytest.mark.parametrize("poly_a,poly_b", [
    (np.array([(0, 0), (1, 0), (1, 1), (0, 1)], float),
     np.array([(2, 3), (3, 3), (3, 4), (2, 4)], float)),
    (regular_polygon(6), regular_polygon(6, center=(5.0, -2.0))),
    (regular_polygon(6), regular_polygon(12)),
    (regular_polygon(8, 3.0), regular_polygon(8, 3.0, phase=np.pi / 8)),
    (convex_hull([(0, 0), (4, 0), (4, 1), (2, 3), (0, 1)]),
     convex_hull([(0, 0), (4, 0), (4, 1), (2, 3), (0, 1)]) * 0.1),
])
def test_parallel_edges_of_equal_length(poly_a, poly_b):
    assert_bitwise(minkowski_sum(poly_a, poly_b), minkowski_sum_oracle(poly_a, poly_b))
    assert_bitwise(minkowski_sum(poly_b, poly_a), minkowski_sum_oracle(poly_b, poly_a))


def circle_with_short_edges(rng, n):
    # n points on a circle, each with a twin 1e-9 to 1e-5 rad further on
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    t = np.concatenate([t, t + 10.0 ** rng.uniform(-9.0, -5.0, n)])
    return convex_hull(np.c_[np.cos(t), np.sin(t)] * rng.uniform(0.1, 100.0)
                       + rng.normal(size=2) * 100.0)


@pytest.mark.parametrize("seed", range(8))
def test_short_edges_against_a_scaled_copy(seed):
    # pair sums along short parallel edges lie within rounding of the
    # boundary, more than 1e-9 rad outside each other's arcs
    rng = np.random.default_rng(seed)
    a = circle_with_short_edges(rng, 30)
    b = a * rng.uniform(0.1, 2.0)
    assert_bitwise(minkowski_sum(a, b), minkowski_sum_oracle(a, b))


@pytest.mark.parametrize("small", [
    np.array([(0.25, -1.5)]),
    np.array([(0.0, 0.0), (2.0, 1.0)]),
    np.array([(1.0, 1.0), (1.0, 3.0)]),
])
def test_one_and_two_vertex_polygons(small):
    tri = np.array([(0, 0), (2, 0), (0, 2)], float)
    for a, b in ((small, tri), (tri, small), (small, small)):
        assert_bitwise(minkowski_sum(a, b), minkowski_sum_oracle(a, b))
    polys = [tri, small, regular_polygon(5)]
    weights = [0.2, 0.3, 0.5]
    assert_bitwise(weighted_minkowski_sum(polys, weights),
                   weighted_minkowski_sum_oracle(polys, weights))


coordinates = st.one_of(
    st.integers(-6, 6).map(float),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)
clouds = st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=40)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(clouds, clouds, st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))
# a repeated point is a zero-length edge, which gives no direction
@example([(0.0, 0.0)] * 3, [(0.0, 0.0)] * 3, 1.0, 1.0)
@example([(0.0, 0.0)] * 3, [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], 1.0, 1.0)
def test_minkowski_sum_matches_pair_enumeration(cloud_a, cloud_b, w_a, w_b):
    a = convex_hull(cloud_a) * w_a
    b = convex_hull(cloud_b) * w_b
    assert_bitwise(minkowski_sum(a, b), minkowski_sum_oracle(a, b))
    assert_bitwise(minkowski_sum(a, a * (w_b / w_a)), minkowski_sum_oracle(a, a * (w_b / w_a)))
    # point clouds in any order, not convex polygons, are summed pair by pair
    assert_bitwise(minkowski_sum(cloud_a, cloud_b), minkowski_sum_oracle(cloud_a, cloud_b))
    assert_bitwise(weighted_minkowski_sum([a, b, a], [0.5, 0.25, 0.25]),
                   weighted_minkowski_sum_oracle([a, b, a], [0.5, 0.25, 0.25]))


def test_subnormal_edge():
    # an edge of 5e-324 takes its arcs' slack up to half a turn, not past
    # what a float holds
    a = convex_hull([(0.0, 0.0), (5e-324, 0.0), (0.0, 1.0)])
    assert a.shape == (3, 2)
    b = np.array([(0, 0), (2, 0), (0, 2)], float)
    for x, y in ((a, b), (b, a), (a, a), (a, b * 1e-300)):
        assert_bitwise(minkowski_sum(x, y), minkowski_sum_oracle(x, y))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(clouds)
# a segment whose ends are np.allclose keeps both of them, as does a point
@example([(-2e-17, -1e-17), (0.0, -1e-17), (1e-17, -1e-17)])
@example([(1.0, 2.0)] * 3)
def test_convex_hull_matches_reference(cloud):
    assert_bitwise(convex_hull(cloud), convex_hull_oracle(cloud))


@pytest.mark.parametrize("seed", range(40))
def test_hull_dedupe_matches_np_unique(seed):
    # repeated rows, and 0.0 and -0.0 in one coordinate; at most 16 rows,
    # which np.unique(axis=0) sorts by insertion, keeping the first of
    # float-equal rows as the hull's stable sort does
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 1.0, 2.0])
    cloud = values[rng.integers(0, 4, (int(rng.integers(1, 17)), 2))]
    assert_bitwise(convex_hull(cloud), convex_hull_oracle(cloud))


@pytest.mark.parametrize("seed", range(5))
def test_hull_keeps_the_first_of_float_equal_points(seed):
    # 60 corners of the unit square, each zero signed at random: every
    # vertex has the bytes of the first input point equal to it
    rng = np.random.default_rng(seed)
    corners = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    cloud = corners[rng.integers(0, 4, 60)]
    cloud[(cloud == 0.0) & (rng.random(cloud.shape) < 0.5)] = -0.0
    hull = convex_hull(cloud)
    np.testing.assert_array_equal(hull, corners)
    for vertex in hull:
        first = cloud[np.all(cloud == vertex, axis=1)][0]
        assert vertex.tobytes() == first.tobytes()


def nudged(rng, x, ulps):
    return x + rng.integers(-ulps, ulps + 1, np.shape(x)) * np.spacing(x)


def collinear(rng):
    t = rng.uniform(-1.0, 1.0, int(rng.integers(3, 40)))
    line = rng.normal(size=2) * rng.choice([0.0, 1.0, 100.0]) + t[:, None] * rng.normal(size=2)
    return nudged(rng, line, int(rng.integers(0, 4)))


def sliver(rng):
    n = int(rng.integers(3, 40))
    d = rng.normal(size=2)
    off = rng.normal(size=n) * 10.0 ** rng.uniform(-17.0, -8.0)
    return rng.normal(size=2) + rng.uniform(-1.0, 1.0, n)[:, None] * d + off[:, None] * [-d[1], d[0]]


def near_duplicate_extremes(rng):
    cloud = rng.normal(size=(int(rng.integers(3, 30)), 2))
    ends = cloud[[cloud[:, 0].argmin(), cloud[:, 0].argmax()]]
    return rng.permutation(np.vstack([cloud, nudged(rng, ends.repeat(3, axis=0), 3)]))


def vertical_ends(rng):
    cloud = rng.normal(size=(int(rng.integers(3, 30)), 2))
    x = np.repeat([cloud[:, 0].min(), cloud[:, 0].max()], 3)
    return rng.permutation(np.vstack([cloud, np.c_[nudged(rng, x, 3), rng.normal(size=6)]]))


def polygon_twins(rng):
    n = int(rng.integers(3, 24))
    t = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(n) / n
    ring = np.c_[np.cos(t), np.sin(t)] * rng.uniform(0.01, 100.0) + rng.normal(size=2)
    twins = nudged(rng, ring[rng.integers(0, n, int(rng.integers(1, n + 1)))], 4)
    return rng.permutation(np.vstack([ring, twins]))


def integer_grid(rng):
    return rng.integers(-3, 4, (int(rng.integers(3, 40)), 2)) * rng.choice([1.0, 0.1, 1e-3])


def utility_like(rng):
    # a utility cloud: (0, 0), (1, 0) and points above the chord between them
    x = rng.uniform(0.0, 1.0, int(rng.integers(3, 60)))
    y = np.abs(rng.normal(size=x.size)) * x * (1.0 - x) * 10.0 ** rng.uniform(-12.0, 0.0)
    cloud = np.vstack([[(0.0, 0.0), (1.0, 0.0)], np.c_[x, y]])
    return rng.permutation(nudged(rng, cloud, int(rng.integers(0, 3))))


def nearly_convex(rng):
    # the fold's candidates: points on a convex curve, a few nudged inward
    # by a few ulps and a few inserted halfway along an edge
    n = int(rng.integers(3, 60))
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    center = rng.normal(size=2) * rng.choice([0.0, 1.0, 100.0])
    ring = np.c_[np.cos(t), np.sin(t) * rng.uniform(0.1, 1.0)] * rng.uniform(0.01, 100.0) + center
    inward = rng.choice(n, int(rng.integers(0, 4)), replace=False)
    steps = rng.integers(1, 4, (inward.size, 1)) * np.spacing(ring[inward])
    ring[inward] -= steps * np.sign(ring[inward] - center)
    edges = rng.choice(n, int(rng.integers(0, 4)), replace=False)
    mids = (ring[edges] + ring[(edges + 1) % n]) / 2.0
    return rng.permutation(np.vstack([ring, mids]))


ADVERSARIAL = (collinear, sliver, near_duplicate_extremes, vertical_ends, polygon_twins,
               integer_grid, utility_like, nearly_convex)


@pytest.fixture(scope="module")
def adversarial_hulls():
    """(kind, cloud, oracle hull) for 400 seeded clouds of each kind whose
    oracle hull has at least 3 vertices."""
    out = []
    for k, kind in enumerate(ADVERSARIAL):
        for seed in range(400):
            cloud = kind(np.random.default_rng([k, seed]))
            want = convex_hull_oracle(cloud)
            if want.shape[0] >= 3:
                out.append((kind.__name__, cloud, want))
    return out


def test_chord_split_matches_reference_on_adversarial_clouds(adversarial_hulls):
    # near-collinear and near-duplicate points meet orientation tests that
    # rounding decides; the chains walk fewer points, and give the same bytes
    assert {kind for kind, _, _ in adversarial_hulls} == {f.__name__ for f in ADVERSARIAL}
    for _, cloud, want in adversarial_hulls:
        assert_bitwise(convex_hull(cloud), want)


def test_chord_margin_is_needed(adversarial_hulls, monkeypatch):
    # with a margin far below rounding (0 sends every point to both chains),
    # a point within rounding of the chord is left out of a chain that would
    # have kept it
    monkeypatch.setattr(powergame.geometry, "_CHORD_MARGIN", 1e-300)
    assert any(convex_hull(cloud).tobytes() != want.tobytes()
               for _, cloud, want in adversarial_hulls)


def test_near_duplicates_off_the_chord_stay_out_of_the_other_chain():
    # three points a few ulps apart, well below the chord: a walk over every
    # point lets rounding among them keep two in the upper chain, which
    # gives a 5-row polygon that is not convex; the split keeps them out
    cloud = np.array([
        (-0.9075053702852343, 0.03963488354707584), (-0.32251514686141675, -0.2171361671274569),
        (-0.18094050945540374, -0.2792778353810669), (-0.20018640696808657, -0.270830191082701),
        (-0.18094050945540385, -0.27927783538106665), (-0.18094050945540383, -0.2792778353810667),
        (1.388556147221949, -0.7936011590947135), (0.8745126177144568, -0.9642205384780433)])
    assert convex_hull_oracle(cloud).shape == (5, 2)
    assert_bitwise(convex_hull(cloud), cloud[[0, 7, 6]])


def parabola(rng, m):
    # m points of y = x^2 by increasing x: every triple turns left
    x = np.sort(rng.uniform(-1.0, 1.0, m))
    return np.c_[x, x * x]


def raised(pts, rows):
    # each listed point lifted above its neighbours: the triple it ends in
    # the middle of is a stop
    out = pts.copy()
    out[rows, 1] += 1.0
    return out


def first_stop(rng):
    return raised(parabola(rng, int(rng.integers(4, 30))), [1])


def last_stop(rng):
    m = int(rng.integers(4, 30))
    return raised(parabola(rng, m), [m - 2])


def neighbour_stops(rng):
    # a few points lifted at random, and two neighbours lifted twice as high
    m = int(rng.integers(8, 40))
    pts = raised(parabola(rng, m), rng.choice(m, int(rng.integers(0, 4)), replace=False))
    j = int(rng.integers(1, m - 3))
    pts[[j, j + 1], 1] += 2.0
    return pts


def zero_turns(rng):
    # integer points on a convex polyline with runs along each piece, and
    # a few points repeated in place: turns of exactly 0
    m = int(rng.integers(6, 40))
    x = np.sort(rng.integers(-20, 20, m)).astype(float)
    y = np.maximum(np.abs(x - rng.integers(-5, 5)), 2.0 * x - rng.integers(0, 10))
    return np.c_[x, y]


def all_stops(rng):
    # a concave run (every turn right) or one straight line (every turn 0)
    pts = parabola(rng, int(rng.integers(3, 30)))
    pts[:, 1] *= -1.0 if rng.random() < 0.5 else 0.0
    return pts


CHAIN_KINDS = (first_stop, last_stop, neighbour_stops, zero_turns, all_stops)


def chain_hits(kind, pts):
    """Whether ``pts`` meets the jump path ``kind`` is named for."""
    d1, d2 = pts[1:-1] - pts[:-2], pts[2:] - pts[:-2]
    turns = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    stops, m = np.flatnonzero(~(turns > 0)) + 2, pts.shape[0]
    return {
        "first_stop": 2 in stops,
        "last_stop": m - 1 in stops,
        "neighbour_stops": bool(np.any(np.diff(stops) == 1)),
        "zero_turns": bool(np.any(turns == 0)),
        "all_stops": stops.size == m - 2,
    }[kind.__name__]


@pytest.mark.parametrize("kind", CHAIN_KINDS, ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("seed", range(25))
def test_half_chains_match_the_one_step_loop(kind, seed):
    # each kind's points as the lower chain and, reversed, as the upper,
    # laid end to end as convex_hull lays them; against the loop that
    # pushes or pops once per point
    rng = np.random.default_rng([seed, 7])
    lower = kind(rng)
    upper = CHAIN_KINDS[seed % len(CHAIN_KINDS)](rng)[::-1]
    assert chain_hits(kind, lower)
    low, up = _half_chains(np.concatenate([lower, upper]), lower.shape[0])
    assert low == half_chain_oracle(lower)
    assert up == [lower.shape[0] + k for k in half_chain_oracle(upper)]


def test_half_chains_of_two_points():
    # a chain of two points has no triple of its own; a collinear middle
    # point is popped
    two = np.array([(0.0, 0.0), (1.0, 1.0)])
    line = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert _half_chains(np.concatenate([two, line]), 2) == ([0, 1], [2, 4])
    assert _half_chains(np.concatenate([line, two]), 3) == ([0, 2], [3, 4])


def gaussian(rng, m):
    center = rng.normal(size=2) * rng.choice([0.0, 1.0, 1e3])
    return center + rng.normal(size=(m, 2)) * 10.0 ** rng.uniform(-3.0, 3.0)


def small_grid(rng, m):
    # many exact collinear points and repeats
    return rng.integers(-3, 4, (m, 2)) * rng.choice([1.0, 0.1, 1e-3])


def nudged_circle(rng, m):
    # points on a circle, some nudged inward by a few ulps, and a few inside
    t = rng.uniform(0.0, 2.0 * np.pi, m)
    center = rng.normal(size=2) * rng.choice([0.0, 1.0, 100.0])
    ring = np.c_[np.cos(t), np.sin(t)] * rng.uniform(0.01, 100.0) + center
    inward = rng.random(m) < 0.5
    ring[inward] -= (rng.integers(1, 5, (inward.sum(), 1)) * np.spacing(ring[inward])
                     * np.sign(ring[inward] - center))
    inner = rng.random(m) < 0.2
    ring[inner] = center + (ring[inner] - center) * rng.uniform(0.0, 1.0, (inner.sum(), 1))
    return ring


def extreme_spread(rng, m):
    # a cross product of the unscaled points would underflow or overflow;
    # 2**-401 and 2**400 sit at the prefilter's bounds, and below 2**1022 a
    # sum of two coordinates taken from another point can overflow
    scale = rng.choice([1e300, 1e-300, 2.0**-401, 2.0**-400, 2.0**399, 2.0**400, 2.0**1022])
    return rng.uniform(-1.0, 1.0, (m, 2)) * scale


def thin_sliver(rng, m):
    # within 1e-12 of a segment
    d = rng.normal(size=2)
    off = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(-16.0, -12.0)
    return rng.normal(size=2) + rng.uniform(-1.0, 1.0, m)[:, None] * d + off[:, None] * [-d[1], d[0]]


def utility_axes(rng, m):
    # a utility cloud: a third of the points on each axis, the rest under a
    # concave frontier
    x, y = rng.uniform(0.0, 1.0, m), rng.uniform(0.0, 1.0, m)
    y *= (1.0 - x**2) * 10.0 ** rng.uniform(-6.0, 0.0)
    axis = rng.integers(0, 3, m)
    x[axis == 1] = 0.0
    y[axis == 2] = 0.0
    return np.c_[x, y]


def octagon_edges(rng, m):
    # a few extreme points, and points within a few ulps of the edges of
    # the octagon convex_hulls builds from them
    corners = rng.normal(size=(8, 2))
    base = np.vstack([corners, rng.normal(size=(m - 8 - m // 2, 2)) * 0.3])
    x, y = base[:, 0], base[:, 1]
    ends = [np.argmax(x), np.argmax(x + y), np.argmax(y), np.argmax(y - x),
            np.argmin(x), np.argmin(x + y), np.argmin(y), np.argmin(y - x)]
    k = rng.integers(0, 8, m // 2)
    a, b = base[np.take(ends, k)], base[np.take(ends, (k + 1) % 8)]
    on_edge = a + rng.uniform(0.0, 1.0, (k.size, 1)) * (b - a)
    return rng.permutation(np.vstack([base, nudged(rng, on_edge, 4)]))


def repeated_point(rng, m):
    return np.repeat(rng.normal(size=(1, 2)), m, axis=0)


BLOCK_KINDS = (gaussian, small_grid, nudged_circle, extreme_spread, thin_sliver, utility_axes,
               octagon_edges, repeated_point)


def assert_hulls_match(block):
    got = convex_hulls(block)
    assert len(got) == len(block)
    for hull, cloud in zip(got, block):
        assert_bitwise(hull, convex_hull(cloud))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", BLOCK_KINDS, ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("seed", range(30))
def test_convex_hulls_match_one_hull_per_cloud(kind, seed):
    rng = np.random.default_rng([seed, 31])
    m = int(rng.integers(16, 80))
    assert_hulls_match(np.stack([kind(rng, m) for _ in range(6)]))


@pytest.mark.parametrize("seed", range(20))
def test_convex_hulls_of_a_mixed_block(seed):
    # each cloud is tested on its own spread and octagon
    rng = np.random.default_rng([seed, 32])
    m = int(rng.integers(16, 40))
    kinds = rng.choice(len(BLOCK_KINDS), 12)
    assert_hulls_match(np.stack([BLOCK_KINDS[k](rng, m) for k in kinds]))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_convex_hulls_of_tiny_and_repeated_clouds(m):
    # one point repeated is an octagon of one point, which must drop nothing
    rng = np.random.default_rng(m)
    assert_hulls_match(rng.normal(size=(5, m, 2)))
    assert_hulls_match(np.stack([repeated_point(rng, m) for _ in range(3)]))
    assert convex_hulls(np.empty((0, m, 2))) == []
    assert [h.tolist() for h in convex_hulls([[(1.5, -2.0)] * max(m, 1)])] == [[[1.5, -2.0]]]


def test_convex_hulls_drop_interior_points(monkeypatch):
    # the rows convex_hull is handed: a Gaussian cloud's octagon holds most
    # of its points, and the prefilter gives them to no chain
    seen = []
    monkeypatch.setattr(powergame.geometry, "convex_hull",
                        lambda pts: seen.append(len(pts)) or convex_hull(pts))
    block = np.random.default_rng(3).normal(size=(4, 200, 2))
    for hull, cloud in zip(convex_hulls(block), block):
        assert_bitwise(hull, convex_hull(cloud))
    assert len(seen) == 4 and sum(seen) < 0.5 * block.shape[0] * block.shape[1]


def test_prefilter_margin_is_needed(monkeypatch):
    # a thin triangle: with a margin far below rounding, its middle vertex
    # is read as inside the octagon of the three points and dropped
    cloud = np.array([(0.2704333811054189, -0.14509671617039252),
                      (0.29244367466838767, -0.15690598803202033),
                      (-0.29754658558459496, 0.15964387347288278)])
    assert_bitwise(convex_hull(cloud), cloud[[2, 0, 1]])
    assert_bitwise(convex_hulls(cloud[None])[0], cloud[[2, 0, 1]])
    monkeypatch.setattr(powergame.geometry, "_CHORD_MARGIN", 1e-300)
    assert_bitwise(convex_hull(cloud), cloud[[2, 0, 1]])
    assert_bitwise(convex_hulls(cloud[None])[0], cloud[[2, 1]])


@pytest.mark.filterwarnings("error")
def test_convex_hulls_of_clouds_near_the_largest_float():
    # taken from the first point, x + y of the last is 3.8 * 2**1023: such a
    # cloud keeps every point and forms no sum or product
    big = 1.9 * 2.0**1022
    cloud = np.array([(-big, -big), (0.0, 0.0), (big, -big), (big, big), (-big, big), (0.5, 0.5)])
    assert_hulls_match(np.stack([cloud, cloud * 2.0**-700]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**1023, -2.0**1023])
def test_convex_hulls_refuse_non_finite_points(bad):
    block = np.random.default_rng(0).normal(size=(3, 10, 2))
    block[1, 4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        convex_hulls(block)


@pytest.mark.parametrize("shape", [(5, 2), (2, 5, 3), (1, 2, 3, 2)])
def test_convex_hulls_need_a_block_of_clouds(shape):
    with pytest.raises(ValueError, match="block of clouds"):
        convex_hulls(np.zeros(shape))


def test_wrap_angle_is_numpy_remainder():
    # numpy's float remainder is fmod, plus 2 pi where that is negative, and
    # +0.0 for a zero of either sign
    rng = np.random.default_rng(0)
    turns = np.arange(-4, 5) * (2.0 * np.pi)
    x = np.concatenate([
        rng.uniform(-8.0 * np.pi, 8.0 * np.pi, 20_000), np.linspace(-8.0 * np.pi, 8.0 * np.pi, 4001),
        turns, np.nextafter(turns, np.inf), np.nextafter(turns, -np.inf), [0.0, -0.0, 5e-324, -5e-324],
    ])
    want = np.remainder(x, 2.0 * np.pi)
    assert _wrap_angle(x).tobytes() == want.tobytes()
    assert _wrap_angle(np.array([-0.0])).tobytes() == np.array([0.0]).tobytes()


def pick_bound(coords, pick, u, which):
    """A lower bound on one coordinate of a polygon's vertices ``coords``."""
    lo, hi = coords.min(), coords.max()
    if pick == "below":  # keeps everything
        return lo - 1.0
    if pick == "above":  # keeps nothing
        return hi + 1.0
    if pick == "vertex":  # passes through a vertex
        return coords[which % coords.size]
    return lo + u * (hi - lo)


bound_picks = st.sampled_from(["inside", "below", "above", "vertex"])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(clouds, bound_picks, bound_picks, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.integers(0, 1000))
def test_clip_matches_edge_loop(cloud, pick_x, pick_y, u_x, u_y, which):
    poly = convex_hull(cloud)
    bounds = (pick_bound(poly[:, 0], pick_x, u_x, which),
              pick_bound(poly[:, 1], pick_y, u_y, which + 1))
    assert_bitwise(clip_to_lower_bounds(poly, bounds), clip_to_lower_bounds_oracle(poly, bounds))


@pytest.mark.parametrize("poly", [
    np.array([(0.25, -1.5)]),
    np.array([(0.0, 0.0), (2.0, 1.0)]),
    np.array([(1.0, 1.0), (1.0, 3.0)]),
    np.empty((0, 2)),
])
@pytest.mark.parametrize("bounds", [
    (-10.0, -10.0), (10.0, 10.0), (0.0, 0.0), (1.0, 1.0), (1.0, 2.0), (0.25, -1.5),
])
def test_clip_of_one_and_two_vertex_polygons(poly, bounds):
    assert_bitwise(clip_to_lower_bounds(poly, bounds), clip_to_lower_bounds_oracle(poly, bounds))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(clouds, st.lists(st.tuples(coordinates, coordinates), max_size=10),
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]))
def test_membership_matches_edge_loop(cloud, others, tol):
    poly = convex_hull(cloud)
    mids = (poly + np.roll(poly, -1, axis=0)) / 2.0
    points = np.concatenate([np.asarray(others, float).reshape(-1, 2), poly, mids,
                             mids * (1.0 + 1e-10), mids * (1.0 - 1e-10)])
    for point in points:
        assert (point_in_convex_polygon(point, poly, tol)
                == point_in_convex_polygon_oracle(point, poly, tol))
