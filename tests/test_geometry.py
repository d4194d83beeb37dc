import numpy as np
import pytest

from powergame.geometry import (
    clip_to_lower_bounds,
    convex_hull,
    minkowski_sum,
    point_in_convex_polygon,
    weighted_minkowski_sum,
)


def as_vertex_set(poly):
    return {tuple(np.round(v, 9)) for v in np.asarray(poly).reshape(-1, 2)}


class TestConvexHull:
    def test_square_with_interior_points(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.2, 0.7)]
        hull = convex_hull(pts)
        assert as_vertex_set(hull) == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_collinear_points_dropped(self):
        pts = [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (1, 2)]
        hull = convex_hull(pts)
        assert as_vertex_set(hull) == {(0, 0), (2, 0), (2, 2), (0, 2)}

    def test_ccw_orientation(self):
        hull = convex_hull([(0, 0), (3, 0), (3, 1), (0, 1), (1, 0.5)])
        area2 = 0.0
        m = hull.shape[0]
        for j in range(m):
            x1, y1 = hull[j]
            x2, y2 = hull[(j + 1) % m]
            area2 += x1 * y2 - x2 * y1
        assert area2 > 0

    def test_degenerate_inputs(self):
        assert convex_hull([(1, 1)]).shape == (1, 2)
        seg = convex_hull([(0, 0), (1, 1), (0.5, 0.5)])
        assert as_vertex_set(seg) == {(0, 0), (1, 1)}

    def test_short_collinear_cloud_keeps_both_end_points(self):
        hull = convex_hull([(0, 0), (1e-9, 0), (2e-9, 0)])
        assert hull.tolist() == [[0.0, 0.0], [2e-9, 0.0]]

    def test_midpoint_does_not_collapse_a_segment(self):
        ends = [(1, 1), (1.000001, 1)]
        assert convex_hull(ends).tolist() == [[1.0, 1.0], [1.000001, 1.0]]
        hull = convex_hull(ends + [(1.0000005, 1)])
        assert hull.tolist() == [[1.0, 1.0], [1.000001, 1.0]]

    def test_every_vertex_extreme(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(200, 2))
        hull = convex_hull(pts)
        for j in range(hull.shape[0]):
            others = np.delete(hull, j, axis=0)
            assert not point_in_convex_polygon(hull[j], others, tol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**1023])
    def test_non_finite_points_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            convex_hull([(0, 0), (1, 0), (0, 1), (bad, 0.5)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-1000, -560, 660, 1000])
    def test_extreme_scales_are_scaled_copies(self, k):
        # a cross product of a 2**-560 cloud underflows, of a 2**660 one
        # overflows; the test runs on the cloud scaled by a power of two
        rng = np.random.default_rng(k + 2000)
        t = 2.0 * np.pi * np.arange(20) / 20
        ring = np.c_[np.cos(t), np.sin(t)]
        cloud = np.vstack([ring, rng.uniform(-0.6, 0.6, (30, 2)), ring[:5] * 0.999])
        want = convex_hull(cloud) * 2.0**k
        assert want.shape == (20, 2)
        assert convex_hull(cloud * 2.0**k).tobytes() == want.tobytes()


class TestMinkowski:
    def test_unit_squares_add(self):
        sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        out = minkowski_sum(sq, sq)
        assert as_vertex_set(out) == {(0, 0), (2, 0), (2, 2), (0, 2)}

    def test_triangle_plus_point_translates(self):
        tri = np.array([(0, 0), (2, 0), (0, 2)], dtype=float)
        out = minkowski_sum(tri, np.array([(3, 4)], dtype=float))
        assert as_vertex_set(out) == {(3, 4), (5, 4), (3, 6)}

    def test_weighted_sum_of_equal_triangles_is_identity(self):
        tri = np.array([(0, 0), (2, 0), (0, 2)], dtype=float)
        out = weighted_minkowski_sum([tri, tri], [0.5, 0.5])
        assert as_vertex_set(out) == as_vertex_set(tri)

    def test_weighted_sum_matches_brute_force(self):
        rng = np.random.default_rng(4)
        clouds = [rng.normal(size=(8, 2)) for _ in range(3)]
        weights = np.array([0.2, 0.3, 0.5])
        lib = weighted_minkowski_sum([convex_hull(c) for c in clouds], weights)
        # oracle: enumerate one point per cloud, hull of weighted sums
        brute = []
        for p0 in clouds[0]:
            for p1 in clouds[1]:
                for p2 in clouds[2]:
                    brute.append(0.2 * p0 + 0.3 * p1 + 0.5 * p2)
        oracle = convex_hull(brute)
        assert as_vertex_set(lib) == as_vertex_set(oracle)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_refused(self, bad):
        sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        with pytest.raises(ValueError, match="weight 1 is"):
            weighted_minkowski_sum([sq, sq], [0.5, bad])


class TestClip:
    def test_square_clipped_to_quarter(self):
        sq = np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float)
        out = clip_to_lower_bounds(sq, (1.0, 1.0))
        assert as_vertex_set(out) == {(1, 1), (2, 1), (2, 2), (1, 2)}

    def test_clip_to_empty(self):
        sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        assert clip_to_lower_bounds(sq, (5.0, 5.0)).shape[0] == 0

    def test_no_op_clip(self):
        sq = np.array([(1, 1), (2, 1), (2, 2), (1, 2)], dtype=float)
        out = clip_to_lower_bounds(sq, (0.0, 0.0))
        assert as_vertex_set(out) == as_vertex_set(sq)

    @pytest.mark.parametrize("bounds", [(np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan)])
    def test_nan_bound_refused(self, bounds):
        sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        with pytest.raises(ValueError, match="is NaN"):
            clip_to_lower_bounds(sq, bounds)

    def test_infinite_bounds(self):
        # -inf is no bound, +inf on either coordinate leaves nothing
        sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        assert clip_to_lower_bounds(sq, (-np.inf, -np.inf)).tobytes() == sq.tobytes()
        assert as_vertex_set(clip_to_lower_bounds(sq, (-np.inf, 0.5))) == {
            (0, 0.5), (1, 0.5), (1, 1), (0, 1)}
        for bounds in ((np.inf, 0.0), (0.0, np.inf), (np.inf, -np.inf)):
            assert clip_to_lower_bounds(sq, bounds).shape == (0, 2)


class TestMembership:
    def test_inside_outside_boundary(self):
        sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        assert point_in_convex_polygon((0.5, 0.5), sq)
        assert point_in_convex_polygon((1.0, 0.5), sq)
        assert not point_in_convex_polygon((1.1, 0.5), sq)

    def test_tolerance_slack(self):
        sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        assert point_in_convex_polygon((1.0 + 1e-12, 0.5), sq, tol=1e-9)
        assert not point_in_convex_polygon((1.0 + 1e-6, 0.5), sq, tol=1e-9)

    def test_segment_too_short_for_its_squared_length(self):
        # the squared length underflows to 0 (and would divide 0 by 0), or is
        # so small that the projection would overflow
        tiny = [(0.0, 0.0), (1e-170, 0.0)]
        assert point_in_convex_polygon((0.0, 0.0), tiny)
        assert point_in_convex_polygon((1e-10, 0.0), tiny)
        assert not point_in_convex_polygon((1.0, 0.0), tiny)
        assert not point_in_convex_polygon((1e150, 0.0), [(0.0, 0.0), (1e-160, 0.0)])

    def test_segment_membership(self):
        seg = np.array([(0, 0), (1, 1)], dtype=float)
        assert point_in_convex_polygon((0.5, 0.5), seg)
        assert not point_in_convex_polygon((0.5, 0.6), seg)

    @pytest.mark.parametrize("poly", [
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(0.0, 0.5), (1.0, 0.5)],
        [(0.5, 0.5)],
        np.empty((0, 2)),
    ])
    @pytest.mark.parametrize("point", [
        (np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5), (0.5, -np.inf),
    ])
    def test_non_finite_point_refused(self, poly, point):
        with pytest.raises(ValueError, match="not finite"):
            point_in_convex_polygon(point, poly)

    @pytest.mark.parametrize("poly", [
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(0.0, 0.5), (1.0, 0.5)],
        [(0.5, 0.5)],
        np.empty((0, 2)),
    ])
    @pytest.mark.parametrize("tol", [np.nan, -1e-9, -np.inf])
    def test_nan_or_negative_tolerance_refused(self, poly, tol):
        with pytest.raises(ValueError, match="tolerance"):
            point_in_convex_polygon((5.0, 5.0), poly, tol=tol)
