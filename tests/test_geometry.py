import numpy as np

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
