import math
import re

import numpy as np
import pytest

from germgrain.geometry import (AlignedRect, ConvexPolygon, DegenerateShapeError,
                                Disk, boundary_covariogram, circumradius,
                                covariogram, intrinsic_volumes,
                                minkowski_sum_area, rotate_shape,
                                shape_from_record, shape_to_record,
                                smallest_enclosing_circle, steiner_area)

UNIT_SQUARE = AlignedRect(0.5, 0.5)
TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


class TestIntrinsicVolumes:
    def test_unit_square(self):
        iv = intrinsic_volumes(UNIT_SQUARE)
        assert (iv.v0, iv.v1, iv.v2) == (1.0, 2.0, 1.0)

    def test_disk(self):
        iv = intrinsic_volumes(Disk(1.0))
        assert iv.v0 == 1.0
        assert iv.v1 == pytest.approx(math.pi, abs=1e-15)
        assert iv.v2 == pytest.approx(math.pi, abs=1e-15)

    def test_triangle_recentered(self):
        iv = intrinsic_volumes(TRIANGLE)
        assert iv.v0 == 1.0
        assert iv.v1 == pytest.approx((2.0 + math.sqrt(2.0)) / 2.0, rel=1e-14)
        assert iv.v2 == pytest.approx(0.5, rel=1e-14)


class TestSteiner:
    def test_r_zero_identity(self):
        assert steiner_area(UNIT_SQUARE, 0.0) == 1.0

    def test_unit_square_r1(self):
        assert steiner_area(UNIT_SQUARE, 1.0) == pytest.approx(5.0 + math.pi, rel=1e-15)

    def test_disk_dilation_is_disk(self):
        assert steiner_area(Disk(1.0), 1.0) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            steiner_area(Disk(1.0), -0.1)


class TestCovariogram:
    def test_zero_shift_gives_area(self):
        for shape in (Disk(1.3), AlignedRect(0.4, 0.9), TRIANGLE):
            assert covariogram(shape, (0.0, 0.0)) == pytest.approx(
                intrinsic_volumes(shape).v2, rel=1e-14)

    def test_tangent_disks_zero(self):
        assert covariogram(Disk(1.0), (2.0, 0.0)) == 0.0

    def test_disk_lens_value(self):
        # Oracle: Monte Carlo point sampling over the lens (4e6 points, dev
        # run): 1.228853 +- 0.001211, bracketing the closed form.
        expected = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
        assert covariogram(Disk(1.0), (1.0, 0.0)) == pytest.approx(expected, rel=1e-14)
        assert abs(expected - 1.228853) < 3.0 * 0.001211

    def test_disk_lens_mc_oracle_small(self):
        rng = np.random.default_rng(20260808)
        n = 200_000
        pts = rng.uniform([-1.0, -1.0], [2.0, 1.0], size=(n, 2))
        inside = ((pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0)
                  & ((pts[:, 0] - 1.0) ** 2 + pts[:, 1] ** 2 <= 1.0))
        est = inside.mean() * 6.0
        se = inside.std() * 6.0 / math.sqrt(n)
        assert covariogram(Disk(1.0), (1.0, 0.0)) == pytest.approx(est, abs=3.5 * se)

    def test_rect_product_form(self):
        assert covariogram(AlignedRect(0.5, 0.5), (0.25, 0.25)) == pytest.approx(0.5625)
        assert covariogram(AlignedRect(0.5, 0.5), (1.1, 0.0)) == 0.0

    def test_polygon_clipping(self):
        # K n (K + t) of the right triangle is a similar triangle.
        assert covariogram(TRIANGLE, (0.2, 0.1)) == pytest.approx(0.7 ** 2 / 2.0, rel=1e-12)


class TestBoundaryCovariogram:
    def test_zero_is_v1(self):
        assert boundary_covariogram(Disk(1.0), (0.0, 0.0)) == pytest.approx(math.pi)
        assert boundary_covariogram(UNIT_SQUARE, (0.0, 0.0)) == pytest.approx(2.0)

    def test_tangent_zero(self):
        assert boundary_covariogram(Disk(1.0), (2.0, 0.0)) == 0.0

    def test_disk_arc_value(self):
        assert boundary_covariogram(Disk(1.0), (1.0, 0.0)) == pytest.approx(
            math.acos(0.5), rel=1e-14)

    def test_disk_arc_against_discretized_boundary(self):
        # Oracle: sample boundary points, test membership in the open
        # interior of the shifted disk.
        m = 100_000
        th = (np.arange(m) + 0.5) * 2.0 * math.pi / m
        inside = (np.cos(th) - 1.0) ** 2 + np.sin(th) ** 2 < 1.0
        est = 0.5 * inside.mean() * 2.0 * math.pi
        assert boundary_covariogram(Disk(1.0), (1.0, 0.0)) == pytest.approx(est, abs=1e-3)

    def test_rect_against_discretized_boundary(self):
        shape = AlignedRect(0.7, 0.4)
        t = (0.3, -0.2)
        m = 50_000
        per = 2.0 * (1.4 + 0.8)
        pts = []
        for (a, b) in (((-0.7, -0.4), (0.7, -0.4)), ((0.7, -0.4), (0.7, 0.4)),
                       ((0.7, 0.4), (-0.7, 0.4)), ((-0.7, 0.4), (-0.7, -0.4))):
            seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
            k = int(m * seg_len / per)
            s = (np.arange(k) + 0.5) / k
            pts.append(np.column_stack([a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])]))
        pts = np.vstack(pts)
        inside = ((np.abs(pts[:, 0] - t[0]) < 0.7) & (np.abs(pts[:, 1] - t[1]) < 0.4))
        est = 0.5 * inside.mean() * per
        assert boundary_covariogram(shape, t) == pytest.approx(est, abs=1e-3)

    def test_polygon_matches_segment_clipping(self):
        val = boundary_covariogram(TRIANGLE, (0.1, 0.05))
        assert 0.0 < val < intrinsic_volumes(TRIANGLE).v1


class TestMinkowskiSumArea:
    def test_disk_disk(self):
        assert minkowski_sum_area(Disk(1.0), Disk(1.0)) == pytest.approx(4.0 * math.pi)

    def test_square_square(self):
        assert minkowski_sum_area(UNIT_SQUARE, UNIT_SQUARE) == pytest.approx(4.0)

    def test_disk_square_steiner(self):
        # Oracle: dense rasterization of {x : dist(x, square) <= 1} on a
        # 4000^2 grid (dev run) gave 8.13611 with one-pixel bias bound
        # h * perimeter ~ 0.012 around pi + 5 = 8.14159.
        val = minkowski_sum_area(Disk(1.0), UNIT_SQUARE)
        assert val == pytest.approx(math.pi + 5.0, rel=1e-14)
        assert abs(val - 8.136113) < 0.012

    def test_triangle_difference_body(self):
        # Rogers-Shephard equality case: area(T + (-T)) = 6 * area(T).
        assert minkowski_sum_area(TRIANGLE, TRIANGLE) == pytest.approx(3.0, rel=1e-12)

    def test_polygon_vs_steiner_path(self):
        poly = ConvexPolygon(((0.9, 0.0), (0.1, 0.8), (-0.7, 0.3), (-0.5, -0.6), (0.3, -0.7)))
        assert minkowski_sum_area(Disk(0.5), poly) == pytest.approx(
            steiner_area(poly, 0.5), rel=1e-13)


class TestCircumradius:
    def test_disk(self):
        assert circumradius(Disk(0.7)) == 0.7

    def test_rect_corner(self):
        assert circumradius(AlignedRect(0.5, 0.5)) == pytest.approx(math.sqrt(2.0) / 2.0)

    def test_triangle_max_vertex_norm(self):
        verts = TRIANGLE.vertex_array()
        assert circumradius(TRIANGLE) == pytest.approx(
            float(np.max(np.hypot(verts[:, 0], verts[:, 1]))))
        assert circumradius(TRIANGLE) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)

    def test_welzl_contains_all_points(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pts = rng.normal(size=(rng.integers(1, 12), 2))
            center, radius = smallest_enclosing_circle(pts)
            d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
            assert np.all(d <= radius + 1e-9)
            # Minimality: at least one point on the boundary (or radius 0).
            assert radius == 0.0 or np.max(d) >= radius - 1e-9


class TestValidation:
    def test_zero_radius(self):
        with pytest.raises(DegenerateShapeError):
            Disk(0.0)

    def test_negative_rect(self):
        with pytest.raises(DegenerateShapeError):
            AlignedRect(-0.5, 0.5)

    def test_collinear_polygon(self):
        with pytest.raises(DegenerateShapeError):
            ConvexPolygon(((0, 0), (1, 0), (2, 0)))

    def test_reflex_polygon(self):
        with pytest.raises(DegenerateShapeError):
            ConvexPolygon(((0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)))

    def test_two_vertices(self):
        with pytest.raises(DegenerateShapeError):
            ConvexPolygon(((0, 0), (1, 1)))

    def test_cw_input_normalized(self):
        p = ConvexPolygon(((0, 0), (0, 1), (1, 0)))  # clockwise input
        assert intrinsic_volumes(p).v2 == pytest.approx(0.5)


class TestRotationAndSerialization:
    def test_rotate_square_becomes_polygon(self):
        r = rotate_shape(UNIT_SQUARE, 0.3)
        assert isinstance(r, ConvexPolygon)
        iv0, iv1 = intrinsic_volumes(UNIT_SQUARE), intrinsic_volumes(r)
        assert iv1.v1 == pytest.approx(iv0.v1, rel=1e-12)
        assert iv1.v2 == pytest.approx(iv0.v2, rel=1e-12)

    def test_rotate_disk_noop(self):
        assert rotate_shape(Disk(2.0), 1.0) == Disk(2.0)

    def test_record_roundtrip(self):
        for shape in (Disk(1.5), AlignedRect(0.3, 0.8), TRIANGLE):
            rec = shape_to_record(shape)
            assert rec["kind"] in ("disk", "rect", "polygon")
            back = shape_from_record(rec)
            assert back == shape
            assert shape_to_record(back) == rec
            assert intrinsic_volumes(back).as_array() == pytest.approx(
                intrinsic_volumes(shape).as_array())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            shape_from_record({"kind": "blob"})

    @pytest.mark.parametrize("rec, message", [
        ({"kind": "disk"}, "shape.radius: missing"),
        ({"kind": "disk", "radius": "1"}, "shape.radius: expected a finite number"),
        ({"kind": "rect", "halfwidth": 1.0, "halfheight": -1.0}, "shape: rect half-sides"),
        ({"kind": "polygon", "vertices": [[0, 0], [1, 0], [1]]}, "shape.vertices[2]: expected"),
        ({"kind": "polygon", "vertices": [[0, 0], [1, 0], [2, 0]]}, "shape: polygon must be"),
        ([1.0], "shape: expected a JSON object")])
    def test_malformed_record_names_its_field(self, rec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            shape_from_record(rec)
