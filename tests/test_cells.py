import math

import numpy as np
import pytest

from germgrain.cells import TooManyGrainsError, intersect_convex
from germgrain.geometry import AlignedRect, ConvexPolygon, Disk, PlacedGrain, Window

W = Window((-4.0, -4.0), (4.0, 4.0))
LENS_AREA = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)


def disk(x, y, r=1.0):
    return PlacedGrain((x, y), Disk(r))


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window((0, 0), (0, 1))
        with pytest.raises(ValueError):
            Window((2, 0), (1, 1))

    def test_measures(self):
        assert W.area() == 64.0
        assert W.perimeter() == 32.0
        assert W.dilated_area(1.0) == pytest.approx(64.0 + 32.0 + math.pi)

    def test_scaled_keeps_center(self):
        w2 = Window((0, 0), (2, 4)).scaled(3.0)
        assert w2.lo == (-2.0, -4.0) and w2.hi == (4.0, 8.0)


class TestIntersectConvex:
    def test_single_square(self):
        fv, _ = intersect_convex([PlacedGrain((0, 0), AlignedRect(0.5, 0.5))], W)
        assert fv == (1.0, 2.0, 1.0)

    def test_disjoint_disks_empty(self):
        fv, cell = intersect_convex([disk(0, 0), disk(2.5, 0)], W)
        assert fv == (0.0, 0.0, 0.0) and cell is None

    def test_lens(self):
        fv, _ = intersect_convex([disk(0, 0), disk(1, 0)], W)
        assert fv[0] == 1.0
        assert fv[1] == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)
        assert fv[2] == pytest.approx(LENS_AREA, rel=1e-12)

    def test_lens_raster_richardson(self):
        # Raster oracle at 4 resolutions with Richardson extrapolation: the
        # pixel-count area error is O(h), so two successive grids
        # extrapolate as 2*A(2h') - A(h').
        areas = []
        for res in (64, 128, 256, 512):
            n = int(3.0 * res)
            xs = -1.0 + (np.arange(n) + 0.5) / res
            ys = -1.5 + (np.arange(n) + 0.5) / res
            X, Y = np.meshgrid(xs, ys)
            inside = (X ** 2 + Y ** 2 <= 1.0) & ((X - 1.0) ** 2 + Y ** 2 <= 1.0)
            areas.append(inside.mean() * 9.0)
        rich = 2.0 * areas[-1] - areas[-2]
        assert rich == pytest.approx(LENS_AREA, abs=2e-4)
        errs = [abs(a - LENS_AREA) for a in areas]
        assert errs[-1] < errs[0]

    def test_three_disks(self):
        fv, _ = intersect_convex([disk(0, 0), disk(1, 0), disk(0.5, 0.8)], W)
        assert fv[0] == 1.0 and 0.0 < fv[2] < LENS_AREA

    def test_window_clips(self):
        fv, _ = intersect_convex([disk(4.0, 0.0)], W)
        assert fv[2] == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert fv[1] == pytest.approx((math.pi + 2.0) / 2.0, rel=1e-12)

    def test_tangent_disks_are_empty(self):
        # Measure-zero intersection policy: grazing contact counts as empty.
        fv, cell = intersect_convex([disk(0, 0), disk(2.0, 0)], W)
        assert fv == (0.0, 0.0, 0.0) and cell is None

    @pytest.mark.parametrize("grains, cell, union", [
        # disk tangent to the window edge, from inside and from outside
        ([disk(3.0, 0.0)], (1.0, math.pi, math.pi), (1.0, math.pi, math.pi)),
        ([disk(5.0, 0.0)], (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        # internally tangent circles
        ([disk(0.0, 0.0), disk(0.5, 0.0, 1.5)], (1.0, math.pi, math.pi),
         (1.0, 1.5 * math.pi, 2.25 * math.pi)),
        # circle tangent to a square's edge line
        ([disk(1.5, 0.0, 0.5), PlacedGrain((0.5, 0.0), AlignedRect(0.5, 0.5))], (0.0, 0.0, 0.0),
         (2.0, 0.5 * math.pi + 2.0, 0.25 * math.pi + 1.0)),
    ])
    def test_tangent_contacts(self, grains, cell, union):
        from germgrain.union import inclusion_exclusion_measure
        fv, _ = intersect_convex(grains, W)
        assert fv == pytest.approx(cell, abs=1e-12)
        assert inclusion_exclusion_measure(grains, W).as_array() == pytest.approx(union, abs=1e-12)

    def test_cap_enforced(self):
        grains = [disk(0.01 * k, 0.0) for k in range(21)]
        with pytest.raises(TooManyGrainsError):
            intersect_convex(grains, W)
        fv, _ = intersect_convex(grains[:20], W)
        assert fv[0] == 1.0

    def test_polygon_rect_disk_mix(self):
        tri = ConvexPolygon(((0, 0), (1.4, 0), (0, 1.4)))
        fv, _ = intersect_convex(
            [PlacedGrain((0, 0), tri), PlacedGrain((0.2, 0.1), AlignedRect(0.6, 0.6)),
             disk(0, 0, 0.9)], W)
        assert fv[0] == 1.0
        # contained in each body
        assert fv[2] <= min(1.4 * 1.4 / 2.0, 1.44, math.pi * 0.81) + 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(TooManyGrainsError):
            intersect_convex([], W)

    def test_mc_area_cross_check(self):
        rng = np.random.default_rng(33)
        grains = [disk(0, 0, 1.2), PlacedGrain((0.4, -0.2), AlignedRect(0.9, 0.7)),
                  disk(-0.3, 0.3, 1.0)]
        fv, _ = intersect_convex(grains, W)
        pts = rng.uniform(-1.5, 1.5, size=(400_000, 2))
        inside = np.ones(len(pts), dtype=bool)
        inside &= np.hypot(pts[:, 0], pts[:, 1]) <= 1.2
        inside &= (np.abs(pts[:, 0] - 0.4) <= 0.9) & (np.abs(pts[:, 1] + 0.2) <= 0.7)
        inside &= np.hypot(pts[:, 0] + 0.3, pts[:, 1] - 0.3) <= 1.0
        est = inside.mean() * 9.0
        se = inside.std() * 9.0 / math.sqrt(len(pts))
        assert fv[2] == pytest.approx(est, abs=4.0 * se)
