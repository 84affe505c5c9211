import math

import numpy as np
import pytest

from germgrain.cells import PlacedGrain, TooManyGrainsError, Window
from germgrain.geometry import AlignedRect, ConvexPolygon, Disk
from germgrain.union import (arrangement_measure, edge_corrected_measure,
                             inclusion_exclusion_measure, pixel_measure,
                             rasterize, segment_coverage, write_pgm)

W = Window((-4.0, -4.0), (4.0, 4.0))
LENS_AREA = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)


def disk(x, y, r=1.0):
    return PlacedGrain((x, y), Disk(r))


def random_grains(rng, n, box=3.6, shapes="mixed"):
    out = []
    for _ in range(n):
        c = (rng.uniform(-box, box), rng.uniform(-box, box))
        if shapes == "disks":
            out.append(PlacedGrain(c, Disk(rng.uniform(0.3, 1.3))))
            continue
        k = rng.integers(0, 3)
        if k == 0:
            out.append(PlacedGrain(c, Disk(rng.uniform(0.3, 1.2))))
        elif k == 1:
            out.append(PlacedGrain(c, AlignedRect(rng.uniform(0.2, 1.0),
                                                  rng.uniform(0.2, 1.0))))
        else:
            m = int(rng.integers(3, 8))
            angs = np.sort(rng.uniform(0, 2 * math.pi, m))
            if np.min(np.diff(angs)) < 0.15:
                out.append(PlacedGrain(c, Disk(rng.uniform(0.3, 1.2))))
            else:
                r = rng.uniform(0.4, 1.1)
                out.append(PlacedGrain(c, ConvexPolygon(
                    tuple((r * math.cos(a), 0.8 * r * math.sin(a)) for a in angs))))
    return out


class TestInclusionExclusion:
    def test_empty(self):
        assert np.all(inclusion_exclusion_measure([], W).as_array() == 0.0)

    def test_single_disk(self):
        fv = inclusion_exclusion_measure([disk(0, 0)], W)
        assert fv.as_array() == pytest.approx([1.0, math.pi, math.pi])

    def test_two_disks_hand_ie(self):
        fv = inclusion_exclusion_measure([disk(0, 0), disk(1, 0)], W)
        assert fv.v0 == pytest.approx(1.0)
        assert fv.v1 == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
        assert fv.v2 == pytest.approx(2.0 * math.pi - LENS_AREA, rel=1e-12)

    def test_cap_directs_to_arrangement(self):
        grains = [disk(0.05 * k, 0.0) for k in range(19)]
        with pytest.raises(TooManyGrainsError, match="arrangement"):
            inclusion_exclusion_measure(grains, W)

    def test_cap_counts_only_hitting_grains(self):
        grains = [disk(0.05 * k, 0.0) for k in range(10)]
        grains += [disk(100.0 + k, 0.0) for k in range(15)]  # miss the window
        fv = inclusion_exclusion_measure(grains, W)
        assert fv.v0 == 1.0


class TestArrangement:
    def test_single_grain_matches_intrinsic(self):
        for g in (disk(0, 0), PlacedGrain((0.3, -0.2), AlignedRect(0.5, 0.8))):
            ar = arrangement_measure([g], W).as_array()
            ie = inclusion_exclusion_measure([g], W).as_array()
            assert ar == pytest.approx(ie, abs=1e-12)

    def test_ring_of_six_disks_has_hole(self):
        ring = [disk(1.8 * math.cos(k * math.pi / 3), 1.8 * math.sin(k * math.pi / 3))
                for k in range(6)]
        ar = arrangement_measure(ring, W)
        ie = inclusion_exclusion_measure(ring, W)
        assert ar.v0 == 0.0  # one component minus one hole
        assert ar.as_array() == pytest.approx(ie.as_array(), abs=1e-9)

    def test_oracle_equivalence_mixed_shapes(self):
        rng = np.random.default_rng(2101)
        for _ in range(120):
            grains = random_grains(rng, int(rng.integers(1, 9)))
            ie = inclusion_exclusion_measure(grains, W).as_array()
            ar = arrangement_measure(grains, W).as_array()
            assert np.max(np.abs(ie - ar)) <= 1e-9

    def test_disks_match_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            grains = random_grains(rng, int(rng.integers(1, 19)), shapes="disks")
            ar = arrangement_measure(grains, W).as_array()
            ie = inclusion_exclusion_measure(grains, W).as_array()
            assert np.max(np.abs(ar - ie)) <= 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        grains = random_grains(rng, 7)
        base = arrangement_measure(grains, W).as_array()
        for shift in ((13.4, -2.7), (-100.0, 55.5)):
            moved = [PlacedGrain((g.center[0] + shift[0], g.center[1] + shift[1]), g.shape)
                     for g in grains]
            wm = Window((W.lo[0] + shift[0], W.lo[1] + shift[1]),
                        (W.hi[0] + shift[0], W.hi[1] + shift[1]))
            assert arrangement_measure(moved, wm).as_array() == pytest.approx(base, abs=1e-9)

    def test_area_monotone_in_grains(self):
        rng = np.random.default_rng(10)
        grains = random_grains(rng, 9)
        prev = 0.0
        for k in range(1, 10):
            v2 = arrangement_measure(grains[:k], W).v2
            assert v2 >= prev - 1e-12
            prev = v2

    def test_clipping_consistency_far_grains_inert(self):
        rng = np.random.default_rng(11)
        grains = random_grains(rng, 6)
        far = [disk(50.0, 50.0), PlacedGrain((-60.0, 0.0), AlignedRect(0.5, 0.5))]
        a = arrangement_measure(grains, W).as_array()
        b = arrangement_measure(grains + far, W).as_array()
        assert a == pytest.approx(b, abs=1e-12)

    def test_full_coverage_reports_window(self):
        fv = arrangement_measure([disk(0, 0, 10.0)], W)
        assert fv.as_array() == pytest.approx([1.0, 16.0, 64.0])

    def test_mask_restricts_observation(self):
        # Z n (disk mask): one grain fully inside the mask.
        mask = PlacedGrain((0.0, 0.0), Disk(2.0))
        fv = arrangement_measure([disk(0, 0, 0.5)], W, mask=mask)
        assert fv.as_array() == pytest.approx([1.0, 0.5 * math.pi, 0.25 * math.pi], abs=1e-9)
        # grain sticking out of the mask: Z n mask is the two-disk lens
        from germgrain.cells import intersect_convex
        fv2 = arrangement_measure([disk(2.0, 0.0, 1.0)], W, mask=mask)
        lens, _ = intersect_convex([disk(2.0, 0.0, 1.0), PlacedGrain((0, 0), Disk(2.0))], W)
        assert fv2.as_array() == pytest.approx(np.array(lens), abs=1e-9)

    def test_masked_mixed_grains_match_subset_sums(self):
        # Disks and rotated rectangles under a disk or rotated-rectangle mask,
        # so grain polygons cover the mask's circle and grain circles cross
        # the mask's edges.  Z n mask is the signed sum over grain subsets S
        # of the convex cells S n mask.
        from itertools import combinations

        from germgrain.cells import intersect_convex
        from germgrain.geometry import rotate_shape
        rng = np.random.default_rng(31)
        worst = 0.0
        for k in range(200):
            centre = tuple(rng.uniform(-0.5, 0.5, 2))
            mask = PlacedGrain(centre, Disk(2.5) if k % 2 == 0 else
                               rotate_shape(AlignedRect(1.1, 0.8), rng.uniform(0.0, math.pi)))
            grains = []
            for _ in range(int(rng.integers(1, 6))):
                c = tuple(rng.uniform(-3.5, 3.5, 2))
                if rng.random() < 0.5:
                    grains.append(PlacedGrain(c, Disk(rng.uniform(0.3, 1.3))))
                else:
                    rect = AlignedRect(rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0))
                    grains.append(PlacedGrain(c, rotate_shape(rect, rng.uniform(0.0, math.pi))))
            want = sum((-1.0) ** (n + 1) * np.array(intersect_convex([*sub, mask], W)[0])
                       for n in range(1, len(grains) + 1) for sub in combinations(grains, n))
            got = arrangement_measure(grains, W, mask=mask).as_array()
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-9

    @pytest.mark.parametrize("grains, want", [
        ([PlacedGrain((0, 0), AlignedRect(0.5, 0.5)), PlacedGrain((1, 0), AlignedRect(0.5, 0.5))],
         (2.0, 4.0, 2.0)),
        ([PlacedGrain((0, 0), AlignedRect(0.5, 0.5)), PlacedGrain((0.5, 0), AlignedRect(0.5, 0.5))],
         (1.0, 2.5, 1.5)),
        ([PlacedGrain((3.5, 0), AlignedRect(0.5, 0.5))], (1.0, 2.0, 1.0)),
        ([PlacedGrain((3.5, 3.5), AlignedRect(0.5, 0.5))], (1.0, 2.0, 1.0)),
        ([disk(3, 0), PlacedGrain((-2, -2), AlignedRect(0.5, 0.5))],
         (2.0, math.pi + 2.0, math.pi + 1.0)),
        ([disk(5, 0), PlacedGrain((-2, -2), AlignedRect(0.5, 0.5))], (1.0, 2.0, 1.0)),
    ])
    def test_coincident_boundaries_pulled_apart(self, grains, want):
        # Flush contacts stay apart, a shared line is kept once and a grain
        # edge on the window edge replaces the window piece beneath it.
        ar = arrangement_measure(grains, W).as_array()
        assert ar == pytest.approx(want, abs=1e-12)
        assert ar == pytest.approx(inclusion_exclusion_measure(grains, W).as_array(), abs=1e-12)

    def test_exact_duplicates_dedupe(self):
        fv = arrangement_measure([disk(0, 0), disk(0, 0)], W)
        assert fv.as_array() == pytest.approx([1.0, math.pi, math.pi], abs=1e-12)


class TestEdgeCorrectedMeasure:
    def test_interior_grain_unchanged(self):
        fv = edge_corrected_measure([disk(0, 0)], W)
        assert fv.as_array() == pytest.approx([1.0, math.pi, math.pi], abs=1e-12)

    def test_grain_crossing_right_edge(self):
        fv_full = arrangement_measure([disk(4.0, 0.0)], W)
        fv = edge_corrected_measure([disk(4.0, 0.0)], W)
        # right edge carries one occupied interval of length 2
        assert fv.v0 == pytest.approx(fv_full.v0 - 1.0)
        assert fv.v1 == pytest.approx(fv_full.v1 - 2.0, rel=1e-12)
        assert fv.v2 == pytest.approx(fv_full.v2, rel=1e-12)

    def test_corner_added_back(self):
        fv = edge_corrected_measure([disk(4.0, 4.0)], W)
        full = arrangement_measure([disk(4.0, 4.0)], W)
        # covers both edges once each; corner occupied adds one back
        assert fv.v0 == pytest.approx(full.v0 - 1.0 - 1.0 + 1.0)

    def test_segment_coverage_counts(self):
        n, ln = segment_coverage([disk(0, 0), disk(3, 0), PlacedGrain((1.5, 0), AlignedRect(0.2, 0.2))],
                                 (-4.0, 0.0), (4.0, 0.0))
        assert n == 3
        assert ln == pytest.approx(2.0 + 2.0 + 0.4, rel=1e-12)


class TestPixelEngine:
    def test_full_window(self):
        fv = pixel_measure([disk(0, 0, 10.0)], W, resolution=16.0)
        assert fv.v2 == pytest.approx(64.0, abs=64.0 / 16.0)
        assert fv.v0 == 1.0

    def test_empty(self):
        fv = pixel_measure([], W, resolution=8.0)
        assert fv.as_array() == pytest.approx([0.0, 0.0, 0.0])

    def test_disk_convergence_and_area_error_slope(self):
        # v2 error must shrink ~ 1/res; v1 converges to pi with the pi/4
        # Crofton weight; v0 exact once features are resolved.
        errs = []
        for res in (16.0, 32.0, 64.0, 128.0):
            fv = pixel_measure([disk(0, 0)], W, resolution=res)
            assert fv.v0 == 1.0
            errs.append((res, abs(fv.v2 - math.pi), abs(fv.v1 - math.pi)))
        assert errs[-1][1] < errs[0][1]
        # log-log slope of the v2 error vs resolution is about -1 or better
        slope = np.polyfit([math.log(r) for r, _, _ in errs],
                           [math.log(max(e, 1e-12)) for _, e, _ in errs], 1)[0]
        assert slope < -0.7
        assert errs[-1][2] < 0.05  # v1 near pi at high res

    def test_euler_of_ring(self):
        ring = [disk(1.8 * math.cos(k * math.pi / 3), 1.8 * math.sin(k * math.pi / 3))
                for k in range(6)]
        fv = pixel_measure(ring, W, resolution=32.0)
        assert fv.v0 == 0.0

    def test_pgm_export(self, tmp_path):
        img = rasterize([disk(0, 0)], W, resolution=4.0)
        path = tmp_path / "out.pgm"
        write_pgm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n32 32\n255\n")
        assert len(data) == len(b"P5\n32 32\n255\n") + 32 * 32
        body = np.frombuffer(data[len(b"P5\n32 32\n255\n"):], dtype=np.uint8)
        assert set(np.unique(body)) <= {0, 255}
        assert body.sum() / 255 == img.sum()

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            pixel_measure([], W, resolution=0.0)
