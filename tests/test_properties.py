"""Property suites over randomized shapes and configurations.

These are the standalone invariants: Steiner consistency, covariogram
symmetry/support/monotonicity, Minkowski swap symmetry, additivity,
translation invariance, standardization exactness and seed-split
determinism.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from germgrain.cells import intersect_convex
from germgrain.cltstats import normality_report, run_batch
from germgrain.geometry import (AlignedRect, ConvexPolygon, Disk, PlacedGrain, Window,
                                boundary_covariogram, circumradius, covariogram, intrinsic_volumes,
                                minkowski_sum_area, rotate_shape, steiner_area)
from germgrain.model import ModelConfig, fixed_disk
from germgrain.process import sample
from germgrain.union import arrangement_measure, segment_coverage

finite = dict(allow_nan=False, allow_infinity=False)

_PHI = 0.6180339887498949


def _generic(draw, lo, hi):
    """A float in (lo, hi) from a generic (irrational-step) family.

    Exact rational coincidences (tangencies, flush contacts) are measure-zero
    events excluded by the perturbation policy; mapping integers through the
    golden ratio keeps hypothesis away from that degenerate set while still
    exploring the range.
    """
    n = draw(st.integers(0, 999_983))
    return lo + (hi - lo) * ((n * _PHI + 0.5 * _PHI) % 1.0)


@st.composite
def shapes(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Disk(_generic(draw, 0.1, 2.0))
    if kind == 1:
        return AlignedRect(_generic(draw, 0.1, 1.5), _generic(draw, 0.1, 1.5))
    return draw(polygons())


@st.composite
def polygons(draw):
    n = draw(st.integers(4, 8))
    base = _generic(draw, 0.0, 2.0 * math.pi)
    gaps = [_generic(draw, 0.2, 1.0) for _ in range(n)]
    angles = np.cumsum(gaps) / sum(gaps) * 2.0 * math.pi + base
    r = _generic(draw, 0.3, 1.5)
    ecc = _generic(draw, 0.5, 1.0)
    return ConvexPolygon(tuple((r * math.cos(a), ecc * r * math.sin(a))
                               for a in angles[:-1]))


@st.composite
def vectors(draw, scale=2.5):
    return (_generic(draw, -scale, scale), _generic(draw, -scale, scale))


class TestCovariogramProperties:
    @settings(max_examples=80, deadline=None)
    @given(shapes(), vectors())
    def test_symmetry(self, shape, t):
        a = covariogram(shape, t)
        b = covariogram(shape, (-t[0], -t[1]))
        assert a == pytest.approx(b, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(shapes(), vectors(scale=1.0), st.floats(0.0, 3.0, **finite))
    def test_support(self, shape, direction, extra):
        R = circumradius(shape)
        norm = math.hypot(*direction)
        if norm == 0.0:
            return
        d = 2.0 * R + extra + 1e-9
        t = (direction[0] / norm * d, direction[1] / norm * d)
        assert covariogram(shape, t) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(shapes(), vectors())
    def test_bounded_by_area(self, shape, t):
        g = covariogram(shape, t)
        v2 = intrinsic_volumes(shape).v2
        assert -1e-12 <= g <= v2 + 1e-9
        if math.hypot(*t) > 1e-6:
            assert g < v2  # strict drop away from the origin


def _clip_oracles(shape, t, skip_parallel=False):
    """g2 and g1 of a polygon from independent engines: the area of the
    cells oracle's K n (K + t), and half the coverage of K's edges by K + t.

    With skip_parallel, t runs along edge lines; an edge parallel to t then
    lies on a line of K + t, outside its open interior, and adds nothing.
    """
    R = circumradius(shape)
    window = Window((-4.0 * R, -4.0 * R), (4.0 * R, 4.0 * R))
    (_, _, area), _ = intersect_convex([PlacedGrain((0.0, 0.0), shape),
                                        PlacedGrain(t, shape)], window)
    verts = shape.vertex_array()
    half_length = 0.0
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        e = b - a
        if skip_parallel and abs(e[0] * t[1] - e[1] * t[0]) <= 1e-9 * math.hypot(*e):
            continue
        half_length += 0.5 * segment_coverage([PlacedGrain(t, shape)], a, b)[1]
    return area, half_length


class TestPolygonEdgeClip:
    """The array edge clip behind polygon covariograms, against the cells
    oracle (g2) and the union engine's segment coverage (g1)."""

    def _check(self, shape, t, skip_parallel=False):
        area, half_length = _clip_oracles(shape, t, skip_parallel)
        assert covariogram(shape, t) == pytest.approx(area, abs=1e-12)
        if math.hypot(*t) > 0.0:  # t = 0 takes the v1 convention
            assert boundary_covariogram(shape, t) == pytest.approx(half_length, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(polygons(), vectors())
    def test_random_shifts(self, shape, t):
        self._check(shape, t)

    @settings(max_examples=30, deadline=None)
    @given(polygons(), st.floats(0.0, 2.0 * math.pi, **finite))
    def test_zero_and_near_support_shifts(self, shape, angle):
        self._check(shape, (0.0, 0.0))
        d = 2.0 * circumradius(shape) * (1.0 - 1e-9)
        self._check(shape, (d * math.cos(angle), d * math.sin(angle)))

    @settings(max_examples=20, deadline=None)
    @given(polygons(), st.floats(0.0, 2.0 * math.pi, **finite), st.floats(0.05, 1.0, **finite))
    def test_shifts_along_edges(self, shape, angle, frac):
        shape = rotate_shape(shape, angle)
        verts = shape.vertex_array()
        for e in np.roll(verts, -1, axis=0) - verts:
            for sign in (1.0, -1.0):
                self._check(shape, tuple(sign * frac * e), skip_parallel=True)

    def test_rotated_square_along_its_edges(self):
        square = AlignedRect(0.5, 0.5)
        for k in range(24):
            angle = 0.1 + 0.26 * k
            rotated = rotate_shape(square, angle)
            for d in (0.1, 0.5, 0.99):
                for q in range(4):
                    phi = angle + q * math.pi / 2.0
                    t = (d * math.cos(phi), d * math.sin(phi))
                    u = [(d, 0.0), (0.0, d), (-d, 0.0), (0.0, -d)][q]
                    assert covariogram(rotated, t) == pytest.approx(
                        covariogram(square, u), abs=1e-15)
                    assert boundary_covariogram(rotated, t) == pytest.approx(
                        boundary_covariogram(square, u), abs=1e-15)
            # Flat contact of opposite edges: no area, no boundary inside.
            c, s = math.cos(angle), math.sin(angle)
            t = (0.3 * c - s, 0.3 * s + c)
            assert covariogram(rotated, t) == pytest.approx(0.0, abs=1e-15)
            assert boundary_covariogram(rotated, t) == pytest.approx(0.0, abs=1e-15)

    def test_grid_matches_scalar_evaluation(self):
        angles = np.arange(6) * math.pi / 3.0 + 0.3
        hexagon = ConvexPolygon(tuple(zip(np.cos(angles), np.sin(angles))))
        ss = np.linspace(0.0, 2.0, 33)
        th = (np.arange(8) + 0.5) * math.pi / 8.0
        grid = (np.outer(ss, np.cos(th)), np.outer(ss, np.sin(th)))
        for f in (covariogram, boundary_covariogram):
            values = f(hexagon, grid)
            assert values.shape == (33, 8)
            scalar = [[f(hexagon, (x, y)) for x, y in zip(rx, ry)] for rx, ry in zip(*grid)]
            assert np.array_equal(values, np.array(scalar))
            assert np.ndim(f(hexagon, (0.4, -0.2))) == 0
            assert isinstance(f(hexagon, (0.4, -0.2)), float)


class TestSteinerProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.1, 2.0, **finite), st.floats(0.0, 3.0, **finite))
    def test_disk_dilation_exact(self, r0, r):
        # for disks the dilated body is again a disk: exact comparison
        grown = intrinsic_volumes(Disk(r0 + r)) if r0 + r > 0 else None
        assert steiner_area(Disk(r0), r) == pytest.approx(grown.v2, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(shapes(), st.floats(0.0, 2.0, **finite))
    def test_monotone_in_r(self, shape, r):
        assert steiner_area(shape, r + 0.1) > steiner_area(shape, r)


class TestMinkowskiProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 1.5, **finite), st.floats(0.1, 1.5, **finite),
           st.floats(0.1, 1.5, **finite), st.floats(0.1, 1.5, **finite))
    def test_swap_symmetry_for_symmetric_shapes(self, r, w, h, r2):
        # disks and aligned rectangles are centrally symmetric
        a = minkowski_sum_area(Disk(r), AlignedRect(w, h))
        b = minkowski_sum_area(AlignedRect(w, h), Disk(r))
        assert a == pytest.approx(b, rel=1e-12)
        c = minkowski_sum_area(AlignedRect(w, h), AlignedRect(r, r2))
        d = minkowski_sum_area(AlignedRect(r, r2), AlignedRect(w, h))
        assert c == pytest.approx(d, rel=1e-12)


class TestAdditivity:
    WINDOW = Window((-4.0, -4.0), (4.0, 4.0))

    @settings(max_examples=40, deadline=None)
    @given(shapes(), shapes(), vectors(scale=1.5))
    def test_two_grain_inclusion_exclusion_identity(self, s1, s2, offset):
        # phi(K u L) = phi(K) + phi(L) - phi(K n L), realized through the
        # union and intersection engines.
        from germgrain.cells import intersect_convex
        g1, g2 = PlacedGrain((0.0, 0.0), s1), PlacedGrain(offset, s2)
        union = arrangement_measure([g1, g2], self.WINDOW).as_array()
        inter = np.array(intersect_convex([g1, g2], self.WINDOW)[0])
        single = (np.array(intersect_convex([g1], self.WINDOW)[0])
                  + np.array(intersect_convex([g2], self.WINDOW)[0]))
        assert union == pytest.approx(single - inter, abs=1e-9)


class TestEngineInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6),
           st.floats(-20.0, 20.0, **finite), st.floats(-20.0, 20.0, **finite))
    def test_translation_invariance(self, seed, n, dx, dy):
        rng = np.random.default_rng(seed)
        grains = [PlacedGrain((rng.uniform(-3, 3), rng.uniform(-3, 3)),
                              Disk(rng.uniform(0.2, 1.0))) for _ in range(n)]
        w = Window((-3.0, -3.0), (3.0, 3.0))
        a = arrangement_measure(grains, w).as_array()
        moved = [PlacedGrain((g.center[0] + dx, g.center[1] + dy), g.shape)
                 for g in grains]
        wm = Window((-3.0 + dx, -3.0 + dy), (3.0 + dx, 3.0 + dy))
        b = arrangement_measure(moved, wm).as_array()
        assert a == pytest.approx(b, abs=1e-9)


class TestWindowCentredCoordinates:
    # Rounding the translated centres moves grains by about 1e-16 of the
    # offset (2e-9 at 1e7), so v1 and v2 agree to 1e-7 relative.
    CONFIGS = [
        ModelConfig.from_record({"gamma": 0.5, "window": {"lo": [0, 0], "hi": [8, 8]}, "seed": 11,
                                 "grains": {"family": "rect", "rotate": True,
                                            "halfwidth": {"law": "constant", "value": 0.5},
                                            "halfheight": {"law": "constant", "value": 0.5}}}),
        ModelConfig.from_record({"gamma": 0.3, "window": {"lo": [0, 0], "hi": [16, 16]}, "seed": 11,
                                 "grains": {"family": "disk", "rotate": False,
                                            "radius": {"law": "constant", "value": 1.0}}}),
    ]

    @staticmethod
    def _moved(s, shift=0.0, factor=1.0):
        def shape(k):
            if isinstance(k, Disk):
                return Disk(k.radius * factor)
            return ConvexPolygon(tuple((factor * x, factor * y) for x, y in k.vertices))
        w = s.config.window
        grains = [PlacedGrain((factor * g.center[0] + shift, factor * g.center[1] + shift),
                              shape(g.shape)) for g in s.placed]
        return grains, Window((factor * w.lo[0] + shift, factor * w.lo[1] + shift),
                              (factor * w.hi[0] + shift, factor * w.hi[1] + shift))

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("shift, factor", [(1e3, 1.0), (1e5, 1.0), (1e7, 1.0),
                                               (0.0, 1e-3), (0.0, 1e4)])
    def test_far_and_scaled_windows(self, cfg, shift, factor):
        for rep in range(3):
            s = sample(cfg, rep)
            base = arrangement_measure(s.placed, cfg.window)
            got = arrangement_measure(*self._moved(s, shift, factor))
            assert got.v0 == base.v0
            assert got.v1 == pytest.approx(factor * base.v1, rel=1e-7)
            assert got.v2 == pytest.approx(factor ** 2 * base.v2, rel=1e-7)


class TestDeterminismProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 62), st.integers(0, 500))
    def test_same_seed_replicate_identical(self, seed, rep):
        cfg = ModelConfig(0.4, fixed_disk(0.8), Window((0, 0), (6, 6)), seed=seed)
        assert sample(cfg, rep).placed == sample(cfg, rep).placed

    def test_seed_split_multiset_identity(self):
        cfg = ModelConfig(0.3, fixed_disk(1.0), Window((0, 0), (8, 8)), seed=77)
        serial = run_batch(cfg, 1.0, 30, parallelism=1).functionals
        split = run_batch(cfg, 1.0, 30, parallelism=3).functionals
        assert np.array_equal(serial, split)


class TestStandardization:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_mean_zero_variance_one(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.gamma(3.0, size=200) + rng.standard_normal(200)
        rep = normality_report(vals, scale=1.0, window_area=1.0)
        assert abs(rep.standardized.mean()) < 1e-12
        assert abs(rep.standardized.var(ddof=1) - 1.0) < 1e-12
