import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from germgrain import union
from germgrain.cells import TooManyGrainsError, intersect_convex
from germgrain.geometry import (AlignedRect, ConvexPolygon, Disk, Grains, PlacedGrain, Window,
                                polygon_halfplanes)
from germgrain.model import GrainDistribution, ModelConfig, ParamLaw, fixed_disk, unit_squares
from germgrain.process import Chunk, GermGrainSample, _misses, sample, write_sample
from germgrain.union import (_EPS, ReplicateError, _cell_pairs, _merge_runs, _unwrap,
                             arrangement_measure, edge_corrected_measure,
                             inclusion_exclusion_measure, pixel_measure, rasterize, write_pgm)

W = Window((-4.0, -4.0), (4.0, 4.0))
LENS_AREA = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)


def regular_polygon(n, r, turn=0.0):
    angles = turn + 2.0 * math.pi * np.arange(n) / n
    return ConvexPolygon(tuple(zip(r * np.cos(angles), r * np.sin(angles))))


def disk(x, y, r=1.0):
    return PlacedGrain((x, y), Disk(r))


def scaled(grains, window, k):
    """Grains and window scaled by 2^k, exactly."""
    return (Grains(np.ldexp(grains.centres, k), np.ldexp(grains.radius, k), grains.count,
                   np.ldexp(grains.loc, k)),
            Window(np.ldexp(window.lo, k), np.ldexp(window.hi, k)))


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


class TestOracleReadsGrainsRows:
    """The oracle measures a sample's Grains rows, the arrays every other
    engine reads; a ConvexPolygon would re-centre a rotated grain's vertices."""

    LAW = GrainDistribution("fixed", shape=ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.3, 0.9))),
                            rotate=True)

    def test_constraints_are_the_halfplanes_of_each_row(self, monkeypatch):
        from germgrain import cells
        cfg = ModelConfig(0.3, self.LAW, Window((0.0, 0.0), (16.0, 16.0)), seed=1)
        constraints = cells.grain_constraints
        moved = 0
        for k in range(20):
            s, seen = sample(cfg, k), []
            monkeypatch.setattr(cells, "grain_constraints",
                                lambda *row: seen.append(constraints(*row)) or seen[-1])
            with pytest.raises(TooManyGrainsError):
                union.inclusion_exclusion_measure(s.grains, cfg.window)
            monkeypatch.undo()
            assert len(seen) == len(s.grains)
            # the oracle measures on the engine's scaled, window-centred frame
            rows = union._normalized(s.grains, cfg.window)[0]
            views = union._normalized(Grains.of(s.placed), cfg.window)[0]
            for got, (centre, _, loc), (vc, _, vloc) in zip(seen, rows, views):
                normals, offsets = polygon_halfplanes(centre + loc)
                assert {c[0] for c in got} == {"h"}
                assert np.array([c[1] for c in got]).tobytes() == normals.tobytes()
                assert np.array([c[2] for c in got]).tobytes() == offsets.tobytes()
                recentred = polygon_halfplanes(vc + vloc)
                moved += any(a.tobytes() != b.tobytes()
                             for a, b in zip(recentred, (normals, offsets)))
        assert moved  # the object view would have measured other grains

    def test_measure_command_returns_the_in_process_row(self, tmp_path):
        from germgrain.cli import main
        cfg = ModelConfig(0.3, self.LAW, Window((0.0, 0.0), (4.0, 4.0)), seed=1)
        dump, out = tmp_path / "dump.txt", tmp_path / "row.csv"
        for k in range(20):
            s = sample(cfg, k)
            write_sample(dump, s)
            assert main(["measure", str(dump), "--engine", "inclusion-exclusion",
                         "--out", str(out)]) == 0
            row = [float(x) for x in out.read_text().splitlines()[-1].split(",")[2:]]
            want = inclusion_exclusion_measure(s.grains, cfg.window).as_array()
            assert np.array(row).tobytes() == want.tobytes()


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

    def test_window_edge_through_a_triangle_vertex_between_its_last_and_first_edges(self):
        # The triangle's first vertex lies on the window's right edge, which
        # enters the triangle there across its last and first edge lines at
        # once; the boundary runs in along the last edge.  The triangle's
        # three edges are padded to the window's four.
        tri = [PlacedGrain((3.0, 1.0), ConvexPolygon(((0.0, 0.0), (1.0, 1.0), (-1.0, 1.0))))]
        win = Window((-3.0, -3.0), (3.0, 3.0))
        want = (1.0, 1.0 + math.sqrt(2.0) / 2.0, 0.5)
        assert arrangement_measure(tri, win).as_array() == pytest.approx(want, abs=1e-12)
        assert inclusion_exclusion_measure(tri, win).as_array() == pytest.approx(want, abs=1e-12)

    def test_exact_duplicates_dedupe(self):
        fv = arrangement_measure([disk(0, 0), disk(0, 0)], W)
        assert fv.as_array() == pytest.approx([1.0, math.pi, math.pi], abs=1e-12)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_diamond_on_the_lower_edges_of_a_larger_one(self):
        # The smaller diamond lies inside the larger, two of its edges on the
        # larger one's lower edges.  The engine returns (1, 4.7426, 6.0) in
        # [-3, 3]^2 and area 6.25 in [-10, 10]^2, with no error; the oracle
        # gives (1, 4.0355, 4.25) and area 4.5.
        def diamond(y, s):
            return PlacedGrain((-2.0, y), ConvexPolygon(((s, 0.0), (0.0, s), (-s, 0.0),
                                                         (0.0, -s))))
        grains = [diamond(0.0, 1.5), diamond(-0.5, 1.0)]
        for win in (Window((-3.0, -3.0), (3.0, 3.0)), Window((-10.0, -10.0), (10.0, 10.0))):
            want = inclusion_exclusion_measure(grains, win).as_array()
            assert arrangement_measure(grains, win).as_array() == pytest.approx(want, abs=1e-9)


class TestCellPairs:
    # arrangement_measure keeps the band-sweep candidates closer than the sum
    # of their reaches; that set must be every such pair, found by brute force

    @staticmethod
    def check(centres, reach, group=None):
        centres, reach = np.asarray(centres, dtype=float).reshape(-1, 2), np.asarray(reach, float)
        group = np.zeros(len(centres), dtype=np.int64) if group is None else group
        cand = np.column_stack(_cell_pairs(centres, 2.0 * float(reach.max(initial=0.0)), group))
        assert cand.dtype == np.int64 and cand.shape[1] == 2
        assert np.all(cand[:, 0] != cand[:, 1])
        unordered = np.sort(cand, axis=1)
        assert len(np.unique(unordered, axis=0)) == len(cand)
        d = np.hypot(*(centres[cand[:, 0]] - centres[cand[:, 1]]).T)
        got = unordered[d < reach[cand[:, 0]] + reach[cand[:, 1]]]
        dx = centres[:, None, :] - centres[None, :, :]
        close = np.hypot(dx[..., 0], dx[..., 1]) < reach[:, None] + reach[None, :]
        close &= group[:, None] == group[None, :]
        want = np.argwhere(np.triu(close, 1))
        assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))
        return len(want)

    def test_zero_one_two_grains(self):
        assert self.check(np.zeros((0, 2)), np.zeros(0)) == 0
        assert self.check([[3.0, 4.0]], [1.0]) == 0
        assert self.check([[0.0, 0.0], [1.9, 0.0]], [1.0, 1.0]) == 1
        assert self.check([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0]) == 0  # tangent: no pair

    @pytest.mark.parametrize("axis", [0, 1])
    def test_centres_on_one_line(self, axis):
        rng = np.random.default_rng(20 + axis)
        c = np.full((300, 2), 7.25)
        c[:, axis] = rng.uniform(-50.0, 50.0, 300)
        assert self.check(c, rng.uniform(0.05, 0.5, 300)) > 0

    def test_centres_on_cell_boundaries(self):
        # a half-integer lattice with reach 1: cells of side 2 start on lattice
        # points, and pairs at spacing 1.5 and 1.9375 straddle cell edges
        g = np.arange(-6.0, 6.5, 0.5)
        c = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        assert self.check(c, np.ones(len(c))) > 0
        for spacing in (1.5, 1.9375, 2.0, 4.0):
            line = np.column_stack([spacing * np.arange(-10, 11), np.zeros(21)])
            self.check(line, np.ones(21))
            self.check(np.vstack([line, line[:, ::-1]]), np.ones(42))

    def test_coincident_centres(self):
        c = np.repeat([[1.0, 1.0], [1.0, 3.5], [40.0, -2.0]], [4, 3, 2], axis=0)
        assert self.check(c, np.full(9, 0.5)) == 6 + 3 + 1

    def test_mixed_reaches(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 150))
            reach = 10.0 ** rng.uniform(-3.0, 0.5, n)
            self.check(rng.uniform(-20.0, 20.0, (n, 2)), reach)

    @pytest.mark.parametrize("tiny, side, offset", [
        (1e-6, 1e7, 0.0), (1e-6, 1e7, 3e9), (1e-30, 1e7, 0.0), (1e-300, 1e300, -1e300)])
    def test_wide_scale_ratio(self, tiny, side, offset):
        # tiny grains in small clusters over a huge window: cells of side
        # 2 * reach would number 1e13 or more per axis, too many for a
        # column * rows + row key in an int64
        rng = np.random.default_rng(24)
        seeds = offset + rng.uniform(0.0, side, (60, 2))
        c = np.vstack([seeds, seeds + rng.uniform(-tiny, tiny, (60, 2)),
                       seeds + [tiny * 1.5, 0.0], seeds[:5]])
        assert self.check(c, np.full(len(c), tiny)) > 0
        assert self.check(np.vstack([c, [[offset, offset]]]),
                          np.append(np.full(len(c), tiny), side * 1e-3)) > 0

    def test_random_seeded_inputs(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(0, 80))
            box = 10.0 ** rng.uniform(-3.0, 6.0)
            c = rng.uniform(-box, box, (n, 2)) + 10.0 ** rng.uniform(0.0, 8.0)
            self.check(np.round(c) if rng.random() < 0.3 else c,
                       rng.uniform(0.0, 10.0 ** rng.uniform(-4.0, 1.0), n))

    def test_groups_never_pair(self):
        # a chunk of replicates: overlapping windows, pairs only within one
        rng = np.random.default_rng(31)
        for groups in (1, 2, 7, 300):
            n = int(rng.integers(2, 400))
            group = np.sort(rng.integers(0, groups, n))
            c = rng.uniform(-5.0, 5.0, (n, 2))
            self.check(c, rng.uniform(0.1, 1.0, n), group)
        # far apart in one group, at the far edge of the span in the next
        self.check([[0.0, 0.0], [9.0, 9.0], [9.5, 9.0], [0.5, 0.0]], [1.0] * 4,
                   np.array([0, 0, 1, 1]))


class TestIntervals:
    # the engine's interval merge and circular split, against plain references

    @staticmethod
    def merge_reference(pid, a, b, own):
        """Sort by pid, then a, then input index, and sweep: a run goes on
        while an interval starts within _EPS of its reach; the first interval
        starts it, the last one reaching its end ends it."""
        runs = []
        for i in sorted(np.flatnonzero(b - a > _EPS), key=lambda i: (pid[i], a[i], i)):
            run = runs[-1] if runs else None
            if run is not None and run[0] == pid[i] and a[i] <= run[2] + _EPS:
                if b[i] >= run[2]:
                    run[2], run[4] = b[i], own[i]
            else:
                runs.append([pid[i], a[i], b[i], own[i], own[i]])
        return [np.array(c) for c in zip(*runs)] if runs else [np.zeros(0)] * 5

    @pytest.mark.parametrize("pids", [3, 40, 1 << 17])
    def test_merge_runs_matches_the_sweep(self, pids):
        rng = np.random.default_rng(41)
        for n in (0, 1, 2, 7, 60, 500):
            # few distinct ends force ties in a and in b; some intervals are
            # empty or within _EPS of it, some start just within or just
            # beyond _EPS of another's end
            grid = np.linspace(0.0, 1.0, 9)
            a = rng.choice(grid, n) + rng.choice([0.0, 0.0, 0.5 * _EPS, 2.0 * _EPS], n)
            width = rng.choice([0.0, 0.5 * _EPS, *grid[1:4]], n)
            b = np.where(rng.random(n) < 0.8, a + width, rng.random(n))
            pid = rng.integers(0, pids, n) + (pids > 1 << 16) * (1 << 16)
            own = rng.permutation(n)
            got = _merge_runs(pid, a, b, own)
            want = self.merge_reference(pid, a, b, own)
            for g, w in zip(got, want):
                assert g.tolist() == w.tolist()

    def test_merge_runs_tie_rules(self):
        # tied in a: the first in input order starts the run; tied at the
        # largest b: the last in run order ends it
        pid = np.array([5, 5, 5, 5, 2])
        a = np.array([0.5, 0.1, 0.1, 0.3, 0.0])
        b = np.array([0.9, 0.9, 0.4, 0.9, 1.0])
        got = _merge_runs(pid, a, b, np.array([10, 11, 12, 13, 14]))
        assert [g.tolist() for g in got] == [[2, 5], [0.0, 0.1], [1.0, 0.9], [14, 11], [14, 10]]

    @staticmethod
    def unwrap_reference(p, start, width, own):
        full = width >= union.TWO_PI - _EPS
        a = np.where(full, 0.0, np.mod(start, union.TWO_PI))
        b = np.where(full, union.TWO_PI, a + width)
        wrap = b > union.TWO_PI
        return (np.concatenate([p, p[wrap]]), np.concatenate([a, np.zeros(int(wrap.sum()))]),
                np.concatenate([np.minimum(b, union.TWO_PI), b[wrap] - union.TWO_PI]),
                np.concatenate([own, own[wrap]]))

    def test_unwrap_matches_np_mod(self):
        two_pi = union.TWO_PI
        # the callers' starts lie in (-2*pi, 3*pi): edge cases, then random ones
        edge = [-0.0, 0.0, -1e-300, 1e-300, two_pi, np.nextafter(two_pi, 0.0),
                np.nextafter(3.0 * math.pi, 0.0), -np.nextafter(two_pi, 0.0), -math.pi, math.pi]
        rng = np.random.default_rng(42)
        start = np.concatenate([np.repeat(edge, 4), rng.uniform(-two_pi, 3.0 * math.pi, 400)])
        widths = [0.0, 1.0, two_pi - 0.5 * _EPS, two_pi]  # the last two are full circles
        width = np.concatenate([np.tile(widths, len(edge)), rng.uniform(0.0, two_pi, 400)])
        p, own = np.arange(len(start)), rng.permutation(len(start))
        got = [np.concatenate(c) for c in zip(*_unwrap(p, start, width, own))]
        want = self.unwrap_reference(p, start, width, own)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert np.mod(-1e-300, two_pi) == two_pi  # rounds up: kept as an interval at 2*pi


def _rows_of(samples):
    """Chunk rows of samples on their common window."""
    chunk = Chunk.of(samples)
    return arrangement_measure(chunk.grains, chunk.window, counts=chunk.counts)


class TestChunks:
    # one engine pass over a chunk of replicates gives each the row that it
    # gets alone, whatever else is in the chunk

    WIN = Window((0.0, 0.0), (12.0, 12.0))
    # Triangles are narrower than the window's four edges and hexagons wider,
    # so the engine's edge table pads the bodies of both.
    LAWS = {"unit disks": fixed_disk(1.0),
            "uniform disks": GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5)),
            "rotated squares": unit_squares(rotate=True),
            "rotated triangles": GrainDistribution("fixed", shape=regular_polygon(3, 0.8),
                                                   rotate=True),
            "rotated hexagons": GrainDistribution("fixed", shape=regular_polygon(6, 0.6),
                                                  rotate=True)}

    def samples(self, law):
        cfg = ModelConfig(0.3, law, self.WIN, seed=17)
        out = [sample(cfg, k) for k in range(70)]
        empty = Grains(np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=np.int64),
                       np.zeros((0, 2)))
        far = Grains.join(*(s.grains for s in out[:2]))
        far = Grains(far.centres + 100.0, far.radius, far.count, far.loc)
        # a replicate with no grains and one whose grains all miss the window
        out[3] = GermGrainSample(empty, cfg, 3)
        out[40] = GermGrainSample(far, cfg, 40)
        return out

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_rows_do_not_depend_on_the_chunk(self, law):
        samples = self.samples(self.LAWS[law])
        rows = {size: np.concatenate([_rows_of(samples[i:i + size])
                                      for i in range(0, len(samples), size)])
                for size in (1, 7, 64)}
        assert rows[1].tobytes() == rows[7].tobytes() == rows[64].tobytes()
        alone = np.array([arrangement_measure(s.grains, self.WIN).as_array() for s in samples])
        assert np.array_equal(rows[64][:, 0], alone[:, 0])
        assert np.allclose(rows[64][:, 1:], alone[:, 1:], rtol=1e-12, atol=0.0)
        assert rows[64][3].tolist() == [0.0, 0.0, 0.0]
        assert rows[64][40].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_batches_match_chunks_at_any_parallelism(self, law):
        from germgrain.cltstats import run_batch
        cfg = ModelConfig(0.3, self.LAWS[law], Window((0.0, 0.0), (1.0, 1.0)), seed=23)
        one, two = (run_batch(cfg, 12.0, 60, parallelism=p).functionals for p in (1, 2))
        assert one.tobytes() == two.tobytes()
        win_cfg = ModelConfig(0.3, self.LAWS[law], cfg.window.scaled(12.0), seed=23)
        singles = np.concatenate([_rows_of([sample(win_cfg, k)]) for k in range(60)])
        assert one.tobytes() == singles.tobytes()

    GRID = "exact-grid rects and diamonds"

    @staticmethod
    def grid_chunk():
        """The rect and diamond sets of tools/engine_rows.py on seed 5 that
        measure without raising, as one chunk.  Their edges lie on each
        other's edge lines and meet at vertices, so the edge kernel's ties
        turn up in some row blocks and not in others."""
        window = Window((-3.0, -3.0), (3.0, 3.0))

        def shape(rng, kind):
            if kind == "rects":
                return AlignedRect(0.5 * int(rng.integers(1, 4)), 0.5 * int(rng.integers(1, 4)))
            s = 0.5 * int(rng.integers(1, 5))
            return ConvexPolygon(((s, 0.0), (0.0, s), (-s, 0.0), (0.0, -s)))

        def measures(g):
            try:
                for corrected in (False, True):
                    arrangement_measure(g, window, edge_corrected=corrected)
            except ReplicateError:
                return False
            return True
        parts = []
        for kind in ("rects", "diamonds"):
            rng = np.random.default_rng(5)
            parts += [Grains.of([PlacedGrain((0.5 * int(rng.integers(-6, 7)),
                                              0.5 * int(rng.integers(-6, 7))), shape(rng, kind))
                                 for _ in range(int(rng.integers(1, 6)))])
                      for _ in range(200)]
        parts = [g for g in parts if measures(g)]
        return Grains.join(*parts), window, [len(g) for g in parts]

    @pytest.mark.parametrize("case", sorted(LAWS) + [GRID])
    def test_rows_do_not_depend_on_the_row_block(self, monkeypatch, case):
        if case == self.GRID:
            grains, window, counts = self.grid_chunk()
        else:
            chunk = Chunk.of(self.samples(self.LAWS[case])[:20])
            grains, window, counts = chunk.grains, self.WIN, chunk.counts

        def rows():
            return np.concatenate([
                arrangement_measure(grains, window, counts=counts,
                                    edge_corrected=corrected) for corrected in (False, True)])
        want = rows()
        monkeypatch.setattr(union, "_ROW_BLOCK", 7)
        assert rows().tobytes() == want.tobytes()

    def test_pass_memory_grows_slower_than_its_chunk(self):
        # The (body width x rows) temporaries of the edge kernel come in
        # blocks of fixed size, so a pass over a 4-sample chunk of rotated
        # squares peaks at no more than twice the largest of its samples' own
        # passes.  tracemalloc counts numpy's buffers, deterministically.
        cfg = ModelConfig(0.5, unit_squares(rotate=True), Window((0.0, 0.0), (16.0, 16.0)),
                          seed=1)
        samples = [sample(cfg, k) for k in range(4)]

        def peak(samples):
            chunk = Chunk.of(samples)
            tracemalloc.start()
            try:
                arrangement_measure(chunk.grains, chunk.window, counts=chunk.counts,
                                    edge_corrected=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(samples)  # leaves out what only a first call allocates
        assert peak(samples) <= 2.0 * max(peak([s]) for s in samples)

    def test_failing_replicate_is_named_by_position(self):
        diamond = ConvexPolygon(((0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)))
        bad = Grains.of([PlacedGrain((x, 0.0), diamond) for x in (5.5, 6.5)])
        chunk = [s.grains for s in self.samples(self.LAWS["rotated squares"])[5:10]]
        chunk.insert(3, bad)
        with pytest.raises(ReplicateError) as info:
            arrangement_measure(Grains.join(*chunk), self.WIN, counts=[len(g) for g in chunk])
        assert info.value.index == 3
        assert str(info.value).startswith("non-integer Euler characteristic")
        # it leaves a worker process whole
        assert pickle.loads(pickle.dumps(info.value)).index == 3

    @pytest.mark.parametrize("law", ["unit disks", "rotated squares"])
    def test_rows_scale_with_the_window(self, law):
        # the engine measures on a window scaled to a side in [1/2, 1), so
        # grains, window and mask scaled by 2^k give (v0, 2^k v1, 4^k v2)
        # bit for bit, with no numpy warning, until v2 leaves the double range
        chunk = Chunk.of([sample(ModelConfig(0.3, self.LAWS[law], self.WIN, seed=3), r)
                          for r in range(10)])
        hexagon = regular_polygon(6, 5.0, 0.3).vertices

        def rows(k, observation):
            # plain, edge-corrected, and the masks of tools/engine_rows.py
            kw = [{}, {"edge_corrected": True},
                  {"mask": PlacedGrain(np.ldexp((6.25, 5.5), k), Disk(math.ldexp(4.5, k)))},
                  {"mask": PlacedGrain(np.ldexp((5.5, 6.25), k),
                                       ConvexPolygon(tuple(map(tuple, np.ldexp(hexagon, k)))))}]
            return arrangement_measure(*scaled(chunk.grains, self.WIN, k), counts=chunk.counts,
                                       **kw[observation])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for observation in range(4):
                want = rows(0, observation)
                assert np.all(want[:, 2] > 0.0)
                for k in (-1000, -600, -300, -40, 40, 300, 500):
                    got = rows(k, observation)
                    assert got[:, 0].tobytes() == want[:, 0].tobytes()
                    assert got[:, 1].tobytes() == np.ldexp(want[:, 1], k).tobytes()
                    assert got[:, 2].tobytes() == np.ldexp(want[:, 2], 2 * k).tobytes()
                with pytest.raises(ReplicateError, match="is not finite"):
                    rows(511, observation)

    @pytest.mark.parametrize("rotate", [False, True], ids=["fixed", "rotated"])
    def test_a_scaled_model_draws_and_measures_scaled_grains(self, rotate):
        # a triangle law with every length times 2^k and gamma times 4^-k draws
        # 2^k times the grains of the unit model and measures (v0, 2^k v1,
        # 4^k v2), bit for bit
        triangle = [(0.2, 0.1), (1.3, 0.0), (0.5, 1.1)]

        def model(k):
            law = GrainDistribution("fixed", shape=ConvexPolygon(tuple(map(
                tuple, np.ldexp(triangle, k)))), rotate=rotate)
            win = Window(np.ldexp(self.WIN.lo, k), np.ldexp(self.WIN.hi, k))
            cfg = ModelConfig(math.ldexp(0.3, -2 * k), law, win, seed=3)
            chunk = Chunk.of([sample(cfg, r) for r in range(10)])
            return chunk.grains, arrangement_measure(chunk.grains, chunk.window, counts=chunk.counts)
        grains, rows = model(0)
        assert np.all(rows[:, 2] > 0.0)
        for k in (-300, -40, 40, 300):
            got, got_rows = model(k)
            assert got.count.tobytes() == grains.count.tobytes()
            for field in ("centres", "radius", "loc"):
                assert getattr(got, field).tobytes() == np.ldexp(getattr(grains, field), k).tobytes()
            assert got_rows.tobytes() == np.ldexp(rows, [0, k, 2 * k]).tobytes()

    def test_counts_must_cover_the_grains(self):
        g = Grains.of([disk(1.0, 1.0), disk(2.0, 2.0)])
        with pytest.raises(ValueError, match="counts"):
            arrangement_measure(g, self.WIN, counts=[1])


class TestOracleFrame:
    # the oracle measures on the arrangement engine's frame, scaled to a
    # window side in [1/2, 1) and centred on the window, so the cells'
    # tolerances are relative to the window

    @pytest.mark.parametrize("law", ["unit disks", "rotated squares"])
    def test_rows_scale_with_the_window(self, law):
        win = Window((0.0, 0.0), (4.0, 4.0))
        cfg = ModelConfig(0.3, TestChunks.LAWS[law], win, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for r in range(10):
                g = sample(cfg, r).grains
                want = inclusion_exclusion_measure(g, win)
                assert want.v2 > 0.0
                for k in (-1000, -600, -300, -40, 40, 300, 500):
                    got = inclusion_exclusion_measure(*scaled(g, win, k)).as_array()
                    assert got.tobytes() == np.array([want.v0, math.ldexp(want.v1, k),
                                                      math.ldexp(want.v2, 2 * k)]).tobytes()

    def test_matches_the_engine_far_from_the_origin(self):
        win = Window((1000.0, 1000.0), (1004.0, 1004.0))
        measured = 0
        for law in TestChunks.LAWS.values():
            cfg = ModelConfig(0.3, law, win, seed=17)
            for r in range(40):
                g = sample(cfg, r).grains
                try:
                    ie = inclusion_exclusion_measure(g, win).as_array()
                except TooManyGrainsError:
                    continue
                ar = arrangement_measure(g, win).as_array()
                assert ie[0] == ar[0]
                assert ie[1:] == pytest.approx(ar[1:], rel=1e-13, abs=0.0)
                measured += 1
        assert measured > 150


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

    @pytest.mark.parametrize("grains", [
        fixed_disk(1.0), GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5)),
        unit_squares(rotate=True), unit_squares()])
    def test_half_open_tiles_sum_to_the_window(self, grains):
        win = Window((0.0, 0.0), (12.0, 12.0))
        cfg = ModelConfig(0.5, grains, win, seed=17)
        quarters = [Window((x, y), (x + 6.0, y + 6.0)) for x in (0.0, 6.0) for y in (0.0, 6.0)]
        for k in range(4):
            s = sample(cfg, k)
            whole = edge_corrected_measure(s.grains, win).as_array()
            tiles = sum(edge_corrected_measure(s.grains, q).as_array() for q in quarters)
            assert tiles[0] == whole[0]
            assert tiles[1:] == pytest.approx(whole[1:], rel=1e-9)

    def test_one_boundary_per_call(self, monkeypatch):
        built = []

        class Counted(union._Boundary):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)
        monkeypatch.setattr(union, "_Boundary", Counted)
        edge_corrected_measure([disk(4.0, 4.0), disk(3.5, 0.0)], W)
        assert len(built) == 1

    def test_mask_is_refused(self):
        with pytest.raises(ValueError, match="edge_corrected"):
            arrangement_measure([disk(0, 0)], W, mask=disk(0.0, 0.0, 2.0), edge_corrected=True)

    @staticmethod
    def _covered_pieces(grains, a, b):
        """(pieces, length) of the segment [a, b] inside the union of the
        grains' open interiors, in Python floats: each grain's parameter
        interval (a disk's chord from the quadratic, a polygon's clip against
        its edge halfplanes), then a merge of the open intervals."""
        (ax, ay), (bx, by) = a, b
        dx, dy = bx - ax, by - ay
        spans = []
        for (cx, cy), r, loc in grains:
            fx, fy, r = float(ax - cx), float(ay - cy), float(r)
            if r > 0.0:
                qa, qb, qc = dx * dx + dy * dy, fx * dx + fy * dy, fx * fx + fy * fy - r * r
                disc = qb * qb - qa * qc
                if disc <= 0.0:
                    continue
                lo, hi = (-qb - math.sqrt(disc)) / qa, (-qb + math.sqrt(disc)) / qa
            else:
                lo, hi = 0.0, 1.0
                verts = loc.tolist()
                for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1]):
                    nx, ny = qy - py, px - qx  # outward normal of the edge p -> q
                    f0, df = nx * (fx - px) + ny * (fy - py), nx * dx + ny * dy
                    if df < 0.0:
                        lo = max(lo, -f0 / df)
                    elif df > 0.0:
                        hi = min(hi, -f0 / df)
                    elif f0 >= 0.0:
                        hi = lo
            lo, hi = max(lo, 0.0), min(hi, 1.0)
            if hi > lo:
                spans.append([lo, hi])
        runs = []
        for lo, hi in sorted(spans):
            if runs and lo < runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], hi)
            else:
                runs.append([lo, hi])
        return len(runs), sum(hi - lo for lo, hi in runs) * math.hypot(dx, dy)

    @classmethod
    def _separate_parts(cls, grains, window):
        """The correction from its parts: the full window, coverage of the top
        and right edges, and the far corner in some grain's interior."""
        full = arrangement_measure(grains, window).as_array()
        (x0, y0), (x1, y1) = window.lo, window.hi
        n_top, l_top = cls._covered_pieces(grains, (x0, y1), (x1, y1))
        n_right, l_right = cls._covered_pieces(grains, (x1, y0), (x1, y1))
        g = Grains.of(grains)
        corner = False
        for k in range(len(g)):
            cx, cy = g.centres[k]
            if g.radius[k] > 0.0:
                corner |= math.hypot(x1 - cx, y1 - cy) < g.radius[k] * (1.0 - _EPS)
            else:
                v = g.loc[g.rows([k])]
                e = np.roll(v, -1, axis=0) - v
                side = e[:, 0] * (y1 - cy - v[:, 1]) - e[:, 1] * (x1 - cx - v[:, 0])
                corner |= bool(np.all(side > _EPS * np.hypot(*e.T)))
        return np.array([full[0] - n_top - n_right + corner, full[1] - l_top - l_right, full[2]])

    @pytest.mark.parametrize("grains", [
        GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5)), unit_squares(rotate=True),
        GrainDistribution("fixed", shape=ConvexPolygon(((0.0, 0.0), (1.2, 0.1), (0.3, 0.9))),
                          rotate=True)])
    def test_one_pass_matches_the_separate_parts(self, grains):
        for side in (4.0, 16.0):
            win = Window((1.0, -2.0), (1.0 + side, side - 2.0))
            cfg = ModelConfig(0.5, grains, win, seed=29)
            for k in range(25):
                s = sample(cfg, k)
                want = self._separate_parts(s.grains, win)
                got = edge_corrected_measure(s.grains, win).as_array()
                assert got[0] == want[0]
                assert got[2].tobytes() == want[2].tobytes()
                assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12)


def probe_misses(grains, probe, window=W):
    """The capacity functional's miss rule for one sample of grains."""
    cfg = ModelConfig(0.1, fixed_disk(1.0), window)
    return bool(_misses(probe, Chunk.of([GermGrainSample(Grains.of(grains), cfg, 0)]))[0])


class TestProbeMisses:
    def test_agrees_with_convex_intersection(self):
        rng = np.random.default_rng(8)
        big = Window((-10.0, -10.0), (10.0, 10.0))
        hits = 0
        for _ in range(300):
            probe, grain = random_grains(rng, 2, box=1.2)
            got = not probe_misses([grain], probe, big)
            assert got == (intersect_convex([probe, grain], big)[1] is not None)
            hits += got
        assert 0 < hits < 300

    def test_containment_is_a_hit(self):
        inner = PlacedGrain((0.1, 0.0), AlignedRect(0.2, 0.1))
        assert not probe_misses([disk(0.0, 0.0, 2.0)], inner)
        assert not probe_misses([inner], PlacedGrain((0.0, 0.0), Disk(2.0)))
        assert probe_misses([disk(2.0, 0.0)], disk(0.0, 0.0))

    def test_no_grain_near_the_probe(self):
        assert probe_misses([], disk(0.0, 0.0))
        assert probe_misses([disk(3.0, 0.0), disk(-2.5, 2.5)], disk(0.0, 0.0))

    def test_a_chunk_matches_its_samples(self):
        cfg = ModelConfig(0.3, fixed_disk(1.0), Window((0.0, 0.0), (8.0, 8.0)), seed=6)
        probe = PlacedGrain((4.0, 4.0), AlignedRect(0.8, 0.5))
        samples = [sample(cfg, k) for k in range(40)]
        one_by_one = [probe_misses(s.grains, probe, cfg.window) for s in samples]
        assert list(_misses(probe, Chunk.of(samples))) == one_by_one
        assert 0 < sum(one_by_one) < 40


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
        for bad in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                rasterize([disk(0, 0)], W, resolution=bad)
