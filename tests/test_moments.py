import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from germgrain import moments, process, union
from germgrain.geometry import AlignedRect, Window
from germgrain.model import GrainDistribution, ModelConfig, ParamLaw, fixed_disk, unit_squares
from germgrain.moments import (DensityVector, EstimationError,
                               ball_densities_3d, c_const, density_general,
                               density_rows, estimate_densities, invert_intensity,
                               invert_intensity_se, kappa, local_mean_value,
                               miles_densities_2d, mixed_moment_direct,
                               volume_fraction)
from germgrain.process import replicate_rows, sample
from germgrain.rng import replicate_rng

DISK1 = fixed_disk(1.0)


class TestVolumeFraction:
    def test_zero_intensity(self):
        assert volume_fraction(0.0, 5.0) == 0.0

    def test_unit_values(self):
        assert volume_fraction(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            volume_fraction(-0.1, 1.0)


class TestConstants:
    def test_kappa(self):
        assert kappa(0) == 1.0
        assert kappa(1) == pytest.approx(2.0)
        assert kappa(2) == pytest.approx(math.pi)
        assert kappa(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_c_values(self):
        assert c_const(2, 1) == pytest.approx(math.pi)
        assert c_const(1, 2) == pytest.approx(1.0 / math.pi)
        assert c_const(0, 2) == pytest.approx(1.0 / (2.0 * math.pi))
        assert c_const(2, 2) == 1.0


class TestMilesDensities:
    def test_matches_general_recursion(self):
        m = DISK1.moments()
        for gamma in (0.1, 0.5, 1.0):
            dv = miles_densities_2d(gamma, m)
            gen = [density_general(2, j, [gamma, gamma * m.ev1, gamma * m.ev2])
                   for j in (0, 1, 2)]
            assert dv.as_array() == pytest.approx(gen, rel=1e-14)

    def test_linearization_as_gamma_to_zero(self):
        # slope of each density at gamma = 1e-4 within 0.1% of (1, ev1, ev2)
        m = DISK1.moments()
        g = 1e-4
        dv = miles_densities_2d(g, m).as_array()
        lead = np.array([1.0, m.ev1, m.ev2])
        assert dv / g == pytest.approx(lead, rel=1e-3)

    def test_two_path_mixed_consistency_aligned_squares(self):
        sq = unit_squares()
        m = sq.moments()
        assert m.mixed == pytest.approx(2.0, abs=1e-12)  # 2 E[a] E[b]
        assert mixed_moment_direct(sq) == pytest.approx(m.mixed, abs=1e-12)
        d0_tr = miles_densities_2d(0.4, m, isotropic=False)
        # isotropized squares: translative path equals kinematic path
        sqr = unit_squares(rotate=True)
        mr = sqr.moments()
        assert mixed_moment_direct(sqr) == pytest.approx(2.0 * mr.ev1 ** 2 / math.pi,
                                                         abs=1e-12)
        a = miles_densities_2d(0.4, mr, isotropic=True)
        b = miles_densities_2d(0.4, mr, isotropic=False)
        assert a.as_array() == pytest.approx(b.as_array(), abs=1e-12)
        assert d0_tr.d0 != pytest.approx(a.d0)  # alignment genuinely matters

    def test_anisotropic_requires_mixed(self):
        m = unit_squares().moments()
        bad = type(m)(ev1=m.ev1, ev2=m.ev2, ev1sq=m.ev1sq, ev2sq=m.ev2sq,
                      ev1v2=m.ev1v2, mixed=float("nan"))
        with pytest.raises(ValueError):
            miles_densities_2d(0.4, bad, isotropic=False)

    def test_triangularity(self):
        # d2 depends only on ev2; d1 adds ev1; d0 adds the mixed term.
        m1 = DISK1.moments()
        m2 = type(m1)(ev1=m1.ev1 * 2.0, ev2=m1.ev2, ev1sq=m1.ev1sq,
                      ev2sq=m1.ev2sq, ev1v2=m1.ev1v2, mixed=m1.mixed)
        a, b = miles_densities_2d(0.5, m1), miles_densities_2d(0.5, m2)
        assert a.d2 == b.d2 and a.d1 != b.d1


class TestBallDensities3D:
    def test_volume_fraction_specialization(self):
        v = ball_densities_3d(0.2, ParamLaw.constant(1.0))
        assert v[0] == pytest.approx(1.0 - math.exp(-0.2 * 4.0 * math.pi / 3.0), rel=1e-14)

    def test_matches_general_recursion(self):
        r = ParamLaw.uniform(0.5, 1.2)
        gamma = 0.3
        vbar = [gamma, gamma * 4.0 * r.moment(1), gamma * 2.0 * math.pi * r.moment(2),
                gamma * (4.0 * math.pi / 3.0) * r.moment(3)]
        got = ball_densities_3d(gamma, r)
        want = [density_general(3, j, vbar) for j in (3, 2, 1, 0)]
        assert got == pytest.approx(want, rel=1e-14)

    def test_linearization_with_steiner_coefficients(self):
        # Leading order (gamma, gamma E V1, gamma E V2, gamma E V3) where the
        # ball intrinsic volumes come from a numerically fitted Steiner
        # polynomial, not from quoted constants.
        R = 0.8
        rs = np.linspace(0.0, 1.0, 7)
        vols = (4.0 * math.pi / 3.0) * (R + rs) ** 3
        coeffs = np.polyfit(rs, vols, 3)  # kappa_{3-i} V_i coefficients
        v1 = coeffs[1] / math.pi          # kappa_2 = pi
        v2 = coeffs[2] / 2.0              # kappa_1 = 2
        v3 = coeffs[3]
        g = 1e-5
        got = ball_densities_3d(g, ParamLaw.constant(R))
        lead = np.array([v3, v2, v1, 1.0]) * g
        assert got == pytest.approx(lead, rel=1e-3)

    def test_volume_density_against_3d_point_count(self):
        # 3-d Monte Carlo: Poisson balls in a dilated box, point-coverage
        # fraction vs 1 - exp(-gamma 4 pi/3 E R^3).
        gamma, R, L = 0.2, 1.0, 8.0
        rng = replicate_rng(2026, 0)
        reps, probes = 150, 64
        hits = []
        for _ in range(reps):
            n = rng.poisson(gamma * (L + 2 * R) ** 3)
            centers = rng.uniform(-R, L + R, size=(n, 3))
            pts = rng.uniform(2.0, L - 2.0, size=(probes, 3))
            if n:
                d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
                hits.append((d2.min(axis=1) <= R * R).mean())
            else:
                hits.append(0.0)
        est = float(np.mean(hits))
        se = float(np.std(hits) / math.sqrt(reps))
        want = ball_densities_3d(gamma, ParamLaw.constant(R))[0]
        assert abs(est - want) < 3.0 * se

    def test_unbounded_law_unrepresentable(self):
        # Only bounded laws exist by construction; reject bad input instead.
        with pytest.raises(ValueError):
            ball_densities_3d(-0.1, ParamLaw.constant(1.0))


class TestEstimateDensities:
    def test_needs_two_replicates(self):
        cfg = ModelConfig(0.3, DISK1, Window((0, 0), (8, 8)), seed=4)
        with pytest.raises(EstimationError):
            estimate_densities([sample(cfg, 0)])

    def test_empty_process_estimates_zero(self):
        win = Window((0.0, 0.0), (4.0, 4.0))
        cfg = ModelConfig(1e-9, fixed_disk(0.5), win, seed=5)
        dv, se, _ = estimate_densities([sample(cfg, k) for k in range(5)])
        assert dv.as_array() == pytest.approx([0.0, 0.0, 0.0])

    def test_matches_theory_small_run(self):
        cfg = ModelConfig(0.5, DISK1, Window((0, 0), (24, 24)), seed=17)
        dv, se, _ = estimate_densities([sample(cfg, k) for k in range(400)])
        want = miles_densities_2d(0.5, DISK1.moments()).as_array()
        assert np.all(np.abs(dv.as_array() - want) < 3.5 * se)

    def test_variance_scaling_with_window_area(self):
        # doubling the window area about halves the per-replicate variance of
        # each density (+- 40% MC allowance at these replicate counts)
        reps = 320
        out = []
        for side in (16.0, 32.0):  # quadruple area
            cfg = ModelConfig(0.4, DISK1, Window((0, 0), (side, side)), seed=23)
            _, _, rows = estimate_densities([sample(cfg, k) for k in range(reps)])
            out.append(rows.var(axis=0, ddof=1))
        ratio = out[0] / out[1]  # expect ~4
        assert np.all(ratio > 2.2) and np.all(ratio < 7.0)

    def test_translation_invariance_in_distribution(self):
        # shifting the window (a fresh germ stream on a congruent window)
        # leaves estimates unchanged beyond Monte Carlo error
        reps = 250
        a = ModelConfig(0.4, DISK1, Window((0.0, 0.0), (16.0, 16.0)), seed=71)
        b = ModelConfig(0.4, DISK1, Window((100.0, -50.0), (116.0, -34.0)), seed=72)
        dva, sea, _ = estimate_densities([sample(a, k) for k in range(reps)])
        dvb, seb, _ = estimate_densities([sample(b, k) for k in range(reps)])
        z = np.abs(dva.as_array() - dvb.as_array()) / np.hypot(sea, seb)
        assert np.all(z < 3.5)

    def test_engine_calls_are_traceable(self, monkeypatch):
        # A traced run wraps moments.edge_corrected_measure and
        # union.arrangement_measure by name, counting grains by the length of
        # the first argument: each chunk must pass through both, once, with
        # all of its samples' grains.
        corrected, engine = moments.edge_corrected_measure, union.arrangement_measure
        calls = []

        def tracing(name, f):
            def traced(grains, *args, **kwargs):
                calls.append((name, len(grains)))
                return f(grains, *args, **kwargs)
            return traced
        monkeypatch.setattr(moments, "edge_corrected_measure", tracing("edge", corrected))
        monkeypatch.setattr(union, "arrangement_measure", tracing("engine", engine))
        monkeypatch.setattr(process, "CHUNK_PRIMITIVES", 500)
        cfg = ModelConfig(0.5, unit_squares(rotate=True), Window((0, 0), (8, 8)), seed=9)
        samples = [sample(cfg, k) for k in range(12)]
        estimate_densities(samples)
        grains = [len(c.grains) for c in process.chunks(samples)]
        assert len(grains) > 1
        assert [name for name, _ in calls] == ["edge", "engine"] * len(grains)
        assert [n for _, n in calls[::2]] == [n for _, n in calls[1::2]] == grains
        assert sum(grains) == sum(len(s.grains) for s in samples)

    def test_naive_bias_matches_local_formula(self):
        cfg = ModelConfig(0.5, DISK1, Window((0, 0), (16, 16)), seed=314)
        samples = [sample(cfg, k) for k in range(600)]
        dv_naive, se, _ = estimate_densities(samples, edge_corrected=False)
        theory = miles_densities_2d(0.5, DISK1.moments()).as_array()
        w_body = AlignedRect(8.0, 8.0)
        predicted = np.array([local_mean_value(j, w_body, 0.5, DISK1)
                              for j in (0, 1, 2)]) / 256.0
        assert np.all(np.abs(dv_naive.as_array() - predicted) < 3.5 * se)
        # and the bias really is the boundary term, not noise
        assert abs(dv_naive.as_array()[1] - theory[1]) > 10.0 * se[1]


class TestDensityRows:
    # chunked density rows are the per-sample engine rows over the window
    # area, bit for bit, whatever the chunk size and parallelism

    LAWS = {"rotated squares": unit_squares(rotate=True),
            "uniform disks": GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5))}

    @staticmethod
    def alone(samples, edge_corrected):
        engine = union.edge_corrected_measure if edge_corrected else union.arrangement_measure
        return np.array([engine(s.grains, s.config.window).as_array() / s.config.window.area()
                         for s in samples])

    @pytest.mark.parametrize("edge_corrected", [True, False], ids=["corrected", "naive"])
    @pytest.mark.parametrize("primitives", [50, process.CHUNK_PRIMITIVES])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_rows_match_single_samples(self, monkeypatch, law, primitives, edge_corrected):
        monkeypatch.setattr(process, "CHUNK_PRIMITIVES", primitives)
        cfg = ModelConfig(0.4, self.LAWS[law], Window((0.0, 0.0), (8.0, 8.0)), seed=29)
        reps = 24
        samples = [sample(cfg, k) for k in range(reps)]
        want = self.alone(samples, edge_corrected)
        _, _, rows = estimate_densities(samples, edge_corrected=edge_corrected)
        assert rows.tobytes() == want.tobytes()
        functional = partial(density_rows, edge_corrected=edge_corrected)
        for workers in (1, 2):
            assert replicate_rows(cfg, functional, reps, workers).tobytes() == want.tobytes()

    def test_empty_replicate(self):
        cfg = ModelConfig(0.4, self.LAWS["rotated squares"], Window((0.0, 0.0), (8.0, 8.0)),
                          seed=29)
        samples = [sample(cfg, k) for k in range(3)]
        samples[1] = replace(samples[1], grains=samples[1].grains.take(np.zeros(0, dtype=int)))
        rows = density_rows(process.Chunk.of(samples))
        assert rows[1].tolist() == [0.0, 0.0, 0.0]
        assert rows.tobytes() == self.alone(samples, True).tobytes()

    def test_a_chunk_never_mixes_windows(self):
        a = ModelConfig(0.4, DISK1, Window((0.0, 0.0), (8.0, 8.0)), seed=3)
        b = ModelConfig(0.4, DISK1, Window((0.0, 0.0), (4.0, 8.0)), seed=3)
        samples = [sample(a, 0), sample(a, 1), sample(b, 0), sample(b, 1), sample(a, 2)]
        # chunks close where the window changes, so each sample is divided
        # by its own window's area
        assert [len(c.counts) for c in process.chunks(samples)] == [2, 2, 1]
        _, _, rows = estimate_densities(samples)
        assert rows.tobytes() == self.alone(samples, True).tobytes()


class TestInvertIntensity:
    def test_round_trip_exact(self):
        m = DISK1.moments()
        dv = miles_densities_2d(0.5, m)
        g, e1, e2 = invert_intensity(dv)
        assert g == pytest.approx(0.5, abs=1e-12)
        assert e1 == pytest.approx(math.pi, abs=1e-12)
        assert e2 == pytest.approx(math.pi, abs=1e-12)

    def test_sparse_degenerate(self):
        g, _, _ = invert_intensity(DensityVector(0.7, 0.0, 0.0))
        assert g == pytest.approx(0.7)

    def test_d2_out_of_range(self):
        with pytest.raises(EstimationError):
            invert_intensity(DensityVector(0.1, 0.1, 1.0))

    def test_gamma_nonpositive_reported(self):
        with pytest.raises(EstimationError):
            invert_intensity(DensityVector(-5.0, 0.0, 0.5))

    def test_anisotropic_refused(self):
        with pytest.raises(EstimationError):
            invert_intensity(DensityVector(0.1, 0.1, 0.5), isotropic=False)

    def test_stagewise_triangular_recovery(self):
        # each stage is exactly invertible on its own
        m = DISK1.moments()
        gamma = 0.3
        dv = miles_densities_2d(gamma, m)
        t = -math.log(1.0 - dv.d2)
        assert t == pytest.approx(gamma * m.ev2, rel=1e-13)
        u = dv.d1 / (1.0 - dv.d2)
        assert u == pytest.approx(gamma * m.ev1, rel=1e-13)

    def test_delta_method_se_positive(self):
        dv = miles_densities_2d(0.5, DISK1.moments())
        cov = np.diag([1e-6, 1e-6, 1e-6])
        assert invert_intensity_se(dv, cov, 100) > 0.0
