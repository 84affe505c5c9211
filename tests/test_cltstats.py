import itertools
import math
import warnings

import numpy as np
import pytest

from germgrain import cltstats, process
from germgrain.cltstats import (DegenerateVarianceError, _ndtr, _ndtri,
                                ks_to_normal, normality_report,
                                rank_correlation, run_batch,
                                wasserstein_to_normal)
from germgrain.geometry import ConvexPolygon, Grains, PlacedGrain, Window
from germgrain.model import ModelConfig, fixed_disk
from germgrain.moments import volume_fraction
from germgrain.process import GermGrainSample


class TestWasserstein:
    def test_constant_zero_sample_closed_form(self):
        # int |1{x >= 0} - Phi(x)| dx = 2 int_0^inf (1 - Phi) = sqrt(2/pi)
        assert wasserstein_to_normal(np.zeros(16)) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_normal_sample_calibration_1e4(self):
        # For N(0,1) samples of size 1e4 the distance stays below 0.02
        # (null calibration: 200 dev draws had mean 0.0083, max 0.0148).
        rng = np.random.default_rng(314)
        for _ in range(10):
            x = rng.standard_normal(10_000)
            x = (x - x.mean()) / x.std(ddof=1)
            assert wasserstein_to_normal(x) < 0.02

    def test_two_point_sample_larger_than_null(self):
        val = wasserstein_to_normal(np.array([-1.0, 1.0] * 500))
        assert val > 0.1  # far above any normal-sample calibration level

    def test_matches_numeric_integration(self):
        # midpoint rule on a fine grid as the independent cross-check
        from scipy.stats import norm
        rng = np.random.default_rng(1)
        x = rng.standard_normal(300)
        xs = np.sort(x)
        grid = np.linspace(-9.0, 9.0, 400_001)
        mid = 0.5 * (grid[:-1] + grid[1:])
        fn = np.searchsorted(xs, mid, side="right") / len(xs)
        num = float(np.sum(np.abs(fn - norm.cdf(mid))) * (grid[1] - grid[0]))
        assert wasserstein_to_normal(x) == pytest.approx(num, abs=5e-4)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            wasserstein_to_normal([1.0])


class TestKS:
    def test_perfect_grid_small(self):
        from scipy.stats import norm
        n = 1000
        grid = norm.ppf((np.arange(n) + 0.5) / n)
        assert ks_to_normal(grid) < 1.0 / n

    def test_shifted_sample_large(self):
        rng = np.random.default_rng(2)
        assert ks_to_normal(rng.standard_normal(500) + 3.0) > 0.5


def _scipy_wasserstein(xs):
    """wasserstein_to_normal on scipy's ndtr and ndtri, as the reference."""
    from scipy.special import ndtr, ndtri

    def antideriv(x):
        return x * ndtr(x) + np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    xs = np.sort(xs)
    n = len(xs)
    a, b, levels = xs[:-1], xs[1:], np.arange(1, n) / n
    A_a, A_b, F_a, F_b = antideriv(a), antideriv(b), ndtr(a), ndtr(b)
    below, above = F_b <= levels, F_a >= levels
    crossing = ~(below | above)
    pieces = np.empty(n - 1)
    pieces[below] = levels[below] * (b - a)[below] - (A_b - A_a)[below]
    pieces[above] = (A_b - A_a)[above] - levels[above] * (b - a)[above]
    xc = ndtri(levels[crossing])
    A_c = antideriv(xc)
    pieces[crossing] = (levels[crossing] * (xc - a[crossing]) - (A_c - A_a[crossing])
                        + (A_b[crossing] - A_c) - levels[crossing] * (b[crossing] - xc))
    total = antideriv(xs[0]) + np.exp(-0.5 * xs[-1] ** 2) / math.sqrt(2.0 * math.pi) \
        - xs[-1] * (1.0 - ndtr(xs[-1]))
    return float(total + pieces.sum())


class TestNormalFunctions:
    # the normal CDF and quantile come from the standard library, not scipy

    def test_ndtr_matches_scipy(self):
        from scipy.special import ndtr
        x = np.linspace(-38.0, 38.0, 76_001)
        assert np.max(np.abs(_ndtr(x) - ndtr(x))) <= 4.5e-16

    def test_ndtri_matches_scipy(self):
        from scipy.special import ndtri
        p = np.concatenate([np.linspace(1e-12, 1.0 - 1e-12, 20_001), np.arange(1, 1000) / 1000])
        assert np.max(np.abs(_ndtri(p) - ndtri(p))) <= 4e-15

    def test_distances_match_scipy_formulas(self):
        from scipy.special import ndtr
        rng = np.random.default_rng(5)
        for x in (rng.standard_normal(300), rng.gamma(2.0, size=1000), np.zeros(16),
                  rng.standard_normal(50) + 3.0):
            assert abs(wasserstein_to_normal(x) - _scipy_wasserstein(x)) <= 1e-14
            xs, n = np.sort(x), len(x)
            cdf = ndtr(xs)
            ks = max(np.max(np.abs(np.arange(1, n + 1) / n - cdf)),
                     np.max(np.abs(cdf - np.arange(0, n) / n)))
            assert abs(ks_to_normal(x) - ks) <= 1e-14


class TestNormalityReport:
    def test_standardization_exactness(self):
        rng = np.random.default_rng(3)
        rep = normality_report(rng.gamma(2.0, size=400), scale=1.0, window_area=1.0)
        assert abs(rep.standardized.mean()) < 1e-12
        assert abs(rep.standardized.var(ddof=1) - 1.0) < 1e-12

    def test_degenerate_variance_error(self):
        with pytest.raises(DegenerateVarianceError):
            normality_report(np.ones(50), scale=1.0, window_area=1.0)

    def test_theoretical_variance_path(self):
        rng = np.random.default_rng(4)
        vals = 3.0 * rng.standard_normal(2000)
        rep = normality_report(vals, scale=1.0, window_area=1.0, variance=9.0)
        assert rep.w1 < 0.06


class TestRunBatch:
    CFG = ModelConfig(0.3, fixed_disk(1.0), Window((0.0, 0.0), (1.0, 1.0)), seed=20)

    def test_determinism(self):
        b1 = run_batch(self.CFG, 8.0, 40)
        b2 = run_batch(self.CFG, 8.0, 40)
        assert np.array_equal(b1.functionals, b2.functionals)

    def test_seed_split_parallel_identical(self):
        serial = run_batch(self.CFG, 8.0, 24, parallelism=1)
        par = run_batch(self.CFG, 8.0, 24, parallelism=2)
        assert np.array_equal(serial.functionals, par.functionals)

    def test_failing_replicate_is_named(self, monkeypatch):
        # Replicate 13 is two diamonds touching at one vertex on the window
        # edge, an exact point contact on which the engine's integrality
        # check fails.  It sits mid-chunk at either parallelism (one chunk of
        # 0..19, or 10..19 in the second worker).
        win = self.CFG.window.scaled(8.0)
        diamond = ConvexPolygon(((0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)))
        bad = Grains.of([PlacedGrain((x, win.lo[1]), diamond) for x in (-0.5, 0.5)])
        draw = process.sample

        def sample(config, k):
            return GermGrainSample(bad, config, k) if k == 13 else draw(config, k)
        monkeypatch.setattr(process, "sample", sample)
        (x0, y0), (x1, y1) = win.lo, win.hi
        for parallelism in (1, 2):
            with pytest.raises(RuntimeError) as info:
                run_batch(self.CFG, 8.0, 20, parallelism=parallelism)
            msg = str(info.value)
            assert msg.startswith("replicate 13 failed (non-integer Euler characteristic ")
            assert (f"--seed {self.CFG.seed} --window {x0!r} {y0!r} {x1!r} {y1!r} "
                    "--replicate 13" in msg)

    def test_engine_and_sampler_calls_are_traceable(self, monkeypatch):
        # A traced run wraps cltstats.arrangement_measure and process.sample
        # by name, counting grains by the length of the engine's first
        # argument; a name with no calls leaves its layer's metrics empty.
        engine, draw = cltstats.arrangement_measure, process.sample
        grains, replicates = [], []

        def counting_engine(chunk, *args, **kwargs):
            grains.append(len(chunk))
            return engine(chunk, *args, **kwargs)

        def counting_sample(config, k):
            replicates.append(k)
            return draw(config, k)
        monkeypatch.setattr(cltstats, "arrangement_measure", counting_engine)
        monkeypatch.setattr(process, "sample", counting_sample)
        reps = 40
        run_batch(self.CFG, 16.0, reps, parallelism=1)
        win = self.CFG.window.scaled(16.0)
        cfg = ModelConfig(self.CFG.gamma, self.CFG.grains, win, self.CFG.seed)
        assert 1 <= len(grains) < reps
        assert sum(grains) == sum(len(draw(cfg, k).grains) for k in range(reps))
        assert replicates == list(range(reps))

    def test_mean_area_fraction(self):
        batch = run_batch(self.CFG, 16.0, 300)
        p = volume_fraction(0.3, math.pi)
        fracs = batch.functionals[:, 2] / batch.window_area
        se = fracs.std(ddof=1) / math.sqrt(len(fracs))
        assert abs(fracs.mean() - p) < 3.0 * se

    def test_se_scales_like_inverse_sqrt_reps(self):
        batch = run_batch(self.CFG, 8.0, 400)
        v = batch.functionals[:, 2]
        se_100 = v[:100].std(ddof=1) / 10.0
        se_400 = v.std(ddof=1) / 20.0
        assert 0.5 * se_400 * 2.0 < se_100 < 2.0 * se_400 * 2.0  # ratio 2 +- factor

    def test_variance_positive_for_interior_grains(self):
        batch = run_batch(self.CFG, 8.0, 120)
        assert np.all(batch.functionals.var(axis=0) > 0.0)


class TestRankCorrelation:
    # clt_experiment's trend statistic; it must equal scipy's spearmanr bit for bit

    @staticmethod
    def spearman(x, y):
        from scipy.stats import spearmanr
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ConstantInputWarning
            return float(spearmanr(x, y).statistic)

    def check(self, x, y):
        got, want = rank_correlation(x, y), self.spearman(x, y)
        assert got == want or (math.isnan(got) and math.isnan(want)), (x, y, got, want)

    def test_orderings_of_three_scales(self):
        scales = np.array([16.0, 32.0, 64.0])
        for perm in itertools.permutations([0.031, 0.022, 0.015]):
            self.check(scales, np.array(perm))
        assert rank_correlation(scales, [0.031, 0.022, 0.015]) == -1.0

    def test_ties(self):
        rng = np.random.default_rng(3)
        for n in range(3, 25):
            for _ in range(20):
                self.check(rng.integers(0, 4, n).astype(float),
                           rng.integers(0, 3, n).astype(float))
        self.check([1.0, 2.0, 2.0], [0.5, 0.5, 0.7])

    def test_random_inputs(self):
        rng = np.random.default_rng(4)
        for n in range(3, 41):
            for _ in range(15):
                self.check(rng.normal(size=n), rng.normal(size=n) + rng.normal() * np.arange(n))

    def test_constant_input_is_nan(self):
        for x, y in (([2.0, 2.0, 2.0], [1.0, 3.0, 2.0]), ([1.0, 3.0, 2.0], [5.0] * 3),
                     ([0.0] * 7, [0.0] * 7)):
            assert math.isnan(rank_correlation(x, y))
            self.check(x, y)


class TestCltExperiment:
    def test_reports_slope_and_trend(self):
        from germgrain.cltstats import clt_experiment
        cfg = ModelConfig(0.3, fixed_disk(1.0), Window((0.0, 0.0), (1.0, 1.0)), seed=9)
        scales = (4.0, 8.0, 16.0)
        batches = {r: run_batch(cfg, r, 150) for r in scales}
        reports, slope, rho = clt_experiment(cfg, scales, 150, functional="v2",
                                             batches=batches)
        assert len(reports) == 3
        assert all(r.w1 > 0.0 for r in reports)
        assert math.isfinite(slope) and -1.0 <= rho <= 1.0

    def test_reports_do_not_depend_on_parallelism(self):
        from germgrain.cltstats import clt_experiment, run_batches
        cfg = ModelConfig(0.3, fixed_disk(1.0), Window((0.0, 0.0), (1.0, 1.0)), seed=9)
        scales = (3.0, 6.0, 9.0)
        one, two = (clt_experiment(cfg, scales, 101, functional="v1", parallelism=p)
                    for p in (1, 2))
        assert one[1:] == two[1:]

        def fields(rep):
            return (rep.scale, rep.reps, rep.mean, rep.variance, rep.var_per_area, rep.w1,
                    rep.ks, rep.standardized.tobytes())
        assert [fields(a) for a in one[0]] == [fields(b) for b in two[0]]

        def batch_fields(b):
            return b.scale, b.reps, b.window_area, b.seed, b.functionals.tobytes()
        assert ([batch_fields(b) for b in run_batches(cfg, scales, 101, parallelism=2)]
                == [batch_fields(run_batch(cfg, r, 101)) for r in scales])

    def test_rejects_small_samples(self):
        from germgrain.cltstats import clt_experiment
        cfg = ModelConfig(0.3, fixed_disk(1.0), Window((0.0, 0.0), (1.0, 1.0)), seed=9)
        with pytest.raises(ValueError):
            clt_experiment(cfg, (4.0,), 50)
