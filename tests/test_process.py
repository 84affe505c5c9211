import json
import math
import re
import shlex
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.stats import chi2

from germgrain import cli, cltstats, moments, process, union
from germgrain.geometry import (AlignedRect, ConvexPolygon, Disk, Grains, PlacedGrain, Window,
                                intrinsic_volumes, minkowski_sum_area, rotate_shape)
from germgrain.model import GrainDistribution, ModelConfig, ParamLaw, fixed_disk, unit_squares
from germgrain.process import (Chunk, EdgeEffectError, _uniform_in_dilation, empirical_capacity,
                               mean_hit_area, read_sample, replicate_rows, sample, theory_capacity,
                               write_sample)
from germgrain.rng import poisson_draw, replicate_rng
from germgrain.union import ReplicateError


class TestParamLaw:
    def test_moments(self):
        u = ParamLaw.uniform(1.0, 3.0)
        assert u.moment(1) == pytest.approx(2.0)
        assert u.moment(2) == pytest.approx((27.0 - 1.0) / 6.0)
        m = ParamLaw.mixture([1.0, 2.0], [0.25, 0.75])
        assert m.mean() == pytest.approx(1.75)
        assert m.support_max() == 2.0

    def test_jensen(self):
        for law in (ParamLaw.uniform(0.5, 2.0), ParamLaw.mixture([1, 3], [0.5, 0.5])):
            assert law.moment(2) >= law.mean() ** 2

    def test_expect_exact_for_polynomials(self):
        u = ParamLaw.uniform(0.5, 1.5)
        assert u.expect(lambda x: x ** 3) == pytest.approx(u.moment(3), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamLaw.uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            ParamLaw.mixture([1.0], [0.5])
        with pytest.raises(ValueError):
            ParamLaw.constant(0.0)

    @pytest.mark.parametrize("make", [
        lambda: ParamLaw.mixture([1.0, math.inf], [0.5, 0.5]),
        lambda: ParamLaw.mixture([1.0, 2.0], [math.nan, 1.0]),
        lambda: ParamLaw.mixture([1.0, math.nan], [0.5, 0.5])])
    def test_mixture_needs_finite_values_and_probs(self, make):
        # a NaN probability used to pass every check and make d0 nan
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: ParamLaw.constant(1e308), lambda: ParamLaw.constant(1e78),
        lambda: ParamLaw.uniform(1.0, 1e70), lambda: ParamLaw.mixture([1.0, 1e100], [0.5, 0.5])])
    def test_refuses_a_support_whose_4th_moment_overflows(self, make):
        with pytest.raises(ValueError, match="4th moment overflows"):
            make()
        assert math.isfinite(ParamLaw.constant(1e76).moment(4))


class TestPoissonDraw:
    @pytest.mark.parametrize("mean", [0.5, 7.0, 29.0, 31.0, 250.0])
    def test_mean_and_variance(self, mean):
        rng = replicate_rng(123, int(mean * 10))
        xs = np.array([poisson_draw(rng, mean) for _ in range(30000)])
        se_mean = math.sqrt(mean / len(xs))
        assert abs(xs.mean() - mean) < 4.0 * se_mean
        assert abs(xs.var() - mean) < 5.0 * mean * math.sqrt(2.0 / len(xs))

    def test_zero_mean(self):
        rng = replicate_rng(1, 1)
        assert poisson_draw(rng, 0.0) == 0

    def test_rejection_regime_distribution(self):
        # chi-square goodness of fit in the PTRS regime (above the switch)
        from scipy.stats import chi2, poisson
        rng = replicate_rng(13, 45)
        n = 60_000
        xs = np.array([poisson_draw(rng, 45.0) for _ in range(n)])
        lo, hi = 20, 75
        obs = np.bincount(np.clip(xs, lo, hi) - lo, minlength=hi - lo + 1)
        probs = poisson.pmf(np.arange(lo, hi + 1), 45.0)
        probs[0] = poisson.cdf(lo, 45.0)
        probs[-1] = poisson.sf(hi - 1, 45.0)
        exp = probs * n
        stat = float(np.sum((obs - exp) ** 2 / exp))
        p_value = 1.0 - chi2.cdf(stat, df=len(obs) - 1)
        assert p_value > 0.001

    def test_invalid_mean(self):
        rng = replicate_rng(1, 1)
        with pytest.raises(ValueError):
            poisson_draw(rng, -1.0)


class TestGrainDistribution:
    def test_disk_moments(self):
        d = GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5))
        m = d.moments()
        r = d.radius
        assert m.ev1 == pytest.approx(math.pi * r.moment(1))
        assert m.ev2 == pytest.approx(math.pi * r.moment(2))
        assert m.ev1sq >= m.ev1 ** 2  # Jensen
        assert m.mixed == pytest.approx(2.0 * m.ev1 ** 2 / math.pi)

    def test_rect_moments(self):
        d = unit_squares()
        m = d.moments()
        assert (m.ev1, m.ev2) == (2.0, 1.0)
        assert m.mixed == pytest.approx(2.0)  # 2 * E[a] * E[b] for full sides

    def test_isotropic_flags(self):
        assert fixed_disk(1.0).isotropic
        assert not unit_squares().isotropic
        assert unit_squares(rotate=True).isotropic

    def test_rmax_bounds_sampled_circumradius(self):
        d = GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.2, 0.6),
                              halfheight=ParamLaw.uniform(0.1, 0.4), rotate=True)
        rng = replicate_rng(5, 0)
        shapes = d.sample_shapes(rng, 500)
        assert max(shapes.reach) <= d.rmax + 1e-12

    def test_record_roundtrip(self):
        for d in (fixed_disk(1.0), unit_squares(rotate=True),
                  GrainDistribution("disk", radius=ParamLaw.mixture([0.5, 1.0], [0.3, 0.7])),
                  GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.2, 0.5),
                                    halfheight=ParamLaw.constant(1)),
                  GrainDistribution("fixed", shape=ConvexPolygon(((0, 0), (1, 0), (0, 1)))),
                  GrainDistribution("fixed", shape=AlignedRect(0.5, 1), rotate=True),
                  GrainDistribution("fixed", shape=Disk(2.0))):
            assert GrainDistribution.from_record(d.to_record()) == d
            rec = d.to_record()
            assert GrainDistribution.from_record(rec).to_record() == rec
            cfg = ModelConfig(0.5, d, Window((0, 1), (2, 3.5)), seed=7)
            assert ModelConfig.from_record(cfg.to_record()) == cfg
            assert ModelConfig.from_record(cfg.to_record()).to_record() == cfg.to_record()

    def test_record_fields_are_typed(self):
        rec = fixed_disk(1.0).to_record()
        assert rec == {"family": "disk", "rotate": False,
                       "radius": {"law": "constant", "value": 1.0}}
        for field, value, path in [("rotate", "false", "grains.rotate"),
                                   ("rotate", 1, "grains.rotate"),
                                   ("radius", {"law": "constant", "value": True},
                                    "grains.radius.value"),
                                   ("radiuss", rec["radius"], "grains.radiuss")]:
            with pytest.raises(ValueError, match=re.escape(path)):
                GrainDistribution.from_record(dict(rec, **{field: value}))
        with pytest.raises(ValueError, match="law.value: missing"):
            ParamLaw.from_record({"law": "constant"})
        with pytest.raises(ValueError, match="seed: expected an integer"):
            ModelConfig.from_record({"gamma": 0.5, "grains": rec, "seed": 2.0,
                                     "window": {"lo": [0, 0], "hi": [1, 1]}})


class TestSampling:
    CFG = ModelConfig(0.5, fixed_disk(1.0), Window((0.0, 0.0), (10.0, 10.0)), seed=42)

    def test_determinism(self):
        assert sample(self.CFG, 7).placed == sample(self.CFG, 7).placed

    def test_replicates_differ(self):
        assert sample(self.CFG, 0).placed != sample(self.CFG, 1).placed

    def test_germs_in_dilated_window(self):
        r = self.CFG.grains.rmax
        for k in range(20):
            for g in sample(self.CFG, k).placed:
                x, y = g.center
                dx = max(0.0 - x, x - 10.0, 0.0)
                dy = max(0.0 - y, y - 10.0, 0.0)
                assert dx * dx + dy * dy <= r * r + 1e-9

    def test_mean_count(self):
        mean = self.CFG.gamma * self.CFG.window.dilated_area(1.0)
        counts = [len(sample(self.CFG, k).placed) for k in range(600)]
        se = math.sqrt(mean / len(counts))
        assert abs(np.mean(counts) - mean) < 3.5 * se

    def test_sparse_limit_empty_probability(self):
        # gamma * dilated area = 0.01 -> P(empty) ~ 0.99
        win = Window((0.0, 0.0), (1.0, 1.0))
        gamma = 0.01 / win.dilated_area(0.1)
        cfg = ModelConfig(gamma, fixed_disk(0.1), win, seed=3)
        empty = sum(1 for k in range(10_000) if not sample(cfg, k).placed)
        p = math.exp(-0.01)
        se = math.sqrt(p * (1 - p) / 10_000)
        assert abs(empty / 10_000 - p) < 3.0 * se

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(0.0, fixed_disk(1.0), Window((0, 0), (1, 1)))

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed"):
            ModelConfig(0.5, fixed_disk(1.0), Window((0, 0), (1, 1)), seed=-3)
        with pytest.raises(ValueError, match="seed"):
            ModelConfig.from_record({"gamma": 0.5, "grains": fixed_disk(1.0).to_record(),
                                     "window": {"lo": [0, 0], "hi": [1, 1]}, "seed": -1})

    def test_isotropy_of_rotated_squares(self):
        # Edge-direction histogram of rotated squares is uniform on [0, pi/2).
        d = unit_squares(rotate=True)
        rng = replicate_rng(99, 0)
        v = d.sample_shapes(rng, 4000).loc.reshape(4000, 4, 2)
        e = v[:, 1] - v[:, 0]
        angles = np.arctan2(e[:, 1], e[:, 0]) % (math.pi / 2.0)
        hist, _ = np.histogram(angles, bins=16, range=(0.0, math.pi / 2.0))
        expected = len(angles) / 16.0
        stat = float(np.sum((hist - expected) ** 2 / expected))
        p_value = 1.0 - chi2.cdf(stat, df=15)
        assert p_value > 0.01


def _reference_sample(config, replicate):
    """The per-object draw: one PlacedGrain with a validated shape per grain,
    in the draw order count, germs, shape parameters, rotations."""
    rng = replicate_rng(config.seed, replicate)
    d, r = config.grains, config.grains.rmax
    n = poisson_draw(rng, config.gamma * config.window.dilated_area(r))
    germs = _uniform_in_dilation(rng, config.window, r, n)
    if d.family == "disk":
        shapes = [Disk(x) for x in d.radius.sample(rng, n)]
    else:
        if d.family == "rect":
            ws, hs = d.halfwidth.sample(rng, n), d.halfheight.sample(rng, n)
            shapes = [AlignedRect(w, h) for w, h in zip(ws, hs)]
        else:
            shapes = [d.shape] * n
        if d.rotate:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
            shapes = [rotate_shape(sh, a) for sh, a in zip(shapes, angles)]
    return tuple(PlacedGrain(c, sh) for c, sh in zip(germs, shapes))


PENTAGON = ConvexPolygon(((0.0, -0.6), (0.7, -0.2), (0.5, 0.5), (-0.3, 0.6), (-0.6, -0.1)))


class TestArrayDraw:
    @pytest.mark.parametrize("grains, tol", [
        (fixed_disk(1.0), 0.0),
        (GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5)), 0.0),
        (GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.2, 0.6),
                           halfheight=ParamLaw.constant(0.3)), 0.0),
        (GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.2, 0.6),
                           halfheight=ParamLaw.constant(0.3), rotate=True), 0.0),
        # ConvexPolygon recentres each rotated copy; the arrays do not.
        (GrainDistribution("fixed", shape=PENTAGON, rotate=True), 4.5e-16),
    ])
    def test_matches_per_object_draw(self, grains, tol):
        cfg = ModelConfig(0.5, grains, Window((0.0, 0.0), (8.0, 8.0)), seed=23)
        for k in range(5):
            s = sample(cfg, k)
            ref = _reference_sample(cfg, k)
            want = Grains.of(ref)
            for f in ("centres", "radius", "count") + (() if tol else ("loc",)):
                assert getattr(s.grains, f).tobytes() == getattr(want, f).tobytes()
            assert np.max(np.abs(s.grains.loc - want.loc), initial=0.0) <= tol
            assert s.placed == ref

    def test_hot_path_builds_no_grain_objects(self, monkeypatch, tmp_path):
        disks = ModelConfig(0.3, fixed_disk(1.0), Window((0.0, 0.0), (16.0, 16.0)), seed=3)
        probe = PlacedGrain((8.0, 8.0), Disk(1.5))
        squares = ModelConfig(0.5, unit_squares(rotate=True),
                              Window((0.0, 0.0), (16.0, 16.0)), seed=4)
        triangles = GrainDistribution("fixed", shape=ConvexPolygon(
            ((0.0, 0.0), (1.0, 0.0), (0.3, 0.9))), rotate=True)
        dumped = ModelConfig(0.3, triangles, Window((0.0, 0.0), (16.0, 16.0)), seed=1)
        few = ModelConfig(0.3, triangles, Window((0.0, 0.0), (4.0, 4.0)), seed=1)

        def refuse(*args, **kwargs):
            raise AssertionError("a per-grain object was built")
        for cls in (Disk, AlignedRect, ConvexPolygon, PlacedGrain):
            monkeypatch.setattr(cls, "__init__", refuse)
        assert replicate_rows(disks, cltstats._functionals, 3).shape == (3, 3)
        assert replicate_rows(squares, moments.density_rows, 3).shape == (3, 3)
        misses = replicate_rows(disks, partial(process._misses, probe), 3)
        assert misses.shape == (3,) and misses.dtype == bool
        write_sample(tmp_path / "dump.txt", sample(dumped, 0))
        s = sample(few, 0)
        assert 1 <= len(s.grains) <= 18
        assert union.inclusion_exclusion_measure(s.grains, few.window).v0 >= 1.0


class TestCapacity:
    def test_point_probe_is_volume_fraction(self):
        cfg = ModelConfig(0.7, fixed_disk(1.0), Window((0, 0), (8, 8)), seed=1)
        tiny = theory_capacity(cfg, Disk(1e-9))
        p = moments.volume_fraction(cfg.gamma, cfg.grains.moments().ev2)
        assert tiny == pytest.approx(1.0 - p, rel=1e-6)

    def test_unit_area_grains_point_probe(self):
        # gamma = 1, fixed unit-area grains: capacity of a point ~ e^{-1}
        side = math.sqrt(1.0) / 2.0
        cfg = ModelConfig(1.0, unit_squares(), Window((0, 0), (8, 8)), seed=1)
        assert theory_capacity(cfg, Disk(1e-12)) == pytest.approx(math.exp(-1.0), rel=1e-9)
        assert side == 0.5

    def test_disk_probe_closed_form(self):
        cfg = ModelConfig(0.1, fixed_disk(1.0), Window((0, 0), (8, 8)), seed=1)
        assert theory_capacity(cfg, Disk(1.0)) == pytest.approx(
            math.exp(-0.1 * 4.0 * math.pi), rel=1e-12)

    def test_mean_hit_area_isotropic_vs_direct(self):
        # isotropic closed form against the direct Minkowski path for disks
        d = GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.0))
        probe = AlignedRect(0.3, 0.5)
        direct = d.expect_shape(lambda k: minkowski_sum_area(k, probe))
        assert mean_hit_area(d, probe) == pytest.approx(direct, rel=1e-12)

    def test_empirical_matches_theory(self):
        cfg = ModelConfig(0.1, fixed_disk(1.0), Window((0, 0), (8, 8)), seed=12)
        est, se = empirical_capacity(cfg, Disk(1.0), (4.0, 4.0), 3000)
        assert abs(est - theory_capacity(cfg, Disk(1.0))) < 3.0 * se

    def test_sparse_limit(self):
        cfg = ModelConfig(1e-4, fixed_disk(0.5), Window((0, 0), (8, 8)), seed=2)
        est, _ = empirical_capacity(cfg, Disk(0.5), (4.0, 4.0), 300)
        assert est > 0.99

    def test_needs_a_replicate(self):
        cfg = ModelConfig(0.1, fixed_disk(1.0), Window((0, 0), (8, 8)), seed=1)
        for reps in (0, -3):
            with pytest.raises(ValueError, match="at least 1 replicate"):
                empirical_capacity(cfg, Disk(1.0), (4.0, 4.0), reps)

    def test_one_engine_call_per_chunk(self, monkeypatch):
        engine = union.arrangement_measure
        chunks = []

        def counting_engine(grains, *args, **kwargs):
            chunks.append(len(kwargs["counts"]))
            return engine(grains, *args, **kwargs)
        monkeypatch.setattr(union, "arrangement_measure", counting_engine)
        monkeypatch.setattr(process, "CHUNK_PRIMITIVES", 100)
        for grains in (fixed_disk(1.0), unit_squares(rotate=True)):
            cfg = ModelConfig(0.3, grains, Window((0, 0), (8, 8)), seed=1)
            reps = 30
            chunks.clear()
            empirical_capacity(cfg, Disk(1.0), (4.0, 4.0), reps)
            # replicate_rows closes a chunk once its samples hold
            # CHUNK_PRIMITIVES boundary primitives: one per disk, four per square.
            want, held = [0], 0
            for k in range(reps):
                if held >= 100:
                    want.append(0)
                    held = 0
                want[-1] += 1
                held += int(sample(cfg, k).grains.count.sum())
            assert len(want) > 1
            assert chunks == want

    def test_edge_effect_guard(self):
        cfg = ModelConfig(0.1, fixed_disk(1.0), Window((0, 0), (8, 8)), seed=1)
        with pytest.raises(EdgeEffectError):
            empirical_capacity(cfg, Disk(1.0), (1.5, 4.0), 10)

    def test_anisotropic_capacity_quadrature(self):
        d = GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.2, 0.4),
                              halfheight=ParamLaw.constant(0.3))
        probe = AlignedRect(0.25, 0.25)
        # rect + rect* closed form: 4 (w + wp)(h + hp), expectation exact
        want = 4.0 * (0.3 + 0.25) * (0.3 + 0.25)
        assert mean_hit_area(d, probe) == pytest.approx(want, rel=1e-12)


def _fails_at_replicate_7(window, chunk):
    """cltstats._functionals, except that replicate 7 on `window` fails like
    an engine check."""
    if chunk.window == window and 7 in chunk.replicates:
        raise ReplicateError("planted failure", chunk.replicates.index(7))
    return cltstats._functionals(chunk)


class TestChunkRecord:
    def test_holds_the_join_of_its_samples(self):
        cfg = ModelConfig(0.5, unit_squares(rotate=True), Window((0.0, 0.0), (8.0, 8.0)),
                          seed=5)
        samples = [sample(cfg, k) for k in (4, 5, 6, 9)]
        chunk = Chunk.of(samples)
        want = Grains.join(*(s.grains for s in samples))
        for f in ("centres", "radius", "count", "loc"):
            got = getattr(chunk.grains, f)
            assert got.dtype == getattr(want, f).dtype
            assert got.tobytes() == getattr(want, f).tobytes()
        assert chunk.counts.tolist() == [len(s.grains) for s in samples]
        assert chunk.window == cfg.window
        assert chunk.replicates == (4, 5, 6, 9)
        assert all(type(k) is int for k in chunk.replicates)

    def test_an_empty_sample_counts_zero(self):
        cfg = ModelConfig(0.3, fixed_disk(1.0), Window((0.0, 0.0), (8.0, 8.0)), seed=2)
        samples = [sample(cfg, k) for k in range(3)]
        samples[1] = replace(samples[1], grains=samples[1].grains.take(np.zeros(0, dtype=int)))
        chunk = Chunk.of(samples)
        assert chunk.counts.tolist() == [len(samples[0].grains), 0, len(samples[2].grains)]
        assert len(chunk.grains) == int(chunk.counts.sum())

    def test_never_mixes_windows(self):
        a = ModelConfig(0.4, fixed_disk(1.0), Window((0.0, 0.0), (8.0, 8.0)), seed=3)
        b = ModelConfig(0.4, fixed_disk(1.0), Window((0.0, 0.0), (4.0, 8.0)), seed=3)
        with pytest.raises(ValueError, match="share one window"):
            Chunk.of([sample(a, 1), sample(b, 0)])


class TestReplicateRows:
    CONFIGS = [ModelConfig(0.3, fixed_disk(1.0), Window((0.0, 0.0), (8.0, 8.0)), seed=3),
               ModelConfig(0.5, unit_squares(rotate=True), Window((0.0, 0.0), (9.0, 9.0)),
                           seed=4),
               ModelConfig(0.2, fixed_disk(0.5), Window((-2.0, 1.0), (5.0, 6.0)), seed=3)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reps", [0, -3])
    def test_needs_a_replicate_at_any_parallelism(self, workers, reps):
        with pytest.raises(ValueError, match=rf"reps={reps}: need at least 1 replicate"):
            replicate_rows(self.CONFIGS[0], cltstats._functionals, reps, workers)
        with pytest.raises(ValueError, match="reps"):
            replicate_rows(self.CONFIGS, cltstats._functionals, reps, workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_configs_share_a_pool_with_unchanged_rows(self, workers):
        reps = 7
        want = [replicate_rows(c, cltstats._functionals, reps) for c in self.CONFIGS]
        got = replicate_rows(self.CONFIGS, cltstats._functionals, reps, workers)
        assert isinstance(got, list) and len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == (reps, 3) and a.tobytes() == b.tobytes()
        one = replicate_rows(tuple(self.CONFIGS[1:2]), cltstats._functionals, reps, workers)
        assert len(one) == 1 and one[0].tobytes() == want[1].tobytes()

    # a fixed polygon law: the printed command has to carry its vertices
    TRIANGLES = ModelConfig(0.3, GrainDistribution("fixed", shape=ConvexPolygon(tuple(
        (0.8 * math.cos(a), 0.8 * math.sin(a)) for a in (0.5, 0.5 + 2.0 * math.pi / 3.0,
                                                         0.5 + 4.0 * math.pi / 3.0))),
        rotate=True), Window((0.0, 0.0), (10.0, 7.0)), seed=6)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("failing", [1, 3], ids=["rotated-squares", "rotated-triangles"])
    def test_failure_names_its_config_and_replicate(self, workers, failing, tmp_path,
                                                     monkeypatch):
        configs = self.CONFIGS + [self.TRIANGLES]
        cfg = configs[failing]
        with pytest.raises(RuntimeError) as info:
            replicate_rows(configs, partial(_fails_at_replicate_7, cfg.window), 10, workers)
        msg = str(info.value)
        assert msg.startswith("replicate 7 failed (planted failure)")
        (x0, y0), (x1, y1) = cfg.window.lo, cfg.window.hi
        assert f"--seed {cfg.seed} --window {x0} {y0} {x1} {y1} --replicate 7" in msg
        # the printed line runs as it stands and dumps the failing replicate's grains
        line = msg.split("reproduce its grains with ")[1]
        assert line.startswith("germgrain simulate ") and "<" not in line
        monkeypatch.chdir(tmp_path)
        assert cli.main(shlex.split(line)[1:]) == 0
        dumped, want = read_sample(tmp_path / "replicate-7.txt"), sample(cfg, 7)
        assert dumped.config == cfg and dumped.replicate == 7
        for f in ("centres", "radius", "count", "loc"):
            assert getattr(dumped.grains, f).tobytes() == getattr(want.grains, f).tobytes()


class TestStationarity:
    def test_coverage_probability_location_free(self):
        # empirical volume fraction at two distinct fixed points agrees
        # within Monte Carlo error
        cfg = ModelConfig(0.3, fixed_disk(1.0), Window((0.0, 0.0), (10.0, 10.0)), seed=44)
        pts = np.array([[2.0, 2.0], [7.3, 5.1]])
        n = 2500
        hits = np.zeros((n, 2))
        for k in range(n):
            s = sample(cfg, k)
            if s.placed:
                centers = np.array([g.center for g in s.placed])
                radii = np.array([g.shape.radius for g in s.placed])
                d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
                hits[k] = (d2 <= radii ** 2).any(axis=1)
        p_est = hits.mean(axis=0)
        se = math.sqrt(2.0 * p_est.mean() * (1 - p_est.mean()) / n)
        assert abs(p_est[0] - p_est[1]) < 3.5 * se
        p_th = 1.0 - math.exp(-0.3 * math.pi)
        assert abs(p_est.mean() - p_th) < 3.5 * se


class TestEdgeExactness:
    def test_enlarged_rmax_changes_nothing_in_distribution(self):
        # Means of measured area under the true bound vs an enlarged bound
        # agree within Monte Carlo error.
        from germgrain.union import arrangement_measure
        win = Window((0.0, 0.0), (12.0, 12.0))
        base = ModelConfig(0.3, fixed_disk(1.0), win, seed=61)
        padded_grains = GrainDistribution(
            "disk", radius=ParamLaw.mixture([1.0, 2.0], [1.0, 0.0]))  # rmax = 2, law = always 1
        padded = ModelConfig(0.3, padded_grains, win, seed=62)
        n = 250
        a1 = np.array([arrangement_measure(sample(base, k).placed, win).v2 for k in range(n)])
        a2 = np.array([arrangement_measure(sample(padded, k).placed, win).v2 for k in range(n)])
        se = math.hypot(a1.std() / math.sqrt(n), a2.std() / math.sqrt(n))
        assert abs(a1.mean() - a2.mean()) < 3.5 * se


class TestSampleIO:
    def test_roundtrip(self, tmp_path):
        for grains in (GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5)),
                       GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.2, 0.5),
                                         halfheight=ParamLaw.constant(0.3)),
                       GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.2, 0.5),
                                         halfheight=ParamLaw.constant(0.3), rotate=True)):
            cfg = ModelConfig(0.4, grains, Window((0, 0), (6, 6)), seed=8)
            s = sample(cfg, 2)
            p = tmp_path / "dump.txt"
            write_sample(p, s)
            s2 = read_sample(p)
            assert s2.config == cfg and s2.replicate == 2
            assert len(s2.placed) == len(s.placed)
            for a, b in zip(s.placed, s2.placed):
                assert a.center == pytest.approx(b.center)
                assert intrinsic_volumes(a.shape).as_array() == pytest.approx(
                    intrinsic_volumes(b.shape).as_array())
            again = tmp_path / "again.txt"
            write_sample(again, s2)
            assert again.read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("law", [
        fixed_disk(1.0), GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5)),
        unit_squares(rotate=True),
        GrainDistribution("fixed", shape=ConvexPolygon(tuple(
            (0.8 * math.cos(2.0 * math.pi * k / 3), 0.8 * math.sin(2.0 * math.pi * k / 3))
            for k in range(3))), rotate=True),
        GrainDistribution("fixed", shape=ConvexPolygon(tuple(
            (0.6 * math.cos(2.0 * math.pi * k / 6), 0.6 * math.sin(2.0 * math.pi * k / 6))
            for k in range(6))), rotate=True),
        GrainDistribution("fixed", shape=ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.3, 0.9))),
                          rotate=True),
    ], ids=["unit-disks", "uniform-disks", "rotated-squares", "rotated-triangles",
            "rotated-hexagons", "rotated-fixed-triangle"])
    def test_dump_reproduces_its_replicate_bit_for_bit(self, tmp_path, law):
        # a ConvexPolygon re-centres its vertices, so a dump written or read
        # through one would move a rotated triangle's vertices by ~1e-15
        cfg = ModelConfig(0.3, law, Window((0.0, 0.0), (16.0, 16.0)), seed=1)
        samples = [sample(cfg, k) for k in range(4)]
        p = tmp_path / "dump.txt"
        read = []
        for s in samples:
            write_sample(p, s)
            read.append(read_sample(p))
        for s, s2 in zip(samples, read):
            for field in ("centres", "radius", "count", "loc"):
                assert getattr(s2.grains, field).tobytes() == getattr(s.grains, field).tobytes()
        chunks = [Chunk.of(batch) for batch in (samples, read)]
        rows = [union.arrangement_measure(c.grains, c.window, counts=c.counts) for c in chunks]
        assert rows[1].tobytes() == rows[0].tobytes()

    def test_polygon_read_as_written_counterclockwise(self, tmp_path):
        # a hand-written clockwise triangle, not centred on its circumcircle:
        # the engines get its vertices where the file puts them, reordered
        cfg = ModelConfig(0.3, unit_squares(), Window((0.0, 0.0), (4.0, 4.0)), seed=1)
        tri = [[0.0, 0.0], [0.3, 0.9], [1.0, 0.0]]
        p = tmp_path / "dump.txt"
        p.write_text("# format: germgrain-sample-1\n"
                     f"# config: {json.dumps(cfg.to_record())}\n# count: 1\n"
                     f"2.0 2.0 {json.dumps({'kind': 'polygon', 'vertices': tri})}\n")
        grains = read_sample(p).grains
        assert grains.loc.tolist() == tri[::-1]
        assert union.arrangement_measure(grains, cfg.window).v2 == pytest.approx(0.45)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0 2.0 {\"kind\": \"disk\", \"radius\": 1.0}\n")
        with pytest.raises(ValueError):
            read_sample(p)

    def dump(self, tmp_path):
        cfg = ModelConfig(0.5, fixed_disk(1.0), Window((0, 0), (8, 8)), seed=8)
        p = tmp_path / "dump.txt"
        write_sample(p, sample(cfg, 0))
        return p, p.read_text().splitlines(keepends=True)

    def test_truncated_dump_rejected(self, tmp_path):
        p, lines = self.dump(tmp_path)
        assert len(read_sample(p).grains) == len(lines) - 4
        p.write_text("".join(lines[:-3]))
        with pytest.raises(ValueError, match=re.escape(str(p)) + ".*count"):
            read_sample(p)

    @pytest.mark.parametrize("line, field", [
        ("1.0 2.0\n", "shape: missing"), ("1.0\n", "y: missing"),
        ('1.0 2.0 {"kind": "disk"}\n', "shape.radius: missing"),
        ('1.0 NaN {"kind": "disk", "radius": 1.0}\n', "y: expected a finite number"),
        ('1.0 2.0 {"kind": "disk", "radius": 1.0, "x": 0}\n', "shape.x: unknown field")])
    def test_malformed_grain_line_named(self, tmp_path, line, field):
        p, lines = self.dump(tmp_path)
        p.write_text("".join(lines[:5] + [line] + lines[6:]))
        with pytest.raises(ValueError, match=re.escape(f"{p}:6: {field}")):
            read_sample(p)

    @pytest.mark.parametrize("n, header, field", [
        (2, "# replicate: x\n", "replicate"),
        (1, '# config: {"gamma": 0.5}\n', "config: grains: missing")])
    def test_malformed_header_named(self, tmp_path, n, header, field):
        p, lines = self.dump(tmp_path)
        p.write_text("".join(lines[:n] + [header] + lines[n + 1:]))
        with pytest.raises(ValueError, match=re.escape(f"{p}:{n + 1}: {field}")):
            read_sample(p)

    def test_wrong_format_rejected(self, tmp_path):
        p, lines = self.dump(tmp_path)
        assert lines[0] == "# format: germgrain-sample-1\n"
        p.write_text("# format: something-else\n" + "".join(lines[1:]))
        with pytest.raises(ValueError, match=re.escape(str(p)) + ".*format"):
            read_sample(p)

    def test_format_is_checked_before_the_config(self, tmp_path):
        # another format's config need not be ours: the format error comes first
        p, lines = self.dump(tmp_path)
        p.write_text("".join(["# format: something-else\n", '# config: {"gamma": 0.5}\n',
                              "# replicate: x\n"] + lines[3:]))
        with pytest.raises(ValueError, match=re.escape(f"{p}: format is 'something-else'")):
            read_sample(p)


def _seeded_law(seed):
    """A grain law of family (seed mod 5) with parameters drawn from seed:
    disk, rect, fixed disk, fixed rect or fixed polygon, each parameter law
    constant, uniform or a mixture, rotated or not.  A polygon has 3 to 8
    vertices, up to 1e6 across, centred up to 1e6 from the origin, listed
    clockwise or counterclockwise."""
    rng = np.random.default_rng(seed)

    def law():
        a = rng.uniform(0.1, 1.0)
        return (ParamLaw.constant(a), ParamLaw.uniform(a, a + rng.uniform(0.1, 1.0)),
                ParamLaw.mixture(rng.uniform(0.1, 1.0, 3), [0.2, 0.3, 0.5]))[rng.integers(3)]
    rotate, kind = bool(rng.integers(2)), seed % 5
    if kind == 0:
        return GrainDistribution("disk", radius=law())
    if kind == 1:
        return GrainDistribution("rect", halfwidth=law(), halfheight=law(), rotate=rotate)
    if kind == 2:
        return GrainDistribution("fixed", shape=Disk(rng.uniform(0.1, 1.0)), rotate=rotate)
    if kind == 3:
        return GrainDistribution("fixed", shape=AlignedRect(*rng.uniform(0.1, 1.0, 2)),
                                 rotate=rotate)
    n, size = rng.integers(3, 9), 10.0 ** rng.uniform(-1.0, 6.0)
    gaps = rng.uniform(0.2, 1.0, n)
    angles = np.cumsum(gaps) / gaps.sum() * 2.0 * math.pi + rng.uniform(0.0, 2.0 * math.pi)
    centre = rng.uniform(-1e6, 1e6, 2) * rng.integers(2)
    ellipse = np.column_stack([np.cos(angles), rng.uniform(0.3, 1.0) * np.sin(angles)])
    verts = centre + size * ellipse
    return GrainDistribution("fixed", shape=ConvexPolygon(tuple(
        map(tuple, verts[::-1] if rng.integers(2) else verts))), rotate=rotate)


class TestRecordFixedPoints:
    """A config, the config its record rebuilds and the config of its dump
    are one config: equal, drawing the same grains bit for bit, and dumping
    the same bytes."""

    @pytest.mark.parametrize("seed", range(40))
    def test_config_survives_its_record_and_its_dump(self, tmp_path, seed):
        law = _seeded_law(seed)
        side = 8.0 * law.rmax
        window = Window((-side, 2.0 * side), (side, 3.0 * side))
        cfg = ModelConfig(6.0 / window.dilated_area(law.rmax), law, window, seed=seed)
        back = ModelConfig.from_record(json.loads(json.dumps(cfg.to_record())))
        assert back == cfg and back.to_record() == cfg.to_record()
        s = sample(cfg, 3)
        for field in ("centres", "radius", "count", "loc"):
            assert getattr(sample(back, 3).grains, field).tobytes() == \
                getattr(s.grains, field).tobytes()
        p, again = tmp_path / "dump.txt", tmp_path / "again.txt"
        write_sample(p, s)
        read = read_sample(p)
        assert read.config == cfg
        write_sample(again, read)
        assert again.read_bytes() == p.read_bytes()
