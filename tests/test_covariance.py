import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.stats import qmc

from germgrain import covariance
from germgrain.cells import clip_cell, grain_constraints, window_cell
from germgrain.covariance import (AnisotropyError, AssemblyError, RhoTable, _blocks,
                                  _grid_lookup, _plane_integral, _rect_profiles,
                                  _shape_profiles, covariogram_functions, p_polynomial,
                                  phi_star, rho_0i, rho_11, rho_12, rho_22, rho_table,
                                  sigma_matrix, sigma_volume)
from germgrain.geometry import (AlignedRect, ConvexPolygon, Disk, PlacedGrain, Window,
                                boundary_covariogram, covariogram, disk_covariogram,
                                intrinsic_volumes)
from germgrain.model import GrainDistribution, ModelConfig, ParamLaw, fixed_disk, unit_squares
from germgrain.process import sample
from germgrain.union import arrangement_measure

DISK1 = fixed_disk(1.0)
GAMMA = 0.3


class TestPPolynomials:
    def test_pdd_is_one(self):
        assert p_polynomial(2, 2, []) == 1.0

    def test_pjj_is_one(self):
        assert p_polynomial(0, 0, [1.0, 2.0]) == 1.0
        assert p_polynomial(1, 1, [2.0]) == 1.0

    def test_p12_reproduces_recentred_surface_functional(self):
        # P_{1,2}(t1) = -t1, verified through the recentred functional
        # identity V1*(K) = -(1-p) V1(K) + (1-p) V1bar V2(K).
        assert p_polynomial(1, 2, [0.7]) == pytest.approx(-0.7, rel=1e-14)
        m = DISK1.moments()
        v1b = GAMMA * m.ev1
        q = math.exp(-GAMMA * m.ev2)
        K = Disk(1.3)
        iv = intrinsic_volumes(K)
        want = -q * iv.v1 + q * v1b * iv.v2
        assert phi_star(1, K, GAMMA, DISK1) == pytest.approx(want, rel=1e-12)

    def test_p0k_values(self):
        t0, t1 = 0.4, 0.9
        assert p_polynomial(0, 1, [t0, t1]) == pytest.approx(-2.0 * t1 / math.pi)
        assert p_polynomial(0, 2, [t0, t1]) == pytest.approx(-t0 + t1 * t1 / math.pi)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            p_polynomial(2, 1, [])
        with pytest.raises(ValueError):
            p_polynomial(0, 3, [1.0, 1.0])


class TestRhoLimits:
    def test_gamma_zero(self):
        assert rho_22(0.0, DISK1)[0] == 0.0
        assert rho_12(0.0, DISK1)[0] == 0.0
        assert rho_11(0.0, DISK1)[0] == 0.0

    def test_small_gamma_leading_terms(self):
        g = 1e-6
        m = DISK1.moments()
        assert rho_22(g, DISK1)[0] == pytest.approx(g * m.ev2sq, rel=1e-4)
        assert rho_12(g, DISK1)[0] == pytest.approx(g * m.ev1v2, rel=1e-4)
        assert rho_11(g, DISK1)[0] == pytest.approx(g * m.ev1sq, rel=1e-4)
        assert rho_0i(g, DISK1, 1) == pytest.approx(g * m.ev1, rel=1e-4)
        assert rho_0i(g, DISK1, 0) == pytest.approx(g, rel=1e-4)
        assert rho_0i(g, DISK1, 2) == pytest.approx(g * m.ev2, rel=1e-4)

    def test_rho02_unit_exponent(self):
        # gamma chosen so gamma * E V2 = 1: e - 1
        d = fixed_disk(1.0)
        assert rho_0i(1.0 / math.pi, d, 2) == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_rho0i_isotropy_guard(self):
        sq = unit_squares()
        assert rho_0i(0.3, sq, 2) > 0.0  # i = d is isotropy-free
        with pytest.raises(AnisotropyError):
            rho_0i(0.3, sq, 1)


class TestSigmaVolumeOracle:
    def test_qmc_integration_oracle_four_digits(self):
        # Independent quasi-Monte Carlo integration of the same integrand
        # (scrambled Sobol, polar transform).  Dev run at 2^21 points gave
        # 3.73911000 vs quadrature 3.73910986 (3.5e-8 relative).
        val, err = rho_22(GAMMA, DISK1)
        ss = np.linspace(0.0, 2.0, 4097)
        tab = np.array([disk_covariogram(1.0, s) for s in ss])
        sob = qmc.Sobol(d=2, scramble=True, seed=99)
        u = sob.random(2 ** 19)
        r = 2.0 * u[:, 1]
        integrand = np.expm1(GAMMA * np.interp(r, ss, tab)) * r * (2.0 * math.pi * 2.0)
        est = float(integrand.mean())
        assert abs(est - val) / val < 5e-5  # 4 significant digits
        assert val == pytest.approx(3.73910986, rel=1e-6)

    def test_sigma_volume_prefactor(self):
        val, _ = rho_22(GAMMA, DISK1)
        sv, _ = sigma_volume(GAMMA, DISK1)
        q = math.exp(-GAMMA * math.pi)
        assert sv == pytest.approx(q * q * val, rel=1e-13)

    def test_gamma_zero(self):
        assert sigma_volume(0.0, DISK1)[0] == 0.0

    def test_quadrature_convergence_reported(self):
        val, err = rho_22(GAMMA, DISK1)
        assert err < 1e-8 * val

    # The right triangle's covariogram is even, g(t) = g(-t), but mirror-
    # symmetric in neither axis, so no single quadrant stands for the plane.
    TRIANGLE = GrainDistribution("fixed", shape=ConvexPolygon(((0.0, 0.0), (1.0, 0.0),
                                                               (0.0, 1.0))))

    def test_asymmetric_law_small_gamma_limit(self):
        # rho22 = gamma v2^2 + gamma^2/2 int g^2 + O(gamma^3), with
        # int g^2 = 1/20 for this triangle (scipy, _triangle_integral)
        g = 1e-6
        val, err = rho_22(g, self.TRIANGLE)
        want = g * 0.25 + g * g / 40.0
        assert val == pytest.approx(want, rel=1e-3)
        assert abs(val - want) <= err

    def test_asymmetric_law_matches_closed_form_covariogram(self):
        # scipy on the closed-form covariogram L^2 / 2, split at the line
        # tx + ty = 0 where it kinks (and at the axes)
        oracle, oracle_err = _triangle_integral(lambda c2, c1: math.expm1(GAMMA * c2))
        val, err = rho_22(GAMMA, self.TRIANGLE)
        assert abs(val - oracle) <= err + oracle_err + 1e-15 * oracle
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_polygon_law_matches_rect_law(self):
        # The unit square as a polygon takes the polar plane rule and the
        # edge-clip covariogram, the rect law Cartesian panels and closed
        # forms; each error covers its gap to the closed form.
        square = ConvexPolygon(((0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)))
        polygon, rect = GrainDistribution("fixed", shape=square), unit_squares()
        want = _unrotated_squares_rho22(GAMMA)
        q = math.exp(-GAMMA * rect.moments().ev2)
        for f, exact in ((rho_22, want), (sigma_volume, q * q * want)):
            (pv, pe), (rv, re) = f(GAMMA, polygon), f(GAMMA, rect)
            assert pv == pytest.approx(rv, rel=1e-12)
            assert pe >= abs(pv - exact) and re >= abs(rv - exact)


@pytest.fixture(scope="module")
def mc():
    rng = np.random.default_rng(7)
    n = 1_500_000
    ss = np.linspace(0.0, 2.0, 4097)
    tab = np.array([disk_covariogram(1.0, s) for s in ss])
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    x = np.column_stack([np.cos(th), np.sin(th)])
    rr = np.sqrt(rng.uniform(0.0, 1.0, n))
    ph = rng.uniform(0.0, 2.0 * math.pi, n)
    z = np.column_stack([rr * np.cos(ph), rr * np.sin(ph)])
    d = np.hypot(*(x - z).T)
    return rng, ss, tab, x, d


class TestRhoMCOracles:

    def test_rho12_against_mc(self, mc):
        rng, ss, tab, x, d = mc
        vals = np.exp(GAMMA * np.interp(d, ss, tab))
        v1 = v2 = math.pi
        est = GAMMA * v1 * v2 * vals.mean()
        se = GAMMA * v1 * v2 * vals.std() / math.sqrt(len(vals))
        got, _ = rho_12(GAMMA, DISK1)
        assert abs(got - est) < max(4.0 * se, 5e-4 * got)  # 3 significant digits
        assert got == pytest.approx(4.208496, rel=2e-5)

    def test_rho11_against_mc(self, mc):
        rng, ss, tab, x, d = mc
        prof = covariogram_functions(DISK1)
        vals = np.exp(GAMMA * np.interp(d, ss, tab))
        c1d = GAMMA * prof.g1(d)
        v1 = math.pi
        est_a = GAMMA * v1 * math.pi * (vals * c1d).mean()
        th2 = rng.uniform(0.0, 2.0 * math.pi, len(d))
        y2 = np.column_stack([np.cos(th2), np.sin(th2)])
        d2 = np.hypot(*(x - y2).T)
        vals_b = np.exp(GAMMA * np.interp(d2, ss, tab))
        est_b = GAMMA * v1 * v1 * vals_b.mean()
        se = GAMMA * v1 * v1 * math.hypot((vals * c1d).std(), vals_b.std()) / math.sqrt(len(d))
        got, _ = rho_11(GAMMA, DISK1)
        assert abs(got - (est_a + est_b)) < max(4.0 * se, 5e-4 * got)
        assert got == pytest.approx(5.362506, rel=2e-4)

    def test_small_gamma_limits_tensor_paths(self):
        # boundary x body / boundary x boundary tensor quadratures for
        # square grains, pinned by the constant-integrand limits
        g = 1e-6
        for dist in (unit_squares(rotate=True), unit_squares()):
            m = dist.moments()
            assert rho_12(g, dist)[0] == pytest.approx(g * m.ev1v2, rel=1e-4)
        mr = unit_squares(rotate=True).moments()
        assert rho_11(g, unit_squares(rotate=True))[0] == pytest.approx(
            g * mr.ev1sq, rel=1e-4)

    def test_rho12_rect_standalone_but_refused_in_sigma(self):
        sq = unit_squares()
        val, _ = rho_12(GAMMA, sq)  # standalone anisotropic evaluation allowed
        m = sq.moments()
        assert val > GAMMA * m.ev1v2  # exp factor only increases it
        with pytest.raises(AnisotropyError):
            sigma_matrix(GAMMA, sq)


class TestRho01SeriesOracle:
    def test_truncated_series_with_poisson_tail(self):
        # Direct MC evaluation of the defining inner-product series, terms
        # n <= 4 by translative Monte Carlo integration; the remainder is
        # bounded by the Poisson tail gamma*pi*(e^{gamma pi} - partial).
        rng = np.random.default_rng(2024)
        bigw = Window((-8.0, -8.0), (8.0, 8.0))

        def v1_intersection(translations):
            cell = window_cell(bigw)
            for p in [(0.0, 0.0)] + list(translations):
                cell = clip_cell(cell, grain_constraints(p, 1.0, np.zeros((1, 2))))
                if cell is None:
                    return 0.0
            return cell.functionals()[1]

        partial = GAMMA * math.pi  # n = 1 term exactly
        ses = []
        for n in (2, 3, 4):
            m = 12_000
            vol = (4.0 * math.pi) ** (n - 1)
            rr = np.sqrt(rng.uniform(0.0, 1.0, (m, n - 1))) * 2.0
            ph = rng.uniform(0.0, 2.0 * math.pi, (m, n - 1))
            xs = np.stack([rr * np.cos(ph), rr * np.sin(ph)], axis=-1)
            vals = np.array([v1_intersection(map(tuple, xs[k])) for k in range(m)])
            terms = (GAMMA ** n / math.factorial(n)) * vol * vals
            partial += terms.mean()
            ses.append(terms.std() / math.sqrt(m))
        tail = GAMMA * math.pi * (math.exp(GAMMA * math.pi)
                                  - sum((GAMMA * math.pi) ** k / math.factorial(k)
                                        for k in range(4)))
        formula = rho_0i(GAMMA, DISK1, 1)
        assert formula == pytest.approx(math.exp(GAMMA * math.pi) * GAMMA * math.pi, rel=1e-13)
        assert abs(formula - partial) <= tail + 3.0 * math.hypot(*ses)
        assert formula >= partial - 3.0 * math.hypot(*ses)  # positive terms


class TestPhiStar:
    def test_j2_closed_form(self):
        m = DISK1.moments()
        p = 1.0 - math.exp(-GAMMA * m.ev2)
        K = Disk(2.0)
        assert phi_star(2, K, GAMMA, DISK1) == pytest.approx(
            -(1.0 - p) * intrinsic_volumes(K).v2, rel=1e-13)

    def test_empty_body(self):
        assert phi_star(1, None, GAMMA, DISK1) == 0.0

    def test_j1_against_simulation_disk_window(self):
        # M C estimate of E V1(Z n K) - V1(K) with a disk observation body.
        K = Disk(1.0)
        mask = PlacedGrain((6.0, 6.0), K)
        win = Window((0.0, 0.0), (12.0, 12.0))
        cfg = ModelConfig(GAMMA, DISK1, win, seed=88)
        n = 900
        vals = np.empty(n)
        for k in range(n):
            s = sample(cfg, k)
            near = [g for g in s.placed
                    if math.hypot(g.center[0] - 6.0, g.center[1] - 6.0) < 2.0 + 1e-9]
            vals[k] = arrangement_measure(near, win, mask=mask).v1
        est = vals.mean() - intrinsic_volumes(K).v1
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(est - phi_star(1, K, GAMMA, DISK1)) < 3.0 * se

    def test_anisotropic_guard(self):
        with pytest.raises(AnisotropyError):
            phi_star(0, Disk(1.0), GAMMA, unit_squares())


class TestSigmaMatrix:
    def test_symmetry_and_consistency(self):
        cm = sigma_matrix(GAMMA, DISK1)
        assert np.array_equal(cm.matrix, cm.matrix.T)
        sv, _ = sigma_volume(GAMMA, DISK1)
        assert cm.matrix[2, 2] == pytest.approx(sv, rel=1e-12)

    def test_positive_definite_disk(self):
        cm = sigma_matrix(GAMMA, DISK1)
        L = cm.cholesky()
        assert np.all(np.isfinite(L))

    def test_small_gamma_gram_structure(self):
        # leading order gamma * Gram matrix of (V0, V1, V2) moments
        g = 1e-4
        d = DISK1
        m = d.moments()
        gram = np.array([
            [1.0, m.ev1, m.ev2],
            [m.ev1, m.ev1sq, m.ev1v2],
            [m.ev2, m.ev1v2, m.ev2sq],
        ])
        cm = sigma_matrix(g, d)
        assert cm.matrix / g == pytest.approx(gram, rel=2e-3)

    def test_diagonal_positivity_over_gamma_grid(self):
        for gamma in (0.05, 0.3, 1.0):
            cm = sigma_matrix(gamma, DISK1)
            assert np.all(np.diag(cm.matrix) > 0.0)

    def test_radius_law_supported(self):
        d = GrainDistribution("disk", radius=ParamLaw.uniform(0.6, 1.2))
        cm = sigma_matrix(0.25, d)
        np.linalg.cholesky(cm.matrix)

    def test_isotropized_squares_supported(self):
        cm = sigma_matrix(0.3, unit_squares(rotate=True))
        np.linalg.cholesky(cm.matrix)

    def test_assembly_cross_check_detects_corruption(self):
        cm = sigma_matrix(GAMMA, DISK1)
        direct_12 = (-math.exp(-GAMMA * math.pi) ** 2 * GAMMA * math.pi
                     * cm.rho.values[2, 2]
                     + math.exp(-GAMMA * math.pi) ** 2 * cm.rho.values[1, 2])
        assert cm.matrix[1, 2] == pytest.approx(direct_12, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rho_is_refused(self, monkeypatch, bad):
        # a NaN passes every relative cross-check (each comparison is false)
        table = rho_table(GAMMA, DISK1)
        values = table.values.copy()
        values[1, 1] = bad
        monkeypatch.setattr(covariance, "rho_table", lambda gamma, dist: RhoTable(values, {}))
        with pytest.raises(AssemblyError, match="non-finite covariance at gamma 0.3"):
            sigma_matrix(GAMMA, DISK1)

    @pytest.mark.parametrize("gamma, dist", [(113.0, DISK1), (354.5, unit_squares(rotate=True))])
    def test_refuses_a_mean_coverage_past_the_limit(self, gamma, dist):
        with pytest.raises(ValueError, match=f"gamma {gamma!r} and E v2"):
            sigma_matrix(gamma, dist)
        for rho in (rho_22, rho_12, rho_11):
            with pytest.raises(ValueError, match="above the covariance's limit 354"):
                rho(gamma, dist)
        for i in range(3):
            with pytest.raises(ValueError, match="above the covariance's limit 354"):
                rho_0i(gamma, dist, i)

    @pytest.mark.parametrize("gamma", [1e-8, 1e-11, 1e-14, 1e-20])
    @pytest.mark.parametrize("dist", [DISK1, unit_squares(rotate=True)],
                             ids=["unit-disks", "rotated-squares"])
    def test_assembles_at_small_intensity(self, gamma, dist):
        # the direct (0, 2) form takes p = 1 - exp(-gamma E V2) without
        # cancellation, so it still agrees with the assembly at tiny gamma
        cm = sigma_matrix(gamma, dist)
        assert cm.matrix[0, 0] / gamma == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("rotate", [True, False])
    def test_fixed_disk_law_is_the_disk_law(self, rotate):
        fixed = sigma_matrix(GAMMA, GrainDistribution("fixed", shape=Disk(1.0), rotate=rotate))
        want = sigma_matrix(GAMMA, DISK1)
        assert fixed.matrix.tobytes() == want.matrix.tobytes()
        assert fixed.rho.values.tobytes() == want.rho.values.tobytes()
        assert fixed.rho.errors == want.rho.errors

    def test_radial_symmetry_of_isotropized_profiles(self):
        # the C2 profile of an isotropic law must agree with the direct
        # rotation-averaged covariogram at any direction of the same norm
        from germgrain.geometry import AlignedRect, covariogram
        sqr = unit_squares(rotate=True)
        prof = covariogram_functions(sqr)
        base = AlignedRect(0.5, 0.5)
        for s in (0.3, 0.8, 1.2):
            ths = np.linspace(0.0, math.pi, 2048, endpoint=False)
            direct = np.mean([covariogram(base, (s * math.cos(t_), s * math.sin(t_)))
                              for t_ in ths])
            assert float(prof.g2(s)) == pytest.approx(direct, rel=2e-3, abs=1e-4)

    def test_quadrature_convergence_against_dense_rule(self):
        # the adaptive result must sit within its reported error of a dense
        # fixed rule at twice the resolution
        from germgrain.quadrature import gauss_legendre
        val, err = rho_22(GAMMA, DISK1)
        xs, ws = gauss_legendre(2000, 0.0, 2.0)
        dense = 2.0 * math.pi * float(
            ws @ (np.expm1(GAMMA * np.array([disk_covariogram(1.0, s) for s in xs])) * xs))
        assert abs(val - dense) <= max(10.0 * err, 1e-10)


RADIUS_LAWS = {
    "constant": ParamLaw.constant(1.0),
    "uniform": ParamLaw.uniform(0.5, 1.5),
    "discrete": ParamLaw.mixture((0.6, 1.0, 1.4), (0.2, 0.5, 0.3)),
}


def _scalar_disk_profiles(law, t):
    """The disk profiles' definition, one abscissa at a time: the atoms of a
    point mass or mixture, scipy quad split at the kink r = t/2 for the
    uniform law."""
    kernels = (lambda r: disk_covariogram(r, t),
               lambda r: r * math.acos(min(t / (2.0 * r), 1.0)) if t < 2.0 * r else 0.0)
    if law.kind != "uniform":
        return tuple(law.expect(k) for k in kernels)
    a, b = law.args
    points = [t / 2.0] if a < t / 2.0 < b else None
    return tuple(quad(k, a, b, points=points, epsabs=0.0, epsrel=1e-13, limit=200)[0] / (b - a)
                 for k in kernels)


class TestDiskProfiles:
    @pytest.mark.parametrize("law", RADIUS_LAWS.values(), ids=RADIUS_LAWS.keys())
    def test_array_profiles_match_scalar_definition(self, law):
        prof = covariogram_functions(GrainDistribution("disk", radius=law))
        lo = 2.0 * (law.args[0] if law.kind != "discrete" else min(law.args[0]))
        # s = 0, s/2 = a, s/2 = b (the cutoff), beyond the cutoff, and between
        ss = np.concatenate([[0.0, lo, prof.cutoff, 1.1 * prof.cutoff],
                             np.linspace(0.0, 1.05 * prof.cutoff, 44)])
        want = np.array([_scalar_disk_profiles(law, t) for t in ss]).T
        for g, ref in zip((prof.g2, prof.g1), want):
            got = np.array([g(t) for t in ss])
            assert all(np.ndim(g(t)) == 0 for t in ss[:4])
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(g(ss), ref, rtol=1e-13, atol=1e-15)
            grid = g(ss.reshape(6, 8))
            assert grid.shape == (6, 8)
            np.testing.assert_allclose(grid.ravel(), ref, rtol=1e-13, atol=1e-15)
        assert prof.g2(1.1 * prof.cutoff) == 0.0 and prof.g1(prof.cutoff) == 0.0

    def test_uniform_profile_is_the_discrete_mixture_limit(self):
        n = 2000
        mids = 0.5 + (np.arange(n) + 0.5) / n
        mixture = GrainDistribution("disk", radius=ParamLaw.mixture(mids, np.full(n, 1.0 / n)))
        uniform = covariogram_functions(
            GrainDistribution("disk", radius=RADIUS_LAWS["uniform"]))
        limit = covariogram_functions(mixture)
        ss = np.linspace(0.0, 3.1, 63)
        np.testing.assert_allclose(uniform.g2(ss), limit.g2(ss), rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(uniform.g1(ss), limit.g1(ss), rtol=0.0, atol=2e-6)


def _lens_antiderivative(r, c):
    q = math.sqrt(r * r - c * c)
    return (2.0 / 3.0) * (r ** 3 * math.acos(c / r) - 2.0 * c * r * q + c ** 3 * math.log(r + q))


def _arc_antiderivative(r, c):
    q = math.sqrt(r * r - c * c)
    return 0.5 * (r * r * math.acos(c / r) - c * q)


def _oracle_profiles(law):
    """Scalar closed-form disk profiles g2, g1 and their kinks."""
    if law.kind == "uniform":
        a, b = law.args

        def average(antiderivative):
            return lambda s: (0.0 if s >= 2.0 * b else
                              (antiderivative(b, s / 2.0)
                               - antiderivative(max(a, s / 2.0), s / 2.0)) / (b - a))
        return average(_lens_antiderivative), average(_arc_antiderivative), [2.0 * a, 2.0 * b]
    values, probs = ((law.args[0],), (1.0,)) if law.kind == "constant" else law.args
    return (lambda s: sum(p * disk_covariogram(v, s) for v, p in zip(values, probs)),
            lambda s: sum(p * v * math.acos(s / (2.0 * v)) for v, p in zip(values, probs)
                          if s < 2.0 * v),
            [2.0 * v for v in values])


def _rho_oracle(law, gamma):
    """(rho22, rho12, rho11) of a disk law by scipy quad of the closed-form
    profiles: plane integrals as radial ones, and rho11's boundary x boundary
    term over the full chord angle [0, 2 pi] of each radius, split at pi and
    where the chord crosses a profile kink."""
    g2, g1, kinks = _oracle_profiles(law)
    tol = dict(epsabs=0.0, epsrel=1e-13, limit=200)

    def plane(f):
        return 2.0 * math.pi * quad(lambda s: f(s) * s, 0.0, max(kinks), points=kinks, **tol)[0]

    def boundary_pairs(r):
        psi = [2.0 * math.asin(k / (2.0 * r)) for k in kinks if k < 2.0 * r]
        pts = sorted(psi + [math.pi] + [2.0 * math.pi - p for p in psi])
        return 0.5 * gamma * math.pi * r * r * quad(
            lambda p: math.exp(gamma * g2(2.0 * r * math.sin(0.5 * p))),
            0.0, 2.0 * math.pi, points=pts, **tol)[0]
    if law.kind == "uniform":
        a, b = law.args
        term_b = quad(boundary_pairs, a, b, **tol)[0] / (b - a)
    else:
        values, probs = ((law.args[0],), (1.0,)) if law.kind == "constant" else law.args
        term_b = sum(p * boundary_pairs(v) for v, p in zip(values, probs))
    return (plane(lambda s: math.expm1(gamma * g2(s))),
            plane(lambda s: math.exp(gamma * g2(s)) * gamma * g1(s)),
            plane(lambda s: math.exp(gamma * g2(s)) * (gamma * g1(s)) ** 2) + term_b)


class TestDiskLawOracle:
    @pytest.mark.parametrize("gamma", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("law", RADIUS_LAWS.values(), ids=RADIUS_LAWS.keys())
    def test_rho_table_matches_quad_oracle(self, law, gamma):
        table = rho_table(gamma, GrainDistribution("disk", radius=law))
        for (i, j), name, want in zip(((2, 2), (1, 2), (1, 1)), ("rho22", "rho12", "rho11"),
                                      _rho_oracle(law, gamma)):
            got, err = table.values[i, j], table.errors[f"{name}_quadrature"]
            assert got == pytest.approx(want, rel=1e-10)
            assert abs(got - want) <= err


ROTATED_HEXAGON = GrainDistribution("fixed", shape=ConvexPolygon(tuple(
    (math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6))), rotate=True)
ROTATED_RECTS = GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.3, 0.6),
                                  halfheight=ParamLaw.constant(0.5), rotate=True)
UNIFORM_DISKS = GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5))


class TestRhoPins:
    """rho tables at gamma 0.3.  The uniform disks' entries are the scipy quad
    oracle of their closed-form profiles (see TestDiskLawOracle).  The
    rotated squares' are the program's values, 2.4e-7 (2, 2), 5.0e-6 (1, 2)
    and 4.6e-7 (1, 1) relative above the closed-form oracle of
    TestRotatedSquaresOracle, within its bounds; their (2, 2) entry is also
    the exact integral of the tabulated profile (see
    test_tabulated_rho22_is_the_table_integral)."""

    @pytest.mark.parametrize("dist, want", [
        (UNIFORM_DISKS,
         {(2, 2): 5.647374053497943, (1, 2): 5.352324283178176, (1, 1): 6.094202066668875}),
        (unit_squares(rotate=True),
         {(1, 1): 1.4296182582943278, (1, 2): 0.6645460951298946, (2, 2): 0.32110299168323314}),
    ], ids=["uniform-disks", "rotated-squares"])
    def test_rho_table(self, dist, want):
        values = rho_table(GAMMA, dist).values
        for (i, j), v in want.items():
            assert values[i, j] == pytest.approx(v, rel=1e-10)
            assert values[j, i] == values[i, j]

    @pytest.mark.parametrize("dist", [unit_squares(rotate=True), ROTATED_HEXAGON],
                             ids=["rotated-squares", "rotated-hexagon"])
    def test_tabulated_rho22_is_the_table_integral(self, dist):
        # the profile is linear between grid nodes, so 16 Gauss-Legendre
        # points per grid panel integrate exp(linear) * s to rounding
        prof = covariogram_functions(dist)
        nodes = np.concatenate([[0.0], prof.kinks, [prof.cutoff]])
        x, w = np.polynomial.legendre.leggauss(16)
        half = 0.5 * np.diff(nodes)
        s = half[:, None] * x + 0.5 * (nodes[1:] + nodes[:-1])[:, None]
        oracle = 2.0 * math.pi * float(half @ (np.expm1(GAMMA * prof.g2(s)) * s @ w))
        assert rho_22(GAMMA, dist)[0] == pytest.approx(oracle, rel=1e-12)


def _square_g2(s):
    """Matheron's rotation-averaged covariogram of the unit square."""
    if s <= 1.0:
        return 1.0 - 4.0 * s / math.pi + s * s / math.pi
    if s >= math.sqrt(2.0):
        return 0.0
    a, b = math.acos(1.0 / s), math.asin(1.0 / s)
    return 2.0 / math.pi * ((b - a) - 1.0 + 2.0 * math.sqrt(s * s - 1.0) - 0.5 * s * s)


def _square_g1(s):
    """Rotation-averaged boundary covariogram of the unit square (the
    average over theta of the half-length of the square's boundary inside
    its translate by s u(theta))."""
    if s <= 1.0:
        return 1.0 - 2.0 * s / math.pi
    if s >= math.sqrt(2.0):
        return 0.0
    a, b = math.acos(1.0 / s), math.asin(1.0 / s)
    return 2.0 / math.pi * ((b - a) - s * (math.sin(b) - math.sin(a)))


def _square_rho_oracle(gamma):
    """(rho22, rho12, rho11) of rotated unit squares by scipy quad of the
    closed-form profiles, split at their kink s = 1, and rho11's boundary x
    boundary term by quad and dblquad over its 16 ordered edge pairs: 4 of
    one edge with itself, 8 adjacent and 4 opposite."""
    tol = dict(epsabs=0.0, epsrel=1e-13, limit=200)

    def plane(f):
        return 2.0 * math.pi * sum(quad(lambda s: f(s) * s, lo, hi, **tol)[0]
                                   for lo, hi in ((0.0, 1.0), (1.0, math.sqrt(2.0))))

    def e(s):
        return math.exp(gamma * _square_g2(s))
    same = 2.0 * quad(lambda s: (1.0 - s) * e(s), 0.0, 1.0, **tol)[0]
    adjacent = dblquad(lambda v, u: e(math.hypot(u, v)), 0.0, 1.0, 0.0, 1.0,
                       epsabs=0.0, epsrel=1e-12)[0]
    opposite = dblquad(lambda v, u: e(math.hypot(u - v, 1.0)), 0.0, 1.0, 0.0, 1.0,
                       epsabs=0.0, epsrel=1e-12)[0]
    term_b = 0.25 * gamma * (4.0 * same + 8.0 * adjacent + 4.0 * opposite)
    return (plane(lambda s: math.expm1(gamma * _square_g2(s))),
            plane(lambda s: e(s) * gamma * _square_g1(s)),
            plane(lambda s: e(s) * (gamma * _square_g1(s)) ** 2) + term_b)


class TestRotatedSquaresOracle:
    """Rotated unit squares against closed forms that share no code with the
    program's tables and rules."""

    def test_profiles_are_exact_at_the_table_nodes(self):
        prof = covariogram_functions(unit_squares(rotate=True))
        ss = np.linspace(0.0, prof.cutoff, 2049)
        np.testing.assert_allclose(prof.g2(ss), [_square_g2(s) for s in ss],
                                   rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(prof.g1(ss), [_square_g1(s) for s in ss],
                                   rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 1.0])
    def test_rho_table_matches_oracle(self, gamma):
        table = rho_table(gamma, unit_squares(rotate=True))
        bounds = {"rho22": 1e-6, "rho12": 1e-5, "rho11": 2e-6}
        for (i, j), name, want in zip(((2, 2), (1, 2), (1, 1)), bounds,
                                      _square_rho_oracle(gamma)):
            got, err = table.values[i, j], table.errors[f"{name}_quadrature"]
            assert abs(got - want) <= bounds[name] * want
            assert abs(got - want) <= err


def _unrotated_squares_rho22(gamma):
    """rho22 of unrotated unit squares: C2(t) = gamma (1 - |tx|)(1 - |ty|) on
    the support [-1, 1]^2, so rho22 = 4 int int expm1(gamma u v) over [0, 1]^2."""
    return 4.0 * dblquad(lambda v, u: math.expm1(gamma * u * v), 0.0, 1.0, 0.0, 1.0,
                         epsabs=0.0, epsrel=1e-13)[0]


class TestUnrotatedSquaresOracle:
    def test_rho22_matches_closed_form(self):
        want = _unrotated_squares_rho22(GAMMA)
        got, err = rho_22(GAMMA, unit_squares())
        assert got == pytest.approx(want, rel=1e-12)
        assert abs(got - want) <= err + 1e-15 * want


def _unrotated_squares_rho12(gamma):
    """4 ((e^gamma - 1) / gamma - 1): on the quadrant C2 = gamma u v and
    C1 = gamma (u + v) / 2 with u = 1 - tx, v = 1 - ty, and
    int exp(gamma u v) gamma u dv = e^(gamma u) - 1.  Summed as the series
    4 sum_k gamma^k / (k + 1)!, which does not cancel at small gamma."""
    return 4.0 * math.fsum(gamma ** k / math.factorial(k + 1) for k in range(1, 40))


def _unrotated_squares_rho11(gamma):
    """rho11 of unrotated unit squares by scipy.  Term A is
    4 int int exp(gamma u v) (gamma (u + v) / 2)^2 over [0, 1]^2.  Term B is
    gamma / 4 times the boundary x boundary integral of exp(C2(y - z)) over
    the 16 ordered edge pairs: an edge with itself
    2 int (1 - s) exp(gamma (1 - s)) ds, 8 adjacent pairs
    int int exp(gamma a b), and 4 opposite pairs 1, as C2 vanishes at
    |ty| = 1."""
    tol = dict(epsabs=0.0, epsrel=1e-13)
    term_a = 4.0 * dblquad(lambda v, u: math.exp(gamma * u * v) * (0.5 * gamma * (u + v)) ** 2,
                           0.0, 1.0, 0.0, 1.0, **tol)[0]
    same = 2.0 * quad(lambda s: (1.0 - s) * math.exp(gamma * (1.0 - s)), 0.0, 1.0, **tol)[0]
    adjacent = dblquad(lambda b, a: math.exp(gamma * a * b), 0.0, 1.0, 0.0, 1.0, **tol)[0]
    return term_a + 0.25 * gamma * (4.0 * same + 8.0 * adjacent + 4.0)


def _triangle_fields(tx, ty):
    """(g2, g1) of the right triangle (0, 0), (1, 0), (0, 1) in closed form.
    K and K + t meet in a right isosceles triangle of legs
    L = min(1, 1 + tx + ty) - max(0, tx) - max(0, ty), of area L^2 / 2.  Of
    K's boundary, the leg on y = 0 lies partly inside K + t where ty < 0, the
    leg on x = 0 where tx < 0, and the hypotenuse where tx + ty > 0."""
    top = min(1.0, 1.0 + tx + ty)
    legs = max(top - max(0.0, tx) - max(0.0, ty), 0.0)
    inside = ((ty < 0.0) * max(top - max(0.0, tx), 0.0)
              + (tx < 0.0) * max(top - max(0.0, ty), 0.0)
              + (tx + ty > 0.0) * math.sqrt(2.0) * max(min(1.0, 1.0 - ty) - max(0.0, tx), 0.0))
    return 0.5 * legs * legs, 0.5 * inside


def _triangle_integral(f):
    """int f(g2(t), g1(t)) dt over the plane for the right triangle, by scipy
    dblquad: (value, error).  The lines tx = 0, ty = 0 and tx + ty = 0, where
    the closed forms change branch, cut the support K - K (the hexagon of
    the vertices below) into six triangles on which the integrand is smooth."""
    corners = [(1.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, -1.0)]
    val = err = 0.0
    for (px, py), (qx, qy) in zip(corners, corners[1:] + corners[:1]):
        v, e = dblquad(lambda b, a: f(*_triangle_fields(a * px + b * qx, a * py + b * qy)),
                       0.0, 1.0, 0.0, lambda a: 1.0 - a, epsabs=0.0, epsrel=1e-13)
        val, err = val + abs(px * qy - py * qx) * v, err + abs(px * qy - py * qx) * e
    return val, err


HEXAGON = GrainDistribution("fixed", shape=ROTATED_HEXAGON.shape)
UNIFORM_RECTS = GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.3, 0.6),
                                  halfheight=ParamLaw.constant(0.5))
ANISOTROPIC = {"unrotated-squares": unit_squares(), "uniform-rects": UNIFORM_RECTS,
               "hexagon": HEXAGON, "right-triangle": TestSigmaVolumeOracle.TRIANGLE}


def _hexagon_integral(f):
    """int f(g2(t), g1(t)) dt over the plane for the regular hexagon of
    circumradius 1 with a vertex on the x axis, by nested scipy quad in polar
    coordinates: (value, error).  Its covariograms have the hexagon's 12
    symmetries, so the plane is 12 times the sector 0 <= theta <= pi/6.
    Each ray is split where it crosses a line n . t = a or 2a (a the apothem,
    n the edge normals at pi/6, pi/2 and 5 pi/6), where g2 kinks and g1
    jumps, and ends on the boundary of K - K, r = 2a / cos(theta - pi/6)."""
    shape, a = HEXAGON.shape, math.sqrt(3.0) / 2.0
    tol = dict(epsabs=0.0, limit=200)

    def ray(theta):
        u = (math.cos(theta), math.sin(theta))
        end = 2.0 * a / math.cos(theta - math.pi / 6.0)
        cross = [d / abs(math.cos(theta - phi)) for d in (a, 2.0 * a)
                 for phi in (math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0)]
        return quad(lambda r: r * f(covariogram(shape, (r * u[0], r * u[1])),
                                    boundary_covariogram(shape, (r * u[0], r * u[1]))),
                    0.0, end, points=[r for r in cross if r < end], epsrel=1e-13, **tol)[0]
    val, err = quad(ray, 0.0, math.pi / 6.0, epsrel=1e-12, **tol)
    return 12.0 * val, 12.0 * err


def _uniform_rects_integral(f):
    """int f(g2(t), g1(t)) dt over the plane for UNIFORM_RECTS, by nested
    scipy quad over the quadrant, taken four times: (value, error).  g2 and
    g1 average the closed forms of AlignedRect(w, 0.5) over the halfwidth
    law's expectation rule (its nodes w and weights), and kink at every 2w."""
    w, p = UNIFORM_RECTS.halfwidth.rule()

    def fields(x, y):
        reach = float(np.maximum(2.0 * w - x, 0.0) @ p)
        return reach * (1.0 - y), 0.5 * (float((2.0 * w > x) @ p) * (1.0 - y) + reach)
    val, err = quad(lambda x: quad(lambda y: f(*fields(x, y)), 0.0, 1.0, epsabs=0.0,
                                   epsrel=1e-13)[0],
                    0.0, 2.0 * w.max(), points=2.0 * w, epsabs=0.0, epsrel=1e-12, limit=200)
    return 4.0 * val, 4.0 * err


_REFERENCES = {"uniform-rects": _uniform_rects_integral, "hexagon": _hexagon_integral,
               "right-triangle": _triangle_integral}


def _hexagon_boundary_pairs(gamma):
    """int int exp(gamma g2(y - z)) over pairs of boundary points y, z of
    HEXAGON, by scipy: (value, error).  g2 has the hexagon's symmetries, so
    its 36 ordered edge pairs are 6 of an edge e with itself, each
    2 int_0^1 (1 - u) exp(gamma g2(u e)) du, and 12 adjacent, 12 second-
    neighbour and 6 opposite pairs, each a dblquad over the edges' unit
    parameters."""
    verts = np.array(HEXAGON.shape.vertices)
    edges = np.roll(verts, -1, axis=0) - verts
    tol = dict(epsabs=0.0, epsrel=1e-12)

    def e(t):
        return math.exp(gamma * covariogram(HEXAGON.shape, tuple(t)))
    parts = [quad(lambda u: (1.0 - u) * e(u * edges[0]), 0.0, 1.0, limit=200, **tol)]
    parts += [dblquad(lambda v, u: e(verts[0] + u * edges[0] - verts[j] - v * edges[j]),
                      0.0, 1.0, 0.0, 1.0, **tol) for j in (1, 2, 3)]
    return tuple(float(np.dot([12.0, 12.0, 12.0, 6.0], x)) for x in zip(*parts))


def _uniform_rects_boundary_pairs(gamma):
    """int int exp(C2(y - z)) over pairs of boundary points y, z for
    UNIFORM_RECTS by scipy, averaged over the halfwidth rule's nodes w:
    (value, error).  C2(t) = gamma F(|tx|) (1 - |ty|)+ with
    F(x) = E(2w' - x)+ over the halfwidth law, kinked at every 2w'.  Of the
    16 ordered edge pairs of AlignedRect(w, 0.5):
      * a side of length 2w with itself: 2 int_0^2w (2w - r) exp(gamma F(r)) dr;
      * a side of length 1 with itself: 2 int_0^1 (1 - r) exp(gamma F(0) (1 - r)) dr;
      * the two long sides, 1 apart: (2w)^2, as C2 vanishes there;
      * the two short sides, 2w apart: 2 int_0^1 (1 - r) exp(gamma F(2w) (1 - r)) dr;
      * 8 adjacent pairs: int_0^2w int_0^1 exp(gamma F(a) b) db da, whose
        inner integral is expm1(c) / c with c = gamma F(a)."""
    nodes, probs = UNIFORM_RECTS.halfwidth.rule()
    tol = dict(epsabs=0.0, epsrel=1e-13, limit=200)

    def F(x):
        return float(np.maximum(2.0 * nodes - x, 0.0) @ probs)

    def side(c):
        return quad(lambda r: 2.0 * (1.0 - r) * math.exp(c * (1.0 - r)), 0.0, 1.0, **tol)

    def pairs(w):
        kinks = 2.0 * nodes[nodes < w]
        parts = [quad(lambda r: 2.0 * (2.0 * w - r) * math.exp(gamma * F(r)), 0.0, 2.0 * w,
                      points=kinks, **tol),
                 side(gamma * F(0.0)), side(gamma * F(2.0 * w)), ((2.0 * w) ** 2, 0.0),
                 quad(lambda a: math.expm1(gamma * F(a)) / (gamma * F(a)), 0.0, 2.0 * w,
                      points=kinks, **tol)]
        return [float(np.dot([2.0, 2.0, 2.0, 2.0, 8.0], x)) for x in zip(*parts)]
    return tuple(probs @ np.array([pairs(w) for w in nodes]))


_BOUNDARY_PAIRS = {"uniform-rects": _uniform_rects_boundary_pairs,
                   "hexagon": _hexagon_boundary_pairs}


def _count_plane_blocks(monkeypatch):
    """The list that gets _BLOCK_ELEMENTS at each block the plane rule evaluates."""
    blocks, plane_integral = [], _plane_integral

    def counted(dist, gamma, F):
        def block(c2, c1):
            blocks.append(covariance._BLOCK_ELEMENTS)
            return F(c2, c1)
        return plane_integral(dist, gamma, block)
    monkeypatch.setattr(covariance, "_plane_integral", counted)
    return blocks


class TestAnisotropicPlaneRule:
    """An anisotropic law's rho22, rho12 and rho11 term A are plane integrals
    of the fields C2 and C1, by one rule on panels that follow their kinks,
    with an error from half as many nodes."""

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 1.0])
    def test_unrotated_squares_match_closed_forms(self, gamma):
        assert rho_12(gamma, unit_squares())[0] == pytest.approx(
            _unrotated_squares_rho12(gamma), rel=1e-12)
        assert rho_11(gamma, unit_squares())[0] == pytest.approx(
            _unrotated_squares_rho11(gamma), rel=1e-12)

    @pytest.mark.parametrize("name", _REFERENCES)
    def test_other_laws_match_scipy_within_their_errors(self, name):
        dist = ANISOTROPIC[name]
        for f, integrand in ((rho_22, lambda c2, c1: math.expm1(GAMMA * c2)),
                             (rho_12, lambda c2, c1: math.exp(GAMMA * c2) * GAMMA * c1)):
            want, want_err = _REFERENCES[name](integrand)
            got, err = f(GAMMA, dist)
            assert abs(got - want) <= err + want_err + 1e-15 * want, f.__name__

    @pytest.mark.parametrize("name", _BOUNDARY_PAIRS)
    def test_rho11_matches_scipy_within_its_error(self, name):
        # term A is a plane integral, term B gamma/4 times the boundary pairs'
        area, area_err = _REFERENCES[name](lambda c2, c1: math.exp(GAMMA * c2) * (GAMMA * c1) ** 2)
        pairs, pairs_err = _BOUNDARY_PAIRS[name](GAMMA)
        want = area + 0.25 * GAMMA * pairs
        got, err = rho_11(GAMMA, ANISOTROPIC[name])
        assert abs(got - want) <= err + area_err + 0.25 * GAMMA * pairs_err + 1e-15 * want

    def test_error_covers_the_rounding_of_the_value(self):
        # the rect law's 16- and 8-node rules agree to the last bit, which
        # its 32-node rule does not
        val, err = rho_22(GAMMA, UNIFORM_RECTS)
        finer = covariance._rect_plane(UNIFORM_RECTS, GAMMA, lambda c2, c1: np.expm1(c2), 32)
        assert val != finer and abs(val - finer) <= err

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("name", ANISOTROPIC)
    def test_errors_are_small_numbers(self, name, gamma):
        for f in (rho_22, rho_12):
            val, err = f(gamma, ANISOTROPIC[name])
            assert isinstance(err, float) and err <= 1e-6 * val

    def test_hexagon_entries_keep_their_time_limits(self):
        for f, limit in ((rho_22, 0.5), (rho_12, 0.5), (rho_11, 1.0)):
            t0 = time.perf_counter()
            f(GAMMA, HEXAGON)
            assert time.perf_counter() - t0 <= limit, f.__name__

    def test_polar_values_do_not_depend_on_the_block_size(self, monkeypatch):
        # 4 rays a block against whole angle panels: the same bits
        blocks = _count_plane_blocks(monkeypatch)

        def values():
            return np.array([f(GAMMA, d) for d in (HEXAGON, ANISOTROPIC["right-triangle"])
                             for f in (rho_22, rho_12)])
        want, default = values(), len(blocks)
        monkeypatch.setattr(covariance, "_BLOCK_ELEMENTS", 7 * 36)
        got = values()
        assert got.tobytes() == want.tobytes()
        assert len(blocks) - default > 2 * default


LAW_KINDS = {"disks": UNIFORM_DISKS, "rects": UNIFORM_RECTS, "rotated-rects": ROTATED_RECTS,
             "polygon": HEXAGON, "rotated-polygon": ROTATED_HEXAGON}


@pytest.mark.parametrize("dist", LAW_KINDS.values(), ids=LAW_KINDS.keys())
def test_rho_entries_are_two_finite_floats(dist):
    for f in (rho_22, rho_12, rho_11):
        value, err = f(GAMMA, dist)
        assert type(value) is float and type(err) is float, f.__name__
        assert math.isfinite(value) and 0.0 < err < math.inf, f.__name__


def scaled_laws(k):
    """Unit and uniform(0.5, 1.5) disks, unit squares and the triangle (0, 0),
    (1, 0), (0.3, 0.9), the last two unrotated and rotated, with every length
    times 2^k, exactly."""
    half = ParamLaw.constant(math.ldexp(0.5, k))
    triangle = ConvexPolygon(tuple(map(tuple, np.ldexp([(0.0, 0.0), (1.0, 0.0), (0.3, 0.9)], k))))
    return {"unit disks": fixed_disk(math.ldexp(1.0, k)),
            "uniform disks": GrainDistribution("disk", radius=ParamLaw.uniform(
                math.ldexp(0.5, k), math.ldexp(1.5, k))),
            "squares": GrainDistribution("rect", halfwidth=half, halfheight=half),
            "rotated squares": GrainDistribution("rect", halfwidth=half, halfheight=half,
                                                 rotate=True),
            "triangle": GrainDistribution("fixed", shape=triangle),
            "rotated triangle": GrainDistribution("fixed", shape=triangle, rotate=True)}


@pytest.mark.parametrize("k", [-300, -40, 40, 200])
def test_rho_entries_scale_with_the_grains(k):
    # lengths times 2^k and gamma times 4^-k keep gamma E v2, and scale rho_22,
    # rho_12 and rho_11 and their errors by 4^k, 2^k and 1, bit for bit.  A
    # uniform radius law's closed-form profiles take logarithms of lengths,
    # so its values agree to 1e-14 relative, and its errors, differences of
    # two rules, to 1e-4.
    unit, laws = scaled_laws(0), scaled_laws(k)
    for name, dist in laws.items():
        for f, power in ((rho_22, 2), (rho_12, 1), (rho_11, 0)):
            value, err = (math.ldexp(x, power * k) for x in f(GAMMA, unit[name]))
            got = f(math.ldexp(GAMMA, -2 * k), dist)
            if name == "uniform disks":
                assert got == (pytest.approx(value, rel=1e-14, abs=0.0),
                               pytest.approx(err, rel=1e-4, abs=0.0)), f.__name__
            else:
                assert got == (value, err), (name, f.__name__)


class TestRectProfiles:
    """A rect law's tables come from closed forms, which agree with the
    angle panels of a polygon's tables at every node."""

    @pytest.mark.parametrize("w, h, cutoff", [
        (0.5, 0.5, math.sqrt(2.0)), (0.35, 0.15, 2.0 * math.hypot(0.35, 0.15)),
        *[(w, 0.5, 2.0 * ROTATED_RECTS.rmax) for w in ROTATED_RECTS.halfwidth.rule()[0]]])
    def test_closed_forms_are_the_angle_panels_at_the_nodes(self, w, h, cutoff):
        rect, ss = AlignedRect(w, h), np.linspace(0.0, cutoff, 2049)
        np.testing.assert_allclose(_rect_profiles(rect, ss), _shape_profiles(rect, ss),
                                   rtol=0.0, atol=1e-14)


class TestTabulatedPolygonLaws:
    @pytest.mark.parametrize("dist", [ROTATED_HEXAGON, ROTATED_RECTS],
                             ids=["rotated-hexagon", "rotated-uniform-rects"])
    def test_sigma_matrix_is_positive_definite(self, dist):
        cm = sigma_matrix(GAMMA, dist)
        assert np.all(np.linalg.eigvalsh(cm.matrix) > 0.0)
        # the error covers the table's interpolation, so it is not rounding
        for name, (i, j) in (("rho22", (2, 2)), ("rho12", (1, 2)), ("rho11", (1, 1))):
            assert 0.0 < cm.rho.errors[f"{name}_quadrature"] < 1e-4 * cm.rho.values[i, j]

    def test_rotated_triangle_does_not_see_its_base_orientation(self):
        # the rotation group holds theta + pi, so a shape and its turn by pi
        # are one isotropic law, although g1_K(-t) != g1_K(t) for K != -K
        tri = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        dists = [GrainDistribution("fixed", shape=ConvexPolygon(tuple((sign * x, sign * y)
                                                                    for x, y in tri)),
                                   rotate=True) for sign in (1.0, -1.0)]
        base, turned = (covariogram_functions(d) for d in dists)
        ss = np.linspace(0.0, base.cutoff, 301)
        for g, h in ((base.g2, turned.g2), (base.g1, turned.g1)):
            np.testing.assert_allclose(g(ss), h(ss), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(rho_table(GAMMA, dists[0]).values,
                                   rho_table(GAMMA, dists[1]).values, rtol=1e-14, atol=0.0)

    def test_rotated_hexagon_does_not_see_its_base_orientation(self):
        # the angle panels split where the covariograms change form, so the
        # tables are exact at their nodes whatever the base orientation
        turned = GrainDistribution("fixed", shape=ConvexPolygon(tuple(
            (math.cos(0.3 + k * math.pi / 3.0), math.sin(0.3 + k * math.pi / 3.0))
            for k in range(6))), rotate=True)
        base, other = sigma_matrix(GAMMA, ROTATED_HEXAGON), sigma_matrix(GAMMA, turned)
        np.testing.assert_allclose(other.matrix, base.matrix, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(other.rho.values, base.rho.values, rtol=1e-12, atol=0.0)

    def test_rotated_hexagon_takes_under_a_second(self):
        t0 = time.perf_counter()
        sigma_matrix(GAMMA, ROTATED_HEXAGON)
        assert time.perf_counter() - t0 <= 1.0


class TestGridLookup:
    """The profile lookup finds the node by division; its values are
    np.interp's, bit for bit."""

    @pytest.mark.parametrize("n", [513, 2049])
    def test_equals_np_interp_bit_for_bit(self, n):
        rng = np.random.default_rng(20231)
        cutoff = 2.0 * math.hypot(0.6, 0.5)
        ss = np.linspace(0.0, cutoff, n)
        # rough decreasing steps, one table ending at 0 like a profile and one
        # not, so that the cutoff node and the 0.0 past it differ
        tables = [np.cumsum(rng.random(n)[::-1])[::-1] * scale for scale in (1e-3, 0.7)]
        tables[0] -= tables[0][-1]
        s = np.concatenate([
            rng.uniform(-0.1 * cutoff, 1.2 * cutoff, 5000), ss,
            np.nextafter(ss, np.inf), np.nextafter(ss, -np.inf),
            [0.0, -0.0, cutoff, np.nextafter(cutoff, np.inf), 1.5 * cutoff, 1e300,
             -1.0, -5e-324, -1e300, np.inf, -np.inf, np.nan]])
        block = s[:len(s) // 4 * 4].reshape(-1, 4)
        # each table, and its every other node as a profile's coarse table
        for grid, t in [(ss[::step], t[::step]) for t in tables for step in (1, 2)]:
            lookup = _grid_lookup(grid, t)
            for x in (s, block, 0.3 * cutoff, np.array(0.7 * cutoff), -0.0, cutoff):
                got, want = lookup(x), np.interp(x, grid, t, right=0.0)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestBlocks:
    @pytest.mark.parametrize("n, width", [(2049, 64), (513, 1728), (2304, 48), (96, 1),
                                          (3, 1), (13824, 10 ** 6)])
    def test_blocks_cover_the_range_in_multiples_of_four(self, n, width):
        blocks = _blocks(n, width)
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        step = blocks[0].stop - blocks[0].start
        assert step % 4 == 0 or len(blocks) == 1
        assert all(b.stop - b.start == step for b in blocks[:-1])
        assert step <= blocks[-1].stop - blocks[-1].start < 2 * step or len(blocks) == 1

    def test_values_do_not_depend_on_the_block_size(self, monkeypatch):
        # blocks of 4 rows or columns, the smallest, and the hexagon's
        # covariograms taken 7 translations at a time give the same bits;
        # so does the uniform disks' boundary x boundary term, 8 chord
        # angles x 24 radii at a time
        blocks = _count_plane_blocks(monkeypatch)

        def values():
            covariogram_functions.cache_clear()
            cm = sigma_matrix(GAMMA, unit_squares(rotate=True))
            prof = covariogram_functions(ROTATED_HEXAGON)
            ss = np.linspace(0.0, prof.cutoff, 513)
            return np.concatenate([cm.matrix.ravel(), cm.rho.values.ravel(),
                                   prof.g2(ss), prof.g1(ss), rho_22(GAMMA, unit_squares()),
                                   rho_12(GAMMA, unit_squares())[:1],
                                   rho_11(GAMMA, UNIFORM_DISKS)])
        want = values()
        monkeypatch.setattr(covariance, "_BLOCK_ELEMENTS", 7 * 36)
        got = values()
        covariogram_functions.cache_clear()
        assert got.tobytes() == want.tobytes()
        # not vacuous: both runs evaluated the plane rule of the unrotated
        # squares' rho_22 and rho_12, at _PLANE_NODES and half as many (an
        # isotropic law takes the radial path)
        assert blocks == [1 << 13] * 4 + [7 * 36] * 4

    @pytest.mark.parametrize("dist", [unit_squares(rotate=True), ROTATED_HEXAGON],
                             ids=["rotated-squares", "rotated-hexagon"])
    def test_sigma_matrix_memory_is_bounded(self, dist):
        # the profile tables and tensor rules go in fixed-size blocks, so
        # their temporaries stay small whatever the grid (tracemalloc counts
        # numpy's buffers, deterministically)
        covariogram_functions.cache_clear()
        tracemalloc.start()
        try:
            sigma_matrix(GAMMA, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
