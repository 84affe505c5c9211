import math

import numpy as np
import pytest
from scipy.stats import qmc

from germgrain.cells import PlacedGrain, Window, clip_cell, grain_constraints, window_cell
from germgrain.covariance import (AnisotropyError, covariogram_functions,
                                  p_polynomial, phi_star, rho_0i, rho_11,
                                  rho_12, rho_22, sigma_matrix, sigma_volume)
from germgrain.geometry import Disk, disk_covariogram, intrinsic_volumes
from germgrain.process import (GrainDistribution, ModelConfig, ParamLaw,
                               fixed_disk, sample, unit_squares)
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
                cell = clip_cell(cell, grain_constraints(PlacedGrain(p, Disk(1.0))))
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
