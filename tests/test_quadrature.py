import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from germgrain.quadrature import (_X21, QuadratureError, _gk21, adaptive_quad, gauss_legendre,
                                  legendre_rule)

PANEL_CASES = {
    "exp": (np.exp, 0.0, 1.0),
    "sqrt-kink": (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0),
    "cos30": (lambda x: np.cos(30.0 * x), 0.0, 1.0),
    "constant": (lambda x: np.full_like(x, 2.5), -1.0, 2.0),
}


class TestSinglePanel:
    @pytest.mark.parametrize("f, a, b", PANEL_CASES.values(), ids=PANEL_CASES.keys())
    def test_matches_quadpack_qk21(self, f, a, b):
        # with limit=1, QUADPACK returns its first qk21 value and error
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want, want_err = quad(f, a, b, limit=1)
        val, err = _gk21(f, np.array([a]), np.array([b]))
        assert val[0] == pytest.approx(want, rel=1e-15, abs=0.0)
        assert err[0] == pytest.approx(want_err, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("k", range(32))
    def test_integrates_polynomials_to_degree_31(self, k):
        val, _ = _gk21(lambda x: x ** k, np.array([0.0]), np.array([1.0]))
        assert val[0] == pytest.approx(1.0 / (k + 1), rel=1e-14)

    def test_gauss_nodes_are_legendre_10(self):
        gauss = np.sort(np.concatenate([_X21[1:10:2], _X21[11:20:2]]))
        np.testing.assert_allclose(gauss, np.polynomial.legendre.leggauss(10)[0],
                                   rtol=0, atol=1e-15)

    def test_zero_integrand_has_zero_error(self):
        val, err = _gk21(np.zeros_like, np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert val.tolist() == [0.0, 0.0] and err.tolist() == [0.0, 0.0]


class TestAdaptive:
    @pytest.mark.parametrize("f, points, exact", [
        (lambda x: np.abs(x - 0.3), [0.3], 0.5 * (0.3 ** 2 + 0.7 ** 2)),
        (lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), [1.0 / 3.0],
         2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)),
        (lambda x: np.maximum(x * x, 0.5), [math.sqrt(0.5)],
         0.5 * math.sqrt(0.5) + (1.0 - 0.5 ** 1.5) / 3.0),
    ], ids=["abs", "sqrt", "max-square"])
    def test_kinked_integrands_match_closed_forms(self, f, points, exact):
        val, err = adaptive_quad(f, 0.0, 1.0, epsabs=1e-12, points=points)
        assert val == pytest.approx(exact, rel=1e-11)
        assert abs(val - exact) <= err

    def test_interpolation_table_with_its_nodes_as_points(self):
        # linear on every panel, so each panel is exact to rounding
        rng = np.random.default_rng(3)
        xs = np.sort(np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, 200)]))
        ys = rng.uniform(-1.0, 1.0, xs.size)
        exact = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
        val, err = adaptive_quad(lambda s: np.interp(s, xs, ys), 0.0, 2.0,
                                 epsabs=1e-13, points=xs[1:-1])
        assert abs(val - exact) <= max(err, 1e-14)
        assert err < 1e-12

    def test_points_outside_the_interval_are_ignored(self):
        f = np.exp
        inside = adaptive_quad(f, 0.0, 1.0, epsabs=1e-13)
        assert adaptive_quad(f, 0.0, 1.0, epsabs=1e-13,
                             points=[-1.0, 0.0, 1.0, 2.5]) == inside
        assert inside[0] == pytest.approx(math.e - 1.0, rel=1e-14)

    @pytest.mark.parametrize("points", [
        [0.7, 0.3, 0.7, 0.3, 0.3],
        [0.0, 0.3, 1.0, 0.7, 0.0],
        [-2.0, 0.7, 5.0, 0.3, 1.5],
    ], ids=["repeated", "at-ends", "outside"])
    def test_cuts_are_the_sorted_distinct_kinks_inside(self, points):
        first = []

        def f(x):
            first.append(x[:, 0])
            return np.sqrt(np.abs(x - 0.3)) + np.abs(x - 0.7)
        split = adaptive_quad(f, 0.0, 1.0, epsabs=1e-13, points=[0.3, 0.7])
        first.clear()
        assert adaptive_quad(f, 0.0, 1.0, epsabs=1e-13, points=points) == split
        # the first round has one panel each on [0, 0.3], [0.3, 0.7] and [0.7, 1]
        assert len(first[0]) == 3 and np.all(np.diff(first[0]) > 0.0)

    @pytest.mark.parametrize("n", [1, 2, 8, 24, 48, 96, 129, 400, 2000])
    def test_legendre_rule_is_cached_and_read_only(self, n):
        # numpy's rule bit for bit, made without numpy.polynomial
        x, w = legendre_rule(n)
        assert legendre_rule(n)[0] is x
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
        with pytest.raises(ValueError):
            w[0] = 0.0
        nodes, weights = gauss_legendre(n, 1.0, 3.0)
        nodes[:] = weights[:] = -1.0  # a scaled rule is the caller's own copy
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()

    def test_unconverged_integral_raises_with_achieved_error(self):
        def f(x):
            return np.sin(1.0 / np.maximum(x, 1e-300))
        with pytest.raises(QuadratureError) as info:
            adaptive_quad(f, 0.0, 1.0, epsabs=1e-13, limit=10)
        assert info.value.achieved > 1e-11

    def test_nan_integrand_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_quad(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0, epsabs=1e-12)

    def test_integrand_gets_one_array_per_round(self):
        calls = []

        def f(x):
            calls.append(x.shape)
            return np.sqrt(np.abs(x - 0.55))
        limit = 25
        adaptive_quad(f, 0.0, 1.0, epsabs=1e-14, limit=limit, points=[0.2, 0.4])
        assert calls[0] == (3, 21)
        assert all(len(shape) == 2 and shape[1] == 21 for shape in calls)
        # every later round evaluates the two halves of each bisected panel
        assert all(rows % 2 == 0 for rows, _ in calls[1:])
        bisections = sum(rows // 2 for rows, _ in calls[1:])
        assert len(calls) - 1 <= bisections <= limit
