"""Quadrature helpers: adaptive 1-D wrappers, Gauss-Legendre tensors and a
tanh-sinh rule for integrands with endpoint kinks."""

from __future__ import annotations

import math
import warnings

import numpy as np


class QuadratureError(RuntimeError):
    """Quadrature failed to reach its tolerance; carries the achieved error."""

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved error {achieved:.3e})")
        self.achieved = achieved


def adaptive_quad(f, a, b, epsabs, epsrel=1e-10, limit=200, points=None):
    from scipy.integrate import IntegrationWarning, quad  # lazy: only covariance integrates

    epsabs = max(epsabs, 1e-14)
    if points is not None:
        points = [p for p in points if a < p < b]
        points = points or None
    with warnings.catch_warnings():
        # Achieved error is checked explicitly below.
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                        points=points)
    if err > max(epsabs, abs(val) * epsrel) * 100.0:
        raise QuadratureError(f"integral on [{a}, {b}] did not converge", err)
    return val, err


def gauss_legendre(n, a, b):
    """Nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def tanh_sinh(f, a, b, level=7):
    """Tanh-sinh rule on [a, b]; nodes pile up at both endpoints, so endpoint
    kinks and integrable singularities converge fast.  f must be vectorized."""
    h = 1.0 / 2 ** (level - 3)
    k = np.arange(-int(3.8 / h), int(3.8 / h) + 1)
    t = k * h
    half_pi = 0.5 * math.pi
    u = np.tanh(half_pi * np.sinh(t))
    w = half_pi * np.cosh(t) / np.cosh(half_pi * np.sinh(t)) ** 2 * h
    mid, span = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + span * u
    inside = (x > a) & (x < b)
    return float(np.dot(w[inside], f(x[inside])) * span)
