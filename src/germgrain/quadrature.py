"""Quadrature helpers: an adaptive Gauss-Kronrod rule for array-valued
integrands and Gauss-Legendre rules.

The adaptive rule is the 21-point Gauss-Kronrod pair of QUADPACK's qk21
(Piessens et al. 1983) with its error estimate, applied to every panel of a
round at once: the integrand is called on a (panels x 21) array of
abscissae, up to _PANEL_BLOCK panels per call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Quadrature failed to reach its tolerance; carries the achieved error."""

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved error {achieved:.3e})")
        self.achieved = achieved


# Kronrod abscissae and weights on [-1, 1] (QUADPACK qk21), outermost first;
# the Gauss abscissae are the odd-indexed ones, the last is the centre.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525535317, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

# The same rule as 21 ascending nodes: column j holds -_XGK[j], column 20 - j
# holds +_XGK[j], column 10 the centre.
_X21 = np.concatenate([-_XGK[:-1], _XGK[::-1]])

# qk21 adds the centre first, then the Gauss pairs, then the Kronrod-only
# pairs; keeping that order makes a panel's value bit-for-bit qk21's.
_PAIRS = np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 8])

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# Panels per block of _gk21, which bounds its (panels x 21) temporaries (a
# profile with 2048 kinks starts from 2048 panels).  Each panel's value and
# error depend on its own row only.
_PANEL_BLOCK = 512


def _in_order(*columns):
    """Row sums of the stacked columns, added left to right."""
    return np.cumsum(np.hstack(columns), axis=1)[:, -1]


def _gk21(f, lo, hi):
    """qk21 on every panel [lo[i], hi[i]] (lo < hi): (values, error
    estimates), with f evaluated on the (panels x 21) array of abscissae,
    _PANEL_BLOCK panels at a time."""
    if len(lo) > _PANEL_BLOCK:
        parts = [_gk21(f, lo[i:i + _PANEL_BLOCK], hi[i:i + _PANEL_BLOCK])
                 for i in range(0, len(lo), _PANEL_BLOCK)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = np.asarray(f(centre[:, None] + half[:, None] * _X21), dtype=float)
    fc, left, right = fv[:, 10:11], fv[:, _PAIRS], fv[:, 20 - _PAIRS]
    wc, wk = _WGK[10], _WGK[_PAIRS]
    resk = _in_order(wc * fc, wk * (left + right))
    resg = _in_order(_WG * (left + right)[:, :5])
    resabs = _in_order(wc * np.abs(fc), wk * (np.abs(left) + np.abs(right)))
    kh = 0.5 * resk[:, None]
    resasc = _in_order(wc * np.abs(fc - kh),
                       _WGK[:10] * (np.abs(fv[:, :10] - kh) + np.abs(fv[:, :10:-1] - kh)))
    err, resabs, resasc = np.abs(resk - resg) * half, resabs * half, resasc * half
    scaled = (err > 0.0) & (resasc > 0.0)
    err[scaled] = resasc[scaled] * np.minimum(1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5)
    floor = resabs > _TINY / (50.0 * _EPS)
    err[floor] = np.maximum(50.0 * _EPS * resabs[floor], err[floor])
    return resk * half, err


def adaptive_quad(f, a, b, epsabs, epsrel=1e-10, limit=200, points=None):
    """Integral of an array-valued f over [a, b]: (value, achieved error).

    [a, b] is first split at the `points` inside it (kinks of f); each round
    then bisects every panel whose error is at least a quarter of the worst,
    until the summed error meets max(epsabs, epsrel * |value|) or `limit`
    bisections are spent.  Raises QuadratureError when the achieved error is
    more than 100 times that tolerance.  epsabs, relative to the caller's
    integral, must be > 0: nothing floors it, so the rule scales with f.
    """
    cuts = np.asarray(points if points is not None else (), dtype=float)
    cuts = np.array(sorted({a, b, *cuts[(cuts > a) & (cuts < b)].tolist()}), dtype=float)
    lo, hi = cuts[:-1], cuts[1:]
    vals, errs = _gk21(f, lo, hi)
    spent = 0
    while True:
        val, err = float(vals.sum()), float(errs.sum())
        if err <= max(epsabs, epsrel * abs(val)) or spent >= limit or not math.isfinite(err):
            break
        worst = np.flatnonzero(errs >= 0.25 * errs.max())
        worst = worst[np.argsort(errs[worst])[::-1][:limit - spent]]
        spent += len(worst)
        keep = np.ones(len(lo), dtype=bool)
        keep[worst] = False
        mid = 0.5 * (lo[worst] + hi[worst])
        new_lo = np.concatenate([lo[worst], mid])
        new_hi = np.concatenate([mid, hi[worst]])
        new_vals, new_errs = _gk21(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
    if not err <= max(epsabs, abs(val) * epsrel) * 100.0:
        raise QuadratureError(f"integral on [{a}, {b}] did not converge", err)
    return val, err


def _legval(x, c):
    """The Legendre series with coefficients c (low degree first) at x, by
    numpy's legval: the same Clenshaw steps in the same order."""
    c0, c1 = (c[-2], c[-1]) if len(c) > 1 else (c[0], 0.0)
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def legendre_rule(n):
    """Gauss-Legendre nodes and weights on [-1, 1]; made once per n, read-only.

    numpy's leggauss step for step, bit for bit, without loading
    numpy.polynomial, whose import every process would pay for: the
    eigenvalues of the symmetric companion matrix of L_n, one Newton step,
    weights from L_n' and L_{n-1} scaled to sum 2, and both made symmetric.
    """
    c = [0.0] * n + [1.0]
    # L_n' = sum of (2k + 1) L_k over k = n - 1, n - 3, ...: legder's coefficients
    derivative = [2.0 * k + 1.0 if (n - k) % 2 else 0.0 for k in range(n)]
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    companion = np.zeros((n, n))
    companion.flat[1::n + 1] = companion.flat[n::n + 1] = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(companion)
    dy, df = _legval(x, c), _legval(x, derivative)
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1.0 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n, a, b):
    """Nodes and weights on [a, b]."""
    x, w = legendre_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w

