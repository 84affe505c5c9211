"""Asymptotic covariances of intrinsic volumes for planar Boolean models.

Everything is driven by two expected single-grain profiles of the grain law,
both compactly supported on |t| < 2*rmax:

    C2(t) = gamma * E covariogram(Z0, t)
    C1(t) = gamma * E boundary_covariogram(Z0, t)

The inner-product table rho(V_i, V_j):

    rho(V2,V2) = integral of (exp(C2(y)) - 1) dy
    rho(V1,V2) = integral of exp(C2(y-z)) over (boundary x body) of the grain
    rho(V1,V1) = same with an extra C1(y-z) factor, plus the
                 (boundary x boundary) integral of exp(C2(y-z))
    rho(V0,V2) = exp(V2bar) - 1                        (no isotropy needed)
    rho(V0,V1) = exp(V2bar) * V1bar                    (isotropic)
    rho(V0,V0) = exp(V2bar) * (gamma + V1bar^2 / pi)   (isotropic)

with V1bar = gamma E V1, V2bar = gamma E V2.  The asymptotic covariance
matrix then assembles as

    sigma(V_i, V_j) = (1-p)^2 * sum_{k>=i, l>=j} P_{i,k} P_{j,l} rho(V_k, V_l)

with the planar polynomials P_{j,j} = 1, P_{1,2} = -V1bar,
P_{0,1} = -2 V1bar/pi, P_{0,2} = -gamma + V1bar^2/pi.  Two independent
derivations exist for the entries (1,1), (1,2) and (0,2); the assembly
verifies itself against them and refuses to return on disagreement.

Quadrature domains are exact (never truncated): every integrand factor
vanishes beyond the covariogram cutoff.  The boundary-boundary integrals get
a tanh-sinh rule so the coincident-point endpoint (|y-z| -> 0, where C1 has
an arccos-type kink but stays bounded) cannot degrade convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (AlignedRect, ConvexPolygon, _as_polygon_vertices,
                       boundary_covariogram, covariogram, disk_covariogram,
                       intrinsic_volumes)
from .moments import _compositions, c_const
from .process import GrainDistribution
from .quadrature import adaptive_quad, gauss_legendre, tanh_sinh

__all__ = [
    "CovariogramFunctions", "RhoTable", "CovMatrix", "AnisotropyError",
    "AssemblyError", "covariogram_functions", "sigma_volume", "rho_22",
    "rho_12", "rho_11", "rho_0i", "p_polynomial", "phi_star", "sigma_matrix",
]


class AnisotropyError(ValueError):
    """An isotropic-only formula was asked of an anisotropic grain law."""


class AssemblyError(RuntimeError):
    """Internal cross-check of the covariance assembly failed."""


# ---------------------------------------------------------------------------
# Expected covariogram profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovariogramFunctions:
    """Radial profiles g2(s) = E covariogram, g1(s) = E boundary covariogram
    of an isotropic grain law (gamma-free; multiply by gamma for C2, C1)."""

    cutoff: float
    g2: object  # vectorized callable s -> E covariogram
    g1: object  # vectorized callable s -> E boundary covariogram
    kinks: tuple = ()  # radial abscissae where the profiles are non-smooth

    def c2(self, gamma):
        return lambda s: gamma * self.g2(s)

    def c1(self, gamma):
        return lambda s: gamma * self.g1(s)


def _disk_profiles(dist: GrainDistribution) -> CovariogramFunctions:
    law = dist.radius

    def g2(s):
        s = np.asarray(s, dtype=float)
        # the lens area is non-smooth in r at r = t/2
        return np.vectorize(
            lambda t: law.expect(lambda r: disk_covariogram(r, t), breaks=(t / 2.0,)))(s)

    def g1(s):
        s = np.asarray(s, dtype=float)

        def one(t):
            return law.expect(
                lambda r: r * math.acos(min(t / (2.0 * r), 1.0)) if t < 2.0 * r else 0.0,
                breaks=(t / 2.0,))
        return np.vectorize(one)(s)

    if law.kind == "constant":
        kinks = (2.0 * law.args[0],)
    elif law.kind == "uniform":
        kinks = (2.0 * law.args[0], 2.0 * law.args[1])
    else:
        kinks = tuple(sorted(2.0 * v for v in law.args[0]))
    return CovariogramFunctions(2.0 * law.support_max(), g2, g1, kinks)


def _tabulated_profiles(dist: GrainDistribution, n_s: int, n_theta: int) -> CovariogramFunctions:
    """Rotation-averaged profiles on a dense radial grid (linear interpolation).

    Valid for any isotropic law; the rotation integral uses the pi-periodicity
    of both covariograms (g_K(t) = g_K(-t) always; the boundary profile is
    averaged over the full rotation group so only the parity matters).
    """
    cutoff = 2.0 * dist.rmax
    ss = np.linspace(0.0, cutoff, n_s)
    th, wth = gauss_legendre(n_theta, 0.0, math.pi)
    wth = wth / math.pi

    def avg(fun):
        vals = np.empty_like(ss)
        for i, s in enumerate(ss):
            if s == 0.0:
                vals[i] = dist.expect_shape(lambda k: fun(k, (0.0, 0.0)))
                continue
            acc = 0.0
            for t, w in zip(th, wth):
                tx, ty = s * math.cos(t), s * math.sin(t)
                acc += w * dist.expect_shape(lambda k: fun(k, (tx, ty)))
            vals[i] = acc
        return vals

    tab2 = avg(covariogram)
    tab1 = avg(boundary_covariogram)
    # The s = 0 point of the boundary profile uses the v1 convention; replace
    # by the one-sided limit so interpolation near 0 is faithful.
    tab1[0] = dist.expect_shape(lambda k: 0.5 * intrinsic_volumes(k).v1)

    def g2(s):
        return np.interp(np.asarray(s, dtype=float), ss, tab2, right=0.0)

    def g1(s):
        return np.interp(np.asarray(s, dtype=float), ss, tab1, right=0.0)

    return CovariogramFunctions(cutoff, g2, g1)


@lru_cache(maxsize=32)
def covariogram_functions(dist: GrainDistribution) -> CovariogramFunctions:
    """Radial covariogram profiles of an isotropic grain law."""
    if dist.family == "disk":
        return _disk_profiles(dist)
    if not dist.isotropic:
        raise AnisotropyError("radial covariogram profiles need an isotropic law")
    if dist.family == "rect":
        return _tabulated_profiles(dist, n_s=2049, n_theta=64)
    return _tabulated_profiles(dist, n_s=513, n_theta=48)


def _c2_vector(dist: GrainDistribution, gamma: float):
    """C2 as a function of a translation vector (anisotropic laws allowed)."""
    if dist.isotropic:
        prof = covariogram_functions(dist)
        return lambda tx, ty: gamma * prof.g2(np.hypot(tx, ty))

    def c2(tx, ty):
        tx = np.asarray(tx, dtype=float)
        ty = np.asarray(ty, dtype=float)
        out = np.vectorize(
            lambda ax, ay: dist.expect_shape(lambda k: covariogram(k, (ax, ay))))(tx, ty)
        return gamma * out
    return c2


# ---------------------------------------------------------------------------
# rho integrals
# ---------------------------------------------------------------------------


def rho_22(gamma: float, dist: GrainDistribution):
    """integral over the plane of exp(C2(y)) - 1; (value, error estimate)."""
    if gamma == 0.0:
        return 0.0, 0.0
    cutoff = 2.0 * dist.rmax
    if dist.isotropic:
        prof = covariogram_functions(dist)
        scale = math.expm1(gamma * float(prof.g2(0.0))) * cutoff ** 2
        epsabs = 1e-10 * max(scale, 1e-6)

        def integrand(s):
            return math.expm1(gamma * float(prof.g2(s))) * s
        val, err = adaptive_quad(integrand, 0.0, cutoff, epsabs=epsabs,
                                 points=list(prof.kinks))
        return 2.0 * math.pi * val, 2.0 * math.pi * err
    # Anisotropic: tensor integral over one quadrant (covariograms are even).
    c2 = _c2_vector(dist, gamma)
    n = 96
    xs, wx = gauss_legendre(n, 0.0, cutoff)
    vals = np.expm1(c2(*np.meshgrid(xs, xs, indexing="ij")))
    val = 4.0 * float(wx @ vals @ wx)
    xs2, wx2 = gauss_legendre(n // 2, 0.0, cutoff)
    coarse = 4.0 * float(wx2 @ np.expm1(c2(*np.meshgrid(xs2, xs2, indexing="ij"))) @ wx2)
    return val, abs(val - coarse)


def sigma_volume(gamma: float, dist: GrainDistribution):
    """Asymptotic variance of the area: (1-p)^2 * rho(V2, V2)."""
    val, err = rho_22(gamma, dist)
    q = math.exp(-gamma * dist.moments().ev2)
    return q * q * val, q * q * err


def _edges_of(shape):
    if isinstance(shape, AlignedRect):
        verts = _as_polygon_vertices(shape)
    elif isinstance(shape, ConvexPolygon):
        verts = shape.vertex_array()
    else:
        raise TypeError(f"no edges on {shape}")
    n = len(verts)
    return [(verts[i], verts[(i + 1) % n]) for i in range(n)]


def _interior_nodes(shape, n):
    """Gauss-Legendre nodes and weights covering the interior of a convex shape."""
    if isinstance(shape, AlignedRect):
        xs, wx = gauss_legendre(n, -shape.halfwidth, shape.halfwidth)
        ys, wy = gauss_legendre(n, -shape.halfheight, shape.halfheight)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        W = np.outer(wx, wy)
        return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()
    # Convex polygon: fan triangulation from the centroid, tensor rule per
    # triangle mapped from the unit square with the Duffy transform.
    verts = shape.vertex_array()
    cen = verts.mean(axis=0)
    u, wu = gauss_legendre(n, 0.0, 1.0)
    pts, ws = [], []
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        ea, eb = a - cen, b - cen
        area2 = abs(ea[0] * eb[1] - ea[1] * eb[0])
        for ui, wi in zip(u, wu):
            for vi, wvi in zip(u, wu):
                x = cen + ui * ((a - cen) + vi * (b - a))
                pts.append(x)
                ws.append(wi * wvi * ui * area2)
    return np.asarray(pts), np.asarray(ws)


def _rho12_one_disk(radius, c2fun, gamma, kinks=()):
    """(value, achieved quadrature error) for one disk radius."""
    def integrand(s):
        return math.exp(float(c2fun(s))) * 2.0 * math.acos(min(s / (2.0 * radius), 1.0)) * s
    scale = math.exp(float(c2fun(0.0))) * math.pi * radius ** 2
    val, err = adaptive_quad(integrand, 0.0, 2.0 * radius, epsabs=1e-11 * scale,
                             points=list(kinks))
    return gamma * math.pi * radius * np.array([val, err])


def _rho12_one_body(shape, c2vec, gamma, n=48):
    pts, ws = _interior_nodes(shape, n)
    total = 0.0
    for a, b in _edges_of(shape):
        u, wu = gauss_legendre(n, 0.0, 1.0)
        edge_pts = a[None, :] + u[:, None] * (b - a)[None, :]
        ln = math.hypot(*(b - a))
        dx = edge_pts[:, 0][:, None] - pts[:, 0][None, :]
        dy = edge_pts[:, 1][:, None] - pts[:, 1][None, :]
        vals = np.exp(c2vec(dx, dy))
        total += ln * float(wu @ vals @ ws)
    return gamma * 0.5 * total


def rho_12(gamma: float, dist: GrainDistribution):
    """integral of exp(C2(y-z)) against the boundary x body measure M_{1,2}.

    Returns (value, error): the adaptive quadrature's achieved error, weighted
    like the value over the radius law, or None for the fixed tensor rule of
    polygonal grains, which gives no error estimate.
    """
    if gamma == 0.0:
        return 0.0, 0.0
    if dist.family == "disk":
        prof = covariogram_functions(dist)
        c2 = prof.c2(gamma)
        val, err = dist.radius.expect(lambda r: _rho12_one_disk(r, c2, gamma, prof.kinks))
        return float(val), float(err)
    c2vec = _c2_vector(dist, gamma)
    return dist.expect_shape(lambda k: _rho12_one_body(k, c2vec, gamma)), None


def _rho11_one_disk(radius, c2fun, c1fun, gamma, kinks=()):
    """(value, achieved adaptive quadrature error of term A) for one disk radius."""
    def integrand_a(s):
        return (math.exp(float(c2fun(s))) * float(c1fun(s))
                * 2.0 * math.acos(min(s / (2.0 * radius), 1.0)) * s)
    scale = math.exp(float(c2fun(0.0))) * math.pi * radius ** 2
    term_a, err_a = adaptive_quad(integrand_a, 0.0, 2.0 * radius,
                                  epsabs=1e-11 * max(scale, 1e-9), points=list(kinks))
    term_a *= gamma * math.pi * radius

    def integrand_b(psi):
        return np.exp(c2fun(2.0 * radius * np.sin(0.5 * psi)))
    term_b = gamma * 0.5 * math.pi * radius ** 2 * tanh_sinh(integrand_b, 0.0, 2.0 * math.pi, level=8)
    return np.array([term_a + term_b, gamma * math.pi * radius * err_a])


def _rho11_one_body(shape, c2vec, c1vec, gamma, n=48):
    # Term A: boundary x body with the C1 factor.
    pts, ws = _interior_nodes(shape, n)
    term_a = 0.0
    for a, b in _edges_of(shape):
        u, wu = gauss_legendre(n, 0.0, 1.0)
        edge_pts = a[None, :] + u[:, None] * (b - a)[None, :]
        ln = math.hypot(*(b - a))
        dx = edge_pts[:, 0][:, None] - pts[:, 0][None, :]
        dy = edge_pts[:, 1][:, None] - pts[:, 1][None, :]
        vals = np.exp(c2vec(dx, dy)) * c1vec(dx, dy)
        term_a += ln * float(wu @ vals @ ws)
    term_a *= gamma * 0.5
    # Term B: boundary x boundary, quarter weight (Phi_1 = half-length twice).
    edges = _edges_of(shape)
    term_b = 0.0
    for a1, b1 in edges:
        l1 = math.hypot(*(b1 - a1))
        for a2, b2 in edges:
            l2 = math.hypot(*(b2 - a2))
            if np.array_equal(a1, a2) and np.array_equal(b1, b2):
                # Same edge: reduce to 2 * int_0^l (l - s) f(s) ds, tanh-sinh
                # grading at the coincident-point end s = 0.
                d_hat = (b1 - a1) / l1

                def f(s):
                    return (l1 - s) * np.exp(c2vec(d_hat[0] * s, d_hat[1] * s))
                term_b += 2.0 * tanh_sinh(f, 0.0, l1, level=8)
                continue
            u, wu = gauss_legendre(n, 0.0, 1.0)
            p1 = a1[None, :] + u[:, None] * (b1 - a1)[None, :]
            p2 = a2[None, :] + u[:, None] * (b2 - a2)[None, :]
            dx = p1[:, 0][:, None] - p2[:, 0][None, :]
            dy = p1[:, 1][:, None] - p2[:, 1][None, :]
            term_b += l1 * l2 * float(wu @ np.exp(c2vec(dx, dy)) @ wu)
    term_b *= gamma * 0.25
    return term_a + term_b


def rho_11(gamma: float, dist: GrainDistribution):
    """Both boundary-measure integrals of rho(V1, V1).

    Returns (value, error) like rho_12; the tanh-sinh boundary-boundary term
    has no error estimate and contributes none.
    """
    if gamma == 0.0:
        return 0.0, 0.0
    if dist.family == "disk":
        prof = covariogram_functions(dist)
        c2, c1 = prof.c2(gamma), prof.c1(gamma)
        val, err = dist.radius.expect(lambda r: _rho11_one_disk(r, c2, c1, gamma, prof.kinks))
        return float(val), float(err)
    c2vec = _c2_vector(dist, gamma)
    if dist.isotropic:
        prof = covariogram_functions(dist)

        def c1vec(dx, dy):
            return gamma * prof.g1(np.hypot(dx, dy))
    else:
        def c1vec(dx, dy):
            dx = np.asarray(dx, dtype=float)
            dy = np.asarray(dy, dtype=float)
            return gamma * np.vectorize(
                lambda ax, ay: dist.expect_shape(
                    lambda k: boundary_covariogram(k, (ax, ay))))(dx, dy)
    return dist.expect_shape(lambda k: _rho11_one_body(k, c2vec, c1vec, gamma)), None


def rho_0i(gamma: float, dist: GrainDistribution, i: int) -> float:
    """rho(V0, V_i): literal evaluation of the kinematic double sum (d = 2).

    i = 2 needs no isotropy; i in {0, 1} does.
    """
    d = 2
    m = dist.moments()
    vbar = [gamma, gamma * m.ev1, gamma * m.ev2]
    if i == d:
        return math.expm1(vbar[d])
    if not dist.isotropic:
        raise AnisotropyError(f"rho(V0, V{i}) requires an isotropic grain law")
    total = 0.0
    for ell in range(1, d - i + 1):
        inner = 0.0
        for mm in _compositions((ell - 1) * d + i, ell, i, d - 1):
            term = 1.0
            for mj in mm:
                term *= c_const(mj, d) * vbar[mj]
            inner += term
        total += inner / math.factorial(ell)
    return math.exp(vbar[d]) * c_const(d, i) * total


# ---------------------------------------------------------------------------
# P polynomials, recentred functionals, full matrix
# ---------------------------------------------------------------------------


def p_polynomial(j: int, k: int, density_inputs, d: int = 2) -> float:
    """P_{j,k}(t_j, ..., t_{d-1}); density_inputs[m - j] = t_m."""
    if not 0 <= j <= k <= d:
        raise ValueError(f"need 0 <= j <= k <= d={d}, got (j, k) = ({j}, {k})")
    if k == j:
        return 1.0
    tv = list(density_inputs)
    if len(tv) < d - j:
        raise ValueError(f"need t_j..t_{d - 1}: {d - j} values, got {len(tv)}")
    total = 0.0
    for s in range(1, k - j + 1):
        inner = 0.0
        for mm in _compositions(s * d + j - k, s, j, d - 1):
            term = 1.0
            for mi in mm:
                term *= c_const(mi, d) * tv[mi - j]
            inner += term
        total += ((-1.0) ** s / math.factorial(s)) * inner
    return c_const(k, j) * total


def _p_matrix(gamma, moments):
    v1b = gamma * moments.ev1
    p = np.zeros((3, 3))
    p[0, 0] = p[1, 1] = p[2, 2] = 1.0
    p[0, 1] = p_polynomial(0, 1, [gamma, v1b])
    p[0, 2] = p_polynomial(0, 2, [gamma, v1b])
    p[1, 2] = p_polynomial(1, 2, [v1b])
    return p


def phi_star(j: int, shape, gamma: float, dist: GrainDistribution) -> float:
    """Recentred functional V*_j(K) = E V_j(Z n K) - V_j(K) for a convex K.

    j = 2 is isotropy-free; j < 2 uses the kinematic P polynomials.
    """
    if shape is None:
        return 0.0
    m = dist.moments()
    p = 1.0 - math.exp(-gamma * m.ev2)
    iv = intrinsic_volumes(shape).as_array()
    if j == 2:
        return -(1.0 - p) * iv[2]
    if not dist.isotropic:
        raise AnisotropyError("phi_star with j < 2 requires an isotropic grain law")
    pm = _p_matrix(gamma, m)
    return -(1.0 - p) * sum(iv[k] * pm[j, k] for k in range(j, 3))


@dataclass(frozen=True)
class RhoTable:
    values: np.ndarray  # symmetric 3x3, rho(V_i, V_j)
    errors: dict


@dataclass(frozen=True)
class CovMatrix:
    """Asymptotic covariance matrix of (V0, V1, V2) densities."""

    matrix: np.ndarray
    rho: RhoTable
    gamma: float

    def cholesky(self):
        return np.linalg.cholesky(self.matrix)


def rho_table(gamma: float, dist: GrainDistribution) -> RhoTable:
    if not dist.isotropic:
        raise AnisotropyError("the full rho table requires an isotropic grain law")
    r22, e22 = rho_22(gamma, dist)
    r12, e12 = rho_12(gamma, dist)
    r11, e11 = rho_11(gamma, dist)
    r02 = rho_0i(gamma, dist, 2)
    r01 = rho_0i(gamma, dist, 1)
    r00 = rho_0i(gamma, dist, 0)
    vals = np.array([[r00, r01, r02], [r01, r11, r12], [r02, r12, r22]])
    return RhoTable(vals, {"rho22_quadrature": e22, "rho12_quadrature": e12,
                           "rho11_quadrature": e11})


def sigma_matrix(gamma: float, dist: GrainDistribution, check_tol: float = 1e-6) -> CovMatrix:
    """Assemble the 3x3 asymptotic covariance matrix for an isotropic planar
    Boolean model, verifying the assembly against the direct volume/surface
    covariance expressions and the direct Euler-volume covariance."""
    if not dist.isotropic:
        raise AnisotropyError("sigma_matrix requires an isotropic grain law")
    m = dist.moments()
    v1b = gamma * m.ev1
    q = math.exp(-gamma * m.ev2)       # 1 - p
    p = 1.0 - q
    rho = rho_table(gamma, dist)
    r = rho.values
    pm = _p_matrix(gamma, m)
    sig = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            acc = 0.0
            for k in range(i, 3):
                for ell in range(j, 3):
                    acc += pm[i, k] * pm[j, ell] * r[k, ell]
            sig[i, j] = q * q * acc
    sig = 0.5 * (sig + sig.T)

    # The volume/surface and Euler/volume covariances have independent
    # direct derivations; any disagreement is an assembly bug.
    direct_12 = -q * q * v1b * r[2, 2] + q * q * r[1, 2]
    direct_11 = q * q * (v1b * v1b * r[2, 2] - 2.0 * v1b * r[1, 2] + r[1, 1])
    direct_02 = (p * q
                 - q * q * (gamma - v1b * v1b / math.pi) * r[2, 2]
                 - q * q * (2.0 * v1b / math.pi) * r[1, 2])
    checks = {(1, 2): direct_12, (1, 1): direct_11, (0, 2): direct_02}
    for (i, j), want in checks.items():
        got = sig[i, j]
        denom = max(abs(want), abs(got), 1e-300)
        if abs(got - want) / denom > check_tol:
            raise AssemblyError(
                f"sigma({i},{j}) assembly {got!r} disagrees with direct form {want!r}")
    return CovMatrix(sig, rho, gamma)
