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
vanishes beyond the covariogram cutoff.  As z = y - t lies in K exactly when
y lies in K + t, a boundary x body integral of f(y-z) is 2 int f(t) g1_K(t) dt,
so for disk laws rho(V1,V2) and the C1-weighted term of rho(V1,V1) are radial
integrals of the closed-form profiles; every disk-law integral is adaptive,
split at the profile kinks, and reports its achieved error.  Polygonal grains
use tensor rules and, on the same-edge boundary-boundary term, a tanh-sinh
rule (its coincident-point endpoint cannot degrade convergence); these report
no error.  For an isotropic polygon law, rho(V1,V2) and rho(V1,V1)'s
C1-weighted term share one boundary x body pass per shape
(_boundary_body_term): each block of (edge point - interior node)
differences takes one hypot, one lookup of both tabulated profiles and one
exp, and feeds two tensor sums.
The tabulated profiles find their grid node by division, not by np.interp's
binary search, and give np.interp's values bit for bit (_grid_lookup).

Every grid -- a profile table, a tensor rule -- is evaluated in blocks of
about _BLOCK_ELEMENTS elements (_blocks), and a polygon's covariograms on
chunks of translations that keep their (edges x edges) work within as many
(_expected).  So the layer's memory grows neither with the grid nor with a
polygon's edge count, and every value equals the whole grid's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import (AlignedRect, ConvexPolygon, Disk, _as_polygon_vertices,
                       _composition_sum, boundary_covariogram, c_const, covariogram,
                       disk_boundary_covariogram, disk_covariogram,
                       intrinsic_volumes)
from .model import GrainDistribution, fixed_disk
from .quadrature import adaptive_quad, gauss_legendre, tanh_sinh


# Largest relative gap the assembly may leave to its direct derivations.
ASSEMBLY_CHECK_TOL = 1e-6

# Elements per block of a grid evaluation: 64 kB per float temporary, half
# glibc's default mmap threshold, so temporaries reuse heap memory instead of
# faulting in fresh pages on every block.
_BLOCK_ELEMENTS = 1 << 13


class AnisotropyError(ValueError):
    """An isotropic-only formula was asked of an anisotropic grain law."""


class AssemblyError(RuntimeError):
    """Internal cross-check of the covariance assembly failed."""


def _blocks(n, width):
    """Slices covering range(n), each of about _BLOCK_ELEMENTS // width rows
    of `width` elements.

    A matrix-vector product (OpenBLAS gemv) rounds an output the same in a
    block as in the whole product only when the block starts at a multiple
    of 4 and is not a single row.  So lengths are multiples of 4 (at least
    4, whatever the width) and a short tail joins the last slice.
    """
    step = max(4, _BLOCK_ELEMENTS // width // 4 * 4)
    starts = list(range(0, max(n - step, 0) + 1, step))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _expected(dist: GrainDistribution, covariance_function):
    """(tx, ty) -> E covariance_function(K, t) over the law's shapes K.

    A polygon's edge clip holds (edges x edges) elements per translation, so
    its translations go in chunks of _BLOCK_ELEMENTS // edges^2.  The value
    at each translation does not depend on the others, or on the chunking.
    """
    def expect(tx, ty):
        return dist.expect_shape(lambda k: covariance_function(k, (tx, ty)))
    if not isinstance(dist.shape, ConvexPolygon):
        return expect
    size = max(1, _BLOCK_ELEMENTS // len(dist.shape.vertices) ** 2)

    def chunked(tx, ty):
        tx, ty = np.broadcast_arrays(tx, ty)
        out = np.empty(tx.shape)
        for i in range(0, tx.size, size):
            out.flat[i:i + size] = expect(tx.flat[i:i + size], ty.flat[i:i + size])
        return out
    return chunked


def _closed_form(dist: GrainDistribution) -> GrainDistribution:
    """A fixed disk as the disk law of that constant radius, whose profiles
    and moments are closed forms (a disk is isotropic without rotation)."""
    if dist.family == "fixed" and isinstance(dist.shape, Disk):
        return fixed_disk(dist.shape.radius)
    return dist


# ---------------------------------------------------------------------------
# Expected covariogram profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovariogramFunctions:
    """Radial profiles g2(s) = E covariogram, g1(s) = E boundary covariogram
    of an isotropic grain law (gamma-free; multiply by gamma for C2, C1)."""

    cutoff: float
    g2: object  # array-valued callable s -> E covariogram
    g1: object  # array-valued callable s -> E boundary covariogram
    g21: object  # s -> (g2(s), g1(s)), from one grid search for tabulated profiles
    kinks: tuple = ()  # radial abscissae where the profiles are non-smooth
    # {gamma: {shape: one-pass boundary x body integrals}} of a polygon law
    # (_boundary_body_term), for the latest gamma only; dropped with these profiles,
    # so covariogram_functions.cache_clear() drops them too
    passes: dict = field(default_factory=dict, compare=False, repr=False)

    def c2(self, gamma):
        return lambda s: gamma * self.g2(s)

    def c1(self, gamma):
        return lambda s: gamma * self.g1(s)


def _lens_antiderivative(r, c):
    """Antiderivative in r of the lens area of two radius-r disks 2c apart (r >= c)."""
    q = np.sqrt(r * r - c * c)
    return (2.0 / 3.0) * (r ** 3 * np.arccos(c / r) - 2.0 * c * r * q + c ** 3 * np.log(r + q))


def _arc_antiderivative(r, c):
    """Antiderivative in r of the disk boundary covariogram r acos(c/r) (r >= c)."""
    q = np.sqrt(r * r - c * c)
    return 0.5 * (r * r * np.arccos(c / r) - c * q)


def _radius_average(law, kernel, antiderivative):
    """s -> E kernel(R, s) over the radius law R, array-valued in s.

    A point mass or mixture sums its atoms along a trailing array axis.  The
    kernel vanishes for R <= s/2, so uniform(a, b) is the closed form
    [F(b, c) - F(max(a, c), c)] / (b - a) with c = min(s/2, b) and F the
    kernel's antiderivative in R (zero beyond the cutoff, where c = b).
    """
    if law.kind == "constant":
        return lambda s: kernel(law.args[0], s)
    if law.kind == "discrete":
        values, probs = (np.asarray(v) for v in law.args)
        return lambda s: kernel(values, np.asarray(s, dtype=float)[..., None]) @ probs
    a, b = law.args

    def average(s):
        c = np.minimum(0.5 * np.asarray(s, dtype=float), b)
        return (antiderivative(b, c) - antiderivative(np.maximum(a, c), c)) / (b - a)
    return average


def _disk_profiles(dist: GrainDistribution) -> CovariogramFunctions:
    law = dist.radius
    radii = law.args[0] if law.kind == "discrete" else law.args  # atoms or (a, b)
    g2 = _radius_average(law, disk_covariogram, _lens_antiderivative)
    g1 = _radius_average(law, disk_boundary_covariogram, _arc_antiderivative)
    return CovariogramFunctions(2.0 * law.support_max(), g2, g1, lambda s: (g2(s), g1(s)),
                                tuple(sorted(2.0 * r for r in radii)))


def _grid_lookup(ss, *tables):
    """s -> tuple of np.interp(s, ss, table, right=0.0) over the tables, bit for
    bit, where ss = np.linspace(0, cutoff, n).

    The node below s is found by division; the quotient can round across a
    node, so the index is then corrected by at most one step.  np.interp's
    own formula follows, with its precomputed slopes (dy / dx): a node gives
    slope * 0 + table[j].  Padding the grid with slope-0 segments gives its
    other cases: s < 0 reads table[0], s = cutoff table[-1], s past it 0.0
    (and NaN reads NaN).  One index serves every table.  (A -0.0 entry would
    read +0.0 at its node; a profile table, of nonnegative sums, has none.)
    """
    n, cutoff = len(ss), float(ss[-1])
    # padded node k + 1 is grid node k; pad 0 takes s < 0, pad n + 1 s > cutoff
    bounds = np.concatenate([[-np.inf], ss, [np.nextafter(cutoff, np.inf), np.inf]])
    base = np.concatenate([[0.0], ss, [cutoff]])
    padded = [(np.concatenate([[0.0], np.diff(t) / np.diff(ss), [0.0, 0.0]]),
               np.concatenate([t[:1], t, [0.0]])) for t in tables]
    scale = (n - 1) / cutoff

    def lookup(s):
        # clipped to finite values, so that a pad's slope 0 times s - base is 0
        s = np.clip(s, -1.0, 2.0 * cutoff)
        k = np.fmin(np.fmax(s * scale + 1.0, 0.0), n + 1.0).astype(np.intp)  # NaN: 0
        k -= bounds[k] > s
        k += bounds[k + 1] <= s
        s -= base[k]
        out = []
        for slope, value in padded:
            v = slope[k]
            v *= s
            v += value[k]
            out.append(v)
        return tuple(out)
    return lookup


def _tabulated_profiles(dist: GrainDistribution, n_s: int, n_theta: int) -> CovariogramFunctions:
    """Rotation-averaged profiles on a dense radial grid (linear interpolation).

    Valid for any isotropic law.  The rotation integral runs over [0, pi): the
    covariogram is even (g2_K(t) = g2_K(-t)), and the boundary covariogram,
    which is not unless K = -K, is averaged over t and -t.  The (s, theta)
    grid goes in blocks of s rows (_blocks), so a table of n_s x n_theta
    translations never holds more than one block of them at a time.

    The grid is even, so a lookup finds the node below s by division
    (_grid_lookup), with np.interp's values bit for bit; g21 reads g2 and g1
    at one index, for the one boundary x body pass of a polygon law.
    """
    cutoff = 2.0 * dist.rmax
    ss = np.linspace(0.0, cutoff, n_s)
    th, wth = gauss_legendre(n_theta, 0.0, math.pi)
    wth = wth / math.pi
    cov2, cov1 = _expected(dist, covariogram), _expected(dist, boundary_covariogram)
    direction = np.array([np.cos(th), np.sin(th)])[:, None, :]
    tab2, tab1 = np.empty(n_s), np.empty(n_s)
    for rows in _blocks(n_s, n_theta):
        grid = direction * ss[rows, None]  # (2, rows, n_theta)
        tab2[rows] = cov2(*grid) @ wth
        tab1[rows] = cov1(*grid) @ wth
        grid *= -1.0  # in place, so a second grid is never held
        tab1[rows] = 0.5 * (tab1[rows] + cov1(*grid) @ wth)
    # The s = 0 point of the boundary profile uses the v1 convention; replace
    # by the one-sided limit so interpolation near 0 is faithful.
    tab1[0] = dist.expect_shape(lambda k: 0.5 * intrinsic_volumes(k).v1)

    g2, g1 = _grid_lookup(ss, tab2), _grid_lookup(ss, tab1)
    # Linear interpolation kinks at every interior grid node.
    return CovariogramFunctions(cutoff, lambda s: g2(s)[0], lambda s: g1(s)[0],
                                _grid_lookup(ss, tab2, tab1), tuple(ss[1:-1]))


@lru_cache(maxsize=32)
def covariogram_functions(dist: GrainDistribution) -> CovariogramFunctions:
    """Radial covariogram profiles of an isotropic grain law."""
    dist = _closed_form(dist)
    if dist.family == "disk":
        return _disk_profiles(dist)
    if not dist.isotropic:
        raise AnisotropyError("radial covariogram profiles need an isotropic law")
    if dist.family == "rect":
        return _tabulated_profiles(dist, n_s=2049, n_theta=64)
    return _tabulated_profiles(dist, n_s=513, n_theta=48)


def _c_vector(dist: GrainDistribution, gamma: float, cov=covariogram, profile="g2"):
    """gamma C2, or gamma C1 given boundary_covariogram and its profile "g1",
    as a function of a translation vector (anisotropic laws allowed)."""
    if dist.isotropic:
        g = getattr(covariogram_functions(dist), profile)
        return lambda tx, ty: gamma * g(np.hypot(tx, ty))

    expected = _expected(dist, cov)
    return lambda tx, ty: gamma * expected(tx, ty)


def _tensor_rule(wp, wq, columns, shrink=1):
    """[wp @ F @ wq for each F], where columns(cols) returns the columns cols
    of every integrand's matrix F.

    The matrices are built a block of columns at a time (_blocks), and each
    wp @ F is the same vector as the whole product's.  An integrand set that
    holds `shrink` times a single integrand's temporaries per element takes
    blocks `shrink` times smaller, so its temporaries fit the same budget.
    """
    rows = []
    for cols in _blocks(len(wq), len(wp) * shrink):
        for i, f in enumerate(columns(cols)):
            if i == len(rows):
                rows.append(np.empty(len(wq)))
            rows[i][cols] = wp @ f
    return [float(row @ wq) for row in rows]


# ---------------------------------------------------------------------------
# rho integrals
# ---------------------------------------------------------------------------


def _radial_integral(prof: CovariogramFunctions, f, epsabs):
    """2 pi int f(s) s ds over [0, cutoff], split at the kinks: (value, error)."""
    val, err = adaptive_quad(lambda s: f(s) * s, 0.0, prof.cutoff, epsabs=epsabs,
                             points=prof.kinks)
    return 2.0 * math.pi * val, 2.0 * math.pi * err


def rho_22(gamma: float, dist: GrainDistribution):
    """integral over the plane of exp(C2(y)) - 1; (value, error estimate)."""
    if gamma == 0.0:
        return 0.0, 0.0
    dist = _closed_form(dist)
    if dist.isotropic:
        prof = covariogram_functions(dist)
        scale = math.expm1(gamma * float(prof.g2(0.0))) * prof.cutoff ** 2
        return _radial_integral(prof, lambda s: np.expm1(gamma * prof.g2(s)),
                                1e-10 * max(scale, 1e-6))
    # Anisotropic: tensor integral over the upper half-plane, doubled.  A
    # covariogram is even, g(t) = g(-t), but need not be mirror-symmetric in
    # either axis, so the quadrants [0, c]^2 and [-c, 0] x [0, c] both count.
    cutoff = 2.0 * dist.rmax
    c2 = _c_vector(dist, gamma)

    def half_plane(n):
        xs, wx = gauss_legendre(n, 0.0, cutoff)
        return 2.0 * sum(_tensor_rule(wx, wx, lambda cols: (np.expm1(c2(*np.meshgrid(
            side * xs, xs[cols], indexing="ij"))),))[0] for side in (1.0, -1.0))
    val = half_plane(96)
    return val, abs(val - half_plane(48))


def sigma_volume(gamma: float, dist: GrainDistribution):
    """Asymptotic variance of the area: (1-p)^2 * rho(V2, V2)."""
    dist = _closed_form(dist)
    val, err = rho_22(gamma, dist)
    q = math.exp(-gamma * dist.moments().ev2)
    return q * q * val, q * q * err


def _edges_of(shape):
    if isinstance(shape, Disk):
        raise TypeError(f"no edges on {shape}")
    verts = _as_polygon_vertices(shape)
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
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        ea, eb = a - cen, b - cen
        area2 = abs(ea[0] * eb[1] - ea[1] * eb[0])
        pts.append(cen + u[:, None, None] * ((a - cen) + u[None, :, None] * (b - a)))
        ws.append(np.outer(wu, wu) * u[:, None] * area2)
    return np.concatenate(pts).reshape(-1, 2), np.concatenate(ws).ravel()


def _differences(f, p, q):
    """columns(cols) of the matrices f(p_i - q_j) for _tensor_rule; f returns
    one array per integrand."""
    return lambda cols: f(p[:, 0][:, None] - q[cols, 0][None, :],
                          p[:, 1][:, None] - q[cols, 1][None, :])


def _boundary_body(shape, f, n=48, shrink=1):
    """Tensor rule for the integral of each integrand of f(y - z) (a tuple of
    arrays) over (boundary x body) of a polygon: one value per integrand."""
    pts, ws = _interior_nodes(shape, n)
    u, wu = gauss_legendre(n, 0.0, 1.0)
    total = 0.0
    for a, b in _edges_of(shape):
        edge_pts = a[None, :] + u[:, None] * (b - a)[None, :]
        ln = math.hypot(*(b - a))
        total = total + ln * np.array(_tensor_rule(wu, ws, _differences(f, edge_pts, pts),
                                                   shrink))
    return total.tolist()


# The one pass holds about twice the temporaries of a single integrand.
_PASS_SHRINK = 2


def _boundary_body_term(gamma, dist, shape, term):
    """Boundary x body integral over one shape of the law of exp(C2(y - z))
    (term 0, rho_12's) or of exp(C2(y - z)) C1(y - z) (term 1, rho_11's
    term A).

    An isotropic law computes both in one pass over the (edge point,
    interior node) differences: one hypot, one profile lookup for g2 and g1,
    one exp per block.  It keeps the pair with its profiles, so that rho_12
    and rho_11 at one gamma share the pass.  An anisotropic law, which has
    no profiles, computes the one term asked for.
    """
    if not dist.isotropic:
        c2vec = _c_vector(dist, gamma)
        if term == 0:
            return _boundary_body(shape, lambda dx, dy: (np.exp(c2vec(dx, dy)),))[0]
        c1vec = _c_vector(dist, gamma, boundary_covariogram, "g1")
        return _boundary_body(
            shape, lambda dx, dy: (np.exp(c2vec(dx, dy)) * c1vec(dx, dy),))[0]
    prof = covariogram_functions(dist)
    terms = prof.passes.get(gamma)
    if terms is None:
        prof.passes.clear()
        terms = prof.passes[gamma] = {}
    if shape not in terms:
        def integrands(dx, dy):
            c2, c1 = prof.g21(np.hypot(dx, dy))
            c2 *= gamma
            e = np.exp(c2, out=c2)
            c1 *= gamma
            c1 *= e
            return e, c1
        terms[shape] = _boundary_body(shape, integrands, shrink=_PASS_SHRINK)
    return terms[shape][term]


def rho_12(gamma: float, dist: GrainDistribution):
    """integral of exp(C2(y-z)) against the boundary x body measure M_{1,2}.

    For disk laws this is 2 pi int exp(C2(s)) C1(s) s ds.  Returns (value,
    error): the adaptive quadrature's achieved error, or None for the fixed
    tensor rule of polygonal grains, which gives no error estimate.
    """
    if gamma == 0.0:
        return 0.0, 0.0
    dist = _closed_form(dist)
    if dist.family == "disk":
        prof = covariogram_functions(dist)
        c2, c1 = prof.c2(gamma), prof.c1(gamma)
        scale = math.exp(float(c2(0.0))) * float(c1(0.0)) * prof.cutoff ** 2
        return _radial_integral(prof, lambda s: np.exp(c2(s)) * c1(s), 1e-11 * scale)
    return dist.expect_shape(
        lambda k: gamma * 0.5 * _boundary_body_term(gamma, dist, k, 0)), None


def _rho11_disk_boundary_term(radius, c2fun, gamma, kinks):
    """rho11's boundary x boundary term for one radius: (value, error).  Points
    at chord angle psi are 2 r sin(psi/2) apart, so [0, pi] is taken twice."""
    chord_kinks = [2.0 * math.asin(k / (2.0 * radius)) for k in kinks if k < 2.0 * radius]
    scale = math.exp(float(c2fun(0.0))) * math.pi
    val, err = adaptive_quad(lambda psi: np.exp(c2fun(2.0 * radius * np.sin(0.5 * psi))),
                             0.0, math.pi, epsabs=1e-11 * scale, points=chord_kinks)
    return gamma * math.pi * radius ** 2 * np.array([val, err])


def _rho11_boundary_term(shape, c2vec, gamma, n=48):
    """Term B: boundary x boundary, quarter weight (Phi_1 = half-length twice)."""
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
                term_b += 2.0 * tanh_sinh(f, 0.0, l1)
                continue
            u, wu = gauss_legendre(n, 0.0, 1.0)
            p1 = a1[None, :] + u[:, None] * (b1 - a1)[None, :]
            p2 = a2[None, :] + u[:, None] * (b2 - a2)[None, :]
            term_b += l1 * l2 * _tensor_rule(
                wu, wu, _differences(lambda dx, dy: (np.exp(c2vec(dx, dy)),), p1, p2))[0]
    return term_b * (gamma * 0.25)


def rho_11(gamma: float, dist: GrainDistribution):
    """Both boundary-measure integrals of rho(V1, V1).

    For disk laws the boundary x body term is 2 pi int exp(C2(s)) C1(s)^2 s ds
    and the boundary x boundary term a chord-angle integral per radius.
    Returns (value, error) like rho_12, a disk law's error summing both terms'.
    A polygon law's value is E[A_K + B_K] over its shapes K: term A (boundary
    x body) plus term B (boundary x boundary) per shape.
    """
    if gamma == 0.0:
        return 0.0, 0.0
    dist = _closed_form(dist)
    if dist.family == "disk":
        prof = covariogram_functions(dist)
        c2, c1 = prof.c2(gamma), prof.c1(gamma)
        scale = math.exp(float(c2(0.0))) * float(c1(0.0)) ** 2 * prof.cutoff ** 2
        term_a, err_a = _radial_integral(prof, lambda s: np.exp(c2(s)) * c1(s) ** 2,
                                         1e-11 * scale)
        term_b, err_b = dist.radius.expect(
            lambda r: _rho11_disk_boundary_term(r, c2, gamma, prof.kinks))
        return term_a + float(term_b), err_a + float(err_b)
    c2vec = _c_vector(dist, gamma)
    return dist.expect_shape(lambda k: gamma * 0.5 * _boundary_body_term(gamma, dist, k, 1)
                             + _rho11_boundary_term(k, c2vec, gamma)), None


def rho_0i(gamma: float, dist: GrainDistribution, i: int) -> float:
    """rho(V0, V_i): literal evaluation of the kinematic double sum (d = 2).

    i = 2 needs no isotropy; i in {0, 1} does.
    """
    dist = _closed_form(dist)
    d = 2
    m = dist.moments()
    vbar = [gamma, gamma * m.ev1, gamma * m.ev2]
    if i == d:
        return math.expm1(vbar[d])
    if not dist.isotropic:
        raise AnisotropyError(f"rho(V0, V{i}) requires an isotropic grain law")
    total = 0.0
    for ell in range(1, d - i + 1):
        total += _composition_sum((ell - 1) * d + i, ell, i, d - 1, vbar, d) / math.factorial(ell)
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
        total += ((-1.0) ** s / math.factorial(s)) * _composition_sum(
            s * d + j - k, s, j, d - 1, [0.0] * j + tv, d)
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
    dist = _closed_form(dist)
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
    dist = _closed_form(dist)
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


def sigma_matrix(gamma: float, dist: GrainDistribution) -> CovMatrix:
    """Assemble the 3x3 asymptotic covariance matrix for an isotropic planar
    Boolean model, verifying the assembly against the direct volume/surface
    covariance expressions and the direct Euler-volume covariance."""
    dist = _closed_form(dist)
    if not dist.isotropic:
        raise AnisotropyError("sigma_matrix requires an isotropic grain law")
    m = dist.moments()
    v1b = gamma * m.ev1
    q = math.exp(-gamma * m.ev2)       # 1 - p
    p = -math.expm1(-gamma * m.ev2)    # not 1 - q, which cancels at small gamma
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
        if abs(got - want) / denom > ASSEMBLY_CHECK_TOL:
            raise AssemblyError(
                f"sigma({i},{j}) assembly {got!r} disagrees with direct form {want!r}")
    return CovMatrix(sig, rho, gamma)
