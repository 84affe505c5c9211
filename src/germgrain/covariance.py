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
y lies in K + t, a boundary x body integral of f(y-z) is 2 int f(t) g1_K(t) dt
for any law, so rho(V2,V2), rho(V1,V2) and the C1-weighted term of
rho(V1,V1) integrate F(C2(t), C1(t)) over the plane.  An isotropic law takes
them as radial integrals of its profiles, adaptive and split at their kinks.
Disk laws have closed-form profiles; other isotropic laws tabulate theirs,
exact at the nodes (a rect's from closed forms, a polygon's from angle
panels) and linear between them, and add to the error the gap to the
integral of every other node.  An anisotropic law takes one Gauss-Legendre
rule on panels that follow the lines where C2 kinks and C1 jumps
(_plane_integral), with the gap to half as many nodes as its error.
rho(V1,V1)'s boundary x boundary term is one adaptive chord-angle integral
for a disk law, and otherwise a Gauss-Legendre rule per edge pair, whose
error is the plane rule's (_edge_pairs).

Every grid -- a profile table, a plane or tensor rule, the disk laws' (chord
angles x radii) -- is evaluated in blocks of about _BLOCK_ELEMENTS elements
(_blocks), and a polygon's covariograms on chunks of translations that keep
their (edges x edges) work within as many (_chunked, _shape_profiles).  So
the layer's memory grows neither with the grid nor with a polygon's edge
count, and no value depends on the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (AlignedRect, Disk, _as_polygon_vertices,
                       _composition_sum, boundary_covariogram, c_const, circumradius,
                       covariogram, disk_boundary_covariogram, disk_covariogram,
                       intrinsic_volumes, polygon_halfplanes)
from .model import GrainDistribution, fixed_disk
from .quadrature import adaptive_quad, gauss_legendre, legendre_rule


# Largest relative gap the assembly may leave to its direct derivations.
ASSEMBLY_CHECK_TOL = 1e-6

# Largest gamma E V2 the rho integrals, and so sigma_matrix, take.  Past it, sigma's
# factor (1 - p)^2 = exp(-2 gamma E V2) is no longer a normal double (and
# exp(C2(0)) = exp(gamma E V2) overflows past 709); the uncovered fraction
# exp(-gamma E V2) is then below e^-354, which no desk experiment resolves.
MAX_MEAN_COVERAGE = 354.0

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


def _side_fields(law, x):
    """(E(2s - |x|)+, E 1{|x| < 2s}) at the abscissae x (any shape) over a
    rect law's half-side s, summed over law.rule()'s nodes: the factors of
    the law's fields, as its half-sides are independent."""
    half_sides, probs = law.rule()
    reach = 2.0 * half_sides - np.abs(x)[..., None]
    return np.maximum(reach, 0.0) @ probs, (reach > 0.0) @ probs


def _chunked(shape, covariance_function):
    """(tx, ty) -> covariance_function(shape, t).

    A polygon's edge clip holds (edges x edges) elements per translation, so
    its translations go in chunks of _BLOCK_ELEMENTS // edges^2.  The value
    at each translation does not depend on the others, or on the chunking.
    """
    size = max(1, _BLOCK_ELEMENTS // len(_as_polygon_vertices(shape)) ** 2)

    def chunked(tx, ty):
        tx, ty = np.broadcast_arrays(tx, ty)
        out = np.empty(tx.shape)
        for i in range(0, tx.size, size):
            out.flat[i:i + size] = covariance_function(shape, (tx.flat[i:i + size],
                                                               ty.flat[i:i + size]))
        return out
    return chunked


def _check_mean_coverage(gamma, dist: GrainDistribution):
    """Refuse gamma E V2 above MAX_MEAN_COVERAGE with a ValueError naming both."""
    ev2 = dist.moments().ev2
    if not gamma * ev2 <= MAX_MEAN_COVERAGE:
        raise ValueError(f"gamma {gamma!r} and E v2 {ev2!r} give gamma E v2 = {gamma * ev2:.6g}, "
                         f"above the covariance's limit {MAX_MEAN_COVERAGE:g}: past it, the "
                         f"squared uncovered fraction exp(-2 gamma E v2) is not a normal double")


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
    kinks: tuple = ()  # radial abscissae where the profiles are non-smooth
    coarse: "CovariogramFunctions | None" = None  # a table's every other node


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
    return CovariogramFunctions(2.0 * law.support_max(), g2, g1,
                                tuple(sorted(2.0 * r for r in radii)))


def _grid_lookup(ss, table):
    """s -> np.interp(s, ss, table, right=0.0), bit for bit, on an even grid
    ss from 0 to cutoff.

    The node below s is found by division, then corrected by at most one
    step (the quotient can round across a node); np.interp's formula follows
    with its precomputed slopes.  Slope-0 pads give the other cases: s < 0
    reads table[0], s = cutoff table[-1], s past it 0.0, NaN NaN."""
    n, cutoff = len(ss), float(ss[-1])
    # padded node k + 1 is grid node k; pad 0 takes s < 0, pad n + 1 s > cutoff
    bounds = np.concatenate([[-np.inf], ss, [np.nextafter(cutoff, np.inf), np.inf]])
    base = np.concatenate([[0.0], ss, [cutoff]])
    slope = np.concatenate([[0.0], np.diff(table) / np.diff(ss), [0.0, 0.0]])
    value = np.concatenate([table[:1], table, [0.0]])
    scale = (n - 1) / cutoff

    def lookup(s):
        # clipped to finite values, so that a pad's slope 0 times s - base is 0
        s = np.clip(s, -1.0, 2.0 * cutoff)
        k = np.fmin(np.fmax(s * scale + 1.0, 0.0), n + 1.0).astype(np.intp)  # NaN: 0
        k -= bounds[k] > s
        k += bounds[k + 1] <= s
        s -= base[k]
        v = slope[k]
        v *= s
        v += value[k]
        return v
    return lookup


# Gauss-Legendre nodes per angle panel of a tabulated profile.
_PANEL_NODES = 8


def _angle_panels(verts, s):
    """(row, lo, hi): the panels of [0, pi] at radius s[row] on which the
    covariograms of the polygon K at t = s u(theta) keep one form.

    A form changes where a vertex of K + t or K - t crosses an edge line of
    K: theta = phi_j +- arccos(d_ij / s) mod pi, with d_ij = c_j - n_j . v_i
    the depth of vertex i inside edge line j (none where d_ij > s or s = 0).
    The d_ij = 0 splits are the edge directions, where g1 jumps.  Splits
    closer than 1e-12 count as one.
    """
    normals, offsets = polygon_halfplanes(verts)
    depth = np.maximum(offsets[:, None] - normals @ verts.T, 0.0).ravel()
    phi = np.repeat(np.mod(np.arctan2(normals[:, 1], normals[:, 0]), math.pi), len(verts))
    ratio = np.divide(depth, s[:, None], out=np.full((len(s), len(depth)), 2.0),
                      where=s[:, None] > 0.0)
    turn = np.arccos(np.where(ratio <= 1.0, ratio, np.nan))  # NaN: no split
    up, down = phi + turn, phi - turn  # mod pi: phi is in [0, pi), turn in [0, pi/2]
    zeros = np.zeros((len(s), 1))
    splits = np.concatenate([zeros, up - math.pi * (up >= math.pi),
                             down + math.pi * (down < 0.0), zeros + math.pi], axis=1)
    splits[:, 1:-1][splits[:, 1:-1] >= math.pi - 1e-12] = 0.0
    splits.sort(axis=1)  # NaN last
    keep = np.diff(splits, axis=1, prepend=-1.0) > 1e-12
    row, ends = np.nonzero(keep)[0], splits[keep]
    panel = row[1:] == row[:-1]  # consecutive kept splits of one radius
    return row[1:][panel], ends[:-1][panel], ends[1:][panel]


def _shape_profiles(shape, ss):
    """(2, len(ss)): one polygon's covariogram and boundary covariogram (over
    t and -t), averaged over rotation at the radii ss, exact to rounding: each
    panel of _angle_panels takes _PANEL_NODES Gauss-Legendre nodes.  Panels
    are built a block of radii at a time (_blocks) and evaluated in runs of
    whole radii, a run per _BLOCK_ELEMENTS of work (edges^2 per node), each
    radius summed in node order (np.bincount)."""
    verts = _as_polygon_vertices(shape)
    out = np.zeros((2, len(ss)))
    n = int(np.searchsorted(ss, 2.0 * circumradius(shape)))  # beyond, both vanish
    work = _PANEL_NODES * len(verts) ** 2
    x, w = legendre_rule(_PANEL_NODES)
    for rows in _blocks(n, 2 * len(verts) ** 2 + 2):
        row, lo, hi = _angle_panels(verts, ss[rows])
        row += rows.start
        first = np.flatnonzero(np.diff(row, prepend=-1))  # each radius's first panel
        cuts = first[np.flatnonzero(np.diff(first * work // _BLOCK_ELEMENTS, prepend=-1))]
        for run in map(slice, cuts, [*cuts[1:], len(row)]):
            half = 0.5 * (hi[run] - lo[run])
            theta = (half[:, None] * x + 0.5 * (lo[run] + hi[run])[:, None]).ravel()
            weight = (half[:, None] * w).ravel() / math.pi
            radius = np.repeat(row[run], _PANEL_NODES)
            t = ss[radius] * np.array([np.cos(theta), np.sin(theta)])
            radius -= row[run.start]  # every radius has a panel: one sum per radius
            g2, g1 = (np.bincount(radius, weight * f(shape, t))
                      for f in (covariogram, boundary_covariogram))
            t *= -1.0
            g1 += np.bincount(radius, weight * boundary_covariogram(shape, t))
            out[:, row[run.start]:row[run.stop - 1] + 1] = g2, 0.5 * g1
    out[1, 0] = 0.5 * intrinsic_volumes(shape).v1  # g1's limit at 0, not the v1 convention
    return out


def _rect_profiles(rect, ss):
    """(2, len(ss)): _shape_profiles of an aligned rect, from closed forms.

    With sides a = 2w, b = 2h and t = s u(theta), theta in [0, pi/2], the
    rect and its translate by t overlap only for theta in (alpha, beta),
    alpha = arccos(min(1, a/s)), beta = arcsin(min(1, b/s)): in area
    (a - s cos)(b - s sin), and the rect's boundary inside the translate is
    a + b - s cos - s sin long (g1 takes half).  By symmetry, the averages over
    [0, pi/2] are those over rotation (Matheron's rotation-averaged
    covariogram of a rectangle).
    """
    a, b = 2.0 * rect.halfwidth, 2.0 * rect.halfheight
    cos_a = np.divide(a, ss, out=np.ones_like(ss), where=ss > a)
    sin_b = np.divide(b, ss, out=np.ones_like(ss), where=ss > b)
    alpha, beta = np.arccos(cos_a), np.arcsin(sin_b)
    span, sin_a, cos_b = beta - alpha, np.sin(alpha), np.cos(beta)
    g2 = (2.0 / math.pi) * (a * b * span - a * ss * (cos_a - cos_b) - b * ss * (sin_b - sin_a)
                            + 0.5 * ss * ss * (sin_b * sin_b - sin_a * sin_a))
    g1 = (1.0 / math.pi) * ((a + b) * span - ss * (cos_a - cos_b + sin_b - sin_a))
    out = np.where((span > 0.0) & (ss < 2.0 * circumradius(rect)), np.array([g2, g1]), 0.0)
    out[1, 0] = 0.5 * intrinsic_volumes(rect).v1  # as _shape_profiles
    return out


def _tabulated_profiles(dist: GrainDistribution, n_s: int) -> CovariogramFunctions:
    """Rotation-averaged profiles of any isotropic law on an even grid of
    n_s (odd) radii, exact at the nodes and linear between them, with the
    profiles of every other node as `coarse`."""
    cutoff = 2.0 * dist.rmax
    ss = np.linspace(0.0, cutoff, n_s)
    tab2, tab1 = dist.expect_shape(lambda k: (
        _rect_profiles if isinstance(k, AlignedRect) else _shape_profiles)(k, ss))

    def profiles(step, coarse=None):
        grid = ss[::step]  # linear interpolation kinks at every interior node
        return CovariogramFunctions(cutoff, _grid_lookup(grid, tab2[::step]),
                                    _grid_lookup(grid, tab1[::step]), tuple(grid[1:-1]), coarse)
    return profiles(1, profiles(2))


@lru_cache(maxsize=32)
def covariogram_functions(dist: GrainDistribution) -> CovariogramFunctions:
    """Radial covariogram profiles of an isotropic grain law."""
    dist = _closed_form(dist)
    if dist.family == "disk":
        return _disk_profiles(dist)
    if not dist.isotropic:
        raise AnisotropyError("radial covariogram profiles need an isotropic law")
    return _tabulated_profiles(dist, n_s=2049 if dist.family == "rect" else 513)


def _tensor_rule(wp, wq, columns):
    """wp @ F @ wq, F built a block of columns at a time (_blocks) by
    columns(cols); each wp @ F is the same vector as the whole product's."""
    row = np.empty(len(wq))
    for cols in _blocks(len(wq), len(wp)):
        row[cols] = wp @ columns(cols)
    return float(row @ wq)


# ---------------------------------------------------------------------------
# rho integrals
# ---------------------------------------------------------------------------


def _profile_integral(prof: CovariogramFunctions, integrand, epsabs):
    """2 pi int f(s) s ds over [0, cutoff] for f = integrand(prof), split at
    the kinks: (value, error).  A tabulated profile adds to the error
    |I(table) - I(every other node)|, which bounds what linear interpolation
    between its nodes leaves out."""
    def radial(p):
        f = integrand(p)
        val, err = adaptive_quad(lambda s: f(s) * s, 0.0, p.cutoff, epsabs=epsabs, points=p.kinks)
        return 2.0 * math.pi * val, 2.0 * math.pi * err
    val, err = radial(prof)
    if prof.coarse is not None:
        err += abs(val - radial(prof.coarse)[0])
    return val, err


# Gauss-Legendre nodes per panel of the plane rule (its error: the gap to half as many).
_PLANE_NODES = 16


def _rect_plane(dist: GrainDistribution, gamma, F, n):
    """The plane rule of a rect law: Cartesian panels on the quadrant, split
    at every 2w node of the halfwidth rule and 2h node of the halfheight
    rule, taken four times (C2 and C1 are even in each axis).  The half-sides
    are independent, so C2 = gamma E(2w - |x|)+ E(2h - |y|)+ and
    C1 = gamma/2 (E 1{|x| < 2w} E(2h - |y|)+ + E(2w - |x|)+ E 1{|y| < 2h})."""
    def side(law):
        ends = np.unique(np.append(0.0, 2.0 * law.rule()[0]))
        x, w = gauss_legendre(n, ends[:-1, None], ends[1:, None])  # (panels, n)
        return (w.ravel(), *_side_fields(law, x.ravel()))
    (wx, cov_x, in_x), (wy, cov_y, in_y) = side(dist.halfwidth), side(dist.halfheight)
    return 4.0 * _tensor_rule(wx, wy, lambda cols: F(
        gamma * np.outer(cov_x, cov_y[cols]),
        0.5 * gamma * (np.outer(in_x, cov_y[cols]) + np.outer(cov_x, in_y[cols]))))


def _polar_plane(dist: GrainDistribution, gamma, F, n):
    """The plane rule of a fixed shape K: polar panels over all angles (C1 is
    not even unless K is centrally symmetric), split at the directions of the
    vertex differences: the edge directions, where C1 jumps, and the corners
    of K - K.  A ray splits where it crosses a line n_j . t = +-d_ij, at
    r = d_ij / |n_j . u| (d_ij the depth of vertex i inside edge line j, as in
    _angle_panels), and ends on K - K's boundary, min_j width_j / |n_j . u|.
    Rays go a block at a time (_blocks), each summed in node order."""
    verts = _as_polygon_vertices(dist.shape)
    normals, offsets = polygon_halfplanes(verts)
    depth = offsets[:, None] - normals @ verts.T  # (edges, vertices)
    width = depth.max(axis=1)
    tol = 1e-12 * width.max()
    edge, vertex = np.nonzero(depth > tol)
    diff = verts[:, None] - verts  # (0, 0) among them: 0 is a split
    angles = np.mod(np.arctan2(diff[..., 1], diff[..., 0]).ravel(), 2.0 * math.pi)
    angles = np.sort(np.append(angles[angles < 2.0 * math.pi - 1e-12], 2.0 * math.pi))
    ends = angles[np.diff(angles, prepend=-1.0) > 1e-12]
    theta, wt = (a.ravel() for a in gauss_legendre(n, ends[:-1, None], ends[1:, None]))
    u = np.array([np.cos(theta), np.sin(theta)])
    c2, c1 = _chunked(dist.shape, covariogram), _chunked(dist.shape, boundary_covariogram)
    rays = np.empty(len(theta))
    for rows in _blocks(len(theta), n * (len(edge) + 1)):
        proj = np.abs(normals @ u[:, rows]).T  # (rays, edges)
        with np.errstate(divide="ignore"):
            end = np.min(width / proj, axis=1)[:, None]
            cross = np.minimum(depth[edge, vertex] / proj[:, edge], end)
        splits = np.sort(np.concatenate([np.zeros_like(end), cross, end], axis=1), axis=1)
        keep = np.diff(splits, axis=1, prepend=-1.0) > tol
        row, cuts = np.nonzero(keep)[0], splits[keep]
        panel = row[1:] == row[:-1]  # consecutive kept splits of one ray
        row = row[1:][panel]
        r, w = gauss_legendre(n, cuts[:-1][panel, None], cuts[1:][panel, None])
        tx, ty = r * u[0, rows][row, None], r * u[1, rows][row, None]
        f = F(gamma * c2(tx, ty), gamma * c1(tx, ty)) * (w * r)
        rays[rows] = np.bincount(np.repeat(row, n), f.ravel(), minlength=len(proj))
    return float(rays @ wt)


def _with_gap(rule, n):
    """(rule(n), error): the gap to rule(n // 2), floored at 4 ulps of the
    value for its rounding, which the gap misses where both agree to the bit."""
    val = rule(n)
    return val, max(abs(val - rule(n // 2)), 4.0 * math.ulp(val))


def _plane_integral(dist: GrainDistribution, gamma, F):
    """int F(C2(t), C1(t)) dt over the plane for an anisotropic law, from
    _PLANE_NODES nodes per panel, with its error (_with_gap).  The panels
    follow the lines where C2 kinks and C1 jumps."""
    rule = _rect_plane if dist.family == "rect" else _polar_plane
    return _with_gap(lambda n: rule(dist, gamma, F, n), _PLANE_NODES)


def rho_22(gamma: float, dist: GrainDistribution):
    """integral over the plane of exp(C2(y)) - 1; (value, error estimate)."""
    if gamma == 0.0:
        return 0.0, 0.0
    dist = _closed_form(dist)
    _check_mean_coverage(gamma, dist)
    if not dist.isotropic:
        return _plane_integral(dist, gamma, lambda c2, c1: np.expm1(c2))
    prof = covariogram_functions(dist)
    scale = math.expm1(gamma * float(prof.g2(0.0))) * prof.cutoff ** 2
    return _profile_integral(prof, lambda p: lambda s: np.expm1(gamma * p.g2(s)),
                             1e-10 * max(scale, 1e-6))


def sigma_volume(gamma: float, dist: GrainDistribution):
    """Asymptotic variance of the area: (1-p)^2 * rho(V2, V2)."""
    dist = _closed_form(dist)
    val, err = rho_22(gamma, dist)
    q = math.exp(-gamma * dist.moments().ev2)
    return q * q * val, q * q * err


def rho_12(gamma: float, dist: GrainDistribution):
    """integral of exp(C2(y-z)) against the boundary x body measure M_{1,2},
    which is int exp(C2(t)) C1(t) dt: 2 pi int exp(C2(s)) C1(s) s ds for an
    isotropic law, the plane rule otherwise; with an error as rho_22's."""
    if gamma == 0.0:
        return 0.0, 0.0
    dist = _closed_form(dist)
    _check_mean_coverage(gamma, dist)
    if dist.isotropic:
        prof = covariogram_functions(dist)
        scale = (math.exp(float(gamma * prof.g2(0.0))) * float(gamma * prof.g1(0.0))
                 * prof.cutoff ** 2)
        return _profile_integral(
            prof, lambda p: lambda s: np.exp(gamma * p.g2(s)) * (gamma * p.g1(s)),
            1e-11 * scale)
    return _plane_integral(dist, gamma, lambda c2, c1: np.exp(c2) * c1)


def _disk_boundary_term(law, c2, kinks):
    """rho11's boundary x boundary term of a disk law: (value, error).

    Points of a radius-r circle at chord angle psi are 2 r sin(psi/2) apart,
    so [0, pi] is taken twice: the term is gamma pi E[r^2 int_0^pi
    exp(C2(2 r sin(psi/2))) dpsi].  It is one adaptive integral over psi
    with the radius average (law.rule) inside, kinked wherever a radius's
    chord crosses a profile kink; the (abscissae x radii) grid goes in
    blocks (_blocks).  gamma is left to the caller.
    """
    radii, probs = law.rule()
    weights = probs * radii * radii

    def pairs(psi):
        half_chord = np.sin(0.5 * psi).ravel()
        out = np.empty(half_chord.size)
        for rows in _blocks(half_chord.size, len(radii)):
            out[rows] = np.exp(c2(2.0 * radii * half_chord[rows, None])) @ weights
        return out.reshape(np.shape(psi))
    chord_kinks = [2.0 * math.asin(k / (2.0 * r)) for r in radii for k in kinks if k < 2.0 * r]
    val, err = adaptive_quad(pairs, 0.0, math.pi, epsabs=1e-11 * math.pi * float(pairs(0.0)),
                             points=chord_kinks)
    return math.pi * val, math.pi * err


# Gauss-Legendre nodes per edge of rho11's term B (its error: the gap to half as many).
_EDGE_NODES = 48


def _edge_pairs(shape, gamma, g2, n):
    """int int exp(gamma g2(y - z)) over pairs of boundary points y, z of the
    polygon K, from n Gauss-Legendre nodes per edge.  g2 is even, so edges
    i < j take 2 l_i l_j times a tensor rule, and an edge of vector e and
    length l paired with itself 2 l^2 int_0^1 (1 - u) exp(gamma g2(u e)) du,
    whose integrand is smooth at the coincident end u = 0."""
    verts = _as_polygon_vertices(shape)
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    u, wu = gauss_legendre(n, 0.0, 1.0)
    points = verts[:, None] + u[:, None] * edges[:, None]  # (edges, n, 2)
    total = 0.0
    for i, (p, e, length) in enumerate(zip(points, edges, lengths)):
        along = np.exp(gamma * g2(u * e[0], u * e[1]))
        total += 2.0 * length * length * (wu @ ((1.0 - u) * along))
        for q, other in zip(points[i + 1:], lengths[i + 1:]):
            total += 2.0 * length * other * _tensor_rule(wu, wu, lambda cols: np.exp(
                gamma * g2(p[:, 0, None] - q[cols, 0], p[:, 1, None] - q[cols, 1])))
    return total


def rho_11(gamma: float, dist: GrainDistribution):
    """Both boundary-measure integrals of rho(V1, V1): (value, error).

    Term A (boundary x body) is int exp(C2(t)) C1(t)^2 dt, as rho_12.  Term B
    (boundary x boundary), gamma/4 times int int exp(C2(y - z)) over pairs of
    boundary points (Phi_1 is half the length), is one chord-angle integral
    for a disk law (_disk_boundary_term) and otherwise the edge-pair rule
    (_edge_pairs, _with_gap), a tabulated law adding its table's gap to the
    error as _profile_integral does.  The error sums both terms'.
    """
    if gamma == 0.0:
        return 0.0, 0.0
    dist = _closed_form(dist)
    _check_mean_coverage(gamma, dist)

    def term_b(g2, n=_EDGE_NODES):  # g2 = C2 / gamma
        return 0.25 * gamma * float(dist.expect_shape(lambda k: _edge_pairs(k, gamma, g2, n)))

    def radial(p):
        return lambda tx, ty: p.g2(np.hypot(tx, ty))

    def rect(tx, ty):
        return _side_fields(dist.halfwidth, tx)[0] * _side_fields(dist.halfheight, ty)[0]
    if not dist.isotropic:
        term_a, err_a = _plane_integral(dist, gamma, lambda c2, c1: np.exp(c2) * c1 * c1)
        g2 = rect if dist.family == "rect" else _chunked(dist.shape, covariogram)
        b, err_b = _with_gap(lambda n: term_b(g2, n), _EDGE_NODES)
        return term_a + b, err_a + err_b
    prof = covariogram_functions(dist)
    scale = (math.exp(float(gamma * prof.g2(0.0))) * float(gamma * prof.g1(0.0)) ** 2
             * prof.cutoff ** 2)
    term_a, err_a = _profile_integral(
        prof, lambda p: lambda s: np.exp(gamma * p.g2(s)) * (gamma * p.g1(s)) ** 2,
        1e-11 * scale)
    if dist.family == "disk":
        b, err_b = _disk_boundary_term(dist.radius, lambda s: gamma * prof.g2(s), prof.kinks)
        return term_a + gamma * b, err_a + gamma * err_b
    b, err_b = _with_gap(lambda n: term_b(radial(prof), n), _EDGE_NODES)
    return term_a + b, err_a + err_b + abs(b - term_b(radial(prof.coarse)))


def rho_0i(gamma: float, dist: GrainDistribution, i: int) -> float:
    """rho(V0, V_i): literal evaluation of the kinematic double sum (d = 2).

    i = 2 needs no isotropy; i in {0, 1} does.
    """
    dist = _closed_form(dist)
    _check_mean_coverage(gamma, dist)
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
    covariance expressions and the direct Euler-volume covariance.

    Refuses gamma E v2 above MAX_MEAN_COVERAGE (ValueError), and any rho or
    sigma entry that is not finite (AssemblyError), which the relative
    cross-checks would pass."""
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

    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(sig))):
        raise AssemblyError(f"non-finite covariance at gamma {gamma!r}: rho table {r.tolist()}, "
                            f"sigma {sig.tolist()}")
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
