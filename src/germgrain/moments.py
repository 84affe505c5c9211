"""Mean-value theory: densities of intrinsic volumes and their inversion.

The planar closed forms, writing V1b = gamma*E V1 and V2b = gamma*E V2:

    d2 = 1 - exp(-V2b)
    d1 = exp(-V2b) * V1b
    d0 = exp(-V2b) * (gamma - gamma^2 * mixed / 2)

with mixed the two-grain translative moment E E [v2(K + M*) - v2(K) - v2(M)];
under isotropy mixed = 2 (E V1)^2 / pi, which collapses d0 to the classical
exp(-V2b) (gamma - V1b^2/pi).  The triangular structure (d2 needs only V2b,
d1 adds V1b, d0 adds the mixed term) makes the system exactly invertible,
which is what invert_intensity implements.

density_general evaluates the same recursion for any dimension by literal
composition enumeration; the d = 3 ball specialization is written out in
closed form and cross-checked against it in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _composition_sum, c_const, kappa
from .model import GrainDistribution, GrainMoments, ParamLaw
from .process import chunks
from .quadrature import legendre_rule
# Module globals that the code calls through: benchmarks/layers.py traces
# them by replacing them here, so they stay imported at module level.
from .union import arrangement_measure, edge_corrected_measure


class EstimationError(ValueError):
    """Raised when observed densities admit no valid model parameters."""


@dataclass(frozen=True)
class DensityVector:
    """Densities of (V0, V1, V2) of the occupied set, per unit area."""

    d0: float
    d1: float
    d2: float

    def as_array(self):
        return np.array([self.d0, self.d1, self.d2])


def volume_fraction(gamma: float, ev2: float) -> float:
    if gamma < 0.0 or ev2 < 0.0:
        raise ValueError("gamma and ev2 must be nonnegative")
    return 1.0 - math.exp(-gamma * ev2)


def density_general(d: int, j: int, grain_densities) -> float:
    """Density of V_j of the occupied set in dimension d.

    grain_densities[i] = gamma * E V_i(Z0) for i = 0..d (index 0 is gamma
    itself).  Literal evaluation of the triangular recursion: for j < d,

      dj = exp(-Vd) * ( Vj - c^d_j * sum_{s>=2} ((-1)^s / s!) *
           sum_{m in {j+1..d-1}^s, sum m = (s-1)d + j} prod_i c^{m_i}_d V_{m_i} )

    and d_d = 1 - exp(-Vd).
    """
    vbar = list(grain_densities)
    if len(vbar) != d + 1:
        raise ValueError(f"need d+1 grain densities, got {len(vbar)}")
    if j == d:
        return 1.0 - math.exp(-vbar[d])
    corr = 0.0
    for s in range(2, d - j + 1):
        corr += ((-1.0) ** s / math.factorial(s)) * _composition_sum(
            (s - 1) * d + j, s, j + 1, d - 1, vbar, d)
    return math.exp(-vbar[d]) * (vbar[j] - c_const(d, j) * corr)


def miles_densities_2d(gamma: float, moments: GrainMoments,
                       isotropic: bool = True) -> DensityVector:
    """Planar densities (d0, d1, d2) from gamma and grain moments.

    With isotropic=True the kinematic form of d0 is used (mixed moment
    replaced by 2 ev1^2/pi); otherwise the supplied translative mixed moment
    enters directly.
    """
    v2b = gamma * moments.ev2
    v1b = gamma * moments.ev1
    q = math.exp(-v2b)
    d2 = 1.0 - q
    d1 = q * v1b
    if isotropic:
        d0 = q * (gamma - v1b * v1b / math.pi)
    else:
        if moments.mixed is None or not math.isfinite(moments.mixed):
            raise ValueError("anisotropic d0 needs the mixed translative moment")
        d0 = q * (gamma - 0.5 * gamma * gamma * moments.mixed)
    return DensityVector(d0, d1, d2)


def mixed_moment_direct(dist: GrainDistribution, n_rot: int = 48) -> float:
    """Two-grain mixed translative moment by the direct Minkowski-area path.

    E E [v2(K + M*) - v2(K) - v2(M)] over independent grains; for rotating
    laws the relative-rotation average is taken by Gauss-Legendre on the
    smooth segments [k*pi/2, (k+1)*pi/2] of the integrand.
    """
    from .geometry import intrinsic_volumes, minkowski_sum_area, rotate_shape

    def pair_term(k, m):
        if not dist.rotate:
            return (minkowski_sum_area(k, m) - intrinsic_volumes(k).v2
                    - intrinsic_volumes(m).v2)
        x, w = legendre_rule(n_rot)
        total = 0.0
        for seg in range(4):
            a, b = seg * math.pi / 2.0, (seg + 1) * math.pi / 2.0
            th = 0.5 * (b - a) * x + 0.5 * (a + b)
            vals = [minkowski_sum_area(k, rotate_shape(m, t)) for t in th]
            total += 0.5 * (b - a) * float(np.dot(w, vals))
        return total / (2.0 * math.pi) - intrinsic_volumes(k).v2 - intrinsic_volumes(m).v2

    return dist.expect_shape(lambda k: dist.expect_shape(lambda m: pair_term(k, m)))


def ball_densities_3d(gamma: float, radius_law: ParamLaw) -> np.ndarray:
    """Densities (d3, d2, d1, d0) of a 3-d Boolean model with ball grains.

    For a ball of radius R: V3 = 4 pi R^3 / 3, V2 = 2 pi R^2, V1 = 4 R.
    Closed forms (Vj denotes gamma * E Vj):

        d3 = 1 - exp(-V3)
        d2 = exp(-V3) V2
        d1 = exp(-V3) (V1 - pi V2^2 / 8)
        d0 = exp(-V3) (gamma - V1 V2 / 2 + pi V2^3 / 48)
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    r1, r2, r3 = (radius_law.moment(k) for k in (1, 2, 3))
    v1 = gamma * 4.0 * r1
    v2 = gamma * 2.0 * math.pi * r2
    v3 = gamma * (4.0 * math.pi / 3.0) * r3
    q = math.exp(-v3)
    d3 = 1.0 - q
    d2 = q * v2
    d1 = q * (v1 - math.pi * v2 * v2 / 8.0)
    d0 = q * (gamma - 0.5 * v1 * v2 + math.pi * v2 ** 3 / 48.0)
    return np.array([d3, d2, d1, d0])


def density_rows(chunk, edge_corrected: bool = True) -> np.ndarray:
    """Densities (d0, d1, d2) of a process.Chunk's samples, measured in one
    engine pass and divided by the window area.  The half-open tiling
    correction (edge_corrected=True) makes them unbiased for any stationary
    model; the naive ratio carries a boundary bias of order perimeter/area,
    given exactly by local_mean_value for isotropic laws."""
    engine = edge_corrected_measure if edge_corrected else arrangement_measure
    return engine(chunk.grains, chunk.window, counts=chunk.counts) / chunk.window.area()


def density_estimate(rows):
    """Mean DensityVector and standard errors of an array of density rows, at least 2."""
    if len(rows) < 2:
        raise EstimationError("density estimation needs at least 2 replicates")
    return DensityVector(*rows.mean(axis=0)), rows.std(axis=0, ddof=1) / math.sqrt(len(rows))


def estimate_densities(samples, edge_corrected: bool = True):
    """(DensityVector, standard errors, per-replicate rows) of samples, an
    iterable measured a chunk (process.chunks) at a time by density_rows."""
    rows = np.array([row for chunk in chunks(samples)
                     for row in density_rows(chunk, edge_corrected)])
    return (*density_estimate(rows), rows)


def local_mean_value(j: int, shape, gamma: float, dist: GrainDistribution) -> float:
    """Exact E V_j(Z n K) for a convex body K, isotropic grain law.

    The boundary-term bias of the naive density ratio on a window W is
    (local_mean_value(j, W) - density_j * area) / area.
    """
    from .covariance import phi_star
    from .geometry import intrinsic_volumes
    return phi_star(j, shape, gamma, dist) + intrinsic_volumes(shape).as_array()[j]


def invert_intensity(observed: DensityVector, isotropic: bool = True):
    """Recover (gamma, E V1, E V2) from observed planar densities.

    Triangular inversion: t = -ln(1 - d2) = gamma*ev2,
    u = d1/(1 - d2) = gamma*ev1, gamma = d0/(1 - d2) + u^2/pi.
    Anisotropic inversion is refused (it would need the mixed moment).
    """
    if not isotropic:
        raise EstimationError("anisotropic inversion is not available: the mixed "
                              "translative moment cannot be recovered from the densities")
    if not observed.d2 < 1.0:
        raise EstimationError(f"observed area fraction d2={observed.d2} must be < 1")
    if observed.d2 < 0.0:
        raise EstimationError(f"observed area fraction d2={observed.d2} must be >= 0")
    one_minus = 1.0 - observed.d2
    t = -math.log(one_minus)
    u = observed.d1 / one_minus
    gamma = observed.d0 / one_minus + u * u / math.pi
    if gamma <= 0.0:
        raise EstimationError(f"estimated intensity {gamma} is not positive")
    return gamma, u / gamma, t / gamma


def invert_intensity_se(observed: DensityVector, cov: np.ndarray, n: int) -> float:
    """Delta-method standard error of the gamma estimate from invert_intensity.

    cov is the 3x3 sample covariance of per-replicate density vectors
    (d0, d1, d2); n the replicate count.
    """
    one_minus = 1.0 - observed.d2
    u = observed.d1 / one_minus
    g = np.array([
        1.0 / one_minus,
        2.0 * u / (math.pi * one_minus),
        observed.d0 / one_minus ** 2 + 2.0 * u * observed.d1 / (math.pi * one_minus ** 2),
    ])
    return float(math.sqrt(g @ cov @ g / n))
