"""Monte Carlo validation of the central limit behaviour.

Replicates of (v0, v1, v2) of the occupied set on growing windows are
standardized and compared with the standard normal law through two empirical
distances:

  * d1: the L1 distance between the empirical CDF and the normal CDF,
    integrated exactly piece by piece between order statistics.  In one
    dimension this equals the Wasserstein-1 distance between the empirical
    measure and N(0, 1).
  * ks: the Kolmogorov-Smirnov sup distance.

The quantitative convergence constants of the underlying bounds are not
reproducible, so experiments assert only the qualitative facts: the distance
at the largest scale falls below a threshold calibrated on true normal
samples, and the scale trend is decreasing (negative Spearman correlation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import spearmanr

from .process import ModelConfig, replicate_rows
from .union import arrangement_measure

__all__ = [
    "ReplicateBatch", "NormalityReport", "run_batch", "wasserstein_to_normal",
    "ks_to_normal", "normality_report", "clt_experiment", "multivariate_check",
    "DegenerateVarianceError",
]


class DegenerateVarianceError(RuntimeError):
    """The chosen functional has no variance to normalize by."""


@dataclass(frozen=True)
class ReplicateBatch:
    scale: float
    reps: int
    window_area: float
    functionals: np.ndarray  # (reps, 3) of (v0, v1, v2)
    seed: int


def _functionals(s):
    """(v0, v1, v2) of one sample on its window."""
    return arrangement_measure(s.placed, s.config.window).as_array()


def run_batch(config: ModelConfig, scale: float, reps: int,
              parallelism: int = 1) -> ReplicateBatch:
    """reps independent replicates of (v0, v1, v2) of Z on the scaled window.

    Deterministic given (config.seed, replicate): any parallelism degree
    yields the identical array.
    """
    win = config.window.scaled(scale)
    rows = replicate_rows(ModelConfig(config.gamma, config.grains, win, config.seed),
                          _functionals, reps, parallelism)
    return ReplicateBatch(scale=scale, reps=reps, window_area=win.area(),
                          functionals=rows, seed=config.seed)


# ---------------------------------------------------------------------------
# Distances to the standard normal
# ---------------------------------------------------------------------------


def _phi_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _phi_antideriv(x):
    """Antiderivative of the standard normal CDF: x*Phi(x) + phi(x)."""
    return x * ndtr(x) + _phi_pdf(x)


def wasserstein_to_normal(sample_values) -> float:
    """Exact integral of |F_n(x) - Phi(x)| dx for the empirical CDF F_n.

    Piecewise: on each order-statistic gap F_n is constant, and Phi crosses
    the constant level at most once, so each piece integrates in closed form
    via x*Phi(x) + phi(x).  Equals the Wasserstein-1 distance between the
    empirical measure and N(0, 1).
    """
    xs = np.sort(np.asarray(sample_values, dtype=float))
    n = len(xs)
    if n < 2:
        raise ValueError("need a sample of size >= 2")
    a = xs[:-1]
    b = xs[1:]
    levels = np.arange(1, n) / n
    A_a, A_b = _phi_antideriv(a), _phi_antideriv(b)
    F_a, F_b = ndtr(a), ndtr(b)
    below = F_b <= levels          # Phi below the step level on the whole gap
    above = F_a >= levels
    crossing = ~(below | above)
    pieces = np.empty(n - 1)
    pieces[below] = levels[below] * (b - a)[below] - (A_b - A_a)[below]
    pieces[above] = (A_b - A_a)[above] - levels[above] * (b - a)[above]
    if np.any(crossing):
        xc = ndtri(levels[crossing])
        A_c = _phi_antideriv(xc)
        pieces[crossing] = (levels[crossing] * (xc - a[crossing]) - (A_c - A_a[crossing])
                            + (A_b[crossing] - A_c) - levels[crossing] * (b[crossing] - xc))
    # Tails: level 0 on (-inf, x_1], level 1 on [x_n, inf).
    total = _phi_antideriv(xs[0])
    total += _phi_pdf(xs[-1]) - xs[-1] * (1.0 - ndtr(xs[-1]))
    return float(total + pieces.sum())


def ks_to_normal(sample_values) -> float:
    xs = np.sort(np.asarray(sample_values, dtype=float))
    n = len(xs)
    cdf = ndtr(xs)
    upper = np.max(np.abs(np.arange(1, n + 1) / n - cdf))
    lower = np.max(np.abs(cdf - np.arange(0, n) / n))
    return float(max(upper, lower))


# ---------------------------------------------------------------------------
# Normality reports and experiments
# ---------------------------------------------------------------------------


@dataclass
class NormalityReport:
    scale: float
    reps: int
    mean: float
    variance: float
    var_per_area: float
    w1: float
    ks: float
    standardized: np.ndarray = field(repr=False)


def normality_report(values, scale, window_area, variance=None) -> NormalityReport:
    """Standardize a replicate sample and measure its distance to N(0, 1).

    With variance=None the sample variance standardizes (mean 0, variance 1
    to machine precision by construction); a theoretical variance may be
    supplied instead for Cramer-Wold style checks.
    """
    vals = np.asarray(values, dtype=float)
    mu = float(vals.mean())
    sample_var = float(vals.var(ddof=1))
    var = sample_var if variance is None else float(variance)
    if var <= 0.0:
        raise DegenerateVarianceError(
            "zero variance: the asymptotic-variance positivity condition "
            "(grains with interior and E V_i > 0) is not met")
    std = (vals - mu) / math.sqrt(var)
    return NormalityReport(scale=scale, reps=len(vals), mean=mu,
                           variance=sample_var,
                           var_per_area=sample_var / window_area,
                           w1=wasserstein_to_normal(std),
                           ks=ks_to_normal(std), standardized=std)


FUNCTIONAL_INDEX = {"v0": 0, "v1": 1, "v2": 2}


def clt_experiment(config: ModelConfig, scales, reps: int, functional: str = "v2",
                   parallelism: int = 1, batches=None):
    """Normality reports per scale plus the fitted log-log rate of w1 vs scale.

    Returns (reports, slope, spearman_rho).  The slope is reported for
    inspection (the theoretical trend is about -1/2); only its sign is a
    stable assertion.
    """
    if reps < 100:
        raise ValueError("distributional tests need at least 100 replicates")
    idx = FUNCTIONAL_INDEX[functional]
    reports = []
    for r in scales:
        batch = batches[r] if batches is not None else run_batch(config, r, reps, parallelism)
        reports.append(normality_report(batch.functionals[:, idx], r, batch.window_area))
    w1s = np.array([rep.w1 for rep in reports])
    slope = float(np.polyfit(np.log(np.asarray(scales, dtype=float)), np.log(w1s), 1)[0])
    rho = float(spearmanr(np.asarray(scales, dtype=float), w1s).statistic)
    return reports, slope, rho


def multivariate_check(config: ModelConfig, scale: float, reps: int,
                       sigma: np.ndarray, directions=None, parallelism: int = 1,
                       batch: ReplicateBatch | None = None):
    """Empirical covariance/area vs the asymptotic matrix, plus Cramer-Wold
    directions standardized by their theoretical variances.

    Returns (emp_cov_per_area, max relative entry error, list of
    (direction, NormalityReport)).
    """
    if reps < 100:
        raise ValueError("distributional tests need at least 100 replicates")
    if batch is None:
        batch = run_batch(config, scale, reps, parallelism)
    rows = batch.functionals
    emp = np.cov(rows.T) / batch.window_area
    rel_err = np.max(np.abs(emp - sigma) / np.maximum(np.abs(sigma), 1e-12))
    if directions is None:
        directions = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                      (1.0, 1.0, 1.0), (1.0, -1.0, 2.0)]
    cw = []
    for a in directions:
        a = np.asarray(a, dtype=float)
        var_theory = float(a @ sigma @ a) * batch.window_area
        values = rows @ a
        cw.append((a, normality_report(values, scale, batch.window_area,
                                       variance=var_theory)))
    return emp, float(rel_err), cw
