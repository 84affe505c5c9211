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

from .model import ModelConfig
from .process import replicate_rows
# A module global that the code calls through: benchmarks/layers.py traces it
# by replacing it here.
from .union import arrangement_measure


class DegenerateVarianceError(RuntimeError):
    """The chosen functional has no variance to normalize by."""


@dataclass(frozen=True)
class ReplicateBatch:
    scale: float
    reps: int
    window_area: float
    functionals: np.ndarray  # (reps, 3) of (v0, v1, v2)
    seed: int


def _functionals(chunk):
    """Rows (v0, v1, v2) of a process.Chunk's samples, in one engine pass."""
    return arrangement_measure(chunk.grains, chunk.window, counts=chunk.counts)


def run_batch(config: ModelConfig, scale: float, reps: int,
              parallelism: int = 1) -> ReplicateBatch:
    """reps independent replicates of (v0, v1, v2) of Z on the scaled window.

    Deterministic given (config.seed, replicate): any parallelism degree
    yields the identical array.
    """
    return run_batches(config, [scale], reps, parallelism)[0]


def run_batches(config: ModelConfig, scales, reps: int, parallelism: int = 1) -> list:
    """run_batch at each scale, the scales sharing one process pool."""
    configs = [ModelConfig(config.gamma, config.grains, config.window.scaled(r), config.seed)
               for r in scales]
    rows = replicate_rows(configs, _functionals, reps, parallelism)
    return [ReplicateBatch(scale=r, reps=reps, window_area=c.window.area(),
                           functionals=f, seed=config.seed)
            for r, c, f in zip(scales, configs, rows)]


# ---------------------------------------------------------------------------
# Distances to the standard normal
# ---------------------------------------------------------------------------


def _phi_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _ndtr(x):
    """Standard normal CDF of an array, as 0.5 * erfc(-x / sqrt(2))."""
    erfc = np.frompyfunc(math.erfc, 1, 1)
    return 0.5 * np.asarray(erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


def _ndtri(p):
    """Standard normal quantiles of an array of probabilities in (0, 1)."""
    import statistics  # imported here: it costs every command's start-up 4 ms

    inv_cdf = statistics.NormalDist().inv_cdf
    return np.array([inv_cdf(float(q)) for q in np.asarray(p, dtype=float)])


def _phi_antideriv(x):
    """Antiderivative of the standard normal CDF: x*Phi(x) + phi(x)."""
    return x * _ndtr(x) + _phi_pdf(x)


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
    F_a, F_b = _ndtr(a), _ndtr(b)
    below = F_b <= levels          # Phi below the step level on the whole gap
    above = F_a >= levels
    crossing = ~(below | above)
    pieces = np.empty(n - 1)
    pieces[below] = levels[below] * (b - a)[below] - (A_b - A_a)[below]
    pieces[above] = (A_b - A_a)[above] - levels[above] * (b - a)[above]
    if np.any(crossing):
        xc = _ndtri(levels[crossing])
        A_c = _phi_antideriv(xc)
        pieces[crossing] = (levels[crossing] * (xc - a[crossing]) - (A_c - A_a[crossing])
                            + (A_b[crossing] - A_c) - levels[crossing] * (b[crossing] - xc))
    # Tails: level 0 on (-inf, x_1], level 1 on [x_n, inf).
    total = _phi_antideriv(xs[0])
    total += _phi_pdf(xs[-1]) - xs[-1] * (1.0 - _ndtr(xs[-1]))
    return float(total + pieces.sum())


def ks_to_normal(sample_values) -> float:
    xs = np.sort(np.asarray(sample_values, dtype=float))
    n = len(xs)
    cdf = _ndtr(xs)
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


def _average_ranks(x):
    """Ranks 1..n of x, ties sharing the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    head = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1]]))
    counts = np.diff(head, append=len(xs))
    ranks = np.empty(len(xs))
    ranks[order] = np.repeat(head + 1 + (counts - 1) / 2, counts)
    return ranks


def rank_correlation(x, y) -> float:
    """Spearman rank correlation of two samples, nan when one is constant.

    Pearson correlation of the average ranks, computed as scipy's spearmanr
    does, so the two agree bit for bit.
    """
    ranks = np.column_stack([_average_ranks(np.asarray(x, dtype=float)),
                             _average_ranks(np.asarray(y, dtype=float))])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])


FUNCTIONAL_INDEX = {"v0": 0, "v1": 1, "v2": 2}


def clt_experiment(config: ModelConfig, scales, reps: int, functional: str = "v2",
                   parallelism: int = 1, batches=None):
    """Normality reports per scale plus the fitted log-log rate of w1 vs scale.

    Returns (reports, slope, spearman_rho).  The fit needs at least two
    distinct scales.  The slope is reported for inspection (the theoretical
    trend is about -1/2); only its sign is a stable assertion.
    """
    if reps < 100:
        raise ValueError("distributional tests need at least 100 replicates")
    if len(scales) < 2 or len(set(scales)) < len(scales):
        raise ValueError(f"the rate fit needs at least two distinct scales, got {list(scales)}")
    idx = FUNCTIONAL_INDEX[functional]
    if batches is None:
        batches = dict(zip(scales, run_batches(config, scales, reps, parallelism)))
    reports = [normality_report(batches[r].functionals[:, idx], r, batches[r].window_area)
               for r in scales]
    w1s = np.array([rep.w1 for rep in reports])
    slope = float(np.polyfit(np.log(np.asarray(scales, dtype=float)), np.log(w1s), 1)[0])
    rho = rank_correlation(np.asarray(scales, dtype=float), w1s)
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
