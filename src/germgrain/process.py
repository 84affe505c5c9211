"""Stationary Poisson particle process on a window, with exact edge handling.

A model is (gamma, grain distribution, window, seed).  Sampling draws a
Poisson number of germs uniformly in the exact Minkowski dilation
W + B(rmax) -- rmax being the almost-sure circumradius bound of the grain
law -- and attaches i.i.d. grains.  Every grain that could possibly hit the
window is therefore present, so functionals of Z intersected with W need no
edge-correction estimators.

Only bounded-support parameter laws are representable (constant, uniform,
finite mixture), which keeps rmax finite by construction and the grain-law
moments available in closed form.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cells import PlacedGrain, Window
from .geometry import (AlignedRect, Disk, GrainShape, circumradius,
                       intrinsic_volumes, minkowski_sum_area, rotate_shape,
                       shape_from_record, shape_to_record)
from .rng import poisson_draw, replicate_rng

FORMAT_VERSION = "germgrain-sample-1"


class EdgeEffectError(ValueError):
    """Probe too close to the window boundary for an unbiased estimate."""


# ---------------------------------------------------------------------------
# Bounded scalar laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamLaw:
    """Bounded-support scalar law: constant, uniform(a, b) or finite mixture."""

    kind: str
    args: tuple

    @staticmethod
    def constant(value: float) -> "ParamLaw":
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"constant law needs a positive value, got {value}")
        return ParamLaw("constant", (float(value),))

    @staticmethod
    def uniform(a: float, b: float) -> "ParamLaw":
        if not (0.0 < a < b and math.isfinite(b)):
            raise ValueError(f"uniform law needs 0 < a < b, got ({a}, {b})")
        return ParamLaw("uniform", (float(a), float(b)))

    @staticmethod
    def mixture(values, probs) -> "ParamLaw":
        values = tuple(float(v) for v in values)
        probs = tuple(float(p) for p in probs)
        if len(values) != len(probs) or not values:
            raise ValueError("mixture needs matching nonempty values/probs")
        if any(v <= 0.0 for v in values) or any(p < 0.0 for p in probs):
            raise ValueError("mixture values must be positive, probs nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("mixture probabilities must sum to 1")
        return ParamLaw("discrete", (values, probs))

    def moment(self, k: int) -> float:
        if self.kind == "constant":
            return self.args[0] ** k
        if self.kind == "uniform":
            a, b = self.args
            return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
        values, probs = self.args
        return float(sum(p * v ** k for v, p in zip(values, probs)))

    def mean(self) -> float:
        return self.moment(1)

    def support_max(self) -> float:
        if self.kind == "constant":
            return self.args[0]
        if self.kind == "uniform":
            return self.args[1]
        return max(self.args[0])

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n, self.args[0])
        if self.kind == "uniform":
            a, b = self.args
            return rng.uniform(a, b, size=n)
        values, probs = self.args
        return np.asarray(values)[rng.choice(len(values), size=n, p=probs)]

    def expect(self, f, breaks=()) -> float:
        """E[f(X)]: point mass, mixture sum or piecewise Gauss-Legendre(24).

        breaks lists abscissae where f is non-smooth; the uniform-law
        integral is split there so the rule converges at full order.  f may
        return an array, which is averaged elementwise with the same weights.
        """
        if self.kind == "constant":
            return f(self.args[0])
        if self.kind == "discrete":
            values, probs = self.args
            return sum(p * f(v) for v, p in zip(values, probs))
        a, b = self.args
        cuts = sorted({a, b} | {x for x in breaks if a < x < b})
        x, w = np.polynomial.legendre.leggauss(24)
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            xs = 0.5 * (hi - lo) * x + 0.5 * (lo + hi)
            total += sum(wi * f(xi) for xi, wi in zip(xs, w)) * 0.5 * (hi - lo)
        return total / (b - a)

    def to_record(self):
        if self.kind == "constant":
            return {"law": "constant", "value": self.args[0]}
        if self.kind == "uniform":
            return {"law": "uniform", "a": self.args[0], "b": self.args[1]}
        return {"law": "discrete", "values": list(self.args[0]), "probs": list(self.args[1])}

    @staticmethod
    def from_record(rec: dict) -> "ParamLaw":
        law = rec["law"]
        if law == "constant":
            return ParamLaw.constant(rec["value"])
        if law == "uniform":
            return ParamLaw.uniform(rec["a"], rec["b"])
        if law == "discrete":
            return ParamLaw.mixture(rec["values"], rec["probs"])
        raise ValueError(f"unknown law kind {law!r}")


# ---------------------------------------------------------------------------
# Grain distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrainMoments:
    """Grain-law moments: E V1, E V2, second moments and the mixed
    translative moment E(x)E[v2(K + M*) - v2(K) - v2(M)] over two
    independent grains (the gamma-free ingredient of the planar
    Euler-characteristic density)."""

    ev1: float
    ev2: float
    ev1sq: float
    ev2sq: float
    ev1v2: float
    mixed: float


@dataclass(frozen=True)
class GrainDistribution:
    """Law Q of the typical grain.

    family is one of "disk" (radius law), "rect" (independent halfwidth and
    halfheight laws) or "fixed" (a single shape); rotate adds an independent
    uniform rotation, which makes the law isotropic.
    """

    family: str
    radius: ParamLaw | None = None
    halfwidth: ParamLaw | None = None
    halfheight: ParamLaw | None = None
    shape: GrainShape | None = None
    rotate: bool = False

    def __post_init__(self):
        if self.family == "disk":
            if self.radius is None:
                raise ValueError("disk family needs a radius law")
        elif self.family == "rect":
            if self.halfwidth is None or self.halfheight is None:
                raise ValueError("rect family needs halfwidth and halfheight laws")
        elif self.family == "fixed":
            if self.shape is None:
                raise ValueError("fixed family needs a shape")
        else:
            raise ValueError(f"unknown grain family {self.family!r}")

    # -- descriptive properties ------------------------------------------

    @property
    def isotropic(self) -> bool:
        return self.family == "disk" or self.rotate

    @property
    def rmax(self) -> float:
        """Almost-sure circumradius bound (hard, from the bounded laws)."""
        if self.family == "disk":
            return self.radius.support_max()
        if self.family == "rect":
            return math.hypot(self.halfwidth.support_max(), self.halfheight.support_max())
        return circumradius(self.shape)

    def moments(self) -> GrainMoments:
        if self.family == "disk":
            r1, r2, r3, r4 = (self.radius.moment(k) for k in (1, 2, 3, 4))
            pi = math.pi
            return GrainMoments(ev1=pi * r1, ev2=pi * r2, ev1sq=pi * pi * r2,
                                ev2sq=pi * pi * r4, ev1v2=pi * pi * r3,
                                mixed=2.0 * pi * r1 * r1)
        if self.family == "rect":
            w1, w2 = self.halfwidth.moment(1), self.halfwidth.moment(2)
            h1, h2 = self.halfheight.moment(1), self.halfheight.moment(2)
            ev1 = 2.0 * (w1 + h1)
            ev2 = 4.0 * w1 * h1
            ev1sq = 4.0 * (w2 + 2.0 * w1 * h1 + h2)
            ev2sq = 16.0 * w2 * h2
            ev1v2 = 8.0 * (w2 * h1 + w1 * h2)
            mixed = (2.0 * ev1 * ev1 / math.pi) if self.rotate else 8.0 * w1 * h1
            return GrainMoments(ev1, ev2, ev1sq, ev2sq, ev1v2, mixed)
        iv = intrinsic_volumes(self.shape)
        if self.rotate:
            mixed = 2.0 * iv.v1 * iv.v1 / math.pi
        else:
            mixed = minkowski_sum_area(self.shape, self.shape) - 2.0 * iv.v2
        return GrainMoments(iv.v1, iv.v2, iv.v1 ** 2, iv.v2 ** 2, iv.v1 * iv.v2, mixed)

    def expect_shape(self, f) -> float:
        """Expectation of f(shape) over the parameter law (rotation excluded)."""
        if self.family == "disk":
            return self.radius.expect(lambda r: f(Disk(r)))
        if self.family == "rect":
            return self.halfwidth.expect(
                lambda w: self.halfheight.expect(lambda h: f(AlignedRect(w, h))))
        return f(self.shape)

    # -- sampling ---------------------------------------------------------

    def sample_shapes(self, rng: np.random.Generator, n: int) -> list:
        if self.family == "disk":
            return [Disk(r) for r in self.radius.sample(rng, n)]
        if self.family == "rect":
            ws = self.halfwidth.sample(rng, n)
            hs = self.halfheight.sample(rng, n)
            shapes = [AlignedRect(w, h) for w, h in zip(ws, hs)]
        else:
            shapes = [self.shape] * n
        if self.rotate:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
            shapes = [rotate_shape(s, a) for s, a in zip(shapes, angles)]
        return shapes

    # -- serialization ------------------------------------------------------

    def to_record(self) -> dict:
        rec = {"family": self.family, "rotate": self.rotate}
        if self.family == "disk":
            rec["radius"] = self.radius.to_record()
        elif self.family == "rect":
            rec["halfwidth"] = self.halfwidth.to_record()
            rec["halfheight"] = self.halfheight.to_record()
        else:
            rec["shape"] = shape_to_record(self.shape)
        return rec

    @staticmethod
    def from_record(rec: dict) -> "GrainDistribution":
        family = rec["family"]
        rotate = bool(rec.get("rotate", False))
        if family == "disk":
            return GrainDistribution("disk", radius=ParamLaw.from_record(rec["radius"]),
                                     rotate=rotate)
        if family == "rect":
            return GrainDistribution("rect",
                                     halfwidth=ParamLaw.from_record(rec["halfwidth"]),
                                     halfheight=ParamLaw.from_record(rec["halfheight"]),
                                     rotate=rotate)
        if family == "fixed":
            return GrainDistribution("fixed", shape=shape_from_record(rec["shape"]),
                                     rotate=rotate)
        raise ValueError(f"unknown grain family {family!r}")


def fixed_disk(radius: float) -> GrainDistribution:
    return GrainDistribution("disk", radius=ParamLaw.constant(radius))


def unit_squares(rotate: bool = False) -> GrainDistribution:
    return GrainDistribution("rect", halfwidth=ParamLaw.constant(0.5),
                             halfheight=ParamLaw.constant(0.5), rotate=rotate)


# ---------------------------------------------------------------------------
# Model configuration and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    gamma: float
    grains: GrainDistribution
    window: Window
    seed: int = 0

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"intensity gamma must be positive and finite, got {self.gamma}")

    def to_record(self) -> dict:
        return {"gamma": self.gamma, "grains": self.grains.to_record(),
                "window": {"lo": list(self.window.lo), "hi": list(self.window.hi)},
                "seed": self.seed}

    @staticmethod
    def from_record(rec: dict) -> "ModelConfig":
        win = Window(tuple(rec["window"]["lo"]), tuple(rec["window"]["hi"]))
        return ModelConfig(float(rec["gamma"]), GrainDistribution.from_record(rec["grains"]),
                           win, int(rec.get("seed", 0)))


@dataclass(frozen=True)
class GermGrainSample:
    placed: tuple          # tuple of PlacedGrain
    config: ModelConfig
    replicate: int


def _uniform_in_dilation(rng, window: Window, r: float, n: int) -> np.ndarray:
    """n points uniform in the rounded rectangle W + B(r), by rejection."""
    if n == 0:
        return np.empty((0, 2))
    (x0, y0), (x1, y1) = window.lo, window.hi
    out = np.empty((n, 2))
    got = 0
    accept_rate = window.dilated_area(r) / ((x1 - x0 + 2 * r) * (y1 - y0 + 2 * r))
    while got < n:
        m = max(16, int((n - got) / accept_rate * 1.2) + 1)
        pts = rng.uniform([x0 - r, y0 - r], [x1 + r, y1 + r], size=(m, 2))
        dx = np.maximum(np.maximum(x0 - pts[:, 0], pts[:, 0] - x1), 0.0)
        dy = np.maximum(np.maximum(y0 - pts[:, 1], pts[:, 1] - y1), 0.0)
        ok = pts[dx * dx + dy * dy <= r * r]
        take = min(len(ok), n - got)
        out[got:got + take] = ok[:take]
        got += take
    return out


def sample(config: ModelConfig, replicate: int = 0) -> GermGrainSample:
    """One realization: all grains that can hit the window, deterministically
    derived from (config.seed, replicate).

    Draw order is fixed: grain count, then germ positions, then shape
    parameters, then rotations.
    """
    rng = replicate_rng(config.seed, replicate)
    r = config.grains.rmax
    mean = config.gamma * config.window.dilated_area(r)
    n = poisson_draw(rng, mean)
    germs = _uniform_in_dilation(rng, config.window, r, n)
    shapes = config.grains.sample_shapes(rng, n)
    placed = tuple(PlacedGrain((x, y), s) for (x, y), s in zip(germs, shapes))
    return GermGrainSample(placed=placed, config=config, replicate=replicate)


# ---------------------------------------------------------------------------
# Capacity functional
# ---------------------------------------------------------------------------


def mean_hit_area(grains: GrainDistribution, probe: GrainShape) -> float:
    """E_Q v2(Z0 + probe*): closed form when isotropic, else parameter quadrature."""
    if grains.isotropic:
        m = grains.moments()
        ivp = intrinsic_volumes(probe)
        return m.ev2 + ivp.v2 + 2.0 * m.ev1 * ivp.v1 / math.pi
    return grains.expect_shape(lambda k: minkowski_sum_area(k, probe))


def theory_capacity(config: ModelConfig, probe: GrainShape) -> float:
    """P(Z misses the probe) = exp(-gamma E v2(Z0 + probe*)); location-free."""
    return math.exp(-config.gamma * mean_hit_area(config.grains, probe))


def point_coverage_probability(config: ModelConfig) -> float:
    """Volume fraction p = 1 - P(point uncovered)."""
    return 1.0 - math.exp(-config.gamma * config.grains.moments().ev2)


def _shape_hits_probe(grain: PlacedGrain, probe: PlacedGrain) -> bool:
    from .cells import clip_cell, window_cell, grain_constraints as gc
    gr = grain.circumradius() + probe.circumradius()
    d = math.hypot(grain.center[0] - probe.center[0], grain.center[1] - probe.center[1])
    if d >= gr:
        return False
    if isinstance(grain.shape, Disk) and isinstance(probe.shape, Disk):
        return True  # circumdisk test already exact for two disks
    lo = (min(grain.center[0], probe.center[0]) - gr, min(grain.center[1], probe.center[1]) - gr)
    hi = (max(grain.center[0], probe.center[0]) + gr, max(grain.center[1], probe.center[1]) + gr)
    cell = clip_cell(window_cell(Window(lo, hi)), gc(grain))
    return cell is not None and clip_cell(cell, gc(probe)) is not None


def _misses(probe: PlacedGrain, s: GermGrainSample) -> bool:
    return not any(_shape_hits_probe(g, probe) for g in s.placed)


def empirical_capacity(config: ModelConfig, probe: GrainShape, center, reps: int):
    """Fraction of replicates whose realization misses the placed probe.

    Returns (estimate, binomial standard error).  The probe must keep
    distance >= rmax from the window boundary, otherwise grains that could
    hit it would be missing from the realization and bias the estimate.
    """
    cx, cy = float(center[0]), float(center[1])
    rp = circumradius(probe)
    r = config.grains.rmax
    (x0, y0), (x1, y1) = config.window.lo, config.window.hi
    margin = min(cx - rp - x0, x1 - (cx + rp), cy - rp - y0, y1 - (cy + rp))
    if margin < r:
        raise EdgeEffectError(
            f"probe must keep distance >= rmax={r} from the window boundary "
            f"(margin {margin:.6g}); move or shrink it")
    placed_probe = PlacedGrain((cx, cy), probe)
    p = int(np.sum(replicate_rows(config, partial(_misses, placed_probe), reps))) / reps
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / reps) / reps)


# ---------------------------------------------------------------------------
# Replicate driver
# ---------------------------------------------------------------------------


def _replicate_range(config: ModelConfig, functional, lo: int, hi: int) -> list:
    """functional(sample(config, k)) for k in lo..hi-1, one sample at a time.

    An engine error is re-raised naming the replicate, so that its grains
    can be dumped again with `germgrain simulate`.
    """
    rows = []
    for k in range(lo, hi):
        s = sample(config, k)
        try:
            rows.append(functional(s))
        except RuntimeError as exc:
            (x0, y0), (x1, y1) = config.window.lo, config.window.hi
            where = f"--seed {config.seed} --window {x0!r} {y0!r} {x1!r} {y1!r} --replicate {k}"
            raise RuntimeError(f"replicate {k} failed ({exc}); reproduce its grains with "
                               f"germgrain simulate --config <config> {where}") from exc
    return rows


def replicate_rows(config: ModelConfig, functional, reps: int, workers: int = 1) -> np.ndarray:
    """Rows functional(sample(config, k)) for k = 0..reps-1, in replicate order.

    With workers > 1 the replicates are split into contiguous ranges, one per
    worker process; functional must then be picklable (a module-level
    function or a partial of one).  Every replicate is keyed by its index,
    so the result does not depend on workers.
    """
    if workers <= 1:
        return np.array(_replicate_range(config, functional, 0, reps))
    chunk = -(-reps // workers)
    los = range(0, reps, chunk)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_replicate_range, [config] * len(los), [functional] * len(los),
                         los, [min(lo + chunk, reps) for lo in los])
        return np.array([row for part in parts for row in part])


# ---------------------------------------------------------------------------
# Sample serialization (line-oriented grain dumps)
# ---------------------------------------------------------------------------


def write_sample(path, s: GermGrainSample):
    lines = [f"# format: {FORMAT_VERSION}",
             f"# config: {json.dumps(s.config.to_record(), sort_keys=True)}",
             f"# replicate: {s.replicate}",
             f"# count: {len(s.placed)}"]
    for g in s.placed:
        lines.append(f"{g.center[0]!r} {g.center[1]!r} {json.dumps(shape_to_record(g.shape))}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_sample(path) -> GermGrainSample:
    config = None
    replicate = 0
    placed = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# config:"):
                    config = ModelConfig.from_record(json.loads(line[len("# config:"):]))
                elif line.startswith("# replicate:"):
                    replicate = int(line[len("# replicate:"):])
                continue
            xs, ys, rest = line.split(None, 2)
            placed.append(PlacedGrain((float(xs), float(ys)), shape_from_record(json.loads(rest))))
    if config is None:
        raise ValueError(f"{path}: missing '# config:' header")
    return GermGrainSample(tuple(placed), config, replicate)
