"""The model a run describes: bounded parameter laws, the grain law and its
moments, and the model configuration (intensity, grain law, window, seed),
each read and written as a JSON record.

Only bounded-support parameter laws are representable (constant, uniform,
finite mixture), which keeps rmax finite by construction and the grain-law
moments available in closed form.  The Poisson sampler and the replicate
driver are in process: the covariance theory reads a model from here
without loading them.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from .geometry import (_SHAPE, AlignedRect, Disk, Grains, GrainShape, Window, _row_of,
                       circumradius, intrinsic_volumes, minkowski_sum_area)
from .quadrature import legendre_rule
from .records import BOOLEAN, INTEGER, NUMBER, POINT, Record, list_of


# ---------------------------------------------------------------------------
# Bounded scalar laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamLaw:
    """Bounded-support scalar law: constant, uniform(a, b) or finite mixture."""

    kind: str
    args: tuple

    def __post_init__(self):
        try:
            finite = math.isfinite(self.moment(4))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{self.kind} law {self.args}: its 4th moment overflows")

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
        if not (all(0.0 < v < math.inf for v in values) and all(p >= 0.0 for p in probs)):
            raise ValueError("mixture values must be positive and finite, probs nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("mixture probabilities must sum to 1")
        return ParamLaw("discrete", (values, probs))

    def moment(self, k: int) -> float:
        if self.kind == "uniform":
            a, b = self.args
            return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
        return self.expect(lambda v: v ** k)

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

    def expect(self, f) -> float:
        """E[f(X)]: point mass, mixture sum or Gauss-Legendre(24) on [a, b].

        f may return an array, which is averaged elementwise with the same
        weights.
        """
        if self.kind == "constant":
            return f(self.args[0])
        if self.kind == "discrete":
            values, probs = self.args
            return sum(p * f(v) for v, p in zip(values, probs))
        a, b = self.args
        x, w = legendre_rule(24)
        xs = 0.5 * (b - a) * x + 0.5 * (a + b)
        total = sum(wi * f(xi) for xi, wi in zip(xs, w)) * 0.5 * (b - a)
        return total / (b - a)

    def rule(self):
        """(values, probabilities) of expect's nodes as arrays: the atoms, or
        the Gauss-Legendre(24) nodes on [a, b]."""
        if self.kind == "constant":
            return np.array(self.args), np.ones(1)
        if self.kind == "discrete":
            return tuple(np.array(v) for v in self.args)
        a, b = self.args
        x, w = legendre_rule(24)
        return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * w

    def to_record(self) -> dict:
        return _LAW.write(self)

    @staticmethod
    def from_record(rec: dict) -> "ParamLaw":
        return _LAW(rec, "law")


_NUMBERS = list_of(NUMBER, "a list of numbers")
_LAW = Record({"constant": (ParamLaw.constant, [("value", NUMBER)]),
               "uniform": (ParamLaw.uniform, [("a", NUMBER), ("b", NUMBER)]),
               "discrete": (ParamLaw.mixture, [("values", _NUMBERS), ("probs", _NUMBERS)])},
              tag="law", kind_of=lambda law: law.kind, values_of=lambda law: law.args)


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
        if self.family not in _GRAINS.variants:
            raise ValueError(f"unknown grain family {self.family!r}")
        needs = [name for name, *_ in _GRAINS.variants[self.family][1][1:]]
        if any(getattr(self, k) is None for k in needs):
            raise ValueError(f"{self.family} family needs {' and '.join(needs)}")

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

    def sample_shapes(self, rng: np.random.Generator, n: int) -> Grains:
        """n grains centred at the origin; draws shape parameters, then rotations."""
        if self.family == "disk":
            radius, loc = self.radius.sample(rng, n), np.zeros((n, 1, 2))
        elif self.family == "rect":
            w = self.halfwidth.sample(rng, n)
            h = self.halfheight.sample(rng, n)
            radius, loc = 0.0, np.stack([w, h, -w, h, -w, -h, w, -h], axis=1).reshape(n, 4, 2)
        else:
            radius, verts = _row_of(self.shape)
            loc = np.broadcast_to(verts, (n,) + verts.shape)
        if self.rotate and self.family != "disk":
            angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
            c, s = np.cos(angles), np.sin(angles)
            loc = loc @ np.stack([c, s, -s, c], axis=1).reshape(n, 2, 2)
        return Grains(np.zeros((n, 2)), np.full(n, radius),
                      np.full(n, loc.shape[1], dtype=np.int64), loc.reshape(-1, 2))

    # -- serialization ------------------------------------------------------

    def to_record(self) -> dict:
        return _GRAINS.write(self)

    @staticmethod
    def from_record(rec: dict) -> "GrainDistribution":
        return _GRAINS(rec, "grains")


def _finite_moments(shape):
    """Refuse a fixed law's shape whose moments (E V2^2, ...) overflow, rotated
    or not, as a parameter law whose 4th moment overflows is refused."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            finite = all(math.isfinite(x) for rotate in (False, True) for x in astuple(
                GrainDistribution("fixed", shape=shape, rotate=rotate).moments()))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{shape}: its moments overflow")


_GRAIN_SHAPE = Record(_SHAPE.variants, tag="kind", check=_finite_moments)

# Each family's fields: rotate, then its parameter laws or, for "fixed", its shape.
_GRAINS = Record({kind: (partial(GrainDistribution, kind), [("rotate", BOOLEAN, False), *fields])
                  for kind, fields in (("disk", [("radius", _LAW)]),
                                       ("rect", [("halfwidth", _LAW), ("halfheight", _LAW)]),
                                       ("fixed", [("shape", _GRAIN_SHAPE)]))},
                 tag="family", kind_of=lambda grains: grains.family)


def fixed_disk(radius: float) -> GrainDistribution:
    return GrainDistribution("disk", radius=ParamLaw.constant(radius))


def unit_squares(rotate: bool = False) -> GrainDistribution:
    return GrainDistribution("rect", halfwidth=ParamLaw.constant(0.5),
                             halfheight=ParamLaw.constant(0.5), rotate=rotate)


# ---------------------------------------------------------------------------
# Model configuration
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
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def to_record(self) -> dict:
        return _CONFIG.write(self)

    @staticmethod
    def from_record(rec: dict) -> "ModelConfig":
        return _CONFIG(rec)


_CONFIG = Record({None: (ModelConfig, [
    ("gamma", NUMBER), ("grains", _GRAINS),
    ("window", Record({None: (Window, [("lo", POINT), ("hi", POINT)])})), ("seed", INTEGER, 0)])})
