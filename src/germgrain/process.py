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
from dataclasses import astuple, dataclass, replace
from functools import partial

import numpy as np

from .cells import Grains, PlacedGrain, Window
from .geometry import (_SHAPE, AlignedRect, ConvexPolygon, Disk, GrainShape,
                       _as_polygon_vertices, circumradius, intrinsic_volumes,
                       minkowski_sum_area, shape_to_record)
from .quadrature import legendre_rule
from .records import BOOLEAN, INTEGER, NUMBER, POINT, Record, list_of
from .rng import poisson_draw, replicate_rng

FORMAT_VERSION = "germgrain-sample-1"

# The replicate driver hands a functional consecutive samples until they hold
# this many boundary primitives (Grains.count summed: one per disk, one per
# polygon edge).  One arrangement-engine pass over a chunk pays the engine's
# fixed cost (a pass over 4 disks takes about 0.4 ms) once; past about 1300
# disks the cost per grain stops falling, while a pass's transient memory
# grows with its primitives.
CHUNK_PRIMITIVES = 2048


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
            radius = self.shape.radius if isinstance(self.shape, Disk) else 0.0
            verts = np.zeros((1, 2)) if radius else _as_polygon_vertices(self.shape)
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


@dataclass(frozen=True)
class GermGrainSample:
    """One realization: its grains as arrays, which every engine reads, the
    model and the replicate index.  `placed` builds PlacedGrain objects on
    demand, for the inclusion-exclusion oracle and grain dumps."""

    grains: Grains
    config: ModelConfig
    replicate: int

    @property
    def placed(self) -> tuple:
        """The grains as PlacedGrain: a disk, an unrotated rect or the law's own
        shape, and a ConvexPolygon for a rotated grain."""
        g, law = self.grains, self.config.grains

        def shape(r, v):
            if r > 0.0:
                return Disk(r)
            if law.rotate:
                return ConvexPolygon(tuple(map(tuple, v)))
            return AlignedRect(*v[0]) if law.family == "rect" else law.shape
        return tuple(PlacedGrain(c, shape(r, v)) for c, r, v in
                     zip(g.centres, g.radius, np.split(g.loc, np.cumsum(g.count)[:-1])))


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
    area = config.window.dilated_area(r)
    n = poisson_draw(rng, config.gamma * area)
    try:
        if n > np.iinfo(np.intp).max:  # more than numpy can index: no allocation tried
            raise MemoryError
        germs = _uniform_in_dilation(rng, config.window, r, n)
        grains = replace(config.grains.sample_shapes(rng, n), centres=germs)
    except MemoryError:
        raise ValueError(f"gamma {config.gamma} on the dilated window area {area:.6g} draws "
                         f"{n:.6g} grains, more than memory holds") from None
    return GermGrainSample(grains=grains, config=config, replicate=replicate)


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


def _misses(probe: PlacedGrain, chunk) -> np.ndarray:
    """Whether each sample of a Chunk misses the probe: the grains whose
    circumcircle reaches the probe's, measured inside it in one engine pass,
    have area 0 there."""
    from .union import arrangement_measure  # here: covariance imports process, never the engine
    body, grains = Grains.of([probe]), chunk.grains
    near = np.flatnonzero(np.hypot(*(grains.centres - body.centres).T)
                          < grains.reach + body.reach)
    rep = np.repeat(np.arange(len(chunk.counts)), chunk.counts)
    rows = arrangement_measure(grains.take(near), chunk.window, mask=probe,
                               counts=np.bincount(rep[near], minlength=len(chunk.counts)))
    return rows[:, 2] == 0.0


def empirical_capacity(config: ModelConfig, probe: GrainShape, center, reps: int,
                       workers: int = 1):
    """Fraction of replicates whose realization misses the placed probe.

    Returns (estimate, binomial standard error).  The probe must keep
    distance >= rmax from the window boundary, otherwise grains that could
    hit it would be missing from the realization and bias the estimate.
    workers is replicate_rows'; the estimate does not depend on it.
    """
    cx, cy = float(center[0]), float(center[1])
    rp = circumradius(probe)
    r = config.grains.rmax
    (x0, y0), (x1, y1) = config.window.lo, config.window.hi
    margin = min(cx - rp - x0, x1 - (cx + rp), cy - rp - y0, y1 - (cy + rp))
    if not margin >= r:  # a NaN centre too
        raise EdgeEffectError(
            f"probe must keep distance >= rmax={r} from the window boundary "
            f"(margin {margin:.6g}); move or shrink it")
    placed_probe = PlacedGrain((cx, cy), probe)
    p = int(np.sum(replicate_rows(config, partial(_misses, placed_probe), reps, workers))) / reps
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / reps) / reps)


# ---------------------------------------------------------------------------
# Replicate driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Chunk:
    """Consecutive samples on one window as the engine reads them: their
    grains joined in order, grains per sample, window and replicate indices."""

    grains: Grains
    counts: np.ndarray
    window: Window
    replicates: tuple

    @staticmethod
    def of(samples) -> "Chunk":
        window = samples[0].config.window
        if any(s.config.window != window for s in samples):
            raise ValueError("Chunk: the samples of a chunk must share one window")
        return Chunk(Grains.join(*(s.grains for s in samples)),
                     np.array([len(s.grains) for s in samples]), window,
                     tuple(s.replicate for s in samples))


def chunks(samples):
    """Consecutive samples as Chunks, each closed once it holds
    CHUNK_PRIMITIVES boundary primitives, or before a sample on another window."""
    chunk, held = [], 0
    for s in samples:
        if chunk and (held >= CHUNK_PRIMITIVES or s.config.window != chunk[0].config.window):
            yield Chunk.of(chunk)
            chunk, held = [], 0
        chunk.append(s)
        held += int(s.grains.count.sum())
    if chunk:
        yield Chunk.of(chunk)


def _replicate_range(config: ModelConfig, functional, lo: int, hi: int) -> list:
    """The rows of functional over the samples k = lo..hi-1, a chunk at a time.

    A ReplicateError is re-raised naming the replicate, so that its grains
    can be dumped again with `germgrain simulate`.
    """
    from .union import ReplicateError
    rows = []
    for chunk in chunks(sample(config, k) for k in range(lo, hi)):
        try:
            rows.extend(functional(chunk))
        except ReplicateError as exc:
            bad = chunk.replicates[exc.index]
            (x0, y0), (x1, y1) = config.window.lo, config.window.hi
            where = f"--seed {config.seed} --window {x0!r} {y0!r} {x1!r} {y1!r} --replicate {bad}"
            raise RuntimeError(f"replicate {bad} failed ({exc}); reproduce its grains with "
                               f"germgrain simulate --config <config> {where}") from exc
    return rows


def replicate_rows(config, functional, reps: int, workers: int = 1):
    """Rows of functional over sample(config, k) for k = 0..reps-1, in replicate order.

    functional takes a Chunk (see chunks) and returns one row per sample.
    config may also be a sequence of configs, each run for reps replicates;
    the result is then a list with one array per config.
    With workers > 1 each config's replicates are split into contiguous
    ranges, one per worker, and the ranges of every config run on one
    process pool; functional must then be picklable (a module-level function
    or a partial of one).  Every replicate is keyed by its index, and a
    functional's row must not depend on the rest of its chunk, so the result
    does not depend on workers.
    """
    if reps < 1:
        raise ValueError(f"reps={reps}: need at least 1 replicate")
    configs = [config] if isinstance(config, ModelConfig) else list(config)
    step = -(-reps // max(workers, 1))
    los = range(0, reps, step)
    tasks = [(c, lo, min(lo + step, reps)) for c in configs for lo in los]
    if workers <= 1 or len(tasks) <= 1:
        parts = [_replicate_range(c, functional, lo, hi) for c, lo, hi in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # costs start-up; only a pool needs it
        cs, lows, highs = zip(*tasks)
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            parts = list(pool.map(_replicate_range, cs, [functional] * len(tasks), lows, highs))
    rows = [np.array([row for part in parts[i:i + len(los)] for row in part])
            for i in range(0, len(parts), len(los))]
    return rows[0] if isinstance(config, ModelConfig) else rows


# ---------------------------------------------------------------------------
# Sample serialization (line-oriented grain dumps)
# ---------------------------------------------------------------------------


def write_sample(path, s: GermGrainSample):
    lines = [f"# format: {FORMAT_VERSION}",
             f"# config: {json.dumps(s.config.to_record(), sort_keys=True)}",
             f"# replicate: {s.replicate}",
             f"# count: {len(s.grains)}"]
    for g in s.placed:
        lines.append(f"{g.center[0]!r} {g.center[1]!r} {json.dumps(shape_to_record(g.shape))}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# A dump's grain line 'x y {shape record}' is three JSON values, read as a record.
_GRAIN_LINE = Record({None: (lambda x, y, shape: PlacedGrain((x, y), shape),
                             [("x", NUMBER), ("y", NUMBER), ("shape", _SHAPE)])})


def _grain_line(text):
    return _GRAIN_LINE(dict(zip(("x", "y", "shape"), map(json.loads, text.split(None, 2)))))


def read_sample(path) -> GermGrainSample:
    """The sample of a grain dump.  A ValueError names the path (and the line
    and field of a malformed line), also when a header is missing or wrong
    or '# count:' differs from the grain lines read.  The format is checked
    before the config and replicate headers are read."""
    def read(n, text, parse, field=""):
        try:
            return parse(text)
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {field}{exc}") from None
    headers, placed = {}, []
    with open(path) as f:
        for n, line in enumerate(map(str.strip, f), 1):
            if line.startswith("#"):
                key, _, value = map(str.strip, line[1:].partition(":"))
                headers[key] = (n, value)
            elif line:
                placed.append(read(n, line, _grain_line))
    fmt, count = (headers.get(key, (0, None))[1] for key in ("format", "count"))
    if fmt != FORMAT_VERSION:
        raise ValueError(f"{path}: format is {fmt!r}, not {FORMAT_VERSION!r}")
    if "config" not in headers:
        raise ValueError(f"{path}: missing '# config:' header")
    if count != str(len(placed)):
        raise ValueError(f"{path}: '# count:' header is {count!r}, but the file "
                         f"holds {len(placed)} grain lines (truncated?)")
    config = read(*headers["config"], lambda t: ModelConfig.from_record(json.loads(t)), "config: ")
    replicate = read(*headers.get("replicate", (0, "0")), int, "replicate: ")
    return GermGrainSample(Grains.of(placed), config, replicate)
