"""Stationary Poisson particle process on a window, with exact edge handling.

A model (model.ModelConfig) is (gamma, grain distribution, window, seed).
Sampling draws a Poisson number of germs uniformly in the exact Minkowski
dilation W + B(rmax) -- rmax being the almost-sure circumradius bound of the
grain law -- and attaches i.i.d. grains.  Every grain that could possibly hit
the window is therefore present, so functionals of Z intersected with W need
no edge-correction estimators.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .geometry import (_SHAPE, AlignedRect, ConvexPolygon, Disk, Grains, GrainShape,
                       PlacedGrain, Window, _row_of, circumradius, intrinsic_volumes,
                       minkowski_sum_area)
# benchmarks/layers.py reads GrainDistribution and ModelConfig from this module.
from .model import GrainDistribution, ModelConfig
from .records import NUMBER, Record
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
# Sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GermGrainSample:
    """One realization: its grains as arrays (the only form that the engines,
    the oracle and grain dumps read), the model and the replicate index."""

    grains: Grains
    config: ModelConfig
    replicate: int

    @property
    def placed(self) -> tuple:
        """The grains as PlacedGrain, a view for tests and benchmarks/layers.py only:
        a disk, an unrotated rect or the law's shape, else a ConvexPolygon."""
        law = self.config.grains

        def shape(r, v):
            if r > 0.0:
                return Disk(r)
            if law.rotate:
                return ConvexPolygon(tuple(map(tuple, v)))
            return AlignedRect(*v[0]) if law.family == "rect" else law.shape
        return tuple(PlacedGrain(c, shape(r, v)) for c, r, v in self.grains)


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
    mean = config.gamma * area
    # A mean that overflows to inf is a count too large, refused below.
    n = poisson_draw(rng, mean) if math.isfinite(mean) else mean
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
    from .union import arrangement_measure  # here: simulate imports process, never the engine
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

    A ReplicateError is re-raised naming the replicate, with a `germgrain
    simulate` command line that dumps its grains again as given: the model's
    own flags, shell-quoted, and an output file.
    """
    from .union import ReplicateError
    rows = []
    for chunk in chunks(sample(config, k) for k in range(lo, hi)):
        try:
            rows.extend(functional(chunk))
        except ReplicateError as exc:
            import shlex  # only a failure needs it
            bad = chunk.replicates[exc.index]
            (x0, y0), (x1, y1) = config.window.lo, config.window.hi
            grains = shlex.quote(json.dumps(config.grains.to_record(), sort_keys=True))
            line = (f"germgrain simulate --gamma {config.gamma!r} --grains {grains} "
                    f"--seed {config.seed} --window {x0!r} {y0!r} {x1!r} {y1!r} "
                    f"--replicate {bad} --out replicate-{bad}.txt")
            raise RuntimeError(f"replicate {bad} failed ({exc}); reproduce its grains with "
                               f"{line}") from exc
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
    """A grain dump that read_sample reads back to the same arrays, bit for bit."""
    law = s.config.grains
    rects = not law.rotate and (law.family == "rect" or isinstance(law.shape, AlignedRect))
    lines = [f"# format: {FORMAT_VERSION}",
             f"# config: {json.dumps(s.config.to_record(), sort_keys=True)}",
             f"# replicate: {s.replicate}",
             f"# count: {len(s.grains)}"]
    for (x, y), r, v in s.grains:
        rec = ({"kind": "disk", "radius": float(r)} if r > 0.0 else
               {"kind": "rect", "halfwidth": float(v[0, 0]), "halfheight": float(v[0, 1])}
               if rects else {"kind": "polygon", "vertices": v.tolist()})
        lines.append(f"{float(x)!r} {float(y)!r} {json.dumps(rec)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# A dump's grain line 'x y {shape record}' is three JSON values, read as a record.
_GRAIN_LINE = Record({None: (lambda x, y, shape: ((x, y), shape),
                             [("x", NUMBER), ("y", NUMBER), ("shape", _SHAPE)])})


def _grain_line(text):
    """The row of a grain line, its shape validated: a polygon's vertices as
    written, counterclockwise."""
    rec = dict(zip(("x", "y", "shape"), map(json.loads, text.split(None, 2))))
    centre, shape = _GRAIN_LINE(rec)
    if isinstance(shape, ConvexPolygon):
        return centre, 0.0, np.array(shape.vertices)
    return (centre, *_row_of(shape))


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
    headers, parsed = {}, []
    with open(path) as f:
        for n, line in enumerate(map(str.strip, f), 1):
            if line.startswith("#"):
                key, _, value = map(str.strip, line[1:].partition(":"))
                headers[key] = (n, value)
            elif line:
                parsed.append(read(n, line, _grain_line))
    fmt, count = (headers.get(key, (0, None))[1] for key in ("format", "count"))
    if fmt != FORMAT_VERSION:
        raise ValueError(f"{path}: format is {fmt!r}, not {FORMAT_VERSION!r}")
    if "config" not in headers:
        raise ValueError(f"{path}: missing '# config:' header")
    if count != str(len(parsed)):
        raise ValueError(f"{path}: '# count:' header is {count!r}, but the file "
                         f"holds {len(parsed)} grain lines (truncated?)")
    config = read(*headers["config"], lambda t: ModelConfig.from_record(json.loads(t)), "config: ")
    replicate = read(*headers.get("replicate", (0, "0")), int, "replicate: ")
    return GermGrainSample(Grains.stack(parsed), config, replicate)
