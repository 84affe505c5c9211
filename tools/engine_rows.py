"""Seeded rows of the exact arrangement engine, for bitwise comparisons.

Writes every row that `arrangement_measure` returns on a fixed set of inputs
to one .npy file, then prints the file's SHA-256 and every raise message.
Run it on two versions of the program; equal hashes and equal messages mean
equal rows, bit for bit:

    PYTHONPATH=src python3 tools/engine_rows.py [out.npy]

Inputs:
  * the laws of the chunk tests in tests/test_union.py (unit and uniform
    disks, rotated squares, triangles and hexagons) at gamma 0.3 and 0.8, on
    a 12 x 12 window at the origin and one offset by 1e3, each measured
    plain, edge-corrected, masked by a disk and masked by a rotated hexagon,
    in chunks of 7 replicates;
  * exact-grid sets: 1 to 5 disks, aligned rects or diamonds with
    half-integer centres and sizes in [-3, 3]^2, on seeds 5 and 6, plain and
    edge-corrected.

A replicate that raises ReplicateError gets a row of NaN and its message;
the rest of its chunk is measured without it (a row does not depend on its
chunk).
"""

from __future__ import annotations

import hashlib
import math
import sys

import numpy as np

from germgrain.geometry import AlignedRect, ConvexPolygon, Disk, Grains, PlacedGrain, Window
from germgrain.model import GrainDistribution, ModelConfig, ParamLaw, fixed_disk, unit_squares
from germgrain.process import sample
from germgrain.union import ReplicateError, arrangement_measure


def regular_polygon(n, r, turn=0.0):
    angles = turn + 2.0 * math.pi * np.arange(n) / n
    return ConvexPolygon(tuple(zip(r * np.cos(angles), r * np.sin(angles))))


LAWS = {"unit disks": fixed_disk(1.0),
        "uniform disks": GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5)),
        "rotated squares": unit_squares(rotate=True),
        "rotated triangles": GrainDistribution("fixed", shape=regular_polygon(3, 0.8),
                                               rotate=True),
        "rotated hexagons": GrainDistribution("fixed", shape=regular_polygon(6, 0.6),
                                              rotate=True)}
REPLICATES = 70
CHUNK = 7
GRID_CONFIGS = 1000


def rows_of(parts, window, label, messages, **kw):
    """Rows of the replicates `parts` (each a Grains), NaN where one raises."""
    if not parts:
        return np.zeros((0, 3))
    try:
        return arrangement_measure(Grains.join(*parts), window,
                                   counts=[len(p) for p in parts], **kw)
    except ReplicateError as e:
        messages.append(f"{label}[{e.index}]: {e}")
        bad = e.index
    before = rows_of(parts[:bad], window, label, messages, **kw)
    after = rows_of(parts[bad + 1:], window, f"{label}+{bad + 1}", messages, **kw)
    return np.vstack([before, np.full((1, 3), np.nan), after])


def passes(window):
    """(name, keyword arguments) of each observation on the window."""
    cx, cy = 0.5 * (window.lo[0] + window.hi[0]), 0.5 * (window.lo[1] + window.hi[1])
    return [("plain", {}), ("edge-corrected", {"edge_corrected": True}),
            ("disk mask", {"mask": PlacedGrain((cx + 0.25, cy - 0.5), Disk(4.5))}),
            ("hexagon mask", {"mask": PlacedGrain((cx - 0.5, cy + 0.25),
                                                  regular_polygon(6, 5.0, 0.3))})]


def law_rows(messages):
    out = []
    for name, law in LAWS.items():
        for gamma in (0.3, 0.8):
            for offset in (0.0, 1e3):
                window = Window((offset, offset), (offset + 12.0, offset + 12.0))
                cfg = ModelConfig(gamma, law, window, seed=17)
                parts = [sample(cfg, k).grains for k in range(REPLICATES)]
                for pname, kw in passes(window):
                    for i in range(0, REPLICATES, CHUNK):
                        label = f"{name} gamma={gamma} offset={offset} {pname} chunk {i}"
                        out.append(rows_of(parts[i:i + CHUNK], window, label, messages, **kw))
    return out


def grid_shape(rng, kind):
    if kind == "disks":
        return Disk(0.5 * int(rng.integers(1, 4)))
    if kind == "rects":
        return AlignedRect(0.5 * int(rng.integers(1, 4)), 0.5 * int(rng.integers(1, 4)))
    s = 0.5 * int(rng.integers(1, 5))
    return ConvexPolygon(((s, 0.0), (0.0, s), (-s, 0.0), (0.0, -s)))


def grid_rows(messages):
    window = Window((-3.0, -3.0), (3.0, 3.0))
    out = []
    for seed in (5, 6):
        for kind in ("disks", "rects", "diamonds"):
            rng = np.random.default_rng(seed)
            parts = [Grains.of([PlacedGrain((0.5 * int(rng.integers(-6, 7)),
                                             0.5 * int(rng.integers(-6, 7))),
                                            grid_shape(rng, kind))
                                for _ in range(int(rng.integers(1, 6)))])
                     for _ in range(GRID_CONFIGS)]
            for corrected in (False, True):
                for i in range(0, GRID_CONFIGS, 50):
                    label = f"grid {kind} seed={seed} corrected={corrected} chunk {i}"
                    out.append(rows_of(parts[i:i + 50], window, label, messages,
                                       edge_corrected=corrected))
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else "engine_rows.npy"
    messages = []
    rows = np.vstack(law_rows(messages) + grid_rows(messages))
    np.save(path, rows)
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    print(f"{len(rows)} rows, {int(np.isnan(rows[:, 0]).sum())} raised")
    print(f"sha256 {digest}  {path}")
    for m in messages:
        print(m)


if __name__ == "__main__":
    main()
