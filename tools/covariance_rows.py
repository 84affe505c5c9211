"""Seeded values of the covariance layer, for bitwise comparisons.

Writes the `sigma_matrix` entries, rho values and rho quadrature errors of a
fixed set of grain laws to one .npy file, then prints the file's SHA-256.
Run it on two versions of the program; equal hashes mean equal values, bit
for bit:

    PYTHONPATH=src python3 tools/covariance_rows.py [out.npy]

Standard error gets the wall time of each isotropic law's `sigma_matrix` at
each gamma, its profile tables included (their cache is cleared before each
call, which moves no value), the wall time of each anisotropic rho entry,
and the largest relative gap between the rows of the two hexagons, which are
one isotropic law; standard output only the row count and the hash.

Inputs, each at gamma 0.05, 0.3 and 1.0:
  * disks with radius uniform(0.5, 1.5) (closed-form profiles, and one
    chord-angle integral, the radius average inside, for rho11's boundary x
    boundary term);
  * rotated unit squares and rotated rects with halfwidth uniform(0.3, 0.6)
    and halfheight 0.5 (profile tables filled from closed forms), a rotated
    regular hexagon of circumradius 1 and the same hexagon at base angle 0.3
    (profile tables from angle panels); each table is exact at its nodes,
    and each law takes the edge-pair rule for rho11's boundary x boundary
    term;
  * anisotropic laws, which sigma_matrix refuses: unrotated unit squares,
    unrotated rects with halfwidth uniform(0.3, 0.6) and halfheight 0.5, or
    uniform(0.2, 0.7) (the plane rule's Cartesian panels), the unrotated
    regular hexagon of circumradius 1 and the right triangle (0, 0), (1, 0),
    (0, 1) (its polar panels); each takes the edge-pair rule too.

Each isotropic row holds one law and gamma: the 3 x 3 sigma matrix, the
3 x 3 rho table and the three rho errors.  An anisotropic row holds rho_22,
rho_12 and rho_11, each followed by its error, padded with NaN.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time

import numpy as np

from germgrain.covariance import covariogram_functions, rho_11, rho_12, rho_22, sigma_matrix
from germgrain.geometry import ConvexPolygon
from germgrain.model import GrainDistribution, ParamLaw, unit_squares


def hexagon(base, rotate=True):
    """The law of a regular hexagon of circumradius 1, a vertex at angle
    `base`, isotropic unless `rotate` is False."""
    return GrainDistribution("fixed", shape=ConvexPolygon(tuple(
        (math.cos(base + k * math.pi / 3.0), math.sin(base + k * math.pi / 3.0))
        for k in range(6))), rotate=rotate)


LAWS = {
    "uniform disks": GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5)),
    "rotated squares": unit_squares(rotate=True),
    "rotated hexagon": hexagon(0.0),
    "rotated hexagon at base angle 0.3": hexagon(0.3),
    "rotated uniform rects": GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.3, 0.6),
                                               halfheight=ParamLaw.constant(0.5), rotate=True),
}
ANISOTROPIC = {
    "unrotated squares": unit_squares(rotate=False),
    "unrotated uniform rects": GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.3, 0.6),
                                                 halfheight=ParamLaw.constant(0.5)),
    "unrotated rects, both sides uniform": GrainDistribution(
        "rect", halfwidth=ParamLaw.uniform(0.3, 0.6), halfheight=ParamLaw.uniform(0.2, 0.7)),
    "unrotated hexagon": hexagon(0.0, rotate=False),
    "right triangle": GrainDistribution("fixed", shape=ConvexPolygon(((0.0, 0.0), (1.0, 0.0),
                                                                     (0.0, 1.0)))),
}
GAMMAS = (0.05, 0.3, 1.0)
ERRORS = ("rho22_quadrature", "rho12_quadrature", "rho11_quadrature")
WIDTH = 9 + 9 + len(ERRORS)


def rows():
    out = []
    for name, law in LAWS.items():
        for gamma in GAMMAS:
            covariogram_functions.cache_clear()
            t0 = time.perf_counter()
            cm = sigma_matrix(gamma, law)
            print(f"{name}, gamma {gamma}: sigma_matrix {time.perf_counter() - t0:.3f} s",
                  file=sys.stderr)
            out.append(np.concatenate([cm.matrix.ravel(), cm.rho.values.ravel(),
                                       [cm.rho.errors[k] for k in ERRORS]]))
    for name, law in ANISOTROPIC.items():
        for gamma in GAMMAS:
            row = np.full(WIDTH, np.nan)
            for k, entry in enumerate((rho_22, rho_12, rho_11)):
                t0 = time.perf_counter()
                row[2 * k:2 * k + 2] = entry(gamma, law)
                print(f"{name}, gamma {gamma}: {entry.__name__} "
                      f"{time.perf_counter() - t0:.3f} s", file=sys.stderr)
            out.append(row)
    return np.array(out)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else "covariance_rows.npy"
    table = rows()
    hexagons = [table[i * len(GAMMAS):(i + 1) * len(GAMMAS), :WIDTH - len(ERRORS)]
                for i, name in enumerate(LAWS) if name.startswith("rotated hexagon")]
    gap = np.max(np.abs(hexagons[0] - hexagons[1]) / np.abs(hexagons[0]))
    print(f"rotated hexagon rows at base angles 0 and 0.3: largest relative gap {gap:.2e}",
          file=sys.stderr)
    np.save(path, table)
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    print(f"{len(table)} rows of {table.shape[1]} values")
    print(f"sha256 {digest}  {path}")


if __name__ == "__main__":
    main()
