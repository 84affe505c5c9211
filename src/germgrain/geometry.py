"""Exact geometry of single convex grains.

Shapes are immutable value types: disks, axis-aligned rectangles and strictly
convex polygons, always centered so that the center of their smallest
enclosing circle sits at the origin.  On top of them this module provides the
planar intrinsic volumes (Euler characteristic, half perimeter, area), Steiner
dilation areas, set covariograms, boundary covariograms and Minkowski-sum
areas -- the single-grain quantities every mean-value and covariance formula
of the Boolean model is built from.

Convention: for a convex body K in the plane, v0(K) = 1, v1(K) is HALF the
perimeter and v2(K) is the area.  The half-perimeter normalization is the one
that makes the Steiner expansion read

    area(K + B_r) = v2(K) + 2*r*v1(K) + pi*r**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Vertex-coincidence tolerance for polygon clipping.
CLIP_EPS = 1e-12


class DegenerateShapeError(ValueError):
    """Raised when a shape constructor receives degenerate input."""


# ---------------------------------------------------------------------------
# Shape types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise DegenerateShapeError(f"disk radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class AlignedRect:
    halfwidth: float
    halfheight: float

    def __post_init__(self):
        if not (self.halfwidth > 0.0 and self.halfheight > 0.0
                and math.isfinite(self.halfwidth) and math.isfinite(self.halfheight)):
            raise DegenerateShapeError(
                f"rect half-sides must be positive, got ({self.halfwidth}, {self.halfheight})")


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, counterclockwise, circumcenter at the origin.

    Vertices passed to the constructor are re-centered on the center of their
    smallest enclosing circle; orientation is normalized to counterclockwise.
    Fewer than 3 vertices, repeated/collinear vertices or reflex turns are
    construction errors, never silent.
    """

    vertices: tuple  # tuple of (x, y) float pairs

    def __post_init__(self):
        verts = [(float(x), float(y)) for x, y in self.vertices]
        if len(verts) < 3:
            raise DegenerateShapeError("polygon needs at least 3 vertices")
        arr = np.asarray(verts, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise DegenerateShapeError("polygon vertices must be finite")
        # Normalize orientation before convexity checking.
        if _shoelace(arr) < 0.0:
            arr = arr[::-1]
        scale = float(np.max(np.abs(arr))) or 1.0
        n = len(arr)
        for i in range(n):
            a, b, c = arr[i], arr[(i + 1) % n], arr[(i + 2) % n]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross <= 1e-12 * scale * scale:
                raise DegenerateShapeError(
                    "polygon must be strictly convex with no three collinear vertices")
        center, _ = smallest_enclosing_circle(arr)
        arr = arr - center
        object.__setattr__(self, "vertices", tuple((float(x), float(y)) for x, y in arr))

    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)


GrainShape = Disk | AlignedRect | ConvexPolygon


@dataclass(frozen=True)
class IntrinsicVolumes2D:
    v0: float
    v1: float
    v2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.v0, self.v1, self.v2], dtype=float)


# ---------------------------------------------------------------------------
# Basic helpers
# ---------------------------------------------------------------------------


def _shoelace(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _perimeter(verts: np.ndarray) -> float:
    d = np.roll(verts, -1, axis=0) - verts
    return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


def _circumcircle(a, b, c):
    """Center and radius of the circle through three points, or None if collinear."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14 * (abs(ax) + abs(bx) + abs(cx) + 1.0) ** 2:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    return (ux, uy), r


def smallest_enclosing_circle(points: np.ndarray):
    """Smallest enclosing circle of a point set (Welzl-style, exact contract).

    Returns (center, radius).  Ties at machine precision are accepted.
    """
    pts = [tuple(map(float, p)) for p in np.asarray(points, dtype=float)]

    def in_circle(circle, p, tol):
        (cx, cy), r = circle
        return math.hypot(p[0] - cx, p[1] - cy) <= r + tol

    def circle_two(a, b):
        return ((0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])),
                0.5 * math.hypot(a[0] - b[0], a[1] - b[1]))

    scale = max(1.0, max(abs(v) for p in pts for v in p))
    tol = 1e-12 * scale

    def trivial(boundary):
        if not boundary:
            return ((0.0, 0.0), 0.0)
        if len(boundary) == 1:
            return (boundary[0], 0.0)
        if len(boundary) == 2:
            return circle_two(*boundary)
        circ = _circumcircle(*boundary)
        if circ is None:
            # Collinear support: widest pair.
            best = None
            for i in range(3):
                for j in range(i + 1, 3):
                    c = circle_two(boundary[i], boundary[j])
                    if best is None or c[1] > best[1]:
                        best = c
            return best
        return circ

    def welzl(idx, boundary):
        if idx == len(pts) or len(boundary) == 3:
            return trivial(boundary)
        circle = welzl(idx + 1, boundary)
        if in_circle(circle, pts[idx], tol):
            return circle
        return welzl(idx + 1, boundary + [pts[idx]])

    center, radius = welzl(0, [])
    return np.array(center), radius


def rotate_shape(shape: GrainShape, angle: float) -> GrainShape:
    """Rotate a shape about the origin; a rotated rect becomes a polygon."""
    if isinstance(shape, Disk) or angle == 0.0:
        return shape
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    if isinstance(shape, AlignedRect):
        w, h = shape.halfwidth, shape.halfheight
        corners = np.array([[w, h], [-w, h], [-w, -h], [w, -h]], dtype=float)
        return ConvexPolygon(tuple(map(tuple, corners @ rot.T)))
    return ConvexPolygon(tuple(map(tuple, shape.vertex_array() @ rot.T)))


# ---------------------------------------------------------------------------
# Intrinsic volumes, Steiner dilation, circumradius
# ---------------------------------------------------------------------------


def intrinsic_volumes(shape: GrainShape) -> IntrinsicVolumes2D:
    """(v0, v1, v2) of a nonempty convex grain: (1, perimeter/2, area)."""
    if isinstance(shape, Disk):
        r = shape.radius
        return IntrinsicVolumes2D(1.0, math.pi * r, math.pi * r * r)
    if isinstance(shape, AlignedRect):
        w, h = shape.halfwidth, shape.halfheight
        return IntrinsicVolumes2D(1.0, 2.0 * (w + h), 4.0 * w * h)
    verts = shape.vertex_array()
    return IntrinsicVolumes2D(1.0, 0.5 * _perimeter(verts), _shoelace(verts))


def steiner_area(shape: GrainShape, r: float) -> float:
    """Area of the parallel body K + B_r:  v2 + 2*r*v1 + pi*r**2."""
    if r < 0.0:
        raise ValueError(f"dilation radius must be nonnegative, got {r}")
    iv = intrinsic_volumes(shape)
    return iv.v2 + 2.0 * r * iv.v1 + math.pi * r * r


def circumradius(shape: GrainShape) -> float:
    """Radius of the smallest enclosing ball centered at the origin."""
    if isinstance(shape, Disk):
        return shape.radius
    if isinstance(shape, AlignedRect):
        return math.hypot(shape.halfwidth, shape.halfheight)
    verts = shape.vertex_array()
    return float(np.max(np.hypot(verts[:, 0], verts[:, 1])))


# ---------------------------------------------------------------------------
# Convex polygon clipping (vertices-only Sutherland-Hodgman)
# ---------------------------------------------------------------------------


def clip_polygon_halfplane(verts: np.ndarray, normal, offset: float) -> np.ndarray:
    """Clip a convex CCW polygon to the halfplane {x : normal . x <= offset}."""
    n = len(verts)
    if n == 0:
        return verts
    s = verts @ np.asarray(normal, dtype=float) - offset
    scale = max(1.0, float(np.max(np.abs(verts))))
    tol = CLIP_EPS * scale
    out = []
    for i in range(n):
        j = (i + 1) % n
        pi_in, pj_in = s[i] <= tol, s[j] <= tol
        if pi_in:
            out.append(verts[i])
        if pi_in != pj_in:
            t = s[i] / (s[i] - s[j])
            out.append(verts[i] + t * (verts[j] - verts[i]))
    if not out:
        return np.empty((0, 2))
    res = np.asarray(out)
    # Drop coincident vertices produced by near-boundary crossings.
    keep = [0]
    for i in range(1, len(res)):
        if np.hypot(*(res[i] - res[keep[-1]])) > tol:
            keep.append(i)
    if len(keep) > 1 and np.hypot(*(res[keep[-1]] - res[keep[0]])) <= tol:
        keep.pop()
    return res[keep]


def polygon_halfplanes(verts: np.ndarray):
    """Outward halfplane constraints (normal, offset) of a CCW convex polygon."""
    out = []
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        e = b - a
        nrm = np.array([e[1], -e[0]])
        ln = math.hypot(*nrm)
        nrm = nrm / ln
        out.append((nrm, float(nrm @ a)))
    return out


def intersect_polygons(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Intersection of two convex CCW polygons, as a (possibly empty) vertex array."""
    res = p
    for nrm, off in polygon_halfplanes(q):
        res = clip_polygon_halfplane(res, nrm, off)
        if len(res) < 3:
            return np.empty((0, 2))
    return res


# ---------------------------------------------------------------------------
# Covariograms
# ---------------------------------------------------------------------------


def disk_covariogram(radius, dist):
    """Lens area of two disks of equal radius with centers `dist` apart.

    Array-valued: radius and dist broadcast against each other.
    """
    r = np.asarray(radius, dtype=float)
    d = np.asarray(dist, dtype=float)
    two_r = 2.0 * r
    lens = (two_r * r * np.arccos(np.minimum(d / two_r, 1.0))
            - 0.5 * d * np.sqrt(np.maximum(two_r * two_r - d * d, 0.0)))
    return np.where(d >= two_r, 0.0, np.where(d <= 0.0, math.pi * r * r, lens))[()]


def disk_boundary_covariogram(radius, dist):
    """Half-length of a circle lying in the open disk translated by `dist`.

    r * acos(dist / 2r) below dist = 2r and 0 beyond, so dist = 0 gives the
    one-sided limit r*pi/2 (boundary_covariogram applies the v1 convention
    there).  Array-valued like disk_covariogram.
    """
    r = np.asarray(radius, dtype=float)
    d = np.asarray(dist, dtype=float)
    return np.where(d < 2.0 * r, r * np.arccos(np.minimum(d / (2.0 * r), 1.0)), 0.0)[()]


def _per_translation(kernel, shape, tx, ty):
    """Evaluate a scalar polygon kernel at every translation (polygons clip)."""
    vals = [kernel(shape, x, y) for x, y in zip(tx.ravel().tolist(), ty.ravel().tolist())]
    return np.array(vals, dtype=float).reshape(tx.shape)


def _polygon_covariogram(shape, tx, ty):
    if math.hypot(tx, ty) >= 2.0 * circumradius(shape):
        return 0.0
    verts = shape.vertex_array()
    inter = intersect_polygons(verts, verts + np.array([tx, ty]))
    if len(inter) < 3:
        return 0.0
    return _shoelace(inter)


def covariogram(shape: GrainShape, t):
    """Set covariogram g_K(t) = area(K intersected with K + t).

    Closed form for disks (circular lens) and aligned rectangles (product of
    triangular one-dimensional covariograms); convex polygon clipping for
    polygons.  Always symmetric in t and supported on |t| < 2*circumradius.
    Array-valued: t = (tx, ty) with components of one shape.
    """
    tx, ty = np.asarray(t, dtype=float)
    if isinstance(shape, Disk):
        return disk_covariogram(shape.radius, np.hypot(tx, ty))
    if isinstance(shape, AlignedRect):
        return (np.maximum(2.0 * shape.halfwidth - np.abs(tx), 0.0)
                * np.maximum(2.0 * shape.halfheight - np.abs(ty), 0.0))[()]
    return _per_translation(_polygon_covariogram, shape, tx, ty)[()]


def _segment_interior_length(a, b, halfplanes, tol: float) -> float:
    """Length of the part of segment [a, b] strictly inside all halfplanes."""
    lo, hi = 0.0, 1.0
    for nrm, off in halfplanes:
        fa = float(nrm @ a) - off
        fb = float(nrm @ b) - off
        # Want f(s) < -tol strictly along a + s*(b-a).
        if abs(fb - fa) < 1e-300:
            if fa >= -tol:
                return 0.0
            continue
        s_star = (-tol - fa) / (fb - fa)
        if fb > fa:
            hi = min(hi, s_star)
        else:
            lo = max(lo, s_star)
        if lo >= hi:
            return 0.0
    return (hi - lo) * math.hypot(*(b - a))


def _polygon_boundary_covariogram(shape, tx, ty):
    R = circumradius(shape)
    if math.hypot(tx, ty) >= 2.0 * R:
        return 0.0
    verts = shape.vertex_array()
    shifted = polygon_halfplanes(verts + np.array([tx, ty]))
    tol = 1e-12 * max(1.0, R)
    total = 0.0
    n = len(verts)
    for i in range(n):
        total += _segment_interior_length(verts[i], verts[(i + 1) % n], shifted, tol)
    return 0.5 * total


def boundary_covariogram(shape: GrainShape, t):
    """Half-length of the boundary of K lying in the open interior of K + t.

    At t = 0 the convention is v1(K) (the whole boundary, halved), matching
    how the value enters the covariance integrals; the one-sided limit of the
    open-interior definition as t -> 0 is v1(K)/2, but the single point t = 0
    never carries quadrature weight.  Array-valued like covariogram.
    """
    tx, ty = np.asarray(t, dtype=float)
    d = np.hypot(tx, ty)
    R = circumradius(shape)
    if isinstance(shape, Disk):
        val = disk_boundary_covariogram(shape.radius, d)
    elif isinstance(shape, AlignedRect):
        w, h = shape.halfwidth, shape.halfheight
        ax, ay = np.abs(tx), np.abs(ty)
        val = 0.5 * (np.where((0.0 < ax) & (ax < 2.0 * w), np.maximum(2.0 * h - ay, 0.0), 0.0)
                     + np.where((0.0 < ay) & (ay < 2.0 * h), np.maximum(2.0 * w - ax, 0.0), 0.0))
    else:
        val = _per_translation(_polygon_boundary_covariogram, shape, tx, ty)
    return np.where(d <= 1e-15 * max(1.0, R), intrinsic_volumes(shape).v1,
                    np.where(d >= 2.0 * R, 0.0, val))[()]


# ---------------------------------------------------------------------------
# Minkowski sums
# ---------------------------------------------------------------------------


def _as_polygon_vertices(shape) -> np.ndarray:
    if isinstance(shape, AlignedRect):
        w, h = shape.halfwidth, shape.halfheight
        return np.array([[w, h], [-w, h], [-w, -h], [w, -h]], dtype=float)
    return shape.vertex_array()


def _support(verts: np.ndarray, u) -> float:
    return float(np.max(verts @ np.asarray(u)))


def minkowski_sum_area(shape: GrainShape, probe: GrainShape) -> float:
    """Area of shape (+) probe*, the probe reflected through the origin.

    This is the translative kernel behind the capacity functional: the set of
    translations x for which (probe + x) hits the shape has exactly this area.
    Exact in every family pairing: disk/disk directly, disk/polygon through
    the Steiner expansion, polygon/polygon through the mixed-area support sum.
    """
    if isinstance(shape, Disk) and isinstance(probe, Disk):
        r = shape.radius + probe.radius
        return math.pi * r * r
    if isinstance(shape, Disk) or isinstance(probe, Disk):
        disk, other = (shape, probe) if isinstance(shape, Disk) else (probe, shape)
        return steiner_area(other, disk.radius)
    if isinstance(shape, AlignedRect) and isinstance(probe, AlignedRect):
        return 4.0 * (shape.halfwidth + probe.halfwidth) * (shape.halfheight + probe.halfheight)
    p = _as_polygon_vertices(shape)
    q = -_as_polygon_vertices(probe)  # reflection
    if _shoelace(q) < 0.0:
        q = q[::-1]
    # area(P + Q) = area(P) + area(Q) + sum over edges e of Q of h_P(n_e) |e|
    mixed2 = 0.0
    nq = len(q)
    for i in range(nq):
        a, b = q[i], q[(i + 1) % nq]
        e = b - a
        ln = math.hypot(*e)
        nrm = np.array([e[1], -e[0]]) / ln
        mixed2 += _support(p, nrm) * ln
    return _shoelace(p) + _shoelace(q) + mixed2


# ---------------------------------------------------------------------------
# Serialization (CLI config / grain dump records)
# ---------------------------------------------------------------------------


def shape_to_record(shape: GrainShape) -> dict:
    if isinstance(shape, Disk):
        return {"kind": "disk", "radius": shape.radius}
    if isinstance(shape, AlignedRect):
        return {"kind": "rect", "halfwidth": shape.halfwidth, "halfheight": shape.halfheight}
    return {"kind": "polygon", "vertices": [list(v) for v in shape.vertices]}


def shape_from_record(rec: dict) -> GrainShape:
    kind = rec.get("kind")
    if kind == "disk":
        return Disk(float(rec["radius"]))
    if kind == "rect":
        return AlignedRect(float(rec["halfwidth"]), float(rec["halfheight"]))
    if kind == "polygon":
        return ConvexPolygon(tuple((float(x), float(y)) for x, y in rec["vertices"]))
    raise ValueError(f"unknown shape kind: {kind!r}")
