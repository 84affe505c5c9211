"""Exact geometry of single convex grains.

Shapes are immutable value types: disks, axis-aligned rectangles and strictly
convex polygons, always centered so that the center of their smallest
enclosing circle sits at the origin.  On top of them this module provides the
planar intrinsic volumes (Euler characteristic, half perimeter, area), Steiner
dilation areas, set covariograms, boundary covariograms and Minkowski-sum
areas -- the single-grain quantities every mean-value and covariance formula
of the Boolean model is built from -- and the types that place grains:
the rectangular Window, a PlacedGrain, and Grains, the arrays of placed
grains that sampling produces and every engine reads.

Covariograms are array-valued for every family.  Disks and aligned
rectangles have closed forms; a polygon's two covariograms come from one
Cyrus-Beck clip of its edges against the halfplanes of its translates,
evaluated for all translations at once.

Convention: for a convex body K in the plane, v0(K) = 1, v1(K) is HALF the
perimeter and v2(K) is the area.  The half-perimeter normalization is the one
that makes the Steiner expansion read

    area(K + B_r) = v2(K) + 2*r*v1(K) + pi*r**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .records import NUMBER, POINT, Record, list_of

TWO_PI = 2.0 * math.pi


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
    """Strictly convex polygon, its vertices as given in counterclockwise order
    (a clockwise list is reversed), so that its record rebuilds an equal one.
    vertex_array(), which every computation reads, re-centres them once on
    their smallest enclosing circle (read-only).  Fewer than 3 vertices,
    repeated/collinear vertices or reflex turns are construction errors."""

    vertices: tuple  # tuple of (x, y) float pairs
    _centred: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = [(float(x), float(y)) for x, y in self.vertices]
        if len(verts) < 3:
            raise DegenerateShapeError("polygon needs at least 3 vertices")
        arr = np.asarray(verts, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise DegenerateShapeError("polygon vertices must be finite")
        # Huge coordinates may overflow these products, silently: a grain law
        # refuses the shape where its moments overflow.
        with np.errstate(over="ignore", invalid="ignore"):
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
        object.__setattr__(self, "vertices", tuple((float(x), float(y)) for x, y in arr))
        centred = arr - smallest_enclosing_circle(arr)[0]
        centred.flags.writeable = False
        object.__setattr__(self, "_centred", centred)

    def vertex_array(self) -> np.ndarray:
        return self._centred


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


def _as_polygon_vertices(shape) -> np.ndarray:
    if isinstance(shape, AlignedRect):
        w, h = shape.halfwidth, shape.halfheight
        return np.array([[w, h], [-w, h], [-w, -h], [w, -h]], dtype=float)
    return shape.vertex_array()


def polygon_halfplanes(verts: np.ndarray):
    """Outward unit normals (n, 2) and offsets (n,) of a CCW convex polygon,
    which is the set {x : normals @ x <= offsets}; row i belongs to the edge
    from vertex i to vertex i + 1."""
    e = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([e[:, 1], -e[:, 0]])
    normals /= np.hypot(e[:, 0], e[:, 1])[:, None]
    return normals, np.sum(normals * verts, axis=1)


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
    return ConvexPolygon(tuple(map(tuple, _as_polygon_vertices(shape) @ rot.T)))


# ---------------------------------------------------------------------------
# Intrinsic volumes, Steiner dilation, circumradius, unit-ball constants
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


def kappa(i: int) -> float:
    """Volume of the i-dimensional unit ball."""
    return math.pi ** (i / 2.0) / math.gamma(i / 2.0 + 1.0)


def c_const(i: int, j: int) -> float:
    """c^i_j = i! kappa_i / (j! kappa_j)."""
    return (math.factorial(i) * kappa(i)) / (math.factorial(j) * kappa(j))


def _composition_sum(total: int, parts: int, lo: int, hi: int, values, d: int) -> float:
    """Sum over the tuples (m_1..m_parts) with lo <= m_i <= hi summing to
    total of prod_i c^{m_i}_d values[m_i]."""
    out = 0.0
    for m in product(range(lo, hi + 1), repeat=parts):
        if sum(m) == total:
            term = 1.0
            for mi in m:
                term *= c_const(mi, d) * values[mi]
            out += term
    return out


def circumradius(shape: GrainShape) -> float:
    """Radius of the smallest enclosing ball centered at the origin."""
    if isinstance(shape, Disk):
        return shape.radius
    if isinstance(shape, AlignedRect):
        return math.hypot(shape.halfwidth, shape.halfheight)
    verts = shape.vertex_array()
    return float(np.max(np.hypot(verts[:, 0], verts[:, 1])))


# ---------------------------------------------------------------------------
# Covariograms: closed forms, and one array edge clip for polygons
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


def _edge_spans(verts: np.ndarray, tx, ty):
    """Clip the edges of a CCW convex polygon K to K + t, for all t at once.

    Cyrus-Beck: edge i, v_i + s*e_i for 0 <= s <= 1, against every halfplane
    of K + t.  Returns (span, flush), both of shape tx.shape + (n,): span is
    the length in s of the part of edge i inside K + t, and flush marks the
    edges that lie on the line of their own translate (n_i . t = 0), which
    that line does not clip.  An edge on the line of an opposite edge of
    K + t is clipped away, since that contact has no area.  "Parallel" and
    "on the line" are decided to 1e-12 of the polygon's scale.
    """
    normals, offsets = polygon_halfplanes(verts)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(verts))))
    # f_ij(s) = a_ij + s*b_ij is the signed distance of edge i's point s
    # outside halfplane j of K + t.
    shift = np.multiply.outer(tx, normals[:, 0]) + np.multiply.outer(ty, normals[:, 1])
    a = (verts @ normals.T - offsets) - shift[..., None, :]
    b = (np.roll(verts, -1, axis=0) - verts) @ normals.T
    parallel = np.abs(b) <= tol
    s = -a / np.where(parallel, 1.0, b)
    lo = np.max(np.where(b < -tol, s, 0.0), axis=-1)
    hi = np.min(np.where(b > tol, s, 1.0), axis=-1)
    cut = np.any(parallel & (a > np.where(np.eye(len(verts), dtype=bool), tol, -tol)), axis=-1)
    flush = np.abs(np.diagonal(a, axis1=-2, axis2=-1)) <= tol
    return np.where(cut, 0.0, np.maximum(hi - lo, 0.0)), flush


def covariogram(shape: GrainShape, t):
    """Set covariogram g_K(t) = area(K intersected with K + t).

    Closed form for disks (circular lens) and aligned rectangles (product of
    triangular one-dimensional covariograms).  For polygons, Green's theorem
    over the boundary pieces of the intersection: K's edges clipped to K + t,
    and K + t's edges clipped to K (K's edges clipped to K - t, shifted by
    t).  An edge shared by both, running the same way, counts once.  Always
    symmetric in t and supported on |t| < 2*circumradius.
    Array-valued: t = (tx, ty) with components of one shape.
    """
    tx, ty = np.asarray(t, dtype=float)
    if isinstance(shape, Disk):
        return disk_covariogram(shape.radius, np.hypot(tx, ty))
    if isinstance(shape, AlignedRect):
        return (np.maximum(2.0 * shape.halfwidth - np.abs(tx), 0.0)
                * np.maximum(2.0 * shape.halfheight - np.abs(ty), 0.0))[()]
    verts = shape.vertex_array()
    e = np.roll(verts, -1, axis=0) - verts
    cross = verts[:, 0] * e[:, 1] - verts[:, 1] * e[:, 0]
    span, _ = _edge_spans(verts, tx, ty)
    back, flush = _edge_spans(verts, -tx, -ty)
    back = np.where(flush, 0.0, back)
    # A piece s in [lo, hi] of edge v + s*e adds (hi - lo) * v x e to twice the area.
    twice = (np.sum(span * cross, axis=-1) + np.sum(back * cross, axis=-1)
             + tx * np.sum(back * e[:, 1], axis=-1) - ty * np.sum(back * e[:, 0], axis=-1))
    return np.where(np.hypot(tx, ty) >= 2.0 * circumradius(shape), 0.0, 0.5 * twice)[()]


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
        verts = shape.vertex_array()
        e = np.roll(verts, -1, axis=0) - verts
        span, flush = _edge_spans(verts, tx, ty)
        val = 0.5 * np.sum(np.where(flush, 0.0, span) * np.hypot(e[:, 0], e[:, 1]), axis=-1)
    return np.where(d <= 1e-15 * max(1.0, R), intrinsic_volumes(shape).v1,
                    np.where(d >= 2.0 * R, 0.0, val))[()]


# ---------------------------------------------------------------------------
# Minkowski sums
# ---------------------------------------------------------------------------


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
    normals, _ = polygon_halfplanes(q)
    lengths = np.hypot(*(np.roll(q, -1, axis=0) - q).T)
    mixed2 = float(np.max(p @ normals.T, axis=0) @ lengths)
    return _shoelace(p) + _shoelace(q) + mixed2


# ---------------------------------------------------------------------------
# Shape records (CLI probes, fixed grain laws, grain dumps)
# ---------------------------------------------------------------------------


_SHAPE = Record({"disk": (Disk, [("radius", NUMBER)]),
                 "rect": (AlignedRect, [("halfwidth", NUMBER), ("halfheight", NUMBER)]),
                 "polygon": (ConvexPolygon, [("vertices", list_of(POINT, "a list of points"))])},
                tag="kind")


def shape_to_record(shape: GrainShape) -> dict:
    return _SHAPE.write(shape)


def shape_from_record(rec: dict, path: str = "shape") -> GrainShape:
    return _SHAPE(rec, path)


# ---------------------------------------------------------------------------
# Windows and placed grains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangular sampling window."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = (float(self.lo[0]), float(self.lo[1]))
        hi = (float(self.hi[0]), float(self.hi[1]))
        if not (lo[0] < hi[0] and lo[1] < hi[1]):
            raise ValueError(f"window must have positive extent, got lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self):
        return self.hi[0] - self.lo[0]

    @property
    def height(self):
        return self.hi[1] - self.lo[1]

    def area(self):
        return self.width * self.height

    def perimeter(self):
        return 2.0 * (self.width + self.height)

    def dilated_area(self, r):
        return self.area() + self.perimeter() * r + math.pi * r * r

    def scaled(self, factor):
        cx = 0.5 * (self.lo[0] + self.hi[0])
        cy = 0.5 * (self.lo[1] + self.hi[1])
        hw = 0.5 * self.width * factor
        hh = 0.5 * self.height * factor
        return Window((cx - hw, cy - hh), (cx + hw, cy + hh))


@dataclass(frozen=True)
class PlacedGrain:
    center: tuple
    shape: GrainShape

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))


@dataclass(frozen=True, eq=False)
class Grains:
    """Placed grains as arrays, the form sampling produces and the engines read.

    centres (n, 2); radius (n,), a disk's radius or 0 for a polygon; count
    (n,), vertices per grain; loc (count.sum(), 2), the grains' local
    counterclockwise vertices stacked in grain order, one zero row for a disk.
    """

    centres: np.ndarray
    radius: np.ndarray
    count: np.ndarray
    loc: np.ndarray

    def __len__(self):
        return len(self.centres)

    def __iter__(self):
        """Each grain's row: (centre, radius, local vertices)."""
        return zip(self.centres, self.radius, np.split(self.loc, np.cumsum(self.count)[:-1]))

    @property
    def reach(self) -> np.ndarray:
        """Circumradius of each grain about its centre."""
        first = np.cumsum(self.count) - self.count
        hyp = np.hypot(self.loc[:, 0], self.loc[:, 1])
        return (np.maximum.reduceat(hyp, first) if len(self) else hyp) + self.radius

    def rows(self, idx) -> np.ndarray:
        """Indices into loc of the vertices of grains idx, in that order."""
        count = self.count[idx]
        first = np.cumsum(self.count) - self.count
        return np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count - first[idx], count)

    def take(self, idx) -> "Grains":
        return Grains(self.centres[idx], self.radius[idx], self.count[idx], self.loc[self.rows(idx)])

    @staticmethod
    def join(*parts) -> "Grains":
        return Grains(*(np.concatenate([getattr(g, f) for g in parts])
                        for f in ("centres", "radius", "count", "loc")))

    @staticmethod
    def stack(rows) -> "Grains":
        """The Grains of a sequence of rows."""
        centres, radius, outlines = tuple(zip(*rows)) or ((), (), ())
        return Grains(np.array(centres, dtype=float).reshape(-1, 2), np.array(radius, dtype=float),
                      np.array([len(o) for o in outlines], dtype=np.int64),
                      np.concatenate([np.zeros((0, 2)), *outlines]))

    @staticmethod
    def of(grains) -> "Grains":
        """A Grains unchanged, or the arrays of a sequence of PlacedGrain."""
        return grains if isinstance(grains, Grains) else Grains.stack(
            (g.center, *_row_of(g.shape)) for g in grains)


def _row_of(shape):
    """A shape's radius and local vertices, as a Grains row holds them."""
    return ((shape.radius, np.zeros((1, 2))) if isinstance(shape, Disk)
            else (0.0, _as_polygon_vertices(shape)))
