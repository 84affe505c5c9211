"""Exact convex cells bounded by line segments and circular arcs.

A cell is the intersection of a rectangular window with any number of grains
(Grains rows: disks and convex polygons).  Its boundary is kept as an ordered
counterclockwise chain of primitives (segments and arcs), built by clipping
the window chain sequentially against each constraint:

  * halfplane clip (polygon edges) -- the removed part of a convex
    chain is one contiguous run, closed with a single chord;
  * disk clip -- the chain may enter and leave the circle several times, and
    every gap is closed with the counterclockwise arc of the clipping circle.

From the chain the planar intrinsic volumes of the cell follow exactly:
area by Green's theorem, v1 as half the chain length, v0 = 1.

Degenerate tangencies are resolved by the deterministic convention that
measure-zero intersections count as empty: any cell whose area ends up below
the coincidence tolerance reports Empty.  The tolerances are absolute: the
inclusion-exclusion oracle clips on union's normalized frame (a window side
in [1/2, 1), centred on the window), where they are relative to the window;
intersect_convex clips in the caller's coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import TWO_PI, Grains, Window, polygon_halfplanes

# Coordinate epsilon for vertex identification.
COORD_EPS = 1e-9
# Cells with area at or below this are treated as empty (measure-zero policy).
AREA_EPS = 1e-12


class TooManyGrainsError(ValueError):
    """Raised when an exact engine is asked to exceed its configured cap."""


@dataclass(frozen=True)
class Seg:
    p: tuple
    q: tuple

    def length(self):
        return math.hypot(self.q[0] - self.p[0], self.q[1] - self.p[1])

    def green(self):
        return 0.5 * (self.p[0] * self.q[1] - self.q[0] * self.p[1])

    def start(self):
        return self.p

    def end(self):
        return self.q

    def point_at(self, s):
        return (self.p[0] + s * (self.q[0] - self.p[0]),
                self.p[1] + s * (self.q[1] - self.p[1]))


@dataclass(frozen=True)
class Arc:
    """Circular arc traversed counterclockwise from angle a0 over sweep > 0."""

    center: tuple
    radius: float
    a0: float
    sweep: float

    def length(self):
        return self.radius * self.sweep

    def green(self):
        cx, cy = self.center
        r = self.radius
        a1 = self.a0 + self.sweep
        return 0.5 * (r * r * self.sweep
                      + cx * r * (math.sin(a1) - math.sin(self.a0))
                      - cy * r * (math.cos(a1) - math.cos(self.a0)))

    def start(self):
        return (self.center[0] + self.radius * math.cos(self.a0),
                self.center[1] + self.radius * math.sin(self.a0))

    def end(self):
        a1 = self.a0 + self.sweep
        return (self.center[0] + self.radius * math.cos(a1),
                self.center[1] + self.radius * math.sin(a1))

    def point_at(self, s):
        a = self.a0 + s * self.sweep
        return (self.center[0] + self.radius * math.cos(a),
                self.center[1] + self.radius * math.sin(a))


def _norm_angle(a):
    a = math.fmod(a, TWO_PI)
    return a + TWO_PI if a < 0.0 else a


# ---------------------------------------------------------------------------
# Chain clipping
# ---------------------------------------------------------------------------


def _probes(piece):
    """Two interior points of a piece.  A piece that is not cut by a boundary
    can touch it at one point only, so one of them lies strictly on its side."""
    return piece.point_at(1.0 / 3.0), piece.point_at(2.0 / 3.0)


def _inside_circle(piece, center, radius):
    """Strict side test of an uncut piece: a piece touching the circle is outside."""
    return min(math.hypot(x - center[0], y - center[1]) for x, y in _probes(piece)) < radius


def _split_seg_halfplane(seg: Seg, nrm, off, tol):
    """Split a segment at the halfplane boundary; yield (piece, inside)."""
    fp = nrm[0] * seg.p[0] + nrm[1] * seg.p[1] - off
    fq = nrm[0] * seg.q[0] + nrm[1] * seg.q[1] - off
    if (fp <= tol) == (fq <= tol):
        return [(seg, fp <= tol and fq <= tol or 0.5 * (fp + fq) <= tol)]
    t = fp / (fp - fq)
    m = seg.point_at(t)
    pieces = []
    if seg.p != m:
        pieces.append((Seg(seg.p, m), fp <= tol))
    if m != seg.q:
        pieces.append((Seg(m, seg.q), fq <= tol))
    return pieces


def _split_arc_at(arc: Arc, angles):
    """Split an arc at interior parameter angles (absolute, already filtered)."""
    rel = sorted(_norm_angle(a - arc.a0) for a in angles)
    rel = [r for r in rel if 1e-12 < r < arc.sweep - 1e-12]
    cuts = [0.0] + rel + [arc.sweep]
    return [Arc(arc.center, arc.radius, arc.a0 + cuts[i], cuts[i + 1] - cuts[i])
            for i in range(len(cuts) - 1) if cuts[i + 1] - cuts[i] > 0.0]


def _split_arc_halfplane(arc: Arc, nrm, off, tol):
    cx, cy = arc.center
    r = arc.radius
    h = (off - (nrm[0] * cx + nrm[1] * cy)) / r
    phi = math.atan2(nrm[1], nrm[0])
    crossings = []
    if -1.0 < h < 1.0:
        da = math.acos(h)
        crossings = [phi + da, phi - da]
    return [(piece, min(nrm[0] * x + nrm[1] * y for x, y in _probes(piece)) - off <= tol)
            for piece in _split_arc_at(arc, crossings)]


def _split_seg_circle(seg: Seg, center, radius):
    px, py = seg.p
    dx, dy = seg.q[0] - px, seg.q[1] - py
    fx, fy = px - center[0], py - center[1]
    a = dx * dx + dy * dy
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - radius * radius
    disc = b * b - 4.0 * a * c
    params = []
    if disc > 0.0 and a > 0.0:
        sq = math.sqrt(disc)
        for t in ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)):
            if 1e-12 < t < 1.0 - 1e-12:
                params.append(t)
    params.sort()
    cuts = [0.0] + params + [1.0]
    pieces = []
    for i in range(len(cuts) - 1):
        if cuts[i + 1] - cuts[i] <= 0.0:
            continue
        sub = Seg(seg.point_at(cuts[i]), seg.point_at(cuts[i + 1]))
        pieces.append((sub, _inside_circle(sub, center, radius)))
    return pieces


def circle_circle_angles(c1, r1, c2, r2):
    """Angles (on circle 1) of the two intersection points with circle 2.

    Returns [] when the circles do not cross transversally; tangencies count
    as non-crossing per the measure-zero policy.
    """
    d = math.hypot(c2[0] - c1[0], c2[1] - c1[1])
    if d >= r1 + r2 or d <= abs(r1 - r2) or d == 0.0:
        return []
    cosa = (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)
    cosa = min(1.0, max(-1.0, cosa))
    alpha = math.acos(cosa)
    phi = math.atan2(c2[1] - c1[1], c2[0] - c1[0])
    return [phi - alpha, phi + alpha]


def _split_arc_circle(arc: Arc, center, radius):
    angles = circle_circle_angles(arc.center, arc.radius, center, radius)
    pieces = []
    for piece in _split_arc_at(arc, angles):
        pieces.append((piece, _inside_circle(piece, center, radius)))
    return pieces


def _reassemble(flagged, closer):
    """Keep inside pieces of a cyclic flagged chain; close gaps with `closer`.

    `closer` maps (exit_point, entry_point) to a list of connecting primitives.
    """
    n = len(flagged)
    kept_idx = [i for i, (_, inside) in enumerate(flagged) if inside]
    if not kept_idx:
        return None
    if len(kept_idx) == n:
        return [p for p, _ in flagged]
    out = []
    # Walk cyclically from the first kept piece after a gap.
    start = next(i for i in kept_idx if not flagged[(i - 1) % n][1])
    i = start
    while True:
        piece, inside = flagged[i]
        if inside:
            out.append(piece)
            nxt = (i + 1) % n
            if not flagged[nxt][1]:
                # Find next kept piece; bridge the gap.
                j = nxt
                while not flagged[j][1]:
                    j = (j + 1) % n
                out.extend(closer(piece.end(), flagged[j][0].start()))
                if j == start:
                    break
                i = j
                continue
            if nxt == start:
                break
            i = nxt
        else:  # pragma: no cover - walk only visits kept pieces
            i = (i + 1) % n
    return out


def clip_chain_halfplane(chain, nrm, off, tol=COORD_EPS):
    flagged = []
    for prim in chain:
        if isinstance(prim, Seg):
            flagged.extend(_split_seg_halfplane(prim, nrm, off, tol))
        else:
            flagged.extend(_split_arc_halfplane(prim, nrm, off, tol))
    return _reassemble(flagged, lambda a, b: [Seg(a, b)] if a != b else [])


def clip_chain_disk(chain, center, radius, tol=COORD_EPS):
    flagged = []
    any_inside = False
    for prim in chain:
        if isinstance(prim, Seg):
            parts = _split_seg_circle(prim, center, radius)
        else:
            parts = _split_arc_circle(prim, center, radius)
        flagged.extend(parts)
        any_inside = any_inside or any(ins for _, ins in parts)

    if not any_inside:
        # Chain fully outside the disk: the intersection is the full disk if
        # its center lies inside the cell, else empty.  The caller resolves
        # the containment test; signal with None vs full-circle sentinel.
        return "disk-or-empty"

    def closer(a, b):
        a0 = math.atan2(a[1] - center[1], a[0] - center[0])
        a1 = math.atan2(b[1] - center[1], b[0] - center[0])
        sweep = _norm_angle(a1 - a0)
        if sweep <= 1e-12 or sweep >= TWO_PI - 1e-12:
            return [Seg(a, b)] if math.hypot(b[0] - a[0], b[1] - a[1]) > tol else []
        return [Arc(center, radius, a0, sweep)]

    return _reassemble(flagged, closer)


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


def grain_constraints(centre, radius, loc):
    """Constraints of a Grains row: ('d', center, radius), or ('h', normal, offset) per edge."""
    if radius > 0.0:
        return [("d", (float(centre[0]), float(centre[1])), float(radius))]
    normals, offsets = polygon_halfplanes(centre + loc)
    return [("h", (float(n[0]), float(n[1])), float(off)) for n, off in zip(normals, offsets)]


class ConvexCell:
    """Intersection cell with explicit boundary chain and constraint list."""

    __slots__ = ("chain", "constraints")

    def __init__(self, chain, constraints):
        self.chain = chain
        self.constraints = constraints

    def area(self):
        return sum(p.green() for p in self.chain)

    def boundary_length(self):
        return sum(p.length() for p in self.chain)

    def functionals(self):
        """(v0, v1, v2) of the cell; measure-zero cells report (0, 0, 0)."""
        a = self.area()
        if a <= AREA_EPS:
            return (0.0, 0.0, 0.0)
        return (1.0, 0.5 * self.boundary_length(), a)

    def contains(self, x, y, tol=COORD_EPS):
        for c in self.constraints:
            if c[0] == "h":
                (nx, ny), off = c[1], c[2]
                if nx * x + ny * y - off > tol:
                    return False
            else:
                (cx, cy), r = c[1], c[2]
                if math.hypot(x - cx, y - cy) > r + tol:
                    return False
        return True


def clip_cell(cell: ConvexCell, constraints) -> ConvexCell | None:
    """Clip a cell by further constraints; None means empty."""
    chain = cell.chain
    for c in constraints:
        if chain is None:
            return None
        if c[0] == "h":
            chain = clip_chain_halfplane(chain, c[1], c[2])
        else:
            center, radius = c[1], c[2]
            res = clip_chain_disk(chain, center, radius)
            if res == "disk-or-empty":
                probe = ConvexCell(chain, cell.constraints)
                res = ([Arc(center, radius, 0.0, TWO_PI)]
                       if probe.contains(*center) else None)
            chain = res
    if chain is None:
        return None
    out = ConvexCell(chain, cell.constraints + list(constraints))
    if out.area() <= AREA_EPS:
        return None
    return out


def window_cell(window: Window) -> ConvexCell:
    (x0, y0), (x1, y1) = window.lo, window.hi
    chain = [Seg((x0, y0), (x1, y0)), Seg((x1, y0), (x1, y1)),
             Seg((x1, y1), (x0, y1)), Seg((x0, y1), (x0, y0))]
    return ConvexCell(chain, [("h", (1.0, 0.0), x1), ("h", (-1.0, 0.0), -x0),
                              ("h", (0.0, 1.0), y1), ("h", (0.0, -1.0), -y0)])


def intersect_convex(grains, window: Window, cap: int = 20):
    """Exact intersection of placed grains with the window.

    Returns (functionals, cell) where functionals is the (v0, v1, v2) triple
    of the intersection cell and cell is the ConvexCell (None when empty).
    Raises TooManyGrainsError beyond the cap -- never silent truncation.
    """
    grains = Grains.of(grains)
    if not 1 <= len(grains) <= cap:
        raise TooManyGrainsError(
            f"intersect_convex accepts 1..{cap} grains, got {len(grains)}")
    cell = window_cell(window)
    for row in grains:
        cell = clip_cell(cell, grain_constraints(*row))
        if cell is None:
            return (0.0, 0.0, 0.0), None
    return cell.functionals(), cell
