"""Functionals (v0, v1, v2) of a union of placed grains clipped to a window.

Three engines compute the same quantity:

  * inclusion_exclusion_measure -- the additive-extension oracle: a signed sum
    of intersection-cell functionals over all nonempty grain subsets, with
    depth-first pruning (supersets of an empty intersection stay empty).
    Exponential; capped at 18 grains hitting the window.

  * arrangement_measure -- exact polynomial-time engine over boundary
    intervals, one path for every grain type.  Each boundary primitive (a
    disk's circle, a polygon edge, an edge of the window or of the optional
    convex mask) gets the parameter intervals that other bodies cover: a
    grain covers with its open interior, the observation region covers what
    lies outside it.  One vectorized merge segmented by primitive yields the
    kept pieces, the uncovered gaps of grain primitives and the covered runs
    of region primitives.  The area follows from Green's theorem, v1 is half
    the kept length, and the Euler characteristic comes from total boundary
    turning (Gauss-Bonnet: swept arc angle plus the turn at each piece's
    start, divided by 2*pi).  Each turn is read from the primitive bounding
    the covering interval that ends there, or from the body's own vertex, so
    no endpoints are matched.  All geometry is window-centred.

  * pixel_measure -- approximate raster engine from 2x2 pixel-configuration
    counts.  Area error is O(1/resolution); the perimeter estimator uses the
    two-direction Cauchy-Crofton weight pi/4 on axis adjacencies, which is
    unbiased in the isotropic-boundary limit and biased (by 4/pi) for
    axis-aligned boundaries; the Euler number uses 8-connected foreground
    weights and is exact once the resolution resolves all features.

Measure-zero contacts (tangent circles, shared edges, vertex-on-edge) count
as empty intersections in every engine: flush grains behave as if pulled
apart by an infinitesimal perturbation.  In the arrangement engine,
coincident boundary pieces running in opposite directions are a flush
contact and both stay; pieces running the same way stay once, on the grain
listed first; a grain edge on the window boundary stays and the window piece
beneath it is dropped.  A point contact on exactly representable
coordinates (a vertex touching another boundary) can still leave the turning
sum off an integer, which the engine reports as an error.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .cells import (TWO_PI, PlacedGrain, TooManyGrainsError, Window,
                    clip_cell, grain_constraints, window_cell)
from .geometry import AlignedRect, Disk, _as_polygon_vertices

__all__ = [
    "FunctionalVector", "inclusion_exclusion_measure", "arrangement_measure",
    "edge_corrected_measure", "segment_coverage", "pixel_measure", "rasterize",
    "write_pgm",
]


class FunctionalVector:
    """(v0, v1, v2) of a polyconvex observed set: count, half perimeter, area."""

    __slots__ = ("v0", "v1", "v2")

    def __init__(self, v0, v1, v2):
        self.v0 = float(v0)
        self.v1 = float(v1)
        self.v2 = float(v2)

    def as_array(self):
        return np.array([self.v0, self.v1, self.v2])

    def __repr__(self):
        return f"FunctionalVector(v0={self.v0}, v1={self.v1}, v2={self.v2})"


# ---------------------------------------------------------------------------
# Inclusion-exclusion oracle
# ---------------------------------------------------------------------------


def inclusion_exclusion_measure(grains, window: Window, cap: int = 18) -> FunctionalVector:
    """Additive extension of (v0, v1, v2) to the union via inclusion-exclusion."""
    base = window_cell(window)
    cons = []
    for g in grains:
        gc = grain_constraints(g)
        if clip_cell(base, gc) is not None:
            cons.append(gc)
    if len(cons) > cap:
        raise TooManyGrainsError(
            f"{len(cons)} grains hit the window; the inclusion-exclusion oracle is "
            f"capped at {cap} -- use arrangement_measure instead")
    total = np.zeros(3)

    def recurse(cell, start, size):
        for j in range(start, len(cons)):
            sub = clip_cell(cell, cons[j])
            if sub is None:
                continue
            sign = 1.0 if size % 2 == 0 else -1.0
            total.__iadd__(sign * np.array(sub.functionals()))
            recurse(sub, j + 1, size + 1)

    recurse(base, 0, 0)
    return FunctionalVector(*total)


# ---------------------------------------------------------------------------
# Interval merges
# ---------------------------------------------------------------------------


def _merge_circular(intervals):
    """Union of angular intervals; returns (gaps, covered_width).

    Each interval is (start, width, owner) with width in (0, 2*pi].  Gaps come
    back as (gap_start, gap_end, owner_at_gap_start) with absolute angles and
    gap_end > gap_start; owner_at_gap_start is the owner of the covered
    interval that ends where the gap begins.

    Readable single-disk reference for the segmented vectorized merge below;
    the test suite holds the two implementations together.
    """
    if not intervals:
        return [(0.0, TWO_PI, None)], 0.0
    ivs = []
    for s, w, o in intervals:
        if w >= TWO_PI - 1e-12:
            return [], TWO_PI
        s = math.fmod(s, TWO_PI)
        if s < 0.0:
            s += TWO_PI
        ivs.append((s, w, o))
    ivs.sort(key=lambda t: t[0])
    theta0 = ivs[0][0]
    offs = [((s - theta0) % TWO_PI, w, o) for s, w, o in ivs]
    offs.sort(key=lambda t: t[0])
    gaps = []
    reach = offs[0][0] + offs[0][1]
    owner = offs[0][2]
    for a, w, o in offs[1:]:
        if a <= reach + 1e-12:
            if a + w > reach:
                reach = a + w
                owner = o
        else:
            gaps.append((reach, a, owner))
            reach = a + w
            owner = o
    wrap = reach - TWO_PI
    if reach < TWO_PI - 1e-12:
        gaps.append((reach, TWO_PI, owner))
        wrap_owner = None
    else:
        wrap_owner = owner
    if wrap > 1e-12:
        trimmed = []
        for g0, g1, o in gaps:
            if g1 <= wrap + 1e-12:
                continue
            if g0 < wrap:
                trimmed.append((wrap, g1, wrap_owner))
            else:
                trimmed.append((g0, g1, o))
        gaps = trimmed
    out = []
    covered = TWO_PI
    for g0, g1, o in gaps:
        if g1 - g0 > 1e-12:
            out.append((theta0 + g0, theta0 + g1, o))
            covered -= (g1 - g0)
    return out, covered


def _merge_circular_vec(disk_ids, starts, widths, owners, eps=1e-12):
    """Vectorized circular-interval union, segmented by disk id.

    Returns (gap_disk, gap_a0, gap_a1, gap_owner) with absolute angles,
    a1 > a0, and gap_owner the coverer whose interval ends where the gap
    begins (-5 marks an impossible owner and never occurs on real gaps).
    Disks whose coverage reaches the full circle produce no rows; disks with
    no intervals at all must be handled by the caller.
    """
    n = len(disk_ids)
    if n == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0),
                np.empty(0, dtype=np.int64))
    s = np.mod(starts, TWO_PI)
    order = np.lexsort((s, disk_ids))
    disk_ids = disk_ids[order]
    s = s[order]
    w = widths[order]
    owners = owners[order]

    first = np.flatnonzero(np.r_[True, disk_ids[1:] != disk_ids[:-1]])
    seg = np.cumsum(np.r_[False, disk_ids[1:] != disk_ids[:-1]])
    theta0 = s[first][seg]
    a = s - theta0
    b = a + w

    K = 16.0  # > 4*pi, so per-segment keys never collide
    key = b + seg * K
    cm = np.maximum.accumulate(key)
    newmax = key >= cm
    posmax = np.maximum.accumulate(np.where(newmax, np.arange(n), -1))
    reach = cm - seg * K

    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    last = np.r_[first[1:] - 1, n - 1]

    gap_d, gap_g0, gap_g1, gap_o, gap_seg = [], [], [], [], []
    # interior gaps
    idx = np.flatnonzero(~is_first & (a > np.r_[0.0, reach[:-1]] + eps))
    if len(idx):
        prev = idx - 1
        gap_d.append(disk_ids[idx])
        gap_g0.append(reach[prev])
        gap_g1.append(a[idx])
        gap_o.append(owners[posmax[prev]])
        gap_seg.append(seg[idx])
    # final gaps
    open_end = reach[last] < TWO_PI - eps
    if np.any(open_end):
        li = last[open_end]
        gap_d.append(disk_ids[li])
        gap_g0.append(reach[li])
        gap_g1.append(np.full(len(li), TWO_PI))
        gap_o.append(owners[posmax[li]])
        gap_seg.append(seg[li])
    if not gap_d:
        return (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0),
                np.empty(0, dtype=np.int64))
    gd = np.concatenate(gap_d)
    g0 = np.concatenate(gap_g0)
    g1 = np.concatenate(gap_g1)
    go = np.concatenate(gap_o)
    gs = np.concatenate(gap_seg)

    # wrap-around trimming: coverage past 2*pi eats into the earliest gaps
    wrap = np.maximum(reach[last] - TWO_PI, 0.0)[gs]
    wrap_owner = owners[posmax[last]][gs]
    keep = g1 > wrap + eps
    trimmed = keep & (g0 < wrap)
    go = np.where(trimmed, wrap_owner, go)
    g0 = np.maximum(g0, wrap)
    keep &= (g1 - g0) > eps
    t0 = theta0[np.flatnonzero(is_first)][gs]
    return gd[keep], (t0 + g0)[keep], (t0 + g1)[keep], go[keep]


# ---------------------------------------------------------------------------
# Boundary-interval engine
# ---------------------------------------------------------------------------

# Parameter tolerance: edges are parameterized over [0, 1], circles by angle
# over [0, 2*pi], so the tolerance is relative to each primitive's size.
_EPS = 1e-12


class _Boundary:
    """Boundary primitives of convex bodies in local coordinates.

    Body 0 is the observation region (or the probe segment of
    segment_coverage); bodies 1.. are grains.  A primitive is either a full
    counterclockwise circle, parameterized by angle over [0, 2*pi], or a
    directed edge x + u*d, u in [0, 1], with outward unit normal n and offset
    n.x.  Polygon edges run counterclockwise, so each body keeps its interior
    on the left.
    """

    def __init__(self, centres, outlines):
        # outlines[b]: a disk radius (float) or local polygon vertices (m, 2).
        radius = np.array([o if isinstance(o, float) else 0.0 for o in outlines])
        count = np.array([1 if isinstance(o, float) else len(o) for o in outlines])
        disk = radius > 0.0
        first = np.cumsum(count) - count
        body = np.repeat(np.arange(len(outlines)), count)
        loc = np.zeros((int(count.sum()), 2))
        if not np.all(disk):
            loc[~disk[body]] = np.concatenate([o for o, d in zip(outlines, disk) if not d])
        k = np.arange(len(body)) - first[body]
        nxt = first[body] + (k + 1) % count[body]
        self.prev = first[body] + (k - 1) % count[body]
        self.body = body
        self.is_arc = disk[body]
        self.x = centres[body, 0] + loc[:, 0]
        self.y = centres[body, 1] + loc[:, 1]
        self.dx = self.x[nxt] - self.x
        self.dy = self.y[nxt] - self.y
        self.r = radius[body]
        self.len2 = np.where(self.is_arc, 1.0, self.dx * self.dx + self.dy * self.dy)
        ln = np.sqrt(self.len2)
        self.nx = np.where(self.is_arc, 0.0, self.dy / ln)
        self.ny = np.where(self.is_arc, 0.0, -self.dx / ln)
        self.off = self.nx * self.x + self.ny * self.y
        self.disk = disk
        self.count = count
        self.centres = centres
        # Circumradius about the centre, for neighbour search.
        self.reach = np.maximum.reduceat(np.hypot(loc[:, 0], loc[:, 1]) + self.r, first)
        # table[b] lists body b's primitives, padded with -1.
        cols = np.arange(int(count.max()))
        self.table = np.where(cols < count[:, None], first[:, None] + cols, -1)

    def point(self, p, u):
        """Point at parameter u of primitives p."""
        arc = self.is_arc[p]
        return (np.where(arc, self.x[p] + self.r[p] * np.cos(u), self.x[p] + u * self.dx[p]),
                np.where(arc, self.y[p] + self.r[p] * np.sin(u), self.y[p] + u * self.dy[p]))

    def level(self, p, px, py):
        """Boundary function of primitives p at points: <= 0 on the body's side."""
        return np.where(self.is_arc[p], np.hypot(px - self.x[p], py - self.y[p]) - self.r[p],
                        self.nx[p] * px + self.ny[p] * py - self.off[p])

    def tangent(self, p, px, py):
        """Counterclockwise tangent (unnormalized) of primitives p at points on them."""
        arc = self.is_arc[p]
        return (np.where(arc, self.y[p] - py, self.dx[p]),
                np.where(arc, px - self.x[p], self.dy[p]))


def _seg_in_poly(bd, p, j):
    """Interval [lo, hi] of edges p inside the open polygons j (Cyrus-Beck).

    An edge lying on one of j's edge lines counts as inside that halfplane
    only when both run the same way and j has the lower body index: a
    coincident boundary piece stays once, on the lower-indexed body, and a
    flush contact (opposite directions) is outside.  hi <= lo is empty.
    Also returns the edges of j crossed at lo and at hi; at hi a coincident
    edge of j, which carries the boundary on, takes precedence.
    """
    h = bd.table[j]
    pad = h < 0
    h = np.where(pad, 0, h)
    px, py = bd.x[p, None], bd.y[p, None]
    f0 = np.where(pad, -1.0, bd.nx[h] * px + bd.ny[h] * py - bd.off[h])
    f1 = np.where(pad, -1.0, bd.nx[h] * (px + bd.dx[p, None]) + bd.ny[h] * (py + bd.dy[p, None])
                  - bd.off[h])
    den = f1 - f0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = f0 / (f0 - f1)
    t_in = np.where(den < 0.0, t, -np.inf)
    t_out = np.where(den > 0.0, t, np.inf)
    lo, hi = np.max(t_in, axis=1), np.min(t_out, axis=1)
    same = ((f0 == 0.0) & (den == 0.0) & (j < bd.body[p])[:, None]
            & (bd.nx[h] * bd.nx[p, None] + bd.ny[h] * bd.ny[p, None] > 0.0))
    blocked = np.any((den == 0.0) & (f0 >= 0.0) & ~same, axis=1)
    # Crossing a vertex crosses both its edge lines at once; the boundary
    # runs into the vertex along the edge that ends there.
    rows = np.arange(len(h))[:, None]
    nxt = (np.arange(h.shape[1]) + 1) % bd.count[j][:, None]

    def crossed(tt, ext):
        near = np.abs(tt - ext[:, None]) <= _EPS
        ends = near & near[rows, nxt]
        return h[rows[:, 0], np.argmax(np.where(ends.any(axis=1, keepdims=True), ends, near), axis=1)]
    c_in = crossed(t_in, lo)
    c_out = np.where(same.any(axis=1), h[rows[:, 0], np.argmax(same, axis=1)], crossed(t_out, hi))
    lo, hi = np.maximum(lo, 0.0), np.minimum(hi, 1.0)
    return lo, np.where(blocked, lo, hi), c_in, c_out


def _seg_in_disk(bd, p, j):
    """Interval [lo, hi] of edges p inside the open disks j; hi <= lo is empty.

    The disk's circle is the crossed primitive at both ends.
    """
    fx = bd.x[p] - bd.centres[j, 0]
    fy = bd.y[p] - bd.centres[j, 1]
    dx, dy, qa = bd.dx[p], bd.dy[p], bd.len2[p]
    tc = -(fx * dx + fy * dy) / qa
    cross = fx * dy - fy * dx
    w2 = (bd.reach[j] ** 2 - cross * cross / qa) / qa
    w = np.sqrt(np.maximum(w2, 0.0))
    lo = np.maximum(tc - w, 0.0)
    circle = bd.table[j, 0]
    return lo, np.where(w2 > 0.0, np.minimum(tc + w, 1.0), lo), circle, circle


def _arc_in_disk(bd, p, j):
    """Angular interval (start, width) of circles p inside the open disks j.

    A circle coinciding with j's boundary is inside only when j has the lower
    body index, so the shared circle stays once.
    """
    ddx = bd.centres[j, 0] - bd.x[p]
    ddy = bd.centres[j, 1] - bd.y[p]
    d = np.hypot(ddx, ddy)
    ri, rj = bd.r[p], bd.reach[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (d * d + ri * ri - rj * rj) / (2.0 * d * ri)
    alpha = np.where(np.isnan(arg), np.where(j < bd.body[p], math.pi, 0.0),
                     np.arccos(np.clip(arg, -1.0, 1.0)))
    return np.arctan2(ddy, ddx) - alpha, 2.0 * alpha


def _arc_outside_poly(bd, p, j):
    """Arcs (row, start, width, edge) of circles p outside each edge line of polygons j."""
    h = bd.table[j]
    valid = h >= 0
    h = np.where(valid, h, 0)
    nx, ny = bd.nx[h], bd.ny[h]
    lev = (bd.off[h] - nx * bd.x[p, None] - ny * bd.y[p, None]) / bd.r[p, None]
    valid &= lev < 1.0
    beta = np.arccos(np.maximum(lev[valid], -1.0))
    return np.nonzero(valid)[0], np.arctan2(ny[valid], nx[valid]) - beta, 2.0 * beta, h[valid]


def _coverage(bd, p, j):
    """Covered parameter intervals (prim, a, b, carrier) of primitives p by bodies j.

    A grain j covers the part of p in its open interior; the region (j = 0)
    covers the part of p outside it.  The carrier is the primitive of j that
    the union boundary follows into the interval's end (on grain primitives,
    whose kept pieces start there) or out of its start (on region primitives,
    whose kept pieces start there).
    """
    arc, jd, reg = bd.is_arc[p], bd.disk[j], j == 0
    on_region = bd.body[p] == 0
    lin, circ = [], []
    for m, kernel in ((~arc & ~jd, _seg_in_poly), (~arc & jd, _seg_in_disk)):
        if not m.any():
            continue
        pm, jm, rm = p[m], j[m], reg[m]
        lo, hi, c_in, c_out = kernel(bd, pm, jm)
        g = ~rm
        lin.append((pm[g], lo[g], hi[g], np.where(on_region[m][g], c_in[g], c_out[g])))
        empty = hi[rm] - lo[rm] <= _EPS
        lin.append((pm[rm], np.zeros(len(empty)), np.where(empty, 1.0, lo[rm]), c_in[rm]))
        lin.append((pm[rm], np.where(empty, 1.0, hi[rm]), np.ones(len(empty)), c_out[rm]))
    m = arc & jd
    if m.any():
        start, width = _arc_in_disk(bd, p[m], j[m])
        rm = reg[m]
        circ.append((p[m], np.where(rm, start + width, start), np.where(rm, TWO_PI - width, width),
                     bd.table[j[m], 0]))
    m = arc & ~jd
    if m.any():
        pm, jm = p[m], j[m]
        rows, start, width, edge = _arc_outside_poly(bd, pm, jm)
        out = reg[m][rows]
        circ.append((pm[rows[out]], start[out], width[out], edge[out]))
        # A grain polygon covers the gaps between the outside arcs of its
        # edge lines, and a circle with no outside arc lies wholly inside.  A
        # gap's owner is the edge at its start, so grain circles, which need
        # the edge at a gap's end, are merged in mirrored angles.
        rows, start, width, edge = rows[~out], start[~out], width[~out], edge[~out]
        mirror = ~on_region[m][rows]
        gd, g0, g1, ge = _merge_circular_vec(rows, np.where(mirror, -(start + width), start),
                                             width, edge)
        circ.append((pm[gd], np.where(on_region[m][gd], g0, -g1), g1 - g0, ge))
        inside = np.flatnonzero(~reg[m] & (np.bincount(rows, minlength=len(pm)) == 0))
        circ.append((pm[inside], np.zeros(len(inside)), np.full(len(inside), TWO_PI),
                     np.full(len(inside), -1)))
    if circ:
        # Circular intervals become one or two intervals on [0, 2*pi].
        cp, cs, cw, co = (np.concatenate(c) for c in zip(*circ))
        full = cw >= TWO_PI - _EPS
        cs = np.where(full, 0.0, np.mod(cs, TWO_PI))
        ce = np.where(full, TWO_PI, cs + cw)
        wrap = ce > TWO_PI
        lin.append((cp, cs, np.minimum(ce, TWO_PI), co))
        lin.append((cp[wrap], np.zeros(int(wrap.sum())), ce[wrap] - TWO_PI, co[wrap]))
    if not lin:
        return np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64)
    return tuple(np.concatenate(c) for c in zip(*lin))


def _firsts(ids):
    """Mask of the entries of a sorted id array that begin a new id."""
    out = np.ones(len(ids), dtype=bool)
    out[1:] = ids[1:] != ids[:-1]
    return out


def _merge_runs(pid, a, b, own):
    """Union of intervals [a, b], segmented by primitive id.

    Returns the maximal runs (pid, a, b, owner_a, owner_b) sorted by pid then
    a, where owner_a owns the interval that starts the run and owner_b the
    one that reaches its end.
    """
    keep = b - a > _EPS
    pid, a, b, own = pid[keep], a[keep], b[keep], own[keep]
    # Sort by a, then stably by pid in 16-bit digits, which numpy radix-sorts.
    order = np.argsort(a)
    for shift in range(0, max(int(pid.max(initial=0)).bit_length(), 1), 16):
        order = order[np.argsort((pid[order] >> shift).astype(np.uint16), kind="stable")]
    pid, a, b, own = pid[order], a[order], b[order], own[order]
    n = len(pid)
    if n == 0:
        return pid, a, b, own, own
    # Segmented running maximum of b on exact integer keys.
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(b)] = np.arange(n)
    key = pid.astype(np.int64) * n + rank
    top = np.maximum.accumulate(np.where(key == np.maximum.accumulate(key), np.arange(n), 0))
    reach = b[top]
    start = _firsts(pid)
    start[1:] |= a[1:] > reach[:-1] + _EPS
    start = np.flatnonzero(start)
    end = np.append(start[1:], n) - 1
    return pid[start], a[start], reach[end], own[start], own[top[end]]


def _measure(bd, p, j):
    """(v0, v1, v2) of the union of grains inside the region from coverage of
    primitives p by bodies j.

    Grain primitives keep their uncovered gaps and region primitives their
    covered runs.  The turn at a piece's start is taken from the primitive
    that leads into it: the carrier of the covered interval that ends there
    (or, on the region, of the run that starts there), or at parameter 0 the
    previous primitive of the same body when that primitive's end is kept.
    """
    rp, ra, rb, oa, ob = _merge_runs(*_coverage(bd, p, j))
    span = np.where(bd.is_arc, TWO_PI, 1.0)
    last = _firsts(rp[::-1])[::-1]
    end_cov = np.zeros(len(span), dtype=bool)
    end_cov[rp[last]] = rb[last] >= span[rp[last]] - _EPS
    end_own = np.zeros(len(span), dtype=np.int64)
    end_own[rp[last]] = ob[last]

    region = bd.body[rp] == 0
    g = ~region
    gp, ga, gb, go = rp[g], ra[g], rb[g], ob[g]
    head = _firsts(gp)
    gap_end = span[gp]
    gap_end[:-1] = np.where(head[1:], gap_end[:-1], ga[1:])
    after = gap_end - gb > _EPS
    first_a = span.copy()
    first_a[gp[head]] = ga[head]
    lead = np.flatnonzero((bd.body > 0) & (first_a > _EPS))
    rr = np.flatnonzero(region)
    at0 = ra[rr] <= _EPS
    pp = np.concatenate([gp[after], lead, rp[rr]])
    u0 = np.concatenate([gb[after], np.zeros(len(lead)), np.where(at0, 0.0, ra[rr])])
    u1 = np.concatenate([gap_end[after], first_a[lead], rb[rr]])
    prev = bd.prev[pp]
    # Carrier leading into each start, or -1 for the previous primitive.
    carrier = np.concatenate([
        go[after],
        np.where(end_cov[bd.prev[lead]], end_own[bd.prev[lead]], -1),
        np.where(at0 & end_cov[bd.prev[rp[rr]]], -1, oa[rr])])

    x0, y0 = bd.point(pp, u0)
    x1, y1 = bd.point(pp, u1)
    ix, iy = bd.tangent(np.where(carrier >= 0, carrier, prev), x0, y0)
    ox, oy = bd.tangent(pp, x0, y0)
    turns = np.arctan2(ix * oy - iy * ox, ix * ox + iy * oy)
    turns = np.where(turns <= -math.pi + 1e-12, math.pi, turns)  # reversal: +pi (pulled apart)
    arc = bd.is_arc[pp]
    sweep = np.where(arc, u1 - u0, 0.0)
    r = bd.r[pp]
    length = float(np.sum(np.where(arc, r, np.sqrt(bd.len2[pp])) * (u1 - u0)))
    area = 0.5 * float(np.sum(x0 * y1 - x1 * y0 + r * r * (sweep - np.sin(sweep))))
    v0 = (float(np.sum(sweep)) + float(np.sum(turns))) / TWO_PI
    v0i = round(v0)
    if abs(v0 - v0i) > 1e-3:
        raise RuntimeError(f"non-integer Euler characteristic {v0}: arrangement inconsistency")
    return FunctionalVector(float(v0i), 0.5 * length, area)


def _grain_arrays(grains, origin):
    """Centres relative to origin, and outlines of placed grains: a disk's
    radius or a polygon's local counterclockwise vertices."""
    centres = np.array([g.center for g in grains], dtype=float).reshape(-1, 2) - origin
    return centres, [float(g.shape.radius) if isinstance(g.shape, Disk)
                     else _as_polygon_vertices(g.shape) for g in grains]


def arrangement_measure(grains, window: Window, mask: PlacedGrain | None = None) -> FunctionalVector:
    """Exact (v0, v1, v2) of the union of grains clipped to the window.

    `mask` optionally replaces the observation region by one convex body,
    which must lie inside the window.  All geometry is computed in
    window-centred coordinates.
    """
    grains = list(grains)
    if not grains:
        return FunctionalVector(0.0, 0.0, 0.0)
    (x0, y0), (x1, y1) = window.lo, window.hi
    origin = np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
    hw, hh = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    if mask is None:
        region_centre = np.zeros((1, 2))
        region = np.array([[hw, hh], [-hw, hh], [-hw, -hh], [hw, -hh]])
    else:
        region_centre, (region,) = _grain_arrays([mask], origin)
        ext = np.array([[region, region], [-region, -region]]) if isinstance(region, float) else region
        if np.any(np.abs(region_centre + ext) > [hw, hh]):
            raise ValueError("arrangement_measure: the mask must lie inside the window")
    centres, outlines = _grain_arrays(grains, origin)
    bd = _Boundary(np.vstack([region_centre, centres]), [region] + outlines)

    # Grain pairs whose circumcircles overlap cover each other; grains not
    # well inside the region pair with it both ways.
    reach = bd.reach[1:]
    pairs = cKDTree(centres).query_pairs(2.0 * float(reach.max()), output_type="ndarray")
    d = np.hypot(*(centres[pairs[:, 0]] - centres[pairs[:, 1]]).T)
    pairs = pairs[d < reach[pairs[:, 0]] + reach[pairs[:, 1]]] + 1
    depth = np.max([bd.level(k, centres[:, 0], centres[:, 1]) for k in range(bd.count[0])], axis=0)
    edge = np.flatnonzero(depth > -reach) + 1
    zeros = np.zeros(len(edge), dtype=np.int64)
    covered = np.concatenate([pairs[:, 0], pairs[:, 1], edge, zeros])
    by = np.concatenate([pairs[:, 1], pairs[:, 0], zeros, edge])
    count = bd.count[covered]
    start = np.cumsum(count) - count
    p = np.arange(int(count.sum())) - np.repeat(start - bd.table[covered, 0], count)
    return _measure(bd, p, np.repeat(by, count))


# ---------------------------------------------------------------------------
# Edge-corrected (half-open tiling) measurement
# ---------------------------------------------------------------------------


def _polyline_runs(grains, points):
    """Occupied runs (segment, u0, u1) of the segments joining points.

    Each segment is parameterized over [0, 1] and covered by the grains' open
    interiors; coordinates are relative to the first point.
    """
    points = np.asarray(points, dtype=float)
    centres, outlines = _grain_arrays(list(grains), points[0])
    bd = _Boundary(np.vstack([np.zeros((1, 2)), centres]), [points - points[0]] + outlines)
    # Pair each segment with the grains whose circumcircle reaches it.
    seg = np.arange(len(points) - 1)
    t = np.clip(((centres[:, None, 0] - bd.x[seg]) * bd.dx[seg]
                 + (centres[:, None, 1] - bd.y[seg]) * bd.dy[seg]) / bd.len2[seg], 0.0, 1.0)
    gap = np.hypot(bd.x[seg] + t * bd.dx[seg] - centres[:, None, 0],
                   bd.y[seg] + t * bd.dy[seg] - centres[:, None, 1])
    j, p = np.nonzero(gap < bd.reach[1:, None])
    rp, u0, u1, _, _ = _merge_runs(*_coverage(bd, p, j + 1))
    return rp, u0, u1


def segment_coverage(grains, a, b):
    """Occupied part of the segment [a, b] under the union of grains.

    Returns (piece count, total length); the pieces are the maximal occupied
    intervals, a one-dimensional polyconvex set with v0 = count, v1 = length.
    """
    _, u0, u1 = _polyline_runs(grains, [a, b])
    return len(u0), float(np.sum(u1 - u0)) * math.hypot(b[0] - a[0], b[1] - a[1])


def edge_corrected_measure(grains, window: Window) -> FunctionalVector:
    """Unbiased per-window functionals by the half-open tiling correction.

    Subtracts the functionals of Z on the right and top window edges and adds
    back the far corner indicator; contributions then telescope exactly over
    a lattice of windows, so the expectation is the density times the window
    area for every stationary model (no isotropy needed).
    """
    grains = list(grains)
    full = arrangement_measure(grains, window)
    (x0, y0), (x1, y1) = window.lo, window.hi
    # Segment 0 is the top edge up to the far corner, segment 1 the right edge.
    rp, u0, u1 = _polyline_runs(grains, [(x0, y1), (x1, y1), (x1, y0)])
    length = float(np.sum((u1 - u0) * np.where(rp == 0, x1 - x0, y1 - y0)))
    corner = bool(np.any((rp == 0) & (u1 >= 1.0 - _EPS)))
    return FunctionalVector(full.v0 - len(rp) + corner, full.v1 - length, full.v2)


# ---------------------------------------------------------------------------
# Raster engine
# ---------------------------------------------------------------------------


def rasterize(grains, window: Window, resolution: float) -> np.ndarray:
    """Binary occupancy image of the union on the window's pixel grid.

    Pixel (iy, ix) is occupied when its center lies in some grain; row 0 is
    the bottom row (y increasing with row index).
    """
    if resolution <= 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    h = 1.0 / resolution
    nx = max(1, int(round(window.width * resolution)))
    ny = max(1, int(round(window.height * resolution)))
    xs = window.lo[0] + (np.arange(nx) + 0.5) * h
    ys = window.lo[1] + (np.arange(ny) + 0.5) * h
    img = np.zeros((ny, nx), dtype=bool)
    for g in grains:
        cx, cy = g.center
        R = g.circumradius()
        ix0 = np.searchsorted(xs, cx - R)
        ix1 = np.searchsorted(xs, cx + R, side="right")
        iy0 = np.searchsorted(ys, cy - R)
        iy1 = np.searchsorted(ys, cy + R, side="right")
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        X, Y = np.meshgrid(xs[ix0:ix1], ys[iy0:iy1])
        shape = g.shape
        if isinstance(shape, Disk):
            m = (X - cx) ** 2 + (Y - cy) ** 2 <= shape.radius ** 2
        elif isinstance(shape, AlignedRect):
            m = (np.abs(X - cx) <= shape.halfwidth) & (np.abs(Y - cy) <= shape.halfheight)
        else:
            verts = _as_polygon_vertices(shape)
            m = np.ones_like(X, dtype=bool)
            nv = len(verts)
            for k in range(nv):
                ax, ay = verts[k]
                bx, by = verts[(k + 1) % nv]
                m &= ((bx - ax) * (Y - cy - ay) - (by - ay) * (X - cx - ax)) >= 0.0
        img[iy0:iy1, ix0:ix1] |= m
    return img


def pixel_measure(grains, window: Window, resolution: float) -> FunctionalVector:
    """Approximate (v0, v1, v2) from 2x2 pixel-configuration counts."""
    img = rasterize(grains, window, resolution)
    h = 1.0 / resolution
    b = np.pad(img, 1).astype(np.uint8)
    v2 = h * h * float(np.count_nonzero(img))
    n_adj = int(np.count_nonzero(b[:, 1:] != b[:, :-1])) + \
        int(np.count_nonzero(b[1:, :] != b[:-1, :]))
    v1 = (math.pi / 8.0) * h * n_adj
    code = (b[:-1, :-1] + 2 * b[:-1, 1:] + 4 * b[1:, :-1] + 8 * b[1:, 1:]).ravel()
    cnt = np.bincount(code, minlength=16)
    n1 = cnt[1] + cnt[2] + cnt[4] + cnt[8]
    n3 = cnt[7] + cnt[11] + cnt[13] + cnt[14]
    nd = cnt[6] + cnt[9]
    v0 = (float(n1) - float(n3) - 2.0 * float(nd)) / 4.0
    return FunctionalVector(v0, v1, v2)


def write_pgm(path, img: np.ndarray):
    """Write a binary occupancy image as PGM P5, occupied = 255, top row first."""
    ny, nx = img.shape
    data = np.where(img[::-1, :], 255, 0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        f.write(data.tobytes())
