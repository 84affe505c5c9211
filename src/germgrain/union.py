"""Functionals (v0, v1, v2) of a union of placed grains clipped to a window.

Every engine reads grains as geometry.Grains arrays; a sequence of
PlacedGrain is converted at entry, and every engine returns (v0, v1, v2) as
a geometry.IntrinsicVolumes2D (a chunk's rows as an array).  Three engines
compute the same quantity:

  * inclusion_exclusion_measure -- the additive-extension oracle: a signed
    sum of intersection-cell functionals over all nonempty grain subsets,
    with depth-first pruning (supersets of an empty intersection stay
    empty).  Exponential; capped at 18 grains.  It measures on the
    arrangement engine's frame (_normalized), so the cells' tolerances are
    relative to the window.

  * arrangement_measure -- exact polynomial-time engine over boundary
    intervals, one path for every grain type and one pass for a whole chunk
    of replicates.  Each boundary primitive (a disk's circle, a polygon
    edge, an edge of the window or of the optional convex mask) gets the
    parameter intervals that other bodies cover: a grain covers with its
    open interior, the observation region covers what lies outside it.  One
    vectorized interval merge, segmented by key, does every union: per
    (circle, polygon) pair it joins the polygon's outside arcs, whose gaps
    are the polygon's coverage of the circle, and per primitive it yields
    the kept pieces, the uncovered gaps of grain primitives and the covered
    runs of region primitives; circular intervals are split at 2*pi first.
    The area follows from Green's theorem, v1 is half the kept length, and
    the Euler characteristic comes from total boundary turning
    (Gauss-Bonnet: swept arc angle plus the turn at each piece's start,
    divided by 2*pi).  Each turn is read from the primitive bounding the
    covering interval that ends there, or from the body's own vertex, so no
    endpoints are matched.  All geometry is scaled by a power of two to a
    window side in [1/2, 1), exactly, and window-centred.  In a chunk,
    bodies of two replicates never pair, each replicate has its own region,
    and each row is summed over its own pieces only.  The half-open tiling
    correction reads the covered runs of the top and right window edges from
    the same pass.

  * pixel_measure -- approximate raster engine from 2x2 pixel-configuration
    counts; a pixel is occupied when its centre lies inside some grain.  Area
    error is O(1/resolution); perimeter uses the two-direction Cauchy-Crofton
    weight pi/4 on axis adjacencies (unbiased for isotropic boundaries, biased
    by 4/pi for axis-aligned ones); the Euler number uses 8-connected
    foreground weights, exact once the resolution resolves all features.

Measure-zero contacts (tangent circles, shared edges, vertex-on-edge) count
as empty intersections in every engine: flush grains behave as if pulled
apart by an infinitesimal perturbation.  In the arrangement engine,
coincident boundary pieces running in opposite directions are a flush
contact and both stay; pieces running the same way stay once, on the grain
listed first; a grain edge on the window boundary stays and the window piece
beneath it is dropped.  A point contact on exactly representable
coordinates (a vertex touching another boundary) can still leave the turning
sum off an integer, which the engine reports as an error.  Exact contacts can
also give wrong v1 and v2 with no error: a diamond lying inside a larger one,
two of its edges on the larger one's edges, keeps those inner edges as union
boundary.  This stands until ROADMAP item 1 is done.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import TWO_PI, Grains, IntrinsicVolumes2D, PlacedGrain, Window


class ReplicateError(RuntimeError):
    """An engine failure tied to one replicate: index is its position in the chunk."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index

    def __reduce__(self):
        # Pickled from args alone, it would lose index on its way out of a
        # worker process.
        return ReplicateError, (str(self), self.index)


# ---------------------------------------------------------------------------
# Inclusion-exclusion oracle
# ---------------------------------------------------------------------------


def inclusion_exclusion_measure(grains, window: Window, cap: int = 18) -> IntrinsicVolumes2D:
    """Additive extension of (v0, v1, v2) to the union via inclusion-exclusion,
    measured on arrangement_measure's scaled, window-centred frame."""
    # Imported here: only this oracle needs cells, and no Monte Carlo command loads it.
    from .cells import TooManyGrainsError, clip_cell, grain_constraints, window_cell
    grains, region, e = _normalized(Grains.of(grains), window)
    hw, hh = region.loc[0]
    base = window_cell(Window((-hw, -hh), (hw, hh)))
    cons = []
    for row in grains:
        gc = grain_constraints(*row)
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
    v0, v1, v2 = total.tolist()
    return IntrinsicVolumes2D(v0, math.ldexp(v1, e), math.ldexp(v2, 2 * e))


# ---------------------------------------------------------------------------
# Boundary-interval engine
# ---------------------------------------------------------------------------

# Parameter tolerance: edges are parameterized over [0, 1], circles by angle
# over [0, 2*pi], so the tolerance is relative to each primitive's size.
_EPS = 1e-12

# Rows of (edge, polygon) pairs per block of _seg_in_poly.
_ROW_BLOCK = 2048


class _Boundary:
    """Boundary primitives of convex bodies.

    The first `regions` bodies are observation regions, one for each
    replicate of a chunk; the rest are grains.  rep gives the replicate of
    each body, region r being replicate r's (one replicate by default).  A
    primitive is either a full counterclockwise circle, parameterized by
    angle over [0, 2*pi], or a directed edge x + u*d, u in [0, 1], with
    outward unit normal n and offset n.x.  Polygon edges run
    counterclockwise, so each body keeps its interior on the left.
    """

    def __init__(self, g: Grains, regions=1, rep=None):
        centres, count = g.centres, g.count
        disk = g.radius > 0.0
        first = np.cumsum(count) - count
        body = np.repeat(np.arange(len(g)), count)
        k = np.arange(len(body)) - first[body]
        nxt = first[body] + (k + 1) % count[body]
        self.prev = first[body] + (k - 1) % count[body]
        self.body = body
        self.is_arc = disk[body]
        self.x = centres[body, 0] + g.loc[:, 0]
        self.y = centres[body, 1] + g.loc[:, 1]
        self.dx = self.x[nxt] - self.x
        self.dy = self.y[nxt] - self.y
        self.r = g.radius[body]
        self.len2 = np.where(self.is_arc, 1.0, self.dx * self.dx + self.dy * self.dy)
        ln = np.sqrt(self.len2)
        self.nx = np.where(self.is_arc, 0.0, self.dy / ln)
        self.ny = np.where(self.is_arc, 0.0, -self.dx / ln)
        self.off = self.nx * self.x + self.ny * self.y
        self.disk = disk
        self.count = count
        self.first = first
        self.centres = centres
        self.grains = g
        # Circumradius about the centre, for neighbour search.
        self.reach = g.reach
        # table[b] lists body b's primitives, padded with -1.
        cols = np.arange(int(count.max(initial=0)))
        self.table = np.where(cols < count[:, None], first[:, None] + cols, -1)
        self.replicates = regions
        self.rep = np.zeros(len(g), dtype=np.int64) if rep is None else rep
        self.prim_rep = self.rep[body]
        self.is_region = np.arange(len(g)) < regions
        self.on_region = body < regions

    def point(self, p, u):
        """Point at parameter u of primitives p (u may stack rows of parameters)."""
        arc = self.is_arc[p]
        return (np.where(arc, self.x[p] + self.r[p] * np.cos(u), self.x[p] + u * self.dx[p]),
                np.where(arc, self.y[p] + self.r[p] * np.sin(u), self.y[p] + u * self.dy[p]))

    def level(self, b, px, py):
        """Boundary function of body b at points (arrays): <= 0 in the body."""
        p = self.table[b, :self.count[b]].reshape((-1,) + (1,) * np.ndim(px))
        if self.disk[b]:
            return np.hypot(px - self.x[p[0]], py - self.y[p[0]]) - self.r[p[0]]
        return np.max(self.nx[p] * px + self.ny[p] * py - self.off[p], axis=0)

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
    edge of j, which carries the boundary on, takes precedence.  Rows go in
    blocks of _ROW_BLOCK, which bounds the (body width x rows) temporaries.
    They are slot-major, so every reduction over a body's edges runs along
    the rows; numpy reduces a short inner axis many times slower.

    A block gathers j's edge lines once and releases them once f0, den and
    the same-direction test exist.  Only a block that holds a tie (an edge
    on one of j's edge lines, or a crossing at a vertex) or a body narrower
    than the table does the work that resolves it; a block without one
    would have found every tie and padding mask all false.  Either way each
    row's values come from that row's own entries, so no row depends on
    what else its block holds.
    """
    if len(p) > _ROW_BLOCK:
        blocks = [_seg_in_poly(bd, p[i:i + _ROW_BLOCK], j[i:i + _ROW_BLOCK])
                  for i in range(0, len(p), _ROW_BLOCK)]
        return _joined(blocks)
    # Transposed after the gather: a slot-major table indexed [:, j] would
    # come out laid out by j, not by slot.
    h = np.ascontiguousarray(bd.table[j].T)
    # A body narrower than the table closes at its last edge, not at the
    # padding after it, whose edge-line functions read -1.
    short = np.flatnonzero(bd.count[j] < len(h))
    if len(short):
        pad = h < 0
        h = np.where(pad, 0, h)
    nx, ny, off = bd.nx[h], bd.ny[h], bd.off[h]

    def level(qx, qy):
        # j's edge-line functions at the points (qx, qy), summed in place
        # for fewer (slots x rows) temporaries: the same arithmetic.
        f = nx * qx
        f += ny * qy
        f -= off
        return f
    px, py = bd.x[p], bd.y[p]
    f0 = level(px, py)
    den = level(px + bd.dx[p], py + bd.dy[p])
    if len(short):
        f0[pad] = -1.0
        den[pad] = -1.0
    den -= f0
    flat = den == 0.0
    tie = flat & (f0 == 0.0)
    same = None
    if tie.any():
        same = tie & (j < bd.body[p]) & (nx * bd.nx[p] + ny * bd.ny[p] > 0.0)
        flat &= ~same
    del nx, ny, off, tie
    blocked = np.any(flat & (f0 >= 0.0), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = f0 / -den  # -den is f0 - f1 exactly; at den == 0 t is not used
    t_in = np.where(den < 0.0, t, -np.inf)
    t_out = np.where(den > 0.0, t, np.inf)
    lo, hi = np.max(t_in, axis=0), np.min(t_out, axis=0)
    last = bd.count[j[short]] - 1

    def first(mask):
        # The edge at each row's first true slot, or at slot 0.
        out = h[0]
        for k in range(len(h) - 1, -1, -1):
            out = np.where(mask[k], h[k], out)
        return out

    def crossed(tt, ext):
        # Crossing a vertex crosses both its edge lines at once; the boundary
        # runs into the vertex along the edge that ends there.
        near = np.abs(tt - ext) <= _EPS
        ends = np.empty_like(near)
        ends[:-1] = near[:-1] & near[1:]
        ends[-1] = near[-1] & near[0]
        if len(short):
            ends[last, short] = near[last, short] & near[0, short]
        any_end = ends.any(axis=0)
        return first(np.where(any_end, ends, near) if any_end.any() else near)
    c_in = crossed(t_in, lo)
    c_out = crossed(t_out, hi)
    if same is not None:
        c_out = np.where(same.any(axis=0), first(same), c_out)
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
    circle = bd.first[j]
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


def _joined(parts):
    """Tuples of arrays, joined field by field."""
    return tuple(np.concatenate(c) for c in zip(*parts))


def _unwrap(p, start, width, own):
    """Circular intervals (p, start, width, owner) on [0, 2*pi], as two parts
    to join: each interval up to 2*pi, then the pieces past 2*pi shifted back."""
    full = width >= TWO_PI - _EPS
    # np.mod(start, TWO_PI) bit for bit on the starts that occur, in
    # (-2*pi, 3*pi): both shifts are exact there, or round as np.mod does.
    a = np.where(start >= TWO_PI, start - TWO_PI, start)
    a = np.where(full, 0.0, np.where(a < 0.0, a + TWO_PI, a) + 0.0)
    b = np.where(full, TWO_PI, a + width)
    wrap = np.flatnonzero(b > TWO_PI)
    return [(p, a, np.minimum(b, TWO_PI), own),
            (p[wrap], np.zeros(len(wrap)), b[wrap] - TWO_PI, own[wrap])]


def _coverage(bd, p, j):
    """Covered parameter intervals (prim, a, b, carrier) of primitives p by bodies j.

    A grain j covers the part of p in its open interior; a region covers the
    part of p outside it.  The carrier is the primitive of j that
    the union boundary follows into the interval's end (on grain primitives,
    whose kept pieces start there) or out of its start (on region primitives,
    whose kept pieces start there).
    """
    arc, jd, reg = bd.is_arc[p], bd.disk[j], bd.is_region[j]
    on_region = bd.on_region[p]
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
        if rm.any():
            start, width = np.where(rm, start + width, start), np.where(rm, TWO_PI - width, width)
        circ.append((p[m], start, width, bd.first[j[m]]))
    m = arc & ~jd
    if m.any():
        pm, jm = p[m], j[m]
        rows, start, width, edge = _arc_outside_poly(bd, pm, jm)
        out = reg[m][rows]
        circ.append((pm[rows[out]], start[out], width[out], edge[out]))
        # Only when a grain polygon is paired; a circle wholly inside one has no rows.
        if not reg[m].all():
            # A grain polygon covers the gaps between the merged outside arcs of
            # its edge lines, the last gap running across 2*pi, and a circle with
            # no outside arc lies wholly inside.  The carrier is the edge starting
            # the run after a gap on a grain circle, and the edge ending the run
            # before it on a region circle.
            rp, ra, rb, oa, ob = _merge_runs(*_joined(_unwrap(rows[~out], start[~out],
                                                              width[~out], edge[~out])))
            head, last = _firsts(rp), _firsts(rp[::-1])[::-1]
            first = np.flatnonzero(head)[np.cumsum(head) - 1]
            nxt = np.where(last, first, np.arange(len(rp)) + 1)
            gap_end = np.where(last, ra[first] + TWO_PI, ra[nxt])
            circ.append((pm[rp], rb, gap_end - rb, np.where(on_region[m][rp], ob, oa[nxt])))
            inside = np.flatnonzero(~reg[m] & (np.bincount(rp, minlength=len(pm)) == 0))
            circ.append((pm[inside], np.zeros(len(inside)), np.full(len(inside), TWO_PI),
                         np.full(len(inside), -1)))
    if circ:
        lin += _unwrap(*_joined(circ))
    if not lin:
        return np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64)
    return _joined(lin)


def _firsts(ids):
    """Mask of the entries of a sorted id array that begin a new id."""
    out = np.ones(len(ids), dtype=bool)
    out[1:] = ids[1:] != ids[:-1]
    return out


def _dense_rank(v):
    """Rank of each value of v among its distinct values; equal values share one."""
    order = np.argsort(v)
    rank = np.empty(len(v), dtype=np.int64)
    rank[order] = np.cumsum(_firsts(v[order])) - 1
    return rank


def _merge_runs(pid, a, b, own):
    """Union of intervals [a, b], segmented by an integer key pid.

    The engine's only interval merge: pid is a primitive, or a (circle,
    polygon) pair in _coverage.  Returns the maximal runs (pid, a, b,
    owner_a, owner_b) sorted by pid then a, where owner_a owns the interval
    that starts the run and owner_b the one that reaches its end.  Of
    intervals tied in a, the first in input order starts the run; of those
    tied in the largest b, the last in run order ends it.  So the runs of
    one pid depend only on its own intervals and their order.
    """
    keep = b - a > _EPS
    pid, a, b, own = pid[keep], a[keep], b[keep], own[keep]
    # Stable sorts by the dense rank of a, then by pid, in 16-bit digits,
    # which numpy radix-sorts.
    order = np.arange(len(pid))
    for key in (_dense_rank(a), pid):
        for shift in range(0, max(int(key.max(initial=0)).bit_length(), 1), 16):
            order = order[np.argsort((key[order] >> shift).astype(np.uint16), kind="stable")]
    pid, a, b, own = pid[order], a[order], b[order], own[order]
    n = len(pid)
    if n == 0:
        return pid, a, b, own, own
    # Segmented running maximum of b on a complex key, which numpy orders
    # exactly by real part (pid), then imaginary part (b); filled in place,
    # as pid + 1j * b takes a complex product, ten times slower.
    key = np.empty(n, dtype=complex)
    key.real, key.imag = pid, b
    top = np.maximum.accumulate(np.where(key == np.maximum.accumulate(key), np.arange(n), 0))
    reach = b[top]
    start = _firsts(pid)
    start[1:] |= a[1:] > reach[:-1] + _EPS
    start = np.flatnonzero(start)
    end = np.append(start[1:], n) - 1
    return pid[start], a[start], reach[end], own[start], own[top[end]]


def _measure(bd, p, j, edge_corrected):
    """Rows (v0, v1, v2), one per replicate, of the union of its grains inside
    its region, from coverage of primitives p by bodies j.

    Grain primitives keep their uncovered gaps and region primitives their
    covered runs.  The turn at a piece's start is taken from the primitive
    that leads into it: the carrier of the covered interval that ends there
    (or, on the region, of the run that starts there), or at parameter 0 the
    previous primitive of the same body when that primitive's end is kept.
    Each replicate's sums run over its own pieces in piece order, so its row
    does not depend on the other replicates.  edge_corrected drops the
    covered runs of region primitives 0 (the top edge, from the far corner)
    and 3 (the right edge) from v0 and v1, and adds back a covered far
    corner.  A non-integer Euler characteristic raises ReplicateError naming
    the first such replicate.
    """
    rp, ra, rb, oa, ob = _merge_runs(*_coverage(bd, p, j))
    span = np.where(bd.is_arc, TWO_PI, 1.0)
    last = _firsts(rp[::-1])[::-1]
    end_cov = np.zeros(len(span), dtype=bool)
    end_cov[rp[last]] = rb[last] >= span[rp[last]] - _EPS
    end_own = np.zeros(len(span), dtype=np.int64)
    end_own[rp[last]] = ob[last]

    region = bd.on_region[rp]
    g = ~region
    gp, ga, gb, go = rp[g], ra[g], rb[g], ob[g]
    head = _firsts(gp)
    gap_end = span[gp]
    gap_end[:-1] = np.where(head[1:], gap_end[:-1], ga[1:])
    after = gap_end - gb > _EPS
    first_a = span.copy()
    first_a[gp[head]] = ga[head]
    lead = np.flatnonzero(~bd.on_region & (first_a > _EPS))
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

    (x0, x1), (y0, y1) = bd.point(pp, np.stack([u0, u1]))
    ix, iy = bd.tangent(np.where(carrier >= 0, carrier, prev), x0, y0)
    ox, oy = bd.tangent(pp, x0, y0)
    turns = np.arctan2(ix * oy - iy * ox, ix * ox + iy * oy)
    turns = np.where(turns <= -math.pi + 1e-12, math.pi, turns)  # reversal: +pi (pulled apart)
    arc = bd.is_arc[pp]
    sweep = np.where(arc, u1 - u0, 0.0)
    r = bd.r[pp]
    rep = bd.prim_rep[pp]

    def per_replicate(values):
        return np.bincount(rep, values, minlength=bd.replicates)
    length = per_replicate(np.where(arc, r, np.sqrt(bd.len2[pp])) * (u1 - u0))
    area = 0.5 * per_replicate(x0 * y1 - x1 * y0 + r * r * (sweep - np.sin(sweep)))
    v0 = (per_replicate(sweep) + per_replicate(turns)) / TWO_PI
    v1 = 0.5 * length
    if edge_corrected:
        side = rp[rr] - bd.first[bd.body[rp[rr]]]
        cut = (side == 0) | (side == 3)

        def per_run(values):
            return np.bincount(bd.prim_rep[rp[rr]], values, minlength=bd.replicates)
        v0 = v0 - per_run(cut) + per_run((side == 0) & at0)
        v1 = v1 - per_run(cut * (rb[rr] - ra[rr]) * np.sqrt(bd.len2[rp[rr]]))
    v0i = np.round(v0) + 0.0  # + 0.0 turns -0.0 into 0.0
    bad = np.flatnonzero(np.abs(v0 - v0i) > 1e-3)
    if len(bad):
        raise ReplicateError(f"non-integer Euler characteristic {float(v0[bad[0]])}: "
                             "arrangement inconsistency", int(bad[0]))
    return np.column_stack([v0i, v1, area])


def _cell_pairs(centres, r, group):
    """Candidate pairs of points as index arrays (i, j), each unordered pair
    once, including every pair of points of the same group (a nonnegative
    integer per point) less than r > 0 apart; points of two groups never pair.

    A band sweep: points sorted by group, then by band (horizontal strips of
    height side >= r), then by x, with positions held in units of side.  Each
    point pairs with the points after it in its own band and with those of
    the next band, within one side plus a margin for the rounding of the sort
    key.  The side carries a margin for the rounding of the band coordinates,
    and is a large enough share of the points' span (2**-30 of it for one
    group) that the key stays below 2**62 at any scale.
    """
    n = len(centres)
    if n < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # Per coordinate: numpy reduces an (n, 2) array along axis 0 slowly.
    x, y = centres.T
    x0, y0 = x.min(), y.min()
    span = max(x.max() - x0, y.max() - y0)
    bits = (61 - (int(group.max()) + 1).bit_length()) // 2
    side = max(r * (1.0 + 2.0 ** -40) + span * 2.0 ** -48, span * 2.0 ** -bits)
    u = (x - x0) / side
    band = np.floor((y - y0) / side).astype(np.int64)
    # A lane per (group, band), `width` apart in the key, past any query's
    # reach; a spare band keeps a group's top band out of the next group.
    width = math.floor(float(u.max())) + 4.0
    key = (group * (int(band.max()) + 2) + band) * width + u
    order = np.argsort(key)
    key = key[order]
    margin = 1.0 + float(key[-1]) * 2.0 ** -50
    # One row of queries per bound, each row sorted: searchsorted is faster so.
    ends = np.searchsorted(key, np.add.outer([margin, width - margin, width + margin], key))
    # Its own band after it, then the next band.
    begin = np.column_stack([np.arange(1, n + 1), ends[1]])
    num = np.column_stack([ends[0], ends[2]]) - begin
    first = np.repeat(order, num[:, 0] + num[:, 1])
    num = num.ravel()
    second = np.arange(len(first)) + np.repeat(begin.ravel() - np.cumsum(num) + num, num)
    return first, order[second]


def _expand(bd, covered, by):
    """Every primitive of the bodies `covered`, each paired with its body in `by`."""
    return bd.grains.rows(covered), np.repeat(by, bd.count[covered])


def arrangement_measure(grains, window: Window, mask: PlacedGrain | None = None,
                        counts=None, edge_corrected=False):
    """Exact (v0, v1, v2) of the union of grains clipped to the window.

    grains is a Grains or a sequence of PlacedGrain.  `mask` optionally
    replaces the observation region by one convex body, which must lie inside
    the window.  All geometry is computed in window-centred coordinates,
    scaled by a power of two to a window side in [1/2, 1).  So grains and
    window scaled by 2^k give (v0, 2^k v1, 4^k v2) bit for bit, and a v1 or
    v2 beyond the double range raises ReplicateError.

    With `counts`, grains is a chunk of len(counts) replicates, counts[r]
    grains of replicate r after those of the replicates before it, each
    observed on the same window and mask.  One engine pass then returns
    their rows (v0, v1, v2) as a (len(counts), 3) array; a row does not
    depend on the other replicates of its chunk.  A failing replicate raises
    ReplicateError with its position in the chunk.
    With edge_corrected, rows are those of edge_corrected_measure.
    """
    if edge_corrected and mask is not None:
        raise ValueError("arrangement_measure: edge_corrected takes no mask")
    grains = Grains.of(grains)
    rows = _chunk_rows(grains, window, mask, [len(grains)] if counts is None else counts,
                       edge_corrected)
    return rows if counts is not None else IntrinsicVolumes2D(*rows[0].tolist())


def _chunk_rows(grains: Grains, window: Window, mask, counts, edge_corrected):
    counts = np.asarray(counts, dtype=np.int64)
    if counts.sum() != len(grains):
        raise ValueError(f"arrangement_measure: counts sum to {counts.sum()}, "
                         f"not the {len(grains)} grains")
    if not len(grains):
        return np.zeros((len(counts), 3))
    grains, window_region, e = _normalized(grains, window)
    region = window_region if mask is None else _normalized(Grains.of([mask]), window)[0]
    if mask is not None and np.any(np.abs(region.centres[0] + region.loc)
                                   + region.radius > window_region.loc[0]):
        raise ValueError("arrangement_measure: the mask must lie inside the window")
    # Bodies 0..m-1 are the replicates' regions, all alike; the grains follow.
    m = len(counts)
    rep = np.repeat(np.arange(m), counts)
    bd = _Boundary(Grains.join(region.take(np.zeros(m, dtype=np.int64)), grains), m,
                   np.concatenate([np.arange(m), rep]))

    # Grain pairs of one replicate whose circumcircles overlap cover each
    # other; grains not well inside the region pair with it both ways.
    centres, reach = bd.centres[m:], bd.reach[m:]
    a, b = _cell_pairs(centres, 2.0 * float(reach.max()), rep)
    x, y = centres.T
    near = np.hypot(x[a] - x[b], y[a] - y[b]) < reach[a] + reach[b]
    a, b, n = a[near], b[near], len(centres)
    # Pairs in index order: at exact contacts the engine's tie-breaks follow
    # pair order, which then does not depend on the search.
    key = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    a, b = key // n + m, key % n + m
    edge = np.flatnonzero(bd.level(0, x, y) > -reach)
    regions, edge = rep[edge], edge + m
    rows = _measure(bd, *_expand(bd, np.concatenate([a, b, edge, regions]),
                                 np.concatenate([b, a, regions, edge])), edge_corrected)
    with np.errstate(over="ignore"):
        rows[:, 1], rows[:, 2] = np.ldexp(rows[:, 1], e), np.ldexp(rows[:, 2], 2 * e)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if len(bad):
        raise ReplicateError(f"(v0, v1, v2) = {tuple(rows[bad[0]].tolist())} is not finite "
                             f"on a window of scale 2^{e}", int(bad[0]))
    return rows


def _normalized(grains: Grains, window: Window):
    """(grains, window region, e) on the frame of every exact measurement:
    scaled by 2^-e to a window of longer side in [1/2, 1), then centred on
    the window.  The scaling is exact and keeps products of coordinates
    normal doubles whatever the window's scale; v1 and v2 scale back by 2^e
    and 4^e."""
    e = math.frexp(max(window.width, window.height))[1]
    (x0, y0), (x1, y1) = window.lo, window.hi
    centre = np.ldexp([0.5 * (x0 + x1), 0.5 * (y0 + y1)], -e)
    hw, hh = np.ldexp([0.5 * (x1 - x0), 0.5 * (y1 - y0)], -e)
    region = Grains(np.zeros((1, 2)), np.zeros(1), np.array([4]),
                    np.array([[hw, hh], [-hw, hh], [-hw, -hh], [hw, -hh]]))
    return (Grains(np.ldexp(grains.centres, -e) - centre, np.ldexp(grains.radius, -e),
                   grains.count, np.ldexp(grains.loc, -e)), region, e)


# ---------------------------------------------------------------------------
# Edge-corrected (half-open tiling) measurement
# ---------------------------------------------------------------------------


def edge_corrected_measure(grains, window: Window, counts=None):
    """Unbiased per-window functionals by the half-open tiling correction.

    Subtracts the functionals of Z on the right and top window edges and adds
    back the far corner indicator; contributions then telescope exactly over
    a lattice of windows, so the expectation is the density times the window
    area for every stationary model (no isotropy needed).  `counts` is
    arrangement_measure's: with it, the rows of a chunk of replicates.
    """
    return arrangement_measure(grains, window, counts=counts, edge_corrected=True)


# ---------------------------------------------------------------------------
# Raster engine
# ---------------------------------------------------------------------------


def rasterize(grains, window: Window, resolution: float) -> np.ndarray:
    """Binary occupancy image of the union on the window's pixel grid.

    Pixel (iy, ix) is occupied when its center lies in some grain; row 0 is
    the bottom row (y increasing with row index).
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    h = 1.0 / resolution
    nx = max(1, int(round(window.width * resolution)))
    ny = max(1, int(round(window.height * resolution)))
    xs = window.lo[0] + (np.arange(nx) + 0.5) * h
    ys = window.lo[1] + (np.arange(ny) + 0.5) * h
    img = np.zeros((ny, nx), dtype=bool)
    grains = Grains.of(grains)
    bd = _Boundary(grains)
    for k, ((cx, cy), R) in enumerate(zip(grains.centres, grains.reach)):
        ix0 = np.searchsorted(xs, cx - R)
        ix1 = np.searchsorted(xs, cx + R, side="right")
        iy0 = np.searchsorted(ys, cy - R)
        iy1 = np.searchsorted(ys, cy + R, side="right")
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        X, Y = np.meshgrid(xs[ix0:ix1], ys[iy0:iy1])
        img[iy0:iy1, ix0:ix1] |= bd.level(k, X, Y) <= 0.0
    return img


def pixel_measure(grains, window: Window, resolution: float) -> IntrinsicVolumes2D:
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
    return IntrinsicVolumes2D(v0, v1, v2)


def write_pgm(path, img: np.ndarray):
    """Write a binary occupancy image as PGM P5, occupied = 255, top row first."""
    ny, nx = img.shape
    data = np.where(img[::-1, :], 255, 0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        f.write(data.tobytes())
