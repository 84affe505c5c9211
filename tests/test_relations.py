"""Relations the exact engine's rows keep, checked without an oracle.

One seeded harness: the laws of tools/engine_rows.py plus aligned rects, at
gamma 0.3 on an origin-centred 12 x 12 window, each replicate measured plain,
edge-corrected and masked by a disk and by a hexagon, in chunks.  A grain
listed twice covers nothing its first listing does not, a grain order and a
quarter turn are a relabelling and a rotation of the same union, and a rect
cut into abutting halves covers the same area.
"""

from functools import lru_cache

import numpy as np
import pytest

from germgrain.geometry import ConvexPolygon, Disk, Grains, PlacedGrain, Window
from germgrain.model import GrainDistribution, ModelConfig, ParamLaw, fixed_disk, unit_squares
from germgrain.process import sample
from test_union import chunk_rows, regular_polygon

WINDOW = Window((-6.0, -6.0), (6.0, 6.0))
LAWS = {"unit disks": fixed_disk(1.0),
        "uniform disks": GrainDistribution("disk", radius=ParamLaw.uniform(0.5, 1.5)),
        "rotated squares": unit_squares(rotate=True),
        "rotated triangles": GrainDistribution("fixed", shape=regular_polygon(3, 0.8),
                                               rotate=True),
        "rotated hexagons": GrainDistribution("fixed", shape=regular_polygon(6, 0.6),
                                              rotate=True),
        "aligned rects": GrainDistribution("rect", halfwidth=ParamLaw.uniform(0.3, 1.0),
                                           halfheight=ParamLaw.uniform(0.3, 1.0))}
REPLICATES = 40
# Relative bound on v1 and v2 where only the order of a sum changes.
REL = 1e-14


def turned(xy, turns):
    """Points (..., 2) turned `turns` quarters about the origin, exactly."""
    for _ in range(turns):
        xy = xy[..., ::-1] * [-1.0, 1.0]  # (x, y) -> (-y, x)
    return xy


def passes(turns=0):
    """(name, keyword arguments) of each observation, its masks turned
    `turns` quarters; edge-corrected rows only unturned."""
    hexagon = turned(np.array(regular_polygon(6, 5.0, 0.3).vertices), turns)
    masks = [("disk mask", PlacedGrain(turned(np.array([0.25, -0.5]), turns), Disk(4.5))),
             ("hexagon mask", PlacedGrain(turned(np.array([-0.5, 0.25]), turns),
                                          ConvexPolygon(tuple(map(tuple, hexagon)))))]
    corrected = [("edge-corrected", {"edge_corrected": True})] if turns == 0 else []
    return [("plain", {})] + corrected + [(name, {"mask": m}) for name, m in masks]


@lru_cache(maxsize=None)
def samples(law):
    cfg = ModelConfig(0.3, LAWS[law], WINDOW, seed=3)
    return tuple(sample(cfg, k).grains for k in range(REPLICATES))


@lru_cache(maxsize=None)
def base_rows(law):
    return {name: chunk_rows(samples(law), WINDOW, **kw) for name, kw in passes()}


def close(got, want):
    """v0 equal and v1, v2 within REL of want's, replicate by replicate."""
    return (np.array_equal(got[:, 0], want[:, 0])
            and bool(np.all(np.abs(got[:, 1:] - want[:, 1:]) <= REL * np.abs(want[:, 1:]))))


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("listed", ["one grain", "a fifth"])
def test_grains_listed_twice_change_no_row(law, listed):
    # The second listing of a grain lies on the first, which is listed
    # earlier and so keeps every shared boundary piece.
    rng = np.random.default_rng(11)
    parts = []
    for g in samples(law):
        again = (rng.integers(len(g), size=1) if listed == "one grain"
                 else np.flatnonzero(rng.random(len(g)) < 0.2))
        parts.append(Grains.join(g, g.take(again)))
    for name, kw in passes():
        got, want = chunk_rows(parts, WINDOW, **kw), base_rows(law)[name]
        assert got.tobytes() == want.tobytes(), (
            f"{name}: {int(np.isnan(got[:, 0]).sum())} raise, "
            f"{int(np.sum(np.any(got != want, axis=1) & ~np.isnan(got[:, 0])))} differ")


@pytest.mark.parametrize("law", sorted(LAWS))
def test_grain_order_changes_rows_by_rounding(law):
    rng = np.random.default_rng(13)
    parts = [g.take(rng.permutation(len(g))) for g in samples(law)]
    for name, kw in passes():
        assert close(chunk_rows(parts, WINDOW, **kw), base_rows(law)[name]), name


@pytest.mark.parametrize("law", sorted(LAWS))
def test_quarter_turns_change_rows_by_rounding(law):
    # Edge-corrected rows drop the top and right edges, so they are not
    # rotation invariant; plain and masked rows are.
    for turns in range(1, 4):
        parts = [Grains(turned(g.centres, turns), g.radius, g.count, turned(g.loc, turns))
                 for g in samples(law)]
        for name, kw in passes(turns):
            assert close(chunk_rows(parts, WINDOW, **kw), base_rows(law)[name]), (turns, name)


@lru_cache(maxsize=None)
def split_rows():
    """{observation: (rows of whole rects, rows of the rects cut in halves)}.

    Aligned rects on a 2^-20 grid, each cut across a random axis into two
    abutting halves on the same grid.  The cut is a flush contact, pulled
    apart, so v0 and v1 change; v2 does not."""
    rng = np.random.default_rng(17)

    def rects(centres, half):
        w, h = half.T
        loc = np.stack([w, h, -w, h, -w, -h, w, -h], axis=1).reshape(-1, 2)
        return Grains(centres, np.zeros(len(centres)), np.full(len(centres), 4), loc)
    whole, cut = [], []
    for g in samples("aligned rects"):
        centres = np.round(g.centres * 2.0 ** 20) * 2.0 ** -20
        half = np.round(g.loc[0::4] * 2.0 ** 19) * 2.0 ** -19  # each rect's (w, h)
        quarter = 0.5 * half * np.eye(2)[rng.integers(2, size=len(g))]  # half the cut side
        whole.append(rects(centres, half))
        cut.append(rects(np.concatenate([centres - quarter, centres + quarter]),
                         np.tile(half - quarter, (2, 1))))
    return {name: (chunk_rows(whole, WINDOW, **kw), chunk_rows(cut, WINDOW, **kw))
            for name, kw in passes()}


def test_rects_cut_into_abutting_halves_keep_their_area():
    # On every replicate that measures; the next test counts those that raise.
    for name, (whole, cut) in split_rows().items():
        ok = ~np.isnan(cut[:, 2])
        assert not np.isnan(whole).any(), name
        assert np.all(np.abs(cut[ok, 2] - whole[ok, 2]) <= 1e-12 * whole[ok, 2]), name


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1 stage c: where a boundary crosses a cut, the gap between the halves "
    "is a point and the turns there do not sum; 34 / 34 / 40 / 40 of 40 replicates raise "
    "(plain, edge-corrected, disk mask, hexagon mask)"))
def test_rects_cut_into_abutting_halves_measure_without_a_raise():
    raised = {name: int(np.isnan(cut[:, 0]).sum()) for name, (_, cut) in split_rows().items()}
    assert not any(raised.values()), raised
