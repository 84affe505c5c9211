"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, from the build
contract; Monte Carlo criteria use fixed seeds so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import qmc

from germgrain.cells import intersect_convex
from germgrain.cltstats import multivariate_check, normality_report, run_batch, run_batches
from germgrain.covariance import (rho_22, sigma_matrix, sigma_volume)
from germgrain.geometry import (AlignedRect, ConvexPolygon, Disk, PlacedGrain, Window,
                                disk_covariogram, intrinsic_volumes, steiner_area)
from germgrain.model import ModelConfig, fixed_disk, unit_squares
from germgrain.moments import (density_estimate, density_rows, invert_intensity,
                               invert_intensity_se, miles_densities_2d,
                               mixed_moment_direct, volume_fraction)
from germgrain.process import empirical_capacity, replicate_rows, theory_capacity
from germgrain.union import arrangement_measure, inclusion_exclusion_measure

DISK1 = fixed_disk(1.0)
MASTER_SEED = 20260808
UNIT_WINDOW = Window((0.0, 0.0), (1.0, 1.0))
CFG03 = ModelConfig(0.3, DISK1, UNIT_WINDOW, seed=MASTER_SEED)


def report(num, name, passed, detail, t0):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {status} {name}: {detail} ({time.time() - t0:.1f}s)")
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared heavy batches (replicate streams are index-keyed, so a long batch's
# prefix is bitwise identical to a shorter batch at the same scale).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch64():
    return run_batch(CFG03, 64.0, 16_000, parallelism=2)


@pytest.fixture(scope="module")
def clt_batches(batch64):
    from germgrain.cltstats import ReplicateBatch
    scales = (8.0, 16.0, 32.0)
    batches = dict(zip(scales, run_batches(CFG03, scales, 2000, parallelism=2)))
    batches[64.0] = ReplicateBatch(scale=64.0, reps=2000,
                                   window_area=batch64.window_area,
                                   functionals=batch64.functionals[:2000],
                                   seed=batch64.seed)
    return batches


@pytest.fixture(scope="module")
def sigma03():
    return sigma_matrix(0.3, DISK1)


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED)
    w = Window((-3.0, -3.0), (3.0, 3.0))
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        grains = []
        for _ in range(n):
            c = (rng.uniform(-3.6, 3.6), rng.uniform(-3.6, 3.6))
            k = rng.integers(0, 3)
            if k == 0:
                grains.append(PlacedGrain(c, Disk(rng.uniform(0.3, 1.2))))
            elif k == 1:
                grains.append(PlacedGrain(c, AlignedRect(rng.uniform(0.2, 1.0),
                                                         rng.uniform(0.2, 1.0))))
            else:
                m = int(rng.integers(4, 8))
                angs = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
                if np.min(np.diff(angs)) < 0.15:
                    grains.append(PlacedGrain(c, Disk(rng.uniform(0.3, 1.2))))
                else:
                    r = rng.uniform(0.4, 1.1)
                    grains.append(PlacedGrain(c, ConvexPolygon(
                        tuple((r * math.cos(a), 0.8 * r * math.sin(a)) for a in angs))))
        ie = inclusion_exclusion_measure(grains, w).as_array()
        ar = arrangement_measure(grains, w).as_array()
        worst = max(worst, float(np.max(np.abs(ie - ar))))
    report(1, "oracle equivalence (500 mixed instances)", worst <= 1e-9,
           f"max |arrangement - inclusion-exclusion| = {worst:.2e} <= 1e-9", t0)


def test_criterion_02_capacity_functional():
    t0 = time.time()
    cfg = ModelConfig(0.1, DISK1, Window((0.0, 0.0), (8.0, 8.0)), seed=MASTER_SEED)
    want = math.exp(-0.4 * math.pi)
    assert theory_capacity(cfg, Disk(1.0)) == pytest.approx(want, rel=1e-12)
    est, se = empirical_capacity(cfg, Disk(1.0), (4.0, 4.0), 10_000, workers=2)
    dev = abs(est - want)
    report(2, "capacity functional", dev <= 3.0 * se,
           f"|{est:.5f} - exp(-0.4 pi) = {want:.5f}| = {dev:.5f} <= 3 s.e. = {3 * se:.5f}", t0)


def test_criterion_03_volume_fraction(batch64):
    t0 = time.time()
    fracs = batch64.functionals[:500, 2] / batch64.window_area
    p = volume_fraction(0.3, math.pi)
    se = fracs.std(ddof=1) / math.sqrt(len(fracs))
    dev = abs(fracs.mean() - p)
    report(3, "volume fraction (gamma=0.3, 64x64, 500 reps)", dev <= 3.0 * se,
           f"|{fracs.mean():.5f} - {p:.5f}| = {dev:.2e} <= 3 s.e. = {3 * se:.2e}", t0)


def test_criterion_04_miles_densities():
    t0 = time.time()
    cfg = ModelConfig(0.5, DISK1, Window((0.0, 0.0), (64.0, 64.0)), seed=MASTER_SEED + 4)
    dv, se = density_estimate(replicate_rows(cfg, density_rows, 2000, workers=2))
    want = miles_densities_2d(0.5, DISK1.moments()).as_array()
    z = np.abs(dv.as_array() - want) / se
    report(4, "Miles densities (gamma=0.5, 64x64, 2000 reps)", bool(np.all(z <= 3.0)),
           f"|z| per density = {np.round(z, 2)} all <= 3", t0)


def test_criterion_05_anisotropic_consistency():
    t0 = time.time()
    # (a) translative vs kinematic d0 paths for isotropized squares to 1e-12
    sqr = unit_squares(rotate=True)
    mr = sqr.moments()
    gap_mixed = abs(mixed_moment_direct(sqr) - 2.0 * mr.ev1 ** 2 / math.pi)
    d0_iso = miles_densities_2d(0.4, mr, isotropic=True).d0
    d0_tr = miles_densities_2d(0.4, mr, isotropic=False).d0
    gap_d0 = abs(d0_iso - d0_tr)
    ok_paths = gap_mixed <= 1e-12 and gap_d0 <= 1e-12
    # (b) MC densities for aligned squares vs the translative prediction
    sq = unit_squares()
    cfg = ModelConfig(0.4, sq, Window((0.0, 0.0), (64.0, 64.0)), seed=MASTER_SEED + 5)
    dv, se = density_estimate(replicate_rows(cfg, density_rows, 500, workers=2))
    want = miles_densities_2d(0.4, sq.moments(), isotropic=False).as_array()
    z = np.abs(dv.as_array() - want) / se
    report(5, "anisotropic consistency (aligned/isotropized squares)",
           ok_paths and bool(np.all(z <= 3.0)),
           f"path gaps (mixed, d0) = ({gap_mixed:.1e}, {gap_d0:.1e}) <= 1e-12; "
           f"MC |z| = {np.round(z, 2)} all <= 3", t0)


def test_criterion_06_intensity_inversion():
    t0 = time.time()
    # (a) round trip on theory inputs
    dv = miles_densities_2d(0.5, DISK1.moments())
    g, e1, e2 = invert_intensity(dv)
    rt = max(abs(g - 0.5), abs(e1 - math.pi), abs(e2 - math.pi))
    # (b) CI coverage over 50 macro replicates
    cover = 0
    cfgs = [ModelConfig(0.5, DISK1, Window((0.0, 0.0), (32.0, 32.0)), seed=7000 + macro)
            for macro in range(50)]
    for rows in replicate_rows(cfgs, density_rows, 200, workers=2):
        dvm, _ = density_estimate(rows)
        gm, _, _ = invert_intensity(dvm)
        gse = invert_intensity_se(dvm, np.cov(rows.T), len(rows))
        cover += abs(gm - 0.5) <= 1.96 * gse
    report(6, "intensity inversion", rt <= 1e-12 and cover >= 45,
           f"round trip max err = {rt:.1e} <= 1e-12; CI coverage {cover}/50 >= 45", t0)


def test_criterion_07_volume_variance():
    t0 = time.time()
    # (a) quadrature vs quasi-Monte Carlo integration of the same integrand
    val, _ = rho_22(0.3, DISK1)
    ss = np.linspace(0.0, 2.0, 4097)
    tab = np.array([disk_covariogram(1.0, s) for s in ss])
    u = qmc.Sobol(d=2, scramble=True, seed=MASTER_SEED).random(2 ** 19)
    r = 2.0 * u[:, 1]
    est = float(np.mean(np.expm1(0.3 * np.interp(r, ss, tab)) * r * (4.0 * math.pi)))
    rel_oracle = abs(est - val) / val
    # (b) empirical variance at window side 100
    sv, _ = sigma_volume(0.3, DISK1)
    cfg = ModelConfig(0.3, DISK1, Window((0.0, 0.0), (100.0, 100.0)), seed=MASTER_SEED + 7)
    batch = run_batch(cfg, 1.0, 1500, parallelism=2)
    emp = batch.functionals[:, 2].var(ddof=1) / batch.window_area
    rel_emp = abs(emp - sv) / sv
    report(7, "volume variance", rel_oracle <= 5e-5 and rel_emp <= 0.10,
           f"quadrature {val:.6f} vs QMC oracle {est:.6f} (rel {rel_oracle:.1e} <= 5e-5, "
           f"4 digits); empirical/asymptotic rel dev {rel_emp:.3f} <= 0.10", t0)


def test_criterion_08_covariance_cross_checks(sigma03):
    t0 = time.time()
    # pure numerics: assembly vs the two independent derivations
    r = sigma03.rho.values
    m = DISK1.moments()
    gamma = 0.3
    v1b = gamma * m.ev1
    q = math.exp(-gamma * m.ev2)
    p = 1.0 - q
    direct = {
        (1, 2): -q * q * v1b * r[2, 2] + q * q * r[1, 2],
        (1, 1): q * q * (v1b * v1b * r[2, 2] - 2.0 * v1b * r[1, 2] + r[1, 1]),
        (0, 2): (p * q - q * q * (gamma - v1b * v1b / math.pi) * r[2, 2]
                 - q * q * (2.0 * v1b / math.pi) * r[1, 2]),
    }
    rels = {ij: abs(sigma03.matrix[ij] - want) / abs(want)
            for ij, want in direct.items()}
    worst = max(rels.values())
    report(8, "covariance cross-checks (entries (1,1), (1,2), (0,2))", worst <= 1e-6,
           f"max relative disagreement = {worst:.2e} <= 1e-6 "
           f"(leading p(1-p) term present: sigma02 = {sigma03.matrix[0, 2]:.5f})", t0)


def test_criterion_09_positive_definiteness():
    t0 = time.time()
    ok = True
    detail = []
    for dist, name in ((DISK1, "disks"), (unit_squares(rotate=True), "iso-squares")):
        for gamma in (0.05, 0.1, 0.3, 0.5, 1.0):
            cm = sigma_matrix(gamma, dist)
            try:
                np.linalg.cholesky(cm.matrix)
            except np.linalg.LinAlgError:
                ok = False
                detail.append(f"{name}@{gamma}: FAILED")
    report(9, "positive definiteness over the gamma grid", ok,
           "Cholesky succeeded for disks and isotropized squares at "
           "gamma in {0.05, 0.1, 0.3, 0.5, 1.0}" if ok else "; ".join(detail), t0)


def test_criterion_10_clt(clt_batches):
    t0 = time.time()
    from scipy.stats import spearmanr
    scales = (8.0, 16.0, 32.0, 64.0)
    ok = True
    details = []
    for j, name in ((0, "v0"), (1, "v1"), (2, "v2")):
        w1s = []
        for r in scales:
            b = clt_batches[r]
            rep = normality_report(b.functionals[:, j], r, b.window_area)
            w1s.append(rep.w1)
        rho = float(spearmanr(scales, w1s).statistic)
        passed = w1s[-1] < 0.06 and rho < 0.0
        ok = ok and passed
        details.append(f"{name}: w1@64 = {w1s[-1]:.4f} < 0.06, spearman = {rho:.2f} < 0")
    report(10, "CLT (N=2000, scales 8..64)", ok, "; ".join(details), t0)


def test_criterion_11_multivariate_clt(batch64, sigma03):
    t0 = time.time()
    emp, rel, cw = multivariate_check(CFG03, 64.0, batch64.reps, sigma03.matrix,
                                      batch=batch64)
    ok_cov = rel <= 0.15
    # e2 direction reduces to the volume case
    v2_rep = normality_report(batch64.functionals[:, 2], 64.0, batch64.window_area,
                              variance=sigma03.matrix[2, 2] * batch64.window_area)
    e2 = next(rep for a, rep in cw if tuple(a) == (0.0, 0.0, 1.0))
    ok_e2 = abs(e2.w1 - v2_rep.w1) < 1e-12
    ok_cw = all(rep.w1 < 0.08 for _, rep in cw)
    report(11, "multivariate CLT (r=64, N=16000)", ok_cov and ok_e2 and ok_cw,
           f"max cov rel err = {rel:.3f} <= 0.15; CW w1 = "
           f"{[round(rep.w1, 4) for _, rep in cw]} all < 0.08", t0)


def test_criterion_12_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 12)
    w = Window((-3.0, -3.0), (3.0, 3.0))
    violations = []

    # additivity on 2-grain instances via the inclusion-exclusion identity
    for _ in range(60):
        g1 = PlacedGrain((rng.uniform(-1, 1), rng.uniform(-1, 1)), Disk(rng.uniform(0.3, 1.2)))
        g2 = PlacedGrain((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                         AlignedRect(rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)))
        union = arrangement_measure([g1, g2], w).as_array()
        inter = np.array(intersect_convex([g1, g2], w)[0])
        singles = (np.array(intersect_convex([g1], w)[0])
                   + np.array(intersect_convex([g2], w)[0]))
        if np.max(np.abs(union - (singles - inter))) > 1e-9:
            violations.append("additivity")

    # translation invariance
    for _ in range(40):
        grains = [PlacedGrain((rng.uniform(-2, 2), rng.uniform(-2, 2)),
                              Disk(rng.uniform(0.2, 1.0))) for _ in range(5)]
        base = arrangement_measure(grains, w).as_array()
        dx, dy = rng.uniform(-30, 30, 2)
        moved = [PlacedGrain((g.center[0] + dx, g.center[1] + dy), g.shape) for g in grains]
        wm = Window((-3.0 + dx, -3.0 + dy), (3.0 + dx, 3.0 + dy))
        if np.max(np.abs(arrangement_measure(moved, wm).as_array() - base)) > 1e-9:
            violations.append("translation")

    # Steiner consistency: dilated disks are exact disks
    for _ in range(10):
        r0 = rng.uniform(0.2, 2.0)
        for _ in range(10):
            r = rng.uniform(0.0, 2.0)
            want = intrinsic_volumes(Disk(r0 + r)).v2
            if abs(steiner_area(Disk(r0), r) - want) > 1e-12 * want:
                violations.append("steiner")

    # covariogram symmetry and support
    from germgrain.geometry import circumradius, covariogram
    shapes = [Disk(0.8), AlignedRect(0.5, 0.9),
              ConvexPolygon(((0.9, 0.0), (0.1, 0.8), (-0.7, 0.3), (-0.4, -0.6)))]
    for shape in shapes:
        for _ in range(25):
            tv = rng.uniform(-2.5, 2.5, 2)
            if abs(covariogram(shape, tv) - covariogram(shape, -tv)) > 1e-9:
                violations.append("cov-symmetry")
            far = tv / np.hypot(*tv) * (2.0 * circumradius(shape) + rng.uniform(0, 1))
            if covariogram(shape, far) != 0.0:
                violations.append("cov-support")

    # standardization exactness
    for _ in range(10):
        rep = normality_report(rng.gamma(2.0, size=300), scale=1.0, window_area=1.0)
        if abs(rep.standardized.mean()) > 1e-12 or abs(rep.standardized.var(ddof=1) - 1.0) > 1e-12:
            violations.append("standardization")

    # seed-split determinism
    cfg = ModelConfig(0.3, DISK1, Window((0.0, 0.0), (8.0, 8.0)), seed=MASTER_SEED)
    a = run_batch(cfg, 1.0, 20, parallelism=1).functionals
    b = run_batch(cfg, 1.0, 20, parallelism=2).functionals
    if not np.array_equal(a, b):
        violations.append("seed-split")

    report(12, "standalone property suites", not violations,
           "zero tolerance violations" if not violations else f"violations: {violations}", t0)
