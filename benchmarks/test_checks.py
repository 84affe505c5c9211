"""Tests of the benchmark's own reference values and checks.

Run with `python3 -m pytest benchmarks/test_checks.py`.  Every check is
shown to pass a consistent output and to reject a deliberately wrong one.
"""

import math

import numpy as np
import pytest

import checks

GAMMA = 0.3
A, B = 0.5, 1.5


def test_sigma22_of_unit_disks():
    assert checks.disk_var_per_area(GAMMA, 1.0) == pytest.approx(0.56773, abs=1e-5)
    # a finite window only removes pairs, so the expected variance is smaller
    assert checks.disk_var_per_area(GAMMA, 1.0, 64.0) < checks.disk_var_per_area(GAMMA, 1.0)


def test_square_profile_matches_angle_average():
    s = np.array([0.0, 0.3, 0.99, 1.01, 1.3, 1.41, 1.5])
    th = np.linspace(0.0, 0.5 * math.pi, 400001)
    for si, got in zip(s, checks.rotated_square_g2(s)):
        f = np.maximum(1 - si * np.cos(th), 0) * np.maximum(1 - si * np.sin(th), 0)
        assert got == pytest.approx(np.trapezoid(f, th) / (0.5 * math.pi), abs=1e-9)


def test_uniform_disk_profiles_match_sampled_radii():
    r = np.random.default_rng(0).uniform(A, B, 400000)
    for s in (0.4, 1.2, 2.5):
        assert checks.disk_g2(A, B, np.array([s]))[0] == pytest.approx(
            checks.lens_area(r, s).mean(), rel=5e-3)
        want = np.where(s < 2 * r, r * np.arccos(np.minimum(s / (2 * r), 1.0)), 0.0).mean()
        assert checks.disk_g1(A, B, np.array([s]))[0] == pytest.approx(want, rel=5e-3)


def test_rho_rules_are_converged():
    coarse = checks.rho12_rho11_uniform_disks(GAMMA, A, B)
    fine = checks.rho12_rho11_uniform_disks(GAMMA, A, B, n_r=48, n_s=128)
    assert coarse == pytest.approx(fine, rel=1e-12)


def test_rho22_of_thin_uniform_law_tends_to_constant_radius():
    # sigma22 = q^2 rho22 for constant radius 1; uniform(1 - e, 1 + e) is close
    rho22 = checks.rho22_uniform_disks(GAMMA, 1.0 - 1e-4, 1.0 + 1e-4)
    q = math.exp(-GAMMA * math.pi)
    assert q * q * rho22 == pytest.approx(checks.disk_var_per_area(GAMMA, 1.0), rel=1e-6)


# ---------------------------------------------------------------------------
# disk-clt
# ---------------------------------------------------------------------------


def _clt_rows(reps=500):
    p = -math.expm1(-GAMMA * math.pi)
    rows = []
    for scale in (16.0, 32.0, 64.0):
        vpa = checks.disk_var_per_area(GAMMA, 1.0, scale)
        rows.append({"scale": scale, "reps": reps, "mean": p * scale ** 2, "var_per_area": vpa})
    return rows


def test_clt_check_passes_consistent_output():
    assert checks.check_disk_clt(_clt_rows(), GAMMA, 1.0, 1.0) == []


def test_clt_check_rejects_shifted_mean():
    rows = _clt_rows()
    row = rows[1]
    row["mean"] += 10.0 * math.sqrt(row["var_per_area"] * row["scale"] ** 2 / row["reps"])
    errs = checks.check_disk_clt(rows, GAMMA, 1.0, 1.0)
    assert len(errs) == 1 and "scale 32" in errs[0]


def test_clt_check_rejects_wrong_variance():
    rows = _clt_rows()
    rows[-1]["var_per_area"] *= 1.5  # 500 reps allow 4 x 6.3 % = 25 %
    assert any("var_per_area" in e for e in checks.check_disk_clt(rows, GAMMA, 1.0, 1.0))


# ---------------------------------------------------------------------------
# squares-estimate
# ---------------------------------------------------------------------------


def _estimate_row():
    d0, d1, d2 = checks.miles_isotropic(0.5, 2.0, 1.0)
    return {"d0": d0, "d1": d1, "d2": d2, "se0": 0.003, "se1": 0.005, "se2": 0.004,
            "gamma_hat": 0.5, "gamma_se": 0.01}


def test_miles_closed_forms():
    q = math.exp(-0.5)
    assert checks.miles_isotropic(0.5, 2.0, 1.0) == pytest.approx(
        (q * (0.5 - 1.0 / math.pi), q, 1.0 - q))


def test_estimate_check_passes_consistent_output():
    assert checks.check_estimate(_estimate_row(), 0.5, 2.0, 1.0) == []


@pytest.mark.parametrize("key", ["d0", "d1", "d2", "gamma_hat"])
def test_estimate_check_rejects_shift_of_ten_se(key):
    row = _estimate_row()
    se = row["gamma_se"] if key == "gamma_hat" else row["se" + key[1]]
    row[key] += 10.0 * se
    errs = checks.check_estimate(row, 0.5, 2.0, 1.0)
    assert len(errs) == 1 and errs[0].startswith(key)


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------


def _disk_uniform_refs():
    r12, r11 = checks.rho12_rho11_uniform_disks(GAMMA, A, B)
    return dict(ev2=math.pi * (B ** 3 - A ** 3) / (3 * (B - A)),
                rho22_ref=checks.rho22_uniform_disks(GAMMA, A, B),
                tol22=checks.RHO22_DISK_TOL, rho12_ref=r12, rho11_ref=r11,
                tol1x=checks.RHO1X_DISK_TOL)


def _consistent_tables(refs):
    rho = np.array([[1.6, 2.6, math.expm1(GAMMA * refs["ev2"])],
                    [2.6, refs.get("rho11_ref") or 1.4, refs.get("rho12_ref") or 0.7],
                    [0.0, 0.0, refs["rho22_ref"]]])
    rho[2, 0], rho[2, 1] = rho[0, 2], rho[1, 2]
    sigma = np.array([[0.09, 0.04, -0.2], [0.04, 0.13, 0.004], [-0.2, 0.004, 0.73]])
    return sigma, rho


def test_covariance_check_passes_consistent_output():
    for refs in (_disk_uniform_refs(),
                 dict(ev2=1.0, rho22_ref=checks.rho22_rotated_squares(GAMMA),
                      tol22=checks.RHO22_SQUARE_TOL)):
        sigma, rho = _consistent_tables(refs)
        assert checks.check_covariance(sigma, rho, GAMMA, **refs) == []


def test_covariance_check_rejects_non_symmetric_sigma():
    refs = _disk_uniform_refs()
    sigma, rho = _consistent_tables(refs)
    sigma[0, 1] += 1e-6
    assert checks.check_covariance(sigma, rho, GAMMA, **refs) == ["sigma is not symmetric"]


def test_covariance_check_rejects_indefinite_sigma():
    refs = _disk_uniform_refs()
    sigma, rho = _consistent_tables(refs)
    sigma[0, 2] = sigma[2, 0] = -0.5
    errs = checks.check_covariance(sigma, rho, GAMMA, **refs)
    assert len(errs) == 1 and "positive definite" in errs[0]


@pytest.mark.parametrize("i,j,rel,name", [(0, 2, 1e-9, "rho02"), (2, 2, 1e-5, "rho22"),
                                          (1, 2, 1e-4, "rho12"), (1, 1, 1e-4, "rho11")])
def test_covariance_check_rejects_wrong_rho(i, j, rel, name):
    refs = _disk_uniform_refs()
    sigma, rho = _consistent_tables(refs)
    rho[i, j] *= 1.0 + rel
    rho[j, i] = rho[i, j]
    errs = checks.check_covariance(sigma, rho, GAMMA, **refs)
    assert len(errs) == 1 and errs[0].startswith(name)
