"""Correctness checks for the benchmark's CLI outputs.

Every reference value here is computed by this file from the model's
definition, with its own quadrature rules; nothing is imported from
germgrain and nothing is compared against a stored copy of an earlier
output.  Each check returns a list of failure messages (empty when the
output passes), so a test can show that a deliberately wrong output is
rejected.

The rules are composite Gauss-Legendre with a smoothstep change of
variables on every panel: x = lo + (hi - lo) * t^2 (3 - 2t).  Its Jacobian
vanishes at both panel ends, which turns the square-root endpoint
behaviour of arccos and of the lens area into a smooth integrand.  The
program instead uses adaptive Gauss-Kronrod (QUADPACK) and a 24-point
Gauss-Legendre expectation over the radius law, so agreement between the
two is a check of the program's numerics, not a repetition of them.
"""

from __future__ import annotations

import math

import numpy as np

N_SIGMA = 4.0  # Monte Carlo checks accept a deviation of up to 4 standard errors


def _panel_rule(lo, hi, n):
    """Nodes and weights on [lo, hi] (arrays broadcast) with smoothstep grading."""
    t, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    x = lo + (hi - lo) * t * t * (3.0 - 2.0 * t)
    wx = (hi - lo) * w * 6.0 * t * (1.0 - t)
    return x, wx


def lens_area(r, s):
    """Area of the intersection of two disks of radius r whose centres are s apart."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    c = np.clip(s / (2.0 * r), 0.0, 1.0)
    return 2.0 * r * r * np.arccos(c) - 0.5 * s * np.sqrt(np.maximum(4.0 * r * r - s * s, 0.0))


# ---------------------------------------------------------------------------
# Expected covariogram profiles (gamma-free)
# ---------------------------------------------------------------------------


def _uniform_radius_expect(f, a, b, s, n=48):
    """E f(R, s) for R ~ uniform(a, b), over the radii that reach s (R > s/2)."""
    s = np.asarray(s, dtype=float)
    lo = np.maximum(a, 0.5 * s)
    hi = np.maximum(lo, b)
    r, wr = _panel_rule(lo, hi, n)
    return np.sum(wr * f(r, s[..., None]), axis=-1) / (b - a)


def disk_g2(a, b, s):
    """E lens area for radius law uniform(a, b): the expected covariogram."""
    return _uniform_radius_expect(lens_area, a, b, s)


def disk_g1(a, b, s):
    """E r * arccos(s / 2r) over radii r > s/2: the expected boundary covariogram."""
    return _uniform_radius_expect(
        lambda r, t: r * np.arccos(np.clip(t / (2.0 * r), 0.0, 1.0)), a, b, s)


def rotated_square_g2(s):
    """Rotation average of the unit square's covariogram (1-|x|)(1-|y|), closed form."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inner = s <= 1.0
    si = s[inner]
    out[inner] = 1.0 - 4.0 * si / math.pi + si * si / math.pi
    mid = (s > 1.0) & (s < math.sqrt(2.0))
    sm = s[mid]

    def antiderivative(th):
        return th - sm * np.sin(th) + sm * np.cos(th) + 0.5 * sm * sm * np.sin(th) ** 2
    out[mid] = (2.0 / math.pi) * (antiderivative(np.arcsin(1.0 / sm))
                                  - antiderivative(np.arccos(1.0 / sm)))
    return out


def _radial_integral(f, breaks, n=160):
    """Integral of f(s) over consecutive panels given by the sorted break list."""
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        s, ws = _panel_rule(lo, hi, n)
        total += float(np.sum(ws * f(s)))
    return total


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------


def disk_var_per_area(gamma, radius, side=math.inf):
    """E[sample variance of the area] / window area, constant-radius disks, square window.

    Var V2(Z n W) = integral of q^2 (exp(gamma lens(h)) - 1) |W n (W - h)| dh,
    and |W n (W - h)| / |W| = (1 - |h1|/L)(1 - |h2|/L); the angular integral
    of that factor is 2 pi - 8 s/L + 2 s^2/L^2.  side = inf gives sigma22.
    """
    q = math.exp(-gamma * math.pi * radius * radius)
    inv = 0.0 if math.isinf(side) else 1.0 / side

    def f(s):
        return (np.expm1(gamma * lens_area(radius, s)) * s
                * (2.0 * math.pi - 8.0 * s * inv + 2.0 * s * s * inv * inv))
    return q * q * _radial_integral(f, [0.0, 2.0 * radius])


def rho22_uniform_disks(gamma, a, b):
    return 2.0 * math.pi * _radial_integral(
        lambda s: np.expm1(gamma * disk_g2(a, b, s)) * s, [0.0, 2.0 * a, 2.0 * b])


def rho22_rotated_squares(gamma):
    return 2.0 * math.pi * _radial_integral(
        lambda s: np.expm1(gamma * rotated_square_g2(s)) * s, [0.0, 1.0, math.sqrt(2.0)])


def rho12_rho11_uniform_disks(gamma, a, b, n_r=24, n_s=64):
    """rho(V1, V2) and rho(V1, V1) for disks with radius law uniform(a, b).

    Both are expectations over the radius r of integrals over the distance s
    between a boundary point and a second point of the same disk; rho11 adds
    the C1 factor and the boundary x boundary term over the chord angle psi.
    """
    r, wr = _panel_rule(a, b, n_r)
    r, wr = r.ravel(), wr.ravel() / (b - a)
    rho12 = np.empty_like(r)
    rho11 = np.empty_like(r)
    for i, ri in enumerate(r):
        panels = [(0.0, 2.0 * a), (2.0 * a, 2.0 * ri)]
        t12 = t11a = 0.0
        for lo, hi in panels:
            s, ws = _panel_rule(lo, hi, n_s)
            s, ws = s.ravel(), ws.ravel()
            chord = 2.0 * np.arccos(np.clip(s / (2.0 * ri), 0.0, 1.0)) * s
            e2 = np.exp(gamma * disk_g2(a, b, s))
            t12 += float(np.sum(ws * e2 * chord))
            t11a += float(np.sum(ws * e2 * gamma * disk_g1(a, b, s) * chord))
        # boundary x boundary: psi in [0, pi] (doubled), kink where the chord is 2a
        psi_k = 2.0 * math.asin(min(a / ri, 1.0))
        t11b = 0.0
        for lo, hi in ((0.0, psi_k), (psi_k, math.pi)):
            psi, wp = _panel_rule(lo, hi, n_s)
            psi, wp = psi.ravel(), wp.ravel()
            t11b += 2.0 * float(np.sum(wp * np.exp(gamma * disk_g2(a, b, 2.0 * ri * np.sin(0.5 * psi)))))
        rho12[i] = gamma * math.pi * ri * t12
        rho11[i] = gamma * math.pi * ri * t11a + gamma * 0.5 * math.pi * ri * ri * t11b
    return float(wr @ rho12), float(wr @ rho11)


# ---------------------------------------------------------------------------
# Checks on CLI outputs
# ---------------------------------------------------------------------------

# Tolerances of the theory checks, relative.  README.md gives the reasons.
RHO22_DISK_TOL = 1e-6
RHO1X_DISK_TOL = 1e-5
RHO22_SQUARE_TOL = 1e-3
SYMMETRY_TOL = 1e-12


def check_disk_clt(rows, gamma, radius, base_area):
    """rows: dicts with scale, reps, mean, var_per_area (v2, constant-radius disks)."""
    errs = []
    if not rows:
        return ["no CLT rows"]
    p = -math.expm1(-gamma * math.pi * radius * radius)
    for row in rows:
        area = base_area * row["scale"] ** 2
        se = math.sqrt(row["var_per_area"] * area / row["reps"])
        want = p * area
        if not abs(row["mean"] - want) <= N_SIGMA * se:
            errs.append(f"scale {row['scale']}: v2 mean {row['mean']} is not within "
                        f"{N_SIGMA} se ({se:.4g}) of {want}")
    last = max(rows, key=lambda r: r["scale"])
    side = math.sqrt(base_area) * last["scale"]
    want = disk_var_per_area(gamma, radius, side)
    # relative standard error of a sample variance of n near-normal values
    rel_se = math.sqrt(2.0 / (last["reps"] - 1))
    if not abs(last["var_per_area"] - want) <= N_SIGMA * rel_se * want:
        errs.append(f"scale {last['scale']}: var_per_area {last['var_per_area']} is not "
                    f"within {N_SIGMA} x {rel_se:.3g} (relative) of {want}")
    return errs


def miles_isotropic(gamma, ev1, ev2):
    """Miles' planar densities (d0, d1, d2) for an isotropic Boolean model."""
    q = math.exp(-gamma * ev2)
    return (q * (gamma - gamma * gamma * ev1 * ev1 / math.pi), q * gamma * ev1, 1.0 - q)


def check_estimate(row, gamma, ev1, ev2):
    """row: dict with d0..d2, se0..se2, gamma_hat, gamma_se."""
    errs = []
    for i, want in enumerate(miles_isotropic(gamma, ev1, ev2)):
        got, se = row[f"d{i}"], row[f"se{i}"]
        if not (se > 0.0 and abs(got - want) <= N_SIGMA * se):
            errs.append(f"d{i} = {got} is not within {N_SIGMA} se ({se}) of {want}")
    if not (row["gamma_se"] > 0.0
            and abs(row["gamma_hat"] - gamma) <= N_SIGMA * row["gamma_se"]):
        errs.append(f"gamma_hat = {row['gamma_hat']} is not within {N_SIGMA} "
                    f"gamma_se ({row['gamma_se']}) of {gamma}")
    return errs


def _rel_gap(got, want):
    return abs(got - want) / abs(want)


def check_covariance(sigma, rho, gamma, ev2, rho22_ref, tol22, rho12_ref=None,
                     rho11_ref=None, tol1x=None):
    """sigma, rho: 3x3 arrays read from the CLI output."""
    errs = []
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(sigma)) or not np.all(np.isfinite(rho)):
        return ["non-finite entries"]
    scale = np.max(np.abs(sigma))
    if np.max(np.abs(sigma - sigma.T)) > SYMMETRY_TOL * scale:
        errs.append("sigma is not symmetric")
    if np.max(np.abs(rho - rho.T)) > SYMMETRY_TOL * np.max(np.abs(rho)):
        errs.append("rho is not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    if not eig[0] > 0.0:
        errs.append(f"sigma is not positive definite (smallest eigenvalue {eig[0]})")
    want02 = math.expm1(gamma * ev2)
    if _rel_gap(rho[0, 2], want02) > SYMMETRY_TOL * 10:
        errs.append(f"rho02 = {rho[0, 2]} differs from expm1(gamma E V2) = {want02}")
    if _rel_gap(rho[2, 2], rho22_ref) > tol22:
        errs.append(f"rho22 = {rho[2, 2]} differs from {rho22_ref} by more than {tol22} (relative)")
    for name, got, want in (("rho12", rho[1, 2], rho12_ref), ("rho11", rho[1, 1], rho11_ref)):
        if want is not None and _rel_gap(got, want) > tol1x:
            errs.append(f"{name} = {got} differs from {want} by more than {tol1x} (relative)")
    return errs
