"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately avoid the library's reduction formulas:
they evaluate definitions directly (all-angle intersections, stretched
norms) so agreement is meaningful.  ``connector_search`` decides
compatibility by numerical search with scipy, which is why scipy is a
test dependency only.  ``brute_force_boundary_analysis`` compares every
boundary point with every other, where the library uses grid-cell indexes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import bracket as _downhill_bracket
from scipy.optimize import brentq, minimize_scalar

from polyslip.geometry import (BoundaryAnalysis, Segment, _near, _normals_cover_circle,
                               _outer_curves_of)
from polyslip.mat2 import ANGULAR_TOL, DEFAULT_TOL, E1, Mat2, ShearFrame, Vec2


def rand_sl2(rng, beta_lo=0.3, beta_hi=1.5, gamma_lo=-3.0, gamma_hi=3.0) -> Mat2:
    """Random volume-preserving matrix R(rho) (beta e1 | 1/beta e2 + gamma e1)."""
    rho = rng.uniform(0.0, 2.0 * math.pi)
    beta = rng.uniform(beta_lo, beta_hi)
    gamma = rng.uniform(gamma_lo, gamma_hi)
    return ShearFrame(rho, beta, gamma, E1).reconstruct()


def rand_sl2_batch(rng, n, beta_lo=0.3, beta_hi=1.5, gamma_lo=-3.0, gamma_hi=3.0) -> np.ndarray:
    """(n, 2, 2) array of random SL(2) matrices, same law as ``rand_sl2``."""
    rho = rng.uniform(0.0, 2.0 * math.pi, n)
    beta = rng.uniform(beta_lo, beta_hi, n)
    gamma = rng.uniform(gamma_lo, gamma_hi, n)
    c, s = np.cos(rho), np.sin(rho)
    out = np.empty((n, 2, 2))
    # R(rho) @ [[beta, gamma], [0, 1/beta]]
    out[:, 0, 0] = c * beta
    out[:, 0, 1] = c * gamma - s / beta
    out[:, 1, 0] = s * beta
    out[:, 1, 1] = s * gamma + c / beta
    return out


def rotations_batch(rng, n) -> np.ndarray:
    rho = rng.uniform(0.0, 2.0 * math.pi, n)
    c, s = np.cos(rho), np.sin(rho)
    out = np.empty((n, 2, 2))
    out[:, 0, 0] = c
    out[:, 0, 1] = -s
    out[:, 1, 0] = s
    out[:, 1, 1] = c
    return out


def rand_unit(rng) -> Vec2:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return Vec2(math.cos(t), math.sin(t))


def mat_of(row: np.ndarray) -> Mat2:
    return Mat2(float(row[0, 0]), float(row[0, 1]), float(row[1, 0]), float(row[1, 1]))


def brute_force_taylor(F: Mat2, thetas, tol=1e-9) -> bool:
    """All-orientations intersection test, straight from the definition."""
    if abs(F.det() - 1) > tol:
        return False
    for theta in thetas:
        v = F @ Vec2(math.cos(theta), math.sin(theta))
        if v.norm() > 1.0 + tol:
            return False
    return True


def brute_force_taylor_batch(F: np.ndarray, thetas, tol=1e-9) -> np.ndarray:
    """Vectorized all-orientations intersection over an (n, 2, 2) array."""
    dets = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
    ok = np.abs(dets - 1.0) <= tol
    for theta in thetas:
        cx, sx = math.cos(theta), math.sin(theta)
        vx = F[:, 0, 0] * cx + F[:, 0, 1] * sx
        vy = F[:, 1, 0] * cx + F[:, 1, 1] * sx
        ok &= np.hypot(vx, vy) <= 1.0 + tol
    return ok


def scan_trivial(thetas) -> bool:
    """Direct consecutive-pair scan for a trivial bound (test-local copy)."""
    half = math.pi / 2
    ts = sorted(thetas)
    for i in range(len(ts) - 1):
        if ts[i] <= half <= ts[i + 1] and ts[i + 1] - ts[i] <= half:
            return True
    return False


def connector_search(F: Mat2, s: Vec2, nu: Vec2, tol: float = DEFAULT_TOL, span: float = 1.0):
    """Brute-force rank-one connector, independent of the closed form.

    The volume constraint det(F + a(x)nu) = 1 confines a to the line
    t * w with w = perp(adj(F)^T nu).  Golden-section minimization of the
    stretched-norm objective |(F + t w(x)nu) s|^2 along that line decides
    feasibility; a root bracket then produces an explicit witness with
    |target s| = 1.  Returns the jump vector a, or None.
    """
    w = (F.adjugate().transpose() @ nu).perp()
    sn = s.dot(nu)
    fs = F @ s

    def stretch2(t: float) -> float:
        g = fs + w * (t * sn)
        return float(g.norm2())

    if abs(sn) <= tol:
        # a(x)nu cannot change Fs; feasible iff F already qualifies.
        return Vec2(0.0, 0.0) if fs.norm2() <= (1 + tol) ** 2 else None
    xa, xb, xc = _downhill_bracket(stretch2, xa=0.0, xb=1.0)[:3]
    res = minimize_scalar(stretch2, bracket=(xa, xb, xc), method="golden",
                          options={"xtol": 1e-13})
    t_star, h_min = float(res.x), float(res.fun)
    if h_min > (1.0 + tol) ** 2:
        return None
    if abs(h_min - 1.0) <= tol:
        return w * t_star  # vertex already on the set
    hi = max(abs(t_star), span)
    for _ in range(200):
        if stretch2(t_star + hi) > 1.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("stretched norm failed to grow along the jump line")
    t0 = brentq(lambda t: stretch2(t) - 1.0, t_star, t_star + hi, xtol=1e-14)
    return w * t0


def brute_force_boundary_analysis(pc, angular_tol: float = ANGULAR_TOL) -> BoundaryAnalysis:
    """All-pairs boundary classification: every endpoint against every other.

    Quadratic in the number of boundary curves; ``analyze_boundary`` must
    return an identical ``BoundaryAnalysis`` (point order included).
    """
    outer = {}
    for g in pc.grains:
        curves = _outer_curves_of(pc, g)
        if curves:
            outer[g.id] = curves
    boundary_grains = tuple(sorted(outer))

    endpoints = []
    for gid, curves in outer.items():
        for c in curves:
            endpoints.append((c.start, gid))
            endpoints.append((c.end, gid))
    dual = []
    for p, gid in endpoints:
        if any(_near(p, q) for q in dual):
            continue
        owners = {h for q, h in endpoints if _near(p, q)}
        if len(owners) >= 2:
            dual.append(p)

    perp = []
    for gid in boundary_grains:
        s = next(g for g in pc.grains if g.id == gid).slip()
        s_angle = math.atan2(float(s.y), float(s.x))
        for c in outer[gid]:
            if isinstance(c, Segment):
                if abs(float(c.normal_at(0.5).dot(s))) <= angular_tol:
                    mid = c.point_at(0.5)
                    if not any(_near(mid, q) for q in dual):
                        perp.append((mid, gid))
            else:
                for t in (s_angle + math.pi / 2, s_angle - math.pi / 2):
                    if c.covers_angle(t, angular_tol):
                        pt = c.center + Vec2(math.cos(t), math.sin(t)) * c.radius
                        if not any(_near(pt, q) for q in dual):
                            if not any(gid == h and _near(pt, q) for q, h in perp):
                                perp.append((pt, gid))

    return BoundaryAnalysis(
        boundary_grains=boundary_grains, dual_points=tuple(dual), perp_points=tuple(perp),
        J=frozenset(gid for _, gid in perp),
        J_prime=frozenset(gid for gid in boundary_grains
                          if _normals_cover_circle(outer[gid], angular_tol)),
        outer_curves=outer)
