"""Independent correctness oracles.

Each oracle evaluates a definition directly instead of reusing the
library's reductions: Taylor membership is an all-orientation
intersection, compatibility is the minimum of the stretched norm along
the volume-preserving jump line, lambda-plot cells are counted from the
strain-set inequality.  Inputs within ``AMBIGUOUS`` of a decision
boundary accept either answer, because the library's tolerance is
measured in other coordinates than the oracle's.

Every check returns an error string, or ``None`` when the output is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

#: Oracle margins this close to 0 accept either decision.
AMBIGUOUS = 1e-7

HALF_PI = math.pi / 2


# -- inputs -----------------------------------------------------------------

def sl2_batch(rng, n, beta=(0.3, 1.5), gamma=(-3.0, 3.0)) -> np.ndarray:
    """(n, 2, 2) matrices R(rho) @ [[b, g], [0, 1/b]] with uniform rho, b, g."""
    rho = rng.uniform(0.0, 2.0 * math.pi, n)
    b = rng.uniform(beta[0], beta[1], n)
    g = rng.uniform(gamma[0], gamma[1], n)
    c, s = np.cos(rho), np.sin(rho)
    out = np.empty((n, 2, 2))
    out[:, 0, 0] = c * b
    out[:, 0, 1] = c * g - s / b
    out[:, 1, 0] = s * b
    out[:, 1, 1] = s * g + c / b
    return out


def rotation_batch(rng, n) -> np.ndarray:
    return sl2_batch(rng, n, beta=(1.0, 1.0), gamma=(0.0, 0.0))


def mixed_batch(rng, n) -> np.ndarray:
    """A quarter rotations, a quarter near identity, half spread over SL(2)."""
    q = n // 4
    parts = [rotation_batch(rng, q),
             sl2_batch(rng, q, beta=(0.9, 1.05), gamma=(-0.2, 0.2)),
             sl2_batch(rng, n - 2 * q)]
    out = np.concatenate(parts)
    return out[rng.permutation(n)]


def normalized_thetas(raw) -> list[float]:
    """Angles mod pi, sorted, shifted so the smallest is 0 (duplicates kept)."""
    red = sorted(float(a) % math.pi for a in raw)
    return [t - red[0] for t in red]


# -- Taylor bound -------------------------------------------------------------

def taylor_margin(F: np.ndarray, thetas) -> np.ndarray:
    """Signed slack of the all-angle intersection for an (n, 2, 2) batch.

    Positive means every |F s(theta)| is below 1; the determinant of
    generated inputs is 1 to roundoff, so only the stretch is tested.
    """
    worst = np.full(F.shape[0], -np.inf)
    th = np.asarray(list(thetas), dtype=float)
    for chunk in np.array_split(th, max(1, th.size // 256)):
        c, s = np.cos(chunk), np.sin(chunk)
        vx = F[:, 0, 0, None] * c + F[:, 0, 1, None] * s
        vy = F[:, 1, 0, None] * c + F[:, 1, 1, None] * s
        worst = np.maximum(worst, np.max(vx * vx + vy * vy, axis=1))
    return 1.0 - worst


def check_taylor(member, F: np.ndarray, thetas):
    """``member`` (bool array) agrees with the all-angle intersection."""
    margin = taylor_margin(F, thetas)
    member = np.asarray(member, dtype=bool)
    wrong = (member != (margin >= 0.0)) & (np.abs(margin) > AMBIGUOUS)
    if np.any(wrong):
        i = int(np.argmax(wrong))
        return f"taylor membership row {i}: got {bool(member[i])}, margin {margin[i]:.3g}"
    return None


def trivial_scan(thetas) -> bool:
    """Some consecutive pair (pi closing the fan) straddles pi/2 within pi/2."""
    ts = sorted(thetas)
    return any(a <= HALF_PI <= b and b - a <= HALF_PI for a, b in zip(ts, ts[1:]))


def check_mc(k: int, n: int, estimate: float):
    """Estimate within 5 binomial standard errors of 1 - (k+1)/2^k."""
    p = 1.0 - (k + 1) * math.ldexp(1.0, -k)
    se = math.sqrt(p * (1.0 - p) / n)
    if abs(estimate - p) > 5.0 * se + 1e-12:
        return f"mc k={k} n={n}: estimate {estimate} vs {p} (5 se = {5 * se:.3g})"
    return None


def lambda_cells(theta: float, grid: int, gmax: float, bmax: float = 1.05):
    """Definite-in and ambiguous cell counts of one lambda-plot raster.

    A cell center (beta, gamma) is in the region iff
    F = [[beta, gamma], [0, 1/beta]] has |F e1| <= 1 and |F s(theta)| <= 1.
    """
    beta = (np.arange(grid) + 0.5) * (bmax / grid)
    gam = -gmax + (np.arange(grid) + 0.5) * (2.0 * gmax / grid)
    b, g = beta[:, None], gam[None, :]
    c, s = math.cos(theta), math.sin(theta)
    stretch = (b * c + g * s) ** 2 + (s / b) ** 2
    margin = np.minimum(1.0 - stretch, 1.0 - b * b)
    return int(np.sum(margin > AMBIGUOUS)), int(np.sum(np.abs(margin) <= AMBIGUOUS))


def check_lambda_plot(thetas, grid: int, cells_filled, gmax: float):
    for theta, got in zip(thetas, cells_filled):
        sure, unsure = lambda_cells(theta, grid, gmax)
        if not sure <= got <= sure + unsure:
            return f"lambda-plot theta={theta}: {got} cells, oracle {sure}+{unsure}"
    if len(cells_filled) != len(thetas):
        return "lambda-plot: one cell count per angle expected"
    return None


def lambda_gmax(thetas) -> float:
    """Shear extent of the raster: 1.1 times the widest full-stretch edge."""
    g = max(2.0 * abs(math.cos(t) / math.sin(t)) for t in thetas)
    return min(max(g * 1.1, 0.5), 8.0)


# -- compatibility ----------------------------------------------------------

def jump_line_margin(F, s, nu) -> float:
    """1 - min_t |(F + t w(x)nu) s|^2, w spanning the volume-preserving jumps.

    det(F + a(x)nu) = 1 forces a = t w with w = perp(adj(F)^T nu); the
    stretch along s is a quadratic in t whose minimum decides whether some
    rank-one connection lands in the relaxed set of s.
    """
    (a11, a12), (a21, a22) = F
    sx, sy = s
    nx, ny = nu
    # adj(F)^T nu, then its perpendicular
    ax, ay = a22 * nx - a21 * ny, -a12 * nx + a11 * ny
    wx, wy = -ay, ax
    fx, fy = a11 * sx + a12 * sy, a21 * sx + a22 * sy
    sn = sx * nx + sy * ny
    f2 = fx * fx + fy * fy
    if abs(sn) < 1e-12:
        return 1.0 - f2
    w2 = wx * wx + wy * wy
    proj = (fx * wx + fy * wy) ** 2 / w2
    return 1.0 - (f2 - proj)


def check_connection(F, s, nu, compatible: bool, conn):
    """Decision matches the jump-line oracle; the witness is a true connection.

    ``F`` is a row list, ``conn`` is ``None`` or ``(a, target)`` as float
    lists.  A witness must satisfy target - F = a(x)nu (so it annihilates
    perp(nu)), det target = 1 and, when s.nu != 0, |target s| = 1.
    """
    margin = jump_line_margin(F, s, nu)
    if abs(margin) > AMBIGUOUS and compatible != (margin >= 0.0):
        return f"compat decision {compatible}, oracle margin {margin:.3g}"
    if (conn is None) == compatible:
        return f"compat: witness {'missing' if compatible else 'present'} for decision {compatible}"
    if conn is None:
        return None
    a, t = conn
    scale = max(1.0, max(abs(x) for row in t for x in row))
    tol = 1e-8 * scale * scale
    d = [[t[i][j] - F[i][j] for j in range(2)] for i in range(2)]
    if any(abs(d[i][j] - a[i] * nu[j]) > tol for i in range(2) for j in range(2)):
        return "compat: target - F differs from a(x)nu"
    px, py = -nu[1], nu[0]
    if abs(d[0][0] * px + d[0][1] * py) > tol or abs(d[1][0] * px + d[1][1] * py) > tol:
        return "compat: target - F is not rank one across nu"
    if abs(t[0][0] * t[1][1] - t[0][1] * t[1][0] - 1.0) > tol:
        return "compat: det target != 1"
    ts = math.hypot(t[0][0] * s[0] + t[0][1] * s[1], t[1][0] * s[0] + t[1][1] * s[1])
    if abs(s[0] * nu[0] + s[1] * nu[1]) > 1e-9:
        if abs(ts - 1.0) > tol:
            return f"compat: |target s| = {ts!r}, expected 1"
    elif ts > 1.0 + tol:
        return f"compat: |target s| = {ts!r} above 1 at a perpendicular normal"
    return None


def check_laminate(F, s, s2, lam, f_plus, f_minus):
    """F = lam F+ + (1 - lam) F-, rank-one jump, each end in N(s) or N(s2)."""
    scale = max(1.0, max(abs(x) for m in (F, f_plus, f_minus) for row in m for x in row))
    tol = 1e-7 * scale * scale
    if not -1e-12 <= lam <= 1.0 + 1e-12:
        return f"laminate: lambda {lam} outside [0, 1]"
    for i in range(2):
        for j in range(2):
            if abs(lam * f_plus[i][j] + (1 - lam) * f_minus[i][j] - F[i][j]) > tol:
                return "laminate: average differs from F"
    d = [[f_plus[i][j] - f_minus[i][j] for j in range(2)] for i in range(2)]
    if abs(d[0][0] * d[1][1] - d[0][1] * d[1][0]) > tol:
        return "laminate: jump is not rank one"
    for m in (f_plus, f_minus):
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0] - 1.0) > tol:
            return "laminate: endpoint det != 1"
        norms = [math.hypot(m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])
                 for v in (s, s2)]
        if min(norms) > 1.0 + tol:
            return f"laminate: endpoint outside both relaxed sets ({min(norms)!r})"
    return None


# -- exact construction -----------------------------------------------------

def boundary_strain(gamma, rot=None):
    """R @ (1/5)[[3g + 4, 4g - 3], [3, 4]] as nested rows, exact for Fractions."""
    one = 1.0 if isinstance(gamma, float) else Fraction(1)
    f = [[(3 * gamma + 4) * one / 5, (4 * gamma - 3) * one / 5],
         [3 * one / 5, 4 * one / 5]]
    if rot is None:
        return f
    return [[sum(rot[i][k] * f[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def pythagorean(a: int, b: int, c: int, inverse: bool = False):
    """Rotation (a/c, -b/c; b/c, a/c), or its transpose."""
    cs, sn = Fraction(a, c), Fraction(b, c)
    if inverse:
        sn = -sn
    return [[cs, -sn], [sn, cs]]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


# -- CLI --------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def strict_json(text: str):
    """Parse stdout as strict JSON: no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)
