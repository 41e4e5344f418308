"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately avoid the library's reduction formulas:
they evaluate definitions directly (all-angle intersections, stretched
norms) so agreement is meaningful.  ``connector_search`` decides
compatibility by numerical search with scipy, which is why scipy is a
test dependency only.  ``brute_force_boundary_analysis`` compares every
boundary point with every other, where the library uses grid-cell indexes,
and classifies outer curves by point probes (``probe_outer_curves``), where
the library compares shared lengths.
``sampled_full_member`` tests the full outer bound only at sampled boundary
normals, where the library decides it exactly per curve: every exact member
must pass it, at any density.  ``loop_boundary_samples`` builds the sample
normals one ``normal_at`` call at a time, where the library builds one numpy
block per curve, and ``pairwise_adjacent_equal_textures`` tests every
equal-texture grain pair for adjacency, where the library sweeps bounding boxes.
``exact_compatibility_slack`` writes the rank-one inequality in exact
rationals in shear-frame form, and ``exact_image_slack`` in the
interface-image form that the library evaluates in floats.
``all_angle_taylor_M_member`` scans every angle of a texture, where the
library reads the reduced bound.  ``stretch_edge_batch`` draws matrices
whose stretch |F e1| only its last bits put inside or outside 1 + tol.
``row_scan_trivial`` reduces the straddle test row by row, where the
Monte Carlo kernel scans all rows as one flat array.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import bracket as _downhill_bracket
from scipy.optimize import brentq, minimize_scalar

from polyslip.geometry import (POS_TOL, BoundaryAnalysis, Segment, _grains_adjacent,
                               _normals_cover_circle, _textures_equal, analyze_boundary,
                               boundary_samples, compatible_with_normals)
from polyslip.mat2 import ANGULAR_TOL, DEFAULT_TOL, E1, Mat2, ShearFrame, Vec2, decompose
from polyslip.taylor import _straddles


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


def stretch_edge_batch(rng, n, tol) -> np.ndarray:
    """(n, 2, 2) matrices [[x, -y/n2], [y, x/n2]], n2 = x^2 + y^2, on the stretch edge.

    (x, y) = F e1 has length 1 + tol moved by -8 to 8 ulps, so the last bits
    decide |F e1| <= 1 + tol, and at tol = 0 |F e1| = 1 too; det F is 1 up to
    roundoff.
    """
    edge = 1.0 + tol
    radius = edge + rng.integers(-8, 9, n) * math.ulp(edge)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    x, y = radius * np.cos(phi), radius * np.sin(phi)
    n2 = x * x + y * y
    out = np.empty((n, 2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = x, -y / n2, y, x / n2
    return out


def all_angle_taylor_M_member(F: Mat2, angles, tol: float = DEFAULT_TOL) -> bool:
    """Unrelaxed Taylor membership from its definition, with every angle of the texture.

    The grain at angle 0 is pinned to its unrelaxed set, |F e1| = 1 within tol,
    and every angle theta holds the frame's (beta, gamma) in its relaxed region:
    beta >= sin(theta) - tol, and gamma in [gamma_-, gamma_+] widened by tol,
    gamma_pm = -beta cot(theta) +- sqrt(sin(theta)^-2 - beta^-2) (the root is 0
    for beta <= sin(theta)).  At beta == 1 the interval is [-2 cot(theta), 0]
    below pi/2 and [0, -2 cot(theta)] from pi/2 on.  A trivial texture
    (``scan_trivial``) admits the rotations only, as the paper states: the
    intervals on the two sides of pi/2 meet only at 0.  Without that branch
    a texture holding fl(pi/2) would admit no rotation at tol 0: the angle is
    not below math.pi / 2, yet its cotangent is positive, so [0, -2 cot] is empty.
    """
    frame = decompose(F, E1, tol)
    beta, gamma = frame.beta, frame.gamma
    if not (1 - tol) ** 2 <= (F @ E1).norm2() <= (1 + tol) ** 2:
        return False
    if scan_trivial(angles.thetas):
        return abs(gamma) <= tol
    for theta in angles.thetas[1:]:
        st = math.sin(theta)
        if beta == 1.0:
            edge = -2.0 / math.tan(theta)
            lo, hi = (edge, 0.0) if theta < math.pi / 2 else (0.0, edge)
        elif beta < st - tol:
            return False
        else:
            center = -beta * math.cos(theta) / st
            b = max(beta, st)
            root = math.sqrt(max(0.0, 1.0 / (st * st) - 1.0 / (b * b)))
            lo, hi = center - root, center + root
        if not lo - tol <= gamma <= hi + tol:
            return False
    return True


def scan_trivial(thetas) -> bool:
    """Direct consecutive-pair scan for a trivial bound (test-local copy)."""
    half = math.pi / 2
    ts = sorted(thetas)
    for i in range(len(ts) - 1):
        if ts[i] <= half <= ts[i + 1] and ts[i + 1] - ts[i] <= half:
            return True
    return False


def row_scan_trivial(thetas: np.ndarray) -> np.ndarray:
    """Row-wise Monte Carlo triviality: 0 prepended, each row sorted, its
    consecutive pairs tested and reduced per row by ``any``."""
    n = thetas.shape[0]
    full = np.sort(np.concatenate([np.zeros((n, 1)), thetas], axis=1), axis=1)
    return _straddles(full[:, :-1], full[:, 1:], 0.0).any(axis=1)


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


def exact_compatibility_slack(F: Mat2, s: Vec2, nu: Vec2, tol: float = DEFAULT_TOL):
    """``(slack, scale)`` of the rank-one inequality, exact in ``Fraction``s of the inputs.

    With beta = |Fs|, gamma beta = Fs_perp . Fs (Fs_perp the image of
    perp(s)) and c = s.nu_perp / s.nu, compatibility across nu is
    (c beta + gamma)^2 + 1/beta^2 >= 1 - tol; times beta^2 that reads

        (c |Fs|^2 + Fs_perp . Fs)^2 + 1  >=  (1 - tol) |Fs|^2,

    which needs no sqrt and no shear-frame decomposition.  ``slack`` is its
    left side minus its right side, so F is compatible exactly when
    ``slack >= 0``; ``scale`` is the same sum with |c| and |Fs_perp . Fs|
    in place of c and Fs_perp . Fs, the size that float roundoff in the
    inequality is relative to.  Needs s.nu != 0.
    """
    a11, a12, a21, a22 = (Fraction(v) for v in (F.a11, F.a12, F.a21, F.a22))
    sx, sy, nx, ny = (Fraction(v) for v in (s.x, s.y, nu.x, nu.y))
    fs = (a11 * sx + a12 * sy, a21 * sx + a22 * sy)
    fp = (a11 * -sy + a12 * sx, a21 * -sy + a22 * sx)
    fs2 = fs[0] ** 2 + fs[1] ** 2
    shear = fp[0] * fs[0] + fp[1] * fs[1]
    c = (sx * -ny + sy * nx) / (sx * nx + sy * ny)
    rhs = (1 - Fraction(tol)) * fs2
    slack = (c * fs2 + shear) ** 2 + 1 - rhs
    scale = (abs(c) * fs2 + abs(shear)) ** 2 + 1 + rhs
    return slack, scale


def exact_image_slack(F: Mat2, s: Vec2, nu: Vec2, tol: float = DEFAULT_TOL):
    """``(slack, scale)`` of |F nu_perp|^2 >= (1 - tol)(s.nu)^2, exact in ``Fraction``s.

    F is compatible across nu exactly when ``slack >= 0`` (for s.nu != 0);
    nu need not be a unit vector.  ``scale`` is the sum of the absolute
    values of the terms of ``slack`` expanded into products of the inputs,
    the size that float roundoff in the inequality is relative to.
    """
    a11, a12, a21, a22 = (Fraction(v) for v in (F.a11, F.a12, F.a21, F.a22))
    sx, sy, nx, ny = (Fraction(v) for v in (s.x, s.y, nu.x, nu.y))
    rows = ((a11 * -ny, a12 * nx), (a21 * -ny, a22 * nx))  # the terms of F perp(nu)
    k = 1 - Fraction(tol)
    slack = sum((x + y) ** 2 for x, y in rows) - k * (sx * nx + sy * ny) ** 2
    scale = (sum((abs(x) + abs(y)) ** 2 for x, y in rows)
             + abs(k) * (abs(sx * nx) + abs(sy * ny)) ** 2)
    return slack, scale


def point_on_curve(p: Vec2, c, tol: float = POS_TOL) -> bool:
    """Is p within tol of the curve c (a segment or an arc)?"""
    if isinstance(c, Segment):
        dx, dy = (c.q - c.p).to_floats()
        if dx == dy == 0.0:
            return (p - c.p).norm() <= tol
        # p - c.p and d scaled by one power of two, so neither product overflows
        k = -math.frexp(max(abs(dx), abs(dy)))[1]
        (ex, ey), (fx, fy) = ((math.ldexp(x, k), math.ldexp(y, k))
                              for x, y in ((p - c.p).to_floats(), (dx, dy)))
        u = (ex * fx + ey * fy) / (fx * fx + fy * fy)
        u = min(1.0, max(0.0, u))
        return (p - c.point_at(u)).norm() <= tol
    r = (p - c.center).norm()
    if abs(r - c.radius) > tol:
        return False
    t = math.atan2(float(p.y - c.center.y), float(p.x - c.center.x))
    return c.covers_angle(t, tol / c.radius)


def probe_outer_curves(pc, g, designed: bool = False) -> list:
    """Curves of grain g whose start, midpoint and end all lie on the domain boundary.

    Three point probes per curve.  The library's shared-length rule differs
    from it by design on curves of length <= POS_TOL, and on curves whose
    points lie within POS_TOL of domain curves of another kind only, such
    as a chord whose sagitta is below POS_TOL: the probes keep both.  With
    ``designed`` these are dropped too, by their own definitions.
    """
    out = []
    for c in g.boundary:
        if designed and c.length() <= POS_TOL:
            continue
        domain = [d for d in pc.domain if not designed or type(d) is type(c)]
        probes = (c.start, c.point_at(0.5), c.end)
        if all(any(point_on_curve(p, d) for d in domain) for p in probes):
            out.append(c)
    return out


def _near(p: Vec2, q: Vec2) -> bool:
    """The exact coincidence test of the boundary analysis: |p - q| <= POS_TOL."""
    return (p - q).norm() <= POS_TOL


def brute_force_boundary_analysis(pc, angular_tol: float = ANGULAR_TOL,
                                  designed: bool = False) -> BoundaryAnalysis:
    """All-pairs boundary classification: every endpoint against every other.

    Quadratic in the number of boundary curves.  ``analyze_boundary`` must
    return an identical ``BoundaryAnalysis`` (point order included), with
    ``designed`` wherever a curve meets one of the designed differences of
    ``probe_outer_curves``.
    """
    outer = {}
    for g in pc.grains:
        curves = probe_outer_curves(pc, g, designed)
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


def loop_boundary_samples(pc, n_samples: int = 720, analysis=None) -> dict:
    """gid -> (m, 2) sample normals as ``boundary_samples`` defines them, one sample at a time."""
    if analysis is None:
        analysis = analyze_boundary(pc)
    lengths = {gid: sum(c.length() for c in curves)
               for gid, curves in analysis.outer_curves.items()}
    total = sum(lengths.values())
    normals = {gid: [] for gid in lengths}
    for gid, curves in analysis.outer_curves.items():
        for c in curves:
            m = max(1, round(n_samples * c.length() / total))
            for j in range(m):
                n = c.normal_at((j + 0.5) / m)
                normals[gid].append((float(n.x), float(n.y)))
    for pt, gid in analysis.perp_points:
        s = pc.grain_by_id(gid).slip()
        n = Vec2(-float(s.y), float(s.x))
        normals[gid].append((n.x, n.y))
        normals[gid].append((-n.x, -n.y))
    return {gid: np.asarray(rows, dtype=float) for gid, rows in normals.items()}


def pairwise_adjacent_equal_textures(grains) -> list:
    """Index pairs (i, j), i < j, of adjacent equal-texture grains, testing every pair."""
    return [(i, j) for i in range(len(grains)) for j in range(i + 1, len(grains))
            if _textures_equal(grains[i].theta, grains[j].theta)
            and _grains_adjacent(grains[i], grains[j])]


def sampled_full_member(F: Mat2, pc, n_samples: int = 720, tol: float = DEFAULT_TOL,
                        samples=None) -> bool:
    """The full outer bound tested at ``boundary_samples`` normals only.

    Over-approximates the bound: a matrix can fail between the samples.
    ``samples`` may be passed when testing many matrices.
    """
    if samples is None:
        samples = boundary_samples(pc, n_samples)
    return all(compatible_with_normals(F, pc.grain_by_id(gid).theta, normals, tol)
               for gid, normals in samples.normals.items())


def dense_full_member(F: Mat2, pc, analysis: BoundaryAnalysis, per_curve: int,
                      tol: float = DEFAULT_TOL) -> bool:
    """Sampled full bound at ``per_curve`` midpoint-rule normals on every outer curve.

    Perpendicular points are added as in ``boundary_samples``; each grain's
    normals are built and tested in turn, so memory stays one grain's worth.
    """
    u = (np.arange(per_curve) + 0.5) / per_curve
    for gid, curves in analysis.outer_curves.items():
        rows = []
        for c in curves:
            if isinstance(c, Segment):
                n = c.normal_at(0.5)
                rows.append(np.tile([float(n.x), float(n.y)], (per_curve, 1)))
            else:
                sign = 1.0 if c.ccw else -1.0  # a clockwise arc's outward normals are -radial
                t = c.from_angle + sign * c.sweep() * u
                rows.append(sign * np.column_stack([np.cos(t), np.sin(t)]))
        theta = pc.grain_by_id(gid).theta
        if gid in analysis.J:
            s = (math.cos(theta), math.sin(theta))
            rows.append(np.array([[-s[1], s[0]], [s[1], -s[0]]]))
        if not compatible_with_normals(F, theta, np.vstack(rows), tol):
            return False
    return True


# Sampled members at the default 720 normals that fail between the samples,
# as (chord heights, textures, matrix entries) for ``chord_disk``.  Found by
# drawing, with ``numpy.random.default_rng(1)``, 40 polycrystals
# ``random_chord_disk(rng, rng.integers(3, 9))`` and after each 500 matrices
# ``rand_sl2(rng, 0.9, 1.1, -0.3, 0.3)``: 944 sampled members, of which these
# 4 also fail at 200,001 normals per curve.
_EIGHT_BANDS = (
    [-0.7793335153958048, -0.5491389999346368, -0.3359157494517747, -0.11180346894198834,
     0.09171236595048826, 0.30390994038620034, 0.7889005227086657],
    [0.6459723046978489, 2.150413224524951, 0.7266142231741508, 0.9509472876630929,
     3.068911586750244, 0.43211752769297673, 0.033438088538928934, 0.2932204585087945])
FALSE_SAMPLED_MEMBERS = [
    (*_EIGHT_BANDS,
     [0.8868679090449422, 0.2636307162787967, -0.20830154730839132, 1.0656438284015244]),
    (*_EIGHT_BANDS,
     [0.8846346234491413, 0.30824659148782974, -0.25008410543089565, 1.0432696194020294]),
    ([-0.736486605285825, -0.33481626886539234, -0.10967859193818907, 0.16609927453627976,
      0.41902466069216626, 0.7013308454403002],
     [0.5478628893464428, 0.32453321741780794, 1.7229575963134587, 2.485173937062062,
      2.142906064518354, 0.697728648557236, 1.371456371044602],
     [1.084309631167189, -0.21125796826130083, 0.08266621864805229, 0.9061397910363775]),
    ([-0.488982805234883, -0.20761222791293515, 0.3009203711654982, 0.5067856870383753],
     [1.0271228444219076, 0.42300251261786936, 1.937667838328515, 0.11382953612321955,
      1.3144428626264575],
     [0.21986843873298711, -0.9484817357487638, 1.0432657313312435, 0.047671727511868295]),
]
