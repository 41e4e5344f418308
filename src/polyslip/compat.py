"""Rank-one compatibility across interfaces and laminate splitting.

A matrix A is nu-compatible with a target set B when some rank-one
perturbation a(x)nu lands A + a(x)nu inside B; equivalently A and the
target agree on the interface direction perp(nu).  For the single-slip
sets this reduces, in shear-frame coordinates (beta, gamma) of A relative
to the slip direction s, to

    ((s.nu_perp / s.nu) * beta + gamma)^2 + 1/beta^2  >=  1

when s.nu != 0, and to plain relaxed-set membership when nu = perp(s).
``_compatible`` is the one home of this inequality, for ``_decide`` (the
one decision, with one ``decompose``, that ``nu_compatible`` and
``find_connection`` share) and ``geometry.compatible_with_normals``.  Solved
for the normal, it fails exactly on one open window of normal angles mod pi
(``_forbidden_window``), which lets ``geometry.outer_bound_full_member``
decide compatibility along whole boundary curves at once.

``laminate_split`` writes any volume-preserving strain as a convex
combination of two rank-one connected strains, each inside the union of
the relaxed sets of two independent slip directions, in closed form; slips
too close to split in floating point raise ``ParallelSlips``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParallelSlips
from .mat2 import DEFAULT_TOL, Mat2, Vec2, decompose, require_sl2
from .slip import in_M, in_N


@dataclass(frozen=True, slots=True)
class RankOneConnection:
    """Witness of compatibility: target = A + a(x)nu lies in the target set."""

    a: Vec2
    nu: Vec2
    target: Mat2


@dataclass(frozen=True, slots=True)
class LaminateSplit:
    """F = lam * F_plus + (1 - lam) * F_minus with rank(F_plus - F_minus) <= 1.

    ``t_plus`` and ``t_minus`` are the parameters of the two endpoints on
    the rank-one line through F (t = 0).
    """

    F_plus: Mat2
    F_minus: Mat2
    lam: float
    t_plus: float
    t_minus: float


def _compatible(c, beta, gamma, tol):
    """The inequality above with c = s.nu_perp / s.nu, elementwise if c is an array."""
    return (c * beta + gamma) ** 2 + 1.0 / beta**2 >= 1.0 - tol


def _forbidden_window(beta: float, gamma: float, tol: float):
    """Open angle window of the normals where ``_compatible`` fails, or None.

    With psi the angle from s to nu, c = -tan(psi), so the inequality fails
    exactly when |c beta + gamma| < w, w = sqrt(1 - tol - 1/beta^2) real and
    positive, i.e. when tan(psi) lies in ((gamma - w)/beta, (gamma + w)/beta).
    Returns that interval of psi mod pi as ``(lo, hi)`` inside (-pi/2, pi/2);
    it depends only on the line of nu.  Perpendicular normals (psi = pi/2)
    are never inside: they reduce to set membership, beta <= 1 + tol.
    """
    w2 = 1.0 - tol - 1.0 / beta**2
    if not w2 > 0.0:
        return None
    w = math.sqrt(w2)
    return math.atan((gamma - w) / beta), math.atan((gamma + w) / beta)


def _decide(F: Mat2, s: Vec2, nu: Vec2, tol: float):
    """``(compatible, frame, c)``, with ``frame = decompose(F, s, tol)`` and
    c = s.nu_perp / s.nu, both None in the perpendicular case |s.nu| <= tol."""
    sn = s.dot(nu)
    if abs(sn) <= tol:
        require_sl2(F, tol)
        return in_N(F, s, tol), None, None
    frame = decompose(F, s, tol)
    c = s.dot(nu.perp()) / sn
    return _compatible(c, frame.beta, frame.gamma, tol), frame, c


def nu_compatible(F: Mat2, s: Vec2, nu: Vec2, tol: float = DEFAULT_TOL) -> bool:
    """Rank-one compatibility of F with the relaxed strain set of s across nu.

    ``s`` and ``nu`` must be unit vectors; F must be volume preserving.
    The perpendicular case |s.nu| <= tol degenerates to set membership.
    """
    return _decide(F, s, nu, tol)[0]


def find_connection(F: Mat2, s: Vec2, nu: Vec2, tol: float = DEFAULT_TOL):
    """Construct a rank-one connection from F into the strain set of s.

    Returns a ``RankOneConnection`` whose target satisfies |target s| = 1
    (exact membership, not just the relaxed set) whenever s.nu != 0, or
    ``None`` exactly when ``nu_compatible`` is False.
    """
    compatible, frame, c = _decide(F, s, nu, tol)
    if not compatible:
        return None
    if frame is None or in_M(F, s, tol):
        return RankOneConnection(a=Vec2(0.0, 0.0), nu=nu, target=F)
    beta, gamma = frame.beta, frame.gamma
    # Solve xi . n = 1 on the unit circle, n the interface image of F in
    # the (s, perp(s)) frame; |n| >= 1 guarantees a solution.
    n = s * (c * beta + gamma) + s.perp() * (1.0 / beta)
    nn = max(float(n.norm2()), 1.0)
    w = math.sqrt(1.0 - 1.0 / nn)
    xi = n * (1.0 / nn) + n.perp() * (w / math.sqrt(nn))
    # The rotation taking perp(s) to xi maps s to -perp(xi).
    rbar_s = -xi.perp()
    gamma_bar = n.dot(rbar_s) - c
    rbar = Mat2.outer(rbar_s, s) + Mat2.outer(xi, s.perp())
    gbar = rbar @ (Mat2.identity() + Mat2.outer(s, s.perp()) * gamma_bar)
    target = Mat2.rotation(frame.rho) @ gbar
    a = (target - F) @ nu
    # Re-anchor so target - F = a(x)nu holds exactly, not just to roundoff.
    target = F + Mat2.outer(a, nu)
    return RankOneConnection(a=a, nu=nu, target=target)


def laminate_split(F: Mat2, s: Vec2, s_prime: Vec2, tol: float = DEFAULT_TOL) -> LaminateSplit:
    """Split F into rank-one connected strains inside two slip-set unions.

    Walks the rank-one line F_t = F(Id + t a(x)b), with {a, b} the
    orthogonal pair {s + s', s - s'} ordered so that |Fb| < |Fa|; then
    |F_t a| is constant while |F_t b| grows quadratically, so the norm
    gap has one root on each side of t = 0.  At the roots the images of
    s and s' are orthogonal, which forces the shorter one below 1.  If the
    roundoff in a.b moves det F_t = 1 + t a.b by more than tol, b is
    projected on perp(a) and the roots solved again.

    Returns the trivial split (lam = 1, both factors F) when F already
    lies in either relaxed set, and when Fs . Fs' vanishes within tol
    (possible only alongside membership).  Raises ``ParallelSlips`` when
    |s x s'| <= tol, or when the quadratic's leading coefficient underflows.
    """
    require_sl2(F, tol)
    if abs(s.cross(s_prime)) <= tol:
        raise ParallelSlips("slip directions coincide up to sign")
    d = (F @ s).dot(F @ s_prime)
    if in_N(F, s, tol) or in_N(F, s_prime, tol) or abs(d) <= tol:
        return LaminateSplit(F_plus=F, F_minus=F, lam=1.0, t_plus=0.0, t_minus=0.0)
    u, w = s + s_prime, s - s_prime
    a, b = (w, u) if d < 0 else (u, w)
    t_plus, t_minus = _rank_one_roots(F, a, b)
    if max(t_plus, -t_minus) * abs(a.dot(b)) > tol:  # det F_t = 1 + t a.b
        p = a.perp()
        b = p * (b.dot(p) / a.norm2())
        t_plus, t_minus = _rank_one_roots(F, a, b)
    dyad = Mat2.outer(a, b)
    f_plus = F @ (Mat2.identity() + dyad * t_plus)
    f_minus = F @ (Mat2.identity() + dyad * t_minus)
    lam = -t_minus / (t_plus - t_minus)
    return LaminateSplit(F_plus=f_plus, F_minus=f_minus, lam=lam,
                         t_plus=t_plus, t_minus=t_minus)


def _rank_one_roots(F: Mat2, a: Vec2, b: Vec2) -> tuple[float, float]:
    """The roots t+ > 0 > t- of |F_t b| = |F_t a| on F_t = F(Id + t a(x)b)."""
    fa, fb = F @ a, F @ b
    # a power-of-two rescale keeps every bit and the squares below finite
    k = math.ldexp(1.0, -math.frexp(max(abs(fa.x), abs(fa.y)))[1])
    fa, fb = fa * k, fb * k
    b2 = float(b.norm2())
    # k^2 (|F_t b|^2 - |F_t a|^2) = q2 t^2 + q1 t + q0 with q0 < 0 < q2
    q2 = b2 * b2 * float(fa.norm2())
    q1 = 2.0 * b2 * float(fa.dot(fb))
    q0 = float(fb.norm2() - fa.norm2())
    if not q2 > 0.0:
        raise ParallelSlips("slip directions too close to split in floating point")
    root = math.sqrt(q1 * q1 - 4.0 * q2 * q0)
    return (-q1 + root) / (2.0 * q2), (-q1 - root) / (2.0 * q2)
