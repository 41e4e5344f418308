"""Rank-one compatibility across interfaces and laminate splitting.

A matrix A is nu-compatible with a target set B when some rank-one
perturbation a(x)nu lands A + a(x)nu inside B; equivalently A and the
target agree on the interface direction perp(nu).  For the single-slip
sets, with (beta, gamma) the shear frame of A along the slip direction s
and psi the angle from s to nu, this holds exactly when psi mod pi lies
outside one open window of normal angles; a normal perpendicular to s
reduces it to plain relaxed-set membership.  ``_forbidden_window`` is the
one home of that window, and ``_window_meets`` the one home of the test
whether it meets a normal or a span of normals.  ``_decide`` (the one
decision, with one ``decompose``, that ``nu_compatible`` and
``find_connection`` share), ``geometry.compatible_with_normals`` and
``geometry.outer_bound_full_member`` all decide through the two.

``laminate_split`` writes any volume-preserving strain as a convex
combination of two rank-one connected strains, each inside the union of
the relaxed sets of two independent slip directions, in closed form; slips
too close to split in floating point raise ``ParallelSlips``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParallelSlips
from .mat2 import DEFAULT_TOL, Mat2, Vec2, decompose, norm2_at_most_one, require_sl2
from .slip import image_norm2, in_M, in_N


@dataclass(slots=True, unsafe_hash=True)
class RankOneConnection:
    """Immutable-by-contract witness of compatibility: target = A + a(x)nu is in the target set."""

    a: Vec2
    nu: Vec2
    target: Mat2


@dataclass(slots=True, unsafe_hash=True)
class LaminateSplit:
    """F = lam * F_plus + (1 - lam) * F_minus with rank(F_plus - F_minus) <= 1.

    ``t_plus`` and ``t_minus`` are the parameters of the two endpoints on
    the rank-one line through F (t = 0).  Immutable by contract.
    """

    F_plus: Mat2
    F_minus: Mat2
    lam: float
    t_plus: float
    t_minus: float


def _forbidden_window(beta: float, gamma: float, tol: float):
    """Open window ``(lo, hi)`` of the normal angles psi where F is not compatible, or None.

    In the shear frame (beta, gamma) of F along s, with psi the angle from
    s to nu and c = s.nu_perp / s.nu = -tan(psi), compatibility is

        (c beta + gamma)^2 + 1/beta^2  >=  1 - tol,

    which fails exactly when |c beta + gamma| < w, w = sqrt(1 - tol - 1/beta^2)
    real and positive, i.e. when tan(psi) lies in ((gamma - w)/beta, (gamma + w)/beta).
    Returns that interval of psi mod pi inside (-pi/2, pi/2); it depends only
    on the line of nu.  A window too narrow to hold a float (huge beta) is
    widened by one float each way, so it holds the angles its edges round to.
    Perpendicular normals (psi = pi/2) are never inside: they reduce to set
    membership, beta <= 1 + tol, tested on |Fs|^2 (``mat2.norm2_at_most_one``).
    """
    w2 = 1.0 - tol - 1.0 / (beta * beta)  # beta * beta overflows to inf where beta**2 raises
    if not w2 > 0.0:
        return None
    w = math.sqrt(w2)
    lo, hi = math.atan((gamma - w) / beta), math.atan((gamma + w) / beta)
    if math.nextafter(lo, hi) >= hi:
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def _window_meets(lo, hi, start, end):
    """The open window (lo, hi) meets the normal angles [start, end] mod pi; elementwise on arrays.

    For a window of ``_forbidden_window`` and start in [-pi/2, pi/2], end -
    start <= 2 pi, only the window's copies at shifts 0 and pi can be met.
    A single normal is the span with end = start.
    """
    return ((start < hi) & (lo < end)) | ((start < hi + math.pi) & (lo + math.pi < end))


def _decide(F: Mat2, s: Vec2, nu: Vec2, tol: float):
    """``(compatible, frame)``, ``frame = decompose(F, s, tol)`` or None in the
    perpendicular case |s.nu| <= tol, which is relaxed-set membership."""
    sn = s.dot(nu)
    if abs(sn) <= tol:
        require_sl2(F, tol)
        return norm2_at_most_one(image_norm2(F, s), tol), None
    frame = decompose(F, s, tol)
    window = _forbidden_window(frame.beta, frame.gamma, tol)
    psi = math.atan(s.cross(nu) / sn)
    return window is None or not _window_meets(*window, psi, psi), frame


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
    ``None`` exactly when ``nu_compatible`` is False.  Raises ``DomainError``
    where F is too large for the construction in floats, rather than
    return a connection with NaN entries.
    """
    compatible, frame = _decide(F, s, nu, tol)
    if not compatible:
        return None
    if frame is None or in_M(F, s, tol):
        return RankOneConnection(a=Vec2(0.0, 0.0), nu=nu, target=F)
    beta, gamma = frame.beta, frame.gamma
    c = s.dot(nu.perp()) / s.dot(nu)
    # Solve xi . n = 1 on the unit circle, n the interface image of F in
    # the (s, perp(s)) frame; |n| >= 1 guarantees a solution.
    n = s * (c * beta + gamma) + s.perp() * (1.0 / beta)
    nn = max(float(n.norm2()), 1.0)
    if not nn < math.inf:
        raise DomainError(f"|n|^2 = {nn!r} leaves the float range")
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
    lam = abs(t_minus) / (t_plus - t_minus)  # +0.0, not -0.0, when t- is 0
    return LaminateSplit(F_plus=f_plus, F_minus=f_minus, lam=lam,
                         t_plus=t_plus, t_minus=t_minus)


def _rank_one_roots(F: Mat2, a: Vec2, b: Vec2) -> tuple[float, float]:
    """The roots t+ >= 0 >= t- of |F_t b| = |F_t a| on F_t = F(Id + t a(x)b)."""
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
    # q0 can round to >= 0, putting both roots on one side; t = 0 is then a root to roundoff
    return max((-q1 + root) / (2.0 * q2), 0.0), min((-q1 - root) / (2.0 * q2), 0.0)
