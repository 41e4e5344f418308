"""Rank-one compatibility across interfaces and laminate splitting.

A matrix A is nu-compatible with a target set B when some rank-one
perturbation a(x)nu lands A + a(x)nu inside B; equivalently A and the
target agree on the interface direction perp(nu).  For the relaxed set of
a slip direction s this holds exactly when

    |A perp(nu)|^2  >=  (1 - tol) (s.nu)^2,

the image of the interface against the slip's share of the normal; a
normal perpendicular to s reduces it to plain relaxed-set membership.
``_clears`` is the one home of that inequality: ``nu_compatible``,
``find_connection``, ``geometry.compatible_with_normals`` and
``geometry.outer_bound_full_member`` all decide through it, with no angle
and no shear-frame decomposition.

``laminate_split`` writes any volume-preserving strain as a convex
combination of two rank-one connected strains, each inside the union of
the relaxed sets of two independent slip directions, in closed form; slips
that are parallel, or too close to split in floats, raise ``ParallelSlips``.
"""

from __future__ import annotations

import math

from .errors import DomainError, ParallelSlips
from .mat2 import DEFAULT_TOL, Mat2, Value, Vec2, norm2_at_most_one, norm2_is_one, require_sl2
from .slip import image_norm2, in_N


class RankOneConnection(Value):
    """Immutable-by-contract witness of compatibility: target = A + a(x)nu is in the target set."""

    __slots__ = _fields = ("a", "nu", "target")

    def __init__(self, a: Vec2, nu: Vec2, target: Mat2):
        self.a = a
        self.nu = nu
        self.target = target


class LaminateSplit(Value):
    """F = lam * F_plus + (1 - lam) * F_minus with rank(F_plus - F_minus) <= 1.

    ``t_plus`` and ``t_minus`` are the parameters of the two endpoints on
    the rank-one line through F (t = 0).  Immutable by contract.
    """

    __slots__ = _fields = ("F_plus", "F_minus", "lam", "t_plus", "t_minus")

    def __init__(self, F_plus: Mat2, F_minus: Mat2, lam: float, t_plus: float, t_minus: float):
        self.F_plus = F_plus
        self.F_minus = F_minus
        self.lam = lam
        self.t_plus = t_plus
        self.t_minus = t_minus


def _clears(v2, sn2, tol):
    """v2 >= (1 - tol) sn2, elementwise on arrays: the rank-one inequality, False for NaN.

    With v2 = |F nu_perp|^2 and sn2 = (s.nu)^2 this is compatibility of F
    with the relaxed set of s across nu.  It is homogeneous of degree 2 in
    nu, so nu may be any nonzero vector (a boundary segment's edge vector e
    stands for its normal: v2 = |Fe|^2, sn2 = (s x e)^2), and exact on
    ``Fraction``s.  Each side is a sum of nonnegative terms, so a float
    evaluation errs only within roundoff of the edge, at any scale.
    """
    return v2 >= (1 - tol) * sn2


def nu_compatible(F: Mat2, s: Vec2, nu: Vec2, tol: float = DEFAULT_TOL) -> bool:
    """Rank-one compatibility of F with the relaxed strain set of s across nu.

    ``s`` and ``nu`` must be unit vectors; F must be volume preserving.
    The perpendicular case |s.nu| <= tol degenerates to set membership.
    """
    require_sl2(F, tol)
    sn = s.dot(nu)
    if abs(sn) <= tol:
        return norm2_at_most_one(image_norm2(F, s), tol)
    return _clears((F @ nu.perp()).norm2(), sn * sn, tol)


def find_connection(F: Mat2, s: Vec2, nu: Vec2, tol: float = DEFAULT_TOL):
    """Construct a rank-one connection from F into the strain set of s.

    Returns a ``RankOneConnection`` whose target satisfies |target s| = 1
    (exact membership, not just the relaxed set) whenever s.nu != 0, or
    ``None`` exactly when ``nu_compatible`` is False.  Raises ``DomainError``
    where F is too large for the construction in floats, rather than
    return a connection with NaN entries.
    """
    if not nu_compatible(F, s, nu, tol):
        return None
    sn = s.dot(nu)
    # nu_compatible checked det F = 1, so |Fs| = 1 alone puts F in the strain set of s
    if abs(sn) <= tol or norm2_is_one(image_norm2(F, s), tol):
        return RankOneConnection(a=Vec2(0.0, 0.0), nu=nu, target=F)
    # The target G agrees with F on nu_perp, G nu_perp = v, and has det G = 1
    # and |Gs| = 1.  With s = sn nu + (s.nu_perp) nu_perp, u = Gs is then the
    # unit vector with u x v = sn; |v|^2 >= sn^2 (compatibility) makes it real.
    v = F @ nu.perp()
    v2 = v.norm2()
    n2 = v2 / (sn * sn)  # the squared interface image per unit of s.nu
    if not n2 < math.inf:
        raise DomainError(f"|n|^2 = {n2!r} leaves the float range")
    t = math.copysign(math.sqrt(max(v2 - sn * sn, 0.0)), sn)
    u = (v.perp() * -sn + v * t) * (1.0 / v2)
    a = (u - v * s.dot(nu.perp())) * (1.0 / sn) - F @ nu
    return RankOneConnection(a=a, nu=nu, target=F + Mat2.outer(a, nu))


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
    s x s' = 0, or when the quadratic's leading coefficient underflows, and
    ``DomainError`` when an endpoint leaves the float range.
    """
    require_sl2(F, tol)
    if s.cross(s_prime) == 0.0:
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
    if not all(map(math.isfinite, f_plus._key() + f_minus._key())):
        raise DomainError("laminate endpoints leave the float range")
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
