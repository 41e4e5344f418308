"""Single-slip strain sets: membership, condensed energy, parametrization.

For a unit slip direction ``s`` the attainable microscopic strains are
``{F : det F = 1, |Fs| = 1}``; their relaxation replaces the norm
constraint by ``|Fs| <= 1``.  Both sets are closed, so membership here is
tolerance-closed as well.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .mat2 import DEFAULT_TOL, Mat2, Vec2, is_sl2, norm2_at_most_one, norm2_is_one

INFINITY = math.inf


def slip_direction(theta: float) -> Vec2:
    """Unit slip direction of a grain rotated by theta."""
    return Vec2(math.cos(theta), math.sin(theta))


def image_norm2(F: Mat2, s: Vec2):
    """|Fs|^2 with the operations of ``(F @ s).norm2()``, bit for bit, building no Vec2."""
    x = F.a11 * s.x + F.a12 * s.y
    y = F.a21 * s.x + F.a22 * s.y
    return x * x + y * y


def in_M(F: Mat2, s: Vec2, tol: float = DEFAULT_TOL) -> bool:
    """True iff det F = 1 and |Fs| = 1, within tol.

    Exact for tol=0 only when F and s both have exact (int or ``Fraction``)
    entries; ``mat2.E1`` and ``E2`` are floats, so pass ``Vec2(1, 0)`` or
    ``Vec2(0, 1)`` for an exact test.
    """
    return is_sl2(F, tol) and norm2_is_one(image_norm2(F, s), tol)


def in_N(F: Mat2, s: Vec2, tol: float = DEFAULT_TOL) -> bool:
    """True iff det F = 1 within tol and |Fs| <= 1 + tol.

    Exact for tol=0 only when F and s both have exact entries, as for ``in_M``.
    """
    return is_sl2(F, tol) and norm2_at_most_one(image_norm2(F, s), tol)


def energy(F: Mat2, s: Vec2, p: float, tol: float = DEFAULT_TOL):
    """Condensed single-slip energy (|F m|^2 - 1)^(p/2), m = perp(s).

    Finite exactly on the strain set of ``s``; returns ``math.inf``
    otherwise (infinity is a value here, not an error).  Equals
    |gamma|^p for the shear amount of ``decompose(F, s)``.  Stays exact
    for rational inputs when p is an even integer.
    """
    if not p >= 1:  # NaN too
        raise DomainError(f"p = {p!r} must be >= 1")
    if not in_M(F, s, tol):
        return INFINITY
    w = image_norm2(F, s.perp()) - 1
    if isinstance(p, int) and p % 2 == 0 and not isinstance(w, float):
        return w ** (p // 2)
    return max(float(w), 0.0) ** (p / 2)


def psi(beta, gamma) -> Mat2:
    """Canonical relaxed strain (beta e1 | (1/beta) e2 + gamma e1).

    Injective on (0, 1] x R; lands in the relaxed set of e1, and in
    SO(2) exactly for (beta, gamma) = (1, 0).
    """
    if not 0 < beta <= 1:
        raise DomainError(f"beta = {beta!r} outside (0, 1]")
    if not -INFINITY < gamma < INFINITY:
        raise DomainError(f"gamma = {gamma!r} is not finite")
    return Mat2(beta, gamma, 0, 1 / beta)

