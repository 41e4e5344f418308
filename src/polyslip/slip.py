"""Single-slip strain sets: membership, condensed energy, parametrization.

For a unit slip direction ``s`` the attainable microscopic strains are
``{F : det F = 1, |Fs| = 1}``; their relaxation replaces the norm
constraint by ``|Fs| <= 1``.  Both sets are closed, so membership here is
tolerance-closed as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .mat2 import DEFAULT_TOL, Mat2, Vec2, is_sl2

INFINITY = math.inf


@dataclass(frozen=True, slots=True)
class SlipSystem:
    """A slip direction and its glide-plane normal."""

    s: Vec2

    @property
    def m(self) -> Vec2:
        return self.s.perp()


def slip_direction(theta: float) -> Vec2:
    """Unit slip direction of a grain rotated by theta."""
    return Vec2(math.cos(theta), math.sin(theta))


def in_M(F: Mat2, s: Vec2, tol: float = DEFAULT_TOL) -> bool:
    """True iff det F = 1 and |Fs| = 1, within tol. Exact for tol=0."""
    n2 = (F @ s).norm2()
    return is_sl2(F, tol) and (1 - tol) ** 2 <= n2 <= (1 + tol) ** 2


def in_N(F: Mat2, s: Vec2, tol: float = DEFAULT_TOL) -> bool:
    """True iff det F = 1 within tol and |Fs| <= 1 + tol. Exact for tol=0."""
    n2 = (F @ s).norm2()
    return is_sl2(F, tol) and n2 <= (1 + tol) ** 2


def energy(F: Mat2, s: Vec2, p: float, tol: float = DEFAULT_TOL):
    """Condensed single-slip energy (|F m|^2 - 1)^(p/2), m = perp(s).

    Finite exactly on the strain set of ``s``; returns ``math.inf``
    otherwise (infinity is a value here, not an error).  Equals
    |gamma|^p for the shear amount of ``decompose(F, s)``.  Stays exact
    for rational inputs when p is an even integer.
    """
    if p < 1:
        raise DomainError(f"p = {p!r} must be >= 1")
    if not in_M(F, s, tol):
        return INFINITY
    w = (F @ s.perp()).norm2() - 1
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
    return Mat2(beta, gamma, 0, 1 / beta)

