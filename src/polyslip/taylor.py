"""Taylor inner bounds for polycrystal textures.

A texture is a finite set of grain orientation angles.  The constant-strain
(Taylor) bound is the intersection of the per-orientation relaxed strain
sets; it collapses to at most three orientations: 0 and the two angles
bracketing pi/2.  In shear-frame coordinates relative to e1 the
intersection is a (beta, gamma) region bounded by the curves

    gamma_pm(theta, beta) = -beta*cot(theta) +- sqrt(sin(theta)^-2 - beta^-2)

for beta in [sin(theta), 1].  All angle sets are normalized to [0, pi)
with first element 0; the applied shift is recorded so callers can rotate
results back.

``_window`` is the one home of gamma_pm and ``_straddles`` the one home
of the triviality test; both run on floats and on numpy arrays.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, EmptyInput, NotSL2
from .mat2 import DEFAULT_TOL, E1, Mat2, decompose, det_is_one, mod_pi

if TYPE_CHECKING:
    import numpy as np

HALF_PI = math.pi / 2

#: gamma_bounds is undefined at theta in {0, pi}; stay this far away.
THETA_MIN = 1e-8

SINGLE_CRYSTAL = "single_crystal"
PAIR = "pair"
TRIPLE = "triple"


@dataclass(frozen=True, slots=True)
class AngleSet:
    """Normalized orientation angles: sorted, distinct, in [0, pi), first 0.

    ``shift`` is the rotation removed during normalization; bounds computed
    from this set correspond to the original texture rotated by ``-shift``.
    """

    thetas: tuple[float, ...]
    shift: float = 0.0

    def __post_init__(self):
        if not self.thetas:
            raise EmptyInput("angle set is empty")
        if self.thetas[0] != 0.0:
            raise DomainError("normalized angle set must start at 0")
        for a, b in zip(self.thetas, self.thetas[1:]):
            if not a < b:
                raise DomainError("angles must be strictly increasing")
        if not self.thetas[-1] < math.pi:
            raise DomainError("angles must lie in [0, pi)")

    @property
    def N(self) -> int:
        return len(self.thetas)


def normalize(angles, tol: float = DEFAULT_TOL) -> AngleSet:
    """Reduce raw angles mod pi, sort, merge near-duplicates, shift to 0.

    Orientations are line-like (a slip direction and its negative act
    identically), hence the mod-pi reduction; duplicates are merged
    circularly so values just below pi collapse onto 0.
    """
    values = list(angles)
    if not values:
        raise EmptyInput("no angles given")
    reduced = sorted(mod_pi(float(a)) for a in values)
    deduped = [reduced[0]]
    for r in reduced[1:]:
        if r - deduped[-1] > tol:
            deduped.append(r)
    if len(deduped) > 1 and (deduped[0] + math.pi) - deduped[-1] <= tol:
        deduped.pop()
    shift = deduped[0]
    shifted = tuple(0.0 if i == 0 else t - shift for i, t in enumerate(deduped))
    return AngleSet(thetas=shifted, shift=shift)


def _window(theta: float, beta, sqrt=math.sqrt, maximum=max):
    """(center, root) with gamma_pm = center -+ root; for an array beta pass numpy's ufuncs."""
    st = math.sin(theta)
    if st * st < sys.float_info.min:
        raise DomainError(f"theta = {theta!r}: sin(theta)^2 underflows")
    b = maximum(beta, st)  # the root is 0 for beta <= sin(theta)
    root = sqrt(maximum(0.0, 1.0 / (st * st) - 1.0 / (b * b)))
    center = -beta * math.cos(theta) / st
    return center, root


def gamma_bounds(theta: float, beta: float, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Admissible shear interval [gamma_-, gamma_+] at stretch beta.

    Requires theta in (0, pi) and beta in [sin(theta), 1] up to tol.  At
    beta = 1 the interval is [-2*cot(theta), 0] for theta < pi/2 and
    [0, -2*cot(theta)] for theta >= pi/2.
    """
    if not THETA_MIN < theta < math.pi - THETA_MIN:
        raise DomainError(f"theta = {theta!r} outside (0, pi)")
    st = math.sin(theta)
    if beta < st - tol or beta > 1 + tol:
        raise DomainError(f"beta = {beta!r} outside [sin(theta), 1] = [{st!r}, 1]")
    center, root = _window(theta, beta)
    return (center - root, center + root)


def shear_interval(theta: float, beta: float, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Shears [lo, hi] in the region of theta at stretch beta, widened by tol.

    Empty (lo > hi) when beta lies outside [sin(theta), 1] up to tol.
    """
    if beta <= 0.0 or beta < math.sin(theta) - tol or beta > 1.0 + tol:
        return math.inf, -math.inf
    center, root = _window(theta, beta)
    return center - root - tol, center + root + tol


def in_lambda(theta: float, beta: float, gamma: float, tol: float = DEFAULT_TOL) -> bool:
    """Membership of (beta, gamma) in the shear-frame region of theta."""
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta = {theta!r} outside (0, pi)")
    lo, hi = shear_interval(theta, beta, tol)
    return lo <= gamma <= hi


@dataclass(frozen=True, slots=True)
class TaylorBound:
    """The at-most-three orientations that determine the Taylor bound, 0 first."""

    kind: str
    angles: tuple[float, ...]

    def member(self, F: Mat2, tol: float = DEFAULT_TOL) -> bool:
        frame = decompose(F, E1, tol)
        if _trivial(self.angles, tol):  # rotations only, as in taylor_member_batch
            return abs(frame.beta - 1.0) <= tol and abs(frame.gamma) <= tol
        if frame.beta > 1.0 + tol:
            return False
        for a in self.angles[1:]:
            lo, hi = shear_interval(a, frame.beta, tol)
            if not lo <= frame.gamma <= hi:
                return False
        return True


def reduce_angles(angles: AngleSet) -> TaylorBound:
    """Collapse a normalized angle set to the bracketing pair around pi/2.

    With the convention that an implicit angle pi closes the fan, the
    bound of the full set equals the bound of {0, theta_n, theta_n+1}
    where theta_n < pi/2 <= theta_n+1; angles equal to 0 or pi drop out.
    """
    thetas = angles.thetas
    n = bisect_left(thetas, HALF_PI)  # number of angles strictly below pi/2
    theta_n = thetas[n - 1]
    theta_next = thetas[n] if n < len(thetas) else math.pi
    reduced = [0.0]
    if theta_n > 0.0:
        reduced.append(theta_n)
    if theta_next < math.pi:
        reduced.append(theta_next)
    kind = (SINGLE_CRYSTAL, PAIR, TRIPLE)[len(reduced) - 1]
    return TaylorBound(kind=kind, angles=tuple(reduced))


def taylor_member(F: Mat2, angles: AngleSet, tol: float = DEFAULT_TOL) -> bool:
    """Constant-strain attainability of F for the given texture.

    Equivalent to F lying in every rotated relaxed strain set of the
    texture; evaluated through the three-orientation reduction.  If
    ``angles`` was normalized with a nonzero ``shift``, the bound of the
    raw texture is the rotated one: test ``F @ rotation(angles.shift)``
    here to decide membership for the original orientations.
    """
    return reduce_angles(angles).member(F, tol)


def taylor_member_batch(F: np.ndarray, angles: AngleSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vectorized ``taylor_member`` over an (n, 2, 2) array of matrices."""
    import numpy as np  # only the batch path needs numpy; scalar callers skip it
    F = np.asarray(F, dtype=float)
    dets = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
    if not np.all(det_is_one(dets, tol)):
        raise NotSL2("batch contains matrices with det != 1")
    beta = np.hypot(F[:, 0, 0], F[:, 1, 0])
    gamma = (F[:, 0, 1] * F[:, 0, 0] + F[:, 1, 1] * F[:, 1, 0]) / beta
    bound = reduce_angles(angles)
    if _trivial(bound.angles, tol):
        return (np.abs(beta - 1.0) <= tol) & (np.abs(gamma) <= tol)
    ok = beta <= 1.0 + tol
    for a in bound.angles[1:]:
        center, root = _window(a, beta, np.sqrt, np.maximum)
        ok &= ((beta >= math.sin(a) - tol) & (gamma >= center - root - tol)
               & (gamma <= center + root + tol))
    return ok


def _straddles(a, b, tol):
    """Consecutive angles a <= b straddle pi/2 at most pi/2 apart, each within tol."""
    return (a <= HALF_PI + tol) & (b >= HALF_PI - tol) & (b - a <= HALF_PI + tol)


def _trivial(thetas, tol: float) -> bool:
    """Some consecutive pair of the sorted angles straddles pi/2 (``_straddles``).

    Bisection skips the pairs below pi/2 - tol; the scan stops once the
    lower angle passes pi/2 + tol, where no later pair can straddle.
    """
    j = max(1, bisect_left(thetas, HALF_PI - tol))
    while j < len(thetas) and thetas[j - 1] <= HALF_PI + tol:
        if _straddles(thetas[j - 1], thetas[j], tol):
            return True
        j += 1
    return False


def is_trivial(angles: AngleSet, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Taylor bound of the texture is exactly the rotations.

    Holds iff some consecutive pair of angles straddles pi/2 while being
    at most pi/2 apart, each comparison within tol.
    """
    return _trivial(angles.thetas, tol)


def taylor_M_member(F: Mat2, angles: AngleSet, tol: float = DEFAULT_TOL) -> bool:
    """Constant-strain attainability without relaxation.

    Membership forces the stretch to be exactly 1; the shear must lie in
    the full-stretch interval of every nonzero orientation, which is
    [-2*cot(theta), 0] below pi/2 and [0, -2*cot(theta)] above (the
    beta = 1 case of ``gamma_bounds``, angle first, stretch second).
    """
    frame = decompose(F, E1, tol)
    if abs(frame.beta - 1.0) > tol:
        return False
    for theta in angles.thetas[1:]:
        edge = -2.0 / math.tan(theta)
        lo, hi = (edge, 0.0) if theta < HALF_PI else (0.0, edge)
        if not lo - tol <= frame.gamma <= hi + tol:
            return False
    return True
