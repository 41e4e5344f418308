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

``_window`` is the one home of gamma_pm, exact at beta = 1, and of its tol band;
``_straddles`` of the triviality test, decided on the reduced orientations (and by
the Monte Carlo kernel of ``random_textures`` on each row's pair bracketing pi/2);
and ``TaylorBound._admits`` of the decision: ``taylor_member`` runs it on floats
and ``taylor_member_batch`` on numpy arrays, so the batch repeats the scalar
bit for bit; the unrelaxed ``taylor_M_member`` adds only the band |F e1| = 1.
The (beta, gamma) frame of a matrix has its one home in
``mat2._stretch_shear``, and its stretch test, on |F e1|^2 as in
``slip.in_N``/``in_M``, in ``mat2.norm2_at_most_one`` and ``norm2_is_one``;
so a single crystal's bound is its relaxed set and its unrelaxed bound its
unrelaxed set at every tol, each decided on |F e1|^2 alone, also at F e1 = 0
(possible at tol >= 1), where no frame exists.
(``shear_interval``, for ``in_lambda`` and the lambda-plot raster, and
``gamma_bounds`` test beta <= 1 + tol on beta.)

A ``TaylorBound`` is built once per texture (``AngleSet._bound``) and keeps
what its decisions read: (theta, sin theta, cos theta) of each decisive angle
after 0, and the triviality of the last tol it decided, one entry.  So a
membership test computes only its matrix's frame, from F's columns as the
batch does.  An angle whose sin(theta)^2 underflows still raises
``DomainError`` when a matrix is decided, never when the bound is built.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from typing import TYPE_CHECKING

from .errors import DomainError, EmptyInput, NotSL2
from .mat2 import (DEFAULT_TOL, FrozenValue, Mat2, _settle_betas, _stretch_shear, det_is_one,
                   mod_pi, norm2_at_most_one, norm2_is_one, require_sl2)

if TYPE_CHECKING:
    import numpy as np

HALF_PI = math.pi / 2

#: Rows per block of ``taylor_member_batch``: each temporary of a block is
#: 128 KiB, so the whole block's working set stays in cache.
_BLOCK_ROWS = 1 << 14

SINGLE_CRYSTAL = "single_crystal"
PAIR = "pair"
TRIPLE = "triple"


class AngleSet(FrozenValue):
    """Normalized orientation angles: sorted, distinct, in [0, pi), first 0.

    ``shift`` is the rotation removed during normalization; bounds computed
    from this set correspond to the original texture rotated by ``-shift``.
    ``_bound`` is ``reduce_angles`` of the set, computed once here so that
    membership tests of many matrices share it.
    """

    __slots__ = ("thetas", "shift", "_bound")
    _fields = ("thetas", "shift")

    def __init__(self, thetas: tuple[float, ...], shift: float = 0.0):
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "shift", shift)
        if not self.thetas:
            raise EmptyInput("angle set is empty")
        if self.thetas[0] != 0.0:
            raise DomainError("normalized angle set must start at 0")
        for a, b in zip(self.thetas, self.thetas[1:]):
            if not a < b:
                raise DomainError("angles must be strictly increasing")
        if not self.thetas[-1] < math.pi:
            raise DomainError("angles must lie in [0, pi)")
        object.__setattr__(self, "_bound", reduce_angles(self))


def normalize(angles, tol: float = DEFAULT_TOL) -> AngleSet:
    """Reduce raw angles mod pi, sort, merge near-duplicates, shift to 0.

    Orientations are line-like (a slip direction and its negative act
    identically), hence the mod-pi reduction; duplicates are merged
    circularly so values just below pi collapse onto 0.  A NaN or infinite
    angle, or a tol that is not finite and >= 0, raises ``DomainError``.
    """
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    values = [float(a) for a in angles]
    if not values:
        raise EmptyInput("no angles given")
    if not all(map(math.isfinite, values)):
        raise DomainError(f"angles {values!r} must be finite")
    reduced = sorted(map(mod_pi, values))
    deduped = [reduced[0]]
    for r in reduced[1:]:
        if r - deduped[-1] > tol:
            deduped.append(r)
    if len(deduped) > 1 and (deduped[0] + math.pi) - deduped[-1] <= tol:
        deduped.pop()
    shift = deduped[0]
    shifted = tuple(0.0 if i == 0 else t - shift for i, t in enumerate(deduped))
    return AngleSet(thetas=shifted, shift=shift)


def _angle(theta: float) -> tuple[float, float, float]:
    """What ``_window`` reads of an angle: (theta, sin theta, cos theta)."""
    return theta, math.sin(theta), math.cos(theta)


def _window(angle, beta, tol, sqrt=math.sqrt, maximum=max, ones=None):
    """(gamma_- - tol, gamma_+ + tol) at stretch beta, for angle = ``_angle(theta)``.

    gamma_pm = center -+ root.  At beta == 1, where the root sqrt(1/sin^2 - 1) is
    |cot theta| = |center|, both come from center = -1/tan(theta): one end of gamma_pm
    is exactly 0 and the other -2/tan(theta).  For an array beta pass numpy's ufuncs and
    ``ones``, the indices of its rows equal to 1, which take the float window's values.
    """
    theta, st, ct = angle
    if st * st < sys.float_info.min:
        raise DomainError(f"theta = {theta!r}: sin(theta)^2 underflows")
    if ones is None and beta == 1.0:
        center = -1.0 / math.tan(theta)
        root = abs(center)
    else:
        b = maximum(beta, st)  # the root is 0 for beta <= sin(theta)
        root = sqrt(maximum(0.0, 1.0 / (st * st) - 1.0 / (b * b)))
        center = -beta * ct / st
    lo, hi = center - root - tol, center + root + tol
    if ones is not None:
        lo[ones], hi[ones] = _window(angle, 1.0, tol)
    return lo, hi


def gamma_bounds(theta: float, beta: float, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Admissible shear interval [gamma_-, gamma_+] at stretch beta.

    Requires theta in (0, pi), sin(theta)^2 normal (``_window``), and beta in
    [sin(theta), 1] up to tol.  At beta = 1 one end is exactly 0, the other -2/tan(theta).
    """
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta = {theta!r} outside (0, pi)")
    angle = _angle(theta)
    if not angle[1] - tol <= beta <= 1 + tol:
        raise DomainError(f"beta = {beta!r} outside [sin(theta), 1] = [{angle[1]!r}, 1]")
    return _window(angle, beta, 0.0)


def shear_interval(theta: float, beta: float, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Shears [lo, hi] in the region of theta at stretch beta, widened by tol.

    Empty (lo > hi) when beta lies outside [sin(theta), 1] up to tol.
    """
    if beta <= 0.0 or not (angle := _angle(theta))[1] - tol <= beta <= 1.0 + tol:
        return math.inf, -math.inf
    return _window(angle, beta, tol)


def in_lambda(theta: float, beta: float, gamma: float, tol: float = DEFAULT_TOL) -> bool:
    """Membership of (beta, gamma) in the shear-frame region of theta."""
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta = {theta!r} outside (0, pi)")
    lo, hi = shear_interval(theta, beta, tol)
    return lo <= gamma <= hi


def _frame_e1(F: Mat2, tol: float):
    """(|F e1|^2, beta, gamma): the square of ``(F @ E1).norm2()`` and the frame of
    ``decompose(F, E1, tol)``, bit for bit up to the sign of a zero, without building
    either: F e1 and F perp(e1) are F's columns, as in ``taylor_member_batch``."""
    require_sl2(F, tol)
    n2, beta, gamma, _, _ = _stretch_shear(F.a11, F.a21, F.a12, F.a22)
    return n2, beta, gamma


class TaylorBound(FrozenValue):
    """The at-most-three orientations of the Taylor bound, 0 first.

    Caches, which neither compare nor print: ``_angles``, the ``_angle`` of each
    orientation after 0, and ``_trivial_at``, (tol, triviality) of the last tol decided."""

    __slots__ = ("kind", "angles", "_angles", "_trivial_at")
    _fields = ("kind", "angles")

    def __init__(self, kind: str, angles: tuple[float, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "_angles", tuple(map(_angle, angles[1:])))
        object.__setattr__(self, "_trivial_at", (math.nan, False))  # NaN equals no tol

    def member(self, F: Mat2, tol: float = DEFAULT_TOL) -> bool:
        if len(self.angles) == 1:  # a single crystal reads |F e1|^2 only: no frame, so F e1 = 0 too
            require_sl2(F, tol)
            return norm2_at_most_one(F.a11 * F.a11 + F.a21 * F.a21, tol)  # F e1: the first column
        n2, beta, gamma = _frame_e1(F, tol)  # unpacked: a *args call slows this hot path
        return self._admits(n2, beta, gamma, tol)

    def _admits(self, n2, beta, gamma, tol: float, sqrt=math.sqrt, maximum=max, ones=None):
        """The decision on the e1 frame: n2 = |F e1|^2, stretch beta, shear gamma; elementwise,
        given ``_window``'s ufuncs and ``ones`` on arrays.  Trivial: rotations only."""
        last, trivial = self._trivial_at
        if last != tol:
            trivial = _trivial(self.angles, tol)
            object.__setattr__(self, "_trivial_at", (tol, trivial))
        if trivial:
            return norm2_is_one(n2, tol) & (abs(gamma) <= tol)
        ok = norm2_at_most_one(n2, tol)
        for angle in self._angles:
            ok &= beta >= angle[1] - tol  # beta >= sin(theta) - tol
            if ok is False:  # a float stops at its first failed test; arrays run them all
                return ok
            lo, hi = _window(angle, beta, tol, sqrt, maximum, ones)
            ok &= (gamma >= lo) & (gamma <= hi)
        return ok


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
    return angles._bound.member(F, tol)


def taylor_member_batch(F: np.ndarray, angles: AngleSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``taylor_member`` over an (n, 2, 2) array of matrices, row for row and bit for bit.

    Runs the scalar's own code elementwise: the det test, ``_frame_e1``'s
    frame on F's columns and the decision ``TaylorBound._admits`` itself.
    It walks the rows in blocks of ``_BLOCK_ROWS``, so its temporaries stay
    in cache whatever n is.  Raises ``NotSL2`` if any row fails the det test;
    a row on which the scalar raises ``DegenerateBeta`` (F e1 = 0 for a texture of
    two or more angles) is False, as its shear is NaN.
    """
    import numpy as np  # only the batch path needs numpy; scalar callers skip it
    F = np.asarray(F, dtype=float)
    bound = angles._bound
    out = np.empty(F.shape[0], dtype=bool)
    # Python floats overflow to inf and give NaN silently, and so do these rows
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(out), _BLOCK_ROWS):
            block = F[i:i + _BLOCK_ROWS]
            rows = Mat2(block[:, 0, 0], block[:, 0, 1], block[:, 1, 0], block[:, 1, 1])
            if not np.all(det_is_one(rows.det(), tol)):
                raise NotSL2("batch contains matrices with det != 1")
            # _frame_e1's frame on the columns: decompose's at e1 up to the sign of a zero
            n2, beta, gamma, _, _ = _stretch_shear(rows.a11, rows.a21, rows.a12, rows.a22,
                                                   _settle_betas)
            ones = np.flatnonzero(beta == 1.0)  # the rows whose window takes its exact ends
            out[i:i + _BLOCK_ROWS] = bound._admits(n2, beta, gamma, tol, np.sqrt, np.maximum, ones)
    return out


def _straddles(a, b, tol):
    """Consecutive angles a <= b straddle pi/2 at most pi/2 apart, each within tol."""
    return (a <= HALF_PI + tol) & (b >= HALF_PI - tol) & (b - a <= HALF_PI + tol)


def _trivial(angles, tol: float) -> bool:
    """Some consecutive pair of the reduced angles (at most two pairs) straddles pi/2."""
    for a, b in zip(angles, angles[1:]):
        if _straddles(a, b, tol):
            return True
    return False


def is_trivial(angles: AngleSet, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Taylor bound of the texture is exactly the rotations: some consecutive
    pair of angles straddles pi/2 while at most pi/2 apart, each comparison within tol.

    Decided on the reduced angles (``reduce_angles``), as membership is: a straddling
    pair of the full texture is the bracketing pair, or lies within tol of pi/2, where
    (0, theta_n) or (theta_n, theta_n+1) straddles too."""
    return _trivial(angles._bound.angles, tol)


def taylor_M_member(F: Mat2, angles: AngleSet, tol: float = DEFAULT_TOL) -> bool:
    """Constant-strain attainability without relaxation.

    The relaxed bound (``taylor_member``) with the grain at angle 0 pinned to its
    unrelaxed set, |F e1| = 1 within tol, so each member is a relaxed member.  For
    the raw texture of a nonzero ``angles.shift``, test ``F @ rotation(angles.shift)``.
    """
    if not angles._bound.member(F, tol):  # raises as the relaxed bound does
        return False
    return norm2_is_one(F.a11 * F.a11 + F.a21 * F.a21, tol)  # |F e1|^2 of the first column
