"""2x2 matrix and planar vector kernel.

Everything downstream works with volume-preserving 2x2 strains, so this
module keeps the algebra small and explicit: a value-type vector, a
value-type matrix, rotations, and the shear-frame decomposition

    F = R(rho) @ (beta s(x)s + (1/beta) s_perp(x)s_perp + gamma s(x)s_perp)

that parametrizes SL(2) by a rotation angle, a stretch along a slip
direction ``s`` and a shear amount.  Entries may be floats or
``fractions.Fraction``; all predicates stay exact in the rational case
when called with ``tol=0``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DegenerateBeta, NotSL2

Scalar = Union[int, float, Fraction]

#: Default tolerance for floating-point predicates.
DEFAULT_TOL = 1e-9

#: Angular tolerance for normal-direction coverage tests.
ANGULAR_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class Vec2:
    """A point or direction in the plane."""

    x: Scalar
    y: Scalar

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, c: Scalar) -> "Vec2":
        return Vec2(self.x * c, self.y * c)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> Scalar:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> Scalar:
        """Signed area of the parallelogram spanned by self and other."""
        return self.x * other.y - self.y * other.x

    def perp(self) -> "Vec2":
        """Quarter rotation: perp(v) = (-y, x); perp(perp(v)) == -v."""
        return Vec2(-self.y, self.x)

    def norm2(self) -> Scalar:
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.sqrt(float(self.norm2()))

    def unit(self) -> "Vec2":
        """self / |self|; ``ZeroDivisionError`` for the zero vector.

        Where the squared norm under- or overflows, the vector is first
        rescaled by its largest entry, so tiny and huge vectors normalize too.
        """
        v = self
        if not sys.float_info.min <= v.norm2() < math.inf:
            m = max(abs(self.x), abs(self.y))
            v = Vec2(self.x / m, self.y / m)
        n = v.norm()
        return Vec2(v.x / n, v.y / n)

    def to_floats(self) -> tuple[float, float]:
        return (float(self.x), float(self.y))


E1 = Vec2(1.0, 0.0)
E2 = Vec2(0.0, 1.0)


@dataclass(frozen=True, slots=True)
class Mat2:
    """A real 2x2 matrix in row-major layout."""

    a11: Scalar
    a12: Scalar
    a21: Scalar
    a22: Scalar

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    @staticmethod
    def rotation(theta: float) -> "Mat2":
        c, s = math.cos(theta), math.sin(theta)
        return Mat2(c, -s, s, c)

    @staticmethod
    def outer(a: Vec2, b: Vec2) -> "Mat2":
        """Tensor product a(x)b."""
        return Mat2(a.x * b.x, a.x * b.y, a.y * b.x, a.y * b.y)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)

    def __mul__(self, c: Scalar) -> "Mat2":
        return Mat2(self.a11 * c, self.a12 * c, self.a21 * c, self.a22 * c)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                self.a11 * other.a11 + self.a12 * other.a21,
                self.a11 * other.a12 + self.a12 * other.a22,
                self.a21 * other.a11 + self.a22 * other.a21,
                self.a21 * other.a12 + self.a22 * other.a22,
            )
        if isinstance(other, Vec2):
            return Vec2(self.a11 * other.x + self.a12 * other.y,
                        self.a21 * other.x + self.a22 * other.y)
        return NotImplemented

    def det(self) -> Scalar:
        return self.a11 * self.a22 - self.a12 * self.a21

    def transpose(self) -> "Mat2":
        return Mat2(self.a11, self.a21, self.a12, self.a22)

    def adjugate(self) -> "Mat2":
        """det(A) * inverse(A), defined for singular matrices too."""
        return Mat2(self.a22, -self.a12, -self.a21, self.a11)

    def max_abs(self) -> float:
        return max(abs(float(self.a11)), abs(float(self.a12)),
                   abs(float(self.a21)), abs(float(self.a22)))

    def to_rows(self) -> list[list[float]]:
        return [[float(self.a11), float(self.a12)],
                [float(self.a21), float(self.a22)]]


def det(F: Mat2) -> Scalar:
    """Determinant of F; exact when the entries are exact."""
    return F.det()


def rotation(theta: float) -> Mat2:
    """Counterclockwise rotation by theta radians."""
    return Mat2.rotation(theta)


def mod_pi(a: float) -> float:
    """a reduced mod pi into [0, pi): fmod is exact, and a sum that rounds up to pi reads 0."""
    r = math.fmod(a, math.pi)
    if r < 0.0:
        r += math.pi
    return 0.0 if r >= math.pi else r


def det_is_one(d, tol: float = DEFAULT_TOL):
    """|d - 1| <= tol, elementwise on arrays: the SL(2) test, False for NaN."""
    return abs(d - 1) <= tol


def is_sl2(F: Mat2, tol: float = DEFAULT_TOL) -> bool:
    """True iff det F = 1 within tol."""
    return det_is_one(F.det(), tol)


def require_sl2(F: Mat2, tol: float = DEFAULT_TOL) -> None:
    """Raise ``NotSL2`` unless det F = 1 within tol."""
    d = F.det()
    if not det_is_one(d, tol):
        raise NotSL2(f"det F = {float(d)!r}, expected 1")


def is_SO2(F: Mat2, tol: float = DEFAULT_TOL) -> bool:
    """True iff F^T F = Id and det F = 1, entrywise within tol."""
    g = F.transpose() @ F - Mat2.identity()
    return g.max_abs() <= tol and is_sl2(F, tol)


@dataclass(frozen=True, slots=True)
class ShearFrame:
    """Rotation/stretch/shear coordinates of an SL(2) matrix.

    ``reconstruct`` returns R(rho) applied to the matrix that stretches by
    ``beta`` along ``s``, by ``1/beta`` along ``perp(s)``, and shears by
    ``gamma`` in the ``s`` direction across planes normal to ``perp(s)``.
    """

    rho: float
    beta: float
    gamma: float
    s: Vec2 = E1

    def reconstruct(self) -> Mat2:
        s, sp = self.s, self.s.perp()
        core = (Mat2.outer(s, s) * self.beta
                + Mat2.outer(sp, sp) * (1 / self.beta)
                + Mat2.outer(s, sp) * self.gamma)
        return Mat2.rotation(self.rho) @ core


def decompose(F: Mat2, s: Vec2, tol: float = DEFAULT_TOL) -> ShearFrame:
    """Split F in SL(2) into rotation, stretch and shear relative to the unit vector s.

    The frame has beta = |Fs| > 0 and R(rho) s = Fs / beta, and
    ``frame.reconstruct()`` equals F up to roundoff.  Raises ``NotSL2``
    unless det F = 1 within tol (see ``require_sl2``) and
    ``DegenerateBeta`` if |Fs| < tol or |Fs|^2 underflows to 0.
    """
    require_sl2(F, tol)
    beta, gamma, rx, ry = stretch_shear(F, s.x, s.y, tol)
    rs = Vec2(rx, ry)
    rho = math.atan2(s.cross(rs), s.dot(rs))
    if rho < 0.0:
        rho += 2.0 * math.pi
    return ShearFrame(rho=rho, beta=beta, gamma=gamma, s=s)


def stretch_shear(F: Mat2, sx, sy, tol: float = DEFAULT_TOL):
    """``(beta, gamma, rx, ry)`` of ``decompose(F, (sx, sy))`` as plain scalars.

    (rx, ry) = Fs / beta is the rotated slip direction.  Builds no objects
    and skips the SL(2) check, for callers that test many slip directions
    against one checked matrix; raises ``DegenerateBeta`` as ``decompose`` does.
    """
    fx = F.a11 * sx + F.a12 * sy
    fy = F.a21 * sx + F.a22 * sy
    beta = math.sqrt(float(fx * fx + fy * fy))
    if beta < tol or beta == 0.0:  # at tol = 0, a square that underflows
        raise DegenerateBeta(f"|Fs| = {beta!r} too short to decompose")
    rx, ry = fx / beta, fy / beta
    # F perp(s) . Fs / beta, perp(s) = (-sy, sx)
    gamma = (F.a11 * -sy + F.a12 * sx) * rx + (F.a21 * -sy + F.a22 * sx) * ry
    return beta, gamma, rx, ry
