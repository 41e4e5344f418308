"""2x2 matrix and planar vector kernel.

Everything downstream works with volume-preserving 2x2 strains, so this
module keeps the algebra small and explicit: a value-type vector, a
value-type matrix, rotations, and the shear-frame decomposition

    F = R(rho) @ (beta s(x)s + (1/beta) s_perp(x)s_perp + gamma s(x)s_perp)

that parametrizes SL(2) by a rotation angle, a stretch along a slip
direction ``s`` and a shear amount.  Entries may be floats or
``fractions.Fraction``; all predicates stay exact in the rational case
when called with ``tol=0``.

One home each, elementwise on numpy arrays too: ``det_is_one`` for
det F = 1; ``norm2_at_most_one`` and ``norm2_is_one`` for |v| <= 1 and
|v| = 1 within tol, tested on |v|^2, never on its root; ``length`` for |v|
(``Vec2.norm``, ``geometry._norm`` and beta = |Fs|); and ``_stretch_shear`` for
(beta, gamma).  ``tol`` only widens: the one degenerate frame is that of Fs = 0.

``Value`` is the one base of the package's value types: ``==``, ``hash``,
``repr`` and pickling over a class's ``_fields``, with no code generated at
import.  ``Vec2``, ``Mat2``, ``ShearFrame``, ``RankOneConnection`` and
``LaminateSplit`` are immutable by contract, not enforced: their fields are
plain slots, so construction is one store per field.  They compare and hash
by value, so never assign to a field of one after it is built.  Every other
value type derives from ``FrozenValue``, whose ``__setattr__`` raises
``AttributeError``: it is read-only.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Union

from .errors import DegenerateBeta, NotSL2

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, float, "Fraction"]

#: Default tolerance for floating-point predicates.
DEFAULT_TOL = 1e-9

#: Angular tolerance for normal-direction coverage tests.
ANGULAR_TOL = 1e-6


class Value:
    """Base of the value types: ``==``, ``hash``, ``repr`` and pickling over ``_fields``.

    ``_fields`` names the constructor's arguments in order; slots outside it
    are caches that compare, hash and print nothing.  ``==`` holds between
    instances of one class with equal ``_key`` tuples (``NotImplemented`` for
    any other class), ``hash`` is that of the tuple, ``repr`` reads
    ``Name(field=value, ...)``, and a pickle rebuilds through the constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        """What ``==`` and ``hash`` compare: every field, unless a class says less."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


class FrozenValue(Value):
    """A read-only ``Value``: ``__init__`` writes each slot with ``object.__setattr__``,
    past the ``__setattr__`` that refuses every later write."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


def length(x, y, n2) -> float:
    """|(x, y)| from its square n2 = x^2 + y^2: the root of n2 where that is a normal
    float, else ``math.hypot``, which scales where the square under- or overflowed."""
    if sys.float_info.min <= n2 < math.inf:
        return math.sqrt(n2)
    return math.hypot(x, y)


class Vec2(Value):
    """A point or direction in the plane."""

    __slots__ = _fields = ("x", "y")

    def __init__(self, x: Scalar, y: Scalar):
        self.x = x
        self.y = y

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
        return length(self.x, self.y, float(self.norm2()))

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


class Mat2(Value):
    """A real 2x2 matrix in row-major layout."""

    __slots__ = _fields = ("a11", "a12", "a21", "a22")

    def __init__(self, a11: Scalar, a12: Scalar, a21: Scalar, a22: Scalar):
        self.a11 = a11
        self.a12 = a12
        self.a21 = a21
        self.a22 = a22

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


def norm2_at_most_one(n2, tol: float = DEFAULT_TOL):
    """n2 <= (1 + tol)^2: |v| <= 1 + tol on n2 = |v|^2, elementwise; False for NaN.

    The product overflows to inf where a power raises, and its rounded
    square root is 1 + tol, so a float n2 that passes has sqrt(n2) <= 1 + tol.
    """
    edge = 1 + tol
    return n2 <= edge * edge


def norm2_is_one(n2, tol: float = DEFAULT_TOL):
    """max(1 - tol, 0)^2 <= n2 <= (1 + tol)^2: |v| = 1 within tol on n2 = |v|^2, elementwise.

    The lower edge stops at 0, so |v| = 1 is in the band for every tol;
    ``(1 - tol)^2`` alone would pass 1 once tol > 2.
    """
    lo, hi = (1 - tol if tol < 1 else 0), 1 + tol
    return (lo * lo <= n2) & (n2 <= hi * hi)


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


class ShearFrame(Value):
    """Rotation/stretch/shear coordinates of an SL(2) matrix.

    ``reconstruct`` returns R(rho) applied to the matrix that stretches by
    ``beta`` along ``s``, by ``1/beta`` along ``perp(s)``, and shears by
    ``gamma`` in the ``s`` direction across planes normal to ``perp(s)``.
    """

    __slots__ = _fields = ("rho", "beta", "gamma", "s")

    def __init__(self, rho: float, beta: float, gamma: float, s: Vec2 = E1):
        self.rho = rho
        self.beta = beta
        self.gamma = gamma
        self.s = s

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
    ``DegenerateBeta`` if Fs = 0, which det F = 1 within tol allows only at tol >= 1.
    """
    require_sl2(F, tol)
    sx, sy = s.x, s.y  # f = Fs and g = F perp(s), perp(s) = (-sy, sx)
    _, beta, gamma, rx, ry = _stretch_shear(F.a11 * sx + F.a12 * sy, F.a21 * sx + F.a22 * sy,
                                            F.a11 * -sy + F.a12 * sx, F.a21 * -sy + F.a22 * sx)
    rs = Vec2(rx, ry)
    rho = math.atan2(s.cross(rs), s.dot(rs))
    if rho < 0.0:
        rho += 2.0 * math.pi
    return ShearFrame(rho=rho, beta=beta, gamma=gamma, s=s)


def _settle_betas(fx, fy, n2):
    """``length`` on numpy arrays of rows: ``math.hypot`` on each row whose square is not a
    normal float; 0 where Fs = 0 (on which the scalar raises), so the shear 0/0 is NaN."""
    import numpy as np  # only the batch path calls this
    beta = np.sqrt(n2)
    odd = (n2 < sys.float_info.min) | (n2 == math.inf)
    if odd.any():
        beta[odd] = [math.hypot(x, y) for x, y in zip(fx[odd].tolist(), fy[odd].tolist())]
    return beta


def _stretch_shear(fx, fy, gx, gy, length=length):
    """``(n2, beta, gamma, rx, ry)`` from f = Fs and g = F perp(s): n2 = |f|^2,
    beta = |f|, gamma = g . f / beta.

    (rx, ry) = f / beta is the rotated slip direction.  The one home of (beta, gamma):
    on floats it serves ``decompose`` and ``taylor._frame_e1``; with ``_settle_betas`` for
    ``length`` it runs on numpy arrays of rows, each of which gets the bits its floats
    would, or a NaN shear where they raise ``DegenerateBeta`` (f = 0).
    """
    n2 = fx * fx + fy * fy
    beta = length(fx, fy, n2)
    try:
        rx, ry = fx / beta, fy / beta
    except ZeroDivisionError:
        raise DegenerateBeta("Fs = 0 has no stretch to decompose") from None
    return n2, beta, gx * rx + gy * ry, rx, ry

