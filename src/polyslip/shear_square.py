"""Piecewise-affine shear of a tilted square through two slip systems.

The domain is the square with corners (0,0), (1,3), (4,2), (3,-1),
partitioned into eight triangles around a central square.  For a shear
parameter gamma with |gamma| <= sqrt(3) - 1 an explicit continuous,
piecewise-affine map exists whose cell gradients alternate between the
relaxed strain sets of the slip directions e1 and e2 and whose boundary
trace is the affine map x -> F_gamma x with

    F_gamma = 1/5 [[3 gamma + 4, 4 gamma - 3], [3, 4]].

Since the texture {e1, e2} pins the constant-strain bound to rotations
while F_gamma is a rotation only at gamma = 0, every nonzero gamma in
range exhibits an attainable boundary strain outside that bound.

The cell gradients and F_gamma are affine in gamma, written once in
``_AFFINE``.  The range test reads any gamma, a float as the dyadic
rational it stores, as p/q on ints.  With rational gamma and a rational
pre-rotation, if any, the map is rational: ``build`` forms the gradients
as ints in p and q and assembles the map on ints.  Each build's map is
lifted once to ints over one common denominator D, the least common
multiple of the denominators of every cell's A and b and of F_gamma, read
off the built map alone, one integer ratio per entry.
``Fraction``s are made only for the values handed to callers: the cells'
A and b, F_gamma and the mean of ``average_gradient``.  ``verify`` checks
continuity, incompressibility, membership, boundary trace and the jump
conditions on that lift as identities between ints: zero arithmetic
error.  ``average_gradient`` sums the same lift, and ``mesh_dict`` and
``render_svg`` evaluate each vertex on it, each float the one nearest the
exact value.  Float and mixed builds take the same steps on their own
entries (D = 1) and keep the tolerance semantics, as does any tol > 0; a
tol that is not None, finite and >= 0 is a ``DomainError``.  One scalar
helper, ``_apply``, evaluates every cell, A v + k b on its row (a11, a12,
a21, a22, bx, by), for ``verify``, the translation walk of ``build`` and
the mesh.  The cell layout does not depend on gamma: its interfaces,
areas, the translation walk and the one cell owning each domain edge
(where the boundary trace is probed) are derived once at import.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from fractions import Fraction
from typing import Optional

from .errors import DomainError, GammaOutOfRange
from .mat2 import DEFAULT_TOL, FrozenValue, Mat2, Vec2
from .svg import SvgCanvas
from .taylor import is_trivial, normalize

#: Admissible shear range is |gamma| <= GAMMA_MAX.
GAMMA_MAX = math.sqrt(3.0) - 1.0

_CELL_VERTICES = {
    "S": ((1, 1), (2, 0), (3, 1), (2, 2)),
    "T1": ((0, 0), (2, 0), (1, 1)),
    "T2": ((0, 0), (1, 1), (1, 3)),
    "T3": ((1, 1), (2, 2), (1, 3)),
    "T4": ((1, 3), (2, 2), (4, 2)),
    "T5": ((2, 2), (3, 1), (4, 2)),
    "T6": ((3, -1), (4, 2), (3, 1)),
    "T7": ((3, -1), (3, 1), (2, 0)),
    "T8": ((0, 0), (3, -1), (2, 0)),
}

#: Slip direction carried by each cell gradient.
GRAIN_OF_CELL = {
    "S": "e1", "T1": "e1", "T5": "e1", "T4": "e1", "T8": "e1",
    "T2": "e2", "T3": "e2", "T6": "e2", "T7": "e2",
}

#: Corners of the tilted square, counterclockwise.
DOMAIN_CORNERS = ((0, 0), (3, -1), (4, 2), (1, 3))


def _shared_edges(cells: dict) -> tuple:
    """(cell, cell, p, q) per pair of cells, in cell order, with two common vertices."""
    names = list(cells)
    out = []
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            shared = [v for v in cells[n1] if v in cells[n2]]
            if len(shared) == 2:
                out.append((n1, n2, *shared))
    return tuple(out)


#: The twelve internal interfaces; p is the first common vertex in the first cell.
_INTERFACES = _shared_edges(_CELL_VERTICES)

#: (a, b, cell) for each domain edge a -> b and the one cell with a and b as vertices.
_EDGE_OWNERS = tuple(
    (a, b, next(name for name, vv in _CELL_VERTICES.items() if a in vv and b in vv))
    for a, b in zip(DOMAIN_CORNERS, DOMAIN_CORNERS[1:] + DOMAIN_CORNERS[:1]))

#: The vertices of each cell as integer vectors.
_CELL_VECS = {name: tuple(Vec2(x, y) for x, y in vv) for name, vv in _CELL_VERTICES.items()}

#: Index into ``_AFFINE`` of each cell's gradient.
_GRADIENT_OF_CELL = {"S": 0, "T1": 1, "T5": 1, "T3": 2, "T7": 2, "T2": 3, "T6": 3, "T4": 4, "T8": 4}


def _walk(start: str, joined: tuple) -> tuple:
    """(cell, next cell, common vertex) steps reaching every cell joined to
    ``start`` across the interfaces ``joined``, entries of ``_INTERFACES``."""
    seen, stack, steps = {start}, [start], []
    while stack:
        cur = stack.pop()
        for n1, n2, p, _ in joined:
            nxt = n2 if n1 == cur else n1 if n2 == cur else None
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                steps.append((cur, nxt, p))
                stack.append(nxt)
    return tuple(steps)


#: The translation walk of ``build``: every cell from S across all interfaces.
_WALK = _walk("S", _INTERFACES)

#: Twice the area of each cell (the shoelace sum), an int.
_TWICE_AREA = {name: sum(v.cross(w) for v, w in zip(vv, vv[1:] + vv[:1]))
               for name, vv in _CELL_VECS.items()}

#: (cell, 3p) for the start corner and the two interior third points p of each
#: domain edge; 3p is an integer point, and 3p / 3 the floats nearest p.
_TRACE_POINTS = tuple((owner, (3 * ax + k * (bx - ax), 3 * ay + k * (by - ay)))
                      for (ax, ay), (bx, by), owner in _EDGE_OWNERS for k in range(3))


def _apply(row, v, k=0):
    """A v + k b on the cell row (a11, a12, a21, a22, bx, by) at v = (x, y), in the
    order of ``A @ v + b``; at k = 0, A v alone from the row's first four entries."""
    x, y = v
    if k:
        return row[0] * x + row[1] * y + k * row[4], row[2] * x + row[3] * y + k * row[5]
    return row[0] * x + row[1] * y, row[2] * x + row[3] * y


class Cell(FrozenValue):
    """One affine piece x -> A x + b on a convex polygon."""

    __slots__ = _fields = ("name", "vertices", "A", "b")

    def __init__(self, name: str, vertices: tuple[Vec2, ...], A: Mat2, b: Vec2):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def value(self, p: Vec2) -> Vec2:
        return self.A @ p + self.b


class PwAffineMap(FrozenValue):
    """A continuous piecewise-affine map given by its affine cells."""

    __slots__ = _fields = ("cells",)

    def __init__(self, cells: tuple[Cell, ...]):
        object.__setattr__(self, "cells", cells)

    def cell(self, name: str) -> Cell:
        for c in self.cells:
            if c.name == name:
                return c
        raise KeyError(name)

    def interfaces(self) -> list[tuple[Cell, Cell, Vec2, Vec2]]:
        """Pairs of cells sharing an edge, with the shared endpoints."""
        by_name = {c.name: c for c in self.cells}
        return [(by_name[n1], by_name[n2], Vec2(*p), Vec2(*q)) for n1, n2, p, q in _INTERFACES]


class ShearSquareBuild(FrozenValue):
    """A built map and its boundary strain; ``_lift`` caches ``_lifted`` outside ``_fields``."""

    __slots__ = ("gamma", "map", "F_gamma", "_lift")
    _fields = ("gamma", "map", "F_gamma")

    def __init__(self, gamma, map: PwAffineMap, F_gamma: Mat2):
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "F_gamma", F_gamma)
        object.__setattr__(self, "_lift", None)

    @property
    def exact(self) -> bool:
        """True when every entry of the cells' A and b and of F_gamma is rational."""
        return _lifted(self)[1] is not None


def _lifted(build_: ShearSquareBuild) -> tuple:
    """(entries, ``_one_denominator(entries)``), read once per build and kept on it.

    The entries are each cell's A and b, six per cell in cell order, then
    F_gamma's four: read off the built map, not the ints ``build`` assembled
    it on, so a check of the lift is independent of ``build``.
    """
    lift = build_._lift
    if lift is None:
        F = build_.F_gamma
        entries = [x for c in build_.map.cells
                   for x in (c.A.a11, c.A.a12, c.A.a21, c.A.a22, c.b.x, c.b.y)]
        entries += (F.a11, F.a12, F.a21, F.a22)
        lift = (entries, _one_denominator(entries))
        object.__setattr__(build_, "_lift", lift)
    return lift


def _checked_gamma(gamma):
    """gamma as a Python number, +-0.0 made the int 0; GammaOutOfRange beyond
    sqrt(3) - 1.

    An integer of any type becomes an int, any other rational a ``Fraction``
    of ints and any other real (a numpy float) a float, so no numpy
    arithmetic wraps below; another type is a ``DomainError``.  gamma = p/q,
    q > 0, a float read as the dyadic rational it stores, is in range when
    (q + |p|)^2 <= 3 q^2, decided on ints.  There |F_gamma e1|^2 - 1 =
    (9 gamma^2 + 24 gamma)/25, so F_gamma is a rotation exactly when gamma = 0.
    """
    if type(gamma) is Fraction and type(gamma.numerator) is int and type(gamma.denominator) is int:
        p, q = gamma.numerator, gamma.denominator
    else:
        if isinstance(gamma, numbers.Integral):
            gamma = operator.index(gamma)
        elif isinstance(gamma, numbers.Rational):
            gamma = Fraction(operator.index(gamma.numerator), operator.index(gamma.denominator))
        elif isinstance(gamma, numbers.Real):
            gamma = float(gamma) or 0  # +-0.0, the one integral float in range, is exact
        else:
            raise DomainError(f"gamma of type {type(gamma).__name__} is not a real number")
        # NaN and +-inf store no ratio; read as 1/0 they fail the test below
        finite = not isinstance(gamma, float) or math.isfinite(gamma)
        p, q = gamma.as_integer_ratio() if finite else (1, 0)
    if (q + abs(p)) ** 2 > 3 * q * q:
        g = abs(gamma)
        size = math.inf if g > sys.float_info.max else float(g)
        raise GammaOutOfRange(f"|gamma| = {size!r} exceeds sqrt(3) - 1")
    return gamma


#: The five distinct cell gradients, indexed by ``_GRADIENT_OF_CELL``, then
#: F_gamma: (s, entries) with each entry (u, v) standing for (u + v gamma) / s.
_AFFINE = (
    (1, ((1, 0), (0, 1), (0, 0), (1, 0))),
    (2, ((1, 1), (-1, 3), (1, 0), (3, 0))),
    (2, ((3, 1), (-1, 1), (1, 0), (1, 0))),
    (2, ((1, 3), (-1, 1), (3, 0), (1, 0))),
    (2, ((1, 1), (-3, 1), (1, 0), (1, 0))),
    (5, ((4, 3), (-3, 4), (3, 0), (4, 0))),
)


def _affine(gamma, table=_AFFINE) -> tuple[int, list[Mat2]]:
    """(d, matrices): d times each matrix of ``table`` at gamma.

    Rational gamma = p/q gives d = 10q and the ints (10/s)(uq + vp); float
    gamma gives d = 1 and the floats (u + v gamma) * (1/s), multiplied by
    the float 1/s rather than divided by s, which fixes their last bits.
    """
    if isinstance(gamma, float):
        return 1, [Mat2(*[(u + v * gamma) * (1 / s) for u, v in uvs]) for s, uvs in table]
    p, q = gamma.numerator, gamma.denominator
    return 10 * q, [Mat2(*[10 // s * (u * q + v * p) for u, v in uvs]) for s, uvs in table]


def _over(M: Mat2, d: int) -> Mat2:
    """The int matrix M divided by d, as ``Fraction``s."""
    return Mat2(Fraction(M.a11, d), Fraction(M.a12, d), Fraction(M.a21, d), Fraction(M.a22, d))


def boundary_matrix(gamma) -> Mat2:
    """Affine boundary strain of the construction."""
    d, (F,) = _affine(gamma, _AFFINE[-1:])
    return F if isinstance(gamma, float) else _over(F, d)


def build(gamma, pre_rotation: Optional[Mat2] = None) -> ShearSquareBuild:
    """Assemble the nine-cell map for a shear parameter gamma.

    ``gamma`` may be a float, int or ``Fraction``; exact inputs give an
    exactly verifiable build.  ``pre_rotation`` left-multiplies every
    cell gradient by a rotation, which rotates the boundary strain the
    same way.  Raises ``GammaOutOfRange`` if |gamma| > sqrt(3) - 1, where
    a cell would leave its strain set.
    """
    gamma = _checked_gamma(gamma)
    # A rational map is assembled on ints over one common denominator d, so
    # the walk below adds no Fractions; each entry is divided back at the end.
    d, mats = _affine(gamma)
    exact = not isinstance(gamma, float)
    if pre_rotation is not None:
        R = pre_rotation
        scaled = _one_denominator([R.a11, R.a12, R.a21, R.a22]) if exact else None
        if scaled:
            r, entries = scaled
            R, d = Mat2(*entries), d * r  # (r R)(d A) = r d R A
        elif exact:  # a float rotation: the exact gradients times its floats
            mats, d, exact = [_over(M, d) for M in mats], 1, False
        mats = [R @ M for M in mats]
    grads = {name: (mats[i].a11, mats[i].a12, mats[i].a21, mats[i].a22)
             for name, i in _GRADIENT_OF_CELL.items()}
    zero = 0 * mats[0].a11

    # Translations follow from continuity: walk the interfaces from S and
    # match values at a shared vertex; finally shift so v(0,0) = (0,0).
    b = {"S": (zero, zero)}
    for cur, nxt, p in _WALK:
        (x, y), (ax, ay) = _apply(grads[cur] + b[cur], p, 1), _apply(grads[nxt], p)
        b[nxt] = (x - ax, y - ay)
    x0, y0 = _apply(grads["T1"] + b["T1"], (zero, zero), 1)
    b = {name: (x - x0, y - y0) for name, (x, y) in b.items()}
    if exact:
        mats = [_over(M, d) for M in mats]
        b = {name: (Fraction(x, d), Fraction(y, d)) for name, (x, y) in b.items()}

    cells = tuple(Cell(name=name, vertices=vv, A=mats[_GRADIENT_OF_CELL[name]], b=Vec2(*b[name]))
                  for name, vv in _CELL_VECS.items())
    return ShearSquareBuild(gamma=gamma, map=PwAffineMap(cells=cells), F_gamma=mats[-1])


def _one_denominator(xs: list) -> Optional[tuple[int, list]]:
    """(D, [D x for x in xs]) for the least common denominator D of xs, the
    products as ints; None unless every x is an int or a ``Fraction``."""
    if not all(isinstance(x, (int, Fraction)) for x in xs):
        return None
    ratios = [x.as_integer_ratio() for x in xs]
    d = math.lcm(*[q for _, q in ratios])
    return d, [p * (d // q) for p, q in ratios]


_CHECKS = ("continuity", "determinant", "membership", "boundary_trace", "rank_one_jumps")


class VerificationReport(FrozenValue):
    """Outcome of the five structural checks on a build."""

    __slots__ = _fields = (*_CHECKS, "failures")

    def __init__(self, continuity: bool, determinant: bool, membership: bool,
                 boundary_trace: bool, rank_one_jumps: bool, failures: tuple[str, ...] = ()):
        object.__setattr__(self, "continuity", continuity)
        object.__setattr__(self, "determinant", determinant)
        object.__setattr__(self, "membership", membership)
        object.__setattr__(self, "boundary_trace", boundary_trace)
        object.__setattr__(self, "rank_one_jumps", rank_one_jumps)
        object.__setattr__(self, "failures", failures)

    @property
    def all_passed(self) -> bool:
        return all(getattr(self, name) for name in _CHECKS)

    def as_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in _CHECKS}, "all_passed": self.all_passed}


def verify(build_: ShearSquareBuild, tol: Optional[float] = None) -> VerificationReport:
    """Run the five checks, on ints for a rational build.

    A build is rational when every entry of its cells' A and b and of
    F_gamma is an int or a ``Fraction``.  At tol = 0, its default, each
    entry is then multiplied once by D, the least common multiple of their
    denominators, and each check is an identity between ints.  D is read off
    the built map, so the check stays independent of ``build``.  A float or
    mixed build, or any tol > 0, is checked on its own entries (D = 1), each
    residual within tol (default ``mat2.DEFAULT_TOL``).  tol must be None or
    finite and >= 0 (``DomainError`` otherwise).

    (a) continuity, D(A1 v + b1) = D(A2 v + b2) at both ends v of every
    internal interface; (b) det(DA) = D^2 on every cell; (c) strain-set
    membership per ``GRAIN_OF_CELL``, (b) and |DA s|^2 <= D^2 (1 + tol)^2
    with the slip s an integer column; (d) the boundary trace x -> F_gamma x
    at the start corner and the two interior third points p of each domain
    edge, in the one cell owning that edge, on the integer point 3p:
    DA(3p) + 3Db = DF(3p) within 3 tol; (e) gradient jumps annihilate the
    edge direction (rank-one with the edge normal): D(A1 - A2)(q - p) = 0.
    """
    if tol is not None and not 0 <= tol < math.inf:
        raise DomainError(f"tol must be None or finite and >= 0, got {tol!r}")
    entries, scaled = _lifted(build_)
    if tol is None:
        tol = 0 if scaled else DEFAULT_TOL
    d = 1
    if scaled and tol == 0:
        d, entries = scaled
        tol = 0  # an int, so D^2 (1 + tol)^2 stays exact
    rows = {c.name: entries[6 * i:6 * i + 6] for i, c in enumerate(build_.map.cells)}
    failed = []  # (check, failure string), in the report's order

    for n1, n2, p, q in _INTERFACES:
        r1, r2 = rows[n1], rows[n2]
        if not (_within(_apply(r1, p, 1), _apply(r2, p, 1), tol)
                and _within(_apply(r1, q, 1), _apply(r2, q, 1), tol)):
            failed.append(("continuity", f"continuity: {n1}|{n2}"))
        jump = (r1[0] - r2[0], r1[1] - r2[1], r1[2] - r2[2], r1[3] - r2[3])
        if not _within(_apply(jump, (q[0] - p[0], q[1] - p[1])), (0, 0), tol):
            failed.append(("rank_one_jumps", f"jump: {n1}|{n2}"))

    unit2 = d * d * (1 + tol) * (1 + tol)
    for name, row in rows.items():
        det_ok = abs(row[0] * row[3] - row[1] * row[2] - d * d) <= tol
        if not det_ok:
            failed.append(("determinant", f"det: {name}"))
        x, y = _apply(row, (1, 0) if GRAIN_OF_CELL[name] == "e1" else (0, 1))
        if not (det_ok and x * x + y * y <= unit2):
            failed.append(("membership", f"membership: {name}"))

    F = entries[-4:]
    for owner, q in _TRACE_POINTS:
        if not _within(_apply(rows[owner], q, 3), _apply(F, q), 3 * tol):
            failed.append(("boundary_trace", f"boundary trace at {(q[0] / 3, q[1] / 3)}"))

    failing = {check for check, _ in failed}
    return VerificationReport(*(check not in failing for check in _CHECKS),
                              failures=tuple(message for _, message in failed))


def _within(u: tuple, w: tuple, tol) -> bool:
    """|u - w| <= tol in each coordinate, compared exactly; False for NaN."""
    return abs(u[0] - w[0]) <= tol and abs(u[1] - w[1]) <= tol


def average_gradient(build_: ShearSquareBuild) -> Mat2:
    """Area-weighted mean of the cell gradients; equals F_gamma.

    Sums each cell's DA on the lift times twice its area, then makes one
    ``Fraction`` per entry over D times twice the total area; a float build
    sums its own entries and multiplies by the float 1/(twice the total).
    """
    entries, scaled = _lifted(build_)
    d, xs = scaled or (1, entries)
    sums, twice_total = None, 0
    for i, cell in enumerate(build_.map.cells):
        w = _TWICE_AREA[cell.name]
        terms = [x * w for x in xs[6 * i:6 * i + 4]]
        sums = terms if sums is None else [s + t for s, t in zip(sums, terms)]
        twice_total += w
    if scaled:
        return Mat2(*[Fraction(s, d * twice_total) for s in sums])
    return Mat2(*[s * (1 / twice_total) for s in sums])


def grain_components(build_: ShearSquareBuild) -> list[tuple[str, frozenset]]:
    """Connected components of the cell grain assignment.

    Two cells are joined when they share an edge and carry the same slip
    direction; the components are the grains of the induced polycrystal.
    """
    joined = tuple(e for e in _INTERFACES if GRAIN_OF_CELL[e[0]] == GRAIN_OF_CELL[e[1]])
    comps = []
    for c in build_.map.cells:
        if all(c.name not in comp for _, comp in comps):
            walk = _walk(c.name, joined)
            comps.append((GRAIN_OF_CELL[c.name], frozenset((c.name, *(n for _, n, _ in walk)))))
    return comps


#: Whether the Taylor bound of the texture {e1, e2} is the rotations alone.
_TAYLOR_TRIVIAL = is_trivial(normalize([0.0, math.pi / 2]))


def conclusion(gamma) -> dict:
    """Summary flags: trivial bound, rotation boundary value, separation.  F_in_SO2 is
    gamma == 0, as |F_gamma e1|^2 - 1 = (9 gamma^2 + 24 gamma)/25 in range."""
    f_in_so2 = _checked_gamma(gamma) == 0
    return {
        "taylor_trivial": _TAYLOR_TRIVIAL,
        "F_in_SO2": f_in_so2,
        "separates": _TAYLOR_TRIVIAL and not f_in_so2,
    }


def _image(lift: list, d, i: int, v: Vec2) -> tuple[float, float]:
    """Cell i's image of v as floats, (DA v + Db) / D on the lift: int true
    division rounds correctly; on a float build (D = 1) it is ``Cell.value``'s A v + b."""
    x, y = _apply(lift[6 * i:6 * i + 6], (v.x, v.y), 1)
    return x / d, y / d


def render_svg(build_: ShearSquareBuild) -> str:
    """Reference and deformed configurations side by side, colored by grain."""
    pam = build_.map
    corners = [Vec2(float(x), float(y)) for x, y in DOMAIN_CORNERS]
    ref_pts = [v for c in pam.cells for v in c.vertices]
    entries, scaled = _lifted(build_)
    d, lift = scaled or (1, entries)
    images = [[_image(lift, d, i, v) for v in c.vertices] for i, c in enumerate(pam.cells)]
    def_pts = [p for cell_images in images for p in cell_images]
    xs = [float(p.x) for p in ref_pts]
    ys = [float(p.y) for p in ref_pts] + [y for _, y in def_pts]
    dxs = [x for x, _ in def_pts]
    shift = max(xs) - min(dxs) + 1.0
    canvas = SvgCanvas(min(xs) - 0.2, min(ys) - 0.2,
                       max(dxs) + shift + 0.2, max(ys) + 0.2, width=900)
    fill = {"e1": "#f4a442", "e2": "#4d9fd6"}
    for c, cell_images in zip(pam.cells, images):
        color = fill[GRAIN_OF_CELL[c.name]]
        canvas.polygon([p.to_floats() for p in c.vertices], fill=color,
                       stroke="black", stroke_width=0.02, opacity=0.9)
        canvas.polygon([(x + shift, y) for x, y in cell_images], fill=color,
                       stroke="black", stroke_width=0.02, opacity=0.9)
    canvas.polygon([p.to_floats() for p in corners], fill="none",
                   stroke="black", stroke_width=0.04)
    return canvas.render()


def mesh_dict(build_: ShearSquareBuild) -> dict:
    """Reference and deformed vertex lists with cell connectivity."""
    entries, scaled = _lifted(build_)
    d, lift = scaled or (1, entries)
    index: dict[tuple, int] = {}
    ref: list[list[float]] = []
    deformed: list[list[float]] = []
    cells_out = []
    for i, cell in enumerate(build_.map.cells):
        ids = []
        for v in cell.vertices:
            key = (v.x, v.y)
            if key not in index:
                index[key] = len(ref)
                ref.append([float(v.x), float(v.y)])
                deformed.append(list(_image(lift, d, i, v)))
            ids.append(index[key])
        cells_out.append({"name": cell.name, "vertices": ids,
                          "grain": GRAIN_OF_CELL[cell.name]})
    return {
        "gamma": float(build_.gamma),
        "boundary_matrix": build_.F_gamma.to_rows(),
        "vertices_reference": ref,
        "vertices_deformed": deformed,
        "cells": cells_out,
    }
