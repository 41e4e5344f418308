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
``_AFFINE``.  With rational gamma = p/q, and a rational pre-rotation if
any, the map is rational: ``build`` forms the gradients as ints in p and q
and assembles the map on ints.  Each build's map is lifted once to ints
over one common denominator D, the least common multiple of the
denominators of every cell's A and b and of F_gamma, read off the built
map alone.  ``verify`` checks continuity, incompressibility, membership,
boundary trace and the jump conditions on that lift as identities between
ints: zero arithmetic error.  ``average_gradient`` sums the same lift, and
``mesh_dict`` and ``render_svg`` evaluate each vertex on it, each float
the one nearest the exact value.  Float and mixed builds take the same
steps on their own entries (D = 1) and keep the tolerance semantics, as
does any tol > 0.  The cell layout does not depend on gamma: its
interfaces, areas, the translation walk and the one cell owning each
domain edge (where the boundary trace is probed) are derived once at import.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional

from .errors import GammaOutOfRange
from .mat2 import FrozenValue, Mat2, Vec2, is_SO2
from .slip import image_norm2
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

#: ``_INTERFACES`` with the common vertices as integer vectors.
_INTERFACE_VECS = tuple((n1, n2, Vec2(*p), Vec2(*q)) for n1, n2, p, q in _INTERFACES)

#: The vertices of each cell as integer vectors.
_CELL_VECS = {name: tuple(Vec2(x, y) for x, y in vv) for name, vv in _CELL_VERTICES.items()}

#: Index into ``_AFFINE`` of each cell's gradient.
_GRADIENT_OF_CELL = {"S": 0, "T1": 1, "T5": 1, "T3": 2, "T7": 2, "T2": 3, "T6": 3, "T4": 4, "T8": 4}


def _translation_walk() -> tuple:
    """(cell, next cell, common vertex) steps reaching every cell from S across interfaces."""
    seen, queue, steps = {"S"}, ["S"], []
    while queue:
        cur = queue.pop()
        for n1, n2, p, _ in _INTERFACE_VECS:
            nxt = n2 if n1 == cur else n1 if n2 == cur else None
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                steps.append((cur, nxt, p))
                queue.append(nxt)
    return tuple(steps)


_WALK = _translation_walk()

#: Twice the area of each cell (the shoelace sum), an int.
_TWICE_AREA = {name: sum(v.cross(w) for v, w in zip(vv, vv[1:] + vv[:1]))
               for name, vv in _CELL_VECS.items()}

#: (cell, 3p) for the start corner and the two interior third points p of each
#: domain edge; 3p is an integer vector.
_TRACE_POINTS = tuple((owner, Vec2(3 * ax + k * (bx - ax), 3 * ay + k * (by - ay)))
                      for (ax, ay), (bx, by), owner in _EDGE_OWNERS for k in range(3))

#: The slip direction of each grain as an integer column.
_SLIP = {"e1": Vec2(1, 0), "e2": Vec2(0, 1)}


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
        return [(by_name[n1], by_name[n2], p, q) for n1, n2, p, q in _INTERFACE_VECS]


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
    """gamma with integral floats made int; GammaOutOfRange beyond sqrt(3) - 1."""
    if isinstance(gamma, float) and gamma.is_integer():
        gamma = int(gamma)
    g = abs(gamma)
    slack = 1e-12 if isinstance(gamma, float) else 0
    if not (1 + g) ** 2 <= 3 * (1 + slack):
        size = float(g) if g <= sys.float_info.max else math.inf
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
    grads = {name: mats[i] for name, i in _GRADIENT_OF_CELL.items()}
    zero = Vec2(0 * mats[0].a11, 0 * mats[0].a11)

    # Translations follow from continuity: walk the interfaces from S and
    # match values at a shared vertex; finally shift so v(0,0) = (0,0).
    b = {"S": zero}
    for cur, nxt, p in _WALK:
        b[nxt] = (grads[cur] @ p + b[cur]) - grads[nxt] @ p
    v00 = grads["T1"] @ zero + b["T1"]
    b = {name: bb - v00 for name, bb in b.items()}
    if exact:
        mats = [_over(M, d) for M in mats]
        b = {name: Vec2(Fraction(bb.x, d), Fraction(bb.y, d)) for name, bb in b.items()}

    cells = tuple(Cell(name=name, vertices=vv, A=mats[_GRADIENT_OF_CELL[name]], b=b[name])
                  for name, vv in _CELL_VECS.items())
    return ShearSquareBuild(gamma=gamma, map=PwAffineMap(cells=cells), F_gamma=mats[-1])


def _one_denominator(xs: list) -> Optional[tuple[int, list]]:
    """(D, [D x for x in xs]) for the least common denominator D of xs, the
    products as ints; None unless every x is an int or a ``Fraction``."""
    if not all(isinstance(x, (int, Fraction)) for x in xs):
        return None
    d = math.lcm(*[x.denominator for x in xs])
    return d, [x.numerator * (d // x.denominator) for x in xs]


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
    residual within tol (default 1e-9).

    (a) continuity, D(A1 v + b1) = D(A2 v + b2) at both ends v of every
    internal interface; (b) det(DA) = D^2 on every cell; (c) strain-set
    membership per ``GRAIN_OF_CELL``, (b) and |DA s|^2 <= D^2 (1 + tol)^2
    with the slip s an integer column; (d) the boundary trace x -> F_gamma x
    at the start corner and the two interior third points p of each domain
    edge, in the one cell owning that edge, on the integer point 3p:
    DA(3p) + 3Db = DF(3p) within 3 tol; (e) gradient jumps annihilate the
    edge direction (rank-one with the edge normal): D(A1 - A2)(q - p) = 0.
    """
    cells = build_.map.cells
    entries, scaled = _lifted(build_)
    if tol is None:
        tol = 0 if scaled else 1e-9
    d = 1
    if scaled and tol == 0:
        d, entries = scaled
        tol = 0  # an int, so D^2 (1 + tol)^2 stays exact
    A, b = {}, {}
    for i, c in enumerate(cells):
        a11, a12, a21, a22, bx, by = entries[6 * i:6 * i + 6]
        A[c.name], b[c.name] = Mat2(a11, a12, a21, a22), Vec2(bx, by)
    F = Mat2(*entries[-4:])
    failures = []

    continuity = True
    jumps = True
    for n1, n2, p, q in _INTERFACE_VECS:
        if not all(_within(A[n1] @ v + b[n1] - (A[n2] @ v + b[n2]), tol) for v in (p, q)):
            continuity = False
            failures.append(f"continuity: {n1}|{n2}")
        if not _within((A[n1] - A[n2]) @ (q - p), tol):
            jumps = False
            failures.append(f"jump: {n1}|{n2}")

    determinant = True
    membership = True
    unit2 = d * d * (1 + tol) * (1 + tol)
    for name, a in A.items():
        det_ok = abs(a.det() - d * d) <= tol
        if not det_ok:
            determinant = False
            failures.append(f"det: {name}")
        if not (det_ok and image_norm2(a, _SLIP[GRAIN_OF_CELL[name]]) <= unit2):
            membership = False
            failures.append(f"membership: {name}")

    boundary = True
    for owner, q in _TRACE_POINTS:
        if not _within(A[owner] @ q + b[owner] * 3 - F @ q, 3 * tol):
            boundary = False
            failures.append(f"boundary trace at {(q.x / 3, q.y / 3)}")  # the floats nearest p

    return VerificationReport(continuity=continuity, determinant=determinant,
                              membership=membership, boundary_trace=boundary,
                              rank_one_jumps=jumps, failures=tuple(failures))


def _within(v: Vec2, tol) -> bool:
    """|v.x| <= tol and |v.y| <= tol, compared exactly; False for NaN."""
    return abs(v.x) <= tol and abs(v.y) <= tol


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
    neighbors = {c.name: set() for c in build_.map.cells}
    for n1, n2, _, _ in _INTERFACES:
        if GRAIN_OF_CELL[n1] == GRAIN_OF_CELL[n2]:
            neighbors[n1].add(n2)
            neighbors[n2].add(n1)
    seen = set()
    comps = []
    for name in neighbors:
        if name in seen:
            continue
        stack, comp = [name], set()
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(neighbors[cur] - comp)
        seen |= comp
        comps.append((GRAIN_OF_CELL[name], frozenset(comp)))
    return comps


#: Whether the Taylor bound of the texture {e1, e2} is the rotations alone.
_TAYLOR_TRIVIAL = is_trivial(normalize([0.0, math.pi / 2]))


def conclusion(gamma) -> dict:
    """Summary flags: trivial bound, rotation boundary value, separation."""
    gamma = _checked_gamma(gamma)
    taylor_trivial = _TAYLOR_TRIVIAL
    if isinstance(gamma, float):
        f_in_so2 = is_SO2(boundary_matrix(gamma), 1e-12)
    else:
        f_in_so2 = gamma == 0
    return {
        "taylor_trivial": taylor_trivial,
        "F_in_SO2": f_in_so2,
        "separates": taylor_trivial and not f_in_so2,
    }


def _image(lift: list, d, i: int, v: Vec2) -> tuple[float, float]:
    """Cell i's image of v as floats, (DA v + Db) / D on the lift: int true
    division rounds correctly; on a float build (D = 1) it is ``Cell.value``'s A v + b."""
    a11, a12, a21, a22, bx, by = lift[6 * i:6 * i + 6]
    return (a11 * v.x + a12 * v.y + bx) / d, (a21 * v.x + a22 * v.y + by) / d


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
