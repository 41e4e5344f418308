"""Polycrystal geometry and outer bounds from boundary compatibility.

A polycrystal is a planar domain partitioned into grains, each carrying a
texture angle in [0, pi) that rotates the reference slip direction e1.
Boundaries are closed, positively oriented loops of line segments and
circular arcs, which keeps outward normals in closed form while covering
every construction used here (polygonal domains, disks cut by chords or
radii).

Two outer bounds on the attainable affine boundary strains are computed
from rank-one compatibility along the domain boundary:

* the full bound asks for compatibility at every non-dual boundary point
  (``outer_bound_full_member``); it is decided exactly, per boundary curve,
  by the rank-one inequality of ``compat._clears``: on a segment's edge
  vector, on an arc's end normals, and by whether an arc's normals hold the
  line about which the forbidden normals lie,
* the perpendicular-point bound only uses points where the outward
  normal is orthogonal to the local slip direction; there compatibility
  degenerates to plain strain-set membership, so the bound is a finite
  intersection of relaxed sets (``outer_bound_perp``).

Both bounds test that membership, |Fs| <= 1 + tol, on |Fs|^2 through its
one home ``mat2.norm2_at_most_one``, so the full bound lies inside the
perpendicular-point bound at every tol.  Both rest on ``analyze_boundary``,
which is computed once per polycrystal and angular tolerance and kept on the
(immutable) polycrystal; every entry point then shares that one read-only
result.  ``boundary_samples`` and ``compatible_with_normals`` test
compatibility at sampled normals instead, through the same inequality; they
are the only users of numpy here.

Grain boundary curves must be split wherever they transition between the
domain boundary and the interior; each curve is classified as a whole: it
lies on the domain boundary when it is longer than POS_TOL and shares all of
its length but POS_TOL with the domain curves (``curve_overlap_length``,
which is 0 between a segment and an arc, however flat the arc).

Arcs fix their sweep, endpoints and the (cos, sin) of both ends when they are
built; the checks of a new polycrystal and the analysis then work on plain
float coordinates.  Shared lengths are measured only between curves whose
boxes meet (``_box_pairs``), and endpoints and perpendicular points meet in
one grid of cells of side 2 POS_TOL (``_near``), so the analysis is linear in
the boundary curves unless many curve boxes overlap along the sweep's axis.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Union

from .compat import _clears
from .errors import DomainError, InvalidPolycrystal
from .mat2 import (ANGULAR_TOL, DEFAULT_TOL, FrozenValue, Mat2, Vec2, is_sl2, length, mod_pi,
                   norm2_at_most_one, require_sl2)
from .slip import image_norm2, slip_direction

if TYPE_CHECKING:
    import numpy as np

TAU = 2.0 * math.pi

#: Positional tolerance for coincidence of points and curves.
POS_TOL = 1e-9


def _wrap(x: float, period: float) -> float:
    """x reduced mod period into [0, period]; period itself only by roundoff."""
    r = math.fmod(x, period)
    return r + period if r < 0 else r


# ---------------------------------------------------------------------------
# boundary curves
# ---------------------------------------------------------------------------

class Segment(FrozenValue):
    """Straight boundary piece from p to q."""

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: Vec2, q: Vec2):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def start(self) -> Vec2:
        return self.p

    @property
    def end(self) -> Vec2:
        return self.q

    def length(self) -> float:
        return (self.q - self.p).norm()

    def point_at(self, u: float) -> Vec2:
        return self.p + (self.q - self.p) * u

    def normal_at(self, u: float) -> Vec2:
        """Outward normal, assuming the curve runs counterclockwise."""
        d = (self.q - self.p).unit()
        return Vec2(d.y, -d.x)

    def rotated(self, phi: float) -> "Segment":
        R = Mat2.rotation(phi)
        return Segment(R @ self.p, R @ self.q)


class Arc(FrozenValue):
    """Circular boundary piece.

    The sweep runs from ``from_angle`` to ``to_angle`` in the orientation
    given by ``ccw``; a full circle is encoded by a sweep of 2*pi (e.g.
    from 0 to 2*pi counterclockwise).
    """

    # fixed at construction: _sweep, the endpoints _start and _end, and _trig, the
    # (cos, sin) of angle_at(0.0) and of angle_at(1.0) that give them
    __slots__ = ("center", "radius", "from_angle", "to_angle", "ccw", "_sweep", "_start", "_end",
                 "_trig")
    _fields = __slots__[:5]

    def __init__(self, center: Vec2, radius: float, from_angle: float, to_angle: float,
                 ccw: bool = True):
        put = object.__setattr__
        put(self, "center", center)
        put(self, "radius", radius)
        put(self, "from_angle", from_angle)
        put(self, "to_angle", to_angle)
        put(self, "ccw", ccw)
        if radius <= 0:
            raise InvalidPolycrystal(f"arc radius {radius!r} must be positive")
        raw = to_angle - from_angle if ccw else from_angle - to_angle
        s = _wrap(raw, TAU)
        if abs(raw) > math.pi and s <= 4.0 * math.ulp(abs(from_angle) + abs(to_angle)):
            s = TAU  # a full turn, also when its end angle rounded past it (phi, phi + 2 pi)
        put(self, "_sweep", s)
        t0, t1 = self.angle_at(0.0), self.angle_at(1.0)
        c0, s0, c1, s1 = trig = (math.cos(t0), math.sin(t0), math.cos(t1), math.sin(t1))
        put(self, "_trig", trig)
        put(self, "_start", self._toward(c0, s0))
        put(self, "_end", self._toward(c1, s1))

    def sweep(self) -> float:
        return self._sweep

    def length(self) -> float:
        return self.radius * self._sweep

    def angle_at(self, u: float) -> float:
        step = self._sweep * u
        return self.from_angle + (step if self.ccw else -step)

    def point_at(self, u: float) -> Vec2:
        t = self.angle_at(u)
        return self._toward(math.cos(t), math.sin(t))

    def _toward(self, c: float, s: float) -> Vec2:
        """center + radius (c, s): the point in the direction with cosine c and sine s."""
        return Vec2(self.center.x + c * self.radius, self.center.y + s * self.radius)

    @property
    def start(self) -> Vec2:
        return self._start

    @property
    def end(self) -> Vec2:
        return self._end

    def normal_at(self, u: float) -> Vec2:
        """Outward normal for a counterclockwise loop: radial for ccw arcs."""
        t = self.angle_at(u)
        n = Vec2(math.cos(t), math.sin(t))
        return n if self.ccw else -n

    def ccw_span(self) -> tuple[float, float]:
        """``(start, sweep)``: the swept angles read counterclockwise from start."""
        sweep = self._sweep
        return (self.from_angle if self.ccw else self.from_angle - sweep), sweep

    def covers_angle(self, t: float, tol: float = ANGULAR_TOL) -> bool:
        """Whether direction t (mod 2 pi) lies within the swept range."""
        start, sweep = self.ccw_span()
        d = _wrap(t - start, TAU)
        return d <= sweep + tol or d >= TAU - tol

    def rotated(self, phi: float) -> "Arc":
        return Arc(Mat2.rotation(phi) @ self.center, self.radius,
                   self.from_angle + phi, self.to_angle + phi, self.ccw)


Curve = Union[Segment, Arc]


def _loop_area(curves) -> float:
    """Signed area enclosed by a closed curve loop (Green's theorem)."""
    total = 0.0
    for c in curves:
        if isinstance(c, Segment):
            total += 0.5 * float(c.p.cross(c.q))
        else:
            # _trig is at from_angle (+0.0 for -0.0, which leaves both differences) and + sw
            c0, s0, c1, s1 = c._trig
            sw = c.sweep() * (1.0 if c.ccw else -1.0)
            r, cx, cy = c.radius, float(c.center.x), float(c.center.y)
            total += 0.5 * (r * r * sw + cx * r * (s1 - s0) - cy * r * (c1 - c0))
    return total


def _check_closed(curves, what: str) -> None:
    if not curves:
        raise InvalidPolycrystal(f"{what}: empty boundary loop")
    for c, d in zip(curves, curves[1:] + [curves[0]]):
        e, s = c.end, d.start
        if (e.x != s.x or e.y != s.y) and _norm(e.x - s.x, e.y - s.y) > POS_TOL:
            raise InvalidPolycrystal(f"{what}: loop does not close at {e.to_floats()}")


def _norm(dx: float, dy: float) -> float:
    """|(dx, dy)| on plain floats, by ``mat2.length`` as in ``Vec2.norm``."""
    return length(dx, dy, dx * dx + dy * dy)


# ---------------------------------------------------------------------------
# shared length of two curves
# ---------------------------------------------------------------------------

def _segment_overlap_length(a: Segment, b: Segment) -> float:
    ax, ay, bx, by = a.p.x, a.p.y, b.p.x, b.p.y
    dax, day, dbx, dby = a.q.x - ax, a.q.y - ay, b.q.x - bx, b.q.y - by
    la, lb = _norm(dax, day), _norm(dbx, dby)
    if la < POS_TOL or lb < POS_TOL:
        return 0.0
    k = 1.0 / la
    ux, uy = dax * k, day * k  # a's unit direction
    if abs(ux * dby - uy * dbx) > POS_TOL * max(1.0, lb):  # directions not parallel
        return 0.0
    px, py, qx, qy = bx - ax, by - ay, b.q.x - ax, b.q.y - ay  # b's ends from a.p
    if abs(ux * py - uy * px) > POS_TOL or abs(ux * qy - uy * qx) > POS_TOL:
        return 0.0  # either end of b off a's line
    t1, t2 = ux * px + uy * py, ux * qx + uy * qy
    lo, hi = min(t1, t2), max(t1, t2)
    return max(0.0, min(hi, la) - max(lo, 0.0))


def _arc_overlap_length(a: Arc, b: Arc) -> float:
    ca, cb = a.center, b.center
    if _norm(ca.x - cb.x, ca.y - cb.y) > POS_TOL or abs(a.radius - b.radius) > POS_TOL:
        return 0.0
    lo_a, sweep_a = a.ccw_span()
    lo_b, sweep_b = b.ccw_span()
    # circular interval intersection in radians, counted from a's start:
    # b starts at d in [0, 2 pi], and its copy one turn back may meet a too
    d = _wrap(lo_b - lo_a, TAU)
    overlap = 0.0
    for start in (d, d - TAU):
        overlap += max(0.0, min(sweep_a, start + sweep_b) - max(0.0, start))
    return overlap * a.radius


def curve_overlap_length(a: Curve, b: Curve) -> float:
    """Length of the common portion of two curves (0 for mixed kinds)."""
    if isinstance(a, Segment) and isinstance(b, Segment):
        return _segment_overlap_length(a, b)
    if isinstance(a, Arc) and isinstance(b, Arc):
        return _arc_overlap_length(a, b)
    return 0.0


# ---------------------------------------------------------------------------
# polycrystal data model
# ---------------------------------------------------------------------------

class Grain(FrozenValue):
    """A grain: a closed ccw boundary loop plus a texture angle in [0, pi)."""

    __slots__ = _fields = ("id", "boundary", "theta")

    def __init__(self, id: int, boundary: tuple[Curve, ...], theta: float):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "theta", theta)

    def slip(self) -> Vec2:
        return slip_direction(self.theta)

    def area(self) -> float:
        return _loop_area(list(self.boundary))


class Polycrystal(FrozenValue):
    """Domain boundary loop plus grains partitioning the domain.

    ``_by_id`` maps grain ids to grains; ``_analyses`` maps angular_tol to
    the ``BoundaryAnalysis`` that ``analyze_boundary`` keeps.  A pickle
    holds the curves only: the analyses' read-only views do not pickle.
    """

    __slots__ = ("domain", "grains", "_by_id", "_analyses")
    _fields = ("domain", "grains")

    def __init__(self, domain: tuple[Curve, ...], grains: tuple[Grain, ...]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "grains", grains)
        self.__post_init__()

    def __post_init__(self):
        """The validation, run by ``__init__`` once the fields are set; fills the caches."""
        _check_closed(list(self.domain), "domain")
        dom_area = _loop_area(list(self.domain))
        if not math.isfinite(dom_area):
            raise InvalidPolycrystal(f"domain area {dom_area!r} is not finite")
        if dom_area <= 0:
            raise InvalidPolycrystal("domain loop must be counterclockwise")
        if not self.grains:
            raise InvalidPolycrystal("polycrystal needs at least one grain")
        by_id = {g.id: g for g in self.grains}
        if len(by_id) != len(self.grains):
            raise InvalidPolycrystal("grain ids must be unique")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_analyses", {})
        total = 0.0
        for g in self.grains:
            _check_closed(list(g.boundary), f"grain {g.id}")
            a = g.area()
            if not math.isfinite(a):
                raise InvalidPolycrystal(f"grain {g.id}: area {a!r} is not finite")
            if a <= 0:
                raise InvalidPolycrystal(f"grain {g.id}: loop must be counterclockwise")
            if a <= math.ulp(dom_area):  # a sign that rounding in a rotated copy could flip
                raise InvalidPolycrystal(f"grain {g.id}: area {a!r} is below rounding")
            if not 0.0 <= g.theta < math.pi:
                raise InvalidPolycrystal(f"grain {g.id}: theta outside [0, pi)")
            total += a
        if not abs(total - dom_area) <= 1e-6 * dom_area:  # also when the sum overflows
            raise InvalidPolycrystal(f"grain areas sum to {total!r}, domain area is {dom_area!r}")
        pairs = _adjacent_equal_texture_pairs(self.grains)
        if pairs:
            g, h = (self.grains[k] for k in pairs[0])
            raise InvalidPolycrystal(f"adjacent grains {g.id} and {h.id} share texture angle")

    def grain_by_id(self, gid: int) -> Grain:
        return self._by_id[gid]

    def texture_angles(self) -> list[float]:
        return [g.theta for g in self.grains]

    def rotated(self, phi: float) -> "Polycrystal":
        """The polycrystal rotated rigidly by phi (textures co-rotate, into [0, pi)).

        phi is first reduced by the exact fmod(phi, TAU), so arc angles keep their bits.
        """
        phi = math.fmod(phi, TAU)
        return Polycrystal(
            domain=tuple(c.rotated(phi) for c in self.domain),
            grains=tuple(Grain(g.id, tuple(c.rotated(phi) for c in g.boundary),
                               mod_pi(g.theta + phi)) for g in self.grains),
        )


def _textures_equal(a: float, b: float) -> bool:
    d = abs(a - b)
    return d <= DEFAULT_TOL or abs(d - math.pi) <= DEFAULT_TOL


def _adjacent_equal_texture_pairs(grains) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of adjacent grains that ``_textures_equal``.

    Subtraction is monotone, so equal textures share a run of sorted angles whose neighbours
    are equal (the first and last runs joined if the ends are equal across pi).  A run of two
    or more grains sweeps its boxes, widened by POS_TOL, once (``_box_pairs``): its equal
    textures whose boxes meet reach ``_grains_adjacent``."""
    thetas = [g.theta for g in grains]
    runs: list[list[int]] = []
    for i in sorted(range(len(thetas)), key=thetas.__getitem__):
        if runs and _textures_equal(thetas[runs[-1][-1]], thetas[i]):
            runs[-1].append(i)
        else:
            runs.append([i])
    if len(runs) > 1 and _textures_equal(thetas[runs[0][0]], thetas[runs[-1][-1]]):
        runs[0] += runs.pop()
    near = []
    for run in (r for r in runs if len(r) > 1):
        boxes = {}
        for i in run:
            x0s, y0s, x1s, y1s = zip(*map(_curve_box, grains[i].boundary))
            boxes[i] = (min(x0s), min(y0s), max(x1s), max(y1s))
        near += [(min(i, k), max(i, k)) for i, k in _box_pairs(boxes, 2.0 * POS_TOL)
                 if _textures_equal(thetas[i], thetas[k])]
    return [(i, j) for i, j in sorted(near) if _grains_adjacent(grains[i], grains[j])]


def _box_pairs(boxes: dict, gap: float, split: Optional[int] = None) -> list[tuple]:
    """Pairs of keys of ``boxes`` ((x0, y0, x1, y1) each) whose boxes lie within gap;
    given ``split``, only the pairs of a key below it with a key at or above it.

    A sweep along the axis in which the boxes are thinner in sum, dropping those whose
    upper end it has passed: the cost grows with the boxes overlapping along it.  Without
    ``split`` all keys are on one side; each box meets the active boxes of the other."""
    widths, heights = (sum(b[a + 2] - b[a] for b in boxes.values()) for a in (0, 1))
    a, o = (1, 0) if widths >= heights else (0, 1)
    pairs, active = [], {False: [], True: []}
    for i in sorted(boxes, key=lambda k: boxes[k][a]):
        b = boxes[i]
        mates = split is not None and i < split
        active[mates] = [k for k in active[mates] if boxes[k][a + 2] + gap >= b[a]]
        pairs += [(i, k) for k in active[mates]
                  if boxes[k][o] <= b[o + 2] + gap and b[o] <= boxes[k][o + 2] + gap]
        active[split is not None and i >= split].append(i)
    return pairs


def _curve_box(c: Curve) -> tuple[float, float, float, float]:
    """``(min x, min y, max x, max y)`` of the curve's points."""
    (x0, y0), (x1, y1) = c.start.to_floats(), c.end.to_floats()
    xs, ys = [x0, x1], [y0, y1]
    if isinstance(c, Arc):  # the extreme points of the circle that the arc passes, or nearly
        cx, cy, r = float(c.center.x), float(c.center.y), c.radius
        for k, (dx, dy) in enumerate(((1, 0), (0, 1), (-1, 0), (0, -1))):
            if c.covers_angle(k * (math.pi / 2)):
                xs.append(cx + dx * r)
                ys.append(cy + dy * r)
    return min(xs), min(ys), max(xs), max(ys)


def _grains_adjacent(g: Grain, h: Grain) -> bool:
    shared = 0.0
    for c in g.boundary:
        for d in h.boundary:
            shared += curve_overlap_length(c, d)
            if shared > POS_TOL:
                return True
    return False


# ---------------------------------------------------------------------------
# boundary analysis
# ---------------------------------------------------------------------------

class BoundaryAnalysis(FrozenValue):
    """Structure of the domain boundary relative to the grain textures.

    ``outer_curves`` (gid -> the grain's outer curves; read-only in
    ``analyze_boundary`` results) and ``grain_rows`` print but do not compare.
    ``grain_rows`` is ((cos theta, sin theta, in J, lines, arcs), ...), one row
    per boundary grain in ``boundary_grains`` order: what
    ``outer_bound_full_member`` reads; (lines, arcs) are those of the grain's
    outer curves (``_normal_lines``): the vectors whose normals
    ``compat._clears`` tests, and the arcs' end normals for the test whether
    an arc's normals hold a given line.
    """

    __slots__ = _fields = ("boundary_grains", "dual_points", "perp_points", "J", "J_prime",
                           "outer_curves", "grain_rows")

    def __init__(self, boundary_grains: tuple[int, ...], dual_points: tuple[Vec2, ...],
                 perp_points: tuple[tuple[Vec2, int], ...], J: frozenset, J_prime: frozenset,
                 outer_curves: Optional[Mapping] = None, grain_rows: tuple = ()):
        for name, value in zip(self._fields, (
                boundary_grains, dual_points, perp_points, J, J_prime,
                {} if outer_curves is None else outer_curves, grain_rows)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return (self.boundary_grains, self.dual_points, self.perp_points, self.J, self.J_prime)


def _outer_curves(pc: Polycrystal) -> dict[int, list[Curve]]:
    """gid -> the outer curves of each grain that has one, in grain order (see the module).

    Curves of one kind share length only where their boxes meet once the domain
    curve's is widened by POS_TOL times 3 plus its length (the parallel test of
    ``_segment_overlap_length`` is relative to it) and 2^-40 of its coordinates:
    the sums, in domain order, skip only terms that are 0."""
    kinds = {t: [k for k, d in enumerate(pc.domain) if type(d) is t] for t in (Segment, Arc)}
    curves = [(g.id, c, kinds.get(type(c), ())) for g in pc.grains for c in g.boundary]
    n = len(curves)
    meets = {i: ks for i, (_, _, ks) in enumerate(curves) if len(ks) == 1}  # needs no box
    boxes = {i: _curve_box(c) for i, (_, c, ks) in enumerate(curves) if len(ks) > 1}
    for k, d in enumerate(pc.domain):
        if len(kinds[type(d)]) > 1:
            x0, y0, x1, y1 = _curve_box(d)
            pad = POS_TOL * (3.0 + d.length()) + 2.0 ** -40 * max(-x0, -y0, x1, y1)
            boxes[n + k] = (x0 - pad, y0 - pad, x1 + pad, y1 + pad)
    for i, k in map(sorted, _box_pairs(boxes, 0.0, split=n)):
        if type(curves[i][1]) is type(pc.domain[k - n]):
            meets.setdefault(i, []).append(k - n)
    outer: dict[int, list[Curve]] = {}
    for i in sorted(meets):
        gid, c, _ = curves[i]
        if (length := c.length()) > POS_TOL and sum(curve_overlap_length(c, pc.domain[k])
                                                    for k in sorted(meets[i])) >= length - POS_TOL:
            outer.setdefault(gid, []).append(c)
    return outer


def _cell(x: float, y: float) -> tuple:
    """The grid cell of side 2 POS_TOL holding (x, y); a quotient that overflows stays +-inf."""
    qx, qy = x / (2.0 * POS_TOL), y / (2.0 * POS_TOL)
    return (math.floor(qx) if math.isfinite(qx) else qx,
            math.floor(qy) if math.isfinite(qy) else qy)


def _near(cells: dict, x: float, y: float, key: tuple) -> list:
    """Tags of the entries (qx, qy, tag) of ``cells`` (``_cell`` key -> entries) within POS_TOL
    of (x, y), whose cell is ``key``, by the exact test of ``_norm``: the 3 x 3 cells around
    ``key`` hold every such point, even after rounding."""
    kx, ky = key
    return [tag for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            for qx, qy, tag in cells.get((kx + dx, ky + dy), ())
            if _norm(x - qx, y - qy) <= POS_TOL]


def analyze_boundary(pc: Polycrystal, angular_tol: float = ANGULAR_TOL) -> BoundaryAnalysis:
    """Classify the domain boundary: grains, dual points, perpendicular points.

    Dual points are domain-boundary points where two or more boundary
    grains meet; they are excluded from all compatibility tests.  A
    perpendicular point of grain i is a non-dual boundary point whose
    outward normal is orthogonal to the grain's slip direction; ``J``
    collects the grains possessing one.  ``J_prime`` collects grains
    whose outer boundary normals (up to sign) cover every direction,
    tested by interval arithmetic at ``angular_tol``.

    Computed once per polycrystal and ``angular_tol``: the result is kept on
    ``pc``, so every later call, and every outer-bound entry point, gets the
    same object, and its mappings are read-only views.  ``angular_tol`` must
    be finite and >= 0 (``DomainError`` otherwise).

    Outer curves are classified by their shared length with the domain
    (``_outer_curves``).  Each distinct endpoint of them then gets its grid
    cell and its neighbours once (``_near``): it is a dual point when none of
    them is yet and they have two or more grains, so dual points keep the
    order in which the endpoints first meet them.  A perpendicular point joins that
    grid unless it lies next to a dual point or, on an arc, to a point of its grain.
    """
    if not 0.0 <= angular_tol < math.inf:
        raise DomainError(f"angular_tol must be finite and >= 0, got {angular_tol!r}")
    analysis = pc._analyses.get(angular_tol)
    if analysis is None:
        analysis = pc._analyses[angular_tol] = _analyze_boundary(pc, angular_tol)
    return analysis


def _analyze_boundary(pc: Polycrystal, angular_tol: float) -> BoundaryAnalysis:
    outer = _outer_curves(pc)
    boundary_grains = tuple(sorted(outer))

    endpoints = [(p, gid, (p.x, p.y)) for gid, curves in outer.items()
                 for c in curves for p in (c.start, c.end)]
    owners: dict[tuple, set] = {}  # each distinct endpoint (x, y) -> its grains
    for _, gid, xy in endpoints:
        owners.setdefault(xy, set()).add(gid)
    keys = {xy: _cell(*xy) for xy in owners}
    cells: dict[tuple, list] = {}  # the one grid: endpoints tagged (x, y), so never a grain id
    for xy, key in keys.items():
        cells.setdefault(key, []).append((*xy, xy))
    near = {xy: nb for xy, key in keys.items()  # where two grains meet: point -> neighbours
            if len(set().union(*map(owners.get, nb := _near(cells, *xy, key)))) >= 2}
    dual, flagged = [], set()
    for p, _, xy in endpoints:
        if xy in near and flagged.isdisjoint(near[xy]):
            dual.append(p)
            flagged.add(xy)

    perp: list[tuple[Vec2, int]] = []  # each joins cells, tagged by its grain id
    for gid in boundary_grains:
        s = pc.grain_by_id(gid).slip()
        s_angle = math.atan2(float(s.y), float(s.x))
        for c in outer[gid]:
            if isinstance(c, Segment):
                normal = abs(float(c.normal_at(0.5).dot(s))) <= angular_tol
                found = [c.point_at(0.5)] if normal else []
            else:
                found = [c._toward(math.cos(t), math.sin(t))
                         for t in (s_angle + math.pi / 2, s_angle - math.pi / 2)
                         if c.covers_angle(t, angular_tol)]
            for pt in found:  # dropped next to a dual point; an arc's also next to its grain's
                (x, y), key = (pt.x, pt.y), _cell(pt.x, pt.y)
                if flagged.isdisjoint(nb := _near(cells, x, y, key)) and (
                        isinstance(c, Segment) or gid not in nb):
                    perp.append((pt, gid))
                    cells.setdefault(key, []).append((x, y, gid))

    j = frozenset(gid for _, gid in perp)
    j_prime = frozenset(gid for gid in boundary_grains
                        if _normals_cover_circle(outer[gid], angular_tol))
    rows = tuple((*pc.grain_by_id(gid).slip().to_floats(), gid in j, *_normal_lines(outer[gid]))
                 for gid in boundary_grains)
    return BoundaryAnalysis(boundary_grains, tuple(dual), tuple(perp), j, j_prime,
                            MappingProxyType(outer), rows)


def _normal_lines(curves) -> tuple[tuple, tuple]:
    """``(lines, arcs)`` of outer curves, for the rank-one test of their normals.

    ``lines``: a segment's edge vector q - p, scaled by a power of two to a
    largest entry in [1/2, 1), and an arc's two end tangents, each standing
    for the normal it is a quarter turn of.  The scaling keeps (s x e)^2 <= 1,
    so it cannot overflow beside |F e|^2 (inf >= inf once cleared every normal
    of a long segment), and it is exact short of the subnormals, so every
    comparison keeps its bits.
    ``arcs``: per arc ``(ax, ay, bx, by, wide)``, its end normals read
    counterclockwise from a to b (``Arc._trig``, swapped for a clockwise arc)
    and whether it sweeps pi or more.  Only the line of a normal counts, so a
    clockwise arc is stored by its radii.
    """
    lines, arcs = [], []
    for c in curves:
        if isinstance(c, Segment):
            ex, ey = (c.q - c.p).to_floats()
            k = -math.frexp(max(abs(ex), abs(ey)))[1]
            lines.append((math.ldexp(ex, k), math.ldexp(ey, k)))
        else:
            c0, s0, c1, s1 = c._trig
            ax, ay, bx, by = (c0, s0, c1, s1) if c.ccw else (c1, s1, c0, s0)
            lines += [(-ay, ax), (-by, bx)]
            arcs.append((ax, ay, bx, by, c.sweep() >= math.pi))
    return tuple(lines), tuple(arcs)


def _normals_cover_circle(curves, angular_tol: float) -> bool:
    """Do the +-normal directions of the curves cover all of [0, pi)?

    Segments contribute isolated directions and are ignored; arcs
    contribute their swept radial range.  Intervals are reduced mod pi
    and merged, allowing joints up to ``angular_tol``.
    """
    pieces: list[tuple[float, float]] = []
    for c in curves:
        if not isinstance(c, Arc):
            continue
        lo, sweep = c.ccw_span()
        if sweep >= math.pi - angular_tol:
            return True
        lo = _wrap(lo, math.pi)
        hi = lo + sweep
        pieces += [(lo, hi)] if hi <= math.pi else [(lo, math.pi), (0.0, hi - math.pi)]
    if not pieces:
        return False
    pieces.sort()
    reach = pieces[0][1]  # the end of the merged run from pieces[0]
    for lo, hi in pieces[1:]:
        if not lo <= reach + angular_tol:
            return False  # a second run
        reach = max(reach, hi)
    return pieces[0][0] <= angular_tol and reach >= math.pi - angular_tol


# ---------------------------------------------------------------------------
# outer bounds
# ---------------------------------------------------------------------------

class OuterBound(FrozenValue):
    """Finite intersection of relaxed slip sets, or all of SL(2) if empty."""

    __slots__ = _fields = ("slip_directions", "trivial_flag")

    def __init__(self, slip_directions: tuple[Vec2, ...], trivial_flag: bool):
        object.__setattr__(self, "slip_directions", slip_directions)
        object.__setattr__(self, "trivial_flag", trivial_flag)

    def member(self, F: Mat2, tol: float = DEFAULT_TOL) -> bool:
        """F in every relaxed set of the directions: ``in_N`` with one det check."""
        if not is_sl2(F, tol):
            return False
        for s in self.slip_directions:
            if not norm2_at_most_one(image_norm2(F, s), tol):
                return False
        return True


def outer_bound_perp(pc: Polycrystal, angular_tol: float = ANGULAR_TOL) -> OuterBound:
    """Outer bound from perpendicular boundary points only.

    Intersects the relaxed sets of the slip directions of grains in J (of
    ``analyze_boundary(pc, angular_tol)``); with J empty there is no
    constraint beyond det = 1 and the bound degenerates to SL(2)
    (``trivial_flag``).  A texture equal to an earlier kept one, in gid order,
    changes no membership and is dropped.
    """
    kept, directions = [], []
    for gid in sorted(analyze_boundary(pc, angular_tol).J):
        t = pc.grain_by_id(gid).theta
        pos, n = bisect_left(kept, t), len(kept)
        # subtraction is monotone: if a kept angle equals t, a neighbour or (across pi) an end does
        if not any(_textures_equal(t, kept[b]) for b in {pos - 1, pos, 0, n - 1} if 0 <= b < n):
            kept.insert(pos, t)
            directions.append(slip_direction(t))
    return OuterBound(slip_directions=tuple(directions), trivial_flag=len(directions) == 0)


class _BoundarySamples(FrozenValue):
    """Per-grain boundary sample normals, perpendicular points included."""

    __slots__ = _fields = ("normals", "analysis")

    def __init__(self, normals: dict, analysis: BoundaryAnalysis):
        object.__setattr__(self, "normals", normals)  # normals: gid -> (m, 2) float array
        object.__setattr__(self, "analysis", analysis)


def boundary_samples(pc: Polycrystal, n_samples: int = 720,
                     analysis: Optional[BoundaryAnalysis] = None) -> _BoundarySamples:
    """Arc-length-uniform samples of outward normals along grain boundaries.

    Samples use the midpoint rule per curve so dual points (curve
    endpoints) are never hit; detected perpendicular points are always
    appended so the sharpest constraints are retained at any density.
    Each curve's normals are one numpy block, with the float operations of
    ``Curve.normal_at`` in its order, so the rows equal its values bit for bit.
    """
    import numpy as np

    if analysis is None:
        analysis = analyze_boundary(pc)
    total = sum(sum(c.length() for c in curves) for curves in analysis.outer_curves.values())
    blocks: dict[int, list] = {gid: [] for gid in analysis.outer_curves}
    for gid, curves in analysis.outer_curves.items():
        for c in curves:
            m = max(1, round(n_samples * c.length() / total))
            if isinstance(c, Segment):
                n = c.normal_at(0.5)
                blocks[gid].append(np.repeat([[float(n.x), float(n.y)]], m, axis=0))
            else:
                step = c.sweep() * ((np.arange(m) + 0.5) / m)
                t = c.from_angle + (step if c.ccw else -step)
                block = np.column_stack((np.cos(t), np.sin(t)))
                blocks[gid].append(block if c.ccw else -block)
    for pt, gid in analysis.perp_points:
        s = pc.grain_by_id(gid).slip()
        n = Vec2(-float(s.y), float(s.x))
        blocks[gid].append(np.array([[n.x, n.y], [-n.x, -n.y]]))
    return _BoundarySamples(normals={gid: np.concatenate(rows) for gid, rows in blocks.items()},
                            analysis=analysis)


def compatible_with_normals(F: Mat2, theta: float, normals: np.ndarray,
                            tol: float = DEFAULT_TOL) -> bool:
    """Vectorized rank-one compatibility of F against many interface normals.

    Same decision as ``compat.nu_compatible`` with slip direction at angle
    theta, evaluated for every row of ``normals`` at once.
    """
    import numpy as np

    s = slip_direction(theta)
    require_sl2(F, tol)
    sn = normals[:, 0] * float(s.x) + normals[:, 1] * float(s.y)
    perp_mask = np.abs(sn) <= tol
    if np.any(perp_mask) and not norm2_at_most_one(image_norm2(F, s), tol):
        return False
    (a11, a12), (a21, a22) = F.to_rows()
    vx = a11 * -normals[:, 1] + a12 * normals[:, 0]  # F perp(nu)
    vy = a21 * -normals[:, 1] + a22 * normals[:, 0]
    with np.errstate(over="ignore"):  # an image norm that overflows to inf clears the test
        return bool(np.all(_clears(vx * vx + vy * vy, sn * sn, tol) | perp_mask))


def outer_bound_full_member(F: Mat2, pc: Polycrystal, tol: float = DEFAULT_TOL,
                            angular_tol: float = ANGULAR_TOL,
                            samples: Optional[_BoundarySamples] = None) -> bool:
    """Exact membership in the full boundary-compatibility bound.

    F must be rank-one compatible with the slip system of the boundary grain
    at every non-dual boundary point.  Per boundary grain, with slip s:

    * a grain in J fails when |Fs| > 1 + tol (its perpendicular points),
      tested on |Fs|^2 by ``mat2.norm2_at_most_one`` as in ``OuterBound``;
    * when (1 - tol)|Fs|^2 <= 1 no normal is forbidden and the grain passes;
    * otherwise a normal nu fails exactly when |F nu_perp|^2 < (1 - tol)(s.nu)^2
      (``compat._clears``), so a segment is tested on its edge vector, an arc
      on its two end normals, and an arc fails too when its normals hold the
      line of F^T F s: the forbidden normals are a cone about that line, where
      |F nu_perp|^2 / (s.nu)^2 is least (an arc's ends are dual points or
      shared with the next curve).

    That is O(outer curves) float operations per matrix, over the analysis's
    ``grain_rows``, with no sampling and no angle.
    The boundary analysis is that of ``samples`` (a ``boundary_samples``
    result) if given, else ``analyze_boundary(pc, angular_tol)``, which is
    computed once per polycrystal and tolerance, so many matrices tested
    against one polycrystal share it.
    """
    require_sl2(F, tol)
    analysis = samples.analysis if samples is not None else analyze_boundary(pc, angular_tol)
    a11, a12, a21, a22 = F.a11, F.a12, F.a21, F.a22
    for sx, sy, in_j, lines, arcs in analysis.grain_rows:
        fx, fy = a11 * sx + a12 * sy, a21 * sx + a22 * sy
        n2 = fx * fx + fy * fy
        if in_j and not norm2_at_most_one(n2, tol):
            return False
        if _clears(1.0, n2, tol):
            continue
        for ex, ey in lines:
            gx, gy = a11 * ex + a12 * ey, a21 * ex + a22 * ey
            se = sx * ey - sy * ex
            if not _clears(gx * gx + gy * gy, se * se, tol):
                return False
        if arcs:
            m = max(abs(fx), abs(fy))  # only the line of F^T F s counts; keep it finite
            fx, fy = fx / m, fy / m
            dx, dy = a11 * fx + a21 * fy, a12 * fx + a22 * fy
            for ax, ay, bx, by, wide in arcs:
                # a x d and d x b share a sign when the span from a to b holds d or -d
                if wide or (ax * dy - ay * dx >= 0) == (dx * by - dy * bx >= 0):
                    return False
    return True


def equal_perp_full(pc: Polycrystal, angular_tol: float = ANGULAR_TOL) -> bool:
    """Sufficient condition for the two outer bounds to coincide.

    True iff every boundary grain has a perpendicular point.
    """
    analysis = analyze_boundary(pc, angular_tol)
    return set(analysis.J) == set(analysis.boundary_grains)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _curve_to_dict(c: Curve) -> dict:
    if isinstance(c, Segment):
        return {"kind": "segment", "p": list(c.p.to_floats()), "q": list(c.q.to_floats())}
    return {"kind": "arc", "center": list(c.center.to_floats()), "radius": float(c.radius),
            "from_angle": float(c.from_angle), "to_angle": float(c.to_angle),
            "ccw": bool(c.ccw)}


def _number(v, what: str) -> float:
    try:
        ok = isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        raise InvalidPolycrystal(f"{what} must be a finite number")
    return float(v)


def _expect(v, kind: type, what: str):
    if not isinstance(v, kind):
        raise InvalidPolycrystal(f"{what} must be {'an object' if kind is dict else 'a list'}")
    return v


def _point(v, what: str) -> Vec2:
    if len(_expect(v, list, what)) != 2:
        raise InvalidPolycrystal(f"{what} must hold 2 numbers")
    return Vec2(_number(v[0], what), _number(v[1], what))


def _curve_from_dict(d, what: str) -> Curve:
    kind = _expect(d, dict, what).get("kind")
    if kind == "segment":
        return Segment(_point(d.get("p"), f"{what}.p"), _point(d.get("q"), f"{what}.q"))
    if kind == "arc":
        ccw = d.get("ccw", True)
        if not isinstance(ccw, bool):
            raise InvalidPolycrystal(f"{what}.ccw must be true or false")
        radius, a0, a1 = (_number(d.get(k), f"{what}.{k}")
                          for k in ("radius", "from_angle", "to_angle"))
        return Arc(_point(d.get("center"), f"{what}.center"), radius, a0, a1, ccw)
    raise InvalidPolycrystal(f"{what}: unknown curve kind {kind!r}")


def polycrystal_to_dict(pc: Polycrystal) -> dict:
    return {
        "domain": [_curve_to_dict(c) for c in pc.domain],
        "grains": [{"id": g.id, "boundary": [_curve_to_dict(c) for c in g.boundary],
                    "theta": float(g.theta)} for g in pc.grains],
    }


def _grain_from_dict(g, what: str) -> Grain:
    gid = _number(_expect(g, dict, what).get("id"), f"{what}.id")
    if not gid.is_integer():
        raise InvalidPolycrystal(f"{what}.id must be an integer")
    boundary = _expect(g.get("boundary"), list, f"{what}.boundary")
    return Grain(id=int(gid),
                 boundary=tuple(_curve_from_dict(c, f"{what}.boundary[{j}]")
                                for j, c in enumerate(boundary)),
                 theta=_number(g.get("theta"), f"{what}.theta"))


def polycrystal_from_dict(d) -> Polycrystal:
    """Inverse of ``polycrystal_to_dict``; a malformed structure raises ``InvalidPolycrystal``."""
    d = _expect(d, dict, "polycrystal")
    domain = _expect(d.get("domain"), list, "domain")
    grains = _expect(d.get("grains"), list, "grains")
    return Polycrystal(
        domain=tuple(_curve_from_dict(c, f"domain[{j}]") for j, c in enumerate(domain)),
        grains=tuple(_grain_from_dict(g, f"grains[{i}]") for i, g in enumerate(grains)))


def load_polycrystal(path) -> Polycrystal:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return polycrystal_from_dict(d)


# ---------------------------------------------------------------------------
# stock constructions
# ---------------------------------------------------------------------------

def quadrant_disk() -> Polycrystal:
    """Unit disk cut into four quadrant grains with alternating textures.

    Sector boundaries at 45 + 90 k degrees; textures alternate between 0
    and pi/2, so every boundary grain has a perpendicular point and the
    polycrystal is fully rigid.
    """
    o = Vec2(0.0, 0.0)
    grains = []
    for i in range(4):
        a = math.pi / 4 + i * math.pi / 2
        b = a + math.pi / 2
        pa, pb = Vec2(math.cos(a), math.sin(a)), Vec2(math.cos(b), math.sin(b))
        grains.append(Grain(i + 1, (Segment(o, pa), Arc(o, 1.0, a, b, True), Segment(pb, o)),
                            0.0 if i % 2 == 0 else math.pi / 2))
    domain = (Arc(o, 1.0, 0.0, TAU, True),)
    return Polycrystal(domain=domain, grains=tuple(grains))


def chord_disk(heights, thetas) -> Polycrystal:
    """Unit disk sliced by horizontal chords into len(heights)+1 bands.

    ``heights`` are strictly increasing chord heights in (-1, 1);
    ``thetas`` gives one texture angle per band, bottom to top, with
    adjacent bands distinct mod pi.
    """
    hs = list(heights)
    if sorted(hs) != hs or any(not -1 < h < 1 for h in hs):
        raise InvalidPolycrystal("chord heights must be increasing and inside (-1, 1)")
    if len(thetas) != len(hs) + 1:
        raise InvalidPolycrystal("need one texture angle per band")
    o = Vec2(0.0, 0.0)
    ends = []  # per chord, and the points -1 and 1: its left and right ends and their angles
    for h in [-1.0] + hs + [1.0]:
        x = math.sqrt(max(0.0, 1.0 - h * h))
        ends.append((Vec2(-x, h), Vec2(x, h), math.atan2(float(h), -x), math.atan2(float(h), x)))
    grains = []
    for i, theta in enumerate(thetas):
        (la, ra, ala, ara), (lb, rb, alb, arb) = ends[i], ends[i + 1]
        if i == 0:
            curves = (Arc(o, 1.0, alb, arb, True), Segment(rb, lb))
        elif i == len(hs):
            curves = (Segment(la, ra), Arc(o, 1.0, ara, ala, True))
        else:
            curves = (Segment(la, ra), Arc(o, 1.0, ara, arb, True),
                      Segment(rb, lb), Arc(o, 1.0, alb, ala, True))
        grains.append(Grain(id=i + 1, boundary=curves, theta=float(theta)))
    domain = (Arc(o, 1.0, 0.0, TAU, True),)
    return Polycrystal(domain=domain, grains=tuple(grains))


def halfdisk_bicrystal(theta_top: float, theta_bottom: float) -> Polycrystal:
    """Unit disk split along the horizontal diameter into two grains."""
    return chord_disk([0.0], [theta_bottom, theta_top])


def sheared_square_polycrystal() -> Polycrystal:
    """The three-grain tilted square carrying the two-slip construction.

    Grain 3 (texture 0) surrounds the central square; grains 1 and 2
    (texture pi/2) are the two wedges.  No side normal is orthogonal to
    e1 or e2, so the perpendicular-point bound is all of SL(2).
    """
    def poly(vv):
        pts = [Vec2(float(x), float(y)) for x, y in vv]
        return tuple(Segment(a, b) for a, b in zip(pts, pts[1:] + pts[:1]))

    g1 = Grain(id=1, boundary=poly([(0, 0), (1, 1), (2, 2), (1, 3)]), theta=math.pi / 2)
    g2 = Grain(id=2, boundary=poly([(2, 0), (3, -1), (4, 2), (3, 1)]), theta=math.pi / 2)
    g3 = Grain(id=3, boundary=poly([(0, 0), (3, -1), (2, 0), (3, 1), (4, 2),
                                    (1, 3), (2, 2), (1, 1)]), theta=0.0)
    domain = poly([(0, 0), (3, -1), (4, 2), (1, 3)])
    return Polycrystal(domain=domain, grains=(g1, g2, g3))


def random_chord_disk(rng: np.random.Generator, n_grains: int,
                      min_gap: float = 0.2, min_angle_gap: float = 0.05) -> Polycrystal:
    """Random chord-sliced disk with adjacent-distinct textures, drawn directly.

    Chord heights are uniform on the increasing sequences in (-0.8, 0.8)
    spaced at least ``min_gap`` apart; the first texture is uniform on
    [0, pi), each next one on the angles more than ``min_angle_gap`` from it
    mod pi.  Needs n_grains >= 2, min_gap >= 0 with (n_grains - 2) * min_gap
    < 1.6, and 0 <= min_angle_gap < pi/2; raises ``InvalidPolycrystal`` otherwise.
    """
    if n_grains < 2 or not (min_gap >= 0.0 and (n_grains - 2) * min_gap < 1.6):
        raise InvalidPolycrystal(f"{n_grains} grains with chord gap {min_gap!r} do not fit")
    if not 0.0 <= min_angle_gap < math.pi / 2:
        raise InvalidPolycrystal(f"min_angle_gap {min_angle_gap!r} outside [0, pi/2)")
    u = rng.uniform(-0.8, 0.8 - (n_grains - 2) * min_gap, size=n_grains - 1)
    hs = [h + i * min_gap for i, h in enumerate(sorted(map(float, u)))]
    thetas = [float(rng.uniform(0.0, math.pi))]
    for _ in range(n_grains - 1):
        step = float(rng.uniform(min_angle_gap, math.pi - min_angle_gap))
        thetas.append(math.fmod(thetas[-1] + step, math.pi))  # exact and < pi: both terms >= 0
    return chord_disk(hs, thetas)
