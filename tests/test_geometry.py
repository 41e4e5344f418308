import json
import math
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (FALSE_SAMPLED_MEMBERS, brute_force_boundary_analysis, dense_full_member,
                     loop_boundary_samples, mat_of, pairwise_adjacent_equal_textures,
                     probe_outer_curves, rand_sl2, rotations_batch, sampled_full_member)
from polyslip import geometry
from polyslip.compat import nu_compatible
from polyslip.errors import DomainError, InvalidPolycrystal, NotSL2
from polyslip.geometry import (POS_TOL, TAU, Arc, Grain, Polycrystal, Segment,
                               _textures_equal, analyze_boundary, boundary_samples, chord_disk,
                               compatible_with_normals, curve_overlap_length,
                               equal_perp_full, halfdisk_bicrystal,
                               outer_bound_full_member, outer_bound_perp,
                               polycrystal_from_dict, polycrystal_to_dict,
                               quadrant_disk, random_chord_disk,
                               sheared_square_polycrystal)
from polyslip.mat2 import E1, E2, Mat2, Vec2, is_sl2, is_SO2, mod_pi, rotation
from polyslip.slip import psi, slip_direction
from polyslip.taylor import normalize, taylor_member

PI = math.pi
BICRYSTAL = halfdisk_bicrystal(theta_top=PI / 2, theta_bottom=PI / 6)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_segment_normal_points_outward():
    seg = Segment(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
    assert seg.normal_at(0.5) == Vec2(0.0, -1.0)


def test_arc_geometry():
    arc = Arc(Vec2(0.0, 0.0), 2.0, 0.0, PI / 2, True)
    assert arc.sweep() == pytest.approx(PI / 2)
    assert arc.length() == pytest.approx(PI)
    mid = arc.point_at(0.5)
    assert (mid.x, mid.y) == (pytest.approx(2 * math.cos(PI / 4)),
                              pytest.approx(2 * math.sin(PI / 4)))
    n = arc.normal_at(0.5)
    assert n.dot(mid) == pytest.approx(2.0)
    cw = Arc(Vec2(0.0, 0.0), 2.0, PI / 2, 0.0, False)
    assert cw.sweep() == pytest.approx(PI / 2)
    assert cw.normal_at(1.0).x == pytest.approx(-1.0)


def test_full_circle_sweep():
    circle = Arc(Vec2(0.0, 0.0), 1.0, 0.0, 2 * PI, True)
    assert circle.sweep() == pytest.approx(2 * PI)
    assert circle.covers_angle(5.0)


def test_rotated_full_circle_keeps_its_sweep():
    # phi + 2 pi - phi rounds to 2 pi + 1 ulp here, which must still read as a full turn
    phi = 4.569589314312426
    assert (phi + TAU) - phi != TAU
    assert Arc(Vec2(0.0, 0.0), 1.0, 0.0, TAU).rotated(phi).sweep() == TAU
    assert Arc(Vec2(0.0, 0.0), 1.0, phi + TAU, phi, False).sweep() == TAU
    assert quadrant_disk().rotated(phi).domain[0].sweep() == TAU
    assert Arc(Vec2(0.0, 0.0), 1.0, 0.0, 1e-16).sweep() == 1e-16  # a tiny arc stays tiny


@pytest.mark.parametrize("arc, sweep", [
    (Arc(Vec2(0.5, -1.0), 2.0, 0.0, PI / 2), PI / 2),
    (Arc(Vec2(0.0, 0.0), 2.0, PI / 2, 0.0, False), PI / 2),
    (Arc(Vec2(0.0, 0.0), 1.0, 3.0, -2.5), 0.7831853071795862),
    (Arc(Vec2(0.0, 0.0), 1.0, 0.0, TAU), TAU),
    (Arc(Vec2(0.0, 0.0), 1.0, 0.0, TAU).rotated(4.569589314312426), TAU),
    (Arc(Vec2(0.0, 0.0), 1.0, 4.569589314312426 + TAU, 4.569589314312426, False), TAU),
    (Arc(Vec2(0.0, 0.0), 1.0, 4.569589314312426, 4.569589314312426 + TAU), TAU),
    (Arc(Vec2(0.0, 0.0), 1.0, 0.0, TAU, False), TAU),
    (Arc(Vec2(0.0, 0.0), 1.0, -PI, PI), TAU),
    (Arc(Vec2(0.0, 0.0), 1.0, 0.5, PI), PI - 0.5),
    (Arc(Vec2(0.0, 0.0), 1.0, math.nextafter(PI, 4.0), 2.0, False), 1.1415926535897936),
    (Arc(Vec2(1e6, -3e5), 0.25, 1.0, 2.0), 1.0),
    (Arc(Vec2(0.0, -0.0), 1.0, -0.0, 1.0), 1.0),
])
def test_arc_geometry_is_fixed_at_construction(arc, sweep):
    assert arc.sweep() == sweep
    assert arc.length() == arc.radius * sweep
    sign = 1.0 if arc.ccw else -1.0
    assert arc.ccw_span() == (arc.from_angle if arc.ccw else arc.from_angle - sweep, sweep)
    for point, t in ((arc.start, arc.from_angle), (arc.end, arc.from_angle + sign * sweep)):
        assert point == arc.center + Vec2(math.cos(t), math.sin(t)) * arc.radius
    assert (arc.start, arc.end) == (arc.point_at(0.0), arc.point_at(1.0))
    ends = (arc.start, arc.end, arc.point_at(0.0), arc.point_at(1.0))
    bits = [[x.hex() for x in p.to_floats()] for p in ends]
    assert bits[:2] == bits[2:]  # the signs of zeros too
    assert "_sweep" not in repr(arc)


_PHI = 4.569589314312426


@pytest.mark.parametrize("arc, area", [
    (Arc(Vec2(0.0, 0.0), 1.0, PI / 3, -PI / 4, False), -0.916297857297023),
    (Arc(Vec2(0.5, 0.25), 2.0, 2.5, -3.0, False), -11.322583855818534),
    (Arc(Vec2(0.0, 0.0), 1.0, _PHI, _PHI + TAU), 3.141592653589793),
    (Arc(Vec2(0.0, 0.0), 1.0, _PHI + TAU, _PHI, False), -3.141592653589793),
    (Arc(Vec2(0.0, 0.0), 1.0, 0.0, TAU, False), -3.141592653589793),
    (Arc(Vec2(0.0, 0.0), 1.0, -PI, PI), 3.141592653589793),
    (Arc(Vec2(0.0, 0.0), 1.0, 0.5, PI), 1.3207963267948966),
    (Arc(Vec2(0.0, 0.0), 1.0, -PI, -0.5), 1.3207963267948966),
    (Arc(Vec2(0.0, 0.0), 1.0, math.nextafter(PI, 4.0), 2.0, False), -0.5707963267948968),
    (Arc(Vec2(1e6, -3e5), 0.25, 1.0, 2.0), -27388.50633834993),
    (Arc(Vec2(-7.5e8, 1e9), 3.0, -2.0, 2.5, False), -1118745606.8204894),
    (Arc(Vec2(0.0, -0.0), 1.0, -0.0, 1.0), 0.5),
])
def test_arc_area_keeps_its_bits(arc, area):
    # the Green's-theorem area of the arc alone, pinned bit for bit
    assert Grain(1, (arc,), 0.0).area().hex() == area.hex()
    assert (arc.start, arc.end) == (arc.point_at(0.0), arc.point_at(1.0))


@pytest.mark.parametrize("ccw", [True, False], ids=["ccw", "cw"])
def test_arc_rows_are_its_end_radii_read_counterclockwise(ccw):
    # an arc's row in _normal_lines holds the (cos, sin) that built its endpoints, Arc._trig
    # at angle_at(0.0) and angle_at(1.0), in the order of ccw_span: swapped for a cw arc
    rng = np.random.default_rng(34)
    ends = [(0.0, TAU), (-0.0, 1.0), (_PHI + TAU, _PHI), (PI / 3, -PI / 4), (2.5, -3.0)]
    ends += rng.uniform(-2.0 * TAU, 2.0 * TAU, (200, 2)).tolist()
    for a, b in ends:
        arc = Arc(Vec2(0.5, -0.25), 2.0, a, b, ccw)
        lines, arcs = geometry._normal_lines([arc])
        c0, s0, c1, s1 = arc._trig
        assert arcs == ((*((c0, s0, c1, s1) if ccw else (c1, s1, c0, s0)), arc.sweep() >= PI),)
        ax, ay, bx, by, _ = arcs[0]
        assert lines == ((-ay, ax), (-by, bx))
        start, sweep = arc.ccw_span()
        for (x, y), t in (((ax, ay), start), ((bx, by), start + sweep)):
            assert math.hypot(x - math.cos(t), y - math.sin(t)) <= 1e-15 * max(1.0, abs(t))


def test_segment_normal_of_a_tiny_segment():
    # the squared length underflows to 0 below about 1e-154
    for d in (1e-300, 5e-324):
        assert Segment(Vec2(0.0, 0.0), Vec2(d, 0.0)).normal_at(0.5) == Vec2(0.0, -1.0)
        assert Segment(Vec2(1.0, d), Vec2(1.0, 0.0)).normal_at(0.5) == Vec2(-1.0, 0.0)


def test_curve_overlap():
    a = Segment(Vec2(0.0, 0.0), Vec2(2.0, 0.0))
    b = Segment(Vec2(3.0, 0.0), Vec2(1.0, 0.0))  # reversed orientation
    assert curve_overlap_length(a, b) == pytest.approx(1.0)
    c = Segment(Vec2(0.0, 1.0), Vec2(2.0, 1.0))
    assert curve_overlap_length(a, c) == 0.0
    a1 = Arc(Vec2(0.0, 0.0), 1.0, 0.0, PI / 2, True)
    a2 = Arc(Vec2(0.0, 0.0), 1.0, PI / 4, PI, True)
    assert curve_overlap_length(a1, a2) == pytest.approx(PI / 4)


def test_arcs_on_different_circles_share_no_length():
    a = Arc(Vec2(0.0, 0.0), 1.0, 0.0, PI, True)
    assert curve_overlap_length(a, Arc(Vec2(1e-3, 0.0), 1.0, 0.0, PI, True)) == 0.0
    assert curve_overlap_length(a, Arc(Vec2(0.0, 0.0), 1.001, 0.0, PI, True)) == 0.0


def test_segment_overlap_tests_both_ends_of_the_second_segment():
    # nearly parallel within POS_TOL * |db| and starting on a's line, but b
    # ends 19 above it and passes about 9.5 above a
    a = Segment(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
    b = Segment(Vec2(-1e10, 0.0), Vec2(1e10, 19.0))
    assert curve_overlap_length(a, b) == 0.0
    assert curve_overlap_length(a, Segment(b.q, b.p)) == 0.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_open_loop_rejected():
    with pytest.raises(InvalidPolycrystal):
        Polycrystal(domain=(Segment(Vec2(0, 0), Vec2(1, 0)),
                            Segment(Vec2(1, 0), Vec2(1, 1))),
                    grains=())


def test_partition_area_mismatch_rejected():
    disk = Arc(Vec2(0.0, 0.0), 1.0, 0.0, 2 * PI, True)
    half = chord_disk([0.0], [0.0, 1.0]).grains[0]
    with pytest.raises(InvalidPolycrystal):
        Polycrystal(domain=(disk,), grains=(half,))


@pytest.mark.parametrize("heights, thetas, message", [
    ([0.5, -0.5], [0.0, 1.0, 2.0], "chord heights must be increasing and inside (-1, 1)"),
    ([-0.5, 1.0], [0.0, 1.0, 2.0], "chord heights must be increasing and inside (-1, 1)"),
    ([-0.5, 0.5], [0.0, 1.0], "need one texture angle per band"),
])
def test_chord_disk_rejects_bad_input(heights, thetas, message):
    with pytest.raises(InvalidPolycrystal, match=f"^{re.escape(message)}$"):
        chord_disk(heights, thetas)


def test_adjacent_equal_textures_rejected():
    with pytest.raises(InvalidPolycrystal):
        chord_disk([0.0], [0.7, 0.7])
    # equal mod pi counts as equal
    with pytest.raises(InvalidPolycrystal):
        chord_disk([0.0], [0.0, PI - 1e-12])


# ---------------------------------------------------------------------------
# boundary analysis on the stock configurations
# ---------------------------------------------------------------------------

def test_quadrant_disk_analysis():
    pc = quadrant_disk()
    an = analyze_boundary(pc)
    assert an.boundary_grains == (1, 2, 3, 4)
    assert an.J == frozenset({1, 2, 3, 4})
    duals = sorted(tuple(round(c, 6) for c in p.to_floats()) for p in an.dual_points)
    r = round(math.sqrt(0.5), 6)
    assert duals == sorted([(r, r), (-r, r), (-r, -r), (r, -r)])
    assert equal_perp_full(pc)


def test_quadrant_disk_bound_is_rotations():
    pc = quadrant_disk()
    bound = outer_bound_perp(pc)
    assert not bound.trivial_flag
    dirs = {tuple(round(c, 9) for c in s.to_floats()) for s in bound.slip_directions}
    assert len(dirs) == 2  # e1 and e2 up to sign
    rng = np.random.default_rng(40)
    for R in rotations_batch(rng, 50):
        assert bound.member(mat_of(R))
    assert not bound.member(Mat2(2, 0, 0, 0.5))
    assert not bound.member(psi(0.9, 0.0))


def test_tilted_square_has_no_perpendicular_points():
    pc = sheared_square_polycrystal()
    an = analyze_boundary(pc)
    assert an.perp_points == ()
    assert an.J == frozenset()
    bound = outer_bound_perp(pc)
    assert bound.trivial_flag
    # trivial bound only constrains the determinant
    assert bound.member(Mat2(2, 0, 0, 0.5))


def test_bicrystal_single_perp_point_in_bottom_grain():
    an = analyze_boundary(BICRYSTAL)
    assert len(an.perp_points) == 1
    (pt, gid), = an.perp_points
    assert gid == 1  # the bottom grain
    assert pt.to_floats() == (pytest.approx(math.cos(-PI / 3)),
                              pytest.approx(math.sin(-PI / 3)))
    assert an.J == frozenset({1})
    assert an.J_prime == frozenset({1, 2})
    assert not equal_perp_full(BICRYSTAL)


def test_bicrystal_perp_bound_is_single_set():
    bound = outer_bound_perp(BICRYSTAL)
    assert [s.to_floats() for s in bound.slip_directions] == [
        (pytest.approx(math.cos(PI / 6)), pytest.approx(math.sin(PI / 6)))]


def test_bicrystal_full_bound_is_two_set_intersection():
    # the full bound strictly sharpens the perpendicular one here: a mild
    # contraction along e1 stretches e2 past 1 and must be rejected
    F = psi(0.9, 0.0)
    from polyslip.slip import in_N
    closed_form = in_N(F, E2) and in_N(F, slip_direction(PI / 6))
    assert not closed_form
    assert outer_bound_full_member(F, BICRYSTAL) == closed_form
    assert outer_bound_perp(BICRYSTAL).member(F)  # the looser bound accepts it
    # a non-rotation inside both sets passes the sampled bound
    from polyslip.taylor import gamma_bounds
    lo, hi = gamma_bounds(PI / 3, 0.95)
    G = psi(0.95, 0.5 * (lo + hi)) @ rotation(-PI / 6)
    assert in_N(G, E2) and in_N(G, slip_direction(PI / 6))
    assert not is_SO2(G)
    assert outer_bound_full_member(G, BICRYSTAL)


def test_generic_bicrystal_perp_bound_intersects_both_sets():
    # with both slips away from the vertical, each half-disk arc contains
    # a perpendicular direction, so the bound intersects both strain sets
    pc = halfdisk_bicrystal(theta_top=PI / 5, theta_bottom=5 * PI / 6)
    an = analyze_boundary(pc)
    assert an.J == frozenset({1, 2})
    assert equal_perp_full(pc)
    bound = outer_bound_perp(pc)
    got = sorted(tuple(round(c, 9) for c in s.to_floats()) for s in bound.slip_directions)
    want = sorted(tuple(round(c, 9) for c in slip_direction(t).to_floats())
                  for t in (PI / 5, 5 * PI / 6))
    assert got == want


def test_single_grain_full_circle_in_J():
    disk = Arc(Vec2(0.0, 0.0), 1.0, 0.0, 2 * PI, True)
    pc = Polycrystal(domain=(disk,), grains=(Grain(1, (disk,), 0.9),))
    an = analyze_boundary(pc)
    assert an.J == frozenset({1})
    assert an.J_prime == frozenset({1})
    assert equal_perp_full(pc)


# ---------------------------------------------------------------------------
# indexed boundary analysis against the all-pairs oracle
# ---------------------------------------------------------------------------

def _rect(x0, y0, x1, y1, turn=False):
    pts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    pts = [Vec2(-y, x) if turn else Vec2(x, y) for x, y in pts]  # turn: exactly 90 degrees
    return tuple(Segment(a, b) for a, b in zip(pts, pts[1:] + pts[:1]))


def _tiling(domain, cells, thetas, turn=False):
    """Polycrystal of axis-parallel rectangles given as (x0, y0, x1, y1)."""
    return Polycrystal(domain=_rect(*domain, turn),
                       grains=tuple(Grain(k + 1, _rect(*c, turn), t)
                                    for k, (c, t) in enumerate(zip(cells, thetas))))


def _banded_square(bands, split=False):
    """The unit square cut into horizontal bands of textures 0 and pi/2.

    All endpoints lie on its two vertical sides.  With ``split`` the domain's
    vertical sides are split at every band corner, as JSON input may give them.
    """
    ys = [k / bands for k in range(bands + 1)]
    pc = _tiling((0.0, 0.0, 1.0, 1.0), [(0.0, a, 1.0, b) for a, b in zip(ys, ys[1:])],
                 [0.0 if k % 2 == 0 else PI / 2 for k in range(bands)])
    if not split:
        return pc
    right = [Segment(Vec2(1.0, a), Vec2(1.0, b)) for a, b in zip(ys, ys[1:])]
    left = [Segment(Vec2(0.0, b), Vec2(0.0, a)) for a, b in zip(ys, ys[1:])]
    return Polycrystal((Segment(Vec2(0.0, 0.0), Vec2(1.0, 0.0)), *right,
                        Segment(Vec2(1.0, 1.0), Vec2(0.0, 1.0)), *left[::-1]), pc.grains)


def _chord_inputs(rng, bands, thetas=None):
    heights = np.sort(rng.uniform(-0.95, 0.95, bands - 1)).tolist()
    if thetas is None:
        thetas = [float(rng.uniform(0.0, PI))]
        for step in rng.uniform(0.1, PI - 0.1, bands - 1):
            thetas.append(float((thetas[-1] + step) % PI))
    return heights, thetas


def _stock():
    return [quadrant_disk(), BICRYSTAL, sheared_square_polycrystal(),
            halfdisk_bicrystal(PI / 5, 5 * PI / 6), halfdisk_bicrystal(0.0, PI / 2),
            chord_disk([-0.5, 0.5], [0.0, PI / 2, 0.0])]


def _oracle_cases():
    stock = _stock()
    cases = [(f"stock{k}", pc) for k, pc in enumerate(stock)]
    cases += [(f"stock{k}-rot{phi}", pc.rotated(phi)) for k, pc in enumerate(stock)
              for phi in (0.37, PI / 2, 2.0, -1.1)]
    rng = np.random.default_rng(50)
    for bands in (2, 3, 5, 8, 13, 21, 40):
        for rep in range(3):
            cases.append((f"chord{bands}-{rep}", chord_disk(*_chord_inputs(rng, bands))))
        alternating = [0.0 if k % 2 == 0 else PI / 2 for k in range(bands)]
        cases.append((f"alternating{bands}",
                      chord_disk(*_chord_inputs(rng, bands, alternating))))
    cases += [(f"random{seed}", random_chord_disk(np.random.default_rng(seed), n))
              for seed in range(20) for n in (2, 5, 9)]
    # shared endpoints straddling a cell edge: around 0 exactly POS_TOL apart
    # (2 * fl(5e-10) == fl(1e-9)) and one ulp more, elsewhere about as far
    h = 5e-10
    for at in (0.0, 0.25, -0.1, 1e-9):
        for half in (h, math.nextafter(h, 1.0), 0.5 * h):
            for turn in (False, True):
                pc = _tiling((-1.0, 0.0, 1.0, 1.0),
                             [(-1.0, 0.0, at - half, 1.0), (at + half, 0.0, 1.0, 1.0)],
                             [0.0, 1.0], turn)
                cases.append((f"straddle{at!r}{half:+.17g}-{turn}", pc))
    cases.append(("strip-chain", _tiling((0.0, 0.0, 5.0, 1.0),
                                         [(k, 0.0, k + 1.0, 1.0) for k in range(5)],
                                         [0.0, 1.0, 0.6e-9, 1.0, 1.2e-9])))
    # x / (2 POS_TOL) overflows: cell keys are infinite
    cases.append(("huge-x", _tiling((1e300, 0.0, 3e300, 2.0),
                                    [(1e300, 0.0, 3e300, 1.0), (1e300, 1.0, 3e300, 2.0)],
                                    [0.0, 1.0])))
    # two arcs of one grain meeting at its perpendicular direction
    o = Vec2(0.0, 0.0)
    top = Grain(1, (Arc(o, 1.0, 0.0, PI / 2), Arc(o, 1.0, PI / 2, PI),
                    Segment(Vec2(-1.0, 0.0), Vec2(1.0, 0.0))), 0.0)
    bottom = Grain(2, (Arc(o, 1.0, PI, 2 * PI), Segment(Vec2(1.0, 0.0), Vec2(-1.0, 0.0))), PI / 2)
    cases.append(("split-arc", Polycrystal((Arc(o, 1.0, 0.0, 2 * PI),), (top, bottom))))
    # the largest sizes the quadratic oracle allows, on both kinds of many-band input
    disk = chord_disk(*_chord_inputs(np.random.default_rng(53), 100))
    cases += [("chord100", disk), ("chord100-rot", disk.rotated(0.37))]
    cases += [("bands40", _banded_square(40)), ("bands40-split", _banded_square(40, True))]
    return cases


_ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("pc", [pc for _, pc in _ORACLE_CASES],
                         ids=[name for name, _ in _ORACLE_CASES])
def test_analysis_matches_all_pairs_oracle(pc):
    for angular_tol in (geometry.ANGULAR_TOL, 1e-3, 0.0):
        got = analyze_boundary(pc, angular_tol)
        want = brute_force_boundary_analysis(pc, angular_tol)
        assert got == want
        assert got.outer_curves == want.outer_curves


def test_straddling_endpoints_follow_pos_tol():
    h = 5e-10
    assert 2 * h == POS_TOL
    for half, duals in ((h, 2), (math.nextafter(h, 1.0), 0)):  # bottom and top, or none
        for turn in (False, True):
            pc = _tiling((-1.0, 0.0, 1.0, 1.0), [(-1.0, 0.0, -half, 1.0), (half, 0.0, 1.0, 1.0)],
                         [0.0, 1.0], turn)
            assert len(analyze_boundary(pc).dual_points) == duals


def test_huge_coordinates_share_infinite_cells():
    an = analyze_boundary(dict(_ORACLE_CASES)["huge-x"])
    assert [p.to_floats() for p in an.dual_points] == [(3e300, 1.0), (1e300, 1.0)]
    # the bottom side of grain 1 is 2e300 long, and its normal -e2 is perpendicular to e1
    assert [(p.to_floats(), gid) for p, gid in an.perp_points] == [((2e300, 0.0), 1)]
    assert an.J == {1}


def test_split_arc_perp_point_counted_once():
    an = analyze_boundary(dict(_ORACLE_CASES)["split-arc"])
    assert [gid for _, gid in an.perp_points] == [1]
    assert len(an.dual_points) == 2


def _square(*corners):
    pts = [Vec2(float(x), float(y)) for x, y in corners]
    loop = tuple(Segment(a, b) for a, b in zip(pts, pts[1:] + pts[:1]))
    return Polycrystal(loop, (Grain(1, loop, 0.3),))


def test_zero_length_curve_is_not_an_outer_curve():
    # the unit square with its corner (1, 0) repeated as a segment of length 0
    pc = _square((0, 0), (1, 0), (1, 0), (1, 1), (0, 1))
    an = analyze_boundary(pc)
    assert an.outer_curves == {1: [c for c in pc.domain if c.length() > 0]}
    assert an == analyze_boundary(_square((0, 0), (1, 0), (1, 1), (0, 1)))
    assert an == brute_force_boundary_analysis(pc, designed=True)
    assert len(probe_outer_curves(pc, pc.grains[0])) == 5  # the probes keep it


def test_tiny_chord_is_not_domain_boundary():
    # a chord 2.8e-5 long whose sagitta, 1e-10, is below POS_TOL
    pc = chord_disk([0.9999999999], [0.0, 1.0])
    assert 2e-5 < pc.grains[0].boundary[1].length() < 3e-5
    an = analyze_boundary(pc)
    probed = brute_force_boundary_analysis(pc)
    kinds = {gid: [type(c) for c in curves] for gid, curves in an.outer_curves.items()}
    assert kinds == {1: [Arc], 2: [Arc]}
    assert {gid: [type(c) for c in curves] for gid, curves in probed.outer_curves.items()} == {
        1: [Arc, Segment], 2: [Segment, Arc]}
    assert (an.J, an.dual_points) == (probed.J, probed.dual_points)
    assert an == brute_force_boundary_analysis(pc, designed=True)


@pytest.mark.parametrize("gap", [0.0, 0.5])
def test_box_sweep_pairs_across_a_split_only(gap):
    # integer corners, so boxes touch exactly and meet at gap 0 on an edge or a corner
    rng = np.random.default_rng(53)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        lo = rng.integers(0, 6, size=(n, 2))
        hi = lo + rng.integers(0, 3, size=(n, 2))
        boxes = {i: (*map(float, lo[i]), *map(float, hi[i])) for i in range(n)}
        near = {(i, k) for i in boxes for k in boxes if i < k
                and all(boxes[i][a] <= boxes[k][a + 2] + gap and boxes[k][a] <= boxes[i][a + 2] + gap
                        for a in (0, 1))}
        assert set(map(tuple, map(sorted, geometry._box_pairs(boxes, gap)))) == near
        split = int(rng.integers(0, n + 1))
        got = [tuple(sorted(p)) for p in geometry._box_pairs(boxes, gap, split=split)]
        assert len(got) == len(set(got))
        assert set(got) == {(i, k) for i, k in near if i < split <= k}


@pytest.mark.parametrize("make, phi", [
    (quadrant_disk, -1e-20), (lambda: chord_disk([0.0], [0.0, 1.0]), -1e-17),
    (quadrant_disk, -5e-324), (quadrant_disk, 1e17), (quadrant_disk, -1e300),
    (sheared_square_polycrystal, 1e300),
], ids=["quadrant--1e-20", "bicrystal--1e-17", "quadrant--5e-324", "quadrant-1e17",
        "quadrant--1e300", "square-1e300"])
def test_rotated_copy_stays_valid(make, phi):
    # theta + phi rounding up to pi reads as texture 0; a huge phi keeps the arc angles
    pc = make()
    rotated = pc.rotated(phi)
    assert all(0.0 <= t < PI for t in rotated.texture_angles())
    an, an_rot = analyze_boundary(pc), analyze_boundary(rotated)
    assert (an_rot.boundary_grains, an_rot.J, an_rot.J_prime) == (
        an.boundary_grains, an.J, an.J_prime)
    assert an_rot == brute_force_boundary_analysis(rotated)


@pytest.mark.parametrize("heights", [[0.0, 6.401789357369894e-116], [-0.5, 1 - 2 ** -53]],
                         ids=["thin-band", "flat-cap"])
def test_grain_area_below_rounding_is_rejected(heights):
    # valid as drawn, but a rotated copy could turn the grain inside out
    with pytest.raises(InvalidPolycrystal, match="is below rounding$"):
        chord_disk(heights, [0.0, 1.0, 2.0])
    chord_disk([-0.5, 0.9999999999], [0.0, 1.0, 2.0])  # a cap of area 1.9e-15 stays


def test_perp_bound_member_is_in_N_for_every_direction():
    rng = np.random.default_rng(64)
    bound = outer_bound_perp(quadrant_disk())
    empty = outer_bound_perp(sheared_square_polycrystal())
    assert len(bound.slip_directions) == 2 and empty.slip_directions == ()
    matrices = [rand_sl2(rng, 0.8, 1.2, -0.4, 0.4) for _ in range(200)]
    matrices += [Mat2(2.0, 0.0, 0.0, 1.0), Mat2(1.0, 0.0, 0.0, 1.0), Mat2(math.nan, 0.0, 0.0, 1.0)]
    seen = set()
    for F in matrices:
        want = is_sl2(F) and all(math.hypot(*(F @ s).to_floats()) <= 1.0 + 1e-9
                                 for s in bound.slip_directions)
        assert bound.member(F) == want
        assert empty.member(F) == is_sl2(F)
        seen.add(want)
    assert seen == {True, False}


def test_perp_bound_scan_matches_greedy_oracle(monkeypatch):
    # outer_bound_perp's scan against the brute-force greedy rule: in gid order a
    # texture is kept unless an earlier kept texture equals it, near 0, near pi
    # (the wrap) and along sub-tol chains whose ends differ
    tol = geometry.DEFAULT_TOL
    near_zero = [0.0, 1e-10, 4e-10, tol, 1.5e-9, 2.5e-9]
    near_pi = [math.nextafter(PI, 0.0), PI - 1e-10, PI - 6e-10, PI - tol, PI - 2e-9]
    pool = near_zero + near_pi + [0.5, 0.5 + 0.9e-9, 0.5 + 1.8e-9, PI / 2, 2.0]
    rng = np.random.default_rng(51)
    for _ in range(300):
        thetas = [pool[k] for k in rng.integers(len(pool), size=int(rng.integers(1, 12)))]
        J = rng.permutation(len(thetas)).tolist()  # the scan must sort the gids
        monkeypatch.setattr(geometry, "analyze_boundary", lambda pc, tol: SimpleNamespace(J=J))
        pc = SimpleNamespace(grain_by_id=lambda gid: SimpleNamespace(theta=thetas[gid]))
        kept = []
        for t in thetas:
            if not any(_textures_equal(t, k) for k in kept):
                kept.append(t)
        assert outer_bound_perp(pc).slip_directions == tuple(map(slip_direction, kept))


def test_perp_bound_keeps_greedy_texture_order():
    # textures 0, 0.6e-9 and 1.2e-9 on the bottom edge: the middle one equals
    # both others, which differ; the first kept texture drops the middle one
    bound = outer_bound_perp(dict(_ORACLE_CASES)["strip-chain"])
    assert bound.slip_directions == (slip_direction(0.0), slip_direction(1.2e-9))


@pytest.mark.parametrize("heights, thetas, pair", [
    ([-0.5, 0.0, 0.5], [0.9, 0.9 + 1e-10, 0.1, 0.1], (1, 2)),
    ([-0.5, 0.0, 0.5], [PI - 1e-10, 0.5, 0.5, 0.0], (2, 3)),
    ([-0.5, 0.0, 0.5], [0.3, 1e-10, PI - 1e-10, 0.3], (2, 3)),
    ([-0.6, -0.2, 0.2, 0.6], [2.0, 0.7, 2.0, 1.0, 1.0], (4, 5)),
])
def test_equal_texture_error_names_first_adjacent_pair(heights, thetas, pair):
    with pytest.raises(InvalidPolycrystal,
                       match=f"^adjacent grains {pair[0]} and {pair[1]} share texture angle$"):
        chord_disk(heights, thetas)


def _analysis_calls(monkeypatch, name, polycrystals):
    """Calls of ``geometry.<name>`` made by ``analyze_boundary`` on each polycrystal."""
    calls = [0]
    fn = getattr(geometry, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(geometry, name, counted)
    counts = []
    for pc in polycrystals:
        calls[0] = 0
        analyze_boundary(pc)
        counts.append(calls[0])
    return counts


def test_near_calls_grow_linearly(monkeypatch):
    # _norm makes the exact test |p - q| <= POS_TOL of every neighbour query
    polycrystals = []
    for bands in (100, 400):
        polycrystals += [chord_disk(*_chord_inputs(np.random.default_rng(bands), bands)),
                         _banded_square(bands), _banded_square(bands, True)]
    counts = _analysis_calls(monkeypatch, "_norm", polycrystals)
    for small, large in zip(counts[:3], counts[3:]):
        assert 0 < large <= 6 * small  # linear is 4x; all pairs is about 16x


def test_overlap_calls_grow_linearly(monkeypatch):
    # the split square's domain grows with it: pairing every curve with it grows 16x
    counts = _analysis_calls(monkeypatch, "curve_overlap_length",
                             [_banded_square(100, True), _banded_square(400, True)])
    assert 0 < counts[1] <= 6 * counts[0]


def test_thousand_band_disk_builds_and_analyzes():
    pc = chord_disk(*_chord_inputs(np.random.default_rng(52), 1000))
    an = analyze_boundary(pc)
    assert an.boundary_grains == tuple(range(1, 1001))
    assert len(an.dual_points) == 2 * 999


def test_alternating_textures_test_few_grain_pairs(monkeypatch):
    calls = [0]
    adjacent = geometry._grains_adjacent

    def counted(g, h):
        calls[0] += 1
        return adjacent(g, h)

    monkeypatch.setattr(geometry, "_grains_adjacent", counted)
    bands = 400
    alternating = [0.0 if k % 2 == 0 else PI / 2 for k in range(bands)]
    chord_disk(*_chord_inputs(np.random.default_rng(53), bands, alternating))
    assert calls[0] <= bands  # the pairwise scan made 2 * C(200, 2) = 39,800 calls
    alternating[250] = alternating[249]
    with pytest.raises(InvalidPolycrystal, match="^adjacent grains 250 and 251 share"):
        chord_disk(*_chord_inputs(np.random.default_rng(53), bands, alternating))


def _facet_polygon(textures):
    """(domain, grains): the regular polygon of len(textures) facets, cut into one
    triangle per facet with apex at the centre, so every grain's box holds the centre."""
    m = len(textures)
    corners = [Vec2(math.cos(TAU * k / m), math.sin(TAU * k / m)) for k in range(m)]
    facets = tuple(Segment(p, q) for p, q in zip(corners, corners[1:] + corners[:1]))
    o = Vec2(0.0, 0.0)
    return facets, tuple(Grain(k + 1, (Segment(o, f.p), f, Segment(f.q, o)), t)
                         for k, (f, t) in enumerate(zip(facets, textures)))


def test_equal_texture_check_sweeps_each_texture_apart(monkeypatch):
    # each texture is the facet normal + pi/2, shared by the opposite facet only, and
    # every box holds the centre: one sweep per texture meets m / 2 box pairs, one
    # sweep over all candidate textures would meet about m^2 / 2
    calls = [0]
    equal = geometry._textures_equal

    def counted(a, b):
        calls[0] += 1
        return equal(a, b)

    monkeypatch.setattr(geometry, "_textures_equal", counted)
    m = 400
    pc = Polycrystal(*_facet_polygon([mod_pi(TAU * (k + 0.5) / m + PI / 2) for k in range(m)]))
    assert len(outer_bound_perp(pc).slip_directions) == m // 2
    calls[0] = 0
    Polycrystal(pc.domain, pc.grains)
    assert 0 < calls[0] <= 4 * m


@pytest.mark.parametrize("jitter", [(0.0,), (0.0, 4e-10, -4e-10), (0.0, 9e-10, 1.8e-9),
                                    (0.0, 1.1e-9, 0.0, 0.0, -1.1e-9),
                                    (4e-10, 9e-10, 1.1e-9, -4e-10, -9e-10, -1.1e-9, 0.0)])
@pytest.mark.parametrize("paired", [False, True], ids=["opposite", "paired"])
def test_equal_texture_runs_match_all_pairs(paired, jitter):
    # textures k pi / 32 (opposite facets) or (k // 2) pi / 16 (also each facet pair),
    # so 0 and pi meet across the wrap; jitters of 4e-10 to 1.8e-9 make chains of
    # equal neighbours whose ends differ, near 0, near pi and inside
    m = 64
    textures = [mod_pi((k // 2 * 2 if paired else k) * PI / 32 + jitter[k % len(jitter)])
                for k in range(m)]
    domain, grains = _facet_polygon(textures)
    want = pairwise_adjacent_equal_textures(grains)
    assert geometry._adjacent_equal_texture_pairs(grains) == want
    if jitter == (0.0,):
        assert len(want) == (m // 2 if paired else 0)
    if want:
        i, j = want[0]
        with pytest.raises(InvalidPolycrystal, match=f"^adjacent grains {i + 1} and {j + 1} share"):
            Polycrystal(domain, grains)


# ---------------------------------------------------------------------------
# one analysis per polycrystal and angular tolerance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("angular_tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_bad_angular_tol_is_domain_error(angular_tol):
    pc = quadrant_disk()
    for entry in (analyze_boundary, outer_bound_perp, equal_perp_full):
        with pytest.raises(DomainError, match="angular_tol"):
            entry(pc, angular_tol)
    assert pc._analyses == {}


def test_analysis_is_computed_once_per_polycrystal_and_tolerance(monkeypatch):
    calls = []
    analyze = geometry._analyze_boundary

    def counted(pc, angular_tol):
        calls.append(angular_tol)
        return analyze(pc, angular_tol)

    monkeypatch.setattr(geometry, "_analyze_boundary", counted)
    pc = BICRYSTAL.rotated(0.0)
    an = analyze_boundary(pc)
    assert analyze_boundary(pc) is an
    outer_bound_perp(pc)
    equal_perp_full(pc)
    assert boundary_samples(pc, 90).analysis is an
    outer_bound_full_member(Mat2(1.0, 0.0, 0.0, 1.0), pc)
    assert calls == [geometry.ANGULAR_TOL]
    coarse = analyze_boundary(pc, 0.05)
    assert coarse is not an and analyze_boundary(pc, 0.05) is coarse
    rotated = pc.rotated(1.0)
    assert analyze_boundary(rotated) is not analyze_boundary(pc)
    assert calls == [geometry.ANGULAR_TOL, 0.05, geometry.ANGULAR_TOL]


def test_explicit_analysis_takes_precedence():
    pc = quadrant_disk()
    empty = geometry.BoundaryAnalysis(boundary_grains=(), dual_points=(), perp_points=(),
                                      J=frozenset(), J_prime=frozenset())
    assert boundary_samples(pc, 90, analysis=empty).normals == {}
    assert boundary_samples(pc, 90).normals


def test_full_member_reads_the_analysis_at_its_angular_tol():
    # textures 1e-4 off the sides' tangents: the sides are perpendicular
    # points at angular_tol 1e-3 but not at 1e-6
    pc = _tiling((0.0, 0.0, 2.0, 1.0), [(0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 2.0, 1.0)],
                 [1e-4, PI / 2 + 1e-4])
    tols = (1e-6, 1e-3)
    assert [sorted(analyze_boundary(pc, a).J) for a in tols] == [[], [1, 2]]
    assert [equal_perp_full(pc, a) for a in tols] == [False, True]
    # a segment has one normal, so sampling decides the full bound exactly
    samples = {a: boundary_samples(pc, 90, analyze_boundary(pc, a)) for a in tols}
    rng = np.random.default_rng(65)
    differ = 0
    for _ in range(400):
        F = rand_sl2(rng)
        got = [outer_bound_full_member(F, pc, angular_tol=a) for a in tols]
        assert got == [sampled_full_member(F, pc, samples=samples[a]) for a in tols]
        differ += got[0] != got[1]
    assert differ >= 80


def test_shared_analysis_is_read_only():
    pc = chord_disk([-0.3, 0.4], [0.2, 1.4, 2.6])
    an = analyze_boundary(pc)
    with pytest.raises(TypeError):
        an.outer_curves[1] = []
    with pytest.raises(AttributeError):
        an.J = frozenset()
    assert analyze_boundary(pc) == brute_force_boundary_analysis(pc)


def test_polycrystal_pickles_without_its_analyses():
    pc = quadrant_disk()
    an = analyze_boundary(pc)
    copy = pickle.loads(pickle.dumps(pc))
    assert copy == pc and copy._analyses == {}
    assert analyze_boundary(copy) == an


# ---------------------------------------------------------------------------
# full bound
# ---------------------------------------------------------------------------

def test_rotations_pass_full_bound():
    rng = np.random.default_rng(41)
    for pc in (quadrant_disk(), BICRYSTAL, sheared_square_polycrystal()):
        samples = boundary_samples(pc, 360)
        for R in rotations_batch(rng, 20):
            assert outer_bound_full_member(mat_of(R), pc, samples=samples)


def test_full_bound_rejects_stretch_on_quadrant_disk():
    # fails the perpendicular-point membership of the axis-aligned grains
    pc = quadrant_disk()
    F = Mat2(2, 0, 0, 0.5)
    assert not outer_bound_full_member(F, pc)
    assert not nu_compatible(F, E1, E2)


def test_full_member_requires_sl2():
    with pytest.raises(NotSL2):
        outer_bound_full_member(Mat2(2, 0, 0, 1), quadrant_disk())


def test_full_bound_subset_of_perp_bound():
    rng = np.random.default_rng(42)
    for _ in range(20):
        pc = random_chord_disk(rng, int(rng.integers(2, 6)))
        bound = outer_bound_perp(pc)
        samples = boundary_samples(pc, 360)
        for _ in range(30):
            F = rand_sl2(rng, 0.6, 1.3, -1.5, 1.5)
            if outer_bound_full_member(F, pc, samples=samples, tol=1e-9):
                assert bound.member(F, 1e-6)


def test_taylor_members_pass_full_bound():
    rng = np.random.default_rng(43)
    for _ in range(20):
        pc = random_chord_disk(rng, int(rng.integers(2, 6)))
        aset = normalize(pc.texture_angles())
        shift = rotation(aset.shift)  # bound of the raw texture is rotated back
        samples = boundary_samples(pc, 360)
        for _ in range(40):
            F = rand_sl2(rng, 0.6, 1.05, -1.0, 1.0)
            if taylor_member(F @ shift, aset):
                assert outer_bound_full_member(F, pc, samples=samples, tol=1e-6)
        for R in rotations_batch(rng, 5):
            assert taylor_member(mat_of(R) @ shift, aset)
            assert outer_bound_full_member(mat_of(R), pc, samples=samples, tol=1e-6)


def test_vectorized_compatibility_matches_scalar():
    rng = np.random.default_rng(44)
    angles = rng.uniform(0, 2 * PI, 100)
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    # each strain also with its rows scaled by 10^k, 10^-k, k in (-150, 150): there
    # |Fs|^2 can overflow and the forbidden window be narrower than a float
    scales = 10.0 ** np.random.default_rng(46).uniform(-150, 150, 50)
    for lam in scales:
        F = rand_sl2(rng, 0.5, 1.6, -2.0, 2.0)
        theta = float(rng.uniform(0, PI))
        for G in (F, Mat2(F.a11 * lam, F.a12 * lam, F.a21 / lam, F.a22 / lam)):
            got = compatible_with_normals(G, theta, normals)
            want = all(nu_compatible(G, slip_direction(theta), Vec2(*n)) for n in normals)
            assert got == want


def test_rotation_invariance_of_memberships():
    rng = np.random.default_rng(45)
    pc = BICRYSTAL
    phi = 0.37
    rotated = pc.rotated(phi)
    R = rotation(phi)
    bound = outer_bound_perp(pc)
    bound_rot = outer_bound_perp(rotated)
    samples = boundary_samples(pc, 480)
    samples_rot = boundary_samples(rotated, 480)
    for _ in range(40):
        F = rand_sl2(rng, 0.6, 1.3, -1.5, 1.5)
        FR = R @ F @ R.transpose()
        assert bound.member(F, 1e-7) == bound_rot.member(FR, 1e-7)
        assert (outer_bound_full_member(F, pc, samples=samples, tol=1e-7)
                == outer_bound_full_member(FR, rotated, samples=samples_rot, tol=1e-7))


def test_quadrant_disk_full_bound_equals_rotations():
    pc = quadrant_disk()
    samples = boundary_samples(pc, 720)
    rng = np.random.default_rng(46)
    for _ in range(100):
        F = rand_sl2(rng, 0.5, 1.4, -1.5, 1.5)
        frame_ok = is_SO2(F, 1e-9)
        # stay away from the rotation set boundary where tolerances differ
        if not frame_ok:
            from polyslip.mat2 import decompose
            fr = decompose(F, E1)
            if abs(fr.beta - 1) < 1e-6 and abs(fr.gamma) < 1e-6:
                continue
        assert outer_bound_full_member(F, pc, samples=samples) == frame_ok
    for R in rotations_batch(rng, 50):
        assert outer_bound_full_member(mat_of(R), pc, samples=samples)


def test_boundary_samples_equal_the_loop_bit_for_bit():
    rng = np.random.default_rng(64)
    pcs = _stock() + [random_chord_disk(rng, int(rng.integers(2, 10))) for _ in range(12)]
    pcs += [pc.rotated(phi) for pc in pcs[:9] for phi in (0.37, 4.569589314312426, -2.0)]
    for pc in pcs:
        for n in (1, 90, 720, 2880):
            got = boundary_samples(pc, n)
            want = loop_boundary_samples(pc, n)
            assert list(got.normals) == list(want)
            for gid, rows in want.items():
                assert got.normals[gid].dtype == rows.dtype
                assert got.normals[gid].shape == rows.shape
                assert got.normals[gid].tobytes() == rows.tobytes()


def test_exact_members_are_sampled_members():
    # one direction only: sampling misses the failures between its normals
    rng = np.random.default_rng(60)
    pcs = _stock() + [random_chord_disk(rng, int(rng.integers(2, 9))) for _ in range(24)]
    members = rejected = 0
    for pc in pcs:
        analysis = analyze_boundary(pc)
        samples = [boundary_samples(pc, n, analysis) for n in (90, 720, 20_000)]
        candidates = [rand_sl2(rng, 0.8, 1.2, -0.4, 0.4) for _ in range(40)]
        candidates += [mat_of(R) for R in rotations_batch(rng, 3)]
        for F in candidates:
            if outer_bound_full_member(F, pc):
                members += 1
                for smp in samples:
                    assert sampled_full_member(F, pc, samples=smp)
            else:
                rejected += 1
    assert members >= 200 and rejected >= 200


def test_segment_boundaries_match_sampling_both_ways():
    # a segment has one normal, which every sampling density hits
    rng = np.random.default_rng(61)
    tiling = _tiling((0.0, 0.0, 3.0, 1.0), [(0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 3.0, 1.0)],
                     [0.3, 2.0], turn=True)
    for pc in (sheared_square_polycrystal(), sheared_square_polycrystal().rotated(0.7), tiling):
        analysis = analyze_boundary(pc)
        samples = boundary_samples(pc, 90, analysis)
        seen = set()
        for _ in range(300):
            F = rand_sl2(rng, 0.5, 2.0, -4.0, 4.0)
            exact = outer_bound_full_member(F, pc)
            assert exact == sampled_full_member(F, pc, samples=samples)
            seen.add(exact)
        assert seen == {True, False}
    # a shear that forbids the line of the square's one normal angle, atan(3)
    assert not outer_bound_full_member(Mat2(1.5, 4.5, 0.0, 2 / 3), sheared_square_polycrystal())


def test_huge_stretch_rejects_a_side_normal_in_the_narrow_cone():
    # slip (0.6, 0.8), no perpendicular point, and the side x = 1 with normal e1:
    # |F e2|^2 = lam^-2 against (s.e1)^2 = 0.36, though the forbidden normals of
    # diag(lam, 1/lam) are a cone about e1 only about 1/lam wide
    pts = [Vec2(0.0, 0.0), Vec2(1.0, -1.0), Vec2(1.0, 1.0)]
    sides = tuple(Segment(p, q) for p, q in zip(pts, pts[1:] + pts[:1]))
    pc = Polycrystal(domain=sides, grains=(Grain(1, sides, math.atan2(0.8, 0.6)),))
    assert analyze_boundary(pc).J == frozenset()
    assert [k for k in range(1, 151)
            if outer_bound_full_member(Mat2(10.0 ** k, 0.0, 0.0, 10.0 ** -k), pc)] == []
    # compressed along x instead, every side's edge is stretched: no normal fails
    assert outer_bound_full_member(Mat2(1e-150, 0.0, 0.0, 1e150), pc) is True


@pytest.mark.parametrize("heights, thetas, entries", FALSE_SAMPLED_MEMBERS)
def test_pinned_false_sampled_members_are_rejected(heights, thetas, entries):
    pc = chord_disk(heights, thetas)
    F = Mat2(*entries)
    analysis = analyze_boundary(pc)
    assert sampled_full_member(F, pc, 720)
    assert not outer_bound_full_member(F, pc)
    assert not dense_full_member(F, pc, analysis, 200_001)


def _rotation_cases():
    rng = np.random.default_rng(62)
    chords = [chord_disk(*_chord_inputs(rng, bands)) for bands in (2, 3, 5, 8, 13)]
    return [(f"stock{k}", pc) for k, pc in enumerate(_stock())] + [
        (f"chord{k}", pc) for k, pc in enumerate(chords)]


@pytest.mark.parametrize("pc", [pc for _, pc in _rotation_cases()],
                         ids=[name for name, _ in _rotation_cases()])
def test_exact_membership_is_rotation_equivariant(pc):
    rng = np.random.default_rng(63)
    candidates = [rand_sl2(rng, 0.8, 1.2, -0.4, 0.4) for _ in range(40)]
    candidates += [mat_of(R) for R in rotations_batch(rng, 4)]
    # stretches that fail somewhere on every case, the tilted square included
    candidates += [Mat2(2.0, 0.0, 0.0, 0.5), Mat2(0.5, 0.0, 0.0, 2.0), Mat2(1.5, 4.5, 0.0, 2 / 3)]
    want = [outer_bound_full_member(F, pc) for F in candidates]
    assert True in want and False in want
    for phi in (0.37, PI / 2, 2.0, -1.1, 4.569589314312426, 11.0):
        rotated = pc.rotated(phi)
        R = rotation(phi)
        assert [outer_bound_full_member(R @ F @ R.transpose(), rotated)
                for F in candidates] == want


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_json_round_trip(tmp_path):
    pc = BICRYSTAL
    d = polycrystal_to_dict(pc)
    path = tmp_path / "bi.json"
    path.write_text(json.dumps(d))
    from polyslip.geometry import load_polycrystal
    back = load_polycrystal(path)
    assert polycrystal_to_dict(back) == d


def test_polycrystal_schema_validation():
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res
    schema = json.loads(res.files("polyslip").joinpath(
        "schemas/polycrystal.schema.json").read_text())
    for pc in (quadrant_disk(), BICRYSTAL, sheared_square_polycrystal()):
        jsonschema.validate(polycrystal_to_dict(pc), schema)
    for bad in (
        {"domain": [], "grains": []},
        {"domain": [{"kind": "arc", "center": [0, 0], "radius": -1.0,
                     "from_angle": 0.0, "to_angle": 6.28}],
         "grains": [{"id": 1, "boundary": [], "theta": 0.0}]},
        {"domain": [{"kind": "segment", "p": [0, 0]}],
         "grains": [{"id": 1, "boundary": [], "theta": 0.0}]},
    ):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)


def test_random_generator_produces_valid_polycrystals():
    rng = np.random.default_rng(47)
    for _ in range(30):
        pc = random_chord_disk(rng, int(rng.integers(2, 6)))
        assert abs(sum(g.area() for g in pc.grains) - PI) < 1e-6 * PI


def test_polycrystal_from_dict_rejects_what_the_schema_rejects():
    # the schema cases above, checked without jsonschema
    for bad in (
        {"domain": [], "grains": []},
        {"domain": [{"kind": "arc", "center": [0, 0], "radius": -1.0,
                     "from_angle": 0.0, "to_angle": 6.28}],
         "grains": [{"id": 1, "boundary": [], "theta": 0.0}]},
        {"domain": [{"kind": "segment", "p": [0, 0]}],
         "grains": [{"id": 1, "boundary": [], "theta": 0.0}]},
        [],
        {"domain": [{"kind": "segment", "p": 5, "q": [1, 0]}], "grains": []},
    ):
        with pytest.raises(InvalidPolycrystal):
            polycrystal_from_dict(bad)


class _CountingRng:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return self.rng.uniform(*args, **kwargs)


def _chord_heights(pc):
    return sorted({float(c.p.y) for g in pc.grains for c in g.boundary if isinstance(c, Segment)})


@pytest.mark.parametrize("min_gap, min_angle_gap, n_max", [
    (0.2, 0.05, 9), (0.3, 1.5, 7), (0.1, 0.0, 17), (0.55, 0.5, 4),
])
def test_random_chord_disk_meets_its_gaps(min_gap, min_angle_gap, n_max):
    for seed in range(200):
        for n in range(2, n_max + 1):
            rng = _CountingRng(seed)
            pc = random_chord_disk(rng, n, min_gap=min_gap, min_angle_gap=min_angle_gap)
            assert rng.calls == 1 + n  # one call for the heights, one per texture
            hs = _chord_heights(pc)
            assert len(hs) == n - 1
            assert -0.8 < hs[0] and hs[-1] < 0.8
            assert all(b - a >= min_gap for a, b in zip(hs, hs[1:]))
            thetas = pc.texture_angles()
            assert all(0.0 <= t < PI for t in thetas)
            for a, b in zip(thetas, thetas[1:]):
                d = abs(a - b)
                assert min(d, PI - d) > min_angle_gap
    # one more grain does not fit
    with pytest.raises(InvalidPolycrystal):
        random_chord_disk(np.random.default_rng(0), n_max + 1, min_gap, min_angle_gap)


@pytest.mark.parametrize("n, kwargs", [
    (1, {}), (0, {}), (10, {}), (8, {"min_gap": 0.3}), (3, {"min_gap": -0.1}),
    (3, {"min_gap": math.nan}), (3, {"min_angle_gap": 1.6}), (3, {"min_angle_gap": PI / 2}),
    (3, {"min_angle_gap": -0.01}), (3, {"min_angle_gap": math.nan}),
])
def test_random_chord_disk_rejects_infeasible_gaps(n, kwargs):
    with pytest.raises(InvalidPolycrystal):
        random_chord_disk(np.random.default_rng(0), n, **kwargs)
