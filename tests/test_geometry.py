import json
import math

import numpy as np
import pytest

from helpers import mat_of, rand_sl2, rotations_batch
from polyslip.compat import nu_compatible
from polyslip.errors import InvalidPolycrystal, NotSL2
from polyslip.geometry import (Arc, Grain, Polycrystal, Segment,
                               analyze_boundary, boundary_samples, chord_disk,
                               compatible_with_normals, curve_overlap_length,
                               equal_perp_full, halfdisk_bicrystal,
                               outer_bound_full_member, outer_bound_perp,
                               polycrystal_from_dict, polycrystal_to_dict,
                               quadrant_disk, random_chord_disk,
                               sheared_square_polycrystal)
from polyslip.mat2 import E1, E2, Mat2, Vec2, is_SO2, rotation
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


def test_curve_overlap():
    a = Segment(Vec2(0.0, 0.0), Vec2(2.0, 0.0))
    b = Segment(Vec2(3.0, 0.0), Vec2(1.0, 0.0))  # reversed orientation
    assert curve_overlap_length(a, b) == pytest.approx(1.0)
    c = Segment(Vec2(0.0, 1.0), Vec2(2.0, 1.0))
    assert curve_overlap_length(a, c) == 0.0
    a1 = Arc(Vec2(0.0, 0.0), 1.0, 0.0, PI / 2, True)
    a2 = Arc(Vec2(0.0, 0.0), 1.0, PI / 4, PI, True)
    assert curve_overlap_length(a1, a2) == pytest.approx(PI / 4)


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
    assert outer_bound_full_member(F, BICRYSTAL, n_samples=2000) == closed_form
    assert outer_bound_perp(BICRYSTAL).member(F)  # the looser bound accepts it
    # a non-rotation inside both sets passes the sampled bound
    from polyslip.taylor import gamma_bounds
    lo, hi = gamma_bounds(PI / 3, 0.95)
    G = psi(0.95, 0.5 * (lo + hi)) @ rotation(-PI / 6)
    assert in_N(G, E2) and in_N(G, slip_direction(PI / 6))
    assert not is_SO2(G)
    assert outer_bound_full_member(G, BICRYSTAL, n_samples=2000)


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
# sampled full bound
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
    for _ in range(50):
        F = rand_sl2(rng, 0.5, 1.6, -2.0, 2.0)
        theta = float(rng.uniform(0, PI))
        got = compatible_with_normals(F, theta, normals)
        want = all(nu_compatible(F, slip_direction(theta), Vec2(*n)) for n in normals)
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
