import math

import numpy as np
import pytest

from helpers import (brute_force_taylor, mat_of, rand_sl2, rand_sl2_batch,
                     scan_trivial)
from polyslip.errors import DomainError, EmptyInput, NotSL2
from polyslip.mat2 import E1, Mat2, decompose, is_SO2, rotation
from polyslip.slip import psi
from polyslip.taylor import (AngleSet, PAIR, SINGLE_CRYSTAL, TRIPLE, gamma_bounds,
                             in_lambda, is_trivial, normalize, reduce_angles,
                             taylor_M_member, taylor_member, taylor_member_batch)

PI = math.pi


# ---------------------------------------------------------------------------
# gamma_bounds and in_lambda
# ---------------------------------------------------------------------------

def test_gamma_bounds_at_full_stretch():
    lo, hi = gamma_bounds(PI / 4, 1.0)
    assert (lo, hi) == (pytest.approx(-2.0), pytest.approx(0.0, abs=1e-12))
    lo, hi = gamma_bounds(PI / 2, 1.0)
    assert (lo, hi) == (pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))
    lo, hi = gamma_bounds(3 * PI / 4, 1.0)
    assert (lo, hi) == (pytest.approx(0.0, abs=1e-12), pytest.approx(2.0))


def test_gamma_bounds_matches_cotangent_form():
    rng = np.random.default_rng(11)
    for theta in rng.uniform(1e-3, PI / 2 - 1e-3, 40):
        lo, hi = gamma_bounds(theta, 1.0)
        assert lo == pytest.approx(-2.0 / math.tan(theta), abs=1e-10)
        assert hi == pytest.approx(0.0, abs=1e-10)
    for theta in rng.uniform(PI / 2 + 1e-3, PI - 1e-3, 40):
        lo, hi = gamma_bounds(theta, 1.0)
        assert lo == pytest.approx(0.0, abs=1e-10)
        assert hi == pytest.approx(-2.0 / math.tan(theta), abs=1e-10)


def test_gamma_bounds_domain_errors():
    with pytest.raises(DomainError):
        gamma_bounds(PI / 6, 0.4)  # below sin(theta) = 0.5
    with pytest.raises(DomainError):
        gamma_bounds(PI / 6, 1.1)
    with pytest.raises(DomainError):
        gamma_bounds(0.0, 1.0)
    with pytest.raises(DomainError):
        gamma_bounds(PI, 1.0)


def test_in_lambda_examples():
    for theta in (0.1, PI / 3, PI / 2, 2.9):
        assert in_lambda(theta, 1.0, 0.0)
    assert not in_lambda(PI / 2, 0.9, 0.0)
    assert not in_lambda(PI / 6, 0.4, 0.0)


def test_in_lambda_below_sin_theta_with_a_tiny_stretch():
    # the root is 0 below sin(theta) and is no longer evaluated at beta, whose
    # square underflows; beta is within tol = 1e-9 of sin(theta) = 1e-12
    assert in_lambda(1e-12, 1e-170, 0.0)
    assert not in_lambda(1e-12, 1e-170, 0.0, 0.0)


def test_underflowing_sin_theta_is_domain_error():
    # normalize keeps a 1e-200 angle at tol 0, and sin(1e-200)^2 underflows
    angles = normalize([0.0, 1e-200], 0.0)
    with pytest.raises(DomainError):
        taylor_member(Mat2.identity(), angles, 0.0)
    with pytest.raises(DomainError):
        taylor_member_batch(np.eye(2)[None], angles, 0.0)
    with pytest.raises(DomainError):
        in_lambda(1e-200, 1.0, 0.0)


def test_region_boundary_consistency():
    # points on the gamma curves satisfy |F R(theta) e1| = 1 exactly
    rng = np.random.default_rng(12)
    for _ in range(200):
        theta = rng.uniform(0.05, PI - 0.05)
        beta = rng.uniform(math.sin(theta), 1.0)
        lo, hi = gamma_bounds(theta, beta)
        for gamma in (lo, hi):
            F = psi(min(beta, 1.0), gamma)
            n = ((F @ rotation(theta)) @ E1).norm()
            assert n == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_shifts_first_angle():
    aset = normalize([PI / 6, PI / 2])
    assert aset.shift == pytest.approx(PI / 6)
    assert aset.thetas == (0.0, pytest.approx(PI / 3))


def test_normalize_mod_pi():
    aset = normalize([0.0, PI + 0.2])
    assert aset.shift == 0.0
    assert aset.thetas == (0.0, pytest.approx(0.2))


def test_normalize_dedup():
    aset = normalize([0.4, 0.4 + 1e-12])
    assert aset.thetas == (0.0,)
    assert aset.shift == pytest.approx(0.4)


def test_normalize_circular_dedup():
    aset = normalize([1e-12, PI - 1e-12])
    assert aset.N == 1


def test_normalize_empty():
    with pytest.raises(EmptyInput):
        normalize([])


def test_angleset_validation():
    with pytest.raises(DomainError):
        AngleSet((0.1, 0.2))
    with pytest.raises(DomainError):
        AngleSet((0.0, 0.2, 0.2))
    with pytest.raises(DomainError):
        AngleSet((0.0, PI))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_seven_angles_to_three():
    degs = [0, 30, 55, 80, 115, 140, 165]
    aset = normalize([math.radians(d) for d in degs])
    bound = reduce_angles(aset)
    assert bound.kind == TRIPLE
    assert [round(math.degrees(a)) for a in bound.angles] == [0, 80, 115]


def test_reduce_drops_virtual_pi():
    bound = reduce_angles(normalize([0.0, PI / 6, PI / 3]))
    assert bound.kind == PAIR
    assert bound.angles == (0.0, pytest.approx(PI / 3))


def test_reduce_single_crystal():
    bound = reduce_angles(normalize([0.0]))
    assert bound.kind == SINGLE_CRYSTAL
    assert bound.angles == (0.0,)


def test_reduction_agrees_with_all_angle_intersection():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n_extra = int(rng.integers(0, 8))
        aset = normalize([0.0] + list(rng.uniform(0.0, PI, n_extra)))
        for _ in range(100):
            F = rand_sl2(rng, 0.05, 1.5, -4.0, 4.0)
            assert taylor_member(F, aset) == brute_force_taylor(F, aset.thetas)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_rotations_always_members():
    aset = normalize([0.0, 0.4, 1.8, 2.6])
    for theta in (0.0, 0.3, 4.0):
        assert taylor_member(rotation(theta), aset)


def test_orthogonal_pair_pins_to_rotations():
    aset = normalize([0.0, PI / 2])
    assert not taylor_member(psi(0.9, -0.1), aset)
    assert taylor_member(rotation(1.2), aset)


def test_interior_point_of_pair_bound():
    aset = normalize([0.0, PI / 6])
    beta = 0.95
    lo, hi = gamma_bounds(PI / 6, beta)
    gamma = 0.5 * (lo + hi)
    F = psi(beta, gamma)
    assert taylor_member(F, aset)
    # cross-check against the definition directly
    assert (F @ E1).norm() <= 1 + 1e-12
    assert ((F @ rotation(PI / 6)) @ E1).norm() <= 1 + 1e-12


def test_member_requires_sl2():
    with pytest.raises(NotSL2):
        taylor_member(Mat2(2, 0, 0, 1), normalize([0.0, 1.0]))


def test_batch_matches_scalar():
    rng = np.random.default_rng(14)
    aset = normalize([0.0, 0.6, 1.1, 2.4])
    F = rand_sl2_batch(rng, 500, 0.5, 1.2, -2.0, 2.0)
    got = taylor_member_batch(F, aset)
    for i in range(F.shape[0]):
        assert got[i] == taylor_member(mat_of(F[i]), aset)


def test_batch_matches_scalar_with_orthogonal_angle():
    rng = np.random.default_rng(15)
    aset = normalize([0.0, PI / 2, 2.0])
    F = rand_sl2_batch(rng, 200, 0.8, 1.1, -0.5, 0.5)
    got = taylor_member_batch(F, aset)
    for i in range(F.shape[0]):
        assert got[i] == taylor_member(mat_of(F[i]), aset)


# ---------------------------------------------------------------------------
# triviality
# ---------------------------------------------------------------------------

def test_is_trivial_examples():
    assert is_trivial(normalize([0.0, PI / 2]))
    assert not is_trivial(normalize([0.0, PI / 6, 5 * PI / 6]))
    assert is_trivial(normalize([0.0, PI / 3, 2 * PI / 3]))


def test_triviality_matches_independent_scan():
    rng = np.random.default_rng(16)
    for _ in range(2000):
        n_extra = int(rng.integers(0, 7))
        aset = normalize([0.0] + list(rng.uniform(0.0, PI, n_extra)))
        assert is_trivial(aset) == scan_trivial(aset.thetas)


def test_trivial_sets_reject_non_rotations():
    rng = np.random.default_rng(17)
    aset = normalize([0.0, 1.2, 1.9])
    assert is_trivial(aset)
    F = rand_sl2_batch(rng, 2000, 0.3, 1.0, -3.0, 3.0)
    beta = np.hypot(F[:, 0, 0], F[:, 1, 0])
    gamma = (F[:, 0, 1] * F[:, 0, 0] + F[:, 1, 1] * F[:, 1, 0]) / beta
    far = (np.abs(beta - 1.0) > 1e-3) | (np.abs(gamma) > 1e-3)
    assert not taylor_member_batch(F[far], aset).any()


def test_nontrivial_sets_admit_non_rotations():
    aset = normalize([0.0, PI / 6, 5 * PI / 6])
    bound = reduce_angles(aset)
    beta = 0.5 * (max(math.sin(a) for a in bound.angles if a > 0) + 1.0)
    los, his = zip(*(gamma_bounds(a, beta) for a in bound.angles if a > 0))
    gamma = 0.5 * (max(los) + min(his))
    F = psi(beta, gamma)
    assert taylor_member(F, aset)
    assert not is_SO2(F)


def _non_rotation_member(aset):
    """Grid-search a member away from the rotation fiber, or None."""
    bound = reduce_angles(aset)
    nonzero = [a for a in bound.angles if a > 0.0]
    if not nonzero:
        return psi(0.5, 0.0)
    if any(a == PI / 2 for a in nonzero):
        return None
    floor = max(math.sin(a) for a in nonzero)
    b_lo = floor + 1e-12
    b_hi = max(1.0 - 1e-4, 0.5 * (b_lo + 1.0))
    for beta in np.linspace(b_lo, b_hi, 600):
        los, his = zip(*(gamma_bounds(a, float(beta)) for a in nonzero))
        lo, hi = max(los), min(his)
        if hi - lo > 1e-7:
            return psi(float(beta), 0.5 * (lo + hi))
    return None


def test_triviality_iff_only_rotations():
    # both directions of the equivalence, on random textures: a trivial
    # set rejects everything off the rotation fiber, a non-trivial set
    # admits an explicit non-rotation member
    rng = np.random.default_rng(22)
    found_trivial = found_open = 0
    for _ in range(300):
        n_extra = int(rng.integers(1, 8))
        aset = normalize([0.0] + list(rng.uniform(0.0, PI, n_extra)))
        witness = _non_rotation_member(aset)
        if is_trivial(aset):
            found_trivial += 1
            assert witness is None or not taylor_member(witness, aset)
        else:
            found_open += 1
            if witness is None:
                # the admissible region can be a sliver thinner than the
                # search grid when an angle sits within ~1e-3 of pi/2
                nz = [a for a in reduce_angles(aset).angles if a > 0]
                assert any(abs(a - PI / 2) < 1e-3 for a in nz)
                continue
            assert taylor_member(witness, aset)
            assert not is_SO2(witness)
    assert found_trivial > 50 and found_open > 50


def test_normalize_leaves_roundoff_on_rotated_orthogonal_pair():
    # the shift is subtracted in floating point, so a rotated orthogonal
    # pair need not come back as exactly pi/2
    assert 0.7 + PI / 2 == 2.2707963267948966
    assert normalize([0.7, 0.7 + PI / 2]).thetas == (0.0, 1.5707963267948968)
    assert normalize([0.3, 0.3 + PI / 2]).thetas == (0.0, PI / 2)


@pytest.mark.parametrize("shift", [0.3, 0.7])
def test_rotated_orthogonal_pair_is_trivial_within_tol(shift):
    aset = normalize([shift, shift + PI / 2])
    assert is_trivial(aset)
    assert reduce_angles(aset).angles == aset.thetas


def test_triviality_tol_zero_is_exact():
    aset = normalize([0.7, 0.7 + PI / 2])
    assert not is_trivial(aset, tol=0.0)
    assert is_trivial(aset, tol=1e-15)
    assert is_trivial(normalize([0.0, PI / 2]), tol=0.0)


# a shear of 3e-5 at unit stretch: not a rotation, but inside the region
# of an angle 2e-16 past pi/2 once the tolerance widens it
NEAR_ROTATION = Mat2(1.0000000009, 3e-5, 0.0, 0.9999999991)


@pytest.mark.parametrize("shift", [0.3, 0.7])
def test_rotated_orthogonal_pair_pins_to_rotations(shift):
    aset = normalize([shift, shift + PI / 2])
    assert not taylor_member(NEAR_ROTATION, aset)
    assert taylor_member(rotation(0.2), aset)


@pytest.mark.parametrize("shift", [0.3, 0.7])
def test_rotated_orthogonal_pair_pins_to_rotations_batch(shift):
    aset = normalize([shift, shift + PI / 2])
    R = rotation(0.2)
    F = np.array([[[1.0000000009, 3e-5], [0.0, 0.9999999991]],
                  [[R.a11, R.a12], [R.a21, R.a22]]])
    assert taylor_member_batch(F, aset).tolist() == [False, True]


def test_trivial_texture_scalar_matches_batch_at_tol_edge():
    # a stretch within tol of 1: both paths take the same rotations-only
    # test, whichever pair makes the texture trivial
    b = 1.0 + 0.9e-9
    for aset in (normalize([0.0, 1.2, 2.0]), normalize([0.0, PI / 2])):
        assert taylor_member(Mat2(b, 0.0, 0.0, 1.0 / b), aset)
        assert taylor_member_batch(np.array([[[b, 0.0], [0.0, 1.0 / b]]]), aset).all()


def test_trivial_texture_requires_sl2():
    with pytest.raises(NotSL2):
        taylor_member(Mat2(2, 0, 0, 1), normalize([0.0, PI / 2]))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_nested_regions_below_right_angle():
    rng = np.random.default_rng(18)
    for _ in range(100):
        t1, t2 = sorted(rng.uniform(0.05, PI / 2 - 0.05, 2))
        if t2 - t1 < 1e-3:
            continue
        for beta in np.linspace(math.sin(t2), 1.0, 8):
            lo2, hi2 = gamma_bounds(t2, float(beta))
            for gamma in np.linspace(lo2, hi2, 7):
                assert in_lambda(t1, float(beta), float(gamma))


def test_mirror_symmetry_of_gamma_curves():
    rng = np.random.default_rng(19)
    for _ in range(300):
        theta = rng.uniform(0.05, PI / 2 - 0.05)
        beta = rng.uniform(math.cos(theta), 1.0)
        lo_p, hi_p = gamma_bounds(PI / 2 + theta, beta)
        lo_m, hi_m = gamma_bounds(PI / 2 - theta, beta)
        assert hi_p == pytest.approx(-lo_m, abs=1e-10)
        assert lo_p == pytest.approx(-hi_m, abs=1e-10)


def test_members_confined_to_compact_box():
    rng = np.random.default_rng(20)
    aset = normalize([0.0, 0.7, 1.9])
    bound = reduce_angles(aset)
    beta_floor = max(math.sin(a) for a in bound.angles if a > 0)
    for _ in range(3000):
        F = rand_sl2(rng, 0.05, 1.2, -4.0, 4.0)
        if not taylor_member(F, aset):
            continue
        frame = decompose(F, E1)
        assert beta_floor - 1e-9 <= frame.beta <= 1.0 + 1e-9
        gmax = max(abs(g) for a in bound.angles if a > 0
                   for g in gamma_bounds(a, frame.beta))
        assert abs(frame.gamma) <= gmax + 1e-9


def test_unrelaxed_membership():
    assert taylor_M_member(Mat2.identity(), normalize([0.0, 1.0, 2.0]))
    assert taylor_M_member(psi(1, -1), normalize([0.0, PI / 4]))
    assert not taylor_M_member(psi(1, -1), normalize([0.0, PI / 4, 3 * PI / 4]))


def test_unrelaxed_intersection_is_interval_meet():
    # the two stretched intervals [-2, 0] and [0, 2] meet only at 0
    lo1, hi1 = gamma_bounds(PI / 4, 1.0)
    lo2, hi2 = gamma_bounds(3 * PI / 4, 1.0)
    assert (pytest.approx(-2.0), pytest.approx(0.0, abs=1e-12)) == (lo1, hi1)
    assert (pytest.approx(0.0, abs=1e-12), pytest.approx(2.0)) == (lo2, hi2)
    aset = normalize([0.0, PI / 4, 3 * PI / 4])
    assert taylor_M_member(psi(1, 0.0), aset)


def test_unrelaxed_implies_relaxed():
    # build unrelaxed members directly: stretch exactly 1, shear inside
    # the meet of the stretched intervals
    rng = np.random.default_rng(21)
    aset = normalize([0.0, 0.5, 1.2])
    lo = max(gamma_bounds(a, 1.0)[0] for a in aset.thetas[1:])
    hi = min(gamma_bounds(a, 1.0)[1] for a in aset.thetas[1:])
    assert lo < hi
    for _ in range(300):
        F = rotation(rng.uniform(0, 2 * PI)) @ psi(1.0, rng.uniform(lo, hi))
        assert taylor_M_member(F, aset)
        assert taylor_member(F, aset)


def test_unrelaxed_trivial_when_angles_straddle():
    # with orientations on both sides of pi/2 only rotations survive
    aset = normalize([0.0, 0.5, 1.9, 2.3])
    assert taylor_M_member(rotation(0.8) @ psi(1.0, 0.0), aset)
    assert not taylor_M_member(rotation(0.8) @ psi(1.0, -0.2), aset)
    assert not taylor_M_member(rotation(0.8) @ psi(1.0, 0.2), aset)
