import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyslip.errors import DegenerateBeta, NotSL2
from polyslip.mat2 import (E1, Mat2, ShearFrame, Vec2, decompose, det, det_is_one, is_SO2,
                           is_sl2, norm2_is_one, require_sl2, rotation)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_det_examples():
    assert det(Mat2(1, 0.5, 0, 1)) == 1
    assert abs(det(rotation(math.pi / 3)) - 1) < 1e-15
    assert det(Mat2(2, 0, 0, 0.5)) == 1


def test_det_exact_rational():
    F = Mat2(Fraction(3, 7), Fraction(1, 2), Fraction(-2, 3), Fraction(4, 9))
    assert det(F) == Fraction(3, 7) * Fraction(4, 9) + Fraction(1, 2) * Fraction(2, 3)


def test_is_SO2_examples():
    assert is_SO2(rotation(0.7))
    assert not is_SO2(Mat2(1, 0.1, 0, 1))
    fifth = Fraction(1, 5)
    assert is_SO2(Mat2(4 * fifth, -3 * fifth, 3 * fifth, 4 * fifth), tol=0)


def test_value_types_compare_and_hash_by_value():
    half = Fraction(1, 2)
    pairs = [
        (Vec2(1.5, -2.0), Vec2(1.5, -2.0)),
        (Vec2(half, 0), Vec2(0.5, 0.0)),  # a Fraction equals and hashes as its float
        (Mat2(1.0, 0.5, 0.0, 1.0), Mat2(1.0, 0.5, 0.0, 1.0)),
        (ShearFrame(0.3, 1.2, -0.5), ShearFrame(0.3, 1.2, -0.5, E1)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and b in {a}
    assert len({Vec2(1.0, 2.0), Vec2(2.0, 1.0)}) == 2
    assert Mat2(1, 0, 0, 1) != Mat2(1, 0, 0, 2)
    assert ShearFrame(0.3, 1.2, -0.5) != ShearFrame(0.3, 1.2, -0.5, Vec2(0.0, 1.0))
    assert ShearFrame(0.1, 0.9, 0.2).s == E1


@given(finite, finite)
def test_perp_is_quarter_rotation(x, y):
    v = Vec2(x, y)
    assert v.perp().perp() == Vec2(-x, -y)
    assert v.perp().dot(v) == 0
    assert v.perp().norm2() == v.norm2()


def test_decompose_simple_shear():
    frame = decompose(Mat2(1, 0.5, 0, 1), E1)
    assert frame.rho == pytest.approx(0.0, abs=1e-12)
    assert frame.beta == pytest.approx(1.0)
    assert frame.gamma == pytest.approx(0.5)


def test_decompose_pure_rotation():
    frame = decompose(rotation(math.pi / 3), E1)
    assert frame.rho == pytest.approx(math.pi / 3)
    assert frame.beta == pytest.approx(1.0)
    assert frame.gamma == pytest.approx(0.0, abs=1e-12)


def test_decompose_diagonal_stretch():
    frame = decompose(Mat2(2, 0, 0, 0.5), E1)
    assert frame.rho == pytest.approx(0.0, abs=1e-12)
    assert frame.beta == pytest.approx(2.0)
    assert frame.gamma == pytest.approx(0.0, abs=1e-12)


def test_decompose_rejects_non_sl2():
    with pytest.raises(NotSL2):
        decompose(Mat2(2, 0, 0, 1), E1)


def test_decompose_rejects_degenerate():
    # only Fs = 0 has no frame, and det F = 1 within tol allows it only at tol >= 1;
    # a tiny |Fs| such as 1e-12 decomposes
    assert decompose(Mat2(1e-12, 0.0, 0.0, 1e12), E1).beta == 1e-12
    with pytest.raises(DegenerateBeta):
        decompose(Mat2(0.0, -1.0, 0.0, 0.0), E1, tol=1.0)


def test_round_trip_ten_thousand_frames():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        frame = ShearFrame(rho=rng.uniform(0, 2 * math.pi),
                           beta=rng.uniform(0.1, 3.0),
                           gamma=rng.uniform(-3.0, 3.0), s=E1)
        F = frame.reconstruct()
        assert abs(F.det() - 1) < 1e-12
        back = decompose(F, E1)
        drho = abs(back.rho - frame.rho)
        drho = min(drho, 2 * math.pi - drho)
        err = max(drho, abs(back.beta - frame.beta), abs(back.gamma - frame.gamma))
        worst = max(worst, err)
    assert worst < 1e-9


@given(st.floats(min_value=0.0, max_value=2 * math.pi),
       st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_round_trip_property(rho, beta, gamma):
    frame = ShearFrame(rho, beta, gamma, E1)
    back = decompose(frame.reconstruct(), E1, tol=1e-6)
    assert back.beta == pytest.approx(beta, rel=1e-9, abs=1e-9)
    assert back.gamma == pytest.approx(gamma, rel=1e-9, abs=1e-9)


def test_round_trip_general_slip_direction():
    rng = np.random.default_rng(8)
    for _ in range(200):
        t = rng.uniform(0, 2 * math.pi)
        s = Vec2(math.cos(t), math.sin(t))
        frame = ShearFrame(rng.uniform(0, 2 * math.pi), rng.uniform(0.2, 2.0),
                           rng.uniform(-2, 2), s)
        F = frame.reconstruct()
        back = decompose(F, s)
        assert (back.reconstruct() - F).max_abs() < 1e-9


def test_matmul_and_outer():
    a, b = Vec2(1.0, 2.0), Vec2(3.0, -1.0)
    assert Mat2.outer(a, b) @ b == a * b.norm2()
    R = rotation(0.4)
    assert (R @ R.transpose() - Mat2.identity()).max_abs() < 1e-15


def test_matmul_by_a_scalar_is_type_error():
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for @: 'Mat2' and 'int'$"):
        Mat2(1, 0, 0, 1) @ 2


def test_sl2_check_rejects_nan_determinant():
    nan = float("nan")
    F = Mat2(nan, 0.0, 0.0, 1.0)
    assert not is_sl2(F)
    assert not is_SO2(F)
    with pytest.raises(NotSL2):
        require_sl2(F)
    with pytest.raises(NotSL2):
        decompose(F, E1)
    # finite entries whose determinant is inf - inf
    with pytest.raises(NotSL2):
        require_sl2(Mat2(1e200, 1e200, 1e200, 1e200))
    assert det_is_one(np.array([1.0, nan, 1.0 + 1e-12])).tolist() == [True, False, True]


def test_unit_band_lower_edge_stops_at_zero():
    # for tol > 2, (1 - tol)^2 > 1 would put |v| = 1 itself outside the band
    assert norm2_is_one(np.array([0.0, 0.5, 1.0, 2.0])).tolist() == [False, False, True, False]
    for tol in (2.5, 3.0, 1e200):
        assert norm2_is_one(1.0, tol)
        assert norm2_is_one(0.0, tol)
        assert norm2_is_one(np.array([0.0, 0.5, 1.0, 2.0]), tol).tolist() == [True] * 4
    assert norm2_is_one(np.array([0.0, 1.0, 16.0, 16.5]), 3.0).tolist() == [True, True, True, False]
    # for tol <= 1 the edge is still (1 - tol)^2
    assert norm2_is_one(np.array([0.2499, 0.25, 2.25, 2.2501]), 0.5).tolist() == [
        False, True, True, False]
    assert norm2_is_one(0.0, 1.0) and not norm2_is_one(-1e-300, 1.0)
    assert norm2_is_one(Fraction(1), 0) and not norm2_is_one(1 - Fraction(1, 10**30), 0)


def test_sl2_check_exact_for_fractions():
    third = Fraction(1, 3)
    assert is_sl2(Mat2(3 * third, third, 0, 1), tol=0)
    assert not is_sl2(Mat2(1 + Fraction(1, 10**30), 0, 0, 1), tol=0)
    require_sl2(Mat2(Fraction(2), Fraction(0), Fraction(0), Fraction(1, 2)), tol=0)
