import math

import numpy as np
import pytest

from helpers import connector_search, rand_sl2, rand_unit
from polyslip.compat import LaminateSplit, find_connection, laminate_split, nu_compatible
from polyslip.errors import NotSL2, ParallelSlips
from polyslip.mat2 import E1, E2, Mat2, ShearFrame, Vec2, decompose
from polyslip.slip import in_M, in_N, psi

DIAG = Mat2(2, 0, 0, 0.5)
NU45 = Vec2(1.0, 1.0).unit()


def test_identity_compatible_for_any_normal():
    rng = np.random.default_rng(30)
    for _ in range(50):
        assert nu_compatible(Mat2.identity(), E1, rand_unit(rng))


def test_stretched_matrix_incompatible_along_e1():
    # the volume constraint confines the jump to a = (0, a2), so the
    # first column stays (2, a2) and the stretched norm never reaches 1
    assert not nu_compatible(DIAG, E1, E1)
    assert find_connection(DIAG, E1, E1) is None
    assert connector_search(DIAG, E1, E1) is None
    # the closed-form quantities: beta = 2, gamma = 0, c = 0 gives 1/4 < 1
    frame = decompose(DIAG, E1)
    assert (0.0 * frame.beta + frame.gamma) ** 2 + 1 / frame.beta**2 == pytest.approx(0.25)


def test_perpendicular_normal_reduces_to_membership():
    assert nu_compatible(Mat2(0.5, 0, 0, 2), E1, E2)
    assert not nu_compatible(Mat2(2, 0, 0, 0.5), E1, E2)


def test_connection_for_member_is_zero():
    conn = find_connection(Mat2.identity(), E1, NU45)
    assert conn.a == Vec2(0.0, 0.0)
    assert conn.target == Mat2.identity()


def test_connection_large_shear():
    F = psi(1.0, 3.0)
    conn = find_connection(F, E1, NU45)
    assert conn is not None
    assert in_M(conn.target, E1, 1e-9)
    assert abs(conn.target.det() - 1) < 1e-9
    # jump annihilates the interface direction
    assert ((conn.target - F) @ NU45.perp()).norm() < 1e-9


def test_connection_exists_exactly_when_compatible_at_tol_edge():
    # |F e1| = 1 within tol puts F in M, but the inequality fails at tol
    F = Mat2(1.0000000009, 0.0, 0.0, 0.9999999991)
    assert in_M(F, E1, 1e-9)
    assert not nu_compatible(F, E1, E1)
    assert find_connection(F, E1, E1) is None
    rng = np.random.default_rng(32)
    for _ in range(500):
        eps = float(rng.uniform(-3e-9, 3e-9))
        G = Mat2(1.0 + eps, float(rng.uniform(-2e-9, 2e-9)), 0.0, 1.0 / (1.0 + eps))
        for nu in (E1, E2, NU45, rand_unit(rng)):
            assert (find_connection(G, E1, nu) is None) == (not nu_compatible(G, E1, nu))


def test_connection_postconditions_random():
    rng = np.random.default_rng(31)
    produced = 0
    for _ in range(2000):
        F = rand_sl2(rng, 0.4, 2.0, -2.5, 2.5)
        s = rand_unit(rng)
        nu = rand_unit(rng)
        if abs(s.dot(nu)) <= 1e-3:
            continue
        conn = find_connection(F, s, nu)
        assert (conn is not None) == nu_compatible(F, s, nu)
        if conn is None:
            continue
        produced += 1
        assert in_M(conn.target, s, 1e-9) or conn.a == Vec2(0.0, 0.0)
        assert in_N(conn.target, s, 1e-9)
        diff = conn.target - F
        scale = max(1.0, diff.max_abs())
        assert (diff - Mat2.outer(conn.a, nu)).max_abs() < 1e-14 * scale
    assert produced > 500


def test_equivalence_with_brute_force_search():
    rng = np.random.default_rng(32)
    for _ in range(2000):
        F = rand_sl2(rng, 0.4, 2.0, -2.5, 2.5)
        s = rand_unit(rng)
        nu = rand_unit(rng)
        if abs(s.dot(nu)) <= 1e-3:
            continue
        a = connector_search(F, s, nu)
        assert (a is not None) == nu_compatible(F, s, nu)
        if a is not None:
            target = F + Mat2.outer(a, nu)
            assert abs(target.det() - 1) < 1e-9
            assert in_M(target, s, 1e-7)


def test_density_characterization():
    # compatibility for all normals on a fine circle grid is equivalent
    # to relaxed-set membership
    rng = np.random.default_rng(33)
    grid = [Vec2(math.cos(t), math.sin(t))
            for t in ((np.arange(1000) + 0.5) * 2 * math.pi / 1000)]
    for _ in range(40):
        F = rand_sl2(rng, 0.5, 2.2, -2.0, 2.0)
        s = rand_unit(rng)
        frame = decompose(F, s)
        if abs(frame.beta - 1.0) < 1e-3:
            continue
        everywhere = all(nu_compatible(F, s, nu) for nu in grid
                         if abs(s.dot(nu)) > 1e-3)
        assert everywhere == in_N(F, s)


def test_compat_requires_sl2():
    with pytest.raises(NotSL2):
        nu_compatible(Mat2(2, 0, 0, 1), E1, E2)


@pytest.mark.parametrize("entries", [(float("nan"), 0.0, 0.0, 1.0),
                                     (1e200, 1e200, 1e200, 1e200)])
def test_nan_determinant_rejected(entries):
    F = Mat2(*entries)
    for call in (lambda: nu_compatible(F, E1, E2), lambda: find_connection(F, E1, E2),
                 lambda: laminate_split(F, E1, E2)):
        with pytest.raises(NotSL2):
            call()


# ---------------------------------------------------------------------------
# laminate splitting
# ---------------------------------------------------------------------------

def test_trivial_split_inside_union():
    F = psi(0.8, 0.3)
    split = laminate_split(F, E1, NU45)
    assert split.lam == 1.0
    assert split.F_plus == F


def test_split_diagonal_stretch():
    split = laminate_split(DIAG, E1, NU45)
    _assert_split_valid(split, DIAG, E1, NU45)
    u, w = E1 + NU45, E1 - NU45
    for G in (split.F_plus, split.F_minus):
        assert (G @ u).norm() == pytest.approx((G @ w).norm(), rel=1e-9)


def test_split_orthogonal_slips_closed_form():
    F = ShearFrame(0.2, 2.0, 0.0, E1).reconstruct()
    split = laminate_split(F, E1, E2)
    _assert_split_valid(split, F, E1, E2)
    assert min((split.F_plus @ E1).norm(), (split.F_plus @ E2).norm()) <= 1 + 1e-9


def test_split_random_sweep():
    rng = np.random.default_rng(34)
    done = 0
    while done < 1500:
        F = rand_sl2(rng, 0.3, 2.5, -3.0, 3.0)
        s = rand_unit(rng)
        sp = rand_unit(rng)
        if abs(s.cross(sp)) < 1e-3:
            continue
        if in_N(F, s) or in_N(F, sp):
            continue
        split = laminate_split(F, s, sp)
        _assert_split_valid(split, F, s, sp)
        done += 1


def test_parallel_slips_rejected():
    with pytest.raises(ParallelSlips):
        laminate_split(DIAG, E1, Vec2(-1.0, 0.0))


def _assert_split_valid(split: LaminateSplit, F, s, sp):
    assert 0.0 <= split.lam <= 1.0
    comb = split.lam * split.F_plus + (1 - split.lam) * split.F_minus
    assert (comb - F).max_abs() < 1e-9 * max(1.0, F.max_abs())
    jump = split.F_plus - split.F_minus
    assert abs(jump.det()) < 1e-9 * max(1.0, jump.max_abs()) ** 2
    assert abs(split.F_plus.det() - 1) < 1e-9
    assert abs(split.F_minus.det() - 1) < 1e-9
    assert in_N(split.F_plus, s, 1e-9) or in_N(split.F_plus, sp, 1e-9)
    assert in_N(split.F_minus, s, 1e-9) or in_N(split.F_minus, sp, 1e-9)
