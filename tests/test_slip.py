import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import mat_of, rand_sl2, rand_unit, stretch_edge_batch
from polyslip.errors import DomainError
from polyslip.geometry import (analyze_boundary, outer_bound_full_member, outer_bound_perp,
                               quadrant_disk, random_chord_disk)
from polyslip.mat2 import E1, E2, Mat2, ShearFrame, Vec2, is_sl2, rotation
from polyslip.slip import INFINITY, energy, in_M, in_N, psi
from polyslip.taylor import (gamma_bounds, normalize, taylor_M_member, taylor_member,
                             taylor_member_batch)


def test_in_M_examples():
    assert in_M(Mat2(1, 2, 0, 1), E1)
    assert not in_M(Mat2(2, 0, 0, 0.5), E1)
    for s in (E1, E2, Vec2(0.6, 0.8)):
        assert in_M(rotation(1.1), s)


def test_in_N_examples():
    assert in_N(Mat2(0.5, 0, 0, 2), E1)
    assert not in_N(Mat2(2, 0, 0, 0.5), E1)


def test_in_N_boundary_from_gamma_curve():
    # with beta = sin(theta) the shear interval collapses; that point sits
    # exactly on the boundary of the rotated set
    theta = math.pi / 3
    beta = math.sin(theta)
    lo, hi = gamma_bounds(theta, beta)
    assert lo == pytest.approx(hi, abs=1e-12)
    F = psi(beta, lo)
    assert in_N(F, E1)
    boundary_norm = ((F @ rotation(theta)) @ E1).norm()
    assert boundary_norm == pytest.approx(1.0, abs=1e-12)
    assert in_N(F @ rotation(theta), E1)


def test_energy_examples():
    assert energy(Mat2(1, 0.5, 0, 1), E1, p=2) == pytest.approx(0.25)
    for theta in (0.0, 0.9, 2.5):
        assert energy(rotation(theta), Vec2(math.cos(0.3), math.sin(0.3)), p=1) == 0
    assert energy(Mat2(2, 0, 0, 0.5), E1, p=2) == INFINITY


def test_energy_exponent_below_one_is_domain_error():
    # a NaN exponent is not >= 1 either: it once slipped past `p < 1` and returned nan
    for p, text in ((0.5, r"0\.5"), (math.nan, "nan")):
        with pytest.raises(DomainError, match=rf"^p = {text} must be >= 1$"):
            energy(Mat2(1, 0.5, 0, 1), E1, p=p)


def test_huge_tol_keeps_rotations_in_the_unrelaxed_set():
    # the lower stretch edge is max(1 - tol, 0)^2, not (1 - tol)^2 > 1
    identity = Mat2(1.0, 0.0, 0.0, 1.0)
    for tol in (2.5, 3.0, 1e200):
        assert in_N(identity, E1, tol)
        assert in_M(identity, E1, tol)
        assert in_M(Mat2(0.5, 0.0, 0.0, 2.0), E1, tol)
        assert energy(identity, E1, 2, tol) == 0.0
    assert not in_M(Mat2(5.0, 0.0, 0.0, 0.2), E1, 3.0)
    assert energy(Mat2(5.0, 0.0, 0.0, 0.2), E1, 2, 3.0) == INFINITY


def test_energy_exact_rational():
    F = Mat2(Fraction(1), Fraction(1, 2), Fraction(0), Fraction(1))
    assert energy(F, Vec2(Fraction(1), Fraction(0)), p=2, tol=0) == Fraction(1, 4)


def test_energy_matches_shear_amount():
    rng = np.random.default_rng(3)
    for _ in range(300):
        s = rand_unit(rng)
        frame = ShearFrame(rng.uniform(0, 2 * math.pi), 1.0, rng.uniform(-3, 3), s)
        F = frame.reconstruct()
        for p in (1, 2, 2.5):
            e = energy(F, s, p, tol=1e-7)
            assert e == pytest.approx(abs(frame.gamma) ** p, abs=1e-9, rel=1e-7)


def test_psi_examples():
    assert psi(1, 0) == Mat2(1, 0, 0, 1.0)
    assert psi(0.5, 1) == Mat2(0.5, 1, 0, 2.0)
    assert psi(math.sin(math.pi / 2), 0) == Mat2(1.0, 0, 0, 1.0)
    with pytest.raises(DomainError):
        psi(1.5, 0.0)
    with pytest.raises(DomainError):
        psi(0.0, 0.0)
    for gamma in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            psi(0.5, gamma)


def test_M_subset_N():
    rng = np.random.default_rng(4)
    for _ in range(500):
        s = rand_unit(rng)
        F = rand_sl2(rng)
        if in_M(F, s):
            assert in_N(F, s)


def test_rotation_covariance():
    rng = np.random.default_rng(5)
    for _ in range(300):
        F = rand_sl2(rng)
        s = rand_unit(rng)
        theta = rng.uniform(0, 2 * math.pi)
        R = rotation(theta)
        assert in_N(F, s) == in_N(F @ R.transpose(), R @ s)


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 1e-6])
def test_bounds_on_the_relaxed_set_agree_on_its_stretch_edge(tol):
    # |F e1| within 8 ulps of 1 + tol.  The Taylor bounds of a single crystal
    # are its strain sets, also in the batch, and the full outer bound lies
    # inside the perpendicular-point bound; the chord disk gets the draws
    # turned onto the slip of a grain with perpendicular points.  Kernels that
    # compared sqrt(|Fs|^2) with 1 + tol broke each on tens of draws per tol < 1e-6.
    rows = stretch_edge_batch(np.random.default_rng(31), 5_000, tol)
    mats = [F for F in map(mat_of, rows) if is_sl2(F, tol)]  # at tol 0, the exact dets
    assert len(mats) > 3_000
    single = normalize([0.0])
    relaxed = [in_N(F, E1, tol) for F in mats]
    assert relaxed.count(True) > 1_000 and relaxed.count(False) > 1_000
    assert [taylor_member(F, single, tol) for F in mats] == relaxed
    assert [taylor_M_member(F, single, tol) for F in mats] == [in_M(F, E1, tol) for F in mats]
    batch = np.array([[[F.a11, F.a12], [F.a21, F.a22]] for F in mats])
    assert taylor_member_batch(batch, single, tol).tolist() == relaxed

    chords = random_chord_disk(np.random.default_rng(0), 5)
    theta = chords.grain_by_id(min(analyze_boundary(chords).J)).theta
    turned = [G for G in (F @ rotation(-theta) for F in mats) if is_sl2(G, tol)]
    assert len(turned) > 500
    for pc, draws in ((quadrant_disk(), mats), (chords, turned)):
        perp = outer_bound_perp(pc)
        members = [F for F in draws if outer_bound_full_member(F, pc, tol)]
        assert [F for F in members if not perp.member(F, tol)] == []
        assert len(members) > 20
