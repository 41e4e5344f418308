import math
import re
import warnings

import numpy as np
import pytest

from helpers import (all_angle_taylor_M_member, brute_force_taylor, mat_of, rand_sl2,
                     rand_sl2_batch, rotations_batch, scan_trivial, stretch_edge_batch)
from polyslip import taylor
from polyslip.errors import DegenerateBeta, DomainError, EmptyInput, NotSL2
from polyslip.mat2 import E1, Mat2, decompose, is_SO2, is_sl2, rotation
from polyslip.slip import in_M, in_N, psi
from polyslip.taylor import (AngleSet, PAIR, SINGLE_CRYSTAL, TRIPLE, gamma_bounds,
                             in_lambda, is_trivial, normalize, reduce_angles,
                             shear_interval, taylor_M_member, taylor_member, taylor_member_batch)

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
    with pytest.raises(DomainError):
        gamma_bounds(0.5, math.nan)


def test_nan_stretch_is_outside_every_shear_interval():
    assert shear_interval(0.5, math.nan) == (math.inf, -math.inf)
    assert not in_lambda(0.5, math.nan, 0.0)


def test_in_lambda_examples():
    for theta in (0.1, PI / 3, PI / 2, 2.9):
        assert in_lambda(theta, 1.0, 0.0)
    assert not in_lambda(PI / 2, 0.9, 0.0)
    assert not in_lambda(PI / 6, 0.4, 0.0)


@pytest.mark.parametrize("theta", [0.0, PI, -0.5])
def test_in_lambda_theta_outside_is_domain_error(theta):
    with pytest.raises(DomainError, match=rf"^theta = {re.escape(repr(theta))} outside \(0, pi\)$"):
        in_lambda(theta, 1.0, 0.0)


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


def test_building_a_bound_never_raises():
    # a bound keeps sin and cos of its angles, but an underflowing sin(theta)^2
    # is refused only when a matrix is decided
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = normalize([0.0, 5e-324], 0.0)
        assert normalize([0.0, 1e-200], 0.0)._bound.angles == (0.0, 1e-200)
    assert tiny._bound.angles == (0.0, 5e-324)
    message = "theta = 5e-324: sin(theta)^2 underflows"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        taylor_member(Mat2.identity(), tiny, 0.0)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        taylor_member_batch(np.eye(2)[None], tiny, 0.0)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        in_lambda(5e-324, 0.5, 0.0, 0.0)


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
    assert len(aset.thetas) == 1


@pytest.mark.parametrize("angles", [[math.nan, 0.0, 1.0], [0.0, math.nan], [math.inf],
                                    [0.3, -math.inf]])
def test_normalize_rejects_non_finite_angles(angles):
    # a NaN must neither become the shift nor vanish in the merge
    with pytest.raises(DomainError):
        normalize(angles)


@pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf], ids=["nan", "negative", "inf"])
def test_normalize_rejects_a_tol_that_is_not_finite_and_non_negative(tol):
    # nan merged every angle away, a negative tol kept duplicates and inf merged all into one
    with pytest.raises(DomainError, match="tol must be finite and >= 0"):
        normalize([0.0, 1.0, 1.0], tol)


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


def _edge_placed_batch(rng, aset, n, tol):
    """SL(2) matrices R(phi) psi(beta, gamma) with gamma on a tol-widened edge of the region.

    gamma = gamma_- - tol, gamma_- + tol, gamma_+ - tol or gamma_+ + tol of
    one nonzero angle of the bound, so roundoff decides each membership.
    """
    thetas = [a for a in reduce_angles(aset).angles if a > 0.0]
    beta = rng.uniform(max(math.sin(a) for a in thetas), 1.0, n)
    which = rng.integers(0, len(thetas), n)
    side, shift = rng.integers(0, 2, n), rng.choice([-tol, tol], n)
    gamma = np.array([gamma_bounds(thetas[w], b)[d] for w, b, d in zip(which, beta, side)])
    gamma += shift
    phi = rng.uniform(0.0, 2.0 * PI, n)
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty((n, 2, 2))
    out[:, 0, 0] = c * beta
    out[:, 0, 1] = c * gamma - s / beta
    out[:, 1, 0] = s * beta
    out[:, 1, 1] = s * gamma + c / beta
    return out


def _unit_stretch_rows(rng, aset, n, tol, b=1.0):
    """(n, 2, 2) quarter turns times [[b, gamma], [0, 1/b]]: at b = 1, psi(1, gamma), whose
    |F e1|^2 and det F are exactly 1.

    The first quarter of the rows are rotations at b = 1 (gamma = 0); the rest put gamma
    at 0 or at an end -2/tan(theta) of the reduced bound's beta = 1 intervals,
    moved by -2 to 2 ulps or by tol.
    """
    ends = [0.0] + [-2.0 / math.tan(a) for a in reduce_angles(aset).angles[1:]]
    gamma = rng.choice(ends, n)
    ulps = rng.integers(-2, 3, n) * np.array([math.ulp(g) for g in gamma])
    gamma += np.where(rng.uniform(size=n) < 0.5, ulps, rng.choice([-tol, tol], n))
    gamma[:n // 4] = 0.0
    c, s = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])[rng.integers(0, 4, n)].T
    out = np.empty((n, 2, 2))
    out[:, 0, 0], out[:, 0, 1] = c * b, c * gamma - s / b
    out[:, 1, 0], out[:, 1, 1] = s * b, s * gamma + c / b
    return out


def _scalar_answers(F, aset, tol):
    """``taylor_member`` row by row; False where it raises ``DegenerateBeta``."""
    def one(row):
        try:
            return taylor_member(mat_of(row), aset, tol)
        except DegenerateBeta:
            return False
    return [one(row) for row in F]


# det exactly 1, |F e1| below 1e-9 or its square underflowing: members of N(e1), as no floor
# refuses them
_DEGENERATE_ROWS = np.array([[[2.0 ** -30, 0.0], [0.0, 2.0 ** 30]],
                             [[2.0 ** -600, 0.0], [0.0, 2.0 ** 600]],
                             [[0.0, -2.0 ** 600], [2.0 ** -600, 0.0]]])


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("angles", [[0.0, 0.6, 2.4], [0.0, 0.9], [0.0], [0.0, 1.2, 1.9]],
                         ids=["triple", "pair", "single", "trivial"])
def test_batch_equals_scalar_on_the_region_edge(angles, tol):
    # 20,000 rows on the gamma edges of the region span two blocks; before the
    # batch shared the scalar's (beta, gamma) arithmetic, hundreds of these rows
    # came out differently.  20,000 more lie on its stretch edge, and the
    # tiny-stretch rows are members of the single crystal only, as of its relaxed set.
    # 2,000 rows at beta = 1 exactly, where the window takes its exact ends,
    # hold 500 rotations, members of every texture.
    aset = normalize(angles)
    rng = np.random.default_rng(int(tol * 1e9) + len(angles))
    open_region = len(angles) > 1 and not is_trivial(aset)
    parts = [_edge_placed_batch(rng, aset, 20_000, tol)] if open_region else []
    parts += [_unit_stretch_rows(rng, aset, 2_000, tol), stretch_edge_batch(rng, 20_000, tol),
              _DEGENERATE_ROWS]
    F = np.concatenate(parts)
    want = _scalar_answers(F, aset, tol)
    if open_region:
        assert 1000 < sum(want[:20_000]) < 19_000
    assert all(want[-22_003:-21_503])
    assert 1000 < sum(want[-20_003:-3]) < 19_000
    assert want[-3:] == [len(angles) == 1] * 3
    assert taylor_member_batch(F, aset, tol).tolist() == want


@pytest.mark.parametrize("tol", [1e-6, 0.0])
@pytest.mark.parametrize("angles", [[0.0, 0.6, 2.4], [0.0, 1.2, 1.9]], ids=["open", "trivial"])
def test_batch_equals_scalar_where_the_square_leaves_the_float_range(angles, tol):
    # |F e1|^2 overflows (the scalar takes hypot) or underflows or falls below
    # tol (the scalar raises DegenerateBeta), among ordinary rows; every det
    # is exactly 1 and no row may raise a numpy warning
    aset = normalize(angles)
    big, small = 2.0 ** 530, 2.0 ** -600
    F = np.array([[[big, 0.0], [big, 1.0 / big]], [[0.75 / small, -small], [1.0 / small, 0.0]],
                  [[small, 0.0], [0.0, 1.0 / small]], [[0.0, -1.0 / small], [small, 0.0]],
                  [[2.0 ** -24, 0.0], [0.0, 2.0 ** 24]], [[1.0, 0.0], [0.0, 1.0]],
                  [[0.6, -0.8], [0.8, 0.6]], [[0.8, 0.01], [0.0, 1.25]]])
    assert (F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0] == 1.0).all()
    want = _scalar_answers(F, aset, tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = taylor_member_batch(F, aset, tol)
    assert got.tolist() == want
    assert not got[:5].any()
    assert got[5:7].all()  # rotations, at beta = 1 exactly


@pytest.mark.parametrize("tol", [0.05, 0.3, 0.75, 1.5, 3.0])
@pytest.mark.parametrize("angles", [[0.0, 0.6, 2.4], [0.0, 1.2, 1.9], [0.0]],
                         ids=["open", "trivial", "single"])
def test_batch_equals_scalar_at_large_tol(angles, tol):
    # each texture normalized at the default tol and at this one, which merges
    # the open texture into one crystal from 0.75 on; the open texture is
    # trivial from 0.3 on, above 1 norm2_is_one clamps its lower edge at 0,
    # and every |F e1| < tol is degenerate
    rng = np.random.default_rng(int(tol * 100) + len(angles))
    for aset in (normalize(angles), normalize(angles, tol)):
        single = aset._bound.kind == SINGLE_CRYSTAL
        parts = [] if single else [_edge_placed_batch(rng, aset, 1000, tol)]
        parts += [_unit_stretch_rows(rng, aset, 1000, tol), stretch_edge_batch(rng, 1000, tol),
                  rand_sl2_batch(rng, 1000, 0.05, 4.0, -6.0, 6.0)]
        F = np.concatenate(parts)
        want = _scalar_answers(F, aset, tol)
        assert True in want and False in want
        assert taylor_member_batch(F, aset, tol).tolist() == want


def _tiny_to_huge_stretch_rows():
    """det-1 rows [[b, g], [0, 1/b]] and their quarter turns, |F e1| = b from 1e-200 to 1e200."""
    b = np.concatenate([10.0 ** np.linspace(-200.0, 200.0, 401),
                        2.0 ** np.arange(-664.0, 665.0, 8.0)])
    b = b[b * (1.0 / b) == 1.0]
    g = np.random.default_rng(41).uniform(-3.0, 3.0, len(b))
    rows = np.zeros((len(b), 2, 2))
    rows[:, 0, 0], rows[:, 0, 1], rows[:, 1, 1] = b, g, 1.0 / b
    turned = np.stack([-rows[:, 1], rows[:, 0]], axis=1)  # rotation(pi/2) @ F, det exactly 1 too
    return np.concatenate([rows, turned])


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.3, 1.5, 3.0])
def test_single_crystal_bound_is_its_relaxed_set_at_every_stretch(tol):
    # a stretch below tol, or whose square underflows at tol = 0, once raised DegenerateBeta
    F = _tiny_to_huge_stretch_rows()
    aset = normalize([0.0])
    want = [in_N(mat_of(row), E1, tol) for row in F]
    assert [taylor_member(mat_of(row), aset, tol) for row in F] == want
    assert taylor_member_batch(F, aset, tol).tolist() == want
    assert True in want and False in want


@pytest.mark.parametrize("tol", [1.5, 3.0])
@pytest.mark.parametrize("angles", [[0.0], [0.0, 0.6], [0.0, 0.6, 2.4]])
def test_rotations_are_members_above_tol_one(angles, tol):
    # |F e1| = 1 < tol once raised DegenerateBeta; only F e1 = 0 has no frame, which
    # a single crystal does not need: it reads |F e1|^2 only, as its relaxed set does
    aset = normalize(angles)
    rho = np.random.default_rng(43).uniform(0.0, 2.0 * PI, 1000)
    F = np.stack([np.cos(rho), -np.sin(rho), np.sin(rho), np.cos(rho)], axis=1).reshape(-1, 2, 2)
    assert taylor_member_batch(F, aset, tol).all()
    assert all(taylor_member(mat_of(row), aset, tol) for row in F[:50])
    zero_column = np.array([[[0.0, -1.0], [0.0, 0.0]]])  # det 0, within tol of 1
    if len(angles) == 1:
        assert in_N(mat_of(zero_column[0]), E1, tol)
        assert taylor_member_batch(zero_column, aset, tol).all()
        assert taylor_member(mat_of(zero_column[0]), aset, tol)
        # |F e1| = 0 is also 1 within tol > 1: the unrelaxed set holds it, and so does M
        assert in_M(mat_of(zero_column[0]), E1, tol)
        assert taylor_M_member(mat_of(zero_column[0]), aset, tol)
        return
    assert not taylor_member_batch(zero_column, aset, tol).any()
    with pytest.raises(DegenerateBeta):
        taylor_member(mat_of(zero_column[0]), aset, tol)


def test_scalar_member_reduces_the_texture_once(monkeypatch):
    angles = [0.0, 0.3, 0.6, 0.9]
    rows = _edge_placed_batch(np.random.default_rng(18), normalize(angles), 64, 1e-3)
    mats = [mat_of(row) for row in rows]
    want = [reduce_angles(normalize(angles)).member(F) for F in mats]
    calls = []

    def counted(aset):
        calls.append(aset)
        return reduce_angles(aset)

    monkeypatch.setattr(taylor, "reduce_angles", counted)
    aset = normalize(angles)
    assert [taylor_member(F, aset) for F in mats] == want
    assert len(calls) == 1
    assert True in want and False in want


def _decision(F, aset, tol):
    """``taylor_member(F, aset, tol)``, or the type of the error it raises."""
    try:
        return taylor_member(F, aset, tol)
    except NotSL2 as exc:
        return type(exc)


def test_one_bound_follows_tol_as_fresh_bounds_do():
    # a bound keeps its triviality for the last tol only: {0, pi/2 + 5e-4} is trivial
    # at tol 1e-3 but not at tol 0, so a kept answer for another tol decides wrongly
    rng = np.random.default_rng(29)
    crafted = np.array([[[1.0, 5e-4], [0.0, 1.0]],  # a member at tol 0 only
                        [[1.0005, 0.02], [0.0, 1 / 1.0005]],  # at tol 1e-3 only while not trivial
                        [[1.0005, 0.0], [0.0, 1 / 1.0005]]])  # at tol 1e-3 only
    rows = np.concatenate([crafted, rand_sl2_batch(rng, 120, 0.998, 1.002, -2e-3, 2e-3),
                           rotations_batch(rng, 20)])
    mats = [mat_of(row) for row in rows]
    dets = rows[:, 0, 0] * rows[:, 1, 1] - rows[:, 0, 1] * rows[:, 1, 0]
    tols = (0.0, 1e-3, 0.0, 1e-9, 1e-3, 1e-3, 0.5, 0.0, 1.5, 1e-9, 0.0)
    pair = normalize([0.0, PI / 2 + 5e-4], 0.0)
    assert is_trivial(pair, 1e-3) and not is_trivial(pair, 0.0)
    for angles in ([0.0, PI / 2 + 5e-4], [0.0, 0.6, 2.4], [0.0, PI / 2], [0.4, 1.9]):
        kept = normalize(angles, 0.0)
        answers = set()
        for tol in tols:
            fresh = normalize(angles, 0.0)
            got = [_decision(F, kept, tol) for F in mats]
            assert got == [_decision(F, fresh, tol) for F in mats]
            answers.add(tuple(got))
            sl2 = np.abs(dets - 1) <= tol
            assert np.array_equal(taylor_member_batch(rows[sl2], kept, tol),
                                  taylor_member_batch(rows[sl2], normalize(angles, 0.0), tol))
        assert len(answers) > 2


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


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.5, 3.5])
def test_triviality_on_the_reduced_angles_matches_the_full_scan(tol):
    # is_trivial reads only the reduced angles; every consecutive pair of the full texture
    # is scanned here, with angles within a few tol and one ulp of pi/2 and near 0 and pi
    rng = np.random.default_rng(30)
    near = [PI / 2 + sign * k * tol for sign in (-1.0, 1.0) for k in (0.0, 0.5, 1.0, 2.0)]
    near += [math.nextafter(t, side) for t in near for side in (0.0, PI)]
    near += [5e-324, 1e-9, 1e-3, PI - 1e-3, math.nextafter(PI, 0.0)]
    pool = sorted({t for t in near if 0.0 < t < PI})
    answers = set()
    for _ in range(500):
        picked = [float(rng.choice(pool)) if rng.random() < 0.8 else float(rng.uniform(0.0, PI))
                  for _ in range(int(rng.integers(0, 7)))]
        aset = AngleSet(tuple(sorted({0.0, *picked})))
        want = scan_trivial(aset.thetas, tol)
        assert is_trivial(aset, tol) == want, (aset.thetas, tol)
        answers.add(want)
    assert answers == {True, False}


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


def test_batch_row_off_sl2_raises():
    rows = np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(NotSL2, match=r"^batch contains matrices with det != 1$"):
        taylor_member_batch(rows, normalize([0.0, 1.0]))


def test_empty_angle_set_is_rejected():
    with pytest.raises(EmptyInput, match=r"^angle set is empty$"):
        AngleSet(())


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


@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_unrelaxed_membership_reads_the_reduced_bound(tol):
    # the all-angle scan on random textures, half of them holding 0 and pi/2
    # exactly; shears on and next to the interval ends, at stretch 1 exactly
    # (and rotated, where tol admits the det, which moves |F e1| off 1 by an ulp
    # on some rows and so reads each window at the frame's own beta)
    rng = np.random.default_rng(23)
    answers = []
    for _ in range(400):
        raw = rng.uniform(0.0, PI, int(rng.integers(1, 8))).tolist()
        if rng.uniform() < 0.5:
            raw += [0.0, PI / 2]
        aset = normalize(raw, tol)
        ends = [0.0] + [-2.0 / math.tan(t) for t in aset.thetas[1:]]
        for _ in range(10):
            end = float(rng.choice(ends))
            gamma = end + int(rng.integers(-2, 3)) * max(tol, math.ulp(end))
            F = psi(1.0, gamma)
            if tol > 0.0 and rng.uniform() < 0.5:
                F = rotation(rng.uniform(0.0, 2.0 * PI)) @ F
            want = all_angle_taylor_M_member(F, aset, tol)
            got = taylor_M_member(F, aset, tol)
            if decompose(F, E1, tol).beta == 1.0:
                assert got == want
            else:
                # off beta = 1 each angle's window rounds on its own, so on a shear within a
                # rounding of a widened edge the answer is only held between the oracle's at
                # a tol a little narrower and a little wider (the oracle only grows with tol)
                assert all_angle_taylor_M_member(F, aset, tol * 0.999) <= got
                assert got <= all_angle_taylor_M_member(F, aset, tol * 1.001)
            answers.append(want)
    assert 500 < sum(answers) < len(answers) - 500


def test_identity_is_a_member_of_every_pair_texture_at_tol_zero():
    # at beta = 1 the window once rounded one of gamma_pm across 0, so the
    # identity failed 265 of these textures on the scalar and the batch path,
    # and fl(pi/2) gave taylor_M_member an empty interval
    identity, rows = Mat2.identity(), np.eye(2)[None]
    for k in range(1, 1000):
        aset = normalize([0.0, k * PI / 1000], 0.0)
        assert taylor_member(identity, aset, 0.0), k
        assert taylor_member_batch(rows, aset, 0.0).tolist() == [True], k
        assert taylor_M_member(identity, aset, 0.0), k


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_unrelaxed_implies_relaxed_at_unit_stretch(tol):
    # M is N plus the band |F e1| = 1 within tol, so M is inside N at every stretch of the
    # band: rows at |F e1|^2 == 1 exactly, and rows whose |F e1| is moved by -tol, -tol/2,
    # tol/2, tol or -4 to 4 ulps, half of them left-rotated (rows off SL(2) at this tol are
    # skipped); random textures, half of them holding 0 and pi/2.  M once read the beta = 1
    # intervals off |F e1| = 1 too, and so held hundreds of these rows that N refuses.
    rng = np.random.default_rng(171)
    m_members = moved_members = 0
    for _ in range(300):
        raw = rng.uniform(0.0, PI, int(rng.integers(1, 6))).tolist()
        if rng.uniform() < 0.5:
            raw += [0.0, PI / 2]
        aset = normalize(raw, tol)
        b = 1.0 + np.where(rng.uniform(size=40) < 0.5,
                           rng.choice([-tol, -tol / 2, tol / 2, tol], 40),
                           rng.integers(-4, 5, 40) * math.ulp(1.0))
        b[:20] = 1.0
        rows = _unit_stretch_rows(rng, aset, 40, tol, b)
        turned = rng.uniform(size=40) < 0.5
        rows[turned] = rotations_batch(rng, turned.sum()) @ rows[turned]
        for row in rows:
            F = mat_of(row)
            if not is_sl2(F, tol):
                continue
            if taylor_M_member(F, aset, tol):
                m_members += 1
                moved_members += (F @ E1).norm2() != 1.0
                assert taylor_member(F, aset, tol)
    assert 4000 < m_members < 10_000
    assert moved_members > 1000 if tol > 0.0 else moved_members == 0


def test_unrelaxed_trivial_when_angles_straddle():
    # with orientations on both sides of pi/2 only rotations survive
    aset = normalize([0.0, 0.5, 1.9, 2.3])
    assert taylor_M_member(rotation(0.8) @ psi(1.0, 0.0), aset)
    assert not taylor_M_member(rotation(0.8) @ psi(1.0, -0.2), aset)
    assert not taylor_M_member(rotation(0.8) @ psi(1.0, 0.2), aset)
