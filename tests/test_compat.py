import json
import math

import numpy as np
import pytest

from helpers import (connector_search, exact_compatibility_slack, exact_image_slack, rand_sl2,
                     rand_unit)
from polyslip.cli import _parse_unit, run
from polyslip.compat import LaminateSplit, find_connection, laminate_split, nu_compatible
from polyslip.errors import NotSL2, ParallelSlips
from polyslip.mat2 import E1, E2, Mat2, ShearFrame, Vec2, decompose, rotation
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


def test_compatibility_needs_no_shear_frame(monkeypatch):
    # the image form needs no decompose and no _stretch_shear: each answer
    # stands when both raise, and neither compat nor geometry imports them
    from polyslip import compat, geometry, mat2

    def refuse(*args, **kwargs):
        raise AssertionError("shear frame used")

    for name in ("decompose", "_stretch_shear"):
        monkeypatch.setattr(mat2, name, refuse)
        assert not hasattr(compat, name) and not hasattr(geometry, name)
    # a built connection, the zero connection of a member of M, and no connection
    for F, nu, want in ((psi(0.5, 3.0), NU45, True), (psi(1.0, 3.0), NU45, True),
                        (DIAG, E1, False)):
        assert nu_compatible(F, E1, nu) is want
        assert (find_connection(F, E1, nu) is not None) is want
    pc = geometry.halfdisk_bicrystal(0.3, 1.9)
    normals = geometry.boundary_samples(pc, 90).normals
    for F in (Mat2.identity(), DIAG, psi(0.9, 0.2)):
        assert isinstance(geometry.outer_bound_full_member(F, pc), bool)
        for gid, rows in normals.items():
            assert isinstance(geometry.compatible_with_normals(
                F, pc.grain_by_id(gid).theta, rows), bool)
    assert not geometry.outer_bound_full_member(DIAG, pc)


def _scaled_sl2(rng, tol):
    """A (possibly anti-) triangular matrix with det 1 up to one rounding, entries 1e-150..1e150.

    At tol = 0 the diagonal pair is a power of two and its reciprocal, so det is exactly 1.
    """
    k = float(rng.uniform(-150.0, 150.0))
    a = math.ldexp(1.0, round(k * math.log2(10))) if tol == 0 else 10.0 ** k
    a *= float(rng.choice([-1.0, 1.0]))
    b = float(rng.choice([-1.0, 0.0, 1.0])) * 10.0 ** float(rng.uniform(-150.0, 150.0))
    return (Mat2(a, b, 0.0, 1 / a), Mat2(a, 0.0, b, 1 / a),
            Mat2(b, a, -1 / a, 0.0), Mat2(0.0, a, -1 / a, b))[int(rng.integers(4))]


def test_matches_exact_inequality_at_any_scale():
    # the window test against the inequality in exact rationals; s at random
    # or along an axis, where gamma is the (anti-)diagonal b, and nu at
    # random, along s, or at tan(psi) = (gamma + k)/beta, which lies inside
    # the window (gamma - w, gamma + w)/beta, w < 1, for |k| = 1/2 and outside for |k| = 2
    rng = np.random.default_rng(34)
    checked, outcomes = 0, []
    for i in range(3000):
        tol = (0.0, 1e-9, 1e-6)[i % 3]
        F = _scaled_sl2(rng, tol)
        s = (rand_unit(rng), E1, E2)[int(rng.integers(3))]
        fs, fp = F @ s, F @ s.perp()
        k = float(rng.choice([-2.0, -0.5, 0.5, 2.0]))
        offset = (s * fs.norm2() + s.perp() * (fp.dot(fs) + k * fs.norm())).unit()
        nu = (rand_unit(rng), s, offset)[int(rng.integers(3))]
        if abs(s.dot(nu)) <= tol:
            continue
        slack, scale = exact_compatibility_slack(F, s, nu, tol)
        if abs(slack) <= scale / 10**9:
            continue
        got = nu_compatible(F, s, nu, tol)
        assert got == (slack >= 0), (F, s, nu, tol)
        checked += 1
        outcomes.append(got)
    assert checked > 1500 and 200 < outcomes.count(False) < checked - 200


def test_huge_strains_answer_as_the_exact_image_inequality():
    # diag(lam, 1/lam), or a rotation of it, lam = 10^1..10^150, random slips,
    # normals e1, e2 or (0.6, 0.8), against the image form in exact rationals;
    # a window of normal angles answered some 9% of these draws wrongly, and
    # built targets with det -1.6e-16 where it called F compatible
    rng = np.random.default_rng(36)
    tol = 1e-9
    normals = (E1, E2, Vec2(0.6, 0.8))
    wrong, roundoff, outcomes = [], 0, []
    for i in range(6000):
        lam = 10.0 ** float(rng.uniform(1.0, 150.0))
        F = Mat2(lam, 0.0, 0.0, 1 / lam)
        if i % 2:
            F = rotation(float(rng.uniform(0.0, 2.0 * math.pi))) @ F
        s, nu = rand_unit(rng), normals[int(rng.integers(3))]
        if abs(s.dot(nu)) <= tol:
            continue
        slack, scale = exact_image_slack(F, s, nu, tol)
        if abs(slack) <= 1e-15 * scale:
            roundoff += 1
            continue
        got = nu_compatible(F, s, nu, tol)
        outcomes.append(got)
        if got != (slack >= 0):
            wrong.append((F, s, nu))
        if got:  # its connection's target: det 1 and |Gs| = 1, to the roundoff of its entries
            G = find_connection(F, s, nu, tol).target
            assert abs(G.det() - 1) <= 1e-12 * (abs(G.a11 * G.a22) + abs(G.a12 * G.a21))
            assert abs((G @ s).norm() - 1) <= tol + 1e-12 * G.max_abs()
    assert wrong == []
    assert roundoff <= 10 and 1000 < outcomes.count(False) < len(outcomes) - 1000


def test_huge_stretch_decides_compatibility():
    # |Fs|^2 = 1e320 overflows; the stretch is 1e160 all the same, so a normal
    # along s is incompatible and one at 53 degrees from it is compatible
    F = Mat2(1e160, 0, 0, 1e-160)
    assert not nu_compatible(F, E1, E1)
    assert nu_compatible(F, E1, Vec2(0.6, 0.8))
    # beta = gamma = 1e160 puts the window at 45 degrees from s, not along it
    G = Mat2(1e160, 1e160, 0, 1e-160)
    assert not nu_compatible(G, E1, NU45)
    assert nu_compatible(G, E1, E1)


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


def test_split_near_parallel_slips():
    # slips 1e-12 to 1e-1 rad apart flatten the parabola of the rank-one line
    rng = np.random.default_rng(35)
    done = 0
    for _ in range(3000):
        F = rand_sl2(rng, 0.3, 2.5, -3.0, 3.0)
        a0 = rng.uniform(0.0, 2.0 * math.pi)
        d = 10.0 ** rng.uniform(-12.0, -1.0)
        s, sp = Vec2(math.cos(a0), math.sin(a0)), Vec2(math.cos(a0 + d), math.sin(a0 + d))
        try:
            split = laminate_split(F, s, sp)
        except ParallelSlips:
            assert abs(s.cross(sp)) <= 1e-9
            continue
        _assert_split_valid_to_scale(split, F, s, sp)
        done += split.lam != 1.0
    assert done > 1000


def test_split_of_underflowing_pair_is_parallel():
    # |s - s'|^4 underflows: no closed form is left to evaluate
    with pytest.raises(ParallelSlips):
        laminate_split(DIAG, E1, Vec2(1.0, 1e-200).unit(), 0.0)


def test_split_of_huge_strain_is_finite():
    # |F(s + s')|^2 overflows without the power-of-two rescale
    F, sp = Mat2(1e154, 0.0, 0.0, 1e-154), Vec2(1.0, 1e-5).unit()
    split = laminate_split(F, E1, sp, 0.0)
    values = [split.lam, split.t_plus, split.t_minus,
              *(x for G in (split.F_plus, split.F_minus) for row in G.to_rows() for x in row)]
    assert all(map(math.isfinite, values))
    assert split.t_minus < 0.0 < split.t_plus
    assert 0.0 <= split.lam <= 1.0
    scale = max(split.F_plus.max_abs(), split.F_minus.max_abs())
    comb = split.lam * split.F_plus + (1 - split.lam) * split.F_minus
    assert (comb - F).max_abs() <= 1e-12 * scale


def test_split_roots_straddle_zero_when_the_gap_rounds_up(capsys):
    # |F b|^2 - |F a|^2 (q0) rounds to a tiny positive value, which put both
    # roots above 0 and printed lambda = -7.5e-17, outside the schema's [0, 1]
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res
    schema = json.loads(res.files("polyslip").joinpath(
        "schemas/cli_output.schema.json").read_text())
    matrix = "6.040416992162277e+150,4.026653092892795e+28,0.0,1.655514844914758e-151"
    slip2 = "-0.7727706442572153,-0.6346853798334168"
    assert run(["laminate", f"--matrix={matrix}", "--slip=0,1", f"--slip2={slip2}",
                "--tol=0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    assert payload["t_minus"] <= 0.0 <= payload["t_plus"]
    split = LaminateSplit(F_plus=Mat2(*sum(payload["F_plus"], [])),
                          F_minus=Mat2(*sum(payload["F_minus"], [])), lam=payload["lambda"],
                          t_plus=payload["t_plus"], t_minus=payload["t_minus"])
    F = Mat2(*map(float, matrix.split(",")))
    _assert_split_valid_to_scale(split, F, _parse_unit("0,1"), _parse_unit(slip2))


def test_split_of_slips_closer_than_tol(capsys):
    # |s x s'| = 1e-10 <= tol once raised ParallelSlips; the closed form splits it
    assert run(["laminate", "--matrix=2,0,0,0.5", "--slip=1,0", "--slip2=1,1e-10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t_minus"] < 0.0 < payload["t_plus"]
    split = LaminateSplit(F_plus=Mat2(*sum(payload["F_plus"], [])),
                          F_minus=Mat2(*sum(payload["F_minus"], [])), lam=payload["lambda"],
                          t_plus=payload["t_plus"], t_minus=payload["t_minus"])
    _assert_split_valid_to_scale(split, DIAG, E1, _parse_unit("1,1e-10"))


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


def _assert_split_valid_to_scale(split: LaminateSplit, F, s, sp):
    """``_assert_split_valid`` to the roundoff of the entries, S the largest.

    Near-parallel slips put the endpoints far out on the rank-one line,
    S ~ 1/|s - s'|.  Norms and averages are linear in the entries, so they
    hold to eps S; a determinant holds to eps times its two products.
    """
    scale = max(F.max_abs(), split.F_plus.max_abs(), split.F_minus.max_abs())
    rel = 1e-12 * scale
    assert 0.0 <= split.lam <= 1.0
    comb = split.lam * split.F_plus + (1 - split.lam) * split.F_minus
    assert (comb - F).max_abs() <= rel
    jump = split.F_plus - split.F_minus
    assert abs(jump.det()) <= 1e-12 * jump.max_abs() ** 2
    for G in (split.F_plus, split.F_minus):
        assert abs(G.det() - 1) <= 1e-12 * _det_scale(G)
        assert min((G @ s).norm(), (G @ sp).norm()) <= 1 + rel


def _det_scale(G: Mat2) -> float:
    return abs(G.a11 * G.a22) + abs(G.a12 * G.a21)
