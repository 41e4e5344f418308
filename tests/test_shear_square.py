import hashlib
import math
import pickle
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from polyslip.errors import DomainError, GammaOutOfRange
from polyslip.geometry import outer_bound_full_member, outer_bound_perp, sheared_square_polycrystal
from polyslip.mat2 import E1, Mat2, Vec2, is_SO2, rotation
from polyslip.shear_square import (_CELL_VERTICES, _EDGE_OWNERS, _INTERFACES, _TWICE_AREA,
                                   DOMAIN_CORNERS, GAMMA_MAX, GRAIN_OF_CELL, PwAffineMap,
                                   ShearSquareBuild, average_gradient, boundary_matrix, build,
                                   conclusion, grain_components, mesh_dict, render_svg, verify)
from polyslip.slip import in_N
from polyslip.taylor import normalize, taylor_member

HALF = Fraction(1, 2)


def _replace(obj, **changes):
    """A copy of the value ``obj``, rebuilt from its fields with ``changes`` applied."""
    fields = {name: getattr(obj, name) for name in obj._fields}
    fields.update(changes)
    return type(obj)(**fields)


def test_boundary_matrix_half():
    F = boundary_matrix(HALF)
    assert F == Mat2(Fraction(11, 10), Fraction(-1, 5), Fraction(3, 5), Fraction(4, 5))
    assert F.to_rows() == [[1.1, -0.2], [0.6, 0.8]]


def test_cell_gradients_half():
    b = build(HALF)
    assert b.map.cell("T1").A.to_rows() == [[0.75, 0.25], [0.5, 1.5]]
    assert b.map.cell("T1").A == b.map.cell("T5").A
    assert b.map.cell("S").A == Mat2(Fraction(1), HALF, Fraction(0), Fraction(1))


def test_unknown_cell_name_is_key_error():
    with pytest.raises(KeyError, match=r"^'T9'$"):
        build(HALF).map.cell("T9")


def test_zero_shear_is_rotation():
    b = build(0)
    assert b.F_gamma == Mat2(Fraction(4, 5), Fraction(-3, 5), Fraction(3, 5), Fraction(4, 5))
    assert is_SO2(b.F_gamma, tol=0)
    assert verify(b).all_passed


def test_gamma_out_of_range():
    with pytest.raises(GammaOutOfRange):
        build(0.9)
    with pytest.raises(GammaOutOfRange):
        build(Fraction(-9, 10))
    with pytest.raises(GammaOutOfRange):
        conclusion(0.75)


def _convergents(limit: int) -> list[Fraction]:
    """The continued-fraction convergents of sqrt(3) - 1 = [0; 1, 2, 1, 2, ...] with
    denominators up to ``limit``: 0, 1, 2/3, 3/4, 8/11, ..., on alternate sides of it."""
    (p0, q0), (p, q), out = (1, 0), (0, 1), []
    while q <= limit:
        out.append(Fraction(p, q))
        a = 1 if len(out) % 2 else 2
        (p0, q0), (p, q) = (p, q), (a * p + p0, a * q + q0)
    return out


def _range_message(g) -> str:
    """The ``GammaOutOfRange`` text for a rational gamma: |gamma| as the nearest float, or inf."""
    size = math.inf if abs(g) > sys.float_info.max else float(abs(g))
    return f"|gamma| = {size!r} exceeds sqrt(3) - 1"


def test_exact_range_is_decided_exactly_at_its_edge():
    edge = _convergents(10 ** 40)
    # huge numerators a hair to either side of the last convergents
    nudged = [Fraction(c.numerator * 10 ** 60 + k, c.denominator * 10 ** 60)
              for c in edge[-4:] for k in (-1, 1)]
    wide = [Fraction(10 ** 400 + 1, 10 ** 400), Fraction(10 ** 400, 3), Fraction(3, 10 ** 400),
            1, 10 ** 3, 10 ** 20, 10 ** 400]
    accepted = rejected = 0
    for g in [sign * x for x in edge + nudged + wide for sign in (1, -1)]:
        if (1 + abs(Fraction(g))) ** 2 <= 3:
            built = build(g)
            assert built.gamma == g and verify(built).all_passed
            assert conclusion(g)["separates"] is (g != 0)
            accepted += 1
        else:
            for step in (build, conclusion):
                with pytest.raises(GammaOutOfRange) as info:
                    step(g)
                assert str(info.value) == _range_message(g)
            rejected += 1
    assert accepted > 80 and rejected > 80


@pytest.mark.parametrize("gamma, size", [(math.nan, "nan"), (math.inf, "inf"),
                                         (-math.inf, "inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_gamma_is_named_in_the_range_error(gamma, size):
    for step in (build, conclusion):
        with pytest.raises(GammaOutOfRange) as info:
            step(gamma)
        assert str(info.value) == f"|gamma| = {size} exceeds sqrt(3) - 1"


def test_numpy_integers_enter_as_ints_and_do_not_wrap():
    # int64 squares wrapped in the range test: 2**62 passed it and 3037000500 built
    for g in (np.int64(2 ** 62), np.int64(3037000500), np.int64(-2 ** 62)):
        for step in (build, conclusion):
            with pytest.raises(GammaOutOfRange):
                step(g)


def test_a_fraction_of_numpy_integers_enters_as_a_fraction_of_ints():
    # int64 parts would wrap in the range test and the build
    big = Fraction(np.int64(3037000500), np.int64(2 ** 62))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        built = build(big)
        flags = conclusion(Fraction(np.int64(1), np.int64(2)))
    assert built == build(Fraction(3037000500, 2 ** 62)) and verify(built).all_passed
    assert type(built.gamma.numerator) is int and type(built.gamma.denominator) is int
    assert flags == conclusion(HALF) and all(type(v) is bool for v in flags.values())
    with pytest.raises(GammaOutOfRange):
        build(Fraction(np.int64(2 ** 62), np.int64(3)))


def _value_not_type_floats() -> list[float]:
    """Floats at the range edges and near 0, the 8,000 beyond each of +-GAMMA_MAX and
    20,000 seeded draws on [-0.74, 0.74]: 36,012 in all."""
    fixed = [1e-12, 2.0 ** -40, 5e-324, 0.0, GAMMA_MAX, 0.9]
    out = [sign * x for x in fixed for sign in (1.0, -1.0)]
    for edge in (GAMMA_MAX, -GAMMA_MAX):
        g = edge
        for _ in range(8000):
            g = math.nextafter(g, math.copysign(math.inf, edge))
            out.append(g)
    return out + np.random.default_rng(33).uniform(-0.74, 0.74, 20000).tolist()


def test_a_float_is_decided_as_the_rational_it_stores():
    # a float and its Fraction are one value: the same range answer and the same flags,
    # also in the 8,000 ulps beyond each edge and for 0 < |g| <= 1e-12
    gammas = _value_not_type_floats()
    assert len(gammas) == 36012
    in_range = 0
    for g in gammas:
        outcomes = []
        for value in (g, Fraction(g)):
            try:
                outcomes.append(build(value).gamma)
            except GammaOutOfRange:
                outcomes.append(None)
        assert (outcomes[0] is None) is (outcomes[1] is None), g
        if outcomes[0] is not None:
            assert conclusion(g) == conclusion(Fraction(g)), g
            in_range += 1
    assert 19000 < in_range < 21000
    assert not any(conclusion(g)["F_in_SO2"] for g in (1e-12, 2.0 ** -40, 5e-324, -5e-324))


def test_other_number_types_enter_as_python_numbers():
    cases = [(np.int64(0), 0), (np.uint8(0), 0), (False, 0), (np.float32(0.5), 0.5),
             (np.float64(0.5), 0.5), (np.float64(-0.0), 0),
             (np.float32(0.1), float(np.float32(0.1)))]
    for g, python in cases:
        built = build(g)
        assert type(built.gamma) is type(python) and built.gamma == python
        assert built == build(python) and verify(built).all_passed
        flags = conclusion(g)
        assert flags == conclusion(python)
        assert all(type(v) is bool for v in flags.values())


@pytest.mark.parametrize("gamma", [Decimal("0.5"), "1/2", 0.5j, None], ids=repr)
def test_gamma_of_another_type_is_a_domain_error(gamma):
    for step in (build, conclusion):
        with pytest.raises(DomainError, match=f"gamma of type {type(gamma).__name__} ") as info:
            step(gamma)
        assert type(info.value) is DomainError


def test_twelve_internal_interfaces():
    b = build(HALF)
    interfaces = b.map.interfaces()
    assert len(interfaces) == 12
    # four around the center square, eight between consecutive triangles
    around_s = [pair for pair in interfaces if "S" in (pair[0].name, pair[1].name)]
    assert len(around_s) == 4


def _edges(vertices) -> set:
    return {frozenset(e) for e in zip(vertices, vertices[1:] + vertices[:1])}


def test_interface_table_is_the_shared_edge_search():
    cells = list(_CELL_VERTICES.items())
    want = [(frozenset((n1, n2)), edge) for i, (n1, v1) in enumerate(cells)
            for n2, v2 in cells[i + 1:] for edge in _edges(v1) & _edges(v2)]
    got = [(frozenset((n1, n2)), frozenset((p, q))) for n1, n2, p, q in _INTERFACES]
    assert len(got) == len(set(got)) == 12
    assert set(got) == set(want)


def test_each_domain_edge_has_one_owner():
    corners = list(DOMAIN_CORNERS)
    assert [(a, b) for a, b, _ in _EDGE_OWNERS] == list(zip(corners, corners[1:] + corners[:1]))
    for a, b, owner in _EDGE_OWNERS:
        assert [n for n, vv in _CELL_VERTICES.items() if frozenset((a, b)) in _edges(vv)] == [owner]
    assert [owner for _, _, owner in _EDGE_OWNERS] == ["T8", "T6", "T4", "T2"]


def test_verify_exact_all_checks():
    report = verify(build(HALF))
    assert report.all_passed
    assert report.failures == ()


def test_verify_many_rational_gammas():
    for g in (Fraction(1, 3), Fraction(-7, 10), Fraction(7, 10), Fraction(1, 100)):
        report = verify(build(g))
        assert report.all_passed, (g, report.failures)


def test_verify_at_range_boundary_float():
    b = build(GAMMA_MAX)
    report = verify(b)
    assert report.all_passed
    # the widest stretch sits exactly on the strain-set boundary
    t1 = b.map.cell("T1").A
    assert (t1 @ E1).norm() == pytest.approx(1.0, abs=1e-12)
    assert conclusion(GAMMA_MAX)["separates"]


def test_tampered_build_fails_checks():
    good = build(HALF)
    bad_cells = tuple(
        _replace(c, A=Mat2(Fraction(1), HALF, Fraction(1, 10), Fraction(1)))
        if c.name == "S" else c
        for c in good.map.cells)
    bad = ShearSquareBuild(gamma=good.gamma, map=PwAffineMap(cells=bad_cells),
                           F_gamma=good.F_gamma)
    report = verify(bad)
    assert not report.continuity
    assert not report.determinant
    assert not report.all_passed


def _tampered(build_, name, **changes):
    cells = tuple(_replace(c, **changes) if c.name == name else c
                  for c in build_.map.cells)
    return _replace(build_, map=PwAffineMap(cells=cells))


_GOOD = build(HALF)
_GOOD_FLOAT = build(0.25)
_TENTH_E1 = Vec2(Fraction(1, 10), Fraction(0))


def _float_shift(name, dx):
    """``_GOOD_FLOAT`` with cell ``name``'s translation moved by (dx, 0)."""
    return _tampered(_GOOD_FLOAT, name, b=_GOOD_FLOAT.map.cell(name).b + Vec2(dx, 0.0))


_TAMPERED = {
    # T8 owns the edge (0,0)-(3,-1): all three of its probes move
    "shift_T8": (_tampered(_GOOD, "T8", b=_GOOD.map.cell("T8").b + _TENTH_E1),
                 {"continuity", "boundary_trace"}),
    "double_F": (_replace(_GOOD, F_gamma=_GOOD.F_gamma * 2), {"boundary_trace"}),
    # det 1, but e1 is stretched by 2: outside N(e1)
    "stretch_S": (_tampered(_GOOD, "S", A=Mat2(Fraction(2), HALF, Fraction(0), HALF)),
                  {"continuity", "membership", "rank_one_jumps"}),
    # a quarter turn keeps S in N(e1) but breaks its interfaces
    "turn_S": (_tampered(_GOOD, "S", A=Mat2(Fraction(0), Fraction(-1), Fraction(1), Fraction(0))
                         @ _GOOD.map.cell("S").A),
               {"continuity", "rank_one_jumps"}),
    # every comparison with a NaN residual fails
    "nan_S": (_tampered(_GOOD_FLOAT, "S", A=Mat2(float("nan"), 0.25, 0.0, 1.0)),
              {"continuity", "determinant", "membership", "rank_one_jumps"}),
    # a residual far below the smallest float still counts
    "shift_T8_1e-400": (_tampered(_GOOD, "T8", b=_GOOD.map.cell("T8").b
                                  + Vec2(Fraction(1, 10**400), Fraction(0))),
                        {"continuity", "boundary_trace"}),
    # det 1, and |A e1|^2 = 1 + 1e-20 rounds to 1 as a float
    "stretch_S_1e-20": (_tampered(_GOOD, "S", A=Mat2(Fraction(1), HALF, Fraction(1, 10**10),
                                                     1 + HALF / 10**10)),
                        {"continuity", "membership", "rank_one_jumps"}),
    # the float path at its default tol 1e-9: S's four interfaces move by 2e-9, and
    # T8's three trace probes 3p by 6e-9, beyond 3 tol
    "shift_S_2e-9_float": (_float_shift("S", 2e-9), {"continuity"}),
    "shift_T8_2e-9_float": (_float_shift("T8", 2e-9), {"continuity", "boundary_trace"}),
}


def _denominator(build_) -> int:
    """D: the lcm of the denominators of every cell's A and b and of F_gamma."""
    entries = [*(x for c in build_.map.cells
                 for x in (c.A.a11, c.A.a12, c.A.a21, c.A.a22, c.b.x, c.b.y)),
               build_.F_gamma.a11, build_.F_gamma.a12, build_.F_gamma.a21, build_.F_gamma.a22]
    return math.lcm(*(Fraction(x).denominator for x in entries))


def _nudged(build_, check):
    """``build_`` with one entry moved by 1/D^2 so that ``check`` fails, and the checks that fail."""
    eps = Fraction(1, _denominator(build_) ** 2)
    S = build_.map.cell("S")
    a11, a12, a21, a22 = S.A.a11, S.A.a12, S.A.a21, S.A.a22
    assert (a11, a21, a22) == (1, 0, 1)  # S = [[1, gamma], [0, 1]]
    if check == "continuity":
        return _tampered(build_, "S", b=S.b + Vec2(eps, 0)), {"continuity"}
    if check == "determinant":  # det 1 + eps, so S leaves N(e1) too
        return (_tampered(build_, "S", A=Mat2(a11, a12, a21, a22 + eps)),
                {"continuity", "determinant", "membership", "rank_one_jumps"})
    if check == "membership":  # |A e1|^2 = 1 + eps^2; a22 keeps det 1
        return (_tampered(build_, "S", A=Mat2(a11, a12, a21 + eps, a22 + a12 * eps)),
                {"continuity", "membership", "rank_one_jumps"})
    if check == "boundary_trace":
        F = build_.F_gamma
        return _replace(build_, F_gamma=Mat2(F.a11 + eps, F.a12, F.a21, F.a22)), {"boundary_trace"}
    assert check == "rank_one_jumps"  # the jump breaks continuity at an interface end too
    return (_tampered(build_, "S", A=Mat2(a11, a12 + eps, a21, a22)),
            {"continuity", "rank_one_jumps"})


_NUDGE_GAMMAS = {"half": HALF, "denominator_1e200": Fraction(-7 * 10**199 + 3, 10**200 + 1)}


@pytest.mark.parametrize("check", ["continuity", "determinant", "membership", "boundary_trace",
                                   "rank_one_jumps"])
@pytest.mark.parametrize("gamma", list(_NUDGE_GAMMAS))
def test_each_check_catches_an_entry_moved_by_one_over_d_squared(gamma, check):
    good = build(_NUDGE_GAMMAS[gamma])
    assert verify(good).all_passed
    bad, failing = _nudged(good, check)
    failed = {name for name, ok in verify(bad).as_dict().items() if ok is False}
    assert failed == failing | {"all_passed"}


@pytest.mark.parametrize("name", list(_TAMPERED))
def test_each_check_fails_on_a_tampered_build(name):
    bad, failing = _TAMPERED[name]
    report = verify(bad)
    failed = {check for check, ok in report.as_dict().items() if ok is False}
    assert failed == failing | {"all_passed"}


@pytest.mark.parametrize("name", list(_TAMPERED))
def test_tampered_builds_fail_after_their_original_was_verified(name):
    # a tampered build shares cells, the map or F_gamma with its original;
    # the original's kept lift must not stand in for its own
    bad, failing = _TAMPERED[name]
    original = _GOOD if bad.gamma == HALF else _GOOD_FLOAT
    assert verify(original).all_passed
    for copy in (bad, _replace(bad)):
        failed = {check for check, ok in verify(copy).as_dict().items() if ok is False}
        assert failed == failing | {"all_passed"}


def test_failure_strings_are_pinned():
    def failures(name):
        return verify(_TAMPERED[name][0]).failures

    assert failures("shift_T8") == (
        "continuity: T1|T8", "continuity: T7|T8", "boundary trace at (0.0, 0.0)",
        "boundary trace at (1.0, -0.3333333333333333)",
        "boundary trace at (2.0, -0.6666666666666666)")
    assert failures("double_F") == (
        "boundary trace at (1.0, -0.3333333333333333)",
        "boundary trace at (2.0, -0.6666666666666666)", "boundary trace at (3.0, -1.0)",
        "boundary trace at (3.3333333333333335, 0.0)",
        "boundary trace at (3.6666666666666665, 1.0)", "boundary trace at (4.0, 2.0)",
        "boundary trace at (3.0, 2.3333333333333335)",
        "boundary trace at (2.0, 2.6666666666666665)", "boundary trace at (1.0, 3.0)",
        "boundary trace at (0.6666666666666666, 2.0)",
        "boundary trace at (0.3333333333333333, 1.0)")
    assert failures("stretch_S") == (
        "continuity: S|T1", "jump: S|T1", "continuity: S|T3", "jump: S|T3",
        "continuity: S|T5", "jump: S|T5", "continuity: S|T7", "jump: S|T7", "membership: S")
    # a float build labels each trace probe by the same nearest floats to the true point
    float_build = build(0.5)
    assert verify(_replace(float_build, F_gamma=float_build.F_gamma * 2)).failures == \
        failures("double_F")


def _pythagorean(a, b, c):
    return Mat2(Fraction(a, c), Fraction(-b, c), Fraction(b, c), Fraction(a, c))


@pytest.mark.parametrize("gamma", [HALF, Fraction(-7, 10), Fraction(0),
                                   Fraction(-5 * 10**11 + 7, 10**12 + 39)])
def test_rational_pre_rotation_rotates_every_cell_exactly(gamma):
    plain = build(gamma)
    for R in (_pythagorean(3, 4, 5), _pythagorean(5, 12, 13) @ _pythagorean(8, 15, 17)):
        rotated = build(gamma, pre_rotation=R)
        assert rotated.F_gamma == R @ plain.F_gamma
        for cell, ref in zip(rotated.map.cells, plain.map.cells):
            assert (cell.name, cell.A, cell.b) == (ref.name, R @ ref.A, R @ ref.b)
            assert all(type(x) is Fraction for x in (cell.A.a11, cell.A.a12, cell.A.a21,
                                                     cell.A.a22, cell.b.x, cell.b.y))
        assert verify(rotated).all_passed


def test_mixed_build_is_checked_within_the_float_tolerance():
    # rational gamma under a float rotation: float entries, so tol 1e-9 by default
    b = build(HALF, pre_rotation=rotation(0.8))
    assert isinstance(b.map.cell("S").A.a11, float)
    assert verify(b).all_passed
    assert not verify(b, tol=0).all_passed


def test_exact_reads_every_entry():
    assert build(HALF).exact
    assert build(HALF, pre_rotation=_pythagorean(3, 4, 5)).exact
    assert build(0).exact
    assert not build(0.25).exact
    assert not build(0.25, pre_rotation=_pythagorean(3, 4, 5)).exact
    # rational gamma under a float rotation: every entry is a float
    assert not build(HALF, pre_rotation=rotation(0.8)).exact


def test_a_verified_build_is_the_value_of_a_fresh_one():
    for gamma, R in ((HALF, None), (HALF, _pythagorean(3, 4, 5)), (0.25, None)):
        verified, fresh = build(gamma, R), build(gamma, R)
        assert verify(verified).all_passed
        average_gradient(verified)
        mesh_dict(verified)
        assert verified == fresh and hash(verified) == hash(fresh)
        assert repr(verified) == repr(fresh)
        assert pickle.dumps(verified) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(verified)) == fresh


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_R345 = _pythagorean(3, 4, 5)
_G200 = Fraction(-7 * 10**199 + 3, 10**200 + 1)
_PINNED_GAMMAS = {"float": 0.25, "minus_zero": -0.0, "plus_zero": 0.0,
                  "rational": Fraction(-7, 10), "denominator_1e200": _G200}
# sha256 prefixes of repr(average_gradient), repr(mesh_dict) and render_svg,
# recorded before these outputs were computed on the integer lift
_PINNED_OUTPUTS = {
    ("float", "none"): ("221ca88ffe29262a", "f50caf7525d415ab", "69f47f4a501619ea"),
    ("float", "r345"): ("cf0f6e86183b0785", "05cf4fa60324bda5", "76ae77dcbb32e2ca"),
    ("minus_zero", "none"): ("1477c50e2906681b", "26d2603746910886", "4e7e7df9d6d33f43"),
    ("minus_zero", "r345"): ("5d8221b9e57d08d3", "576eb5946cef529a", "b70ee24c23cca2a0"),
    ("plus_zero", "none"): ("1477c50e2906681b", "26d2603746910886", "4e7e7df9d6d33f43"),
    ("plus_zero", "r345"): ("5d8221b9e57d08d3", "576eb5946cef529a", "b70ee24c23cca2a0"),
    ("rational", "none"): ("f7d0700fa7d801ea", "66f0d65b0822a433", "3243f280813f9787"),
    ("rational", "r345"): ("e495ae0f79e05ad7", "1d46901c2e32e3e0", "0fc9e18a8f0f2507"),
    ("denominator_1e200", "none"): ("9eeae89220c09e2e", "66f0d65b0822a433", "3243f280813f9787"),
    ("denominator_1e200", "r345"): ("28bf3448c210e383", "1d46901c2e32e3e0", "0fc9e18a8f0f2507"),
}


@pytest.mark.parametrize("case", list(_PINNED_OUTPUTS))
def test_outputs_are_pinned(case):
    name, rot = case
    b = build(_PINNED_GAMMAS[name], _R345 if rot == "r345" else None)
    got = (_digest(repr(average_gradient(b))), _digest(repr(mesh_dict(b))),
           _digest(render_svg(b)))
    assert got == _PINNED_OUTPUTS[case]


def test_float_and_mixed_outputs_are_pinned():
    assert average_gradient(build(0.25)) == Mat2(0.9500000000000001, -0.4, 0.6000000000000001, 0.8)
    assert mesh_dict(build(0.25))["vertices_deformed"] == [
        [0.5, 2.0], [1.25, 1.0], [2.5, 2.0], [1.75, 3.0], [0.0, 0.0], [-0.25, 3.0], [3.0, 4.0],
        [3.25, 1.0]]
    mixed = build(HALF, pre_rotation=rotation(0.8))
    assert average_gradient(mixed) == Mat2(0.3359637257421682, -0.7132262145890513,
                                           1.2071157255977745, 0.4138941492978278)
    got = (_digest(repr(mesh_dict(mixed))), _digest(render_svg(mixed)))
    assert got == ("35cec27ba18791a0", "b53173bd516bc012")
    # each deformed vertex of an exact build is the float nearest its exact value
    assert mesh_dict(build(_G200, _R345))["vertices_deformed"] == [
        [-2.44, 0.08], [-0.62, 0.84], [-1.24, 1.68], [-3.06, 0.92], [0.0, 0.0], [-4.26, -0.68],
        [-3.68, 1.76], [0.58, 2.44]]


def test_conclusion_flags():
    assert conclusion(HALF) == {"taylor_trivial": True, "F_in_SO2": False,
                                "separates": True}
    assert conclusion(0)["separates"] is False
    assert conclusion(0.0)["separates"] is False


def test_average_gradient_identity_exact():
    for gamma in (HALF, Fraction(-2, 5), _G200):
        for R in (None, _R345):
            b = build(gamma, R)
            avg = average_gradient(b)
            assert avg == b.F_gamma
            assert all(type(x) is Fraction for x in (avg.a11, avg.a12, avg.a21, avg.a22))


def test_center_and_flank_cells_agree_on_the_diagonal():
    # the square's gradient and its diagonal neighbors act identically on
    # e1 - e2, which is what makes the interfaces compatible
    b = build(HALF)
    v = Vec2(Fraction(1), Fraction(-1))
    expected = Vec2(Fraction(1) - HALF, Fraction(-1))
    for name in ("S", "T1", "T5"):
        assert b.map.cell(name).A @ v == expected


@pytest.mark.parametrize("name", ["S", "T8"])
def test_float_shifts_within_the_default_tol_pass(name):
    assert verify(_float_shift(name, 5e-10)).all_passed


def test_float_shift_failure_strings_are_pinned():
    assert verify(_TAMPERED["shift_S_2e-9_float"][0]).failures == (
        "continuity: S|T1", "continuity: S|T3", "continuity: S|T5", "continuity: S|T7")
    assert verify(_TAMPERED["shift_T8_2e-9_float"][0]).failures == (
        "continuity: T1|T8", "continuity: T7|T8", "boundary trace at (0.0, 0.0)",
        "boundary trace at (1.0, -0.3333333333333333)",
        "boundary trace at (2.0, -0.6666666666666666)")


@pytest.mark.parametrize("build_, tol", [(_TAMPERED["double_F"][0], math.inf), (_GOOD, math.nan),
                                         (_GOOD, -1e-9)], ids=["inf", "nan", "negative"])
def test_verify_rejects_a_tol_that_is_not_finite_and_non_negative(build_, tol):
    # an infinite tol would pass the doubled F_gamma, a NaN or negative one fail a valid build
    with pytest.raises(DomainError):
        verify(build_, tol=tol)


def test_membership_split_by_grain():
    b = build(HALF)
    for cell in b.map.cells:
        s = Vec2(1, 0) if GRAIN_OF_CELL[cell.name] == "e1" else Vec2(0, 1)
        assert in_N(cell.A, s, tol=0)


def test_grain_components_match_construction():
    comps = sorted((g, tuple(sorted(c))) for g, c in grain_components(build(HALF)))
    assert comps == [("e1", ("S", "T1", "T4", "T5", "T8")),
                     ("e2", ("T2", "T3")),
                     ("e2", ("T6", "T7"))]


def test_the_polycrystal_is_the_one_the_cells_induce():
    pc = sheared_square_polycrystal()
    assert [seg.p.to_floats() for seg in pc.domain] == [(float(x), float(y))
                                                        for x, y in DOMAIN_CORNERS]
    comps = grain_components(build(HALF))
    texture = {"e1": 0.0, "e2": math.pi / 2}
    matched = []
    for grain in pc.grains:
        corners = {seg.p.to_floats() for seg in grain.boundary}
        (i,) = [i for i, (slip, cells) in enumerate(comps)
                if corners == {(float(x), float(y)) for c in cells for x, y in _CELL_VERTICES[c]}]
        slip, cells = comps[i]
        assert grain.theta == texture[slip]
        assert grain.area() == sum(_TWICE_AREA[c] for c in cells) / 2
        matched.append(i)
    assert sorted(matched) == list(range(len(comps)))
    assert sorted(grain.area() for grain in pc.grains) == [2.0, 2.0, 6.0]


def test_the_boundary_strain_separates_the_bounds_on_their_own_deciders():
    # F_gamma is attainable (outer_bound_full_member) but, for gamma != 0, outside the
    # Taylor bound of the polycrystal's texture, while the perpendicular-point bound is SL(2)
    pc = sheared_square_polycrystal()
    texture = normalize([grain.theta for grain in pc.grains])
    assert outer_bound_perp(pc).trivial_flag
    rng = np.random.default_rng(47)
    gammas = [Fraction(k, 100) for k in range(-73, 74)]
    gammas += rng.uniform(-GAMMA_MAX, GAMMA_MAX, 500).tolist()
    for g in gammas:
        F = Mat2(*[x for row in boundary_matrix(g).to_rows() for x in row])
        assert outer_bound_full_member(F, pc), g
        assert taylor_member(F, texture) is (g == 0), g
        assert conclusion(g)["separates"] is (g != 0), g


def test_rotated_variant():
    R = rotation(0.8)
    b = build(0.5, pre_rotation=R)
    assert (b.F_gamma - R @ boundary_matrix(0.5)).max_abs() < 1e-12
    assert verify(b).all_passed


def test_origin_anchoring():
    b = build(HALF)
    for name in ("T1", "T2", "T8"):
        cell = b.map.cell(name)
        assert cell.value(Vec2(Fraction(0), Fraction(0))) == Vec2(Fraction(0), Fraction(0))


def test_mesh_export():
    md = mesh_dict(build(HALF))
    assert len(md["vertices_reference"]) == 8
    assert len(md["vertices_deformed"]) == 8
    assert {c["name"] for c in md["cells"]} == {"S"} | {f"T{i}" for i in range(1, 9)}
    corner_idx = md["vertices_reference"].index([0.0, 0.0])
    assert md["vertices_deformed"][corner_idx] == [0.0, 0.0]


def test_float_build_verifies_with_tolerance():
    report = verify(build(0.25))
    assert report.all_passed
