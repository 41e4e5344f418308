"""The allocation-light scalar kernels agree bit for bit with the object paths they replace.

* ``taylor._frame_e1`` (``require_sl2`` + ``_stretch_shear`` on F's columns) against
  |F e1|^2 of ``(F @ E1).norm2()`` and the frame of ``decompose(F, E1)``,
  inside ``TaylorBound.member`` and ``taylor_M_member``, also where the two
  differ in the sign of a zero;
* ``slip.image_norm2`` against ``(F @ s).norm2()``;
* ``OuterBound.member`` against ``in_N`` per direction;
* the rows of ``BoundaryAnalysis.grain_rows`` against the grains and curves they stand for.
"""

import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from helpers import rand_sl2, rand_unit, rotations_batch, mat_of
from polyslip import taylor
from polyslip.errors import PolyslipError
from polyslip.geometry import (OuterBound, Segment, analyze_boundary, chord_disk,
                               halfdisk_bicrystal, quadrant_disk, random_chord_disk,
                               sheared_square_polycrystal)
from polyslip.mat2 import E1, Mat2, Vec2, decompose, is_sl2
from polyslip.slip import image_norm2, in_M, in_N, slip_direction
from polyslip.taylor import normalize, reduce_angles, taylor_M_member

TOLS = (1e-9, 1e-6, 0.0)


def _bits(x):
    """A float's bit pattern (so -0.0 != 0.0 and NaN == NaN), or an exact value as is."""
    return struct.pack("<d", x) if isinstance(x, float) else (type(x), x)


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the polyslip error it raises."""
    try:
        return fn(*args)
    except PolyslipError as exc:
        return type(exc)


def _frame_via_decompose(F, tol):
    frame = decompose(F, E1, tol)
    return (F @ E1).norm2(), frame.beta, frame.gamma


def _matrices(rng, n):
    """Random SL(2) matrices: stretched and sheared, near-rotations, rotations, a few off SL(2)."""
    mats = [rand_sl2(rng) for _ in range(n)]
    mats += [rand_sl2(rng, 0.999, 1.001, -1e-3, 1e-3) for _ in range(n // 4)]
    mats += [mat_of(R) for R in rotations_batch(rng, n // 4)]
    mats += [Mat2(2.0, 0.0, 0.0, 1.0), Mat2(1e-170, 0.0, 0.0, 1e170), Mat2(1.0, 0.0, 0.0, 1.0)]
    return mats


def _textures(rng, n):
    """Normalized random textures of 1 to 8 angles, with trivial and non-trivial bounds."""
    return [normalize(rng.uniform(0.0, math.pi, int(rng.integers(1, 9))).tolist())
            for _ in range(n)]


def test_frame_e1_is_the_decompose_frame_bit_for_bit():
    rng = np.random.default_rng(101)
    for F in _matrices(rng, 400):
        for tol in TOLS:
            want = _outcome(_frame_via_decompose, F, tol)
            got = _outcome(taylor._frame_e1, F, tol)
            if isinstance(want, tuple):
                assert tuple(map(_bits, got)) == tuple(map(_bits, want))
            else:
                assert got is want


def test_taylor_members_match_the_decompose_path(monkeypatch):
    rng = np.random.default_rng(102)
    textures = _textures(rng, 60)
    kinds = {taylor.is_trivial(a) for a in textures}
    assert kinds == {True, False}
    cases = [(F, a, tol) for a in textures for F in _matrices(rng, 8) for tol in TOLS]

    def decide():
        return [(_outcome(reduce_angles(a).member, F, tol), _outcome(taylor_M_member, F, a, tol))
                for F, a, tol in cases]

    got = decide()
    with monkeypatch.context() as m:
        m.setattr(taylor, "_frame_e1", _frame_via_decompose)
        want = decide()
    assert got == want
    assert all(type(r) in (bool, type) for pair in got for r in pair)
    members = [r for pair in got for r in pair]
    assert True in members and False in members


def _signed_zero_matrices():
    """The identity, half and quarter turns, shears and a stretch, with every sign of their zeros."""
    bases = [(1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0), (0.0, -1.0, 1.0, 0.0),
             (0.0, 1.0, -1.0, 0.0), (1.0, 0.5, 0.0, 1.0), (1.0, 0.0, 0.5, 1.0),
             (-1.0, 2e-3, 0.0, -1.0), (2.0, 0.0, 0.0, 0.5)]
    mats = []
    for base in bases:
        zeros = [i for i, x in enumerate(base) if x == 0.0]
        for signs in itertools.product((0.0, -0.0), repeat=len(zeros)):
            entries = list(base)
            for i, zero in zip(zeros, signs):
                entries[i] = zero
            mats.append(Mat2(*entries))
    return mats


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_signed_zeros_decide_as_the_decompose_frame(monkeypatch, tol):
    # F's columns give decompose's frame at e1 up to the sign of a zero, which no
    # decision reads: [[1, -0.0], [-0.0, 1]] has the shear 0.0 there and -0.0 here
    mats = _signed_zero_matrices()
    assert any(tuple(map(_bits, taylor._frame_e1(F, tol)))
               != tuple(map(_bits, _frame_via_decompose(F, tol))) for F in mats)
    rows = np.array([[[F.a11, F.a12], [F.a21, F.a22]] for F in mats])
    textures = [normalize(a) for a in ([0.0], [0.0, 0.6], [0.0, 0.6, 2.4], [0.0, math.pi / 2],
                                       [0.0, 1.0, 2.0], [0.0, 3.0])]

    def decide():
        return [(a._bound.member(F, tol), taylor_M_member(F, a, tol))
                for a in textures for F in mats]

    got = decide()
    with monkeypatch.context() as m:
        m.setattr(taylor, "_frame_e1", _frame_via_decompose)
        assert decide() == got
    for a in textures:
        scalar = [a._bound.member(F, tol) for F in mats]
        assert taylor.taylor_member_batch(rows, a, tol).tolist() == scalar
        if len(a.thetas) == 1:  # a single crystal reads its column: its relaxed and unrelaxed sets
            assert scalar == [in_N(F, E1, tol) for F in mats]
            assert [taylor_M_member(F, a, tol) for F in mats] == [in_M(F, E1, tol) for F in mats]
    members = [r for pair in got for r in pair]
    assert True in members and False in members


def test_image_norm2_matches_matmul_norm2_on_floats():
    rng = np.random.default_rng(103)
    for F in _matrices(rng, 200):
        for _ in range(3):
            s = rand_unit(rng)
            assert _bits(image_norm2(F, s)) == _bits((F @ s).norm2())


def test_image_norm2_is_exact_on_fractions():
    rng = np.random.default_rng(104)
    for _ in range(200):
        F = Mat2(*(Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 30)))
                   for _ in range(4)))
        s = Vec2(Fraction(3, 5), Fraction(-4, 5)) if rng.uniform() < 0.5 else Vec2(1, 0)
        want = (F @ s).norm2()
        got = image_norm2(F, s)
        assert type(got) is type(want) and got == want
        assert in_N(F, s, 0) == (is_sl2(F, 0) and want <= 1)


@pytest.mark.parametrize("rational", [False, True], ids=["float", "fraction"])
def test_outer_bound_member_matches_in_N_per_direction(rational):
    rng = np.random.default_rng(105)
    fifth = Fraction(1, 5)
    rational_dirs = (Vec2(1, 0), Vec2(0, 1), Vec2(3 * fifth, 4 * fifth),
                     Vec2(-4 * fifth, 3 * fifth))
    for k in range(60):
        n_dirs = k % 5  # empty J (the SL(2) bound) included
        if rational:
            dirs = tuple(rational_dirs[int(i)] for i in rng.integers(0, 4, n_dirs))
            F = Mat2(*(Fraction(int(v), 4) for v in rng.integers(-8, 9, 4)))
            mats = [F, Mat2(1, Fraction(int(rng.integers(-4, 5)), 3), 0, 1),
                    Mat2(3 * fifth, -4 * fifth, 4 * fifth, 3 * fifth)]
            tols = (0,)
        else:
            dirs = tuple(slip_direction(t) for t in rng.uniform(0.0, math.pi, n_dirs))
            mats = _matrices(rng, 8)
            tols = TOLS
        bound = OuterBound(slip_directions=dirs, trivial_flag=not dirs)
        for F in mats:
            for tol in tols:
                want = all(in_N(F, s, tol) for s in dirs) if dirs else is_sl2(F, tol)
                got = bound.member(F, tol)
                assert type(got) is bool and got == want


def test_grain_rows_hold_each_boundary_grains_slip_and_spans():
    rng = np.random.default_rng(106)
    stock = [quadrant_disk(), halfdisk_bicrystal(0.3, 1.9), sheared_square_polycrystal(),
             chord_disk([-0.3, 0.4], [0.2, 1.4, 2.6])]
    for pc in stock + [random_chord_disk(rng, int(rng.integers(2, 7))) for _ in range(10)]:
        analysis = analyze_boundary(pc)
        assert len(analysis.grain_rows) == len(analysis.boundary_grains)
        for gid, (c, s, in_j, lines, arcs) in zip(analysis.boundary_grains,
                                                   analysis.grain_rows):
            theta = pc.grain_by_id(gid).theta
            assert (_bits(c), _bits(s)) == (_bits(math.cos(theta)), _bits(math.sin(theta)))
            assert in_j == (gid in analysis.J)
            # a segment's edge vector, times a power of two that puts its
            # largest entry in [1/2, 1); an arc's end tangents, and its end
            # normals (up to sign) with whether it sweeps half a turn or more
            want_lines, want_arcs = [], []
            for curve in analysis.outer_curves[gid]:
                if isinstance(curve, Segment):
                    ex, ey = (curve.q - curve.p).to_floats()
                    x, y = lines[len(want_lines)]
                    r = x / ex if ex else y / ey
                    assert math.frexp(r)[0] == 0.5 and 0.5 <= max(abs(x), abs(y)) < 1.0
                    assert (x, y) == (ex * r, ey * r)
                    want_lines.append((x, y))
                    continue
                ends = [curve.normal_at(u).to_floats() for u in (0.0, 1.0)]
                if not curve.ccw:
                    ends = [(-x, -y) for x, y in reversed(ends)]
                want_lines += [(-y, x) for x, y in ends]
                want_arcs.append((*ends[0], *ends[1], curve.sweep() >= math.pi))
            assert lines == pytest.approx(want_lines, abs=1e-15)
            assert [row[4] for row in arcs] == [row[4] for row in want_arcs]
            assert [row[:4] for row in arcs] == pytest.approx(
                [row[:4] for row in want_arcs], abs=1e-15)
